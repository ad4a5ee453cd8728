#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny sizes, in both modes.

    python3 perfbench/smoke_test.py

Asserts that each result names every metric of its mode with the unit
run.py declares, that the output checks ran and passed, and that a second
untraced run of the same seed compared every trial's rounds with the first
and found them equal. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the metric tables)

SEED = 7


def bench(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit("%s trace %d: exit %d\n%s"
                 % (workload, trace, out.returncode, out.stderr[-4000:]))
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def expect(condition, message):
    if not condition:
        sys.exit("FAIL: " + message)


def main():
    for workload, _ in run.WORKLOADS:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            provenance, result = bench(workload, trace)
            where = "%s trace %d" % (workload, trace)
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, where + ": result keys")
            units = {row[0]: row[1] for row in table}
            metrics = result["metrics"]
            expect(set(metrics) == set(units), where + ": metric names")
            for name, unit in units.items():
                expect(metrics[name]["unit"] == unit, where + ": unit of " + name)
            expect(result["attempted"] > 0 and result["failed"] == 0
                   and result["correct"], where + ": checks %r" % result)
            for key in ("simd_lane", "rng_draw_path_version",
                        "engine_state_version", "nproc", "build_type",
                        "compiler", "commit", "seed"):
                expect(key in provenance, where + ": provenance " + key)
            if trace == 0:
                again, result = bench(workload, 0)
                expect(again["determinism_compared"] > 0 and result["correct"],
                       where + ": determinism against the previous run")
            print("ok", where, flush=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
