#!/usr/bin/env python3
"""End-to-end benchmark of the consensus library: build, run, check, report.

    python3 perfbench/run.py --workload kn-paper --seed 1 --seconds 10 --trace 0

builds the library and the perfbench program from this checkout (CMake,
Release, into $CARGO_TARGET_DIR or .bench_build), runs one workload, checks
its outputs, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The line before it carries the run's provenance. `--write-config` rewrites
BENCHMARK.json at the repository root from the tables below, which are the
one place workloads and metrics are defined. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = [
    ("kn-paper",
     "the paper's K_n model on the counting engine at large n and k; nearly "
     "all of a round is the sampling cascade"),
    ("structured-counting",
     "annealed power-law and SBM graphs on the degree-class and block "
     "engines: mixing plus per-group multinomials, which kn-paper bypasses"),
    ("agent-sparse",
     "per-vertex agent engine on a quenched 16-regular graph with 4 engine "
     "threads; no multinomial, the control for sampling changes"),
    ("served-jobs",
     "open-loop sweep and scenario jobs plus reads against a loopback "
     "daemon; HTTP, queue, wire and connection churn dominate"),
]

# (name, unit, better, bound): bound is the share of the parent's median a
# metric may worsen by before a change counts as a regression.
END_TO_END = [
    ("consensus_s", "s", "lower", 0.25),
    ("rounds_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

PER_LAYER = [
    ("api.from_spec_ms", "ms", "lower"),
    ("api.make_engine_ms", "ms", "lower"),
    ("core.step_us_p50", "us", "lower"),
    ("core.step_us_p99", "us", "lower"),
    ("core.step_s", "s", "lower"),
    ("core.is_consensus_s", "s", "lower"),
    ("core.rounds", "count", "lower"),
    ("core.trial_ms_p50", "ms", "lower"),
    ("core.trial_ms_p90", "ms", "lower"),
    ("core.alive_mean", "count", "lower"),
    ("sampling.multinomial_ns_per_slot", "ns", "lower"),
    ("core.law_us_per_round", "us", "lower"),
    ("sampling.replay_share", "ratio", "lower"),
    ("simd.mixture_accumulate_us_per_round", "us", "lower"),
    ("graph.neighbor_ns", "ns", "lower"),
    ("agent.cpu_per_wall", "ratio", "higher"),
    ("serve.job_latency_ms_p50", "ms", "lower"),
    ("serve.job_latency_ms_p90", "ms", "lower"),
    ("serve.job_latency_ms_p99", "ms", "lower"),
    ("serve.submit_ms_p50", "ms", "lower"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.queue_wait_ms_p99", "ms", "lower"),
    ("serve.stream_ms_p50", "ms", "lower"),
    ("serve.read_ms_p50", "ms", "lower"),
    ("serve.read_ms_p99", "ms", "lower"),
    ("serve.bytes_per_job", "bytes", "lower"),
    ("serve.refused", "ratio", "lower"),
    ("serve.daemon_threads", "count", "lower"),
    ("serve.daemon_vmsize_mb", "MB", "lower"),
    ("serve.generator_lag_ms_p99", "ms", "lower"),
    ("experiment.offline_sweep_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("error_rate", "ratio", "lower"),
]

# Layers a workload never calls read 0 in its traced result.
_IN_PROCESS = ("api.", "core.", "sampling.", "simd.", "graph.", "agent.")
NOT_EXERCISED = {
    "kn-paper": ("serve.",),
    "structured-counting": ("serve.",),
    "agent-sparse": ("serve.",),
    "served-jobs": _IN_PROCESS,
}

RUN_SECONDS = 20
TIMEOUT_S = 170


def benchmark_config():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def fail(message, code):
    log(message)
    sys.exit(code)


def require_sources():
    needed = ["CMakeLists.txt", "src/consensus", "tools/consensus_cli.cpp",
              "examples/specs/sweep_fig1_grid.json",
              "examples/specs/quickstart.json"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("the checkout lacks the sources to build: " + ", ".join(missing), 2)


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE) not in f.read():
                shutil.rmtree(build_dir)  # configured for another checkout
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "perfbench", "consensus_cli"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "consensus", "consensus_cli"))


def file_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def source_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    files = []
    for top in ("src", "tools"):
        for base, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(base, n) for n in names]
    return "src-sha256:" + file_digest(
        sorted(files) + [os.path.join(ROOT, "CMakeLists.txt")])


def determinism_check(record_path, build_id, rounds):
    """Compares per-trial rounds with an earlier run of the same build and
    seed; returns (compared, mismatched) and merges the record."""
    record = {"build_id": build_id, "rounds": {}}
    if os.path.exists(record_path):
        with open(record_path) as f:
            old = json.load(f)
        if old.get("build_id") == build_id:
            record = old
    compared = mismatched = 0
    for key, value in rounds.items():
        if key in record["rounds"]:
            compared += 1
            if record["rounds"][key] != value:
                mismatched += 1
                log("determinism: %s had %d rounds, now %d"
                    % (key, record["rounds"][key], value))
        record["rounds"][key] = value
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return compared, mismatched


def shape_metrics(report, workload, trace, error_rate):
    """The metric set of this mode, checked against the tables."""
    table = PER_LAYER if trace else END_TO_END
    measured = dict(report["metrics"])
    if trace:
        measured["error_rate"] = {"value": error_rate, "unit": "ratio"}
        for name, unit, _ in PER_LAYER:
            if name not in measured and name.startswith(NOT_EXERCISED[workload]):
                measured[name] = {"value": 0.0, "unit": unit}
    expected = {row[0]: row[1] for row in table}
    if set(measured) != set(expected):
        fail("metric set mismatch: missing %s, unexpected %s"
             % (sorted(set(expected) - set(measured)),
                sorted(set(measured) - set(expected))), 4)
    for name, metric in measured.items():
        value = metric["value"]
        if metric["unit"] != expected[name] or not isinstance(
                value, (int, float)) or not math.isfinite(value):
            fail("bad metric %s: %r" % (name, metric), 4)
    return {name: {"value": measured[name]["value"],
                   "unit": measured[name]["unit"]} for name, _, *_ in table}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w for w, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--write-config", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args()

    if args.write_config:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_config(), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    require_sources()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary, cli = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e, 3)

    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    size = "smoke" if args.smoke else "full"
    tag = "%s-%d-%s" % (args.workload, args.seed, size)
    report_path = os.path.join(work_dir, "report-%s-trace%d.json"
                               % (tag, args.trace))
    if os.path.exists(report_path):
        os.remove(report_path)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cli", cli, "--specs-dir",
               os.path.join(ROOT, "examples", "specs"),
               "--work-dir", work_dir, "--report", report_path]
    if args.smoke:
        command.append("--smoke")
    # Own session, so a timeout also takes down the daemon perfbench spawned.
    proc = subprocess.Popen(command, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("perfbench overran %d s" % TIMEOUT_S, 5)
    if code != 0 or not os.path.exists(report_path):
        fail("perfbench exited with %d" % code, 5)
    with open(report_path) as f:
        report = json.load(f)

    build_id = file_digest([binary, cli])
    compared, mismatched = determinism_check(
        os.path.join(work_dir, "rounds-%s.json" % tag), build_id,
        report["rounds"])
    attempted = report["attempted"] + compared
    failed = report["failed"] + mismatched
    for failure in report["failures"]:
        log("check failed:", failure)

    provenance = dict(report["provenance"])
    provenance.update({"commit": source_commit(), "build_id": build_id,
                       "determinism_compared": compared,
                       "notes": report["notes"]})
    metrics = shape_metrics(report, args.workload, args.trace,
                            failed / attempted if attempted else 1.0)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
