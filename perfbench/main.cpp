// perfbench: runs one benchmark workload against the consensus library and
// writes a JSON report (metrics, output checks, per-trial round counts,
// provenance). perfbench/run.py builds this binary, invokes it, and turns
// the report into the benchmark's one-line result (correct, attempted,
// failed, metrics); see perfbench/README.md for the workloads and every
// metric.
//
//   perfbench --workload kn-paper --seed 1 --seconds 20 --trace 0
//       --cli PATH/consensus_cli --specs-dir examples/specs
//       --work-dir DIR --report DIR/report.json [--smoke]
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <thread>

#include "bench.hpp"
#include "consensus/core/engine.hpp"
#include "consensus/support/durable_file.hpp"
#include "consensus/support/sampling.hpp"
#include "consensus/support/simd_kernels.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

using consensus::support::Json;

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 50) failures_.push_back(what);
  }
}

void Result::record_rounds(const std::string& key, std::uint64_t rounds) {
  rounds_[key] = rounds;
}

Json Result::metrics_json() const {
  Json out = Json::object();
  for (const auto& [name, metric] : metrics_) {
    out.set(name, Json::object()
                      .set("value", metric.first)
                      .set("unit", metric.second));
  }
  return out;
}

Json Result::failures_json() const {
  Json out = Json::array();
  for (const std::string& f : failures_) out.push(f);
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double proc_status_field(int pid, const std::string& field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream fields(line.substr(field.size() + 1));
      double value = -1;
      fields >> value;
      return value;
    }
  }
  return -1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

namespace {

std::string arg_value(int& i, int argc, char** argv) {
  if (i + 1 >= argc) {
    throw std::invalid_argument(std::string("missing value for ") + argv[i]);
  }
  return argv[++i];
}

Json provenance(const Options& options) {
  return Json::object()
      .set("workload", options.workload)
      .set("seed", options.seed)
      .set("seconds", options.seconds)
      .set("trace", options.trace)
      .set("smoke", options.smoke)
      .set("simd_lane",
           std::string(consensus::support::to_string(
               consensus::support::active_simd_isa())))
      .set("rng_draw_path_version",
           static_cast<std::uint64_t>(consensus::support::kRngDrawPathVersion))
      .set("engine_state_version",
           static_cast<std::uint64_t>(consensus::core::kEngineStateVersion))
      .set("nproc", static_cast<std::uint64_t>(
                        std::thread::hardware_concurrency()))
      .set("build_type", PERFBENCH_BUILD_TYPE)
      .set("compiler", PERFBENCH_COMPILER);
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string report_path;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--workload") options.workload = arg_value(i, argc, argv);
      else if (arg == "--seed") options.seed = std::stoull(arg_value(i, argc, argv));
      else if (arg == "--seconds") options.seconds = std::stod(arg_value(i, argc, argv));
      else if (arg == "--trace") options.trace = arg_value(i, argc, argv) != "0";
      else if (arg == "--smoke") options.smoke = true;
      else if (arg == "--cli") options.cli = arg_value(i, argc, argv);
      else if (arg == "--specs-dir") options.specs_dir = arg_value(i, argc, argv);
      else if (arg == "--work-dir") options.work_dir = arg_value(i, argc, argv);
      else if (arg == "--report") report_path = arg_value(i, argc, argv);
      else throw std::invalid_argument("unknown argument " + arg);
    }
    if (report_path.empty()) throw std::invalid_argument("--report is required");
    if (!(options.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");

    // A daemon that dies mid-response must fail a check, not kill us.
    ::signal(SIGPIPE, SIG_IGN);
    consensus::support::init_simd_kernels();
    Result result;
    if (options.workload == "served-jobs") {
      run_served(options, result);
    } else {
      run_offline(options, result);
    }

    Json rounds = Json::object();
    for (const auto& [key, value] : result.rounds()) rounds.set(key, value);
    const Json report = Json::object()
                            .set("provenance", provenance(options))
                            .set("attempted", result.attempted())
                            .set("failed", result.failed())
                            .set("failures", result.failures_json())
                            .set("metrics", result.metrics_json())
                            .set("rounds", rounds)
                            .set("notes", result.notes);
    consensus::support::write_file_durable(report_path, report.dump(1) + "\n");
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
