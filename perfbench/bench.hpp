// Shared plumbing of the end-to-end benchmark: options, the result record
// (metrics, output checks, per-trial round counts), order statistics, and
// /proc readers. The workloads themselves live in offline.cpp (engines
// driven in-process) and served.cpp (a daemon driven over loopback HTTP).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "consensus/support/json.hpp"

namespace consensus::api {
struct SweepSpec;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;        // tiny sizes, for the benchmark's own tests
  std::string cli;           // consensus_cli binary (the daemon)
  std::string specs_dir;     // examples/specs of the checkout
  std::string work_dir;      // working files, inside the checkout
};

class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// One output check: counts towards `attempted`, and towards `failed`
  /// with `what` kept for the report when `ok` is false.
  void check(bool ok, const std::string& what);
  /// Rounds of one (scenario, seed) trial — the determinism record.
  void record_rounds(const std::string& key, std::uint64_t rounds);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::map<std::string, std::uint64_t>& rounds() const noexcept {
    return rounds_;
  }
  consensus::support::Json metrics_json() const;
  consensus::support::Json failures_json() const;

  /// Free-form per-scenario notes (theory ratios, engines) for the report.
  consensus::support::Json notes = consensus::support::Json::array();

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::uint64_t> rounds_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Field of /proc/<pid>/status in kB ("VmHWM", "VmSize") or as a count
/// ("Threads"); pid 0 reads this process. -1 when unavailable.
double proc_status_field(int pid, const std::string& field);
/// Whole file as a string; throws when it cannot be opened.
std::string read_file(const std::string& path);
/// User + system CPU seconds of this process so far.
double process_cpu_seconds();

/// The sweep through api::SweepRunner (one sweep thread) to its aggregate
/// CSV text; `ms` receives the wall time.
std::string offline_sweep_csv(const consensus::api::SweepSpec& spec,
                              double& ms);

void run_offline(const Options& options, Result& result);
void run_served(const Options& options, Result& result);

}  // namespace perfbench
