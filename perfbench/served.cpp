// The served-jobs workload: `consensus_cli serve` as a loopback daemon (2
// workers, sweep pool width 1), driven by clients in this process. Jobs
// alternate POST /sweep (examples/specs/sweep_fig1_grid.json) with POST
// /scenario (examples/specs/quickstart.json), and each job's NDJSON stream
// is followed to its summary line. Untraced runs drain a closed-loop batch
// for the end-to-end numbers. Traced runs offer an open loop instead: jobs
// arrive as a seeded Poisson process at one fixed rate, each on a thread of
// its own so a slow daemon never slows the schedule, and reads run beside
// them (GET /jobs/<id>?wait=0, /metrics and /healthz in turn, each on a
// fresh connection).
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "consensus/api/scenario.hpp"
#include "consensus/api/sweep_runner.hpp"
#include "consensus/api/sweep_spec.hpp"
#include "consensus/serve/http.hpp"
#include "consensus/support/rng.hpp"

extern char** environ;

namespace perfbench {

namespace api = consensus::api;
namespace serve = consensus::serve;
namespace support = consensus::support;

namespace {

const std::string kHost = "127.0.0.1";
// About half the capacity measured for this job mix on a 4-core x86-64
// host (see README.md, "Calibration"); fixed, so every build is offered
// the same load.
constexpr double kOfferedJobsPerS = 40.0;
// Quickstart trials are short; this many per job puts a scenario job's
// engine work near a sweep job's, so job latency is one mode, not two.
constexpr std::size_t kScenarioReps = 16;
constexpr double kReadIntervalS = 0.01;
// The closed-loop batch: enough clients to keep both workers queued, and
// about 15 s of work at the capacity measured on a 4-vCPU x86-64 VM.
constexpr std::size_t kBatchClients = 4;
constexpr std::size_t kBatchJobs = 2000;
constexpr double kWatchdogS = 150.0;

// ------------------------------------------------------------------ daemon

class Daemon {
 public:
  Daemon(const Options& o, int index) {
    const std::string port_file =
        o.work_dir + "/serve-" + std::to_string(index) + ".port";
    const std::string log = o.work_dir + "/daemon.log";
    ::unlink(port_file.c_str());
    std::vector<std::string> args = {
        o.cli, "serve", "--port", "0", "--port-file", port_file,
        "--workers", "2", "--sweep-threads", "1", "--queue-capacity", "64"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const Clock::time_point t0 = Clock::now();
    pid_t pid = -1;
    const int rc =
        posix_spawn(&pid, o.cli.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + o.cli);
    pid_ = pid;

    // Start-up ends at the first 200 from /healthz.
    while (true) {
      if (seconds_since(t0) > 20.0) {
        stop();
        throw std::runtime_error("daemon did not become healthy in 20 s");
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("daemon exited during start-up; see " + log);
      }
      if (port_ == 0) {
        std::ifstream in(port_file);
        std::string text((std::istreambuf_iterator<char>(in)), {});
        if (!text.empty() && text.back() == '\n')
          port_ = static_cast<std::uint16_t>(std::stoul(text));
      }
      if (port_ != 0) {
        try {
          if (serve::http_request(kHost, port_, "GET", "/healthz").status == 200)
            break;
        } catch (const std::exception&) {
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    startup_s_ = seconds_since(t0);
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // SIGTERM drains the daemon; SIGKILL after ten seconds.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 1000; ++i) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill_now();
  }

  void kill_now() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  int pid() const noexcept { return pid_; }
  std::uint16_t port() const noexcept { return port_; }
  double startup_s() const noexcept { return startup_s_; }

 private:
  std::atomic<pid_t> pid_{-1};
  std::uint16_t port_ = 0;
  double startup_s_ = 0;
};

// Kills the daemon if the run overstays, so blocked clients error out and
// the benchmark still exits inside three minutes.
class Watchdog {
 public:
  explicit Watchdog(Daemon& daemon)
      : thread_([this, &daemon] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(kWatchdogS),
                            [this] { return done_; })) {
            fired_ = true;
            daemon.kill_now();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  bool fired() const noexcept { return fired_; }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::atomic<bool> fired_{false};
  std::thread thread_;
};

// -------------------------------------------------------------------- jobs

struct JobPlan {
  bool sweep = false;
  double due_s = 0;
  std::uint64_t seed = 0;
  std::string target;
  std::string body;
  std::size_t expected_trials = 0;
};

struct JobOutcome {
  bool refused = false;
  bool done = false;        // summary line with state "done"
  bool trials_ok = true;    // every trial reached consensus with validity
  std::size_t trials = 0;
  std::uint64_t rounds = 0;
  std::uint64_t bytes = 0;
  double lag_s = 0;         // generator: started late by this much
  double sent_s = -1, accepted_s = -1, first_line_s = -1, summary_s = -1;
  std::string aggregate_csv;
  std::string error;
};

struct Read {
  double latency_s = 0;
  bool ok = false;
};

// `count` jobs with seeded Poisson arrivals over [0, duration): a Poisson
// process conditioned on its count is `count` sorted uniform times. A
// fixed count keeps the offered work equal across seeds.
std::vector<JobPlan> plan_jobs(std::uint64_t seed, std::size_t count,
                               double duration, const api::SweepSpec& sweep,
                               std::size_t sweep_trials,
                               const api::ScenarioSpec& scenario) {
  support::Rng rng(support::derive_seed(seed, 500));
  std::vector<double> due(count);
  for (double& t : due) t = rng.uniform01() * duration;
  std::sort(due.begin(), due.end());
  std::vector<JobPlan> jobs;
  for (const double t : due) {
    JobPlan job;
    job.sweep = jobs.size() % 2 == 0;
    job.due_s = t;
    // Spec JSON carries seeds as signed 64-bit integers.
    job.seed = support::derive_seed(seed, 10'000 + jobs.size()) >> 1;
    if (job.sweep) {
      api::SweepSpec spec = sweep;
      spec.seed = job.seed;
      job.target = "/sweep";
      job.body = spec.to_json_text(0);
      job.expected_trials = sweep_trials;
    } else {
      api::ScenarioSpec spec = scenario;
      spec.seed = job.seed;
      job.target = "/scenario?reps=" + std::to_string(kScenarioReps);
      job.body = spec.to_json_text(0);
      job.expected_trials = kScenarioReps;
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void run_job(std::uint16_t port, const JobPlan& plan, Clock::time_point origin,
             std::atomic<std::uint64_t>& latest_job, JobOutcome& out) {
  const auto now_s = [&] { return seconds_since(origin); };
  try {
    out.sent_s = now_s();
    const serve::HttpResponse accepted =
        serve::http_request(kHost, port, "POST", plan.target, plan.body);
    out.accepted_s = now_s();
    if (accepted.status == 503) {
      out.refused = true;
      return;
    }
    if (accepted.status != 202) {
      out.error = "POST " + plan.target + " -> " +
                  std::to_string(accepted.status);
      return;
    }
    const std::uint64_t id =
        support::Json::parse(accepted.body).at("job").as_uint();
    latest_job.store(id, std::memory_order_relaxed);

    std::string pending;
    const auto on_line = [&](const std::string& line) {
      if (out.first_line_s < 0) out.first_line_s = now_s();
      const support::Json j = support::Json::parse(line);
      const std::string& type = j.at("type").as_string();
      if (type == "trial") {
        ++out.trials;
        out.rounds += j.at("rounds").as_uint();
        out.trials_ok = out.trials_ok && j.at("reached_consensus").as_bool() &&
                        j.at("validity").as_bool();
      } else if (type == "summary") {
        out.summary_s = now_s();
        out.done = j.at("state").as_string() == "done";
        if (const support::Json* csv = j.find("aggregate_csv"))
          out.aggregate_csv = csv->as_string();
      }
    };
    serve::http_request_stream(
        kHost, port, "GET", "/jobs/" + std::to_string(id), {},
        "application/json", [&](std::string_view chunk) {
          out.bytes += chunk.size();
          pending.append(chunk);
          std::size_t nl;
          while ((nl = pending.find('\n')) != std::string::npos) {
            const std::string line = pending.substr(0, nl);
            pending.erase(0, nl + 1);
            if (!line.empty()) on_line(line);
          }
        });
    if (!pending.empty()) on_line(pending);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
}

struct Schedule {
  std::vector<JobOutcome> jobs;
  std::vector<Read> reads;
  double makespan_s = 0;
};

// Runs the plan open-loop: each job starts at its due time on its own
// thread; a reader issues one read every kReadIntervalS beside them.
Schedule run_schedule(std::uint16_t port, const std::vector<JobPlan>& plan) {
  Schedule s;
  s.jobs.resize(plan.size());
  std::atomic<std::uint64_t> latest_job{0};
  std::atomic<bool> stop_reads{false};
  const Clock::time_point origin = Clock::now();

  std::thread reader([&] {
    const std::string fixed[] = {"/metrics", "/healthz"};
    Clock::time_point due = origin;
    for (std::size_t i = 0; !stop_reads.load(); ++i) {
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kReadIntervalS));
      std::this_thread::sleep_until(due);
      const std::uint64_t job = latest_job.load(std::memory_order_relaxed);
      const std::string target =
          i % 3 == 0 && job > 0
              ? "/jobs/" + std::to_string(job) + "?wait=0"
              : fixed[i % 2];
      Read r;
      const Clock::time_point t0 = Clock::now();
      try {
        r.ok = serve::http_request(kHost, port, "GET", target).status == 200;
      } catch (const std::exception&) {
        r.ok = false;
      }
      r.latency_s = seconds_since(t0);
      s.reads.push_back(r);
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Clock::time_point due =
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(plan[i].due_s));
    std::this_thread::sleep_until(due);
    s.jobs[i].lag_s = seconds_since(due);
    try {
      clients.emplace_back(run_job, port, std::cref(plan[i]), origin,
                           std::ref(latest_job), std::ref(s.jobs[i]));
    } catch (const std::system_error& e) {
      s.jobs[i].error = std::string("client thread: ") + e.what();
    }
  }
  for (std::thread& t : clients) t.join();
  stop_reads = true;
  reader.join();
  for (const JobOutcome& j : s.jobs) s.makespan_s = std::max(s.makespan_s, j.summary_s);
  return s;
}

// Runs the plan closed-loop, ignoring due times: kBatchClients clients
// each take the next job as soon as their previous one has finished, so
// both workers stay busy until the batch drains.
Schedule run_batch(std::uint16_t port, const std::vector<JobPlan>& plan) {
  Schedule s;
  s.jobs.resize(plan.size());
  std::atomic<std::uint64_t> latest_job{0};
  std::atomic<std::size_t> next{0};
  const Clock::time_point origin = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kBatchClients; ++c) {
    clients.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < plan.size();)
        run_job(port, plan[i], origin, latest_job, s.jobs[i]);
    });
  }
  for (std::thread& t : clients) t.join();
  for (const JobOutcome& j : s.jobs) s.makespan_s = std::max(s.makespan_s, j.summary_s);
  return s;
}

std::vector<double> job_latencies_s(const std::vector<JobPlan>& plan,
                                    const Schedule& s) {
  std::vector<double> out;
  for (std::size_t i = 0; i < plan.size(); ++i)
    if (s.jobs[i].summary_s >= 0) out.push_back(s.jobs[i].summary_s - plan[i].due_s);
  return out;
}

// The q-quantile of job latency (ms) in each of kWindows equal spans of
// due time, then the median over spans: one stall of the shared host moves
// one span's tail, not the reported one.
constexpr int kWindows = 4;
double windowed_latency_ms(const std::vector<JobPlan>& plan, const Schedule& s,
                           double duration, double q) {
  std::vector<std::vector<double>> windows(kWindows);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (s.jobs[i].summary_s < 0) continue;
    const auto w = std::min<std::size_t>(
        kWindows - 1,
        static_cast<std::size_t>(plan[i].due_s / duration * kWindows));
    windows[w].push_back((s.jobs[i].summary_s - plan[i].due_s) * 1e3);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows)
    if (!w.empty()) per_window.push_back(quantile(w, q));
  return median(per_window);
}

void check_schedule(const std::vector<JobPlan>& plan, const Schedule& s,
                    const std::string& tag, Result& result) {
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const JobOutcome& j = s.jobs[i];
    const std::string key = tag + "job" + std::to_string(i) +
                            (plan[i].sweep ? "-sweep/" : "-scenario/") +
                            std::to_string(plan[i].seed);
    result.check(!j.refused, key + ": refused with 503");
    result.check(j.error.empty(), key + ": " + j.error);
    result.check(j.done, key + ": stream ended without a done summary");
    result.check(j.trials == plan[i].expected_trials && j.trials_ok,
                 key + ": trials missing or without consensus/validity");
    result.record_rounds(key, j.rounds);
  }
  std::size_t bad_reads = 0;
  for (const Read& r : s.reads) bad_reads += !r.ok;
  result.check(bad_reads == 0, tag + std::to_string(bad_reads) + " of " +
                                   std::to_string(s.reads.size()) +
                                   " reads failed");
}

void write_trace(const std::vector<JobPlan>& plan, const Schedule& s,
                 const Options& o) {
  std::ofstream out(o.work_dir + "/trace-served-jobs.csv");
  out << "job,kind,due_s,sent_s,accepted_s,first_line_s,summary_s,bytes\n";
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const JobOutcome& j = s.jobs[i];
    out << i << "," << (plan[i].sweep ? "sweep" : "scenario") << ","
        << plan[i].due_s << "," << j.sent_s << "," << j.accepted_s << ","
        << j.first_line_s << "," << j.summary_s << "," << j.bytes << "\n";
  }
}

}  // namespace

void run_served(const Options& o, Result& result) {
  const api::SweepSpec sweep =
      api::SweepSpec::from_json_text(read_file(o.specs_dir + "/sweep_fig1_grid.json"));
  const api::ScenarioSpec scenario = api::ScenarioSpec::from_json_text(
      read_file(o.specs_dir + "/quickstart.json"));
  const std::size_t sweep_trials = api::SweepRunner(sweep).num_trials();
  const double rate = o.smoke ? 10.0 : kOfferedJobsPerS;
  const std::size_t batch_jobs = o.smoke ? 20 : kBatchJobs;
  const auto plan_for = [&](std::uint64_t seed, double duration) {
    return plan_jobs(seed, static_cast<std::size_t>(std::lround(rate * duration)),
                     duration, sweep, sweep_trials, scenario);
  };
  result.notes.push(support::Json::object()
                        .set("daemon_workers", 2)
                        .set("sweep_threads", 1)
                        .set("queue_capacity", 64)
                        .set("offered_jobs_per_s", rate)
                        .set("batch_jobs", static_cast<std::uint64_t>(batch_jobs))
                        .set("batch_clients",
                             static_cast<std::uint64_t>(kBatchClients))
                        .set("scenario_reps",
                             static_cast<std::uint64_t>(kScenarioReps)));

  // Set-up: daemon start until the first /healthz 200, several times; the
  // last daemon serves the run.
  std::vector<double> startup_s;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < 5; ++i) {
    daemon.reset();
    daemon = std::make_unique<Daemon>(o, i);
    startup_s.push_back(daemon->startup_s());
  }
  std::optional<Watchdog> watchdog(std::in_place, *daemon);

  // Warm-up: a short schedule of other seeds before anything is measured,
  // so lazy set-up inside the resident daemon (warm engine pools, the
  // allocator) is paid once, as a long-running daemon pays it.
  const std::vector<JobPlan> warmup =
      plan_for(support::derive_seed(o.seed, 501), o.smoke ? 0.5 : 2.0);
  check_schedule(warmup, run_schedule(daemon->port(), warmup), "warmup-",
                 result);

  // Untraced: the end-to-end numbers come from the closed-loop batch; an
  // open-loop schedule's latency swung up to 2x between runs of one seed on
  // the shared host, so it is a per-layer number. Traced: the open-loop
  // schedule, once untraced and once traced.
  const double duration = o.trace ? o.seconds / 2 : 0.0;
  const std::vector<JobPlan> plan =
      o.trace ? plan_for(o.seed, duration)
              : plan_jobs(o.seed, batch_jobs, 1.0, sweep, sweep_trials,
                          scenario);
  const Schedule first =
      o.trace ? run_schedule(daemon->port(), plan) : run_batch(daemon->port(), plan);
  check_schedule(plan, first, "", result);
  std::optional<Schedule> traced;
  if (o.trace) {
    traced = run_schedule(daemon->port(), plan);
    check_schedule(plan, *traced, "traced-", result);
  }
  const Schedule& measured = traced ? *traced : first;

  const double vm_size_mb = proc_status_field(daemon->pid(), "VmSize") / 1024.0;
  const double vm_hwm_mb = proc_status_field(daemon->pid(), "VmHWM") / 1024.0;
  const double threads = proc_status_field(daemon->pid(), "Threads");
  result.check(!watchdog->fired(), "watchdog killed the daemon");

  // The served aggregate must be byte-identical to SweepRunner's offline
  // CSV for the same spec and seed.
  double offline_ms = 0;
  api::SweepSpec first_sweep = sweep;
  first_sweep.seed = plan.front().seed;
  const std::string offline_csv = offline_sweep_csv(first_sweep, offline_ms);
  result.check(measured.jobs.front().aggregate_csv == offline_csv,
               "served sweep CSV differs from the offline SweepRunner CSV");
  watchdog.reset();
  daemon->stop();

  if (!o.trace) {
    std::uint64_t rounds = 0;
    for (const JobOutcome& j : measured.jobs) rounds += j.rounds;
    result.set("consensus_s", measured.makespan_s, "s");
    result.set("rounds_per_s", static_cast<double>(rounds) / measured.makespan_s,
               "1/s");
    result.set("setup_s", median(startup_s), "s");
    result.set("peak_rss_mb", vm_hwm_mb, "MB");
    return;
  }

  std::vector<double> submit, queue_wait, stream, reads, lag;
  double bytes = 0, refused = 0;
  for (const JobOutcome& j : measured.jobs) {
    lag.push_back(j.lag_s * 1e3);
    bytes += static_cast<double>(j.bytes);
    refused += j.refused;
    if (j.accepted_s >= 0) submit.push_back((j.accepted_s - j.sent_s) * 1e3);
    if (j.first_line_s >= 0) {
      queue_wait.push_back((j.first_line_s - j.accepted_s) * 1e3);
      stream.push_back((j.summary_s - j.first_line_s) * 1e3);
    }
  }
  for (const Read& r : measured.reads) reads.push_back(r.latency_s * 1e3);
  const std::vector<double> latency = job_latencies_s(plan, measured);
  const std::vector<double> untraced_latency = job_latencies_s(plan, first);
  const double jobs = static_cast<double>(measured.jobs.size());
  result.set("serve.job_latency_ms_p50",
             windowed_latency_ms(plan, measured, duration, 0.50), "ms");
  result.set("serve.job_latency_ms_p90",
             windowed_latency_ms(plan, measured, duration, 0.90), "ms");
  result.set("serve.job_latency_ms_p99", quantile(latency, 0.99) * 1e3, "ms");
  result.set("serve.submit_ms_p50", median(submit), "ms");
  result.set("serve.queue_wait_ms_p50", quantile(queue_wait, 0.50), "ms");
  result.set("serve.queue_wait_ms_p99", quantile(queue_wait, 0.99), "ms");
  result.set("serve.stream_ms_p50", median(stream), "ms");
  result.set("serve.read_ms_p50", quantile(reads, 0.50), "ms");
  result.set("serve.read_ms_p99", quantile(reads, 0.99), "ms");
  result.set("serve.bytes_per_job", bytes / jobs, "bytes");
  result.set("serve.refused", refused / jobs, "ratio");
  result.set("serve.daemon_threads", threads, "count");
  result.set("serve.daemon_vmsize_mb", vm_size_mb, "MB");
  result.set("serve.generator_lag_ms_p99", quantile(lag, 0.99), "ms");
  result.set("experiment.offline_sweep_ms", offline_ms, "ms");
  result.set("trace.overhead_pct",
             (median(latency) / median(untraced_latency) - 1.0) * 100.0, "%");
  write_trace(plan, measured, o);
}

}  // namespace perfbench
