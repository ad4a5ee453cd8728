#include "consensus/serve/server.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "consensus/api/sweep_runner.hpp"
#include "consensus/experiment/shard.hpp"
#include "consensus/experiment/sink.hpp"
#include "consensus/support/cancel.hpp"
#include "consensus/support/fault_injection.hpp"
#include "consensus/support/simd_kernels.hpp"

namespace consensus::serve {

namespace {

/// One JSONL line for a finished trial: the manifest record plus a "type"
/// tag so clients can split trials from the summary in one stream.
std::string trial_line(const exp::TrialRecord& record) {
  auto j = exp::record_to_json(record);
  j.set("type", "trial");
  return j.dump();
}

/// Appends every finished trial to the job's result stream and feeds the
/// job's progress counters (trials done, rounds simulated) so ?wait=0
/// status snapshots can report pace and ETA while the job runs.
class JobLineSink final : public exp::ResultSink {
 public:
  explicit JobLineSink(Job& job) : job_(&job) {}

  void on_trial(const exp::TrialRecord& record) override {
    job_->append_line(trial_line(record));
    job_->record_trial(record.result.rounds, record.replayed);
  }

 private:
  Job* job_;
};

/// Per-engine trial counters ("engine_counting_trials", ...) keyed by the
/// resolved backend of each grid point.
class EngineMetricsSink final : public exp::ResultSink {
 public:
  EngineMetricsSink(support::Metrics& metrics,
                    std::vector<api::EngineChoice> kinds)
      : metrics_(&metrics), kinds_(std::move(kinds)) {}

  void on_trial(const exp::TrialRecord& record) override {
    if (record.point_index < kinds_.size()) {
      metrics_->add("engine_" +
                    std::string(api::to_string(kinds_[record.point_index])) +
                    "_trials");
    }
  }

 private:
  support::Metrics* metrics_;
  std::vector<api::EngineChoice> kinds_;
};

support::Json point_stats_json(const exp::PointStats& stats) {
  return support::Json::object()
      .set("replications", static_cast<std::uint64_t>(stats.replications))
      .set("success_rate", stats.success_rate)
      .set("median_rounds", stats.rounds.median)
      .set("mean_rounds", stats.rounds.mean)
      .set("min_rounds", stats.rounds.min)
      .set("max_rounds", stats.rounds.max)
      .set("validity_violations",
           static_cast<std::uint64_t>(stats.validity_violations));
}

std::string error_body(const std::string& message) {
  return support::Json::object().set("error", message).dump() + "\n";
}

/// Job names become manifest file names; restrict to a safe charset so a
/// hostile name cannot traverse out of the state dir.
std::string sanitize_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || out[0] == '.') out.insert(out.begin(), '_');
  return out;
}

/// Answers a connection over Server::kMaxConnections on the accepting
/// thread: 503 with a Retry-After hint, then a short, bounded drain of the
/// request before closing. Closing with unread bytes would send a reset,
/// which can destroy the 503 before the client reads it.
void refuse_connection(support::TcpStream& stream) {
  constexpr int kDrainTimeoutMs = 100;
  constexpr std::size_t kMaxDrainBytes = 64u << 10;
  try {
    stream.set_recv_timeout(kDrainTimeoutMs);
    write_response(stream, 503, "application/json",
                   error_body("too many connections, retry later"),
                   {{"Retry-After", "1"}, {"Connection", "close"}});
    stream.shutdown_write();
    char buffer[4096];
    for (std::size_t drained = 0; drained < kMaxDrainBytes;) {
      const std::size_t got = stream.read_some(buffer, sizeof(buffer));
      if (got == 0) break;  // the client closed its side too
      drained += got;
    }
  } catch (const std::exception&) {
    // A client that stalls or vanishes is simply closed.
  }
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), queue_(options_.queue_capacity) {}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.exchange(true)) {
    throw std::logic_error("Server::start: already running");
  }
  if (!options_.state_dir.empty()) {
    std::filesystem::create_directories(options_.state_dir);
  }
  started_at_ = std::chrono::steady_clock::now();
  listener_ = std::make_unique<support::TcpListener>(options_.port);
  port_ = listener_->port();
  accept_thread_ = std::thread([this] { accept_loop(); });
  workers_.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  if (listener_ != nullptr) listener_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Fail everything still queued so streaming readers settle, then let
  // each worker finish its in-flight job and exit on the shutdown signal.
  queue_.shutdown();
  for (const auto& job : queue_.drain()) {
    job->fail("server shutting down");
    metrics_.add("jobs_failed");
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  std::vector<std::unique_ptr<Connection>> conns;
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    conns.swap(conns_);
  }
  for (const std::unique_ptr<Connection>& conn : conns) conn->thread.join();
  {
    const std::lock_guard<std::mutex> lock(stopped_mutex_);
    stop_requested_ = true;
  }
  stopped_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stopped_mutex_);
  stopped_cv_.wait(lock, [&] { return stop_requested_; });
}

void Server::accept_loop() {
  for (;;) {
    support::TcpStream stream = listener_->accept();
    if (!stream.valid()) return;  // listener closed: shutting down
    std::unique_lock<std::mutex> lock(conn_mutex_);
    // Join finished handlers first: their threads have exited or are
    // about to, and each one joined gives its stack back.
    std::erase_if(conns_, [](const std::unique_ptr<Connection>& conn) {
      const bool done = conn->done.load(std::memory_order_acquire);
      if (done) conn->thread.join();
      return done;
    });
    if (conns_.size() >= kMaxConnections) {
      lock.unlock();
      metrics_.add("http_connections_refused");
      refuse_connection(stream);
      continue;
    }
    stream.set_recv_timeout(options_.recv_timeout_ms);
    Connection& conn = *conns_.emplace_back(std::make_unique<Connection>());
    try {
      conn.thread = std::thread([this, &conn, s = std::move(stream)]() mutable {
        handle_connection(std::move(s));
        conn.done.store(true, std::memory_order_release);
      });
    } catch (const std::system_error&) {
      // No thread to be had: drop this connection, keep accepting.
      conns_.pop_back();
      metrics_.add("http_connection_errors");
    }
  }
}

void Server::handle_connection(support::TcpStream stream) {
  try {
    HttpRequest request;
    while (read_request(stream, &request)) {
      metrics_.add("http_requests");
      handle_request(stream, request);
      if (request.wants_close()) return;
    }
  } catch (const std::exception&) {
    // Malformed framing, recv timeout, or a peer that vanished — drop the
    // connection; per-connection state dies with this thread.
    metrics_.add("http_connection_errors");
  }
}

void Server::handle_request(support::TcpStream& stream,
                            const HttpRequest& request) {
  if (request.path == "/healthz" && request.method == "GET") {
    write_response(stream, 200, "text/plain", "ok\n");
    return;
  }
  if (request.path == "/metrics" && request.method == "GET") {
    handle_metrics(stream, request);
    return;
  }
  if (request.path == "/scenario" && request.method == "POST") {
    handle_submit(stream, request, JobKind::kScenario);
    return;
  }
  if (request.path == "/sweep" && request.method == "POST") {
    handle_submit(stream, request, JobKind::kSweep);
    return;
  }
  if (request.path.rfind("/jobs/", 0) == 0 && request.method == "GET") {
    handle_job_get(stream, request);
    return;
  }
  if (request.path.rfind("/jobs/", 0) == 0 && request.method == "DELETE") {
    handle_job_delete(stream, request);
    return;
  }
  write_response(stream, 404, "application/json",
                 error_body("no such endpoint: " + request.method + " " +
                            request.path));
}

void Server::handle_submit(support::TcpStream& stream,
                           const HttpRequest& request, JobKind kind) {
  JobRequest job_request;
  job_request.kind = kind;
  job_request.spec_text = request.body;
  job_request.name = request.query_value("name");
  try {
    // Validate at the door: a bad spec is the submitter's 400, not a
    // failed job discovered later.
    const std::string timeout = request.query_value("timeout_s");
    if (!timeout.empty()) {
      job_request.timeout_s = std::stod(timeout);
      if (!(job_request.timeout_s > 0)) {
        throw std::invalid_argument("timeout_s must be > 0");
      }
    }
    if (kind == JobKind::kScenario) {
      (void)api::ScenarioSpec::from_json_text(job_request.spec_text);
      job_request.replications =
          parse_size(request.query_value("reps", "1"), 10, "reps");
      if (job_request.replications == 0 ||
          job_request.replications > api::kMaxReplications) {
        throw std::invalid_argument(
            "reps must be between 1 and " +
            std::to_string(api::kMaxReplications));
      }
    } else {
      (void)api::SweepSpec::from_json_text(job_request.spec_text);
      const std::string shard = request.query_value("shard", "0/1");
      const exp::ShardPlan plan = exp::parse_shard(shard);
      job_request.shard_index = plan.index;
      job_request.shard_count = plan.count;
    }
  } catch (const std::exception& e) {
    metrics_.add("jobs_rejected_invalid");
    write_response(stream, 400, "application/json", error_body(e.what()));
    return;
  }
  const std::shared_ptr<Job> job = queue_.try_submit(std::move(job_request));
  if (job == nullptr) {
    // The backpressure signal: the bounded queue is full (or the server is
    // shutting down); clients should retry later. Retry-After gives
    // well-behaved clients (http_request_retry honors it) the pacing hint.
    metrics_.add("jobs_rejected_busy");
    write_response(stream, 503, "application/json",
                   error_body("job queue full, retry later"),
                   {{"Retry-After", "1"}});
    return;
  }
  metrics_.add("jobs_submitted");
  metrics_.set_gauge("jobs_queued", static_cast<double>(queue_.queued()));
  const auto body = support::Json::object()
                        .set("job", job->id())
                        .set("kind", std::string(to_string(kind)))
                        .set("state", std::string(to_string(job->state())));
  write_response(stream, 202, "application/json", body.dump() + "\n");
}

void Server::handle_job_get(support::TcpStream& stream,
                            const HttpRequest& request) {
  const std::string id_text = request.path.substr(6);  // after "/jobs/"
  std::uint64_t id = 0;
  try {
    id = parse_size(id_text, 10, "job id");
  } catch (const std::exception&) {
    write_response(stream, 400, "application/json",
                   error_body("bad job id '" + id_text + "'"));
    return;
  }
  const std::shared_ptr<Job> job = queue_.find(id);
  if (job == nullptr) {
    write_response(stream, 404, "application/json",
                   error_body("no job " + id_text));
    return;
  }

  if (request.query_value("wait", "1") == "0") {
    const JobState state = job->state();
    const JobProgress prog = job->progress();
    auto body = support::Json::object()
                    .set("job", job->id())
                    .set("kind", std::string(to_string(job->request().kind)))
                    .set("state", std::string(to_string(state)))
                    .set("lines",
                         static_cast<std::uint64_t>(job->num_lines()))
                    .set("trials_done", prog.trials_done)
                    .set("rounds_done", prog.rounds_done);
    // Pace fields appear as they become defined: total once the worker has
    // sized the job, rate once live trials exist, ETA only mid-run.
    if (prog.trials_total > 0) body.set("trials_total", prog.trials_total);
    if (prog.elapsed_seconds > 0 && prog.rounds_done > 0) {
      body.set("rounds_per_sec",
               static_cast<double>(prog.rounds_done) / prog.elapsed_seconds);
    }
    if (state == JobState::kRunning && prog.trials_total > prog.trials_done &&
        prog.live_trials > 0 && prog.elapsed_seconds > 0) {
      // Remaining work at the live pace; manifest replays are excluded
      // from the denominator so a resumed sweep does not look faster than
      // the simulation actually runs.
      body.set("eta_seconds",
               prog.elapsed_seconds *
                   static_cast<double>(prog.trials_total - prog.trials_done) /
                   static_cast<double>(prog.live_trials));
    }
    if (state == JobState::kFailed) body.set("error", job->error());
    if (state == JobState::kCancelled) body.set("reason",
                                                job->cancel_reason());
    write_response(stream, 200, "application/json", body.dump() + "\n");
    return;
  }

  // Streaming follow: every result line as it lands, then the terminal
  // summary. `from=N` is the reconnect cursor — a client whose stream
  // dropped resumes at the first line it has not seen (follow_job_stream).
  std::size_t cursor = 0;
  try {
    cursor = parse_size(request.query_value("from", "0"), 10, "from");
  } catch (const std::exception&) {
    write_response(stream, 400, "application/json",
                   error_body("bad from cursor '" +
                              request.query_value("from") + "'"));
    return;
  }
  ChunkedWriter writer(stream, 200, "application/x-ndjson");
  for (;;) {
    const std::vector<std::string> lines = job->wait_lines(cursor);
    for (const std::string& line : lines) writer.write(line + "\n");
    cursor += lines.size();
    if (job->settled() && lines.empty()) break;
  }
  // Every settled state ends the stream with exactly one summary line —
  // cancelled/deadline jobs included, so followers never hang on a job
  // that will produce no more output.
  switch (job->state()) {
    case JobState::kFailed:
      writer.write(support::Json::object()
                       .set("type", "summary")
                       .set("state", "failed")
                       .set("error", job->error())
                       .dump() +
                   "\n");
      break;
    case JobState::kCancelled:
      writer.write(support::Json::object()
                       .set("type", "summary")
                       .set("state", job->cancel_reason())
                       .dump() +
                   "\n");
      break;
    default:
      writer.write(job->summary() + "\n");
      break;
  }
  writer.finish();
}

void Server::handle_job_delete(support::TcpStream& stream,
                               const HttpRequest& request) {
  const std::string id_text = request.path.substr(6);  // after "/jobs/"
  std::uint64_t id = 0;
  try {
    id = parse_size(id_text, 10, "job id");
  } catch (const std::exception&) {
    write_response(stream, 400, "application/json",
                   error_body("bad job id '" + id_text + "'"));
    return;
  }
  const std::shared_ptr<Job> job = queue_.cancel(id);
  if (job == nullptr) {
    write_response(stream, 404, "application/json",
                   error_body("no job " + id_text));
    return;
  }
  metrics_.add("jobs_cancel_requests");
  metrics_.set_gauge("jobs_queued", static_cast<double>(queue_.queued()));
  // 202, not 200: a running job settles when its worker next polls the
  // token, so the state reported here may still be "running".
  auto body = support::Json::object()
                  .set("job", job->id())
                  .set("state", std::string(to_string(job->state())));
  const std::string reason = job->cancel_reason();
  if (!reason.empty()) body.set("reason", reason);
  write_response(stream, 202, "application/json", body.dump() + "\n");
}

void Server::handle_metrics(support::TcpStream& stream,
                            const HttpRequest& request) {
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  metrics_.set_gauge("uptime_seconds", uptime);
  metrics_.set_gauge("jobs_queued", static_cast<double>(queue_.queued()));
  metrics_.set_gauge("jobs_running",
                     static_cast<double>(jobs_running_.load()));
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    metrics_.set_gauge(
        "http_connections_open",
        static_cast<double>(std::count_if(
            conns_.begin(), conns_.end(),
            [](const std::unique_ptr<Connection>& conn) {
              return !conn->done.load(std::memory_order_acquire);
            })));
  }
  if (uptime > 0) {
    metrics_.set_gauge("rounds_per_sec",
                       static_cast<double>(
                           metrics_.counter("sweep_rounds_total")) /
                           uptime);
  }
  // Kernel observability: active ISA (info), per-kernel dispatch counts
  // (absolute counters), and the enable gauge — refreshed per scrape so a
  // runtime set_simd_isa/enable flip shows up immediately.
  support::export_simd_metrics(metrics_);
  if (request.query_value("format") == "json") {
    write_response(stream, 200, "application/json",
                   metrics_.to_json().dump() + "\n");
  } else {
    write_response(stream, 200, "text/plain", metrics_.render_text());
  }
}

void Server::worker_loop() {
  // Per-worker warm pools: engine ThreadPools persist across every job
  // this worker runs. Per-worker (not shared) so two concurrent jobs never
  // interleave parallel_for barriers on one pool.
  api::WarmEnginePools pools;
  for (;;) {
    const std::shared_ptr<Job> job = queue_.pop();
    if (job == nullptr) return;  // shutdown
    job->mark_running();  // also arms the ?timeout_s= deadline
    ++jobs_running_;
    metrics_.set_gauge("jobs_queued", static_cast<double>(queue_.queued()));
    try {
      support::FaultInjector::instance().on_site("worker.execute");
      execute_job(*job, pools);
      metrics_.add("jobs_completed");
    } catch (const support::Cancelled& e) {
      // Cooperative cancellation/deadline is a terminal state of its own,
      // not a failure: the stream ends with the reason and this worker is
      // immediately free for the next job.
      job->cancel_terminal(e.reason());
      metrics_.add("jobs_cancelled");
    } catch (const std::exception& e) {
      job->fail(e.what());
      metrics_.add("jobs_failed");
    }
    --jobs_running_;
  }
}

void Server::execute_job(Job& job, api::WarmEnginePools& pools) {
  if (job.request().kind == JobKind::kScenario) {
    execute_scenario_job(job, pools);
  } else {
    execute_sweep_job(job, pools);
  }
}

void Server::execute_scenario_job(Job& job, api::WarmEnginePools& pools) {
  const api::ScenarioSpec spec =
      api::ScenarioSpec::from_json_text(job.request().spec_text);
  api::Simulation sim = api::Simulation::from_spec(spec, &pools);
  sim.set_cancel_token(&job.cancel_token());
  metrics_.add("engine_" + std::string(api::to_string(sim.engine_kind())) +
               "_jobs");
  const std::size_t reps = job.request().replications;
  job.set_trials_total(reps);

  if (reps <= 1) {
    const core::RunResult result = sim.run_seeded(spec.seed);
    if (result.stopped != core::StopReason::kNone) {
      // Uniform with the sweep path: surface the interruption as Cancelled
      // so worker_loop settles the job with the token's reason, and emit
      // nothing — a partial run is not a result.
      throw support::Cancelled(std::string(core::to_string(result.stopped)));
    }
    job.record_trial(result.rounds, /*replayed=*/false);
    metrics_.add("sweep_trials_done");
    metrics_.add("sweep_rounds_total", result.rounds);
    auto line = support::Json::object().set("type", "result").set(
        "result", run_result_json(spec, result));
    job.append_line(line.dump());
    job.finish(support::Json::object()
                   .set("type", "summary")
                   .set("state", "done")
                   .set("result", run_result_json(spec, result))
                   .dump());
    return;
  }

  JobLineSink lines(job);
  exp::MetricsTrialSink trial_metrics(metrics_);
  const exp::PointStats stats =
      sim.run_many(reps, options_.sweep_threads, {}, {&lines, &trial_metrics});
  job.finish(support::Json::object()
                 .set("type", "summary")
                 .set("state", "done")
                 .set("stats", point_stats_json(stats))
                 .dump());
}

std::string Server::job_manifest_path(const Job& job) const {
  if (options_.state_dir.empty() || job.request().name.empty()) return {};
  return (std::filesystem::path(options_.state_dir) /
          (sanitize_name(job.request().name) + ".jsonl"))
      .string();
}

void Server::execute_sweep_job(Job& job, api::WarmEnginePools& pools) {
  const api::SweepSpec spec =
      api::SweepSpec::from_json_text(job.request().spec_text);
  api::SweepRunner runner(spec, &pools);
  runner.set_cancel_token(&job.cancel_token());
  const exp::ShardPlan shard{job.request().shard_index,
                             job.request().shard_count};

  // Size the job up front so status snapshots can report an ETA: this
  // shard runs (owned grid points) × replications trials. Manifest replays
  // count toward trials_done as they stream back, so a resumed job shows
  // its true completion fraction immediately.
  const std::vector<std::string> labels = runner.labels();
  std::uint64_t owned_points = 0;
  for (const std::string& label : labels) owned_points += shard.owns(label);
  job.set_trials_total(owned_points * spec.replications);

  JobLineSink lines(job);
  exp::MetricsTrialSink trial_metrics(metrics_);
  EngineMetricsSink engine_metrics(metrics_, runner.engine_kinds());
  std::vector<exp::ResultSink*> sinks{&lines, &trial_metrics,
                                      &engine_metrics};

  // Crash recovery for named jobs: completed trials live in a per-job
  // manifest under state_dir, flushed per trial. A daemon killed mid-job
  // and restarted replays the manifest prefix on resubmission of the same
  // name — resumed aggregates are byte-identical (exp::SweepResume).
  const std::string manifest_path = job_manifest_path(job);
  exp::SweepResume resume;
  std::unique_ptr<exp::JsonlSink> manifest;
  if (!manifest_path.empty()) {
    resume = exp::SweepResume::from_jsonl(manifest_path);
    // durable=true: fsync per line. Once a trial is in the manifest, even a
    // power cut cannot lose it — the whole point of crash recovery.
    manifest = std::make_unique<exp::JsonlSink>(manifest_path,
                                                /*append=*/true,
                                                /*durable=*/true);
    sinks.push_back(manifest.get());
  }

  const std::vector<exp::PointStats> stats =
      runner.run(options_.sweep_threads, sinks,
                 resume.completed.empty() ? nullptr : &resume,
                 shard.count > 1 ? &shard : nullptr);

  auto summary = support::Json::object()
                     .set("type", "summary")
                     .set("state", "done")
                     .set("points", static_cast<std::uint64_t>(stats.size()))
                     .set("replications",
                          static_cast<std::uint64_t>(spec.replications))
                     .set("aggregate_csv",
                          exp::point_stats_csv_text(labels, stats));
  if (shard.count > 1) {
    summary.set("shard", std::to_string(shard.index) + "/" +
                             std::to_string(shard.count));
  }
  if (!manifest_path.empty()) summary.set("manifest", manifest_path);
  job.finish(summary.dump());
}

}  // namespace consensus::serve
