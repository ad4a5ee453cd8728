// `consensus serve` — the resident scenario-serving daemon.
//
// One process, warm engine pools, many small jobs: the HTTP front end
// accepts ScenarioSpec / SweepSpec jobs into a bounded serve::JobQueue; a
// pool of resident workers executes them on api::Simulation /
// api::SweepRunner with per-worker api::WarmEnginePools, so engine
// ThreadPools persist across jobs instead of being rebuilt per request.
//
// Endpoints (HTTP/1.1, loopback):
//   POST /scenario?reps=R[&name=NAME]   body: ScenarioSpec JSON -> 202 {job}
//   POST /sweep[?shard=i/N][&name=NAME] body: SweepSpec JSON    -> 202 {job}
//   GET  /jobs/<id>[?from=N]   chunked NDJSON stream: every result line as
//                              it completes (from line N on), then one
//                              terminal summary line — state "done",
//                              "failed", "cancelled", or "deadline" —
//                              blocking until the job settles
//   GET  /jobs/<id>?wait=0     immediate status snapshot
//   DELETE /jobs/<id>          cancel: dequeues a queued job immediately,
//                              fires a running job's CancelToken (settles
//                              between rounds); idempotent on settled jobs
//   GET  /metrics[?format=json] counters/gauges (support::Metrics)
//   GET  /healthz              liveness probe
//
// Connections: each one is served by its own thread, which exits when the
// peer closes, the request asked for `Connection: close`, or the receive
// timeout fires. The accept loop joins finished threads before admitting
// the next socket, and above kMaxConnections live connections it answers
// 503 (Retry-After: 1) on the accepting thread instead of starting one, so
// threads and their stacks stay bounded however many clients come and go.
//
// Deadlines: POST .../?timeout_s=S arms an execution budget when the job
// starts running; expiry cancels the job cooperatively and its stream ends
// with a terminal "deadline" summary — the warm worker is freed, readers
// never hang.
//
// Determinism: job results are byte-identical to the offline CLI at the
// same spec/seed — the daemon calls the same facade the CLI does and
// encodes with the same serve::wire functions.
//
// Crash recovery: sweep jobs submitted with a stable ?name=NAME persist a
// per-job JSONL manifest under `state_dir`. A daemon killed mid-sweep and
// restarted resumes the job from the manifest prefix when the same name is
// resubmitted, replaying completed trials bit-exactly (exp::SweepResume) —
// final aggregates are byte-identical to an uninterrupted run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "consensus/api/simulation.hpp"
#include "consensus/serve/http.hpp"
#include "consensus/serve/job_queue.hpp"
#include "consensus/support/metrics.hpp"
#include "consensus/support/socket.hpp"

namespace consensus::serve {

struct ServerOptions {
  /// 0 binds an ephemeral port; Server::port() reports the choice.
  std::uint16_t port = 0;
  /// Resident simulation workers. 0 is legal and means "accept jobs but
  /// never run them" — the deterministic backpressure/test hook.
  std::size_t workers = 1;
  std::size_t queue_capacity = 64;
  /// Per-job sweep-pool width (0 = hardware concurrency); separate from
  /// the warm engine pools.
  std::size_t sweep_threads = 0;
  /// Directory for named sweep jobs' crash-recovery manifests ("" = off).
  std::string state_dir;
  /// Per-connection socket receive timeout: an idle or stalled client is
  /// dropped after this long (`consensus serve --recv-timeout-ms`).
  int recv_timeout_ms = 10'000;
};

class Server {
 public:
  /// Live connections served at once; the next one is refused with 503.
  static constexpr std::size_t kMaxConnections = 64;

  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener and starts the accept thread + workers. Throws on
  /// bind failure. Idempotent only via stop() in between.
  void start();

  /// Stops accepting, fails still-queued jobs, lets running jobs finish,
  /// and joins every thread. Safe to call twice.
  void stop();

  /// Blocks until stop() is called from another thread (SIGTERM handler in
  /// the CLI) — the foreground `consensus serve` path.
  void wait();

  std::uint16_t port() const noexcept { return port_; }
  support::Metrics& metrics() noexcept { return metrics_; }
  const ServerOptions& options() const noexcept { return options_; }

 private:
  /// One connection's handler thread; `done` is its last write, so a set
  /// flag means join() returns at once.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void worker_loop();
  void handle_connection(support::TcpStream stream);
  void handle_request(support::TcpStream& stream, const HttpRequest& request);
  void handle_submit(support::TcpStream& stream, const HttpRequest& request,
                     JobKind kind);
  void handle_job_get(support::TcpStream& stream, const HttpRequest& request);
  void handle_job_delete(support::TcpStream& stream,
                         const HttpRequest& request);
  void handle_metrics(support::TcpStream& stream, const HttpRequest& request);
  void execute_job(Job& job, api::WarmEnginePools& pools);
  void execute_scenario_job(Job& job, api::WarmEnginePools& pools);
  void execute_sweep_job(Job& job, api::WarmEnginePools& pools);
  std::string job_manifest_path(const Job& job) const;

  ServerOptions options_;
  support::Metrics metrics_;
  JobQueue queue_;
  std::unique_ptr<support::TcpListener> listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::mutex conn_mutex_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> jobs_running_{0};
  std::chrono::steady_clock::time_point started_at_;

  std::mutex stopped_mutex_;
  std::condition_variable stopped_cv_;
  bool stop_requested_ = false;
};

}  // namespace consensus::serve
