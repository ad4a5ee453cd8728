// Daemon lifecycle end-to-end over real sockets: submit both spec kinds,
// stream JSONL results, byte-identity with the offline CLI path, queue
// backpressure, and the crash-recovery guarantee — a daemon killed
// mid-sweep and restarted resumes a named job from its manifest prefix and
// produces byte-identical aggregates.
//
// Every server here binds port 0 (ephemeral) and the tests read the chosen
// port from Server::port(), so parallel ctest processes never collide.
#include "consensus/serve/server.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "consensus/api/simulation.hpp"
#include "consensus/api/sweep_runner.hpp"
#include "consensus/serve/http.hpp"
#include "consensus/serve/wire.hpp"
#include "test_util.hpp"

namespace consensus::serve {
namespace {

api::ScenarioSpec tiny_scenario() {
  api::ScenarioSpec spec;
  spec.protocol = "3-majority";
  spec.n = 600;
  spec.k = 4;
  spec.engine = api::EngineChoice::kCounting;
  spec.seed = 7;
  return spec;
}

api::SweepSpec tiny_sweep() {
  api::SweepSpec spec;
  spec.name = "servetest";
  spec.base.protocol = "3-majority";
  spec.base.n = 600;
  spec.base.k = 2;
  spec.base.engine = api::EngineChoice::kCounting;
  spec.base.seed = 1;
  api::SweepAxis k_axis;
  k_axis.name = "k";
  for (std::uint64_t k : {2, 4, 8}) {
    k_axis.points.push_back(support::Json::object().set("k", k));
  }
  spec.axes = {k_axis};
  spec.replications = 3;
  spec.seed = 0x5e;
  return spec;
}

/// POSTs a spec and returns the accepted job id (asserts 202).
std::uint64_t submit(std::uint16_t port, const std::string& target,
                     const std::string& spec_text) {
  const HttpResponse response =
      http_request("127.0.0.1", port, "POST", target, spec_text);
  EXPECT_EQ(response.status, 202) << response.body;
  return support::Json::parse(response.body).at("job").as_uint();
}

/// Follows a job's chunked NDJSON stream to completion; returns the lines.
std::vector<std::string> stream_job(std::uint16_t port, std::uint64_t job) {
  std::vector<std::string> lines;
  std::string buffer;
  (void)http_request_stream(
      "127.0.0.1", port, "GET", "/jobs/" + std::to_string(job), {},
      "application/json", [&](std::string_view chunk) {
        buffer.append(chunk);
        std::size_t pos = 0;
        while ((pos = buffer.find('\n')) != std::string::npos) {
          lines.push_back(buffer.substr(0, pos));
          buffer.erase(0, pos + 1);
        }
      });
  if (!buffer.empty()) lines.push_back(buffer);
  return lines;
}

void truncate_to_lines(const std::string& path, std::size_t keep) {
  std::ifstream in(path);
  std::ostringstream kept;
  std::string line;
  for (std::size_t i = 0; i < keep && std::getline(in, line); ++i) {
    kept << line << '\n';
  }
  in.close();
  std::ofstream out(path, std::ios::trunc);
  out << kept.str();
}

TEST(Server, HealthzMetricsAndRouting) {
  Server server(ServerOptions{});
  server.start();
  EXPECT_GT(server.port(), 0);  // ephemeral bind reported the real port

  const HttpResponse health =
      http_request("127.0.0.1", server.port(), "GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const HttpResponse metrics =
      http_request("127.0.0.1", server.port(), "GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("uptime_seconds"), std::string::npos);

  const HttpResponse metrics_json = http_request(
      "127.0.0.1", server.port(), "GET", "/metrics?format=json");
  const support::Json parsed = support::Json::parse(metrics_json.body);
  EXPECT_GE(parsed.at("counters").at("http_requests").as_uint(), 2u);

  EXPECT_EQ(http_request("127.0.0.1", server.port(), "GET", "/nope").status,
            404);
  EXPECT_EQ(http_request("127.0.0.1", server.port(), "GET", "/jobs/999")
                .status,
            404);
  EXPECT_EQ(http_request("127.0.0.1", server.port(), "GET", "/jobs/abc")
                .status,
            400);
  EXPECT_EQ(http_request("127.0.0.1", server.port(), "POST", "/scenario",
                         "{\"not\": \"a spec\"}")
                .status,
            400);
  server.stop();
}

TEST(Server, ScenarioJobIsByteIdenticalToDirectRun) {
  Server server(ServerOptions{});
  server.start();

  const api::ScenarioSpec spec = tiny_scenario();
  const std::uint64_t job =
      submit(server.port(), "/scenario", spec.to_json_text());
  const std::vector<std::string> lines = stream_job(server.port(), job);
  server.stop();

  // One result line, one summary line.
  ASSERT_EQ(lines.size(), 2u);
  const support::Json result_line = support::Json::parse(lines[0]);
  EXPECT_EQ(result_line.at("type").as_string(), "result");
  const support::Json summary = support::Json::parse(lines[1]);
  EXPECT_EQ(summary.at("state").as_string(), "done");

  // The acceptance criterion: the served result is byte-identical to the
  // offline facade at the same spec/seed (same engine, same wire encoder).
  const core::RunResult direct = api::Simulation::from_spec(spec).run();
  EXPECT_EQ(result_line.at("result").dump(),
            run_result_json(spec, direct).dump());
}

TEST(Server, ScenarioRepsStreamOneTrialPerReplication) {
  Server server(ServerOptions{});
  server.start();

  const std::uint64_t job = submit(server.port(), "/scenario?reps=3",
                                   tiny_scenario().to_json_text());
  const std::vector<std::string> lines = stream_job(server.port(), job);
  server.stop();

  ASSERT_EQ(lines.size(), 4u);  // 3 trials + summary
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(support::Json::parse(lines[i]).at("type").as_string(),
              "trial");
  }
  const support::Json summary = support::Json::parse(lines[3]);
  EXPECT_EQ(summary.at("state").as_string(), "done");
  EXPECT_EQ(summary.at("stats").at("replications").as_uint(), 3u);
}

TEST(Server, MalformedIntegerParametersAreRejectedWith400) {
  Server server(ServerOptions{});
  server.start();
  const std::string spec = tiny_scenario().to_json_text();
  // A sign, trailing junk, or a value past 2^64 − 1 is the submitter's
  // 400 — never a wrapped count that the job later fails on. So is a
  // count above api::kMaxReplications, and the answer names the limit.
  for (const char* reps :
       {"-1", "5x", "18446744073709551616", "18446744073709551615"}) {
    const HttpResponse response =
        http_request("127.0.0.1", server.port(), "POST",
                     std::string("/scenario?reps=") + reps, spec);
    EXPECT_EQ(response.status, 400) << "reps=" << reps << ": "
                                    << response.body;
  }
  const HttpResponse too_many = http_request(
      "127.0.0.1", server.port(), "POST",
      "/scenario?reps=" + std::to_string(api::kMaxReplications + 1), spec);
  EXPECT_EQ(too_many.status, 400);
  EXPECT_NE(too_many.body.find(std::to_string(api::kMaxReplications)),
            std::string::npos)
      << too_many.body;
  const std::uint64_t job = submit(server.port(), "/scenario", spec);
  const std::string path = "/jobs/" + std::to_string(job);
  EXPECT_EQ(http_request("127.0.0.1", server.port(), "GET", path + "?from=-1")
                .status,
            400);
  for (const char* id : {"-1", "1x", "18446744073709551616"}) {
    EXPECT_EQ(http_request("127.0.0.1", server.port(), "GET",
                           std::string("/jobs/") + id + "?wait=0")
                  .status,
              400)
        << "GET id " << id;
    EXPECT_EQ(http_request("127.0.0.1", server.port(), "DELETE",
                           std::string("/jobs/") + id)
                  .status,
              400)
        << "DELETE id " << id;
  }
  EXPECT_EQ(stream_job(server.port(), job).size(), 2u);  // trial + summary
  server.stop();
}

TEST(Server, SweepJobAggregateMatchesOfflineRun) {
  Server server(ServerOptions{});
  server.start();

  const api::SweepSpec spec = tiny_sweep();
  const std::uint64_t job =
      submit(server.port(), "/sweep", spec.to_json_text());
  const std::vector<std::string> lines = stream_job(server.port(), job);
  server.stop();

  const api::SweepRunner runner(spec);
  ASSERT_EQ(lines.size(), runner.num_trials() + 1);
  const support::Json summary = support::Json::parse(lines.back());
  EXPECT_EQ(summary.at("state").as_string(), "done");

  // Served aggregate CSV is byte-identical to the offline sweep path.
  const auto stats = runner.run(/*threads=*/2);
  EXPECT_EQ(summary.at("aggregate_csv").as_string(),
            exp::point_stats_csv_text(runner.labels(), stats));
}

TEST(Server, FailedJobStreamsFailureSummary) {
  Server server(ServerOptions{});
  server.start();

  // Validates as a ScenarioSpec (so the submit is accepted: validate()
  // only requires n >= 4 for two-cliques) but fails in the worker when
  // the generator rejects bridges == 0 — an error only execution
  // discovers, so it must surface as a failed-job summary.
  api::ScenarioSpec spec = tiny_scenario();
  spec.engine = api::EngineChoice::kAuto;
  spec.topology = api::TopologySpec{};
  spec.topology->kind = "two-cliques";
  spec.topology->bridges = 0;
  const std::uint64_t job =
      submit(server.port(), "/scenario", spec.to_json_text());
  const std::vector<std::string> lines = stream_job(server.port(), job);
  server.stop();

  ASSERT_FALSE(lines.empty());
  const support::Json summary = support::Json::parse(lines.back());
  EXPECT_EQ(summary.at("state").as_string(), "failed");
  EXPECT_FALSE(summary.at("error").as_string().empty());
}

TEST(Server, JobSnapshotReportsLiveProgress) {
  Server server(ServerOptions{});
  server.start();

  const api::SweepSpec spec = tiny_sweep();
  const std::uint64_t job =
      submit(server.port(), "/sweep", spec.to_json_text());
  // Drain the stream so the job is settled before the snapshot.
  (void)stream_job(server.port(), job);

  const HttpResponse snapshot = http_request(
      "127.0.0.1", server.port(), "GET",
      "/jobs/" + std::to_string(job) + "?wait=0");
  server.stop();
  EXPECT_EQ(snapshot.status, 200);
  const support::Json body = support::Json::parse(snapshot.body);
  EXPECT_EQ(body.at("state").as_string(), "done");
  const api::SweepRunner runner(spec);
  EXPECT_EQ(body.at("trials_done").as_uint(), runner.num_trials());
  EXPECT_EQ(body.at("trials_total").as_uint(), runner.num_trials());
  EXPECT_GT(body.at("rounds_done").as_uint(), 0u);
  EXPECT_GT(body.at("rounds_per_sec").as_double(), 0.0);
  // A settled job projects no ETA.
  EXPECT_EQ(body.find("eta_seconds"), nullptr);
}

TEST(Server, QueuedJobSnapshotHasZeroProgress) {
  ServerOptions options;
  options.workers = 0;  // accepted but never started
  Server server(options);
  server.start();
  const std::uint64_t job = submit(server.port(), "/scenario?reps=4",
                                   tiny_scenario().to_json_text());
  const HttpResponse snapshot = http_request(
      "127.0.0.1", server.port(), "GET",
      "/jobs/" + std::to_string(job) + "?wait=0");
  server.stop();
  EXPECT_EQ(snapshot.status, 200);
  const support::Json body = support::Json::parse(snapshot.body);
  EXPECT_EQ(body.at("state").as_string(), "queued");
  EXPECT_EQ(body.at("trials_done").as_uint(), 0u);
  EXPECT_EQ(body.at("rounds_done").as_uint(), 0u);
  EXPECT_EQ(body.find("rounds_per_sec"), nullptr);
  EXPECT_EQ(body.find("eta_seconds"), nullptr);
}

TEST(Server, BackpressureReturns503WhenQueueIsFull) {
  // workers = 0: the server accepts jobs but never runs them — the
  // deterministic way to fill the bounded queue.
  ServerOptions options;
  options.workers = 0;
  options.queue_capacity = 2;
  Server server(options);
  server.start();

  const std::string spec_text = tiny_scenario().to_json_text();
  (void)submit(server.port(), "/scenario", spec_text);
  const std::uint64_t second =
      submit(server.port(), "/scenario", spec_text);

  const HttpResponse rejected = http_request(
      "127.0.0.1", server.port(), "POST", "/scenario", spec_text);
  EXPECT_EQ(rejected.status, 503);

  // Snapshot (wait=0) answers immediately for a job that will never run.
  const HttpResponse snapshot = http_request(
      "127.0.0.1", server.port(), "GET",
      "/jobs/" + std::to_string(second) + "?wait=0");
  EXPECT_EQ(snapshot.status, 200);
  EXPECT_EQ(support::Json::parse(snapshot.body).at("state").as_string(),
            "queued");

  // stop() fails the still-queued jobs so nothing dangles.
  server.stop();
}

class ServerRecoveryTest : public ::testing::Test {
 protected:
  std::string state_dir_ = testing::unique_temp_path("_state");

  void TearDown() override { std::filesystem::remove_all(state_dir_); }
};

TEST_F(ServerRecoveryTest, KilledDaemonResumesNamedSweepByteIdentical) {
  const api::SweepSpec spec = tiny_sweep();
  const api::SweepRunner runner(spec);
  const std::size_t total = runner.num_trials();
  const std::string manifest =
      (std::filesystem::path(state_dir_) / "killjob.jsonl").string();

  // Reference aggregate from the offline path.
  const std::string reference =
      exp::point_stats_csv_text(runner.labels(), runner.run(/*threads=*/2));

  // First daemon: run the named job to completion (its manifest persists
  // under state_dir), then "crash": stop the daemon and truncate the
  // manifest to a prefix — exactly the bytes a SIGKILL mid-sweep leaves,
  // since the manifest sink flushes per line.
  {
    ServerOptions options;
    options.state_dir = state_dir_;
    Server server(options);
    server.start();
    const std::uint64_t job = submit(server.port(), "/sweep?name=killjob",
                                     spec.to_json_text());
    (void)stream_job(server.port(), job);
    server.stop();
  }
  ASSERT_TRUE(std::filesystem::exists(manifest));
  const std::size_t kept = total / 2;
  truncate_to_lines(manifest, kept);

  // Restarted daemon: resubmitting the same name resumes from the
  // manifest prefix instead of recomputing, and the final aggregate is
  // byte-identical to the uninterrupted offline run.
  {
    ServerOptions options;
    options.state_dir = state_dir_;
    Server server(options);
    server.start();
    const std::uint64_t job = submit(server.port(), "/sweep?name=killjob",
                                     spec.to_json_text());
    const std::vector<std::string> lines = stream_job(server.port(), job);

    const support::Json summary = support::Json::parse(lines.back());
    EXPECT_EQ(summary.at("state").as_string(), "done");
    EXPECT_EQ(summary.at("aggregate_csv").as_string(), reference);

    // The replayed prefix was counted, not recomputed.
    const HttpResponse metrics = http_request(
        "127.0.0.1", server.port(), "GET", "/metrics?format=json");
    const support::Json counters =
        support::Json::parse(metrics.body).at("counters");
    // Every trial is emitted (sweep_trials_done counts replayed ones too);
    // the replayed prefix is tallied separately.
    EXPECT_EQ(counters.at("sweep_trials_done").as_uint(), total);
    EXPECT_EQ(counters.at("sweep_trials_replayed").as_uint(), kept);
    server.stop();
  }

  // After the resumed run the manifest is complete again.
  std::size_t manifest_lines = 0;
  std::ifstream in(manifest);
  for (std::string line; std::getline(in, line);) {
    manifest_lines += !line.empty();
  }
  EXPECT_EQ(manifest_lines, total);
}

TEST_F(ServerRecoveryTest, ShardedSweepJobRunsOnlyItsShard) {
  const api::SweepSpec spec = tiny_sweep();
  const api::SweepRunner runner(spec);
  const exp::ShardPlan plan{0, 2};
  const std::size_t owned =
      plan.owned_points(runner.labels()).size() * spec.replications;

  ServerOptions options;
  options.state_dir = state_dir_;
  Server server(options);
  server.start();
  const std::uint64_t job = submit(
      server.port(), "/sweep?shard=0%2F2&name=shardjob", spec.to_json_text());
  const std::vector<std::string> lines = stream_job(server.port(), job);
  server.stop();

  ASSERT_EQ(lines.size(), owned + 1);
  const support::Json summary = support::Json::parse(lines.back());
  EXPECT_EQ(summary.at("shard").as_string(), "0/2");
}

}  // namespace
}  // namespace consensus::serve
