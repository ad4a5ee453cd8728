#include "consensus/experiment/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>

#include "consensus/core/counting_engine.hpp"
#include "consensus/core/init.hpp"
#include "consensus/core/three_majority.hpp"
#include "consensus/experiment/sink.hpp"

namespace consensus::exp {
namespace {

using core::RunResult;

TEST(Sweep, AggregatesReplications) {
  Sweep sweep(3, 10, 0xfeed);
  auto stats = sweep.run([](const Trial& trial) {
    RunResult res;
    res.reached_consensus = true;
    res.rounds = 100 * (trial.point_index + 1);
    res.validity = true;
    res.plurality_preserved = trial.replication % 2 == 0;
    return res;
  });
  ASSERT_EQ(stats.size(), 3u);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(stats[p].point_index, p);
    EXPECT_EQ(stats[p].consensus_reached, 10u);
    EXPECT_DOUBLE_EQ(stats[p].success_rate, 1.0);
    EXPECT_DOUBLE_EQ(stats[p].rounds.mean, 100.0 * (p + 1));
    EXPECT_EQ(stats[p].plurality_wins, 5u);
    EXPECT_EQ(stats[p].validity_violations, 0u);
  }
}

TEST(Sweep, CountsFailures) {
  Sweep sweep(1, 8, 1);
  auto stats = sweep.run([](const Trial& trial) {
    RunResult res;
    res.reached_consensus = trial.replication < 2;
    res.rounds = 5;
    res.validity = true;
    return res;
  });
  EXPECT_EQ(stats[0].consensus_reached, 2u);
  EXPECT_DOUBLE_EQ(stats[0].success_rate, 0.25);
}

TEST(Sweep, SeedsAreDeterministicAndDistinct) {
  std::vector<std::uint64_t> seeds_a(6), seeds_b(6);
  Sweep sweep(2, 3, 0xabc);
  sweep.run([&](const Trial& trial) {
    seeds_a[trial.point_index * 3 + trial.replication] = trial.seed;
    return RunResult{};
  });
  sweep.run([&](const Trial& trial) {
    seeds_b[trial.point_index * 3 + trial.replication] = trial.seed;
    return RunResult{};
  });
  EXPECT_EQ(seeds_a, seeds_b);
  std::sort(seeds_a.begin(), seeds_a.end());
  EXPECT_EQ(std::adjacent_find(seeds_a.begin(), seeds_a.end()), seeds_a.end());
}

TEST(Sweep, EndToEndDeterministicResults) {
  // Full pipeline determinism: same master seed → identical round counts.
  auto run_once = [] {
    Sweep sweep(2, 5, 0xd00d);
    sweep.set_threads(4);
    return sweep.run([](const Trial& trial) {
      core::ThreeMajority protocol;
      core::CountingEngine engine(protocol,
                                  core::balanced(500, 4 + trial.point_index));
      support::Rng rng(trial.seed);
      return core::run_to_consensus(engine, rng);
    });
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_DOUBLE_EQ(a[p].rounds.mean, b[p].rounds.mean);
    EXPECT_EQ(a[p].consensus_reached, b[p].consensus_reached);
  }
}

TEST(Sweep, RejectsEmpty) {
  EXPECT_THROW(Sweep(0, 1, 0), std::invalid_argument);
  EXPECT_THROW(Sweep(1, 0, 0), std::invalid_argument);
}

namespace {

/// Records every emission, to assert streaming semantics.
class RecordingSink final : public ResultSink {
 public:
  void on_trial(const TrialRecord& record) override {
    records.push_back(record);
  }
  void on_finish() override { ++finished; }
  std::vector<TrialRecord> records;
  int finished = 0;
};

}  // namespace

TEST(SweepStream, EmitsEveryTrialExactlyOnceAndFinishes) {
  Sweep sweep(2, 3, 0x51);
  sweep.set_threads(4);
  RecordingSink sink;
  sweep.run_stream(
      [](const Trial& trial) {
        RunResult res;
        res.reached_consensus = true;
        res.rounds = trial.point_index * 100 + trial.replication;
        return res;
      },
      {&sink});
  EXPECT_EQ(sink.finished, 1);
  ASSERT_EQ(sink.records.size(), 6u);
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  for (const TrialRecord& r : sink.records) {
    EXPECT_FALSE(r.replayed);
    EXPECT_EQ(r.seed, sweep.trial_seed(r.point_index, r.replication));
    EXPECT_EQ(r.result.rounds, r.point_index * 100 + r.replication);
    cells.emplace_back(r.point_index, r.replication);
  }
  std::sort(cells.begin(), cells.end());
  EXPECT_EQ(std::adjacent_find(cells.begin(), cells.end()), cells.end());
}

TEST(SweepStream, ResumeReplaysWithoutCallingBody) {
  Sweep sweep(1, 4, 0x52);
  SweepResume resume;
  for (std::size_t rep : {0u, 2u}) {
    TrialRecord done;
    done.point_index = 0;
    done.replication = rep;
    done.seed = sweep.trial_seed(0, rep);
    done.replayed = true;
    done.result.reached_consensus = true;
    done.result.rounds = 1000 + rep;  // distinguishable from live results
    resume.completed[{0, rep}] = done;
  }
  RecordingSink sink;
  std::vector<std::size_t> body_reps;
  std::mutex body_reps_mutex;  // the body runs on the sweep's pool threads
  sweep.run_stream(
      [&](const Trial& trial) {
        {
          const std::lock_guard<std::mutex> lock(body_reps_mutex);
          body_reps.push_back(trial.replication);
        }
        RunResult res;
        res.reached_consensus = true;
        res.rounds = trial.replication;
        return res;
      },
      {&sink}, &resume);
  std::sort(body_reps.begin(), body_reps.end());
  EXPECT_EQ(body_reps, (std::vector<std::size_t>{1, 3}));
  ASSERT_EQ(sink.records.size(), 4u);
  // Replayed records arrive first and carry the manifest results.
  EXPECT_TRUE(sink.records[0].replayed);
  EXPECT_TRUE(sink.records[1].replayed);
  EXPECT_EQ(sink.records[0].result.rounds, 1000u);
  EXPECT_EQ(sink.records[1].result.rounds, 1002u);
}

TEST(SweepStream, ResumeRejectsForeignManifest) {
  Sweep sweep(1, 2, 0x53);
  const auto body = [](const Trial&) { return RunResult{}; };

  SweepResume bad_seed;
  bad_seed.completed[{0, 0}] = TrialRecord{.seed = 12345};
  EXPECT_THROW(sweep.run_stream(body, {}, &bad_seed), std::invalid_argument);

  SweepResume out_of_grid;
  TrialRecord record;
  record.point_index = 9;
  record.seed = sweep.trial_seed(0, 0);
  out_of_grid.completed[{9, 0}] = record;
  EXPECT_THROW(sweep.run_stream(body, {}, &out_of_grid),
               std::invalid_argument);
}

TEST(SweepStream, RunIsEquivalentToStreamingAggregation) {
  const auto body = [](const Trial& trial) {
    RunResult res;
    res.reached_consensus = trial.replication != 1;
    res.rounds = 10 * (trial.point_index + 1) + trial.replication;
    res.validity = true;
    return res;
  };
  Sweep sweep(3, 4, 0x54);
  const auto direct = sweep.run(body);
  PointStatsSink sink(3, 4);
  sweep.run_stream(body, {&sink});
  ASSERT_EQ(direct.size(), sink.stats().size());
  for (std::size_t p = 0; p < direct.size(); ++p) {
    EXPECT_EQ(direct[p].consensus_reached, sink.stats()[p].consensus_reached);
    EXPECT_DOUBLE_EQ(direct[p].rounds.mean, sink.stats()[p].rounds.mean);
    EXPECT_DOUBLE_EQ(direct[p].success_rate, sink.stats()[p].success_rate);
  }
}

}  // namespace
}  // namespace consensus::exp
