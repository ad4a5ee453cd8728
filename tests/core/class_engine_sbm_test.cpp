// ClassCountingEngine::sbm: the count-space simulation of the annealed SBM.
// Cross-validated against the agent engine running the SAME chain on
// graph::Graph::implicit_sbm — the two are different samplers of one
// Markov kernel, so one-round moments and full distributions must match.
#include "consensus/core/class_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "consensus/core/agent_engine.hpp"
#include "consensus/core/init.hpp"
#include "consensus/core/undecided.hpp"
#include "consensus/graph/graph.hpp"
#include "consensus/support/stats.hpp"
#include "test_util.hpp"

namespace consensus::core {
namespace {

constexpr double kIntraP = 0.6;
constexpr double kInterP = 0.15;

std::vector<Configuration> make_blocks(const Configuration& total,
                                       std::uint64_t B, std::uint64_t seed) {
  const auto offsets = graph::sbm_block_offsets(total.num_vertices(), B);
  support::Rng rng(seed);
  return ClassCountingEngine::split_shuffled(total, offsets, rng);
}

std::vector<double> make_weights(std::uint64_t n, std::uint64_t B) {
  return graph::sbm_block_weights(graph::sbm_block_offsets(n, B), kIntraP,
                                  kInterP);
}

// ---------- split_shuffled ----------

TEST(SplitShuffled, PreservesTotalsAndBlockSizes) {
  const Configuration total({160, 0, 90, 0, 0, 50, 100});
  const auto offsets = graph::sbm_block_offsets(400, 3);
  support::Rng rng(1);
  const auto blocks =
      ClassCountingEngine::split_shuffled(total, offsets, rng);
  ASSERT_EQ(blocks.size(), 3u);
  std::vector<std::uint64_t> agg(total.num_opinions(), 0);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_EQ(blocks[b].num_vertices(), offsets[b + 1] - offsets[b]);
    EXPECT_EQ(blocks[b].num_opinions(), total.num_opinions());
    for (std::size_t j = 0; j < agg.size(); ++j) {
      agg[j] += blocks[b].counts()[j];
    }
  }
  for (std::size_t j = 0; j < agg.size(); ++j) {
    EXPECT_EQ(agg[j], total.counts()[j]) << "opinion " << j;
  }
}

TEST(SplitShuffled, MatchesShuffleMarginal) {
  // Opinion-0 count in block 0 is Hypergeometric(n, c_0, n_0): check the
  // mean against c_0 · n_0 / n.
  const Configuration total({300, 100, 200});  // n = 600
  const auto offsets = graph::sbm_block_offsets(600, 4);  // blocks of 150
  support::Rng rng(2);
  auto w = testing::monte_carlo(20000, [&] {
    const auto blocks =
        ClassCountingEngine::split_shuffled(total, offsets, rng);
    return static_cast<double>(blocks[0].counts()[0]);
  });
  EXPECT_TRUE(testing::mean_close(w, 300.0 * 150.0 / 600.0)) << w.mean();
}

TEST(SplitShuffled, RejectsBadOffsets) {
  const Configuration total({10, 10});
  support::Rng rng(3);
  EXPECT_THROW(ClassCountingEngine::split_shuffled(
                   total, std::vector<std::uint64_t>{0, 10}, rng),
               std::invalid_argument);  // does not cover n = 20
  EXPECT_THROW(ClassCountingEngine::split_shuffled(
                   total, std::vector<std::uint64_t>{20}, rng),
               std::invalid_argument);  // < 1 block
}

// ---------- construction ----------

TEST(BlockEngine, ConstructorValidates) {
  const auto protocol = make_protocol("3-majority");
  const Configuration total({40, 40, 20});
  auto blocks = make_blocks(total, 2, 4);
  EXPECT_THROW(ClassCountingEngine::sbm(*protocol, {}, {}),
               std::invalid_argument);
  EXPECT_THROW(
      ClassCountingEngine::sbm(*protocol, blocks, std::vector<double>{1.0}),
      std::invalid_argument);  // not B x B
  EXPECT_THROW(ClassCountingEngine::sbm(
                   *protocol, blocks, std::vector<double>{1.0, -1.0, 1.0, 1.0}),
               std::invalid_argument);  // negative mass
  EXPECT_THROW(ClassCountingEngine::sbm(
                   *protocol, blocks, std::vector<double>{1.0, 0.0, 0.0, 0.0}),
               std::invalid_argument);  // row 1 has zero mass
  // Mismatched slot counts across blocks.
  std::vector<Configuration> bad{Configuration({10, 10}),
                                 Configuration({5, 5, 5})};
  EXPECT_THROW(ClassCountingEngine::sbm(*protocol, bad,
                                        std::vector<double>{1, 1, 1, 1}),
               std::invalid_argument);
}

TEST(BlockEngine, AggregateAndPopulationInvariants) {
  const auto protocol = make_protocol("3-majority");
  const Configuration total({160, 0, 90, 0, 0, 50, 100});
  auto blocks = make_blocks(total, 4, 5);
  std::vector<std::uint64_t> sizes;
  for (const auto& b : blocks) sizes.push_back(b.num_vertices());
  auto engine = ClassCountingEngine::sbm(*protocol, std::move(blocks),
                                         make_weights(400, 4));
  EXPECT_EQ(engine.configuration().num_vertices(), 400u);
  support::Rng rng(6);
  for (int r = 0; r < 30; ++r) {
    engine.step(rng);
    const auto cfg = engine.configuration();
    EXPECT_EQ(cfg.num_vertices(), 400u);
    for (std::size_t b = 0; b < engine.num_classes(); ++b) {
      EXPECT_EQ(engine.class_configuration(b).num_vertices(), sizes[b])
          << "block " << b;
    }
  }
  EXPECT_EQ(engine.rounds_elapsed(), 30u);
}

// ---------- cross-validation vs agent engine on the implicit SBM ----------

struct BlockCase {
  const char* protocol;
  bool undecided_slot;
};

class BlockVsAgentSbm : public ::testing::TestWithParam<BlockCase> {};

TEST_P(BlockVsAgentSbm, OneStepMomentsMatch) {
  const auto [name, undecided_slot] = GetParam();
  const auto protocol = make_protocol(name);
  Configuration start({300, 120, 60, 20});
  if (undecided_slot) start = with_undecided_slot(start);
  const std::uint64_t n = start.num_vertices();
  const std::uint64_t B = 3;
  const auto g = graph::Graph::implicit_sbm(n, B, kIntraP, kInterP);
  const auto weights = make_weights(n, B);
  const auto offsets = graph::sbm_block_offsets(n, B);

  support::Welford wb, wa;
  support::Rng rng_b(0xb10c);
  support::Rng rng_a(0xa6e7);
  for (int t = 0; t < 4000; ++t) {
    auto blocks = ClassCountingEngine::split_shuffled(start, offsets, rng_b);
    auto be = ClassCountingEngine::sbm(*protocol, std::move(blocks), weights);
    be.step(rng_b);
    wb.add(be.configuration().alpha(0));

    auto opinions = assign_vertices_shuffled(start, rng_a);
    AgentEngine ae(*protocol, g, std::move(opinions), start.num_opinions());
    ae.step(rng_a);
    wa.add(ae.config().alpha(0));
  }
  const double se = std::sqrt(wb.sem() * wb.sem() + wa.sem() * wa.sem());
  EXPECT_LE(std::fabs(wb.mean() - wa.mean()), 5.0 * se + 1e-12)
      << name << ": block=" << wb.mean() << " agent=" << wa.mean();
  ASSERT_GT(wb.variance(), 0.0);
  ASSERT_GT(wa.variance(), 0.0);
  EXPECT_NEAR(wb.variance() / wa.variance(), 1.0, 0.2) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, BlockVsAgentSbm,
    ::testing::Values(BlockCase{"3-majority", false},
                      BlockCase{"2-choices", false},
                      BlockCase{"voter", false},
                      BlockCase{"undecided", true},
                      BlockCase{"h-majority:5", false},
                      BlockCase{"median", false}));

TEST(BlockVsAgentSbmKS, FullOneStepDistributionMatches) {
  const auto protocol = make_protocol("3-majority");
  const Configuration start({160, 90, 50});
  const std::uint64_t n = 300, B = 2;
  const auto g = graph::Graph::implicit_sbm(n, B, kIntraP, kInterP);
  const auto weights = make_weights(n, B);
  const auto offsets = graph::sbm_block_offsets(n, B);
  support::Rng rng_b(31);
  support::Rng rng_a(32);
  std::vector<double> block, agent;
  for (int t = 0; t < 5000; ++t) {
    auto blocks = ClassCountingEngine::split_shuffled(start, offsets, rng_b);
    auto be = ClassCountingEngine::sbm(*protocol, std::move(blocks), weights);
    be.step(rng_b);
    block.push_back(static_cast<double>(be.configuration().count(0)));

    auto opinions = assign_vertices_shuffled(start, rng_a);
    AgentEngine ae(*protocol, g, std::move(opinions), start.num_opinions());
    ae.step(rng_a);
    agent.push_back(static_cast<double>(ae.config().count(0)));
  }
  const double d = support::ks_statistic(block, agent);
  const double p = support::ks_p_value(d, block.size(), agent.size());
  EXPECT_GT(p, 1e-4) << "KS d=" << d;
}

TEST(BlockEngine, FallbackPathMatchesLawPath) {
  // generic_only hides outcome_distribution_mixture, forcing the exact
  // per-vertex fallback; its one-round law must match the multinomial law
  // path (they sample the same kernel).
  const auto law = make_protocol("3-majority");
  const auto fallback = make_generic_only(make_protocol("3-majority"));
  const Configuration start({200, 100, 60});
  const std::uint64_t n = 360, B = 3;
  const auto weights = make_weights(n, B);
  const auto offsets = graph::sbm_block_offsets(n, B);
  support::Rng rng_l(41);
  support::Rng rng_f(42);
  support::Welford wl, wf;
  for (int t = 0; t < 4000; ++t) {
    auto bl = ClassCountingEngine::split_shuffled(start, offsets, rng_l);
    auto el = ClassCountingEngine::sbm(*law, std::move(bl), weights);
    el.step(rng_l);
    wl.add(el.configuration().alpha(0));

    auto bf = ClassCountingEngine::split_shuffled(start, offsets, rng_f);
    auto ef = ClassCountingEngine::sbm(*fallback, std::move(bf), weights);
    ef.step(rng_f);
    wf.add(ef.configuration().alpha(0));
  }
  const double se = std::sqrt(wl.sem() * wl.sem() + wf.sem() * wf.sem());
  EXPECT_LE(std::fabs(wl.mean() - wf.mean()), 5.0 * se + 1e-12)
      << "law=" << wl.mean() << " fallback=" << wf.mean();
  EXPECT_NEAR(wl.variance() / wf.variance(), 1.0, 0.2);
}

TEST(BlockEngine, KeepOrAdoptMatchesGenericPathKs) {
  // Keep-or-adopt rules draw O(a) keeper binomials plus one adopt
  // multinomial per block; generic_only hides the hook and runs the exact
  // per-vertex fallback. Two-sample KS on one slot count of one block
  // after one round from fixed blocks.
  const Configuration start({0, 200, 0, 100, 60, 0});
  const std::uint64_t n = 360, B = 3;
  const auto weights = make_weights(n, B);
  const auto blocks = make_blocks(start, B, 43);
  for (const char* name : {"2-choices", "3-majority-keep"}) {
    const auto law = make_protocol(name);
    const auto generic = make_generic_only(make_protocol(name));
    support::Rng rng_l(44);
    support::Rng rng_g(45);
    std::vector<double> via_law, via_generic;
    for (int t = 0; t < 4000; ++t) {
      auto el = ClassCountingEngine::sbm(*law, blocks, weights);
      el.step(rng_l);
      via_law.push_back(
          static_cast<double>(el.class_configuration(0).count(3)));
      auto eg = ClassCountingEngine::sbm(*generic, blocks, weights);
      eg.step(rng_g);
      via_generic.push_back(
          static_cast<double>(eg.class_configuration(0).count(3)));
    }
    const double d = support::ks_statistic(via_law, via_generic);
    EXPECT_GT(support::ks_p_value(d, via_law.size(), via_generic.size()),
              1e-4)
        << name << ": KS d=" << d;
  }
}

// ---------- EngineState round-trip ----------

TEST(BlockEngine, StateRoundTripReproducesTrajectory) {
  const auto protocol = make_protocol("2-choices");
  const Configuration total({160, 0, 90, 0, 0, 50, 100});
  auto engine = ClassCountingEngine::sbm(*protocol, make_blocks(total, 4, 7),
                                         make_weights(400, 4));
  support::Rng rng(51);
  for (int r = 0; r < 5; ++r) engine.step(rng);
  const EngineState state = engine.capture_state();
  EXPECT_EQ(state.kind, "block");
  EXPECT_EQ(state.progress, 5u);
  EXPECT_EQ(state.counts.size(), 4u * total.num_opinions());
  const support::Rng rng_snapshot = rng;

  // Continue the original.
  for (int r = 0; r < 10; ++r) engine.step(rng);
  const Configuration final_snapshot = engine.configuration();
  const auto final_counts = final_snapshot.counts();

  // Restore into a sibling built from the same block shapes and replay.
  auto restored = ClassCountingEngine::sbm(*protocol, make_blocks(total, 4, 7),
                                           make_weights(400, 4));
  restored.restore_state(state);
  EXPECT_EQ(restored.rounds_elapsed(), 5u);
  support::Rng rng2 = rng_snapshot;
  for (int r = 0; r < 10; ++r) restored.step(rng2);
  const Configuration replayed = restored.configuration();
  ASSERT_EQ(replayed.counts().size(), final_counts.size());
  for (std::size_t j = 0; j < final_counts.size(); ++j) {
    EXPECT_EQ(replayed.counts()[j], final_counts[j]) << j;
  }
}

TEST(BlockEngine, RestoreRejectsForeignState) {
  const auto protocol = make_protocol("voter");
  const Configuration total({50, 50});
  auto engine = ClassCountingEngine::sbm(*protocol, make_blocks(total, 2, 8),
                                         make_weights(100, 2));
  EngineState wrong_kind = engine.capture_state();
  wrong_kind.kind = "counting";
  EXPECT_THROW(engine.restore_state(wrong_kind), std::invalid_argument);
  EngineState wrong_shape = engine.capture_state();
  wrong_shape.counts.push_back(0);
  EXPECT_THROW(engine.restore_state(wrong_shape), std::invalid_argument);
}

TEST(BlockEngine, ReachesConsensusOnConnectedSbm) {
  const auto protocol = make_protocol("3-majority");
  const Configuration total({260, 90, 50});
  auto engine = ClassCountingEngine::sbm(*protocol, make_blocks(total, 4, 9),
                                         make_weights(400, 4));
  support::Rng rng(61);
  int rounds = 0;
  while (!engine.is_consensus() && rounds < 5000) {
    engine.step(rng);
    ++rounds;
  }
  EXPECT_TRUE(engine.is_consensus());
  EXPECT_LT(rounds, 5000);
  const Configuration final_config = engine.configuration();
  EXPECT_EQ(final_config.counts()[engine.winner()], 400u);
}

}  // namespace
}  // namespace consensus::core
