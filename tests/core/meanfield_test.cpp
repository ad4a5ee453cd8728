// Mean-field agent fast path cross-validation:
//
//  * fused kernels (fused_visitor → update_from_draws) must draw exactly
//    the stream the virtual update() path draws — bit-identical trajectories
//    for the agent, async, and pairwise engines, with the fast path on and
//    off;
//  * the count-space alias sampler must be distribution-identical to the
//    per-vertex dense path: chi-square of one engine round against the
//    protocols' exact one-round laws, and KS against the dense agent path
//    and the counting engine;
//  * seed-determinism across 1/2/8 threads, fast path on and off;
//  * EngineState round-trips mid-run (the per-round alias table is derived
//    state and must be rebuilt transparently);
//  * zealots ride the fast path (they are sampled, never updated).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string_view>
#include <vector>

#include "consensus/core/agent_engine.hpp"
#include "consensus/core/async_engine.hpp"
#include "consensus/core/counting_engine.hpp"
#include "consensus/core/init.hpp"
#include "consensus/core/pairwise_engine.hpp"
#include "consensus/core/undecided.hpp"
#include "consensus/graph/generators.hpp"
#include "consensus/support/stats.hpp"
#include "consensus/support/thread_pool.hpp"
#include "test_util.hpp"

namespace consensus::core {
namespace {

const char* const kAllProtocols[] = {
    "voter",     "3-majority",   "3-majority-keep", "2-choices",
    "median",    "h-majority:3", "h-majority:5",    "undecided"};

/// Start with interleaved extinct slots so compact/dense bookkeeping and
/// slot conventions are all exercised. The undecided protocol treats the
/// LAST slot as ⊥, which here is alive slot 6 — fine, ⊥ may hold mass.
Configuration small_start() { return Configuration({160, 0, 90, 0, 0, 50, 100}); }

std::vector<Opinion> run_agent_rounds(const Protocol& protocol,
                                      const graph::Graph& graph,
                                      const Configuration& start,
                                      bool mean_field, std::uint64_t seed,
                                      int rounds,
                                      support::ThreadPool* pool = nullptr) {
  AgentEngine engine(protocol, graph, start);
  engine.set_mean_field(mean_field);
  if (pool != nullptr) engine.set_thread_pool(pool);
  support::Rng rng(seed);
  for (int t = 0; t < rounds; ++t) engine.step(rng);
  const auto view = engine.opinions();
  return std::vector<Opinion>(view.begin(), view.end());
}

// ------------------------------------ fused == virtual, bit for bit

TEST(MeanFieldFused, AgentFusedMatchesVirtualBitExact) {
  // make_generic_only forwards update() but keeps the default null
  // fused_visitor(), so the wrapped engine runs the virtual loop over the SAME
  // sampler. update_from_draws promises the same draw stream as update():
  // the trajectories must match to the bit, fast path on and off.
  const auto g = graph::Graph::complete_with_self_loops(400);
  for (const char* name : kAllProtocols) {
    const auto fused = make_protocol(name);
    const auto virtual_only = make_generic_only(make_protocol(name));
    for (const bool mean_field : {true, false}) {
      const auto a = run_agent_rounds(*fused, g, small_start(), mean_field,
                                      0x11, 6);
      const auto b = run_agent_rounds(*virtual_only, g, small_start(),
                                      mean_field, 0x11, 6);
      EXPECT_EQ(a, b) << name << " mean_field=" << mean_field;
    }
  }
}

TEST(MeanFieldFused, AgentFusedMatchesVirtualOnCsrGraphs) {
  support::Rng gen(5);
  const auto g = graph::random_regular(120, 6, gen);
  for (const char* name : {"3-majority", "median", "h-majority:3"}) {
    const auto fused = make_protocol(name);
    const auto virtual_only = make_generic_only(make_protocol(name));
    // Mixed start via per-vertex assignment.
    std::vector<Opinion> opinions(120);
    for (std::size_t v = 0; v < opinions.size(); ++v) {
      opinions[v] = static_cast<Opinion>(v % 4);
    }
    AgentEngine ea2(*fused, g, opinions, 4);
    AgentEngine eb2(*virtual_only, g, opinions, 4);
    support::Rng ra(0x22), rb(0x22);
    for (int t = 0; t < 5; ++t) {
      ea2.step(ra);
      eb2.step(rb);
    }
    EXPECT_TRUE(std::ranges::equal(ea2.opinions(), eb2.opinions())) << name;
  }
}

TEST(MeanFieldFused, AsyncFusedMatchesVirtualBitExact) {
  for (const char* name : kAllProtocols) {
    const auto fused = make_protocol(name);
    const auto virtual_only = make_generic_only(make_protocol(name));
    AsyncEngine ea(*fused, small_start());
    AsyncEngine eb(*virtual_only, small_start());
    support::Rng ra(0x33), rb(0x33);
    for (int t = 0; t < 2000; ++t) {
      ea.tick(ra);
      eb.tick(rb);
    }
    EXPECT_EQ(ea.config(), eb.config()) << name;
  }
}

TEST(MeanFieldFused, PairwiseFusedMatchesVirtualBitExact) {
  for (const char* name : {"voter", "undecided"}) {
    const auto fused = make_protocol(name);
    const auto virtual_only = make_generic_only(make_protocol(name));
    PairwiseEngine ea(*fused, small_start());
    PairwiseEngine eb(*virtual_only, small_start());
    support::Rng ra(0x44), rb(0x44);
    for (int t = 0; t < 2000; ++t) {
      ea.interact(ra);
      eb.interact(rb);
    }
    EXPECT_EQ(ea.config(), eb.config()) << name;
  }
}

// --------------------------- chi-square: count-space draws vs exact laws

// 99.99% chi-square quantiles for df = 1..15 (matches the other suites).
constexpr double kChi2Crit[16] = {0.0,   15.14, 18.42, 21.11, 23.51, 25.74,
                                  27.86, 29.88, 31.83, 33.72, 35.56, 37.37,
                                  39.13, 40.87, 42.58, 44.26};

/// One fast-path agent round from `start` produces, per vertex of group c,
/// an independent draw from the protocol's one-round law q_c; the round's
/// counts are the sufficient statistic. Expected counts follow from the
/// group laws: E[next_j] = Σ_c count(c)·q_c(j). (For current-dependent
/// rules the observed vector is a sum of independent group multinomials,
/// whose per-slot variance is at most the pooled-multinomial one the
/// chi-square assumes — the test is conservative, never anti-conservative.)
void expect_round_counts_match_law(const char* name, const Configuration& start,
                                   std::uint64_t seed) {
  const auto protocol = make_protocol(name);
  std::vector<double> expected_mass(start.num_opinions(), 0.0);
  const auto alive = start.alive();
  for (const Opinion group : alive) {
    std::vector<double> compact;
    ASSERT_TRUE(testing::compact_law(*protocol, start, group, compact))
        << name << ": need some exact law for the expectation";
    for (std::size_t i = 0; i < alive.size(); ++i) {
      expected_mass[alive[i]] +=
          static_cast<double>(start.count(group)) * compact[i];
    }
  }

  // Accumulate several fast-path rounds (reset each time) so expected
  // bucket masses are comfortably large for the chi-square.
  constexpr int kRounds = 40;
  const auto g = graph::Graph::complete_with_self_loops(start.num_vertices());
  std::vector<std::uint64_t> observed(start.num_opinions(), 0);
  support::Rng rng(seed);
  for (int r = 0; r < kRounds; ++r) {
    AgentEngine engine(*protocol, g, start);
    engine.step(rng);
    const Configuration round = engine.config();
    for (std::size_t j = 0; j < round.num_opinions(); ++j) {
      observed[j] += round.counts()[j];
    }
  }

  std::vector<std::uint64_t> obs;
  std::vector<double> expected;
  for (std::size_t j = 0; j < observed.size(); ++j) {
    if (expected_mass[j] > 0.0) {
      obs.push_back(observed[j]);
      expected.push_back(expected_mass[j] * kRounds);
    } else {
      EXPECT_EQ(observed[j], 0u) << name << " slot " << j;
    }
  }
  ASSERT_GE(obs.size(), 2u) << name;
  ASSERT_LE(obs.size() - 1, 15u) << name;
  const double stat = support::chi_squared_statistic(obs, expected);
  EXPECT_LT(stat, kChi2Crit[obs.size() - 1]) << name << ": chi2=" << stat;
}

TEST(MeanFieldLaw, CountSamplerRoundMatchesExactLawChiSquare) {
  // Every protocol with a computable exact law; undecided has none and is
  // covered by the KS tests below. 3-majority-keep gets small_start's
  // alive counts spread over k = 16 slots, 2-choices a two-alive start.
  std::uint64_t seed = 0xbead;
  const Configuration wide_start(
      {160, 0, 90, 0, 0, 50, 100, 0, 0, 0, 0, 0, 0, 0, 0, 0});
  for (const char* name : {"voter", "3-majority", "3-majority-keep",
                           "median", "h-majority:3", "h-majority:5"}) {
    const bool keep = std::string_view(name) == "3-majority-keep";
    expect_round_counts_match_law(name, keep ? wide_start : small_start(),
                                  seed++);
  }
  expect_round_counts_match_law(
      "2-choices", Configuration({240, 0, 0, 0, 160, 0, 0}), seed);
}

// ----------------------------- KS: meanfield vs dense vs counting engine

TEST(MeanFieldLaw, OneRoundKsMeanfieldVsDensePerProtocol) {
  const auto g = graph::Graph::complete_with_self_loops(400);
  const Configuration start = small_start();
  for (const char* name : kAllProtocols) {
    const auto protocol = make_protocol(name);
    support::Rng rng_m(71), rng_d(72);
    std::vector<double> via_meanfield, via_dense;
    for (int t = 0; t < 2500; ++t) {
      AgentEngine em(*protocol, g, start);
      em.step(rng_m);
      via_meanfield.push_back(static_cast<double>(em.config().count(2)));
      AgentEngine ed(*protocol, g, start);
      ed.set_mean_field(false);
      ed.step(rng_d);
      via_dense.push_back(static_cast<double>(ed.config().count(2)));
    }
    const double d = support::ks_statistic(via_meanfield, via_dense);
    EXPECT_GT(support::ks_p_value(d, via_meanfield.size(), via_dense.size()),
              1e-4)
        << name << " meanfield-vs-dense KS d=" << d;
  }
}

TEST(MeanFieldLaw, OneRoundKsAgentMeanfieldVsCountingEngine) {
  const auto g = graph::Graph::complete_with_self_loops(400);
  const Configuration start = small_start();
  for (const char* name : {"3-majority", "h-majority:5", "median"}) {
    const auto protocol = make_protocol(name);
    support::Rng rng_a(81), rng_c(82);
    std::vector<double> via_agent, via_counting;
    for (int t = 0; t < 2500; ++t) {
      AgentEngine ea(*protocol, g, start);
      ea.step(rng_a);
      via_agent.push_back(static_cast<double>(ea.config().count(2)));
      CountingEngine ec(*protocol, start);
      ec.step(rng_c);
      via_counting.push_back(static_cast<double>(ec.config().count(2)));
    }
    const double d = support::ks_statistic(via_agent, via_counting);
    EXPECT_GT(support::ks_p_value(d, via_agent.size(), via_counting.size()),
              1e-4)
        << name << " agent-meanfield-vs-counting KS d=" << d;
  }
}

// ------------------------------------------------ determinism and state

TEST(MeanFieldDeterminism, SameTrajectoryAcrossOneTwoEightThreads) {
  // n spans several kChunkVertices chunks so the pool actually stripes.
  const std::uint64_t n = 3 * AgentEngine::kChunkVertices + 1234;
  const auto g = graph::Graph::complete_with_self_loops(n);
  const Configuration start = balanced(n, 8);
  const auto protocol = make_protocol("3-majority");
  for (const bool mean_field : {true, false}) {
    const auto serial =
        run_agent_rounds(*protocol, g, start, mean_field, 0x77, 3);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      support::ThreadPool pool(threads);
      const auto pooled = run_agent_rounds(*protocol, g, start, mean_field,
                                           0x77, 3, &pool);
      EXPECT_EQ(pooled, serial)
          << threads << " threads, mean_field=" << mean_field;
    }
  }
}

TEST(MeanFieldDeterminism, OnAndOffAreEachDeterministicButDistinctStreams) {
  const auto g = graph::Graph::complete_with_self_loops(2000);
  const Configuration start = balanced(2000, 4);
  const auto protocol = make_protocol("3-majority");
  const auto on_a = run_agent_rounds(*protocol, g, start, true, 9, 4);
  const auto on_b = run_agent_rounds(*protocol, g, start, true, 9, 4);
  const auto off_a = run_agent_rounds(*protocol, g, start, false, 9, 4);
  const auto off_b = run_agent_rounds(*protocol, g, start, false, 9, 4);
  EXPECT_EQ(on_a, on_b);
  EXPECT_EQ(off_a, off_b);
  // Different RNG consumption per draw ⇒ (almost surely) different
  // trajectories; asserting it documents that the fast path is a
  // different — equally exact — stream, not a bit-compatible one.
  EXPECT_NE(on_a, off_a);
}

TEST(MeanFieldState, EngineStateRoundTripsThroughMidRunAliasTable) {
  // The per-round alias table is derived state: capture after some fast-
  // path rounds, restore into a fresh engine, and the continuation must be
  // bit-exact against the uninterrupted run.
  const auto g = graph::Graph::complete_with_self_loops(1500);
  const Configuration start = balanced(1500, 6);
  const auto protocol = make_protocol("h-majority:3");
  AgentEngine reference(*protocol, g, start);
  support::Rng rng(0xfeed);
  for (int t = 0; t < 3; ++t) reference.step(rng);
  const EngineState state = reference.capture_state();
  support::Rng rng_copy = rng;
  for (int t = 0; t < 4; ++t) reference.step(rng);

  AgentEngine restored(*protocol, g, start);
  restored.restore_state(state);
  EXPECT_EQ(restored.rounds_elapsed(), 3u);
  for (int t = 0; t < 4; ++t) restored.step(rng_copy);
  EXPECT_TRUE(std::ranges::equal(restored.opinions(), reference.opinions()));
  EXPECT_EQ(restored.config(), reference.config());
  EXPECT_EQ(rng_copy.state(), rng.state());
}

TEST(MeanFieldZealots, FrozenVerticesRideTheFastPath) {
  const auto g = graph::Graph::complete_with_self_loops(600);
  const auto protocol = make_protocol("3-majority");
  AgentEngine engine(*protocol, g, balanced(600, 3));
  ASSERT_EQ(engine.freeze_holders(2, 50), 50u);
  support::Rng rng(0x99);
  for (int t = 0; t < 40; ++t) engine.step(rng);
  // Zealots never update: opinion 2 keeps at least its frozen holders.
  EXPECT_GE(engine.config().count(2), 50u);
  EXPECT_EQ(engine.frozen_count(), 50u);
  std::uint64_t still_frozen = 0;
  for (std::size_t v = 0; v < 600; ++v) {
    if (engine.opinions()[v] == 2 && v >= 400) ++still_frozen;
  }
  // Block assignment puts opinion 2 on vertices [400, 600); the first 50
  // of those were frozen.
  EXPECT_GE(still_frozen, 50u);
}

}  // namespace
}  // namespace consensus::core
