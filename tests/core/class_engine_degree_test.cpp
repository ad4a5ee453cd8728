// ClassCountingEngine::degree_classes: the count-space simulation of the
// ANNEALED configuration model. Cross-validated against the agent engine
// running the SAME chain on
// graph::Graph::implicit_configuration_model_annealed — the two are
// different samplers of one Markov kernel, so one-round moments and full
// distributions must match. (The quenched stub-matching chain is a
// different kernel; see docs/ENGINES.md.)
#include "consensus/core/class_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "consensus/core/agent_engine.hpp"
#include "consensus/core/init.hpp"
#include "consensus/core/undecided.hpp"
#include "consensus/graph/degree_histogram.hpp"
#include "consensus/graph/graph.hpp"
#include "consensus/support/stats.hpp"
#include "test_util.hpp"

namespace consensus::core {
namespace {

// n = 500 with a 100:1 degree spread — heterogeneous enough that a
// degree-blind mean field would visibly diverge from the agent engine.
graph::DegreeHistogram test_hist() {
  graph::DegreeHistogram h;
  h.degrees = {3, 8, 40};
  h.class_sizes = {400, 90, 10};
  return h;
}

std::vector<Configuration> make_classes(const Configuration& total,
                                        const graph::DegreeHistogram& hist,
                                        std::uint64_t seed) {
  support::Rng rng(seed);
  return ClassCountingEngine::split_shuffled(total, hist.vertex_offsets(),
                                             rng);
}

// ---------- construction ----------

TEST(DegreeClassEngine, ConstructorValidates) {
  const auto protocol = make_protocol("3-majority");
  EXPECT_THROW(ClassCountingEngine::degree_classes(*protocol, {}, {}),
               std::invalid_argument);  // no classes
  std::vector<Configuration> classes{Configuration({40, 40}),
                                     Configuration({10, 10})};
  EXPECT_THROW(ClassCountingEngine::degree_classes(
                   *protocol, classes, std::vector<std::uint64_t>{3}),
               std::invalid_argument);  // degree count != class count
  EXPECT_THROW(ClassCountingEngine::degree_classes(
                   *protocol, classes, std::vector<std::uint64_t>{3, 0}),
               std::invalid_argument);  // zero degree
  std::vector<Configuration> mismatched{Configuration({10, 10}),
                                        Configuration({5, 5, 5})};
  EXPECT_THROW(ClassCountingEngine::degree_classes(
                   *protocol, mismatched, std::vector<std::uint64_t>{3, 8}),
               std::invalid_argument);  // slot counts disagree
  // An empty class cannot even be expressed: Configuration itself
  // requires >= 1 vertex, so the engine never sees a zero-vertex class.
  EXPECT_THROW(Configuration({0, 0}), std::invalid_argument);
}

TEST(DegreeClassEngine, AggregateAndPopulationInvariants) {
  const auto protocol = make_protocol("3-majority");
  const auto hist = test_hist();
  const Configuration total({260, 120, 70, 50});
  auto classes = make_classes(total, hist, 5);
  std::vector<std::uint64_t> sizes;
  for (const auto& c : classes) sizes.push_back(c.num_vertices());
  auto engine = ClassCountingEngine::degree_classes(*protocol,
                                                    std::move(classes),
                                                    hist.degrees);
  EXPECT_EQ(engine.configuration().num_vertices(), 500u);
  EXPECT_EQ(engine.num_classes(), 3u);
  support::Rng rng(6);
  for (int r = 0; r < 30; ++r) {
    engine.step(rng);
    const auto cfg = engine.configuration();
    EXPECT_EQ(cfg.num_vertices(), 500u);
    std::vector<std::uint64_t> agg(cfg.num_opinions(), 0);
    for (std::size_t c = 0; c < engine.num_classes(); ++c) {
      EXPECT_EQ(engine.class_configuration(c).num_vertices(), sizes[c])
          << "class " << c;
      for (std::size_t j = 0; j < agg.size(); ++j) {
        agg[j] += engine.class_configuration(c).counts()[j];
      }
    }
    // The aggregate is kept incrementally; it must equal the class sum.
    for (std::size_t j = 0; j < agg.size(); ++j) {
      EXPECT_EQ(agg[j], cfg.counts()[j]) << "opinion " << j;
    }
  }
  EXPECT_EQ(engine.rounds_elapsed(), 30u);
}

TEST(DegreeClassEngine, DeterministicInSeed) {
  const auto protocol = make_protocol("2-choices");
  const auto hist = test_hist();
  const Configuration total({300, 120, 60, 20});
  auto a = ClassCountingEngine::degree_classes(*protocol,
                                               make_classes(total, hist, 9),
                                               hist.degrees);
  auto b = ClassCountingEngine::degree_classes(*protocol,
                                               make_classes(total, hist, 9),
                                               hist.degrees);
  support::Rng rng_a(10), rng_b(10);
  for (int r = 0; r < 50; ++r) {
    a.step(rng_a);
    b.step(rng_b);
  }
  for (std::size_t c = 0; c < a.num_classes(); ++c) {
    EXPECT_TRUE(std::ranges::equal(a.class_configuration(c).counts(),
                                   b.class_configuration(c).counts()))
        << "class " << c;
  }
}

// ---------- multinomial method rule ----------

// One round replayed by hand: the shared mixture, its law, then per class
// support::AliasCounter draws when support::prefer_table_counting(trials,
// a) holds and the cascade otherwise. Bit-identical class counts pin the
// engine's choice to (trials, a) and nothing else. k = 8 with two extinct
// slots gives a = 6, so classes of 40 and 48 vertices take the table and
// 49 and 2000 the cascade (2-Choices applies the rule to its movers).
TEST(DegreeClassEngine, MethodRuleFollowsTrialsAndSupport) {
  const std::vector<Configuration> start{
      Configuration({10, 5, 5, 0, 5, 5, 10, 0}),
      Configuration({8, 8, 8, 0, 8, 8, 8, 0}),
      Configuration({9, 8, 8, 0, 8, 8, 8, 0}),
      Configuration({400, 300, 300, 0, 300, 300, 400, 0})};
  const std::vector<std::uint64_t> degrees{3, 5, 8, 40};
  const std::size_t k = 8;
  for (const char* name : {"3-majority", "2-choices"}) {
    SCOPED_TRACE(name);
    const auto protocol = make_protocol(name);
    auto engine =
        ClassCountingEngine::degree_classes(*protocol, start, degrees);
    support::Rng rng_engine(77);
    engine.step(rng_engine);

    std::uint64_t stubs = 0;
    for (std::size_t c = 0; c < start.size(); ++c) {
      stubs += degrees[c] * start[c].num_vertices();
    }
    const double inv_m = 1.0 / static_cast<double>(stubs);
    std::vector<double> q(k, 0.0);
    for (std::size_t c = 0; c < start.size(); ++c) {
      const double coeff = static_cast<double>(degrees[c]) * inv_m;
      for (std::size_t j = 0; j < k; ++j) {
        q[j] += coeff * static_cast<double>(start[c].counts()[j]);
      }
    }
    std::vector<double> law;
    double keep = 0.0;
    const bool keep_or_adopt = protocol->keep_or_adopt(q, law, keep);
    if (!keep_or_adopt) {
      ASSERT_TRUE(protocol->outcome_distribution_mixture(0, q, 0, law));
    }
    const std::size_t a = static_cast<std::size_t>(std::count_if(
        law.begin(), law.end(), [](double w) { return w > 0.0; }));
    ASSERT_EQ(a, 6u);
    support::AliasCounter table;
    table.rebuild(law);

    support::Rng rng(77);
    std::size_t by_table = 0;
    for (std::size_t c = 0; c < start.size(); ++c) {
      std::vector<std::uint64_t> next(k, 0);
      std::uint64_t trials = start[c].num_vertices();
      if (keep_or_adopt) {
        for (const Opinion o : start[c].alive()) {
          next[o] = support::binomial(rng, start[c].counts()[o], keep);
          trials -= next[o];
        }
      }
      if (trials > 0 && support::prefer_table_counting(trials, a)) {
        table.add_counts(rng, trials, next);
        ++by_table;
      } else {
        std::vector<std::uint64_t> drawn;
        support::multinomial_into(rng, trials, law, drawn);
        for (std::size_t j = 0; j < k; ++j) next[j] += drawn[j];
      }
      EXPECT_TRUE(
          std::ranges::equal(engine.class_configuration(c).counts(), next))
          << "class " << c;
    }
    EXPECT_GE(by_table, 1u);
    EXPECT_LT(by_table, start.size());
  }
}

// ---------- cross-validation vs agent engine on the annealed graph ----------

struct DegreeCase {
  const char* protocol;
  bool undecided_slot;
};

class DegreeVsAgentAnnealed : public ::testing::TestWithParam<DegreeCase> {};

TEST_P(DegreeVsAgentAnnealed, OneStepMomentsMatch) {
  const auto [name, undecided_slot] = GetParam();
  const auto protocol = make_protocol(name);
  Configuration start({300, 120, 60, 20});
  if (undecided_slot) start = with_undecided_slot(start);
  const auto hist = test_hist();
  ASSERT_EQ(start.num_vertices(), hist.total_vertices());
  const auto g = graph::Graph::implicit_configuration_model_annealed(hist);
  const auto offsets = hist.vertex_offsets();

  support::Welford wd, wa;
  support::Rng rng_d(0xdc1a);
  support::Rng rng_a(0xa6e7);
  for (int t = 0; t < 4000; ++t) {
    auto classes =
        ClassCountingEngine::split_shuffled(start, offsets, rng_d);
    auto de = ClassCountingEngine::degree_classes(*protocol, std::move(classes),
                                                  hist.degrees);
    de.step(rng_d);
    wd.add(de.configuration().alpha(0));

    auto opinions = assign_vertices_shuffled(start, rng_a);
    AgentEngine ae(*protocol, g, std::move(opinions), start.num_opinions());
    ae.step(rng_a);
    wa.add(ae.config().alpha(0));
  }
  const double se = std::sqrt(wd.sem() * wd.sem() + wa.sem() * wa.sem());
  EXPECT_LE(std::fabs(wd.mean() - wa.mean()), 5.0 * se + 1e-12)
      << name << ": degree=" << wd.mean() << " agent=" << wa.mean();
  ASSERT_GT(wd.variance(), 0.0);
  ASSERT_GT(wa.variance(), 0.0);
  EXPECT_NEAR(wd.variance() / wa.variance(), 1.0, 0.2) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, DegreeVsAgentAnnealed,
    ::testing::Values(DegreeCase{"3-majority", false},
                      DegreeCase{"2-choices", false},
                      DegreeCase{"voter", false},
                      DegreeCase{"undecided", true},
                      DegreeCase{"h-majority:5", false},
                      DegreeCase{"median", false}));

TEST(DegreeVsAgentAnnealedKS, FullOneStepDistributionMatches) {
  const auto protocol = make_protocol("3-majority");
  graph::DegreeHistogram hist;
  hist.degrees = {3, 10};
  hist.class_sizes = {270, 30};
  const Configuration start({160, 90, 50});
  ASSERT_EQ(start.num_vertices(), hist.total_vertices());
  const auto g = graph::Graph::implicit_configuration_model_annealed(hist);
  const auto offsets = hist.vertex_offsets();
  support::Rng rng_d(31);
  support::Rng rng_a(32);
  std::vector<double> degree, agent;
  for (int t = 0; t < 5000; ++t) {
    auto classes =
        ClassCountingEngine::split_shuffled(start, offsets, rng_d);
    auto de = ClassCountingEngine::degree_classes(*protocol, std::move(classes),
                                                  hist.degrees);
    de.step(rng_d);
    degree.push_back(static_cast<double>(de.configuration().count(0)));

    auto opinions = assign_vertices_shuffled(start, rng_a);
    AgentEngine ae(*protocol, g, std::move(opinions), start.num_opinions());
    ae.step(rng_a);
    agent.push_back(static_cast<double>(ae.config().count(0)));
  }
  const double d = support::ks_statistic(degree, agent);
  const double p = support::ks_p_value(d, degree.size(), agent.size());
  EXPECT_GT(p, 1e-4) << "KS d=" << d;
}

TEST(DegreeClassEngine, FallbackPathMatchesLawPath) {
  // generic_only hides outcome_distribution_mixture, forcing the exact
  // per-vertex alias fallback; its one-round law must match the
  // multinomial law path (they sample the same kernel).
  const auto law = make_protocol("3-majority");
  const auto fallback = make_generic_only(make_protocol("3-majority"));
  graph::DegreeHistogram hist;
  hist.degrees = {4, 12};
  hist.class_sizes = {330, 30};
  const Configuration start({200, 100, 60});
  ASSERT_EQ(start.num_vertices(), hist.total_vertices());
  const auto offsets = hist.vertex_offsets();
  support::Rng rng_l(41);
  support::Rng rng_f(42);
  support::Welford wl, wf;
  for (int t = 0; t < 4000; ++t) {
    auto cl = ClassCountingEngine::split_shuffled(start, offsets, rng_l);
    auto el = ClassCountingEngine::degree_classes(*law, std::move(cl),
                                                  hist.degrees);
    el.step(rng_l);
    wl.add(el.configuration().alpha(0));

    auto cf = ClassCountingEngine::split_shuffled(start, offsets, rng_f);
    auto ef = ClassCountingEngine::degree_classes(*fallback, std::move(cf),
                                                  hist.degrees);
    ef.step(rng_f);
    wf.add(ef.configuration().alpha(0));
  }
  const double se = std::sqrt(wl.sem() * wl.sem() + wf.sem() * wf.sem());
  EXPECT_LE(std::fabs(wl.mean() - wf.mean()), 5.0 * se + 1e-12)
      << "law=" << wl.mean() << " fallback=" << wf.mean();
  EXPECT_NEAR(wl.variance() / wf.variance(), 1.0, 0.2);
}

// ---------- EngineState round-trip ----------

TEST(DegreeClassEngine, StateRoundTripReproducesTrajectory) {
  const auto protocol = make_protocol("2-choices");
  const auto hist = test_hist();
  const Configuration total({260, 120, 70, 50});
  auto engine = ClassCountingEngine::degree_classes(
      *protocol, make_classes(total, hist, 7), hist.degrees);
  support::Rng rng(51);
  for (int r = 0; r < 5; ++r) engine.step(rng);
  const EngineState state = engine.capture_state();
  EXPECT_EQ(state.kind, "degree-class");
  EXPECT_EQ(state.progress, 5u);
  EXPECT_EQ(state.counts.size(), 3u * total.num_opinions());
  const support::Rng rng_snapshot = rng;

  // Continue the original.
  for (int r = 0; r < 10; ++r) engine.step(rng);
  const Configuration final_config = engine.configuration();
  const auto final_counts = final_config.counts();

  // Restore into a sibling built from the same class shapes and replay.
  auto restored = ClassCountingEngine::degree_classes(
      *protocol, make_classes(total, hist, 7), hist.degrees);
  restored.restore_state(state);
  EXPECT_EQ(restored.rounds_elapsed(), 5u);
  support::Rng rng2 = rng_snapshot;
  for (int r = 0; r < 10; ++r) restored.step(rng2);
  const Configuration replayed_config = restored.configuration();
  const auto replayed = replayed_config.counts();
  ASSERT_EQ(replayed.size(), final_counts.size());
  for (std::size_t j = 0; j < final_counts.size(); ++j) {
    EXPECT_EQ(replayed[j], final_counts[j]) << j;
  }
}

TEST(DegreeClassEngine, RestoreRejectsForeignState) {
  const auto protocol = make_protocol("voter");
  graph::DegreeHistogram hist;
  hist.degrees = {2, 6};
  hist.class_sizes = {80, 20};
  const Configuration total({50, 50});
  auto engine = ClassCountingEngine::degree_classes(
      *protocol, make_classes(total, hist, 8), hist.degrees);
  EngineState wrong_kind = engine.capture_state();
  wrong_kind.kind = "block";
  EXPECT_THROW(engine.restore_state(wrong_kind), std::invalid_argument);
  EngineState wrong_shape = engine.capture_state();
  wrong_shape.counts.push_back(0);
  EXPECT_THROW(engine.restore_state(wrong_shape), std::invalid_argument);
}

TEST(DegreeClassEngine, BlockAndDegreeClassStatesAreNotInterchangeable) {
  // Same class count, same k, so the flattened state shapes agree: only
  // the kind tells a block state from a degree-class state.
  const auto protocol = make_protocol("voter");
  graph::DegreeHistogram hist;
  hist.degrees = {2, 6};
  hist.class_sizes = {50, 50};
  const Configuration total({50, 50});
  auto degree = ClassCountingEngine::degree_classes(
      *protocol, make_classes(total, hist, 8), hist.degrees);
  auto block = ClassCountingEngine::sbm(
      *protocol, make_classes(total, hist, 8),
      graph::sbm_block_weights(hist.vertex_offsets(), 0.5, 0.1));
  const EngineState degree_state = degree.capture_state();
  const EngineState block_state = block.capture_state();
  ASSERT_EQ(degree_state.counts.size(), block_state.counts.size());
  EXPECT_THROW(degree.restore_state(block_state), std::invalid_argument);
  EXPECT_THROW(block.restore_state(degree_state), std::invalid_argument);
  // Each still accepts its own kind.
  EXPECT_NO_THROW(degree.restore_state(degree_state));
  EXPECT_NO_THROW(block.restore_state(block_state));
}

TEST(DegreeClassEngine, ReachesConsensusOnHeterogeneousDegrees) {
  const auto protocol = make_protocol("3-majority");
  const auto hist = test_hist();
  const Configuration total({360, 90, 50});
  auto engine = ClassCountingEngine::degree_classes(
      *protocol, make_classes(total, hist, 9), hist.degrees);
  support::Rng rng(61);
  int rounds = 0;
  while (!engine.is_consensus() && rounds < 5000) {
    engine.step(rng);
    ++rounds;
  }
  EXPECT_TRUE(engine.is_consensus());
  EXPECT_LT(rounds, 5000);
  EXPECT_EQ(engine.configuration().count(engine.winner()), 500u);
}

// ---------- the headline: n = 10^8, no CSR anywhere ----------

TEST(DegreeClassEngine, HundredMillionVerticesWithoutACsr) {
  const std::uint64_t n = 100000000;
  const auto hist = graph::DegreeHistogram::power_law(n, 2.5, 3, 1024);
  EXPECT_EQ(hist.total_vertices(), n);
  // The graph the engine simulates stores no adjacency at all.
  const auto g = graph::Graph::implicit_configuration_model_annealed(hist);
  EXPECT_EQ(g.adjacency_size(), 0u);

  const auto protocol = make_protocol("3-majority");
  const Configuration start({60000000, 30000000, 10000000});
  support::Rng split_rng(71);
  auto classes = ClassCountingEngine::split_shuffled(
      start, hist.vertex_offsets(), split_rng);
  auto engine = ClassCountingEngine::degree_classes(*protocol,
                                                    std::move(classes),
                                                    hist.degrees);
  support::Rng rng(72);
  for (int r = 0; r < 10; ++r) engine.step(rng);
  const auto cfg = engine.configuration();
  EXPECT_EQ(cfg.num_vertices(), n);
  EXPECT_EQ(engine.rounds_elapsed(), 10u);
  // 3-majority drifts toward the initial leader; ten rounds at n = 1e8
  // must not have lost the ordering (a smoke check that the dynamics are
  // sane, not just that the arithmetic conserves mass).
  EXPECT_GT(cfg.count(0), cfg.count(2));
}

}  // namespace
}  // namespace consensus::core
