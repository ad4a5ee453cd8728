// Cross-validation of the group-batched counting fast path on full-support
// starts (sparse_counting_test covers starts with extinct slots):
//
//  * chi-square: `Protocol::outcome_distribution_alive` must be exactly
//    the law of `Protocol::update` under i.i.d. categorical neighbour
//    samples, per opinion group (h-Majority h = 3, 5, the median rule),
//    and so must keep·δ_group + adopt from `Protocol::keep_or_adopt`
//    (3-Majority-keep);
//  * h-majority:3's law must agree with 3-Majority's closed form, and
//    3-Majority-keep's summed group laws with the keep/adopt expectation;
//  * engine level: the batched CountingEngine rounds must draw from the
//    same one-round law as the per-vertex generic path (KS test);
//  * the parallel AgentEngine must be seed-deterministic across thread
//    counts (chunked RNG streams are independent of the pool size).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "consensus/core/agent_engine.hpp"
#include "consensus/core/counting_engine.hpp"
#include "consensus/core/init.hpp"
#include "consensus/support/sampling.hpp"
#include "consensus/support/stats.hpp"
#include "consensus/support/thread_pool.hpp"
#include "test_util.hpp"

namespace consensus::core {
namespace {

/// OpinionSampler drawing i.i.d. opinions from the configuration's counts —
/// the K_n + self-loops neighbour model the batched law integrates over.
class ConfigSampler final : public OpinionSampler {
 public:
  explicit ConfigSampler(const Configuration& config)
      : slots_(config.num_opinions()) {
    std::vector<double> weights(slots_);
    for (std::size_t i = 0; i < slots_; ++i) {
      weights[i] = static_cast<double>(config.counts()[i]);
    }
    table_.rebuild(weights);
  }

  Opinion sample(support::Rng& rng) override {
    return static_cast<Opinion>(table_.sample(rng));
  }
  std::size_t num_slots() const noexcept override { return slots_; }

 private:
  std::size_t slots_;
  support::AliasTable table_;
};

// 99.99% chi-square quantiles for df = 1..8: crossing these by chance (with
// a correct law) happens ~1e-4 per check; the seeds below are fixed, so the
// test is deterministic — a failure means the law is wrong.
constexpr double kChi2Crit[9] = {0.0,   15.14, 18.42, 21.11, 23.51,
                                 25.74, 27.86, 29.88, 31.83};

/// The compact one-vertex law of `group` (the alive law, or keep·δ_group
/// + adopt for the keep-or-adopt rules) scattered back to all k slots
/// (extinct slots get probability 0).
std::vector<double> alive_law_by_slot(const Protocol& protocol,
                                      const Configuration& start,
                                      Opinion group) {
  std::vector<double> compact;
  EXPECT_TRUE(testing::compact_law(protocol, start, group, compact))
      << protocol.name();
  EXPECT_EQ(compact.size(), start.support_size()) << protocol.name();
  std::vector<double> probs(start.num_opinions(), 0.0);
  const auto alive = start.alive();
  for (std::size_t i = 0; i < compact.size() && i < alive.size(); ++i) {
    probs[alive[i]] = compact[i];
  }
  return probs;
}

void expect_group_law_matches_update(const Protocol& protocol,
                                     const Configuration& start,
                                     Opinion group, std::uint64_t seed) {
  const std::vector<double> probs = alive_law_by_slot(protocol, start, group);
  double total = 0.0;
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9) << protocol.name();

  constexpr std::uint64_t kTrials = 200000;
  ConfigSampler sampler(start);
  support::Rng rng(seed);
  std::vector<std::uint64_t> observed(start.num_opinions(), 0);
  for (std::uint64_t t = 0; t < kTrials; ++t) {
    ++observed[protocol.update(group, sampler, rng)];
  }

  // Merge zero-probability slots out (chi-square needs positive expected).
  std::vector<std::uint64_t> obs;
  std::vector<double> expected;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (probs[i] > 0.0) {
      obs.push_back(observed[i]);
      expected.push_back(probs[i] * static_cast<double>(kTrials));
    } else {
      EXPECT_EQ(observed[i], 0u)
          << protocol.name() << ": law says impossible, update produced it";
    }
  }
  ASSERT_GE(obs.size(), 2u);
  ASSERT_LE(obs.size() - 1, 8u);
  const double stat = support::chi_squared_statistic(obs, expected);
  EXPECT_LT(stat, kChi2Crit[obs.size() - 1])
      << protocol.name() << " group " << group << ": chi2=" << stat;
}

TEST(BatchedOutcomeLaw, HMajorityMatchesUpdateChiSquare) {
  const Configuration start({300, 120, 60, 20});
  std::uint64_t seed = 0xbeef;
  for (unsigned h : {3u, 5u}) {
    const auto protocol = make_h_majority(h);
    // The rule ignores the holder's opinion; spot-check two groups anyway.
    expect_group_law_matches_update(*protocol, start, 0, seed++);
    expect_group_law_matches_update(*protocol, start, 2, seed++);
  }
}

TEST(BatchedOutcomeLaw, MedianMatchesUpdateChiSquare) {
  const Configuration start({300, 120, 60, 20});
  const auto protocol = make_protocol("median");
  std::uint64_t seed = 0xfeed;
  for (Opinion group = 0; group < 4; ++group) {
    expect_group_law_matches_update(*protocol, start, group, seed++);
  }
}

/// Four alive opinions spread over k = 16 slots: the keep-or-adopt law
/// must put no mass on the extinct ones.
Configuration keep_start(std::uint64_t c0, std::uint64_t c1, std::uint64_t c2,
                         std::uint64_t c3) {
  std::vector<std::uint64_t> counts(16, 0);
  counts[0] = c0;
  counts[5] = c1;
  counts[9] = c2;
  counts[14] = c3;
  return Configuration(counts);
}

TEST(BatchedOutcomeLaw, ThreeMajorityKeepMatchesUpdateChiSquare) {
  // Current-DEPENDENT law (the keep branch lands on the holder's opinion):
  // every group has a different distribution, so check all of them.
  const Configuration start = keep_start(300, 120, 60, 20);
  const auto protocol = make_protocol("3-majority-keep");
  std::uint64_t seed = 0x3e3a;
  for (const Opinion group : start.alive()) {
    expect_group_law_matches_update(*protocol, start, group, seed++);
  }
}

TEST(BatchedOutcomeLaw, ThreeMajorityKeepLawAgreesWithStepCounts) {
  // The summed per-group laws must reproduce the keep-or-adopt round's
  // expected next counts: E[next_j] = Σ_c count_c · q_c(j)
  // = n·adopt_j + count_j·keep.
  const Configuration start = keep_start(250, 150, 80, 20);
  const auto protocol = make_protocol("3-majority-keep");
  const double n = static_cast<double>(start.num_vertices());
  std::vector<double> expected(start.num_opinions(), 0.0);
  for (const Opinion c : start.alive()) {
    const std::vector<double> probs = alive_law_by_slot(*protocol, start, c);
    for (std::size_t j = 0; j < probs.size(); ++j) {
      expected[j] += static_cast<double>(start.count(c)) * probs[j];
    }
  }
  double total = 0.0;
  for (double e : expected) total += e;
  EXPECT_NEAR(total, n, 1e-6);
  // Closed form of the same expectation.
  for (std::size_t j = 0; j < start.num_opinions(); ++j) {
    const double a = start.alpha(static_cast<Opinion>(j));
    double adopt_total = 0.0;
    for (std::size_t i = 0; i < start.num_opinions(); ++i) {
      const double ai = start.alpha(static_cast<Opinion>(i));
      adopt_total += ai * ai * (3.0 - 2.0 * ai);
    }
    const double direct =
        n * a * a * (3.0 - 2.0 * a) +
        static_cast<double>(start.count(static_cast<Opinion>(j))) *
            (1.0 - adopt_total);
    EXPECT_NEAR(expected[j], direct, 1e-6) << j;
  }
}

TEST(BatchedOutcomeLaw, HMajority3EqualsThreeMajorityClosedForm) {
  // For h = 3 the histogram sum collapses to the paper's closed form
  // p_i = α_i(1 + α_i − γ); the two must agree to floating-point accuracy.
  const Configuration start({250, 150, 80, 20});
  const auto h3 = make_h_majority(3);
  const std::vector<double> probs = alive_law_by_slot(*h3, start, 0);
  const double gamma = start.gamma();
  for (std::size_t i = 0; i < start.num_opinions(); ++i) {
    const double alpha = start.alpha(static_cast<Opinion>(i));
    EXPECT_NEAR(probs[i], alpha * (1.0 + alpha - gamma), 1e-12) << i;
  }
}

TEST(BatchedOutcomeLaw, ExtinctOpinionsStayExtinct) {
  // The law has one entry per ALIVE opinion, so no mass can land on an
  // extinct slot.
  const Configuration start({300, 0, 120, 0, 80});
  for (const char* name : {"h-majority:5", "median"}) {
    const auto protocol = make_protocol(name);
    std::vector<double> probs;
    ASSERT_TRUE(protocol->outcome_distribution_alive(0, start, probs))
        << name;
    EXPECT_EQ(probs.size(), 3u) << name;
  }
}

TEST(BatchedOutcomeLaw, HMajorityDeclinesWhenCompositionsExplode) {
  // 1024 alive opinions with h = 5: C(1028, 5) ≈ 9.5e12 histograms — far
  // over budget, so the protocol must hand the round back to the fallback.
  const auto protocol = make_h_majority(5);
  const Configuration start = balanced(1 << 20, 1024);
  std::vector<double> probs;
  EXPECT_FALSE(protocol->outcome_distribution_alive(0, start, probs));
}

TEST(BatchedOutcomeLaw, HugeHDeclinesInsteadOfOverflowingFactorials) {
  // 171! overflows double to inf (NaN probabilities downstream); such h
  // must fall back to the exact per-vertex path, not corrupt the counts.
  const auto protocol = make_h_majority(180);
  const Configuration start({500, 500});
  std::vector<double> probs;
  EXPECT_FALSE(protocol->outcome_distribution_alive(0, start, probs));
}

TEST(BatchedCountingEngine, OneRoundLawMatchesGenericPath) {
  // Full-distribution check (two-sample KS on count(0)) between the batched
  // engine rounds and the per-vertex generic path.
  for (const char* name : {"h-majority:3", "h-majority:5", "median"}) {
    const auto batched = make_protocol(name);
    const auto generic = make_generic_only(make_protocol(name));
    const Configuration start({160, 90, 50});
    support::Rng rng_b(31);
    support::Rng rng_g(32);
    std::vector<double> via_batched, via_generic;
    for (int t = 0; t < 4000; ++t) {
      CountingEngine eb(*batched, start);
      eb.step(rng_b);
      via_batched.push_back(static_cast<double>(eb.config().count(0)));
      CountingEngine eg(*generic, start);
      eg.step(rng_g);
      via_generic.push_back(static_cast<double>(eg.config().count(0)));
    }
    const double d = support::ks_statistic(via_batched, via_generic);
    const double p = support::ks_p_value(d, via_batched.size(),
                                         via_generic.size());
    EXPECT_GT(p, 1e-4) << name << ": KS d=" << d;
  }
}

TEST(ParallelAgentEngine, TrajectoryIndependentOfThreadCount) {
  // > kChunkVertices vertices so the round genuinely splits into chunks.
  const std::uint64_t n = 3 * AgentEngine::kChunkVertices + 12345;
  const auto protocol = make_protocol("3-majority");
  const auto g = graph::Graph::complete_with_self_loops(n);
  const Configuration start = balanced(n, 5);

  auto run = [&](support::ThreadPool* pool) {
    AgentEngine engine(*protocol, g, start);
    engine.set_thread_pool(pool);
    support::Rng rng(0xd00d);
    for (int r = 0; r < 3; ++r) engine.step(rng);
    const auto view = engine.opinions();
    return std::vector<Opinion>(view.begin(), view.end());
  };

  const std::vector<Opinion> serial = run(nullptr);
  for (std::size_t threads : {1u, 2u, 4u}) {
    support::ThreadPool pool(threads);
    EXPECT_EQ(run(&pool), serial) << threads << " threads";
  }
}

TEST(ParallelAgentEngine, CountsStayConsistentWithOpinions) {
  const std::uint64_t n = AgentEngine::kChunkVertices + 777;
  const auto protocol = make_protocol("median");
  const auto g = graph::Graph::complete_with_self_loops(n);
  support::ThreadPool pool(2);
  AgentEngine engine(*protocol, g, balanced(n, 4));
  engine.set_thread_pool(&pool);
  engine.freeze_holders(2, 100);
  support::Rng rng(99);
  for (int r = 0; r < 3; ++r) engine.step(rng);

  std::vector<std::uint64_t> expected(4, 0);
  for (Opinion o : engine.opinions()) ++expected[o];
  const Configuration cfg = engine.config();
  const std::vector<std::uint64_t> got(cfg.counts().begin(),
                                       cfg.counts().end());
  EXPECT_EQ(got, expected);
  EXPECT_GE(cfg.count(2), 100u);  // zealots never moved
}

}  // namespace
}  // namespace consensus::core
