// Cross-validation of the sparse alive-set counting path:
//
//  * Configuration's incremental alive index and cached gamma must agree
//    with the dense definitions under every mutator (move, swap,
//    assign_alive_counts);
//  * `Protocol::outcome_distribution_alive` (or, for the keep-or-adopt
//    rules, keep·δ_current + adopt from `Protocol::keep_or_adopt` over the
//    compact α) must be the dense mixture law at q = α restricted to the
//    alive opinions, and — chi-square — exactly the law of
//    `Protocol::update`, for every protocol implementing it;
//  * engine level: sparse CountingEngine rounds must draw from the same
//    one-round law as the dense-only (step_counts or per-vertex) and
//    per-vertex paths (KS test);
//  * `for_each_composition_parallel` must enumerate exactly the serial
//    sequence and reduce bit-identically for every thread count;
//  * EngineState round-trips must stay bit-exact through sparse rounds.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "consensus/core/counting_engine.hpp"
#include "consensus/core/h_majority.hpp"
#include "consensus/core/init.hpp"
#include "consensus/support/sampling.hpp"
#include "consensus/support/stats.hpp"
#include "consensus/support/thread_pool.hpp"
#include "test_util.hpp"

namespace consensus::core {
namespace {

// ------------------------------------------------ Configuration alive index

std::vector<Opinion> dense_support(const Configuration& config) {
  std::vector<Opinion> alive;
  for (std::size_t i = 0; i < config.num_opinions(); ++i) {
    if (config.counts()[i] > 0) alive.push_back(static_cast<Opinion>(i));
  }
  return alive;
}

double dense_gamma(const Configuration& config) {
  double acc = 0.0;
  for (std::size_t i = 0; i < config.num_opinions(); ++i) {
    const double a = config.alpha(static_cast<Opinion>(i));
    acc += a * a;
  }
  return acc;
}

void expect_alive_consistent(const Configuration& config) {
  const auto expected = dense_support(config);
  const std::vector<Opinion> got(config.alive().begin(), config.alive().end());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(config.support_size(), expected.size());
  EXPECT_NEAR(config.gamma(), dense_gamma(config), 1e-15);
}

TEST(AliveIndex, TracksMoveIncludingExtinctionAndRevival) {
  Configuration config({50, 0, 30, 0, 20});
  expect_alive_consistent(config);

  config.move(2, 1, 30);  // 2 goes extinct, 1 revives
  expect_alive_consistent(config);
  EXPECT_EQ(config.count(1), 30u);
  EXPECT_EQ(config.count(2), 0u);

  config.move(0, 4, 50);  // 0 goes extinct
  expect_alive_consistent(config);
  EXPECT_TRUE(config.is_extinct(0));

  config.move(4, 3, 1);  // 3 revives
  expect_alive_consistent(config);
}

TEST(AliveIndex, SurvivesSwapAndAssign) {
  Configuration config({10, 20, 0, 70});
  std::vector<std::uint64_t> next = {0, 60, 40, 0};
  config.swap_counts(next);
  expect_alive_consistent(config);

  // Sparse commit over the alive slots {1, 2}: slot 1 dies.
  const std::vector<std::uint64_t> values = {0, 100};
  config.assign_alive_counts(values);
  expect_alive_consistent(config);
  EXPECT_EQ(config.count(2), 100u);
  EXPECT_TRUE(config.is_consensus());
}

TEST(AliveIndex, AssignAliveCountsValidates) {
  Configuration config({40, 0, 60});
  const std::vector<std::uint64_t> wrong_size = {100};
  EXPECT_THROW(config.assign_alive_counts(wrong_size), std::invalid_argument);
  const std::vector<std::uint64_t> wrong_sum = {40, 61};
  EXPECT_THROW(config.assign_alive_counts(wrong_sum), std::invalid_argument);
  expect_alive_consistent(config);  // failed commits must not corrupt
}

TEST(AliveIndex, EqualityIgnoresCachedState) {
  Configuration a({40, 0, 60});
  Configuration b({40, 0, 60});
  (void)a.gamma();  // populate a's cache only
  EXPECT_EQ(a, b);
  b.move(2, 0, 1);
  EXPECT_FALSE(a == b);
}

TEST(AliveIndex, PluralityAndRunnerUpOverAliveOnly) {
  const Configuration config({0, 700, 0, 200, 100, 0});
  EXPECT_EQ(config.plurality(), 1u);
  EXPECT_EQ(config.runner_up(), 3u);
  const Configuration lone({0, 0, 42});
  EXPECT_EQ(lone.plurality(), 2u);
  EXPECT_EQ(lone.runner_up(), 0u);  // all rivals extinct: smallest index
}

// ------------------------------------------------- sparse law == dense law

/// Config with extinct slots interleaved: k = 12, a = 3 (a² ≤ k, so even
/// the closed-form protocols' sparse laws stay available).
Configuration holey_config() {
  return Configuration({0, 300, 0, 0, 120, 0, 80, 0, 0, 0, 0, 0});
}

/// The alive law must equal the mixture law evaluated at the holder's own
/// frequencies q = α (a dense k-slot law), restricted to the alive slots.
void expect_alive_law_matches_dense(const Protocol& protocol,
                                    const Configuration& cur,
                                    Opinion group) {
  std::vector<double> compact;
  ASSERT_TRUE(testing::compact_law(protocol, cur, group, compact)) << protocol.name();
  const auto alive = cur.alive();
  ASSERT_EQ(compact.size(), alive.size()) << protocol.name();
  double total = 0.0;
  for (double p : compact) {
    EXPECT_GE(p, 0.0) << protocol.name();
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9) << protocol.name();

  std::vector<double> alpha(cur.num_opinions());
  for (std::size_t j = 0; j < alpha.size(); ++j) {
    alpha[j] = cur.alpha(static_cast<Opinion>(j));
  }
  std::vector<double> dense;
  ASSERT_TRUE(protocol.outcome_distribution_mixture(group, alpha,
                                                    cur.num_vertices(), dense))
      << protocol.name();
  ASSERT_EQ(dense.size(), cur.num_opinions());
  for (std::size_t i = 0; i < alive.size(); ++i) {
    EXPECT_NEAR(compact[i], dense[alive[i]], 1e-12)
        << protocol.name() << " alive slot " << i;
  }
  // The dense law must put no mass on extinct slots.
  std::size_t next_alive = 0;
  for (std::size_t j = 0; j < dense.size(); ++j) {
    if (next_alive < alive.size() && alive[next_alive] == j) {
      ++next_alive;
      continue;
    }
    EXPECT_EQ(dense[j], 0.0) << protocol.name() << " extinct slot " << j;
  }
}

TEST(SparseOutcomeLaw, MatchesDenseRestriction) {
  const Configuration start = holey_config();
  for (const char* name : {"h-majority:3", "h-majority:5", "median",
                           "3-majority-keep", "2-choices"}) {
    const auto protocol = make_protocol(name);
    for (Opinion group : start.alive()) {
      expect_alive_law_matches_dense(*protocol, start, group);
    }
  }
}

TEST(SparseOutcomeLaw, ThreeMajorityMatchesEqFive) {
  // p_i = α_i(1 + α_i − γ) — eq. (5), evaluated over the alive index.
  const Configuration start = holey_config();
  const auto protocol = make_protocol("3-majority");
  std::vector<double> compact;
  ASSERT_TRUE(
      protocol->outcome_distribution_alive(start.alive()[0], start, compact));
  const double gamma = start.gamma();
  const auto alive = start.alive();
  ASSERT_EQ(compact.size(), alive.size());
  for (std::size_t i = 0; i < alive.size(); ++i) {
    const double a = start.alpha(alive[i]);
    EXPECT_NEAR(compact[i], a * (1.0 + a - gamma), 1e-12) << i;
  }
}

TEST(SparseOutcomeLaw, VoterMatchesAlpha) {
  const Configuration start = holey_config();
  const auto protocol = make_protocol("voter");
  std::vector<double> compact;
  ASSERT_TRUE(
      protocol->outcome_distribution_alive(start.alive()[0], start, compact));
  const auto alive = start.alive();
  for (std::size_t i = 0; i < alive.size(); ++i) {
    EXPECT_NEAR(compact[i], start.alpha(alive[i]), 1e-15) << i;
  }
}

TEST(SparseOutcomeLaw, KeepOrAdoptRulesTakeTheHookAtAnySupport) {
  // Full support with a² > k, where a per-group alive law would cost
  // O(a²) per round: the keep-or-adopt rules have neither a per-group
  // alive law nor a k-wide closed form, and answer through keep_or_adopt
  // at any support.
  const Configuration start = balanced(1600, 16);
  const std::vector<double> alpha(16, 1.0 / 16.0);
  for (const char* name : {"3-majority-keep", "2-choices"}) {
    const auto protocol = make_protocol(name);
    std::vector<double> compact;
    EXPECT_FALSE(protocol->outcome_distribution_alive(0, start, compact))
        << name;
    std::vector<std::uint64_t> next;
    support::Rng rng(1);
    EXPECT_FALSE(protocol->step_counts(start, next, rng)) << name;
    double keep = -1.0;
    ASSERT_TRUE(protocol->keep_or_adopt(alpha, compact, keep)) << name;
    EXPECT_EQ(compact.size(), 16u) << name;
    EXPECT_GT(keep, 0.0) << name;
  }
}

// ------------------------------------- chi-square: sparse law vs update()

/// OpinionSampler drawing i.i.d. opinions from the configuration's counts.
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

// 99.99% chi-square quantiles for df = 1..8 (see batched_counting_test).
constexpr double kChi2Crit[9] = {0.0,   15.14, 18.42, 21.11, 23.51,
                                 25.74, 27.86, 29.88, 31.83};

void expect_sparse_law_matches_update(const Protocol& protocol,
                                      const Configuration& start,
                                      Opinion group, std::uint64_t seed) {
  std::vector<double> compact;
  ASSERT_TRUE(testing::compact_law(protocol, start, group, compact)) << protocol.name();
  const auto alive = start.alive();
  ASSERT_EQ(compact.size(), alive.size());

  constexpr std::uint64_t kTrials = 200000;
  ConfigSampler sampler(start);
  support::Rng rng(seed);
  std::vector<std::uint64_t> observed(start.num_opinions(), 0);
  for (std::uint64_t t = 0; t < kTrials; ++t) {
    ++observed[protocol.update(group, sampler, rng)];
  }

  std::vector<std::uint64_t> obs;
  std::vector<double> expected;
  std::size_t next_alive = 0;
  for (std::size_t j = 0; j < observed.size(); ++j) {
    if (next_alive < alive.size() && alive[next_alive] == j) {
      if (compact[next_alive] > 0.0) {
        obs.push_back(observed[j]);
        expected.push_back(compact[next_alive] *
                           static_cast<double>(kTrials));
      } else {
        EXPECT_EQ(observed[j], 0u) << protocol.name();
      }
      ++next_alive;
    } else {
      EXPECT_EQ(observed[j], 0u)
          << protocol.name() << ": extinct slot " << j << " was produced";
    }
  }
  ASSERT_GE(obs.size(), 2u);
  ASSERT_LE(obs.size() - 1, 8u);
  const double stat = support::chi_squared_statistic(obs, expected);
  EXPECT_LT(stat, kChi2Crit[obs.size() - 1])
      << protocol.name() << " group " << group << ": chi2=" << stat;
}

TEST(SparseOutcomeLaw, MatchesUpdateChiSquare) {
  const Configuration start = holey_config();
  std::uint64_t seed = 0x5a5a;
  for (const char* name : {"h-majority:5", "median", "3-majority-keep",
                           "2-choices", "3-majority", "voter"}) {
    const auto protocol = make_protocol(name);
    for (Opinion group : start.alive()) {
      expect_sparse_law_matches_update(*protocol, start, group, seed++);
    }
  }
}

// ------------------------------------------- engine-level KS equivalence

TEST(SparseCountingEngine, OneRoundLawMatchesDenseAndGenericPaths) {
  // Two-sample KS on count(4) (an alive middle slot of the holey start)
  // between sparse rounds, dense-only rounds (step_counts for 3-majority,
  // the per-vertex path for the rules without a closed form), and the
  // per-vertex path.
  for (const char* name : {"3-majority", "h-majority:5", "median"}) {
    const auto sparse = make_protocol(name);
    const auto dense = make_dense_only(make_protocol(name));
    const auto generic = make_generic_only(make_protocol(name));
    const Configuration start = holey_config();
    support::Rng rng_s(41);
    support::Rng rng_d(42);
    support::Rng rng_g(43);
    std::vector<double> via_sparse, via_dense, via_generic;
    for (int t = 0; t < 4000; ++t) {
      CountingEngine es(*sparse, start);
      es.step(rng_s);
      via_sparse.push_back(static_cast<double>(es.config().count(4)));
      CountingEngine ed(*dense, start);
      ed.step(rng_d);
      via_dense.push_back(static_cast<double>(ed.config().count(4)));
      CountingEngine eg(*generic, start);
      eg.step(rng_g);
      via_generic.push_back(static_cast<double>(eg.config().count(4)));
    }
    const double d_sd = support::ks_statistic(via_sparse, via_dense);
    EXPECT_GT(support::ks_p_value(d_sd, via_sparse.size(), via_dense.size()),
              1e-4)
        << name << " sparse-vs-dense KS d=" << d_sd;
    const double d_sg = support::ks_statistic(via_sparse, via_generic);
    EXPECT_GT(support::ks_p_value(d_sg, via_sparse.size(), via_generic.size()),
              1e-4)
        << name << " sparse-vs-generic KS d=" << d_sg;
  }
}

TEST(SparseCountingEngine, ExtinctSlotsStayExtinctAndIndexed) {
  const auto protocol = make_protocol("3-majority");
  CountingEngine engine(*protocol, holey_config());
  support::Rng rng(17);
  for (int t = 0; t < 200; ++t) {
    engine.step(rng);
    const auto counts = engine.config().counts();
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0ull), 500u);
    EXPECT_EQ(engine.config().count(0), 0u);
    EXPECT_EQ(engine.config().count(3), 0u);
    expect_alive_consistent(engine.config());
  }
}

// -------------------------------------- parallel composition enumeration

TEST(CompositionParallel, UnrankMatchesSerialOrder) {
  constexpr unsigned h = 5;
  constexpr std::size_t k = 4;
  std::vector<std::vector<std::uint32_t>> serial;
  support::for_each_composition(h, k, [&](std::span<const std::uint32_t> c) {
    serial.emplace_back(c.begin(), c.end());
  });
  ASSERT_EQ(serial.size(), support::num_compositions(h, k));
  std::vector<std::uint32_t> got;
  for (std::uint64_t r = 0; r < serial.size(); ++r) {
    support::composition_unrank(h, k, r, got);
    EXPECT_EQ(got, serial[r]) << "rank " << r;
  }
  EXPECT_THROW(support::composition_unrank(h, k, serial.size(), got),
               std::invalid_argument);
}

TEST(CompositionParallel, RangeReproducesSerialSlices) {
  constexpr unsigned h = 4;
  constexpr std::size_t k = 5;
  std::vector<std::vector<std::uint32_t>> serial;
  support::for_each_composition(h, k, [&](std::span<const std::uint32_t> c) {
    serial.emplace_back(c.begin(), c.end());
  });
  const std::uint64_t total = serial.size();
  for (const auto& [lo, hi] : std::vector<std::pair<std::uint64_t,
                                                    std::uint64_t>>{
           {0, total}, {3, 17}, {total - 1, total}, {5, 5}}) {
    std::vector<std::vector<std::uint32_t>> got;
    support::for_each_composition_range(
        h, k, lo, hi, [&](std::span<const std::uint32_t> c) {
          got.emplace_back(c.begin(), c.end());
        });
    const std::vector<std::vector<std::uint32_t>> expected(
        serial.begin() + static_cast<std::ptrdiff_t>(lo),
        serial.begin() + static_cast<std::ptrdiff_t>(hi));
    EXPECT_EQ(got, expected) << "[" << lo << ", " << hi << ")";
  }
}

/// h-majority-style weighted reduction over the enumeration: per-shard
/// accumulators summed in shard order. The reduced vector must be
/// IDENTICAL (to the bit) for every thread count.
std::vector<double> sharded_reduction(support::ThreadPool* pool,
                                      std::size_t shards) {
  constexpr unsigned h = 6;
  constexpr std::size_t k = 7;
  std::vector<double> slab(shards * k, 0.0);
  support::for_each_composition_parallel(
      pool, h, k, shards,
      [&](std::size_t shard, std::span<const std::uint32_t> hist) {
        double w = 1.0;
        for (std::size_t i = 0; i < k; ++i) {
          w *= 1.0 / (1.0 + static_cast<double>(hist[i]) *
                                static_cast<double>(i + 1));
        }
        for (std::size_t i = 0; i < k; ++i) {
          slab[shard * k + i] += w * static_cast<double>(hist[i]);
        }
      });
  std::vector<double> out(k, 0.0);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t i = 0; i < k; ++i) out[i] += slab[s * k + i];
  }
  return out;
}

TEST(CompositionParallel, ReductionBitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kShards = 16;
  const std::vector<double> serial = sharded_reduction(nullptr, kShards);
  for (std::size_t threads : {1u, 2u, 8u}) {
    support::ThreadPool pool(threads);
    const std::vector<double> pooled = sharded_reduction(&pool, kShards);
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(pooled[i], serial[i]) << threads << " threads, slot " << i;
    }
  }
}

TEST(CompositionParallel, CoversEveryCompositionExactlyOnce) {
  constexpr unsigned h = 5;
  constexpr std::size_t k = 6;
  support::ThreadPool pool(4);
  const std::size_t shards = 8;
  std::vector<std::vector<std::vector<std::uint32_t>>> per_shard(shards);
  support::for_each_composition_parallel(
      &pool, h, k, shards,
      [&](std::size_t shard, std::span<const std::uint32_t> hist) {
        per_shard[shard].emplace_back(hist.begin(), hist.end());
      });
  std::vector<std::vector<std::uint32_t>> merged;
  for (auto& shard : per_shard) {
    merged.insert(merged.end(), shard.begin(), shard.end());
  }
  std::vector<std::vector<std::uint32_t>> serial;
  support::for_each_composition(h, k, [&](std::span<const std::uint32_t> c) {
    serial.emplace_back(c.begin(), c.end());
  });
  EXPECT_EQ(merged, serial);
}

TEST(CompositionParallel, HMajorityLawIdenticalWithAndWithoutPool) {
  // End to end through the protocol: a pooled HMajority must produce the
  // law of the unpooled one bit-for-bit (the sharded path is taken in both
  // cases once the histogram count crosses kParallelThreshold).
  const Configuration start = balanced(10000, 10);  // C(16,6)=8008 < threshold
  const Configuration big = balanced(100000, 25);   // C(31,6)=736281 sharded
  for (const Configuration* cfg : {&start, &big}) {
    HMajority serial(6);
    HMajority pooled(6);
    support::ThreadPool pool(8);
    pooled.set_thread_pool(&pool);
    std::vector<double> law_serial, law_pooled;
    ASSERT_TRUE(serial.outcome_distribution_alive(0, *cfg, law_serial));
    ASSERT_TRUE(pooled.outcome_distribution_alive(0, *cfg, law_pooled));
    ASSERT_EQ(law_serial.size(), law_pooled.size());
    for (std::size_t i = 0; i < law_serial.size(); ++i) {
      EXPECT_EQ(law_serial[i], law_pooled[i]) << i;
    }
  }
}

TEST(CompositionParallel, EnumerationBudgetIsNAware) {
  // h = 11, k = 16: C(26, 11) ≈ 7.7e6 histograms, ~1.2e8 element work.
  // At n = 1e6 the per-vertex fallback costs ~n·h·factor ≈ 4.4e7 scaled
  // ops — cheaper than the enumeration, so the serial protocol declines.
  // At n = 1e8 the SAME enumeration undercuts a ~4.4e9 fallback round and
  // must be accepted serially (the n-blind budget used to decline it and
  // force minutes-long per-vertex rounds).
  HMajority serial(11);
  std::vector<double> law;
  EXPECT_FALSE(
      serial.outcome_distribution_alive(0, balanced(1000000, 16), law));
  ASSERT_TRUE(
      serial.outcome_distribution_alive(0, balanced(100000000, 16), law));
  double total = 0.0;
  for (double p : law) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(CompositionParallel, PoolWidensTheBudget) {
  // a = 50 alive, h = 5: C(54,5) = 3'162'510 histograms — over the 2e6
  // serial composition budget (the protocol declines), within an 8-wide
  // pool's 1.6e7 budget with work 3.16e6/8·50 ≈ 2e7 ≤ 4e7 (it accepts).
  HMajority serial(5);
  HMajority pooled(5);
  support::ThreadPool pool(8);
  pooled.set_thread_pool(&pool);
  EXPECT_EQ(pooled.budget_workers(), 8u);
  const Configuration big = balanced(50000, 50);
  std::vector<double> law;
  EXPECT_FALSE(serial.outcome_distribution_alive(0, big, law));
  EXPECT_TRUE(pooled.outcome_distribution_alive(0, big, law));
  double total = 0.0;
  for (double p : law) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// --------------------------------------------- EngineState through sparse

TEST(SparseCountingEngine, EngineStateRoundTripIsBitExact) {
  const auto protocol = make_protocol("3-majority");
  CountingEngine reference(*protocol, holey_config());
  support::Rng rng(0xabc);
  for (int t = 0; t < 5; ++t) reference.step(rng);
  const EngineState state = reference.capture_state();
  support::Rng rng_copy = rng;  // identical stream position
  for (int t = 0; t < 7; ++t) reference.step(rng);

  CountingEngine restored(*protocol, holey_config());
  restored.restore_state(state);
  EXPECT_EQ(restored.rounds_elapsed(), 5u);
  expect_alive_consistent(restored.config());  // index rebuilt on restore
  for (int t = 0; t < 7; ++t) restored.step(rng_copy);

  EXPECT_EQ(restored.config(), reference.config());
  EXPECT_EQ(restored.rounds_elapsed(), reference.rounds_elapsed());
  EXPECT_EQ(rng_copy.state(), rng.state());
}

// --------------------------------------------------- multinomial satellite

TEST(MultinomialInto, ZeroTrialsFastPath) {
  support::Rng rng(1);
  std::vector<std::uint64_t> out = {7, 7, 7};
  support::multinomial_into(rng, 0, std::vector<double>{0.2, 0.3, 0.5}, out);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 0, 0}));
}

TEST(MultinomialInto, NegativeWeightsThrowEvenPastEarlyExit) {
  // The cascade would place every trial on slot 0 (p = min(1, 2/1) = 1)
  // and exit before reaching the negative tail; the up-front running-min
  // validation must still reject the vector.
  support::Rng rng(2);
  std::vector<std::uint64_t> out;
  EXPECT_THROW(support::multinomial_into(
                   rng, 10, std::vector<double>{2.0, -1.0}, out),
               std::invalid_argument);
}

TEST(MultinomialInto, SuppliedTotalMatchesAccumulatedTotal) {
  // Normalised weights with the total supplied must draw the identical
  // sequence (same rng stream) as the accumulate-then-draw overload.
  const std::vector<double> weights = {0.25, 0.0, 0.5, 0.25};
  support::Rng rng_a(9);
  support::Rng rng_b(9);
  std::vector<std::uint64_t> a, b;
  for (int t = 0; t < 100; ++t) {
    support::multinomial_into(rng_a, 1000, weights, a);
    support::multinomial_into(rng_b, 1000, weights, 1.0, b);
    EXPECT_EQ(a, b);
  }
}

}  // namespace
}  // namespace consensus::core
