#include "consensus/support/sampling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <set>

#include "consensus/support/stats.hpp"
#include "test_util.hpp"

namespace consensus::support {
namespace {

// ---------- binomial ----------

TEST(Binomial, EdgeCases) {
  Rng rng(1);
  EXPECT_EQ(binomial(rng, 0, 0.5), 0u);
  EXPECT_EQ(binomial(rng, 100, 0.0), 0u);
  EXPECT_EQ(binomial(rng, 100, 1.0), 100u);
  EXPECT_EQ(binomial(rng, 100, -0.1), 0u);
  EXPECT_EQ(binomial(rng, 100, 1.1), 100u);
}

TEST(Binomial, AlwaysWithinSupport) {
  Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LE(binomial(rng, 50, 0.7), 50u);
  }
}

struct BinomialCase {
  std::uint64_t n;
  double p;
};

class BinomialMoments : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialMoments, MeanAndVarianceMatch) {
  const auto [n, p] = GetParam();
  Rng rng(0xb10 + n);
  auto w = testing::monte_carlo(60000, [&] {
    return static_cast<double>(binomial(rng, n, p));
  });
  const auto nd = static_cast<double>(n);
  EXPECT_TRUE(testing::mean_close(w, nd * p)) << "n=" << n << " p=" << p
                                              << " mean=" << w.mean();
  const double var = nd * p * (1 - p);
  EXPECT_NEAR(w.variance(), var, 0.06 * var + 0.02) << "n=" << n << " p=" << p;
}

// Covers both the inversion branch (np < 10) and BTRS (np >= 10),
// including the p > 0.5 mirror.
INSTANTIATE_TEST_SUITE_P(
    Sweep, BinomialMoments,
    ::testing::Values(BinomialCase{5, 0.5}, BinomialCase{30, 0.1},
                      BinomialCase{100, 0.04}, BinomialCase{100, 0.5},
                      BinomialCase{1000, 0.3}, BinomialCase{1000, 0.97},
                      BinomialCase{100000, 0.002}, BinomialCase{100000, 0.62},
                      BinomialCase{1u << 20, 0.25}));

TEST(Binomial, BTRSDistributionChiSquared) {
  // Full distribution check against exact pmf for Bin(40, 0.4).
  Rng rng(3);
  constexpr std::uint64_t kN = 40;
  constexpr double kP = 0.4;
  constexpr std::size_t kDraws = 200000;
  std::vector<std::uint64_t> observed(kN + 1, 0);
  for (std::size_t i = 0; i < kDraws; ++i) ++observed[binomial(rng, kN, kP)];
  // pmf via recurrence.
  std::vector<double> pmf(kN + 1);
  pmf[0] = std::pow(1 - kP, double(kN));
  for (std::uint64_t x = 1; x <= kN; ++x) {
    pmf[x] = pmf[x - 1] * (double(kN - x + 1) / double(x)) * (kP / (1 - kP));
  }
  // Merge tail buckets with expectation < 10 to keep chi² valid.
  std::vector<std::uint64_t> obs_m;
  std::vector<double> exp_m;
  std::uint64_t otail = 0;
  double etail = 0;
  for (std::uint64_t x = 0; x <= kN; ++x) {
    const double e = pmf[x] * kDraws;
    if (e < 10.0) {
      otail += observed[x];
      etail += e;
    } else {
      obs_m.push_back(observed[x]);
      exp_m.push_back(e);
    }
  }
  if (etail > 0) {
    obs_m.push_back(otail);
    exp_m.push_back(etail);
  }
  const double stat = chi_squared_statistic(obs_m, exp_m);
  // dof ≈ buckets−1 (≈ 20); 99.99th percentile of chi²(25) ≈ 62.
  EXPECT_LT(stat, 70.0) << "chi2=" << stat << " buckets=" << obs_m.size();
}

// ---------- multinomial ----------

TEST(Multinomial, SumsToN) {
  Rng rng(4);
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0};
  for (int i = 0; i < 200; ++i) {
    auto counts = multinomial(rng, 1000, w);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0ull), 1000u);
  }
}

TEST(Multinomial, ZeroWeightGetsZero) {
  Rng rng(5);
  const std::vector<double> w{1.0, 0.0, 3.0};
  for (int i = 0; i < 100; ++i) {
    auto counts = multinomial(rng, 500, w);
    EXPECT_EQ(counts[1], 0u);
  }
}

TEST(Multinomial, TrailingZeroWeight) {
  Rng rng(6);
  const std::vector<double> w{2.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    auto counts = multinomial(rng, 300, w);
    EXPECT_EQ(counts[2], 0u);
    EXPECT_EQ(counts[0] + counts[1], 300u);
  }
}

TEST(Multinomial, MarginalMeans) {
  Rng rng(7);
  const std::vector<double> w{0.1, 0.2, 0.3, 0.4};
  Welford w0, w2;
  for (int i = 0; i < 30000; ++i) {
    auto counts = multinomial(rng, 100, w);
    w0.add(static_cast<double>(counts[0]));
    w2.add(static_cast<double>(counts[2]));
  }
  EXPECT_TRUE(testing::mean_close(w0, 10.0)) << w0.mean();
  EXPECT_TRUE(testing::mean_close(w2, 30.0)) << w2.mean();
}

TEST(Multinomial, RejectsBadWeights) {
  Rng rng(8);
  std::vector<std::uint64_t> out;
  EXPECT_THROW(multinomial_into(rng, 10, std::vector<double>{0.0, 0.0}, out),
               std::invalid_argument);
  EXPECT_THROW(multinomial_into(rng, 10, std::vector<double>{1.0, -1.0}, out),
               std::invalid_argument);
}

// ---------- hypergeometric ----------

TEST(Hypergeometric, EdgeCases) {
  Rng rng(9);
  EXPECT_EQ(hypergeometric(rng, 10, 0, 5), 0u);
  EXPECT_EQ(hypergeometric(rng, 10, 10, 5), 5u);
  EXPECT_EQ(hypergeometric(rng, 10, 5, 0), 0u);
  EXPECT_THROW(hypergeometric(rng, 10, 11, 5), std::invalid_argument);
}

TEST(Hypergeometric, SupportBounds) {
  Rng rng(10);
  for (int i = 0; i < 3000; ++i) {
    const auto x = hypergeometric(rng, 20, 12, 15);
    EXPECT_GE(x, 7u);   // n + K − N = 15 + 12 − 20
    EXPECT_LE(x, 12u);  // min(n, K)
  }
}

TEST(Hypergeometric, Mean) {
  Rng rng(11);
  auto w = testing::monte_carlo(40000, [&] {
    return static_cast<double>(hypergeometric(rng, 100, 30, 20));
  });
  EXPECT_TRUE(testing::mean_close(w, 6.0)) << w.mean();
}

// ---------- poisson ----------

TEST(Poisson, SmallAndLargeMean) {
  Rng rng(12);
  auto w_small = testing::monte_carlo(
      60000, [&] { return static_cast<double>(poisson(rng, 2.5)); });
  EXPECT_TRUE(testing::mean_close(w_small, 2.5)) << w_small.mean();
  EXPECT_NEAR(w_small.variance(), 2.5, 0.1);

  auto w_large = testing::monte_carlo(
      60000, [&] { return static_cast<double>(poisson(rng, 120.0)); });
  EXPECT_TRUE(testing::mean_close(w_large, 120.0)) << w_large.mean();
  EXPECT_NEAR(w_large.variance(), 120.0, 5.0);
}

TEST(Poisson, ZeroMean) {
  Rng rng(13);
  EXPECT_EQ(poisson(rng, 0.0), 0u);
  EXPECT_EQ(poisson(rng, -1.0), 0u);
}

// ---------- sample_without_replacement ----------

TEST(SampleWithoutReplacement, DistinctAndInRange) {
  Rng rng(14);
  for (int trial = 0; trial < 300; ++trial) {
    auto sample = sample_without_replacement(rng, 50, 10);
    EXPECT_EQ(sample.size(), 10u);
    std::set<std::uint64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
    for (auto v : sample) EXPECT_LT(v, 50u);
  }
}

TEST(SampleWithoutReplacement, FullDraw) {
  Rng rng(15);
  auto sample = sample_without_replacement(rng, 8, 8);
  std::sort(sample.begin(), sample.end());
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(sample[i], i);
}

TEST(SampleWithoutReplacement, RejectsOversample) {
  Rng rng(16);
  EXPECT_THROW(sample_without_replacement(rng, 3, 4), std::invalid_argument);
}

// ---------- alias table ----------

TEST(AliasTable, MatchesWeights) {
  Rng rng(17);
  const std::vector<double> weights{1.0, 5.0, 2.0, 0.0, 2.0};
  AliasTable table(weights);
  constexpr std::size_t kDraws = 200000;
  std::vector<std::uint64_t> observed(weights.size(), 0);
  for (std::size_t i = 0; i < kDraws; ++i) ++observed[table.sample(rng)];
  EXPECT_EQ(observed[3], 0u);
  const double total = 10.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] == 0.0) continue;
    const double expected = weights[i] / total;
    const auto ci = wilson_ci(observed[i], kDraws, 4.5);
    EXPECT_LE(ci.lo, expected) << "bucket " << i;
    EXPECT_GE(ci.hi, expected) << "bucket " << i;
  }
}

TEST(AliasTable, SingleBucket) {
  Rng rng(18);
  AliasTable table(std::vector<double>{3.0});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.sample(rng), 0u);
}

TEST(AliasTable, RejectsBadWeights) {
  EXPECT_THROW(AliasTable(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{1.0, -2.0}),
               std::invalid_argument);
}

TEST(AliasTable, NonPowerOfTwoSingleDrawMatchesWeights) {
  // The fixed-point-rejection extension: sizes <= 2048 that are NOT powers
  // of two run the single-draw path too. The rejection must leave the
  // accepted slot exactly uniform, so the sampled law still matches the
  // weights.
  Rng rng(22);
  for (const std::size_t size : {3u, 5u, 100u, 1000u, 2047u}) {
    std::vector<double> weights(size);
    for (std::size_t i = 0; i < size; ++i) {
      weights[i] = 1.0 + static_cast<double>(i % 7);
    }
    const double total =
        std::accumulate(weights.begin(), weights.end(), 0.0);
    AliasTable table(weights);
    constexpr std::size_t kDraws = 120000;
    std::vector<std::uint64_t> observed(size, 0);
    for (std::size_t i = 0; i < kDraws; ++i) ++observed[table.sample(rng)];
    // Check a handful of buckets (all of them for small sizes).
    for (std::size_t i = 0; i < size; i += std::max<std::size_t>(1, size / 8)) {
      const double expected = weights[i] / total;
      const auto ci = wilson_ci(observed[i], kDraws, 4.5);
      EXPECT_LE(ci.lo, expected) << "size " << size << " bucket " << i;
      EXPECT_GE(ci.hi, expected) << "size " << size << " bucket " << i;
    }
  }
}

TEST(AliasTable, LargeTablesTakeTheTwoDrawStream) {
  // Tables past the 2048-slot single-draw limit use the two-draw form:
  // one uniform_below + one uniform01 per draw, exactly.
  std::vector<double> weights(3001, 1.0);
  weights[3] = 0.0;
  weights[7] = 40.0;
  const AliasTable table(weights);
  Rng rng_table(23);
  Rng rng_manual(23);
  for (int i = 0; i < 2000; ++i) {
    // Replicate the two-draw RNG consumption by hand on a lock-stepped RNG.
    const std::size_t drawn = table.sample(rng_table);
    (void)rng_manual.uniform_below(weights.size());
    (void)rng_manual.uniform01();
    // Same stream position consumed: the RNGs must stay in lock step.
    EXPECT_LT(drawn, weights.size());
    EXPECT_NE(drawn, 3u);  // zero-weight slot never drawn
    ASSERT_EQ(rng_table(), rng_manual());
  }
}

TEST(IncrementalCountAlias, SyncMatchesFreshReset) {
  // Fuzz the determinism contract: after ANY sequence of syncs, the
  // support list and alias table are bit-identical to a fresh reset over
  // the same counts (operator== on AliasTable is byte-for-byte).
  Rng rng(25);
  constexpr std::size_t kSlots = 24;
  std::vector<std::uint64_t> counts(kSlots, 0);
  counts[0] = 50;  // positive total for the initial reset
  IncrementalCountAlias incremental;
  incremental.reset(counts);
  for (int step = 0; step < 400; ++step) {
    // Random evolution with frequent 0 <-> positive transitions and
    // occasional no-op rounds (the skip-the-rebuild path).
    if (rng.uniform_below(8) != 0) {
      const std::size_t edits = 1 + rng.uniform_below(4);
      for (std::size_t e = 0; e < edits; ++e) {
        const std::size_t slot = rng.uniform_below(kSlots);
        switch (rng.uniform_below(3)) {
          case 0: counts[slot] = 0; break;
          case 1: counts[slot] = 1 + rng.uniform_below(5); break;
          default: counts[slot] += rng.uniform_below(100); break;
        }
      }
      // Keep the total positive (the sampler requires it).
      bool any = false;
      for (const auto c : counts) any = any || c > 0;
      if (!any) counts[rng.uniform_below(kSlots)] = 7;
    }
    incremental.sync(counts);

    IncrementalCountAlias fresh;
    fresh.reset(counts);
    ASSERT_TRUE(std::ranges::equal(incremental.support(), fresh.support()))
        << "support diverged at step " << step;
    ASSERT_TRUE(incremental.table() == fresh.table())
        << "alias table diverged at step " << step;
  }
}

TEST(IncrementalCountAlias, SamplesCountLaw) {
  Rng rng(26);
  const std::vector<std::uint64_t> counts{10, 0, 30, 0, 60};
  IncrementalCountAlias alias;
  alias.reset(counts);
  EXPECT_EQ(alias.num_slots(), 5u);
  EXPECT_EQ(alias.support_size(), 3u);
  constexpr std::size_t kDraws = 200000;
  std::vector<std::uint64_t> observed(counts.size(), 0);
  for (std::size_t i = 0; i < kDraws; ++i) ++observed[alias.sample(rng)];
  EXPECT_EQ(observed[1], 0u);
  EXPECT_EQ(observed[3], 0u);
  for (const std::size_t i : {0u, 2u, 4u}) {
    const double expected = static_cast<double>(counts[i]) / 100.0;
    const auto ci = wilson_ci(observed[i], kDraws, 4.5);
    EXPECT_LE(ci.lo, expected) << "bucket " << i;
    EXPECT_GE(ci.hi, expected) << "bucket " << i;
  }
}

TEST(IncrementalCountAlias, RejectsEmptySupport) {
  IncrementalCountAlias alias;
  EXPECT_THROW(alias.reset(std::vector<std::uint64_t>{0, 0, 0}),
               std::invalid_argument);
}

// ---------- table counting ----------

// 99.99th percentile of chi²(dof) by the Wilson–Hilferty cube
// approximation (z = 3.719).
double chi2_quantile_9999(std::size_t dof) {
  const double d = static_cast<double>(dof);
  const double t = 1.0 - 2.0 / (9.0 * d) + 3.719 * std::sqrt(2.0 / (9.0 * d));
  return d * t * t * t;
}

// Checks AliasCounter::add_counts against the cascade on one law: every
// draw places exactly n trials and none on a zero weight; the table's
// per-slot totals over all draws fit the law (pooled chi-square over the
// positive slots); and the count the two methods put on the first third of
// the slots, a Bin(n, P) variable, has the same distribution under both
// (two-sample chi-square over standardised bins).
void expect_table_matches_cascade(std::span<const double> weights,
                                  std::uint64_t n, std::uint64_t seed) {
  constexpr std::size_t kDraws = 3000;
  const std::size_t k = weights.size();
  const std::size_t block = k / 3;
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  const double p_block =
      std::accumulate(weights.begin(), weights.begin() + block, 0.0) / total;
  const double mean = static_cast<double>(n) * p_block;
  const double sd = std::sqrt(mean * (1.0 - p_block));
  const auto bin_of = [&](std::uint64_t x) {
    const double z = (static_cast<double>(x) - mean) / sd;
    const double edges[] = {-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0};
    return static_cast<std::size_t>(std::upper_bound(std::begin(edges),
                                                     std::end(edges), z) -
                                    std::begin(edges));
  };

  AliasCounter table;
  table.rebuild(weights);
  Rng rng_table(seed);
  Rng rng_cascade(seed + 1);
  std::vector<std::uint64_t> pooled(k, 0);
  std::vector<std::uint64_t> table_bins(10, 0);
  std::vector<std::uint64_t> cascade_bins(10, 0);
  std::vector<std::uint64_t> out(k);
  for (std::size_t d = 0; d < kDraws; ++d) {
    std::fill(out.begin(), out.end(), 0);
    table.add_counts(rng_table, n, out);
    ASSERT_EQ(std::accumulate(out.begin(), out.end(), std::uint64_t{0}), n);
    for (std::size_t j = 0; j < k; ++j) {
      if (weights[j] == 0.0) {
        ASSERT_EQ(out[j], 0u) << "zero-weight slot " << j;
      }
      pooled[j] += out[j];
    }
    ++table_bins[bin_of(std::accumulate(out.begin(), out.begin() + block,
                                        std::uint64_t{0}))];
    multinomial_into(rng_cascade, n, weights, out);
    ++cascade_bins[bin_of(std::accumulate(out.begin(), out.begin() + block,
                                          std::uint64_t{0}))];
  }

  std::vector<std::uint64_t> observed;
  std::vector<double> expected;
  for (std::size_t j = 0; j < k; ++j) {
    if (weights[j] == 0.0) continue;
    observed.push_back(pooled[j]);
    expected.push_back(static_cast<double>(kDraws * n) * weights[j] / total);
  }
  const double fit = chi_squared_statistic(observed, expected);
  EXPECT_LT(fit, chi2_quantile_9999(observed.size() - 1))
      << "k " << k << " n " << n << ": pooled chi2 " << fit;

  // Equal sample sizes: Σ (A − B)² / (A + B) over the non-empty bins.
  double homogeneity = 0.0;
  std::size_t used = 0;
  for (std::size_t b = 0; b < table_bins.size(); ++b) {
    const double a = static_cast<double>(table_bins[b]);
    const double c = static_cast<double>(cascade_bins[b]);
    if (a + c == 0.0) continue;
    homogeneity += (a - c) * (a - c) / (a + c);
    ++used;
  }
  EXPECT_LT(homogeneity, chi2_quantile_9999(used - 1))
      << "k " << k << " n " << n << ": two-sample chi2 " << homogeneity;
}

TEST(TableCounting, MatchesCascadeAtK1024NearUniform) {
  // Near-uniform law over k = a = 1024 slots, at trial counts below, at and
  // above the 8·a crossover of prefer_table_counting.
  std::vector<double> weights(1024);
  for (std::size_t j = 0; j < weights.size(); ++j) {
    weights[j] = 1.0 + 0.1 * static_cast<double>(j % 7);
  }
  for (const std::uint64_t n : {9u, 1000u, 8u * 1024u, 12000u}) {
    SCOPED_TRACE(n);
    expect_table_matches_cascade(weights, n, 40 + n);
  }
}

TEST(TableCounting, ZeroWeightSlotsNeverCount) {
  // k = 64 with every fourth slot and the last slot at weight zero: the
  // compact table must never land on them, at any n.
  std::vector<double> weights(64);
  for (std::size_t j = 0; j < weights.size(); ++j) {
    weights[j] = (j % 4 == 1 || j + 1 == weights.size())
                     ? 0.0
                     : 1.0 + static_cast<double>(j % 5);
  }
  AliasCounter table;
  table.rebuild(weights);
  ASSERT_EQ(table.support_size(), 47u);
  for (const std::uint64_t n : {9u, 8u * 47u, 1000u}) {
    SCOPED_TRACE(n);
    expect_table_matches_cascade(weights, n, 60 + n);
  }
}

TEST(TableCounting, AddsToExistingCountsAndRejectsBadWeights) {
  AliasCounter table;
  table.rebuild(std::vector<double>{0.0, 2.0, 0.0});
  Rng rng(27);
  std::vector<std::uint64_t> out{5, 1, 0};
  table.add_counts(rng, 10, out);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{5, 11, 0}));
  EXPECT_THROW(table.rebuild(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(table.rebuild(std::vector<double>{1.0, -1.0}),
               std::invalid_argument);
}

TEST(TableCounting, RuleIsAPureFunctionOfTrialsAndSupport) {
  // constexpr in (n, a) alone: no thread count, clock or law width enters.
  static_assert(prefer_table_counting(0, 1));
  static_assert(prefer_table_counting(8, 1));
  static_assert(!prefer_table_counting(9, 1));
  static_assert(prefer_table_counting(8 * 1024, 1024));
  static_assert(!prefer_table_counting(8 * 1024 + 1, 1024));
  for (const std::size_t a : {1u, 2u, 47u, 1024u, 5000u}) {
    for (const std::uint64_t n :
         {std::uint64_t{0}, std::uint64_t{a}, 8 * std::uint64_t{a} - 1,
          8 * std::uint64_t{a}, 8 * std::uint64_t{a} + 1,
          100 * std::uint64_t{a}}) {
      EXPECT_EQ(prefer_table_counting(n, a), n <= kTableCountingFactor * a)
          << "n " << n << " a " << a;
    }
  }
}

// ---------- Fenwick sampler ----------

TEST(FenwickSampler, CountsAndTotal) {
  const std::vector<std::uint64_t> counts{3, 0, 7, 1};
  FenwickSampler f(counts);
  EXPECT_EQ(f.total(), 11u);
  for (std::size_t i = 0; i < counts.size(); ++i)
    EXPECT_EQ(f.count(i), counts[i]);
}

TEST(FenwickSampler, AddUpdates) {
  FenwickSampler f(std::vector<std::uint64_t>{2, 2, 2});
  f.add(0, -1);
  f.add(2, +5);
  EXPECT_EQ(f.count(0), 1u);
  EXPECT_EQ(f.count(2), 7u);
  EXPECT_EQ(f.total(), 10u);
  EXPECT_THROW(f.add(1, -3), std::invalid_argument);
}

TEST(FenwickSampler, SamplesProportionally) {
  Rng rng(19);
  const std::vector<std::uint64_t> counts{10, 0, 30, 60};
  FenwickSampler f(counts);
  constexpr std::size_t kDraws = 200000;
  std::vector<std::uint64_t> observed(counts.size(), 0);
  for (std::size_t i = 0; i < kDraws; ++i) ++observed[f.sample(rng)];
  EXPECT_EQ(observed[1], 0u);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double expected = static_cast<double>(counts[i]) / 100.0;
    const auto ci = wilson_ci(observed[i], kDraws, 4.5);
    EXPECT_LE(ci.lo, expected) << "bucket " << i;
    EXPECT_GE(ci.hi, expected) << "bucket " << i;
  }
}

TEST(FenwickSampler, SampleAfterUpdateRespectsNewWeights) {
  Rng rng(20);
  FenwickSampler f(std::vector<std::uint64_t>{5, 5});
  f.add(0, -5);  // all mass on bucket 1
  for (int i = 0; i < 200; ++i) EXPECT_EQ(f.sample(rng), 1u);
}

TEST(FenwickSampler, EmptyThrows) {
  FenwickSampler f(std::vector<std::uint64_t>{0, 0});
  Rng rng(21);
  EXPECT_THROW(f.sample(rng), std::logic_error);
}

TEST(Compositions, CountMatchesStarsAndBars) {
  EXPECT_EQ(num_compositions(0, 3), 1u);   // the all-zero histogram
  EXPECT_EQ(num_compositions(3, 1), 1u);
  EXPECT_EQ(num_compositions(3, 4), 20u);  // C(6,3)
  EXPECT_EQ(num_compositions(5, 16), 15504u);  // C(20,5)
  // Overflow saturates instead of wrapping.
  EXPECT_EQ(num_compositions(40, 1u << 20),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Compositions, EnumerationIsExactAndExhaustive) {
  std::vector<std::vector<std::uint32_t>> seen;
  for_each_composition(3, 3, [&](std::span<const std::uint32_t> c) {
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(c[0] + c[1] + c[2], 3u);
    seen.emplace_back(c.begin(), c.end());
  });
  EXPECT_EQ(seen.size(), num_compositions(3, 3));  // C(5,3) = 10
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

}  // namespace
}  // namespace consensus::support
