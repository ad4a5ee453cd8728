// Protocol::keep_or_adopt, the law the count-space engines sample for
// 2-Choices and 3-Majority-keep:
//
//  * keep·δ_current + adopt must equal outcome_distribution_mixture
//    exactly, for every current opinion and several sampling vectors;
//  * chi-square: that law must be exactly the law of `Protocol::update`
//    when neighbour opinions are i.i.d. draws from an SBM block's mixture
//    (a neighbour law that is no configuration's own α).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "consensus/core/protocol.hpp"
#include "consensus/support/sampling.hpp"
#include "consensus/support/stats.hpp"

namespace consensus::core {
namespace {

constexpr const char* kRules[] = {"2-choices", "3-majority-keep"};

/// Neighbour law of block 0 on a 3-block annealed SBM over k = 6 slots
/// (slot 4 extinct everywhere): q_0 = Σ_s w(0,s)/W(0) · counts_s/n_s.
std::vector<double> sbm_mixture() {
  const std::vector<std::vector<double>> blocks = {
      {50, 30, 10, 5, 0, 5}, {5, 10, 60, 20, 0, 5}, {0, 5, 5, 10, 0, 80}};
  const double intra = 0.6, inter = 0.15;
  std::vector<double> q(6, 0.0);
  double row = 0.0;
  for (std::size_t s = 0; s < blocks.size(); ++s) {
    double n_s = 0.0;
    for (const double c : blocks[s]) n_s += c;
    const double w = n_s * (s == 0 ? intra : inter);
    row += w;
    for (std::size_t j = 0; j < q.size(); ++j) q[j] += w * blocks[s][j] / n_s;
  }
  for (double& x : q) x /= row;
  return q;
}

TEST(KeepOrAdoptLaw, KeepPlusAdoptEqualsMixtureLawExactly) {
  const std::vector<std::vector<double>> samplings = {
      sbm_mixture(),
      {0.25, 0.25, 0.25, 0.25},
      {0.0, 0.6, 0.0, 0.3, 0.1},
      {0.0, 1.0, 0.0}};
  for (const char* name : kRules) {
    const auto protocol = make_protocol(name);
    for (const auto& q : samplings) {
      std::vector<double> adopt;
      double keep = -1.0;
      ASSERT_TRUE(protocol->keep_or_adopt(q, adopt, keep)) << name;
      ASSERT_EQ(adopt.size(), q.size()) << name;
      EXPECT_GE(keep, 0.0) << name;
      for (std::size_t current = 0; current < q.size(); ++current) {
        std::vector<double> mixture;
        ASSERT_TRUE(protocol->outcome_distribution_mixture(
            static_cast<Opinion>(current), q, 1000, mixture))
            << name;
        std::vector<double> law = adopt;
        law[current] += keep;
        EXPECT_EQ(law, mixture) << name << " current " << current;
      }
    }
  }
}

/// OpinionSampler drawing i.i.d. opinions from a fixed law q.
class LawSampler final : public OpinionSampler {
 public:
  explicit LawSampler(const std::vector<double>& q) : slots_(q.size()) {
    table_.rebuild(q);
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

TEST(KeepOrAdoptLaw, MatchesUpdateChiSquareUnderSbmMixture) {
  const std::vector<double> q = sbm_mixture();
  constexpr std::uint64_t kTrials = 200000;
  std::uint64_t seed = 0x6b0a;
  for (const char* name : kRules) {
    const auto protocol = make_protocol(name);
    std::vector<double> adopt;
    double keep = 0.0;
    ASSERT_TRUE(protocol->keep_or_adopt(q, adopt, keep)) << name;
    for (const Opinion current : {Opinion{0}, Opinion{3}, Opinion{4}}) {
      LawSampler sampler(q);
      support::Rng rng(seed++);
      std::vector<std::uint64_t> observed(q.size(), 0);
      for (std::uint64_t t = 0; t < kTrials; ++t) {
        ++observed[protocol->update(current, sampler, rng)];
      }
      std::vector<std::uint64_t> obs;
      std::vector<double> expected;
      for (std::size_t j = 0; j < q.size(); ++j) {
        const double p = adopt[j] + (j == current ? keep : 0.0);
        if (p > 0.0) {
          obs.push_back(observed[j]);
          expected.push_back(p * static_cast<double>(kTrials));
        } else {
          EXPECT_EQ(observed[j], 0u) << name << ": slot " << j;
        }
      }
      ASSERT_GE(obs.size(), 2u);
      ASSERT_LE(obs.size() - 1, 8u);
      const double stat = support::chi_squared_statistic(obs, expected);
      EXPECT_LT(stat, kChi2Crit[obs.size() - 1])
          << name << " current " << current << ": chi2=" << stat;
    }
  }
}

}  // namespace
}  // namespace consensus::core
