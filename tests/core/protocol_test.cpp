// Tests of the local update rules against hand-computed cases using a
// scripted sampler, plus the protocol factory.
#include "consensus/core/protocol.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "consensus/core/h_majority.hpp"
#include "consensus/core/median_rule.hpp"
#include "consensus/core/three_majority.hpp"
#include "consensus/core/two_choices.hpp"
#include "consensus/core/undecided.hpp"
#include "consensus/core/voter.hpp"

namespace consensus::core {
namespace {

/// Sampler returning a fixed script of opinions.
class ScriptedSampler final : public OpinionSampler {
 public:
  ScriptedSampler(std::vector<Opinion> script, std::size_t slots)
      : script_(std::move(script)), slots_(slots) {}

  Opinion sample(support::Rng&) override {
    if (next_ >= script_.size()) throw std::logic_error("script exhausted");
    return script_[next_++];
  }

  std::size_t num_slots() const noexcept override { return slots_; }
  std::size_t consumed() const noexcept { return next_; }

 private:
  std::vector<Opinion> script_;
  std::size_t slots_;
  std::size_t next_ = 0;
};

TEST(ThreeMajorityRule, AgreeingPairWins) {
  ThreeMajority p;
  support::Rng rng(1);
  ScriptedSampler s({4, 4, 9}, 10);
  EXPECT_EQ(p.update(0, s, rng), 4u);
  EXPECT_EQ(s.consumed(), 3u);  // always draws all three
}

TEST(ThreeMajorityRule, DisagreementFallsToThird) {
  ThreeMajority p;
  support::Rng rng(1);
  ScriptedSampler s({4, 5, 9}, 10);
  EXPECT_EQ(p.update(0, s, rng), 9u);
}

TEST(ThreeMajorityRule, IgnoresOwnOpinion) {
  ThreeMajority p;
  support::Rng rng(1);
  ScriptedSampler s({1, 2, 3}, 10);
  EXPECT_EQ(p.update(7, s, rng), 3u);
}

TEST(TwoChoicesRule, AgreementAdopts) {
  TwoChoices p;
  support::Rng rng(1);
  ScriptedSampler s({6, 6}, 10);
  EXPECT_EQ(p.update(2, s, rng), 6u);
}

TEST(TwoChoicesRule, DisagreementKeepsOwn) {
  TwoChoices p;
  support::Rng rng(1);
  ScriptedSampler s({6, 7}, 10);
  EXPECT_EQ(p.update(2, s, rng), 2u);
}

TEST(VoterRule, AdoptsSingleSample) {
  Voter p;
  support::Rng rng(1);
  ScriptedSampler s({8}, 10);
  EXPECT_EQ(p.update(0, s, rng), 8u);
}

TEST(HMajorityRule, HEqualsOneIsVoterLike) {
  HMajority p(1);
  support::Rng rng(1);
  ScriptedSampler s({5}, 10);
  EXPECT_EQ(p.update(0, s, rng), 5u);
}

TEST(HMajorityRule, ClearMajorityWins) {
  HMajority p(5);
  support::Rng rng(1);
  ScriptedSampler s({3, 1, 3, 3, 2}, 10);
  EXPECT_EQ(p.update(0, s, rng), 3u);
}

TEST(HMajorityRule, TieBrokenAmongTied) {
  HMajority p(4);
  support::Rng rng(1);
  // 2×"1" and 2×"2": the winner must be one of the tied opinions.
  for (int trial = 0; trial < 50; ++trial) {
    ScriptedSampler s({1, 2, 1, 2}, 10);
    const Opinion w = p.update(0, s, rng);
    EXPECT_TRUE(w == 1 || w == 2);
  }
}

TEST(HMajorityRule, TieBreakIsRoughlyUniform) {
  HMajority p(2);
  support::Rng rng(42);
  int ones = 0;
  constexpr int kTrials = 20000;
  for (int trial = 0; trial < kTrials; ++trial) {
    ScriptedSampler s({1, 2}, 10);
    ones += (p.update(0, s, rng) == 1);
  }
  EXPECT_GT(ones, kTrials / 2 - 600);
  EXPECT_LT(ones, kTrials / 2 + 600);
}

TEST(HMajorityRule, RejectsZero) {
  EXPECT_THROW(HMajority(0), std::invalid_argument);
}

TEST(MedianRule, TakesMedian) {
  MedianRule p;
  support::Rng rng(1);
  ScriptedSampler low({0, 1}, 10);
  EXPECT_EQ(p.update(5, low, rng), 1u);  // median(5,0,1)=1
  ScriptedSampler high({8, 9}, 10);
  EXPECT_EQ(p.update(5, high, rng), 8u);  // median(5,8,9)=8
  ScriptedSampler mid({3, 9}, 10);
  EXPECT_EQ(p.update(5, mid, rng), 5u);  // median(5,3,9)=5
}

TEST(UndecidedRule, TransitionsFollowDefinition) {
  Undecided p;
  support::Rng rng(1);
  const std::size_t slots = 4;  // opinions 0..2, ⊥ = 3
  const Opinion bot = 3;

  {  // undecided adopts neighbour's opinion
    ScriptedSampler s({1}, slots);
    EXPECT_EQ(p.update(bot, s, rng), 1u);
  }
  {  // undecided stays undecided on ⊥ neighbour
    ScriptedSampler s({bot}, slots);
    EXPECT_EQ(p.update(bot, s, rng), bot);
  }
  {  // decided keeps on matching neighbour
    ScriptedSampler s({2}, slots);
    EXPECT_EQ(p.update(2, s, rng), 2u);
  }
  {  // decided keeps on ⊥ neighbour
    ScriptedSampler s({bot}, slots);
    EXPECT_EQ(p.update(2, s, rng), 2u);
  }
  {  // decided becomes undecided on conflicting neighbour
    ScriptedSampler s({0}, slots);
    EXPECT_EQ(p.update(2, s, rng), bot);
  }
}

TEST(UndecidedConsensus, BotDoesNotWin) {
  Undecided p;
  Configuration all_bot({0, 0, 10});
  EXPECT_FALSE(p.is_consensus(all_bot));
  Configuration agreed({10, 0, 0});
  EXPECT_TRUE(p.is_consensus(agreed));
  EXPECT_EQ(p.winner(agreed), 0u);
  Configuration mixed({9, 0, 1});
  EXPECT_FALSE(p.is_consensus(mixed));
}

TEST(WithUndecidedSlot, AppendsEmptySlot) {
  const Configuration c({3, 7});
  const Configuration u = with_undecided_slot(c);
  EXPECT_EQ(u.num_opinions(), 3u);
  EXPECT_EQ(u.count(2), 0u);
  EXPECT_EQ(u.num_vertices(), 10u);
}

TEST(ProtocolFactory, KnownNames) {
  EXPECT_EQ(make_protocol("3-majority")->name(), "3-majority");
  EXPECT_EQ(make_protocol("2-choices")->name(), "2-choices");
  EXPECT_EQ(make_protocol("voter")->name(), "voter");
  EXPECT_EQ(make_protocol("median")->name(), "median");
  EXPECT_EQ(make_protocol("undecided")->name(), "undecided");
  EXPECT_EQ(make_protocol("h-majority:7")->name(), "h-majority:7");
  EXPECT_EQ(make_protocol("h-majority:7")->samples_per_update(), 7u);
  EXPECT_THROW(make_protocol("nope"), std::invalid_argument);
}

TEST(ProtocolFactory, HMajorityParsesTheWholeSuffix) {
  EXPECT_EQ(make_protocol("h-majority:4294967295")->samples_per_update(),
            4294967295u);
  // Each of these used to run some other h (or h = 0) under the label.
  for (const char* bad :
       {"h-majority:", "h-majority:0", "h-majority:-1", "h-majority:+3",
        "h-majority:5x", "h-majority: 5", "h-majority:4294967296",
        "h-majority:4294967299", "h-majority:99999999999999999999"}) {
    EXPECT_THROW(make_protocol(bad), std::invalid_argument) << bad;
  }
}

TEST(ProtocolMetadata, SamplesPerUpdate) {
  EXPECT_EQ(ThreeMajority().samples_per_update(), 3u);
  EXPECT_EQ(TwoChoices().samples_per_update(), 2u);
  EXPECT_EQ(Voter().samples_per_update(), 1u);
  EXPECT_EQ(MedianRule().samples_per_update(), 2u);
  EXPECT_EQ(Undecided().samples_per_update(), 1u);
}

TEST(DefaultConsensusPredicate, MatchesConfiguration) {
  ThreeMajority p;
  EXPECT_TRUE(p.is_consensus(Configuration({0, 5})));
  EXPECT_FALSE(p.is_consensus(Configuration({1, 4})));
  EXPECT_EQ(p.winner(Configuration({0, 5})), 1u);
}

}  // namespace
}  // namespace consensus::core
