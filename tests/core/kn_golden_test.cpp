// Golden trajectories of the K_n counting engine for the keep-or-adopt
// rules (2-choices, 3-majority-keep). Each case pins, at a fixed seed, the
// rounds run, the winner and a hash of every round's count vector.
//
//  * DenseOnly* cases wrap the rule in make_dense_only and run to
//    consensus, once from a holey start (a² ≤ k, extinct slots after the
//    last alive one) and once from a balanced start (a² > k, support
//    shrinking to 1 along the way).
//  * Plain* cases run the unwrapped rule for a fixed number of rounds in
//    which a² > k holds throughout (asserted per round).
//
// The keep-or-adopt round draws Bin(count_o, keep) per alive opinion in
// index order, then one Multinomial(movers, adopt); extinct slots draw no
// randomness and add +0.0 to every sum, so these numbers do not depend on
// whether the round walks all k slots or only the alive ones. Any change
// to that draw order moves them.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "consensus/core/counting_engine.hpp"
#include "consensus/core/init.hpp"

namespace consensus::core {
namespace {

struct Golden {
  std::uint64_t rounds;
  Opinion winner;
  std::uint64_t trajectory_hash;  // FNV-1a over every round's counts
};

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint64_t> xs) {
  for (const std::uint64_t x : xs) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// k = 64, six alive opinions (a² = 36 ≤ k), slots 40..63 extinct.
Configuration holey_start() {
  std::vector<std::uint64_t> counts(64, 0);
  counts[1] = 900;
  counts[7] = 700;
  counts[12] = 500;
  counts[20] = 400;
  counts[33] = 300;
  counts[39] = 200;
  return Configuration(counts);
}

/// Runs `protocol` from `start` with seed `seed`, hashing every round's
/// counts, until consensus or `max_rounds`. With `require_wide`, asserts
/// a² > k before every round.
Golden record(const Protocol& protocol, const Configuration& start,
              std::uint64_t seed, std::uint64_t max_rounds,
              bool require_wide = false) {
  CountingEngine engine(protocol, start);
  support::Rng rng(seed);
  std::uint64_t h = kFnvOffset;
  while (!engine.is_consensus() && engine.round() < max_rounds) {
    if (require_wide) {
      const std::size_t a = engine.config().support_size();
      EXPECT_GT(a * a, engine.config().num_opinions())
          << "round " << engine.round();
    }
    engine.step(rng);
    h = fnv1a(h, engine.config().counts());
  }
  return {engine.round(), engine.winner(), h};
}

void expect_golden(const Golden& got, const Golden& want) {
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.winner, want.winner);
  EXPECT_EQ(got.trajectory_hash, want.trajectory_hash);
}

Golden dense_only(const char* name, const Configuration& start,
                  std::uint64_t seed) {
  const auto protocol = make_dense_only(make_protocol(name));
  return record(*protocol, start, seed, 100000);
}

Golden plain_wide(const char* name, std::uint64_t seed) {
  const auto protocol = make_protocol(name);
  return record(*protocol, balanced(100000, 100), seed, 30,
                /*require_wide=*/true);
}

TEST(KnGolden, DenseOnlyTwoChoicesHoley) {
  expect_golden(dense_only("2-choices", holey_start(), 101),
                {12, 1, 16585181901109007182ull});
}

TEST(KnGolden, DenseOnlyTwoChoicesBalanced) {
  expect_golden(dense_only("2-choices", balanced(2000, 16), 102),
                {40, 15, 2371882154606181222ull});
}

TEST(KnGolden, DenseOnlyThreeMajorityKeepHoley) {
  expect_golden(dense_only("3-majority-keep", holey_start(), 103),
                {8, 1, 13801784877075653251ull});
}

TEST(KnGolden, DenseOnlyThreeMajorityKeepBalanced) {
  expect_golden(dense_only("3-majority-keep", balanced(2000, 16), 104),
                {20, 12, 12255106790857604442ull});
}

TEST(KnGolden, PlainTwoChoicesWide) {
  expect_golden(plain_wide("2-choices", 105),
                {30, 24, 15184158623338252107ull});
}

TEST(KnGolden, PlainThreeMajorityKeepWide) {
  expect_golden(plain_wide("3-majority-keep", 106),
                {30, 79, 18092295314137049497ull});
}

}  // namespace
}  // namespace consensus::core
