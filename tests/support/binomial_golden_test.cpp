// Golden binomial stream: a hash of support::binomial over a fixed (n, p)
// sequence that spans the edge cases, inversion (np < 10), BTRS
// (np >= 10) and the p > 1/2 reflection. Any change to what the sampler
// returns, or to how many uniforms it consumes, moves the hash or the
// final RNG state — both are part of every engine's trajectory.
#include <gtest/gtest.h>

#include <cstdint>

#include "consensus/support/sampling.hpp"

namespace consensus::support {
namespace {

TEST(BinomialGolden, FixedSequenceStream) {
  constexpr std::uint64_t kNs[] = {
      0,     1,       5,          17,                100,       1000,
      12345, 1000000, 1000000000, 1000000000000ull, 1ull << 62};
  constexpr double kPs[] = {0.0,  1e-12, 1e-9, 1e-3, 0.01, 0.1, 0.3,
                            0.5,  0.7,   0.99, 1.0 - 1e-9, 1.0};
  Rng rng(0x5eed);
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::uint64_t draws = 0;
  for (int pass = 0; pass < 20; ++pass) {
    for (const std::uint64_t n : kNs) {
      for (const double p : kPs) {
        const std::uint64_t x = binomial(rng, n, p);
        ASSERT_LE(x, n);
        for (int byte = 0; byte < 8; ++byte) {
          h ^= (x >> (8 * byte)) & 0xffu;
          h *= 0x100000001b3ull;
        }
        ++draws;
      }
    }
  }
  EXPECT_EQ(draws, 20u * 11u * 12u);
  EXPECT_EQ(h, 14691565003575265842ull);
  EXPECT_EQ(rng.uniform_below(1ull << 62), 1324319304717216921ull);
}

}  // namespace
}  // namespace consensus::support
