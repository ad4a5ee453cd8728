// Golden trajectories of the structured count-space engines ("sbm" and
// "configuration-model-annealed") through the api::Simulation facade.
// Each case pins, at a fixed seed, the rounds to consensus and winner, a
// hash of every aggregate configuration along the way, and a hash of the
// per-class engine state after a few rounds. The cases cover an anonymous
// law (3-majority), a current-dependent law (2-choices), and the
// per-vertex fallback (h-majority over budget). Any change to the mixing
// arithmetic, the per-class law step, the fallback, or the order of RNG
// draws moves these numbers; a refactor of the engines must leave them
// bit-identical (or bump support::kRngDrawPathVersion and re-record them).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>

#include "consensus/api/simulation.hpp"

namespace consensus::api {
namespace {

struct Golden {
  std::uint64_t rounds;
  core::Opinion winner;
  std::uint64_t trajectory_hash;  // FNV-1a over every round's counts
  std::uint64_t state_hash;       // FNV-1a over the per-class state
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

ScenarioSpec sbm_spec() {
  ScenarioSpec spec;
  spec.n = 3000;
  spec.topology =
      TopologySpec{.kind = "sbm", .blocks = 4, .intra_p = 0.08,
                   .inter_p = 0.01};
  spec.max_rounds = 5000;
  spec.seed = 17;
  return spec;
}

ScenarioSpec degree_class_spec() {
  ScenarioSpec spec;
  spec.n = 3000;
  spec.topology = TopologySpec{.kind = "configuration-model-annealed",
                               .alpha = 2.5, .d_min = 2, .d_max = 300};
  spec.max_rounds = 5000;
  spec.seed = 23;
  return spec;
}

Golden record(ScenarioSpec spec, std::string protocol,
              std::uint32_t k = 6) {
  spec.protocol = std::move(protocol);
  spec.k = k;
  Golden g{};
  {
    auto sim = Simulation::from_spec(spec);
    std::uint64_t h = kFnvOffset;
    sim.set_observer([&h](std::uint64_t, const core::Configuration& c) {
      h = fnv1a(h, c.counts());
    });
    const core::RunResult result = sim.run(spec.seed + 1);
    EXPECT_TRUE(result.reached_consensus);
    g.rounds = result.rounds;
    g.winner = result.winner;
    g.trajectory_hash = h;
  }
  spec.max_rounds = 3;
  auto sim = Simulation::from_spec(spec);
  sim.run(spec.seed + 2);
  g.state_hash =
      fnv1a(kFnvOffset, sim.last_engine()->capture_state().counts);
  return g;
}

void expect_golden(const Golden& got, const Golden& want) {
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.winner, want.winner);
  EXPECT_EQ(got.trajectory_hash, want.trajectory_hash);
  EXPECT_EQ(got.state_hash, want.state_hash);
}

TEST(ClassEngineGolden, SbmThreeMajority) {
  expect_golden(record(sbm_spec(), "3-majority"),
                {35, 5, 14622701540850976680ull, 13920387758361397819ull});
}

TEST(ClassEngineGolden, SbmTwoChoices) {
  expect_golden(record(sbm_spec(), "2-choices"),
                {28, 5, 237718604936378318ull, 9813509411746875927ull});
}

// h-majority:9 over 40 opinions is far over the enumeration budget at
// this n, so early rounds run the fused per-vertex fallback and later
// rounds (few opinions left) the mixture law.
TEST(ClassEngineGolden, SbmHMajorityFallbackThenLaw) {
  expect_golden(record(sbm_spec(), "h-majority:9", 40),
                {18, 37, 5687728852650875788ull, 11114145186224395177ull});
}

TEST(ClassEngineGolden, DegreeClassThreeMajority) {
  expect_golden(record(degree_class_spec(), "3-majority"),
                {17, 2, 11836785575337925975ull, 17559018247733240580ull});
}

TEST(ClassEngineGolden, DegreeClassTwoChoices) {
  expect_golden(record(degree_class_spec(), "2-choices"),
                {21, 2, 17820501246551157164ull, 16340271269741365394ull});
}

TEST(ClassEngineGolden, DegreeClassHMajorityFallbackThenLaw) {
  expect_golden(record(degree_class_spec(), "h-majority:9", 40),
                {10, 33, 17928270790663790782ull, 10947352563089984717ull});
}

}  // namespace
}  // namespace consensus::api
