// Open fused-dispatch registry (core/fused.hpp): a USER-DEFINED protocol —
// one this repository's engines have never heard of — derives from
// FusedProtocol<Concrete> and must run the devirtualized engine kernels
// bit-identically to an update()-only twin of the same rule, on every
// engine shape the FusedOps table covers. Also pins the registration
// surface itself: built-ins expose a non-null per-type table,
// make_generic_only keeps the null default (the virtual reference path),
// and the table is a per-type singleton.
#include "consensus/core/fused.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "consensus/core/agent_engine.hpp"
#include "consensus/core/async_engine.hpp"
#include "consensus/core/class_engine.hpp"
#include "consensus/core/init.hpp"
#include "consensus/core/pairwise_engine.hpp"
#include "consensus/graph/generators.hpp"
#include "consensus/graph/graph.hpp"

namespace consensus::core {
namespace {

/// The "lazy voter": adopt a sampled opinion only when two independent
/// neighbour draws agree, else keep the current one. Deliberately NOT a
/// built-in rule — it exists only in this test file, so any engine that
/// runs it fused proves the registry is open (no core edit registered it).
/// Deriving from FusedProtocol<LazyVoter> is the entire opt-in.
class LazyVoter final : public FusedProtocol<LazyVoter> {
 public:
  std::string_view name() const noexcept override { return "lazy-voter"; }
  unsigned samples_per_update() const noexcept override { return 2; }

  template <typename Draws>
  Opinion update_from_draws(Opinion current, Draws& draws,
                            support::Rng& rng) const {
    const Opinion a = draws.draw(rng);
    const Opinion b = draws.draw(rng);
    return a == b ? a : current;
  }

  Opinion update(Opinion current, OpinionSampler& neighbors,
                 support::Rng& rng) const override {
    SamplerDraws draws{neighbors};
    return update_from_draws(current, draws, rng);
  }
};

/// The same rule with only the virtual entry point — the engines have no
/// fused table for it (fused_visitor() stays the null default), so every
/// step runs the virtual reference loop. The twin against which the fused
/// trajectories must be bit-identical.
class LazyVoterVirtualOnly final : public Protocol {
 public:
  std::string_view name() const noexcept override { return "lazy-voter"; }
  unsigned samples_per_update() const noexcept override { return 2; }

  Opinion update(Opinion current, OpinionSampler& neighbors,
                 support::Rng& rng) const override {
    const Opinion a = neighbors.sample(rng);
    const Opinion b = neighbors.sample(rng);
    return a == b ? a : current;
  }
};

/// A single-draw user rule for the pairwise shape (PairwiseEngine rejects
/// multi-sample protocols at construction — one interaction, one
/// responder): adopt the drawn opinion only when it is numerically
/// smaller than the current one, else keep. Again defined only here.
class DownhillVoter final : public FusedProtocol<DownhillVoter> {
 public:
  std::string_view name() const noexcept override { return "downhill-voter"; }
  unsigned samples_per_update() const noexcept override { return 1; }

  template <typename Draws>
  Opinion update_from_draws(Opinion current, Draws& draws,
                            support::Rng& rng) const {
    const Opinion a = draws.draw(rng);
    return a < current ? a : current;
  }

  Opinion update(Opinion current, OpinionSampler& neighbors,
                 support::Rng& rng) const override {
    SamplerDraws draws{neighbors};
    return update_from_draws(current, draws, rng);
  }
};

class DownhillVoterVirtualOnly final : public Protocol {
 public:
  std::string_view name() const noexcept override { return "downhill-voter"; }
  unsigned samples_per_update() const noexcept override { return 1; }

  Opinion update(Opinion current, OpinionSampler& neighbors,
                 support::Rng& rng) const override {
    const Opinion a = neighbors.sample(rng);
    return a < current ? a : current;
  }
};

Configuration mixed_start() {
  return Configuration({160, 0, 90, 0, 0, 50, 100});
}

// ------------------------------------ registration surface

TEST(FusedRegistry, BuiltInsRegisterPerTypeTables) {
  for (const char* name :
       {"voter", "3-majority", "3-majority-keep", "2-choices", "median",
        "h-majority:3", "undecided"}) {
    const auto protocol = make_protocol(name);
    EXPECT_NE(protocol->fused_visitor(), nullptr) << name;
  }
}

TEST(FusedRegistry, GenericOnlyWrapperKeepsNullDefault) {
  // Diagnostic wrappers must stay on the virtual reference path — that is
  // what the fused-vs-virtual cross-validation (and the bench's reference
  // columns) compare against.
  const auto wrapped = make_generic_only(make_protocol("3-majority"));
  EXPECT_EQ(wrapped->fused_visitor(), nullptr);
}

TEST(FusedRegistry, TableIsAPerTypeSingleton) {
  LazyVoter a, b;
  EXPECT_NE(a.fused_visitor(), nullptr);
  EXPECT_EQ(a.fused_visitor(), b.fused_visitor());
  EXPECT_EQ(a.fused_visitor(), &fused_ops_for<LazyVoter>());
  // Distinct concrete types get distinct tables (the thunks static_cast to
  // the concrete type, so sharing would be type confusion).
  EXPECT_NE(a.fused_visitor(), make_protocol("voter")->fused_visitor());
}

// ------------------------------------ fused == virtual, per engine shape

TEST(FusedRegistry, UserProtocolAgentEngineBitIdentical) {
  const LazyVoter fused;
  const LazyVoterVirtualOnly virtual_only;
  const auto g = graph::Graph::complete_with_self_loops(400);
  for (const bool mean_field : {true, false}) {
    AgentEngine ea(fused, g, mixed_start());
    AgentEngine eb(virtual_only, g, mixed_start());
    ea.set_mean_field(mean_field);
    eb.set_mean_field(mean_field);
    support::Rng ra(0x51), rb(0x51);
    for (int t = 0; t < 6; ++t) {
      ea.step(ra);
      eb.step(rb);
    }
    EXPECT_TRUE(std::ranges::equal(ea.opinions(), eb.opinions()))
        << "mean_field=" << mean_field;
  }
}

TEST(FusedRegistry, UserProtocolAgentEngineBitIdenticalOnCsr) {
  const LazyVoter fused;
  const LazyVoterVirtualOnly virtual_only;
  support::Rng gen(9);
  const auto g = graph::random_regular(120, 6, gen);
  std::vector<Opinion> opinions(120);
  for (std::size_t v = 0; v < opinions.size(); ++v) {
    opinions[v] = static_cast<Opinion>(v % 4);
  }
  AgentEngine ea(fused, g, opinions, 4);
  AgentEngine eb(virtual_only, g, opinions, 4);
  support::Rng ra(0x52), rb(0x52);
  for (int t = 0; t < 5; ++t) {
    ea.step(ra);
    eb.step(rb);
  }
  EXPECT_TRUE(std::ranges::equal(ea.opinions(), eb.opinions()));
}

TEST(FusedRegistry, UserProtocolAsyncEngineBitIdentical) {
  const LazyVoter fused;
  const LazyVoterVirtualOnly virtual_only;
  AsyncEngine ea(fused, mixed_start());
  AsyncEngine eb(virtual_only, mixed_start());
  support::Rng ra(0x53), rb(0x53);
  for (int t = 0; t < 2000; ++t) {
    ea.tick(ra);
    eb.tick(rb);
  }
  EXPECT_EQ(ea.config(), eb.config());
}

TEST(FusedRegistry, UserProtocolPairwiseEngineBitIdentical) {
  // Pairwise needs the single-draw rule: the engine's constructor rejects
  // samples_per_update() != 1 (one interaction has exactly one responder).
  const DownhillVoter fused;
  const DownhillVoterVirtualOnly virtual_only;
  PairwiseEngine ea(fused, mixed_start());
  PairwiseEngine eb(virtual_only, mixed_start());
  support::Rng ra(0x54), rb(0x54);
  for (int t = 0; t < 2000; ++t) {
    ea.interact(ra);
    eb.interact(rb);
  }
  EXPECT_EQ(ea.config(), eb.config());
}

TEST(FusedRegistry, UserProtocolBlockEngineFallbackBitIdentical) {
  // LazyVoter declines every law hook, so the class engine lands in the
  // per-vertex mixture fallback — the mixture_group thunk for the fused
  // protocol, the virtual update() loop for the twin. Same draws, same
  // trajectory, bit for bit.
  const LazyVoter fused;
  const LazyVoterVirtualOnly virtual_only;
  const Configuration total = mixed_start();
  const auto offsets = graph::sbm_block_offsets(total.num_vertices(), 3);
  const auto weights = graph::sbm_block_weights(offsets, 0.6, 0.15);

  const auto run = [&](const Protocol& protocol) {
    support::Rng split_rng(11);
    auto blocks =
        ClassCountingEngine::split_shuffled(total, offsets, split_rng);
    auto engine =
        ClassCountingEngine::sbm(protocol, std::move(blocks), weights);
    support::Rng rng(0x55);
    std::vector<std::uint64_t> trajectory;
    for (int t = 0; t < 15; ++t) {
      engine.step(rng);
      for (std::size_t b = 0; b < engine.num_classes(); ++b) {
        const auto counts = engine.class_configuration(b).counts();
        trajectory.insert(trajectory.end(), counts.begin(), counts.end());
      }
    }
    return trajectory;
  };
  EXPECT_EQ(run(fused), run(virtual_only));
}

}  // namespace
}  // namespace consensus::core
