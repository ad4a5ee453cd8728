// CountingEngine: exact synchronous simulation on K_n with self-loops,
// operating on the count vector only.
//
// Four paths, tried in order per round:
//
//   1. Sparse alive-set path (`Protocol::outcome_distribution_alive`) —
//      the one-round law is computed and the multinomials drawn over the
//      a ALIVE opinions only: O(poly(a, h)) per round, independent of both
//      n and the slot count k. This is what keeps k ≈ n sweeps fast once
//      opinions start dying.
//   2. Keep-or-adopt (`Protocol::keep_or_adopt`: 2-Choices,
//      3-Majority-keep) — one Bin(count, keep) per alive opinion plus one
//      Multinomial(movers, adopt) over the a alive opinions: O(a) per
//      round. It makes exactly the draws of the k-wide closed form.
//   3. `Protocol::step_counts` — full O(k) closed-form one-round law
//      (3-Majority, Voter, Undecided).
//   4. Per-vertex fallback: an alias table over the current counts is
//      built once per round and `Protocol::update` runs once per vertex —
//      still exact, O(n · samples) per round, and it never materialises a
//      per-vertex opinion array.
//
// Paths 1 and 2 commit through `Configuration::assign_alive_counts`, so
// they never touch the k − a extinct slots. All buffers (scratch counts,
// probability vectors, alias table weights) are engine members reused
// across rounds: a steady-state round performs no heap allocations.
#pragma once

#include <cstdint>
#include <vector>

#include "consensus/core/configuration.hpp"
#include "consensus/core/engine.hpp"
#include "consensus/core/protocol.hpp"
#include "consensus/support/rng.hpp"
#include "consensus/support/sampling.hpp"

namespace consensus::core {

class CountingEngine final : public Engine {
 public:
  /// `start_round` supports checkpoint restoration (round counter only;
  /// the configuration carries all other state).
  CountingEngine(const Protocol& protocol, Configuration initial,
                 std::uint64_t start_round = 0);

  const Configuration& config() const noexcept { return config_; }
  const Protocol& protocol() const noexcept override { return *protocol_; }
  std::uint64_t round() const noexcept { return round_; }

  /// Advances one synchronous round. Exact sampling of the one-round law.
  void step(support::Rng& rng) override;

  Configuration configuration() const override { return config_; }
  std::uint64_t rounds_elapsed() const noexcept override { return round_; }

  bool is_consensus() const override { return protocol_->is_consensus(config_); }
  Opinion winner() const override { return protocol_->winner(config_); }

  /// Direct mutation hook for adversaries (between rounds).
  Configuration& mutable_config() noexcept { return config_; }
  Configuration* mutable_configuration() noexcept override { return &config_; }

  EngineState capture_state() const override;
  void restore_state(const EngineState& state) override;

 private:
  /// Sparse alive-set round; returns false when the protocol declines the
  /// alive law for this configuration (the next path takes over).
  bool sparse_step(support::Rng& rng);
  /// Keep-or-adopt round; returns false when the protocol has no
  /// keep_or_adopt law (the dense paths take over).
  bool keep_or_adopt_step(support::Rng& rng);
  void generic_step(support::Rng& rng);

  const Protocol* protocol_;
  Configuration config_;
  std::uint64_t round_ = 0;
  // Round buffers, reused across rounds (see header comment).
  std::vector<std::uint64_t> scratch_;    // next counts under construction
  std::vector<std::uint64_t> group_out_;  // one group's multinomial draw
  std::vector<std::uint64_t> compact_;    // sparse path: next alive counts
  std::vector<double> sampling_;          // compact α (keep-or-adopt)
  std::vector<double> probs_;             // adopt law or one group's law
  std::vector<double> weights_;           // alias-table build input
  support::AliasTable table_;             // per-vertex fallback sampler
};

}  // namespace consensus::core
