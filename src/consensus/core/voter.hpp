// Voter model (1-Choice): each vertex adopts the opinion of one uniformly
// random neighbour. The classical baseline: consensus in Θ(n) rounds on K_n
// regardless of k, with win probability proportional to initial support.
// Counting path: next counts ~ Multinomial(n, α) exactly.
#pragma once

#include "consensus/core/fused.hpp"

namespace consensus::core {

class Voter final : public FusedProtocol<Voter> {
 public:
  std::string_view name() const noexcept override { return "voter"; }
  unsigned samples_per_update() const noexcept override { return 1; }

  /// Non-virtual rule body shared by the virtual entry point and the fused
  /// engine kernels (see the Draws concept in protocol.hpp).
  template <typename Draws>
  Opinion update_from_draws(Opinion current, Draws& draws,
                            support::Rng& rng) const {
    (void)current;
    return draws.draw(rng);
  }

  Opinion update(Opinion current, OpinionSampler& neighbors,
                 support::Rng& rng) const override {
    SamplerDraws draws{neighbors};
    return update_from_draws(current, draws, rng);
  }

  bool step_counts(const Configuration& cur, std::vector<std::uint64_t>& next,
                   support::Rng& rng) const override;

  /// α restricted to the alive index: one Multinomial(n, ·) over a slots
  /// per round (the rule is anonymous).
  bool outcome_distribution_alive(Opinion current, const Configuration& cur,
                                  std::vector<double>& out) const override;

  /// Mixture law (class-counting engine): the outcome IS the neighbour
  /// draw, so out = sampling verbatim.
  bool outcome_distribution_mixture(Opinion current,
                                    std::span<const double> sampling,
                                    std::uint64_t n_hint,
                                    std::vector<double>& out) const override;

  bool outcome_depends_on_current() const noexcept override { return false; }
};

}  // namespace consensus::core
