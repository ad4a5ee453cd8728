// 2-Choices (Definition 3.1): each vertex samples two uniformly random
// neighbours w1, w2; if opn(w1) == opn(w2) it adopts that opinion, otherwise
// it keeps its own for the round.
//
// Count-space law (exact): per vertex, draw an independent "pair outcome"
// O ∈ {1..k, ⊥} with Pr[O = j] = q_j², Pr[⊥] = 1 − Σ_j q_j², where q is the
// neighbour law (α on K_n). The new opinion is O when O ≠ ⊥ and the current
// opinion otherwise; on K_n this reproduces eq. (6). The outcome does not
// depend on the current opinion, so the rule is keep-or-adopt
// (Protocol::keep_or_adopt): adopt[j] = q_j², keep = 1 − Σ adopt, and a
// round is keepers Z_o ~ Bin(count_o, keep) per alive group plus one
// Multinomial(n − Σ Z, adopt) for the movers.
#pragma once

#include "consensus/core/fused.hpp"

namespace consensus::core {

class TwoChoices final : public FusedProtocol<TwoChoices> {
 public:
  std::string_view name() const noexcept override { return "2-choices"; }
  unsigned samples_per_update() const noexcept override { return 2; }

  /// Non-virtual rule body shared by the virtual entry point and the fused
  /// engine kernels (see the Draws concept in protocol.hpp).
  template <typename Draws>
  Opinion update_from_draws(Opinion current, Draws& draws,
                            support::Rng& rng) const {
    const Opinion w1 = draws.draw(rng);
    const Opinion w2 = draws.draw(rng);
    return w1 == w2 ? w1 : current;
  }

  Opinion update(Opinion current, OpinionSampler& neighbors,
                 support::Rng& rng) const override;

  /// adopt[j] = q_j², keep = 1 − Σ adopt (clamped at 0 against ulp
  /// overshoot of the sum). O(|q|).
  bool keep_or_adopt(std::span<const double> sampling,
                     std::vector<double>& adopt, double& keep) const override;

  /// Mixture law: keep·δ_current + adopt from keep_or_adopt.
  bool outcome_distribution_mixture(Opinion current,
                                    std::span<const double> sampling,
                                    std::uint64_t n_hint,
                                    std::vector<double>& out) const override;
};

}  // namespace consensus::core
