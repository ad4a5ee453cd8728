// Ablation variant of 3-Majority: ties are broken by KEEPING the vertex's
// own opinion instead of adopting the third sample.
//
// The paper's rule (Definition 3.1) realises "uniform tie-breaking" through
// the w3 fallback; this variant answers the natural ablation question of
// how much the analysis (and the measured consensus time) depends on that
// choice. With all-distinct samples the vertex is lazy here, which weakens
// the drift for large k (many distinct samples early on) — the ABL-VARIANTS
// bench quantifies it.
//
// Count-space law (exact): with neighbour law q (α on K_n), some opinion j
// is sampled at least twice of three times with probability
// 3q_j²(1 − q_j) + q_j³ = q_j²(3 − 2q_j), and all three are distinct with
// the complementary mass. Neither event depends on the holder's opinion,
// so the rule is keep-or-adopt (Protocol::keep_or_adopt):
// adopt[j] = q_j²(3 − 2q_j), keep = 1 − Σ adopt.
#pragma once

#include "consensus/core/fused.hpp"

namespace consensus::core {

class ThreeMajorityKeep final : public FusedProtocol<ThreeMajorityKeep> {
 public:
  std::string_view name() const noexcept override { return "3-majority-keep"; }
  unsigned samples_per_update() const noexcept override { return 3; }

  /// Non-virtual rule body shared by the virtual entry point and the fused
  /// engine kernels (see the Draws concept in protocol.hpp).
  template <typename Draws>
  Opinion update_from_draws(Opinion current, Draws& draws,
                            support::Rng& rng) const {
    const Opinion w1 = draws.draw(rng);
    const Opinion w2 = draws.draw(rng);
    const Opinion w3 = draws.draw(rng);
    // Adopt any opinion sampled at least twice; keep own on a 3-way split.
    if (w1 == w2 || w1 == w3) return w1;
    if (w2 == w3) return w2;
    return current;
  }

  Opinion update(Opinion current, OpinionSampler& neighbors,
                 support::Rng& rng) const override;

  /// adopt[j] = q_j²(3 − 2q_j), keep = 1 − Σ adopt (clamped at 0
  /// against ulp overshoot of the sum). O(|q|).
  bool keep_or_adopt(std::span<const double> sampling,
                     std::vector<double>& adopt, double& keep) const override;

  /// Mixture law: keep·δ_current + adopt from keep_or_adopt.
  bool outcome_distribution_mixture(Opinion current,
                                    std::span<const double> sampling,
                                    std::uint64_t n_hint,
                                    std::vector<double>& out) const override;
};

std::unique_ptr<Protocol> make_three_majority_keep();

}  // namespace consensus::core
