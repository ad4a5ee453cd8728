// Ablation variant of 3-Majority: ties are broken by KEEPING the vertex's
// own opinion instead of adopting the third sample.
//
// The paper's rule (Definition 3.1) realises "uniform tie-breaking" through
// the w3 fallback; this variant answers the natural ablation question of
// how much the analysis (and the measured consensus time) depends on that
// choice. With all-distinct samples the vertex is lazy here, which weakens
// the drift for large k (many distinct samples early on) — the ABL-VARIANTS
// bench quantifies it.
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

  bool step_counts(const Configuration& cur, std::vector<std::uint64_t>& next,
                   support::Rng& rng) const override;

  /// Current-dependent single-vertex law over the alive index (the keep
  /// branch lands on the holder's own opinion): O(a) per group, O(a²) per
  /// round. Declines when a² > k — there the O(k) step_counts closed form
  /// is the cheaper exact path, and the engine falls through to it.
  bool outcome_distribution_alive(Opinion current, const Configuration& cur,
                                  std::vector<double>& out) const override;

  /// Mixture law: adopt j with q_j²(3 − 2q_j), keep own with the
  /// complementary mass.
  bool outcome_distribution_mixture(Opinion current,
                                    std::span<const double> sampling,
                                    std::uint64_t n_hint,
                                    std::vector<double>& out) const override;
};

std::unique_ptr<Protocol> make_three_majority_keep();

}  // namespace consensus::core
