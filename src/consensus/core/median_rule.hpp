// Median rule [DGMSS11]: each vertex takes the median of its own opinion and
// the opinions of two uniformly random neighbours, under the natural total
// order on opinion labels 0 < 1 < ... < k−1. For k = 2 this coincides with
// 2-Choices (the paper, §1.1). The one-round law depends on the holder's
// opinion through an order statistic, so there is no O(k) `step_counts`
// closed form — but per opinion *group* the law is a simple CDF computation
// over the alive opinions (`outcome_distribution_alive`), so the counting
// engine draws one multinomial per group: O(a²) per round, independent of
// n.
#pragma once

#include "consensus/core/fused.hpp"

namespace consensus::core {

class MedianRule final : public FusedProtocol<MedianRule> {
 public:
  std::string_view name() const noexcept override { return "median"; }
  unsigned samples_per_update() const noexcept override { return 2; }

  /// Non-virtual rule body shared by the virtual entry point and the fused
  /// engine kernels (see the Draws concept in protocol.hpp).
  template <typename Draws>
  Opinion update_from_draws(Opinion current, Draws& draws,
                            support::Rng& rng) const {
    const Opinion a = draws.draw(rng);
    const Opinion b = draws.draw(rng);
    // median(current, a, b)
    const Opinion lo = a < b ? a : b;
    const Opinion hi = a < b ? b : a;
    if (current < lo) return lo;
    if (current > hi) return hi;
    return current;
  }

  Opinion update(Opinion current, OpinionSampler& neighbors,
                 support::Rng& rng) const override {
    SamplerDraws draws{neighbors};
    return update_from_draws(current, draws, rng);
  }

  /// CDF computation walked over the alive index: O(a) per group, O(a²)
  /// per round. Requires `current` to be alive (the engine only asks about
  /// groups with members). Declines when the per-vertex path is cheaper
  /// (a² > 8n).
  bool outcome_distribution_alive(Opinion current, const Configuration& cur,
                                  std::vector<double>& out) const override;

  /// The same CDF walk over an arbitrary neighbour law q (the CDF/survival
  /// functions are those of q, not of the holder's configuration).
  bool outcome_distribution_mixture(Opinion current,
                                    std::span<const double> sampling,
                                    std::uint64_t n_hint,
                                    std::vector<double>& out) const override;
};

}  // namespace consensus::core
