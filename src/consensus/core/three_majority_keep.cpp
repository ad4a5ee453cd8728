#include "consensus/core/three_majority_keep.hpp"

#include <algorithm>

namespace consensus::core {

Opinion ThreeMajorityKeep::update(Opinion current, OpinionSampler& neighbors,
                                  support::Rng& rng) const {
  SamplerDraws draws{neighbors};
  return update_from_draws(current, draws, rng);
}

bool ThreeMajorityKeep::keep_or_adopt(std::span<const double> sampling,
                                      std::vector<double>& adopt,
                                      double& keep) const {
  const std::size_t k = sampling.size();
  adopt.resize(k);
  double adopt_total = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const double q = sampling[j];
    adopt[j] = q * q * (3.0 - 2.0 * q);
    adopt_total += adopt[j];
  }
  keep = std::max(0.0, 1.0 - adopt_total);
  return true;
}

bool ThreeMajorityKeep::outcome_distribution_mixture(
    Opinion current, std::span<const double> sampling, std::uint64_t n_hint,
    std::vector<double>& out) const {
  (void)n_hint;
  double keep = 0.0;
  keep_or_adopt(sampling, out, keep);
  out[current] += keep;
  return true;
}

std::unique_ptr<Protocol> make_three_majority_keep() {
  return std::make_unique<ThreeMajorityKeep>();
}

}  // namespace consensus::core
