#include "consensus/core/two_choices.hpp"

#include <algorithm>

namespace consensus::core {

Opinion TwoChoices::update(Opinion current, OpinionSampler& neighbors,
                           support::Rng& rng) const {
  SamplerDraws draws{neighbors};
  return update_from_draws(current, draws, rng);
}

bool TwoChoices::keep_or_adopt(std::span<const double> sampling,
                               std::vector<double>& adopt,
                               double& keep) const {
  const std::size_t k = sampling.size();
  adopt.resize(k);
  double gamma = 0.0;  // Pr[both samples agree]
  for (std::size_t j = 0; j < k; ++j) {
    adopt[j] = sampling[j] * sampling[j];
    gamma += adopt[j];
  }
  keep = std::max(0.0, 1.0 - gamma);
  return true;
}

bool TwoChoices::outcome_distribution_mixture(Opinion current,
                                              std::span<const double> sampling,
                                              std::uint64_t n_hint,
                                              std::vector<double>& out) const {
  (void)n_hint;
  double keep = 0.0;
  keep_or_adopt(sampling, out, keep);
  out[current] += keep;
  return true;
}

std::unique_ptr<Protocol> make_two_choices() {
  return std::make_unique<TwoChoices>();
}

}  // namespace consensus::core
