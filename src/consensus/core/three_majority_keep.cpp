#include "consensus/core/three_majority_keep.hpp"

#include <algorithm>
#include <stdexcept>

#include "consensus/support/sampling.hpp"

namespace consensus::core {

Opinion ThreeMajorityKeep::update(Opinion current, OpinionSampler& neighbors,
                                  support::Rng& rng) const {
  SamplerDraws draws{neighbors};
  return update_from_draws(current, draws, rng);
}

bool ThreeMajorityKeep::step_counts(const Configuration& cur,
                                    std::vector<std::uint64_t>& next,
                                    support::Rng& rng) const {
  // Exact O(k) transition, mirroring the 2-Choices keep/redraw split.
  // Pr[some opinion j sampled >= 2 of 3 times] = 3α_j²(1−α_j) + α_j³
  //   = α_j²(3 − 2α_j)                                   =: adopt weight
  // Pr[all three distinct] = 1 − Σ_j α_j²(3 − 2α_j)      =: keep
  // The adopt event and destination are independent of the holder's
  // opinion, so per group: keepers ~ Bin(count, keep); adopters' targets
  // are a single multinomial with weights α_j²(3 − 2α_j).
  const auto n = cur.num_vertices();
  const auto nd = static_cast<double>(n);
  const std::size_t k = cur.num_opinions();

  std::vector<double> adopt(k);
  double adopt_total = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const double a = static_cast<double>(cur.counts()[j]) / nd;
    adopt[j] = a * a * (3.0 - 2.0 * a);
    adopt_total += adopt[j];
  }
  const double keep_prob = 1.0 - adopt_total;

  next.assign(k, 0);
  std::uint64_t adopters = n;
  for (std::size_t j = 0; j < k; ++j) {
    const std::uint64_t z = support::binomial(rng, cur.counts()[j], keep_prob);
    next[j] = z;
    adopters -= z;
  }
  if (adopters > 0) {
    std::vector<std::uint64_t> dest;
    support::multinomial_into(rng, adopters, adopt, dest);
    for (std::size_t j = 0; j < k; ++j) next[j] += dest[j];
  }
  return true;
}

bool ThreeMajorityKeep::outcome_distribution_alive(
    Opinion current, const Configuration& cur,
    std::vector<double>& out) const {
  const auto alive = cur.alive();
  const std::size_t a = alive.size();
  // Sparse rounds draw one multinomial per alive group — O(a²) work; the
  // step_counts closed form is O(k). Take the sparse path only where it
  // undercuts the closed form (many extinct slots).
  if (a * a > cur.num_opinions()) return false;

  const auto nd = static_cast<double>(cur.num_vertices());
  out.resize(a);
  double adopt_total = 0.0;
  std::size_t self = a;  // compact index of `current`
  for (std::size_t i = 0; i < a; ++i) {
    if (alive[i] == current) self = i;
    const double al = static_cast<double>(cur.counts()[alive[i]]) / nd;
    out[i] = al * al * (3.0 - 2.0 * al);
    adopt_total += out[i];
  }
  if (self == a) {
    throw std::invalid_argument(
        "ThreeMajorityKeep::outcome_distribution_alive: current must be "
        "alive");
  }
  // Same decomposition as step_counts, as one vertex's law:
  //   P(adopt j)  = α_j²(3 − 2α_j)                      for every j,
  //   P(keep own) = 1 − Σ_j α_j²(3 − 2α_j)   added onto slot `current`.
  // Clamp the keep mass: the adopt weights sum to 1 only at consensus, but
  // floating-point summation may overshoot by an ulp.
  out[self] += std::max(0.0, 1.0 - adopt_total);
  return true;
}

bool ThreeMajorityKeep::outcome_distribution_mixture(
    Opinion current, std::span<const double> sampling, std::uint64_t n_hint,
    std::vector<double>& out) const {
  (void)n_hint;
  const std::size_t k = sampling.size();
  out.resize(k);
  double adopt_total = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const double q = sampling[j];
    out[j] = q * q * (3.0 - 2.0 * q);
    adopt_total += out[j];
  }
  out[current] += std::max(0.0, 1.0 - adopt_total);
  return true;
}

std::unique_ptr<Protocol> make_three_majority_keep() {
  return std::make_unique<ThreeMajorityKeep>();
}

}  // namespace consensus::core
