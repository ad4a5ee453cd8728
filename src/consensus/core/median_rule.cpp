#include "consensus/core/median_rule.hpp"

#include <algorithm>
#include <stdexcept>

namespace consensus::core {

bool MedianRule::outcome_distribution_alive(Opinion current,
                                            const Configuration& cur,
                                            std::vector<double>& out) const {
  // With a, b i.i.d. categorical(α), median(c, a, b) lands
  //   below c on m < c  iff max(a,b) = m:  F(m)² − F(m−1)²,
  //   above c on m > c  iff min(a,b) = m:  G(m)² − G(m+1)²,
  //   on c itself       with the remaining mass,
  // where F is the CDF and G the survival function of α. F and G are
  // accumulated over the alive index only — extinct slots contribute
  // nothing to either, so skipping them changes no value. alive() is
  // sorted, so the prefix/suffix walks respect the opinion order.
  const auto alive = cur.alive();
  const std::size_t a = alive.size();
  const double nd = static_cast<double>(cur.num_vertices());

  // The sparse batched round costs O(a) per group, O(a²) per round; the
  // per-vertex fallback O(2n). Decline when batching is the slower path.
  if (static_cast<double>(a) * static_cast<double>(a) > 8.0 * nd) {
    return false;
  }

  const auto it = std::lower_bound(alive.begin(), alive.end(), current);
  if (it == alive.end() || *it != current) {
    throw std::invalid_argument(
        "MedianRule::outcome_distribution_alive: current must be alive");
  }
  const std::size_t idx = static_cast<std::size_t>(it - alive.begin());

  out.assign(a, 0.0);
  double below = 0.0;  // F entering the iteration
  for (std::size_t pos = 0; pos < idx; ++pos) {
    const double f =
        below + static_cast<double>(cur.counts()[alive[pos]]) / nd;
    out[pos] = f * f - below * below;
    below = f;
  }
  double above = 0.0;  // G entering the iteration
  for (std::size_t pos = a; pos-- > idx + 1;) {
    const double g =
        above + static_cast<double>(cur.counts()[alive[pos]]) / nd;
    out[pos] = g * g - above * above;
    above = g;
  }
  // P(stay) = 1 − P(both samples < c) − P(both samples > c); clamp so
  // accumulated rounding on the two sums can never hand the multinomial a
  // (tiny) negative weight.
  out[idx] = std::max(0.0, 1.0 - below * below - above * above);
  return true;
}

bool MedianRule::outcome_distribution_mixture(Opinion current,
                                              std::span<const double> sampling,
                                              std::uint64_t n_hint,
                                              std::vector<double>& out) const {
  // The same CDF walk over all k slots, with F/G accumulated over the
  // neighbour law q instead of the holder's own frequencies. O(k) per
  // group — no budget gate: the class engine's group count is bounded by
  // C·a, never n.
  (void)n_hint;
  const std::size_t k = sampling.size();
  out.assign(k, 0.0);
  double below = 0.0;
  for (std::size_t m = 0; m < current; ++m) {
    const double f = below + sampling[m];
    out[m] = f * f - below * below;
    below = f;
  }
  double above = 0.0;
  for (std::size_t m = k - 1; m > current; --m) {
    const double g = above + sampling[m];
    out[m] = g * g - above * above;
    above = g;
  }
  out[current] = std::max(0.0, 1.0 - below * below - above * above);
  return true;
}

std::unique_ptr<Protocol> make_median_rule() {
  return std::make_unique<MedianRule>();
}

}  // namespace consensus::core
