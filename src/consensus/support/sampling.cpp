#include "consensus/support/sampling.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace consensus::support {
namespace {

// Inversion ("BINV"): walk the CDF from 0. Only used when n*p is small,
// so the expected number of iterations is <= ~30 and q^n cannot underflow.
std::uint64_t binomial_inversion(Rng& rng, std::uint64_t n, double p) {
  const double q = 1.0 - p;
  const double s = p / q;
  for (;;) {
    double f = std::pow(q, static_cast<double>(n));
    double u = rng.uniform01();
    std::uint64_t x = 0;
    bool overshoot = false;
    while (u > f) {
      u -= f;
      ++x;
      if (x > n) {  // numerical tail leak: restart (probability ~0)
        overshoot = true;
        break;
      }
      f *= s * (static_cast<double>(n - x + 1) / static_cast<double>(x));
    }
    if (!overshoot) return x;
  }
}

// Hörmann's BTRS transformed-rejection sampler. Requires p <= 0.5 and
// n*p >= 10. Expected O(1) uniforms per variate; exact.
std::uint64_t binomial_btrs(Rng& rng, std::uint64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double spq = std::sqrt(nd * p * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  // Constants of the exact acceptance test. Most variates pass the squeeze
  // test before it, so they (two lgamma calls) are set up on the first
  // candidate that needs them; the values, and so the stream, are the same.
  bool have_tail = false;
  double alpha = 0.0, lpq = 0.0, m = 0.0, h = 0.0;

  for (;;) {
    const double u = rng.uniform01() - 0.5;
    double v = rng.uniform01();
    const double us = 0.5 - std::fabs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(kd);
    if (!have_tail) {
      alpha = (2.83 + 5.1 / b) * spq;
      lpq = std::log(p / q);
      m = std::floor((nd + 1.0) * p);
      h = std::lgamma(m + 1.0) + std::lgamma(nd - m + 1.0);
      have_tail = true;
    }
    v = std::log(v * alpha / (a / (us * us) + b));
    const double accept =
        h - std::lgamma(kd + 1.0) - std::lgamma(nd - kd + 1.0) + (kd - m) * lpq;
    if (v <= accept) return static_cast<std::uint64_t>(kd);
  }
}

std::uint64_t poisson_inversion(Rng& rng, double mean) {
  const double limit = std::exp(-mean);
  for (;;) {
    std::uint64_t x = 0;
    double prod = rng.uniform01();
    while (prod > limit) {
      prod *= rng.uniform01();
      ++x;
      if (x > 10000) break;  // numeric guard; restart
    }
    if (x <= 10000) return x;
  }
}

// Hörmann's PTRS transformed-rejection sampler for Poisson, mean >= 10.
std::uint64_t poisson_ptrs(Rng& rng, double mean) {
  const double lmu = std::log(mean);
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);

  for (;;) {
    const double u = rng.uniform01() - 0.5;
    const double v = rng.uniform01();
    const double us = 0.5 - std::fabs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= v_r && kd >= 0.0)
      return static_cast<std::uint64_t>(kd);
    if (kd < 0.0 || (us < 0.013 && v > us)) continue;
    const double accept = kd * lmu - mean - std::lgamma(kd + 1.0);
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <= accept)
      return static_cast<std::uint64_t>(kd);
  }
}

}  // namespace

std::uint64_t binomial(Rng& rng, std::uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - binomial(rng, n, 1.0 - p);
  const double np = static_cast<double>(n) * p;
  return np < 10.0 ? binomial_inversion(rng, n, p) : binomial_btrs(rng, n, p);
}

void multinomial_into(Rng& rng, std::uint64_t n,
                      std::span<const double> weights, double total_weight,
                      std::vector<std::uint64_t>& out) {
  out.assign(weights.size(), 0);
  if (weights.empty()) {
    if (n > 0)
      throw std::invalid_argument("multinomial: no weights for n > 0 trials");
    return;
  }
  if (n == 0) return;  // fast path: the zero vector, weights untouched
  if (!(total_weight > 0.0))  // also rejects NaN sums
    throw std::invalid_argument("multinomial: weights sum to zero");

  // Conditional-binomial cascade. Validation is folded into the draw: a
  // negative weight throws when the cascade reaches it (out is caller
  // scratch, so a partial fill is harmless), and the loop stops as soon as
  // every trial is placed — peaked laws exit after a few slots.
  double rest = total_weight;
  std::uint64_t remaining = n;
  for (std::size_t i = 0; i + 1 < weights.size() && remaining > 0; ++i) {
    const double w = weights[i];
    if (w < 0.0) throw std::invalid_argument("multinomial: negative weight");
    if (w <= 0.0) {
      continue;  // rest unchanged is fine: w contributes 0
    }
    const double p = std::min(1.0, w / rest);
    const std::uint64_t draw = binomial(rng, remaining, p);
    out[i] = draw;
    remaining -= draw;
    rest -= w;
    if (rest <= 0.0) break;
  }
  if (remaining > 0) {
    // Whatever is left lands in the final positive-weight bucket; with
    // correctly normalised weights this is exactly the conditional law.
    std::size_t last = weights.size() - 1;
    while (last > 0 && weights[last] <= 0.0) --last;
    out[last] += remaining;
  }
}

void multinomial_into(Rng& rng, std::uint64_t n,
                      std::span<const double> weights,
                      std::vector<std::uint64_t>& out) {
  if (n == 0) {  // keep the fast path ahead of the O(k) accumulation
    out.assign(weights.size(), 0);
    return;
  }
  // Single accumulation pass, still branch-free (min vectorises like the
  // sum): the running minimum preserves the old up-front guarantee that NO
  // negative weight is accepted — the cascade's early exit must not skip
  // validation of the tail.
  double total = 0.0;
  double lowest = 0.0;
  for (double w : weights) {
    total += w;
    lowest = std::min(lowest, w);
  }
  if (lowest < 0.0)
    throw std::invalid_argument("multinomial: negative weight");
  multinomial_into(rng, n, weights, total, out);
}

std::vector<std::uint64_t> multinomial(Rng& rng, std::uint64_t n,
                                       std::span<const double> weights) {
  std::vector<std::uint64_t> out;
  multinomial_into(rng, n, weights, out);
  return out;
}

std::uint64_t hypergeometric(Rng& rng, std::uint64_t N, std::uint64_t K,
                             std::uint64_t n) {
  if (K > N || n > N) throw std::invalid_argument("hypergeometric: K,n <= N");
  if (n == 0 || K == 0) return 0;
  if (K == N) return n;
  const auto Nd = static_cast<double>(N);
  const auto Kd = static_cast<double>(K);
  const auto nd = static_cast<double>(n);
  const std::uint64_t x_min = (n + K > N) ? n + K - N : 0;
  const std::uint64_t x_max = std::min(n, K);

  // Mode-centred two-sided inversion. Starting the pmf recurrence at x_min
  // breaks down for large populations: pmf(x_min) underflows to 0 and the
  // scan to the mode costs O(mean). The mode's pmf is ~1/sigma (never
  // underflows) and the expected scan length outward from it is O(sigma).
  auto lchoose = [](double a, double b) {
    return std::lgamma(a + 1.0) - std::lgamma(b + 1.0) -
           std::lgamma(a - b + 1.0);
  };
  std::uint64_t mode = static_cast<std::uint64_t>(
      (nd + 1.0) * (Kd + 1.0) / (Nd + 2.0));
  mode = std::clamp(mode, x_min, x_max);
  const auto md = static_cast<double>(mode);
  const double logp =
      lchoose(Kd, md) + lchoose(Nd - Kd, nd - md) - lchoose(Nd, nd);
  const double pmf_mode = std::exp(logp);

  double u = rng.uniform01();
  if (u <= pmf_mode) return mode;
  u -= pmf_mode;
  std::uint64_t lo = mode, hi = mode;
  double flo = pmf_mode, fhi = pmf_mode;
  while (lo > x_min || hi < x_max) {
    if (hi < x_max) {
      const auto xd = static_cast<double>(hi);
      fhi *= (Kd - xd) * (nd - xd) /
             ((xd + 1.0) * (Nd - Kd - nd + xd + 1.0));
      ++hi;
      if (u <= fhi) return hi;
      u -= fhi;
    }
    if (lo > x_min) {
      const auto xd = static_cast<double>(lo);
      flo *= xd * (Nd - Kd - nd + xd) / ((Kd - xd + 1.0) * (nd - xd + 1.0));
      --lo;
      if (u <= flo) return lo;
      u -= flo;
    }
  }
  return mode;  // mass exhausted by rounding drift (probability ~0)
}

std::uint64_t poisson(Rng& rng, double mean) {
  if (mean <= 0.0) return 0;
  return mean < 10.0 ? poisson_inversion(rng, mean) : poisson_ptrs(rng, mean);
}

std::vector<std::uint64_t> sample_without_replacement(Rng& rng,
                                                      std::uint64_t n,
                                                      std::uint64_t k) {
  if (k > n)
    throw std::invalid_argument("sample_without_replacement: k > n");
  // Floyd's algorithm: expected O(k) with a hash-free quadratic fallback for
  // tiny k (k is always small in our use: adversary budgets).
  std::vector<std::uint64_t> chosen;
  chosen.reserve(k);
  for (std::uint64_t j = n - k; j < n; ++j) {
    const std::uint64_t t = rng.uniform_below(j + 1);
    if (std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
      chosen.push_back(t);
    } else {
      chosen.push_back(j);
    }
  }
  return chosen;
}

std::uint64_t num_compositions(unsigned h, std::size_t k) noexcept {
  if (k == 0) return h == 0 ? 1 : 0;
  // C(h+k-1, h) with overflow saturation via 128-bit intermediates.
  const std::uint64_t top = h + static_cast<std::uint64_t>(k) - 1;
  unsigned __int128 result = 1;
  for (std::uint64_t i = 1; i <= h; ++i) {
    result = result * (top - h + i) / i;  // exact: prefix is C(top-h+i, i)
    if (result > std::numeric_limits<std::uint64_t>::max()) {
      return std::numeric_limits<std::uint64_t>::max();
    }
  }
  return static_cast<std::uint64_t>(result);
}

void composition_unrank(unsigned h, std::size_t k, std::uint64_t rank,
                        std::vector<std::uint32_t>& out) {
  if (k == 0) throw std::invalid_argument("composition_unrank: k == 0");
  out.assign(k, 0);
  // The colex order fixes coordinates from the last slot down: all
  // histograms with a smaller c_{k-1} precede, then smaller c_{k-2}, and
  // so on. Peeling slots from the top, the number of histograms with
  // c_j = u (given s mass left for slots 0..j) is num_compositions(s-u, j),
  // so walk u upward subtracting block sizes until the rank falls inside.
  std::uint64_t s = h;  // mass still to place on slots 0..j
  for (std::size_t j = k - 1; j > 0; --j) {
    std::uint32_t u = 0;
    for (;;) {
      const std::uint64_t block =
          num_compositions(static_cast<unsigned>(s - u), j);
      if (rank < block) break;
      rank -= block;
      ++u;
      if (u > s)
        throw std::invalid_argument("composition_unrank: rank out of range");
    }
    out[j] = u;
    s -= u;
    if (s == 0 && rank == 0) return;  // remaining slots all zero
  }
  if (rank != 0)
    throw std::invalid_argument("composition_unrank: rank out of range");
  out[0] = static_cast<std::uint32_t>(s);
}

void AliasTable::rebuild(std::span<const double> weights) {
  const std::size_t n = weights.size();
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  if (n == 0) return;

  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("AliasTable: negative weight");
    total += w;
  }
  if (total <= 0.0)
    throw std::invalid_argument("AliasTable: weights sum to zero");

  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i)
    scaled[i] = weights[i] * static_cast<double>(n) / total;

  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (std::uint32_t i : large) prob_[i] = 1.0;
  for (std::uint32_t i : small) prob_[i] = 1.0;  // numerical leftovers

  // Single-draw path (see the header): slot bits 0..10 never overlap the
  // 53 threshold bits (r >> 11), so sizes up to 2^11 qualify. Non-power-
  // of-two sizes mask under bit_ceil(n) and reject candidates >= n with a
  // fresh word — the accepted slot is exactly uniform and acceptance
  // exceeds 1/2; power-of-two sizes never reject, so their stream is
  // unchanged from the original single-draw release. The integer
  // threshold is exact: prob·2^53 is a power-of-two scaling (no rounding)
  // and m < prob·2^53 for the 53-bit uniform m = (r >> 11) iff
  // m < ceil(prob·2^53) — the very same acceptance set as uniform01().
  single_draw_ = n <= 2048;
  if (single_draw_) {
    mask_ = std::bit_ceil(n) - 1;
    threshold_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      threshold_[i] = static_cast<std::uint64_t>(
          std::ceil(prob_[i] * 9007199254740992.0));  // 2^53
    }
  } else {
    threshold_.clear();
    mask_ = 0;
  }
}

void AliasCounter::rebuild(std::span<const double> weights) {
  slots_.clear();
  weights_.clear();
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] < 0.0)
      throw std::invalid_argument("AliasCounter: negative weight");
    if (weights[i] > 0.0) {
      slots_.push_back(static_cast<std::uint32_t>(i));
      weights_.push_back(weights[i]);
    }
  }
  if (slots_.empty())
    throw std::invalid_argument("AliasCounter: weights sum to zero");
  table_.rebuild(weights_);
}

void AliasCounter::add_counts(Rng& rng, std::uint64_t n,
                              std::span<std::uint64_t> out) const {
  for (std::uint64_t i = 0; i < n; ++i) ++out[slots_[table_.sample(rng)]];
}

void IncrementalCountAlias::reset(std::span<const std::uint64_t> counts) {
  counts_.assign(counts.begin(), counts.end());
  support_.clear();
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] > 0) support_.push_back(static_cast<std::uint32_t>(i));
  }
  rebuild_table();
}

void IncrementalCountAlias::sync(std::span<const std::uint64_t> counts) {
  if (counts.size() != counts_.size()) {
    reset(counts);
    return;
  }
  bool dirty = false;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t next = counts[i];
    const std::uint64_t prev = counts_[i];
    if (next == prev) continue;
    dirty = true;
    if (prev == 0) {
      // 0 → positive: sorted insert keeps support_ identical to a fresh
      // scan (the bit-equality contract with reset()).
      const auto pos = std::lower_bound(support_.begin(), support_.end(),
                                        static_cast<std::uint32_t>(i));
      support_.insert(pos, static_cast<std::uint32_t>(i));
    } else if (next == 0) {
      const auto pos = std::lower_bound(support_.begin(), support_.end(),
                                        static_cast<std::uint32_t>(i));
      support_.erase(pos);
    }
    counts_[i] = next;
  }
  if (dirty) rebuild_table();
}

void IncrementalCountAlias::rebuild_table() {
  if (support_.empty())
    throw std::invalid_argument("IncrementalCountAlias: all counts are zero");
  weights_.resize(support_.size());
  for (std::size_t j = 0; j < support_.size(); ++j)
    weights_[j] = static_cast<double>(counts_[support_[j]]);
  table_.rebuild(weights_);
}

FenwickSampler::FenwickSampler(std::span<const std::uint64_t> counts)
    : n_(counts.size()), tree_(counts.size() + 1, 0) {
  for (std::size_t i = 0; i < n_; ++i) {
    tree_[i + 1] += counts[i];
    const std::size_t parent = (i + 1) + ((i + 1) & (~i));  // i+1 + lowbit
    if (parent <= n_) tree_[parent] += tree_[i + 1];
    total_ += counts[i];
  }
}

void FenwickSampler::add(std::size_t i, std::int64_t delta) {
  if (delta < 0 &&
      count(i) < static_cast<std::uint64_t>(-delta))
    throw std::invalid_argument("FenwickSampler: count would go negative");
  total_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(total_) + delta);
  for (std::size_t j = i + 1; j <= n_; j += j & (~j + 1)) {
    tree_[j] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(tree_[j]) + delta);
  }
}

std::uint64_t FenwickSampler::count(std::size_t i) const {
  // prefix(i+1) - prefix(i)
  auto prefix = [this](std::size_t j) {
    std::uint64_t s = 0;
    for (; j > 0; j -= j & (~j + 1)) s += tree_[j];
    return s;
  };
  return prefix(i + 1) - prefix(i);
}

std::size_t FenwickSampler::sample(Rng& rng) const {
  if (total_ == 0)
    throw std::logic_error("FenwickSampler: sampling from empty sampler");
  std::uint64_t target = rng.uniform_below(total_);
  std::size_t pos = 0;
  std::size_t mask = 1;
  while ((mask << 1) <= n_) mask <<= 1;
  for (; mask > 0; mask >>= 1) {
    const std::size_t next = pos + mask;
    if (next <= n_ && tree_[next] <= target) {
      target -= tree_[next];
      pos = next;
    }
  }
  return pos;  // 0-based index
}

}  // namespace consensus::support
