#include "consensus/core/h_majority.hpp"

#include <algorithm>
#include <stdexcept>

#include "consensus/support/sampling.hpp"
#include "consensus/support/simd_kernels.hpp"
#include "consensus/support/thread_pool.hpp"

namespace consensus::core {

HMajority::HMajority(unsigned h) : h_(h) {
  if (h == 0) throw std::invalid_argument("HMajority: h >= 1 required");
  name_ = "h-majority:" + std::to_string(h);
}

Opinion HMajority::update(Opinion current, OpinionSampler& neighbors,
                          support::Rng& rng) const {
  SamplerDraws draws{neighbors};
  return update_from_draws(current, draws, rng);
}

std::uint64_t HMajority::budget_workers() const noexcept {
  // Clamp to kShards: the enumeration parallelism is capped at the fixed
  // shard count, so a wider pool must not admit work the shards cannot
  // actually spread (per-worker work would exceed kWorkBudget and the
  // batched path would lose to the per-vertex fallback it is budgeted
  // against).
  if (pool_ == nullptr) return 1;
  return std::min<std::uint64_t>(pool_->thread_count(), kShards);
}

bool HMajority::compute_compact_law(std::span<const double> probs,
                                    std::uint64_t n_hint,
                                    std::vector<double>& out) const {
  // Histograms that put samples on a zero-probability slot contribute 0,
  // so the caller passes the positive support only: C(h+a-1, h) histograms
  // over a = probs.size() slots. Budget the *total work* (histograms ×
  // slots — each histogram costs one O(a) gather/multiply scan) before
  // building any scratch. The per-worker budget is n-AWARE: it is the
  // larger of the absolute floor kWorkBudget and kFallbackCostFactor·n·h,
  // the scaled cost of the per-vertex round the enumeration replaces — at
  // huge n an expensive enumeration still beats an O(n·h) fallback, so it
  // is accepted. A pool of W workers splits the enumeration W ways, so it
  // affords W× that.
  // h > 170 overflows the double factorial table to inf (NaN probabilities
  // downstream); update() allows such h, so decline to the exact fallback.
  if (h_ > 170) return false;
  const std::size_t a = probs.size();
  const std::uint64_t workers = budget_workers();
  const std::uint64_t histograms = support::num_compositions(h_, a);
  // Saturating n·h·factor: astronomically large n just means "any
  // enumeration beats the fallback".
  const auto sat_mul = [](std::uint64_t x, std::uint64_t y) {
    return x <= UINT64_MAX / y ? x * y : UINT64_MAX;
  };
  const std::uint64_t budget =
      std::max(kWorkBudget, sat_mul(sat_mul(n_hint, h_), kFallbackCostFactor));
  // Compare histograms/worker against budget/a: division keeps the
  // products (work per worker, scaled budget) out of overflow range.
  if (histograms / workers > budget / static_cast<std::uint64_t>(a)) {
    return false;
  }

  // Scratch is thread_local (not per-call heap, not mutable members): a
  // steady-state batched round allocates nothing, and one protocol
  // instance stays safe to share across engine threads. fact/the weight
  // table are written before the fan-out and read-only inside it.
  thread_local std::vector<double> fact;
  thread_local std::vector<double> inv_fact;
  thread_local std::vector<double> pow_table;
  thread_local std::vector<double> shard_out;

  // h <= 170 here (guarded above), so factorials fit in doubles.
  fact.resize(h_ + 1);
  inv_fact.resize(h_ + 1);
  fact[0] = 1.0;
  inv_fact[0] = 1.0;
  for (unsigned i = 1; i <= h_; ++i) {
    fact[i] = fact[i - 1] * i;
    inv_fact[i] = 1.0 / fact[i];
  }
  // pow_table[i*(h+1) + j] = probs[i]^j / j!: the factorial denominators
  // are folded into the table, so the per-histogram kernel is pure
  // gather + multiply (support::accumulate_histogram_term).
  support::build_pow_weight_table(probs, h_, inv_fact, pow_table);

  // One histogram's contribution: P = h!·∏(α_i^{c_i}/c_i!), spread
  // uniformly over the argmax counts — exactly update()'s tie-breaking.
  // Everything is in compact indices — `acc` slots line up with alive().
  // fact/pow_table are thread_local, which a lambda does NOT capture (each
  // thread would resolve its own, empty, instance): snapshot raw pointers
  // into the calling thread's buffers, which stay valid and read-only for
  // the whole fan-out.
  const unsigned h = h_;
  const double prefactor = fact[h];
  const double* const pow_p = pow_table.data();
  const auto integrate = [h, a, prefactor, pow_p](
                             std::span<const std::uint32_t> hist,
                             double* acc) {
    support::accumulate_histogram_term(pow_p, h + 1, hist.data(), a,
                                       prefactor, acc);
  };

  // When the vector kernel is live, the enumeration is STAGED through a
  // small ring of histogram rows: the colex advance scalar-writes its
  // scratch immediately before the integration, and a 128-bit load over
  // those in-flight stores cannot store-forward (~15-cycle stall per
  // load). Copying the row scalar-wise and integrating it kRing − 1
  // histograms later gives the stores time to retire. The delay reorders
  // NOTHING — each shard still integrates its exact colex sequence into
  // its own accumulator — so the law is bit-identical staged or not.
  // active_simd_isa() already folds the enable switch and any
  // CONSENSUS_SIMD pin: kScalar means every kernel call lands on the
  // scalar mirror, where staging buys nothing.
  const bool staged =
      support::active_simd_isa() != support::SimdIsa::kScalar;
  // One dispatch-count tick per LAW (not per histogram): the enumeration
  // below calls the kernel millions of times and the hot loop must stay
  // counter-free, so the wrapper does not count kHistogramTerm itself.
  if (staged) {
    support::note_simd_dispatch(support::SimdKernel::kHistogramTerm);
  }
  constexpr std::size_t kRing = 4;  // power of two; delay = kRing − 1
  const auto stage_feed = [a, &integrate](std::uint32_t* ring,
                                          std::uint64_t& t,
                                          std::span<const std::uint32_t> hist,
                                          double* acc) {
    std::uint32_t* row = ring + (t & (kRing - 1)) * a;
    for (std::size_t i = 0; i < a; ++i) row[i] = hist[i];
    if (t >= kRing - 1) {
      integrate({ring + ((t - (kRing - 1)) & (kRing - 1)) * a, a}, acc);
    }
    ++t;
  };
  const auto stage_drain = [a, &integrate](const std::uint32_t* ring,
                                           std::uint64_t t, double* acc) {
    for (std::uint64_t d = t >= kRing - 1 ? t - (kRing - 1) : 0; d < t; ++d) {
      integrate({ring + (d & (kRing - 1)) * a, a}, acc);
    }
  };

  out.assign(a, 0.0);
  if (histograms < kParallelThreshold) {
    if (staged) {
      thread_local std::vector<std::uint32_t> ring;
      ring.assign(kRing * a, 0);
      std::uint64_t t = 0;
      support::for_each_composition(
          h_, a, [&](std::span<const std::uint32_t> hist) {
            stage_feed(ring.data(), t, hist, out.data());
          });
      stage_drain(ring.data(), t, out.data());
    } else {
      support::for_each_composition(
          h_, a, [&](std::span<const std::uint32_t> hist) {
            integrate(hist, out.data());
          });
    }
    return true;
  }

  // Sharded path — taken whenever the enumeration is big enough to matter,
  // with or without a pool, so the shard boundaries and the reduction
  // order (and therefore the law, bit-for-bit) never depend on the thread
  // count. Only throughput does.
  const std::size_t shards =
      static_cast<std::size_t>(std::min<std::uint64_t>(kShards, histograms));
  shard_out.assign(shards * a, 0.0);
  double* const slab = shard_out.data();
  if (staged) {
    // Per-shard rings and counters, padded so concurrent shard workers
    // never share a cache line; raw pointers snapshot the calling
    // thread's buffers (thread_local, which lambdas do not capture).
    constexpr std::size_t kCounterStride = 8;  // uint64s per cache line
    const std::size_t ring_stride = kRing * a + 16;
    thread_local std::vector<std::uint32_t> rings;
    thread_local std::vector<std::uint64_t> ring_ts;
    rings.assign(shards * ring_stride, 0);
    ring_ts.assign(shards * kCounterStride, 0);
    std::uint32_t* const rings_p = rings.data();
    std::uint64_t* const ts_p = ring_ts.data();
    support::for_each_composition_parallel(
        pool_, h_, a, shards,
        [&, rings_p, ts_p](std::size_t shard,
                           std::span<const std::uint32_t> hist) {
          stage_feed(rings_p + shard * ring_stride,
                     ts_p[shard * kCounterStride], hist, slab + shard * a);
        });
    for (std::size_t s = 0; s < shards; ++s) {
      stage_drain(rings_p + s * ring_stride, ts_p[s * kCounterStride],
                  slab + s * a);
    }
  } else {
    support::for_each_composition_parallel(
        pool_, h_, a, shards,
        [&](std::size_t shard, std::span<const std::uint32_t> hist) {
          integrate(hist, slab + shard * a);
        });
  }
  for (std::size_t s = 0; s < shards; ++s) {
    const double* src = slab + s * a;
    for (std::size_t i = 0; i < a; ++i) out[i] += src[i];
  }
  return true;
}

bool HMajority::compute_alive_law(const Configuration& cur,
                                  std::vector<double>& out) const {
  const auto alive = cur.alive();
  thread_local std::vector<double> alphas;
  alphas.resize(alive.size());
  for (std::size_t i = 0; i < alive.size(); ++i)
    alphas[i] = cur.alpha(alive[i]);
  return compute_compact_law(alphas, cur.num_vertices(), out);
}

bool HMajority::outcome_distribution_alive(Opinion current,
                                           const Configuration& cur,
                                           std::vector<double>& out) const {
  (void)current;  // the rule ignores the holder's opinion
  return compute_alive_law(cur, out);
}

bool HMajority::outcome_distribution_mixture(Opinion current,
                                             std::span<const double> sampling,
                                             std::uint64_t n_hint,
                                             std::vector<double>& out) const {
  (void)current;  // the rule ignores the holder's opinion
  // Compact the neighbour law to its positive support — zero-probability
  // slots cannot appear in any sample histogram — then run the shared
  // enumeration kernel and scatter back to dense indices.
  thread_local std::vector<double> probs;
  thread_local std::vector<std::uint32_t> slots;
  probs.clear();
  slots.clear();
  for (std::size_t j = 0; j < sampling.size(); ++j) {
    if (sampling[j] > 0.0) {
      probs.push_back(sampling[j]);
      slots.push_back(static_cast<std::uint32_t>(j));
    }
  }
  if (probs.empty()) return false;
  thread_local std::vector<double> law;
  if (!compute_compact_law(probs, n_hint, law)) return false;
  out.assign(sampling.size(), 0.0);
  for (std::size_t i = 0; i < slots.size(); ++i) out[slots[i]] = law[i];
  return true;
}

std::unique_ptr<Protocol> make_h_majority(unsigned h) {
  return std::make_unique<HMajority>(h);
}

}  // namespace consensus::core
