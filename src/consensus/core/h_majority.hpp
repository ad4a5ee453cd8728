// h-Majority (§2.5): each vertex samples h uniformly random neighbours and
// adopts the most frequent opinion among the h samples, breaking ties
// uniformly at random. h = 3 is distributionally equivalent to the paper's
// 3-Majority rule on any vertex-transitive sampling model; h = 1 is the
// voter model.
//
// No closed-form O(k) counting transition exists for h >= 4, but the
// one-round law of a single vertex IS computable by summing over the
// C(h+a-1, h) histograms of the h samples across the a alive opinions.
// The law is computed ENTIRELY in compact alive space
// (`outcome_distribution_alive`): O(C(h+a-1, h)·a) arithmetic touching no
// extinct slot; the mixture law (`outcome_distribution_mixture`) runs the
// same kernel over the positive support of q. The rule ignores the
// holder's opinion, so the counting engine collapses the whole round into
// one Multinomial(n, ·) draw.
//
// Above `kParallelThreshold` histograms the enumeration is split into
// `kShards` contiguous colex-rank ranges (`for_each_composition_parallel`)
// with per-shard accumulators reduced in shard order — the LAW is
// bit-identical for every pool size. The pool additionally scales the
// enumeration budgets (a W-worker pool affords W× the serial
// histogram/work budget before declining to the per-vertex fallback),
// and budget-boundary configurations therefore take a different — equally
// exact — sampling path with a different RNG consumption: treat
// `engine_threads` as part of the scenario when trajectory-level
// reproducibility matters (and avoid engine_threads = 0, which sizes the
// pool per machine).
#pragma once

#include "consensus/core/fused.hpp"

#include <stdexcept>
#include <string>

namespace consensus::core {

class HMajority final : public FusedProtocol<HMajority> {
 public:
  /// Per-worker floor on enumeration work (histograms × alive opinions,
  /// each histogram costing one O(a) table-lookup/multiply scan) accepted
  /// regardless of n. Below this the batched law is cheap in absolute
  /// terms, so no cost comparison is needed.
  static constexpr std::uint64_t kWorkBudget = 40'000'000;
  /// The n-aware cutover: the per-vertex fallback costs n·h neighbour
  /// samples per round, each several times the cost of one enumeration
  /// element (alias draw + RNG vs gather + multiply). Enumeration work up
  /// to kFallbackCostFactor·n·h per worker therefore still undercuts the
  /// fallback round it replaces — at n = 10⁸ a work-1.2·10⁸ enumeration
  /// (h = 11, k = 16) is accepted even serially, where the n-blind budget
  /// used to force a minutes-long per-vertex round.
  static constexpr std::uint64_t kFallbackCostFactor = 4;
  /// Below this many histograms the plain serial enumeration wins (shard
  /// setup would dominate); at or above it the sharded path runs — inline
  /// without a pool, on the pool otherwise, same result bit-for-bit.
  static constexpr std::uint64_t kParallelThreshold = 32'768;
  /// Fixed shard count for the partitioned enumeration. Deliberately NOT a
  /// function of the pool width: shard boundaries and the reduction order
  /// must be identical for every thread count.
  static constexpr std::size_t kShards = 64;

  explicit HMajority(unsigned h);

  std::string_view name() const noexcept override { return name_; }
  unsigned samples_per_update() const noexcept override { return h_; }

  /// Non-virtual rule body shared by the virtual entry point and the fused
  /// engine kernels. For h <= 64 all h neighbour opinions are drawn up
  /// front in ONE `draw_many` batch (the tight sampler loop the fused
  /// engines optimise), then tallied; the tally consumes no randomness, so
  /// the RNG stream is identical to the interleaved draw-and-tally form
  /// used for larger h.
  template <typename Draws>
  Opinion update_from_draws(Opinion current, Draws& draws,
                            support::Rng& rng) const {
    (void)current;
    // Reservoir-style argmax with uniform tie-breaking over the h samples.
    // h is small (<= ~15 in practice), so a flat scratch array beats a map.
    Opinion samples[64];
    unsigned counts[64];
    unsigned distinct = 0;
    const auto tally = [&](Opinion o) {
      for (unsigned d = 0; d < distinct; ++d) {
        if (samples[d] == o) {
          ++counts[d];
          return;
        }
      }
      if (distinct == 64)
        throw std::logic_error("HMajority: h > 64 unsupported");
      samples[distinct] = o;
      counts[distinct] = 1;
      ++distinct;
    };
    if (h_ <= 64) {
      Opinion buf[64];
      draws.draw_many(rng, buf, h_);
      for (unsigned s = 0; s < h_; ++s) tally(buf[s]);
    } else {
      for (unsigned s = 0; s < h_; ++s) tally(draws.draw(rng));
    }
    unsigned best = 0;
    unsigned ties = 1;
    for (unsigned d = 1; d < distinct; ++d) {
      if (counts[d] > counts[best]) {
        best = d;
        ties = 1;
      } else if (counts[d] == counts[best]) {
        // Uniform choice among ties via reservoir sampling.
        ++ties;
        if (rng.uniform_below(ties) == 0) best = d;
      }
    }
    return samples[best];
  }

  Opinion update(Opinion current, OpinionSampler& neighbors,
                 support::Rng& rng) const override;

  bool outcome_distribution_alive(Opinion current, const Configuration& cur,
                                  std::vector<double>& out) const override;

  /// The same histogram enumeration over an arbitrary neighbour law q
  /// (restricted to its positive support): the kernel below never cared
  /// that the probabilities came from the holder's own configuration.
  /// n_hint feeds the n-aware enumeration budget exactly as
  /// cur.num_vertices() does on the configuration-keyed paths.
  bool outcome_distribution_mixture(Opinion current,
                                    std::span<const double> sampling,
                                    std::uint64_t n_hint,
                                    std::vector<double>& out) const override;

  bool outcome_depends_on_current() const noexcept override { return false; }

  void set_thread_pool(support::ThreadPool* pool) noexcept override {
    pool_ = pool;
  }

  /// Budget scale factor: pool workers clamped to kShards (1 without a
  /// pool) — the enumeration cannot spread wider than the shard count.
  std::uint64_t budget_workers() const noexcept;

 private:
  /// Shared kernel: integrates the one-round law over the histograms of
  /// the h samples on an arbitrary COMPACT positive probability vector
  /// (probs[i] > 0, summing to ~1), writing the compact law into `out`
  /// (out[i] = P(argmax lands on compact slot i)). `n_hint` is the
  /// population the law will be applied to, for the n-aware budget.
  /// Returns false when over budget.
  bool compute_compact_law(std::span<const double> probs,
                           std::uint64_t n_hint,
                           std::vector<double>& out) const;

  /// compute_compact_law over cur's alive frequencies with
  /// n_hint = cur.num_vertices() — the configuration-keyed law
  /// (out[i] = P(next == cur.alive()[i])).
  bool compute_alive_law(const Configuration& cur,
                         std::vector<double>& out) const;

  unsigned h_;
  std::string name_;
  support::ThreadPool* pool_ = nullptr;
};

}  // namespace consensus::core
