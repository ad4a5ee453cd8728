// Exact samplers for the distributions the consensus engines need.
//
// Everything here is exact (no normal approximations): the counting engine's
// claim of being a *distributionally exact* simulation of the Markov chains
// in Definition 3.1 rests on these samplers. Binomial uses inversion for
// small mean and Hörmann's BTRS transformed-rejection for large mean;
// multinomial is the standard conditional-binomial cascade; categorical
// sampling uses Vose's alias method.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "consensus/support/rng.hpp"
#include "consensus/support/thread_pool.hpp"

namespace consensus::support {

/// Version of the sampling layer's RNG draw path. A checkpointed run
/// replays bit-exactly only under the draw-path version that wrote it,
/// because the samplers' RNG consumption is part of the trajectory:
///   1  original two-draw alias sampling
///   2  single-draw alias path for power-of-two table sizes <= 2048
///   3  fixed-point rejection extends the single-draw path to ALL table
///      sizes <= 2048
///   4  keep-or-adopt rounds (2-Choices, 3-Majority-keep): O(a) keeper
///      binomials plus one adopt multinomial per class, in place of one
///      multinomial per alive group; unchanged on the K_n closed form
///   5  class-engine multinomials over a per-mixture law (the anonymous
///      law, the keep-or-adopt adopt law) with n <= 8·a trials count n
///      draws from one alias table over the law's a positive weights
///      (AliasCounter) in place of the cascade; K_n rounds unchanged
///      (current)
/// core::EngineCheckpoint records this value on save and refuses to load
/// under a different one — a version mismatch is a clear error instead of
/// a silently divergent resumed trajectory.
inline constexpr std::uint32_t kRngDrawPathVersion = 5;

/// Exact Binomial(n, p) sample. Handles all edge cases (p<=0, p>=1, n==0).
/// Cost: O(np) for small np (inversion), O(1) expected otherwise (BTRS).
std::uint64_t binomial(Rng& rng, std::uint64_t n, double p);

/// Exact Multinomial(n, weights/sum(weights)) via conditional binomials.
/// `weights` must be non-negative with a positive sum; returns a count
/// vector of the same length summing to exactly n.
std::vector<std::uint64_t> multinomial(Rng& rng, std::uint64_t n,
                                       std::span<const double> weights);

/// In-place variant writing into `out` (resized to weights.size()).
/// One O(k) accumulation pass (sum + running min, both vectorisable — any
/// negative weight still throws up front) plus the draw loop, which exits
/// as soon as all n trials are placed; n == 0 returns the zero vector
/// without touching the weights.
void multinomial_into(Rng& rng, std::uint64_t n,
                      std::span<const double> weights,
                      std::vector<std::uint64_t>& out);

/// Sparse overload for callers that already know the weight sum AND
/// guarantee non-negative weights (e.g. a normalised probability law):
/// skips the accumulation pass entirely, so a draw over the a alive
/// opinions is ONE O(a) scan. Validation is folded into the draw here — a
/// negative weight throws only if the cascade reaches it before placing
/// every trial.
void multinomial_into(Rng& rng, std::uint64_t n,
                      std::span<const double> weights, double total_weight,
                      std::vector<std::uint64_t>& out);

/// Method rule for a multinomial of n trials over a law with a positive
/// weights that one alias table can serve for several draws: counting n
/// AliasCounter draws (O(n) after one O(k + a) build) beats the
/// conditional-binomial cascade (close to a binomials) while
/// n <= kTableCountingFactor · a. A pure function of (n, a) — never of
/// threads, timing or workload — so the draw path, and with it every
/// trajectory, is fixed by the counts alone. The factor sits well under
/// the measured crossover (n ≈ 25·a at k = a = 1024); end-to-end runs at
/// k = 1024 did not separate factors 4, 8 and 16 beyond run-to-run spread.
inline constexpr std::uint64_t kTableCountingFactor = 8;
constexpr bool prefer_table_counting(std::uint64_t n, std::size_t a) noexcept {
  return n <= kTableCountingFactor * a;
}

/// Exact Hypergeometric(population N, successes K, draws n) via inversion.
/// Returns number of successes among the draws. O(result) time.
std::uint64_t hypergeometric(Rng& rng, std::uint64_t N, std::uint64_t K,
                             std::uint64_t n);

/// Exact Poisson(mean) — inversion for small mean, PTRS rejection otherwise.
std::uint64_t poisson(Rng& rng, double mean);

/// Floyd's algorithm: k distinct uniform samples from {0,...,n-1}.
/// O(k) expected time, output unsorted.
std::vector<std::uint64_t> sample_without_replacement(Rng& rng,
                                                      std::uint64_t n,
                                                      std::uint64_t k);

/// Number of weak compositions of h into k parts, C(h+k-1, h) — the number
/// of distinct histograms h neighbour samples can form over k opinion slots.
/// Saturates at UINT64_MAX on overflow (callers compare against a budget).
std::uint64_t num_compositions(unsigned h, std::size_t k) noexcept;

/// Enumerates every histogram (c_0, ..., c_{k-1}) of non-negative integers
/// summing to h — all C(h+k-1, h) ways h i.i.d. neighbour samples can land
/// on k opinion slots — calling fn(span<const uint32_t>) once per histogram.
/// The span aliases internal scratch: copy it if it must outlive the call.
/// Batched counting transitions integrate the one-round law over these.
/// Iterative (O(1) auxiliary state, no recursion), so k is unbounded;
/// callers budget the total C(h+k-1, h)·k work via num_compositions.
template <typename Fn>
void for_each_composition(unsigned h, std::size_t k, Fn&& fn) {
  if (k == 0) return;
  thread_local std::vector<std::uint32_t> c;  // reused: hot-path, no allocs
  c.assign(k, 0);
  c[0] = h;
  const std::span<const std::uint32_t> view(c.data(), c.size());
  if (h == 0) {
    fn(view);
    return;
  }
  for (;;) {
    fn(view);
    // Next composition in colex order: move the lowest-indexed mass one
    // slot right, dumping any excess back onto slot 0.
    std::size_t i = 0;
    while (c[i] == 0) ++i;
    if (i + 1 == k) return;  // all mass in the last slot: enumeration done
    const std::uint32_t v = c[i];
    c[i] = 0;
    c[0] = v - 1;
    ++c[i + 1];
  }
}

/// Writes the composition with colex rank `rank` (the order
/// for_each_composition enumerates, 0-based) into `out` (resized to k).
/// Requires rank < num_compositions(h, k). O(k·h) arithmetic.
void composition_unrank(unsigned h, std::size_t k, std::uint64_t rank,
                        std::vector<std::uint32_t>& out);

/// Enumerates the compositions with colex rank in [first, last) — a
/// contiguous slice of exactly the sequence for_each_composition produces —
/// calling fn(span<const uint32_t>) once per histogram. The span aliases
/// thread_local scratch, so concurrent calls on different threads are
/// independent. This is the building block under the prefix-partitioned
/// parallel enumeration.
template <typename Fn>
void for_each_composition_range(unsigned h, std::size_t k, std::uint64_t first,
                                std::uint64_t last, Fn&& fn) {
  if (k == 0 || first >= last) return;
  thread_local std::vector<std::uint32_t> c;  // reused: hot-path, no allocs
  composition_unrank(h, k, first, c);
  const std::span<const std::uint32_t> view(c.data(), c.size());
  for (std::uint64_t r = first;;) {
    fn(view);
    if (++r == last) return;
    // Same colex successor as for_each_composition. r < num_compositions
    // guarantees a successor exists, so i + 1 < k here.
    std::size_t i = 0;
    while (c[i] == 0) ++i;
    const std::uint32_t v = c[i];
    c[i] = 0;
    c[0] = v - 1;
    ++c[i + 1];
  }
}

/// Prefix-partitioned parallel enumeration: splits the C(h+k-1, h)
/// histograms into `shards` contiguous colex-rank ranges (first-coordinate
/// prefixes of the colex sequence) and runs them across `pool` via
/// parallel_for, calling fn(shard_index, histogram). Shard boundaries
/// depend only on (h, k, shards) — NEVER on the pool size — so per-shard
/// accumulators reduced in shard order yield bit-identical results for
/// every thread count, including pool == nullptr (serial). Requires
/// num_compositions(h, k) not saturated (callers budget first). fn must be
/// safe to call concurrently for different shards.
template <typename Fn>
void for_each_composition_parallel(ThreadPool* pool, unsigned h, std::size_t k,
                                   std::size_t shards, Fn&& fn) {
  const std::uint64_t total = num_compositions(h, k);
  if (total == 0) return;
  if (shards == 0) shards = 1;
  if (static_cast<std::uint64_t>(shards) > total) {
    shards = static_cast<std::size_t>(total);
  }
  const std::uint64_t base = total / shards;
  const std::uint64_t extra = total % shards;
  const auto run_shard = [&](std::size_t s) {
    const std::uint64_t lo =
        base * s + std::min<std::uint64_t>(s, extra);
    const std::uint64_t hi = lo + base + (s < extra ? 1 : 0);
    for_each_composition_range(
        h, k, lo, hi,
        [&](std::span<const std::uint32_t> hist) { fn(s, hist); });
  };
  if (pool == nullptr || pool->thread_count() <= 1 || shards <= 1) {
    for (std::size_t s = 0; s < shards; ++s) run_shard(s);
  } else {
    parallel_for(*pool, shards, run_shard);
  }
}

/// Vose alias table: O(n) build, O(1) exact categorical sampling.
/// Weights must be non-negative with positive sum.
///
/// For any size up to 2048 a draw costs ONE 64-bit RNG value in
/// expectation close to one: the low 11 bits pick a slot candidate under
/// the next-power-of-two mask (rejecting candidates >= size keeps the
/// accepted slot exactly uniform — no rejection at all when size is a
/// power of two) and the top 53 bits, compared against ceil(prob·2^53) as
/// an integer, decide slot vs alias. The bit fields are disjoint, so the
/// pair is independent on every (fresh) word, and the integer threshold
/// accepts exactly the same 2^-53-grid uniforms the two-draw
/// `uniform01() < prob` comparison would — the identical distribution at
/// under half the RNG cost (acceptance > 1/2, so < 2 words expected even
/// for the worst non-power-of-two size). This is what holds the
/// mean-field agent fast path at L1 speed.
///
/// NOTE: which path runs is deterministic per size but a BEHAVIOURAL
/// CHANGE across library versions — a draw on the single-draw path
/// consumes a different RNG stream than the two-draw form, so
/// trajectories of AliasTable consumers differ from earlier builds:
/// power-of-two sizes <= 2048 changed when the single-draw path shipped,
/// and the remaining sizes <= 2048 changed when the fixed-point-rejection
/// extension lifted the power-of-two restriction. Reproducibility is
/// per-version: replay checkpoints with the binary that wrote them (the
/// same caveat PR 4's pool-scaled budgets already carry, see
/// h_majority.hpp). Tables larger than 2048 slots keep the two-draw form.
class AliasTable {
 public:
  AliasTable() = default;
  explicit AliasTable(std::span<const double> weights) { rebuild(weights); }

  void rebuild(std::span<const double> weights);

  std::size_t size() const noexcept { return prob_.size(); }
  bool empty() const noexcept { return prob_.empty(); }

  /// Draws an index in [0, size()) with probability proportional to its
  /// build-time weight. Consumes one 64-bit RNG word per rejection-loop
  /// iteration on the single-draw path (size <= 2048; exactly one word
  /// when size is a power of two), two draws otherwise — which path runs
  /// is a deterministic function of size(), so streams stay reproducible.
  std::size_t sample(Rng& rng) const noexcept {
    if (single_draw_) {
      for (;;) {
        const std::uint64_t r = rng();
        const std::size_t slot = static_cast<std::size_t>(r & mask_);
        // Candidates past size() are rejected with a FRESH word, so the
        // accepted slot stays exactly uniform and the top 53 bits stay
        // independent of it. mask_ < 2·size(): acceptance > 1/2.
        if (slot >= prob_.size()) continue;
        return (r >> 11) < threshold_[slot] ? slot : alias_[slot];
      }
    }
    const std::size_t slot = rng.uniform_below(prob_.size());
    return rng.uniform01() < prob_[slot] ? slot : alias_[slot];
  }

  /// Byte-for-byte table equality (the fuzz oracle for incremental
  /// builds): same weights, same build path ⇒ same tables, exactly.
  friend bool operator==(const AliasTable&, const AliasTable&) = default;

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
  std::vector<std::uint64_t> threshold_;  // ceil(prob·2^53), single-draw path
  std::uint64_t mask_ = 0;     // bit_ceil(size) − 1 when single_draw_
  bool single_draw_ = false;
};

/// Exact Multinomial(n, weights) by counting n independent categorical
/// draws — the alternative to multinomial_into's cascade when n is small
/// against the support (prefer_table_counting). The Vose table is built
/// over the a positive-weight slots only, so a zero weight can never
/// receive a count, and one build serves every draw over the same law.
class AliasCounter {
 public:
  /// O(k) scan for the positive slots plus an O(a) Vose build over their
  /// weights. Weights must be non-negative with a positive sum.
  void rebuild(std::span<const double> weights);

  /// a: the number of positive weights of the last build.
  std::size_t support_size() const noexcept { return slots_.size(); }

  /// Adds the counts of n draws to `out`, which must span the build's
  /// weights. Draw path: n AliasTable::sample calls on the compact a-slot
  /// table, one after another (one RNG word each in expectation close to
  /// one while a <= 2048, two past that); draw i adds 1 to the slot it
  /// lands on. O(n), no cascade and no O(k) pass.
  void add_counts(Rng& rng, std::uint64_t n,
                  std::span<std::uint64_t> out) const;

 private:
  std::vector<std::uint32_t> slots_;  // positive-weight slots, ascending
  std::vector<double> weights_;       // their weights, compact
  AliasTable table_;                  // over slots_ positions
};

/// Alias sampler over an integer count vector whose per-round rebuild is
/// INCREMENTAL off the previous round's counts. The table itself is still
/// a Vose build (a valid alias layout cannot absorb single-slot edits),
/// but it is built over the positive-support slots only and only when the
/// counts actually changed:
///
///   * `sync(counts)` diffs against the cached previous counts in one
///     O(k) compare pass (cheap, branch-predictable — no divisions, no
///     two-stack churn), maintains the sorted positive-support list in
///     O(changed) typical (0 ↔ positive transitions are the only
///     list edits), and re-runs Vose over the a = |support| compact
///     weights only when some count moved;
///   * an unchanged round (frozen counts near consensus, zealot-pinned
///     configurations) skips the rebuild entirely;
///   * `sample` maps the compact table index back to the original slot.
///
/// This is what keeps the k ≈ n agent-engine regime off the O(k)
/// full-width rebuild: rounds pay O(a + changed) rebuild work. The
/// compact layout means the RNG stream differs from a dense AliasTable
/// over the same counts whenever extinct slots exist (same distribution,
/// different table) — the usual per-version checkpoint caveat applies.
///
/// Determinism contract (fuzz-tested): after any sequence of sync calls,
/// the support list and the alias table are BIT-IDENTICAL to a freshly
/// reset instance over the same counts.
class IncrementalCountAlias {
 public:
  /// Full rebuild: caches `counts`, rebuilds support and table from
  /// scratch. Requires a positive total.
  void reset(std::span<const std::uint64_t> counts);

  /// Incremental rebuild against the cached previous counts (falls back
  /// to reset() on a size change or first use).
  void sync(std::span<const std::uint64_t> counts);

  std::size_t num_slots() const noexcept { return counts_.size(); }
  std::size_t support_size() const noexcept { return support_.size(); }

  /// Draws a slot in [0, num_slots()) with probability count/total.
  std::size_t sample(Rng& rng) const noexcept {
    return support_[table_.sample(rng)];
  }

  /// Introspection for the fuzz oracle.
  std::span<const std::uint32_t> support() const noexcept { return support_; }
  const AliasTable& table() const noexcept { return table_; }

 private:
  void rebuild_table();

  std::vector<std::uint64_t> counts_;   // cached previous counts
  std::vector<std::uint32_t> support_;  // sorted slots with positive count
  std::vector<double> weights_;         // compact build scratch
  AliasTable table_;                    // over support_ positions
};

/// Incremental categorical sampler over integer counts with O(sqrt-ish)
/// updates: buckets counts into a flat cumulative tree (Fenwick), supporting
/// `add(i, delta)` and weighted sampling in O(log k). Used by the async
/// engine where one vertex changes per tick and rebuilding an alias table
/// every tick would dominate.
class FenwickSampler {
 public:
  explicit FenwickSampler(std::span<const std::uint64_t> counts);

  std::uint64_t total() const noexcept { return total_; }
  std::size_t size() const noexcept { return n_; }

  void add(std::size_t i, std::int64_t delta);
  std::uint64_t count(std::size_t i) const;

  /// Samples index i with probability count(i)/total(). Requires total()>0.
  std::size_t sample(Rng& rng) const;

 private:
  std::size_t n_ = 0;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> tree_;  // 1-based Fenwick tree of counts
};

}  // namespace consensus::support
