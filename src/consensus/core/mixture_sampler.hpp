// MixtureSampler: OpinionSampler over a prebuilt alias table of a mixture
// law q — the per-vertex fallback's neighbour source for the count-space
// engines (a random neighbour holds opinion j with probability q(j)).
// ClassCountingEngine builds the table over each class's mixture,
// CountingEngine over the count vector itself (q = counts/n on K_n). The
// non-virtual draw/draw_many serve the fused fallback groups
// (FusedOps::mixture_group), the virtual sample override the reference
// path — identical draw stream either way.
//
// Also hosts the vectorised 3-majority mixture-law assembly the engines'
// probability build uses: γ-reduction + elementwise normalize through the
// support/simd_kernels registry.
#pragma once

#include <span>
#include <vector>

#include "consensus/core/protocol.hpp"
#include "consensus/support/sampling.hpp"
#include "consensus/support/simd_kernels.hpp"

namespace consensus::core {

class MixtureSampler final : public OpinionSampler {
 public:
  MixtureSampler(const support::AliasTable& table, std::size_t slots) noexcept
      : table_(&table), slots_(slots) {}

  Opinion draw(support::Rng& rng) const {
    return static_cast<Opinion>(table_->sample(rng));
  }
  void draw_many(support::Rng& rng, Opinion* out, unsigned count) const {
    for (unsigned i = 0; i < count; ++i) out[i] = draw(rng);
  }

  Opinion sample(support::Rng& rng) override { return draw(rng); }

  std::size_t num_slots() const noexcept override { return slots_; }

 private:
  const support::AliasTable* table_;
  std::size_t slots_;
};

/// Assembles the 3-majority mixture law out[j] = q_j · ((1 + q_j) − γ),
/// γ = Σ_j q_j² (eq. (5) with the neighbour frequencies q), through the
/// simd registry: one mixture_sum_squares reduction (fixed 4-lane-strided
/// order) plus one elementwise mixture_majority_map pass. `out` is resized
/// to q.size(). Used by ThreeMajority::outcome_distribution_mixture — the
/// per-class probability assembly of the class-counting engine — and by
/// the bench mix columns.
inline void assemble_majority_mixture(std::span<const double> q,
                                      std::vector<double>& out) {
  out.resize(q.size());
  const double gamma = support::mixture_sum_squares(q.data(), q.size());
  support::mixture_majority_map(q.data(), q.size(), gamma, out.data());
}

}  // namespace consensus::core
