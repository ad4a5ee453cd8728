// Class-counting engine: count-space simulation of annealed structured
// graphs whose vertices fall into C classes of identical mixing behaviour.
// The configuration is one count vector per class; each class is a mean
// field coupled to the others through R neighbour laws (mixtures), so a
// round never touches individual vertices:
//
//   1. MIXING — mixture r is the law of a random neighbour's opinion
//        q_r(j) = Σ_s coeff[r][s] · counts_s(j),
//      accumulated over each source class's alive list (or its full count
//      vector through the vectorised support::mixture_accumulate when the
//      support is dense): O(R·C·a) for the phase. Class c samples from
//      mixture c when R == C, or from the one shared mixture when R == 1.
//   2. TRANSITION — keep-or-adopt rules (`Protocol::keep_or_adopt`:
//      2-Choices, 3-Majority-keep) build one adopt law per mixture; each
//      class then draws Bin(count_o, keep) keepers per alive opinion o and
//      one Multinomial(movers, adopt). Every other rule advances through
//      the protocol's MIXTURE law (`outcome_distribution_mixture`, with q
//      in place of α): anonymous rules draw one Multinomial(n_c, law) per
//      class, current-dependent rules one multinomial per (class, alive
//      group). The adopt law and the anonymous law depend on the mixture
//      alone, so each of their multinomials picks its method by
//      support::prefer_table_counting on (trials, a = positive law
//      weights): up to 8·a trials are counted draws from one
//      support::AliasCounter over the law, built at most once per mixture
//      per round; larger draws run the conditional-binomial cascade
//      (close to a binomials). Per-(class, group) laws always cascade — no
//      table would be shared. When the law declines (over budget), the
//      class falls back to per-vertex `update` calls against an alias
//      sampler over its q — exact, just O(n_c).
//
// A round therefore costs O(R·C·a + C·k) arithmetic plus the multinomial
// draws — independent of n on the law path. Two graph families use it,
// each through a named constructor:
//
//   * sbm — the ANNEALED stochastic block model, one class per block and
//     one mixture per block (R = C = B):
//       coeff[b][s] = w(b,s)/W(b) · 1/n_s,
//     with w(b,s) = n_s · (intra_p if b == s else inter_p) and
//     W(b) = Σ_s w(b,s) (the own block's mass includes the vertex itself —
//     the model graph's self-loop convention). The engine is exactly the
//     agent engine's dynamic on graph::Graph::implicit_sbm, in count space.
//   * degree_classes — the ANNEALED configuration model over a degree
//     histogram. A random neighbour is the owner of a uniformly random
//     edge stub, so every vertex sees the SAME law: one shared mixture
//     (R = 1) with coeff[0][c] = d_c/M, M = Σ_c d_c·n_c. The coupling is
//     rank one, so mixing stays O(D·a) where a D×D matrix would cost
//     O(D²·a). Degrees only enter through the stub shares, so a power-law
//     histogram bucketed geometrically (graph::DegreeHistogram::power_law)
//     gives D ≈ 30–80 at any n. Exactly the agent engine's dynamic on
//     graph::Graph::implicit_configuration_model_annealed, in count space.
//
// Tests cross-validate both against the agent engine by KS/chi-square.
// Neither is the quenched chain (sbm_planted CSR, stub matching), though
// the two converge as expected degrees grow (see docs/ENGINES.md).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "consensus/core/engine.hpp"
#include "consensus/support/sampling.hpp"

namespace consensus::core {

class ClassCountingEngine final : public Engine {
 public:
  /// Annealed SBM. `blocks`: round-0 count vector per block, all with the
  /// same slot count. `block_weights`: row-major B×B expected edge mass
  /// (graph::sbm_block_weights); every row must have positive total.
  /// EngineState kind "block".
  static ClassCountingEngine sbm(const Protocol& protocol,
                                 std::vector<Configuration> blocks,
                                 std::span<const double> block_weights,
                                 std::uint64_t start_round = 0);

  /// Annealed configuration model. `classes`: round-0 count vector per
  /// degree class, all with the same slot count. `class_degrees`: one
  /// degree >= 1 per class (need not be distinct or sorted; equal-degree
  /// classes just mix identically). EngineState kind "degree-class".
  static ClassCountingEngine degree_classes(
      const Protocol& protocol, std::vector<Configuration> classes,
      std::span<const std::uint64_t> class_degrees,
      std::uint64_t start_round = 0);

  /// Distributes `total` over classes of the given sizes (C+1 offsets)
  /// exactly as a uniform shuffle of the vertices would: a sequential
  /// multivariate hypergeometric split — the count-space analogue of the
  /// agent engine's shuffled vertex assignment.
  static std::vector<Configuration> split_shuffled(
      const Configuration& total, std::span<const std::uint64_t> offsets,
      support::Rng& rng);

  void step(support::Rng& rng) override;

  /// Aggregate count vector (sum over classes). O(k).
  Configuration configuration() const override;

  const Protocol& protocol() const noexcept override { return *protocol_; }
  std::uint64_t rounds_elapsed() const noexcept override { return round_; }
  bool is_consensus() const override;
  Opinion winner() const override;
  bool supports_topology() const noexcept override { return true; }

  /// kind "block" or "degree-class" (by constructor); counts = the C class
  /// vectors flattened in class order (C·k entries). The generic
  /// checkpoint layer serialises it untouched.
  EngineState capture_state() const override;
  void restore_state(const EngineState& state) override;

  std::size_t num_classes() const noexcept { return classes_.size(); }
  const Configuration& class_configuration(std::size_t c) const {
    return classes_.at(c);
  }

 private:
  /// `coeff`: row-major R×C mixing coefficients with R == 1 or R == C.
  ClassCountingEngine(const Protocol& protocol,
                      std::vector<Configuration> classes,
                      std::vector<double> coeff, std::string kind,
                      std::uint64_t start_round);

  std::size_t mixture_of(std::size_t c) const noexcept {
    return mix_.size() == 1 ? 0 : c;
  }
  void step_class(std::size_t c, support::Rng& rng);
  void fallback_class(std::size_t c, support::Rng& rng);
  /// Method rule for a Multinomial(n, law) over mixture r's shared law:
  /// true when n table draws (support::prefer_table_counting on n and the
  /// law's positive-weight count a) beat the cascade, with `law_table_`
  /// then built over `law`.
  bool use_law_table(std::size_t r, std::uint64_t n,
                     std::span<const double> law);
  /// Swaps `next_` (summing to n_c) into class c and updates the aggregate.
  void commit_class(std::size_t c);

  const Protocol* protocol_;
  std::vector<Configuration> classes_;
  std::vector<double> coeff_;  // row-major R×C
  std::string kind_;
  std::size_t num_slots_ = 0;
  std::uint64_t round_ = 0;
  std::vector<std::uint64_t> agg_counts_;  // Σ_c counts_c, kept incremental

  // Round scratch (persistent so steady-state rounds allocate nothing).
  std::vector<std::vector<double>> mix_;   // q_r per mixture, dense k
  // Keep-or-adopt law of each mixture this round (keep_or_adopt_ == true).
  struct AdoptLaw {
    std::vector<double> adopt;  // dense k
    double total = 0.0;         // Σ adopt, for the multinomial
    double keep = 0.0;
  };
  std::vector<AdoptLaw> adopt_;
  bool keep_or_adopt_ = false;
  std::vector<double> probs_;              // one group's law
  std::vector<std::uint64_t> next_;        // next counts of one class
  std::vector<std::uint64_t> group_out_;   // one group's multinomial
  support::AliasTable fallback_table_;
  // Mixture the table was built from this round; kNoTable until a class
  // falls back. Classes sharing a mixture share one build per round.
  static constexpr std::size_t kNoTable = static_cast<std::size_t>(-1);
  std::size_t fallback_mixture_ = kNoTable;
  // Table counting for the per-mixture laws (anonymous law, adopt law):
  // the positive-weight count of mixture law_mixture_'s law this round and
  // its table, built at most once per mixture per round, on first use.
  support::AliasCounter law_table_;
  std::size_t law_mixture_ = kNoTable;
  std::size_t law_support_ = 0;
  bool law_table_built_ = false;
};

}  // namespace consensus::core
