// Protocol interface: a consensus dynamic is (a) a local update rule — what
// a vertex does with random neighbour opinions — and optionally (b) exact
// one-round laws the count-space engines sample from instead: a closed-form
// transition of the count vector on K_n with self-loops, single-vertex
// outcome laws, or a keep-or-adopt law.
//
// The local rule defines the dynamic on any graph (Definition 3.1
// generalised); the counting path must sample from *exactly* the same
// one-round distribution (tests cross-validate the two).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "consensus/core/configuration.hpp"
#include "consensus/support/rng.hpp"

namespace consensus::support {
class ThreadPool;
}

namespace consensus::core {

/// Source of opinions of uniformly random neighbours of the updating vertex.
/// On K_n with self-loops this is "a uniformly random vertex's opinion".
class OpinionSampler {
 public:
  virtual ~OpinionSampler() = default;
  virtual Opinion sample(support::Rng& rng) = 0;
  /// Size of the opinion universe (number of slots, k, or k+1 for dynamics
  /// with an undecided slot). Lets slot-convention protocols (USD) locate
  /// their special state.
  virtual std::size_t num_slots() const noexcept = 0;
};

/// Statically-typed draw source consumed by the protocols' non-virtual
/// `update_from_draws` hooks (the fused engine kernels). A Draws type D
/// provides:
///   Opinion D::draw(support::Rng&)                      — one neighbour
///   void    D::draw_many(support::Rng&, Opinion*, unsigned) — a batch
///   std::size_t D::num_slots() const                    — opinion universe
/// Draw order and RNG consumption must match sample() call for call: a
/// protocol's update() and update_from_draws() walk the same stream.
///
/// SamplerDraws presents a virtual OpinionSampler as that concept, so the
/// virtual `update` entry points are the same code as the fused ones.
struct SamplerDraws {
  OpinionSampler& sampler;

  Opinion draw(support::Rng& rng) { return sampler.sample(rng); }
  void draw_many(support::Rng& rng, Opinion* out, unsigned count) {
    for (unsigned i = 0; i < count; ++i) out[i] = sampler.sample(rng);
  }
  std::size_t num_slots() const noexcept { return sampler.num_slots(); }
};

/// Per-concrete-type table of devirtualized engine kernels (core/fused.hpp).
/// Forward-declared here so the registration hook can live on Protocol
/// without the interface header pulling in the thunk machinery.
struct FusedOps;

class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual std::string_view name() const noexcept = 0;

  /// How many neighbour samples one update consumes (for cost accounting).
  virtual unsigned samples_per_update() const noexcept = 0;

  /// Registration hook for the engines' fused (devirtualized) kernels:
  /// returns this protocol's entry in the open fused registry
  /// (core/fused.hpp), or nullptr (the default) to route every engine
  /// through the virtual `update` reference path — diagnostic wrappers like
  /// make_generic_only rely on the default. Don't override by hand: derive
  /// the concrete class from `FusedProtocol<Concrete>`, which implements
  /// this as `&fused_ops_for<Concrete>()` — the returned table's thunks
  /// static_cast the protocol to Concrete, so the override MUST come from
  /// the matching dynamic type.
  virtual const FusedOps* fused_visitor() const noexcept { return nullptr; }

  /// Local rule: the new opinion of a vertex currently holding `current`.
  virtual Opinion update(Opinion current, OpinionSampler& neighbors,
                         support::Rng& rng) const = 0;

  /// Exact one-round transition of the count vector on K_n + self-loops.
  /// Writes the next counts into `next` (sized like cur.counts()) and
  /// returns true; returns false if no closed form exists, in which case
  /// the counting engine falls back to calling `update` once per vertex.
  /// Implementations must sample from the exact synchronous one-round law.
  virtual bool step_counts(const Configuration& cur,
                           std::vector<std::uint64_t>& next,
                           support::Rng& rng) const {
    (void)cur;
    (void)next;
    (void)rng;
    return false;
  }

  /// Exact one-round outcome law of a *single* vertex holding `current`,
  /// over the ALIVE opinions only: writes
  /// out[i] = P(next opinion == cur.alive()[i]) — resized to
  /// cur.alive().size() — and returns true. Opinions outside the alive set
  /// have probability 0 by validity, so nothing is lost; what is gained is
  /// the cost model: implementations must run in poly(a, h) where
  /// a = cur.support_size(), never O(k). The counting engine draws ONE
  /// multinomial per alive group from this law (one for the whole
  /// population when the rule ignores the holder's opinion) and commits
  /// rounds through Configuration::assign_alive_counts, making a full
  /// round O(poly(a, h)) even when k ≈ n. Implementations must produce
  /// exactly the law of `update` (tests cross-validate with chi-square).
  ///
  /// Returns false when the protocol has no alive-law or when it is over
  /// budget; the counting engine then tries `keep_or_adopt`,
  /// `step_counts` and finally the per-vertex fallback. Availability must
  /// be uniform in `current` for a fixed configuration (decline for every
  /// group or none): the engine stops probing a round's remaining groups
  /// after the first decline.
  virtual bool outcome_distribution_alive(Opinion current,
                                          const Configuration& cur,
                                          std::vector<double>& out) const {
    (void)current;
    (void)cur;
    (void)out;
    return false;
  }

  /// Mixture-law generalisation of `outcome_distribution_alive`: the exact
  /// one-round outcome law of a vertex holding `current` whose neighbour
  /// opinions are i.i.d. draws from the given `sampling` distribution
  /// (sampling[j] = P(a random neighbour holds opinion j), summing to 1)
  /// rather than from the vertex's own configuration. Writes the dense law
  /// into `out` (resized to sampling.size()) and returns true; false when
  /// no affordable closed form exists for this sampling vector.
  ///
  /// This is what the class-counting engine consumes: on an annealed SBM a
  /// block-b vertex sees the MIXTURE q_b = Σ_b' w(b,b')·(counts_b'/n_b'),
  /// which is not any block's own count vector — so the alive laws (keyed
  /// on a Configuration) cannot express it, but every law that is a
  /// polynomial in the sampling frequencies generalises verbatim.
  /// `n_hint` is the population the law will be applied to (the class
  /// size), used only for cost accounting against the per-vertex fallback
  /// (h-majority's budget comparison). Availability must be uniform in
  /// `current` for a fixed sampling vector, like the other law hooks.
  virtual bool outcome_distribution_mixture(Opinion current,
                                            std::span<const double> sampling,
                                            std::uint64_t n_hint,
                                            std::vector<double>& out) const {
    (void)current;
    (void)sampling;
    (void)n_hint;
    (void)out;
    return false;
  }

  /// Keep-or-adopt law: a vertex whose neighbour opinions are i.i.d. draws
  /// from `sampling` keeps its own opinion with probability `keep` and
  /// otherwise adopts opinion j with weight `adopt[j]` (resized to
  /// sampling.size(); Σ adopt = 1 − keep), where neither depends on the
  /// vertex's own opinion. Returns false (the default) for rules without
  /// that form.
  ///
  /// Both count-space engines take this hook in place of a per-group law:
  /// per group o, keepers ~ Bin(count_o, keep), drawn for the alive groups
  /// in index order; the movers then land by ONE Multinomial(movers,
  /// adopt). That is O(a) binomials plus one multinomial per class and
  /// round, where a per-group law costs one multinomial per alive group.
  /// On K_n the sampling vector is the compact alive α (sampling.size()
  /// == a).
  /// Implementations must produce exactly the law of `update`, and
  /// keep·δ_current + adopt must equal `outcome_distribution_mixture`.
  virtual bool keep_or_adopt(std::span<const double> sampling,
                             std::vector<double>& adopt,
                             double& keep) const {
    (void)sampling;
    (void)adopt;
    (void)keep;
    return false;
  }

  /// True when the law of `update` depends on the vertex's own opinion.
  /// When false (anonymous rules: h-majority, 3-majority), the counting
  /// engine merges all groups into a single Multinomial(n, ·) draw.
  virtual bool outcome_depends_on_current() const noexcept { return true; }

  /// Optional worker pool for internal law parallelism (h-majority splits
  /// its composition enumeration across it and scales its work budgets by
  /// the pool width). Set once at scenario-build time, before any
  /// concurrent use; protocols without internal parallelism ignore it.
  virtual void set_thread_pool(support::ThreadPool* pool) noexcept {
    (void)pool;
  }

  /// Consensus predicate. Default: a single opinion supports all vertices.
  /// Undecided-state dynamics overrides this (the undecided slot does not
  /// count as an opinion).
  virtual bool is_consensus(const Configuration& config) const {
    return config.is_consensus();
  }

  /// The opinion the process has agreed on; only meaningful when
  /// is_consensus(config).
  virtual Opinion winner(const Configuration& config) const {
    return config.plurality();
  }
};

/// Factory helpers (definitions live with each protocol).
std::unique_ptr<Protocol> make_three_majority();
std::unique_ptr<Protocol> make_three_majority_keep();
std::unique_ptr<Protocol> make_two_choices();
std::unique_ptr<Protocol> make_h_majority(unsigned h);
std::unique_ptr<Protocol> make_voter();
std::unique_ptr<Protocol> make_median_rule();
std::unique_ptr<Protocol> make_undecided();

/// Registry entry for sweeps: name → factory.
std::unique_ptr<Protocol> make_protocol(std::string_view name);

/// Wraps `inner` forwarding the local rule only — step_counts and every
/// law hook (keep_or_adopt included) stay hidden, forcing the engines onto
/// the per-vertex fallback.
/// Used by benches and cross-validation tests to pit the fast paths
/// against the reference path of the same dynamic.
std::unique_ptr<Protocol> make_generic_only(std::unique_ptr<Protocol> inner);

/// Wraps `inner` hiding ONLY `outcome_distribution_alive`, so the counting
/// engine runs `keep_or_adopt` where the protocol has it, else the O(k)
/// closed form `step_counts` where it has one, else the per-vertex
/// fallback. Diagnostic for benches (sparse-vs-dense columns) and
/// equivalence tests.
std::unique_ptr<Protocol> make_dense_only(std::unique_ptr<Protocol> inner);

}  // namespace consensus::core
