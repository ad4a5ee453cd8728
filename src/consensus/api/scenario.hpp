// ScenarioSpec: the declarative description of one simulation scenario —
// protocol, population, initial configuration, optional topology /
// adversary / zealots, engine choice, and run limits. One value type is
// the whole story: benches, examples, the CLI, and tests all describe
// *what* to simulate here and let `api::Simulation` decide *how* (engine
// auto-selection onto the batched counting fast path or the chunk-parallel
// agent engine).
//
// Specs round-trip losslessly through JSON (`support::Json`), so scenarios
// can be checked into files (`examples/specs/`), shipped over the wire to
// a fleet of workers, and replayed bit-for-bit: the spec carries the seed,
// and every engine is deterministic given it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "consensus/core/configuration.hpp"
#include "consensus/support/json.hpp"

namespace consensus::api {

/// Which backend executes the scenario. `kAuto` lets the library pick the
/// fastest valid engine (see resolve_engine for the rules). `kBlock` is
/// the class-counting engine's SBM construction for annealed SBM
/// topologies (kind "sbm"): one count vector per block, rounds
/// independent of n. `kDegreeClass` is its degree-class construction for
/// annealed configuration models (kind "configuration-model-annealed"):
/// one count vector per degree class, rounds independent of n.
enum class EngineChoice {
  kAuto, kCounting, kAgent, kAsync, kPairwise, kBlock, kDegreeClass
};

std::string_view to_string(EngineChoice choice) noexcept;
EngineChoice engine_choice_from_string(std::string_view name);

/// Initial configuration generator + parameter. `param` is the generator's
/// knob: biased → leader margin, heavy → leading fraction α₁, geometric →
/// ratio r, two-tied → per-leader share, planted-weak → weak fraction;
/// balanced ignores it. Kind "counts" carries the count vector verbatim
/// (the escape hatch for starts no generator produces); n/k must match it.
struct InitSpec {
  std::string kind = "balanced";
  double param = 0.0;
  std::vector<std::uint64_t> counts;  // kind == "counts" only

  friend bool operator==(const InitSpec&, const InitSpec&) = default;
};

/// Interaction graph. Absent topology on a ScenarioSpec means the paper's
/// model graph (K_n with self-loops). Random topologies (erdos-renyi,
/// random-regular, two-cliques, sbm-explicit) are generated from a stream
/// derived from the scenario seed, so the graph is part of the
/// reproducible scenario.
///
/// STRUCTURED FAMILIES (PR 6): some kinds carry a family descriptor
/// instead of an edge list, and the engine auto-selection exploits it:
///   "sbm"                      annealed stochastic block model — no CSR is
///                              ever materialised; auto-routes to the
///                              block engine (O(B²·a) rounds).
///   "sbm-explicit"             one quenched SBM sample as an explicit CSR
///                              (agent engine; the reference chain).
///   "random-regular-implicit"  quenched d-out random graph with neighbours
///                              re-derived on demand from the seed — the
///                              agent engine runs it without a CSR, so
///                              n = 10⁸ fits easily.
///   "random-regular-annealed"  neighbours re-drawn uniformly per query;
///                              model-graph-equivalent, so it auto-routes
///                              to the counting engine.
///
/// CONFIGURATION-MODEL FAMILY (PR 8): heterogeneous degrees described by a
/// degree histogram — either explicit (`degrees` + `class_sizes`, summing
/// to n) or a power law (`alpha`, `d_min`, `d_max`; bucketed geometrically
/// into D ≈ 30–80 classes, see graph::DegreeHistogram::power_law). Exactly
/// one of the two forms must be given:
///   "configuration-model"           quenched stub-matching sample with
///                                   neighbours re-derived on demand from
///                                   the seed — the agent engine runs it
///                                   without a CSR, so n = 10⁸ fits easily.
///   "configuration-model-annealed"  stub partner re-drawn per query;
///                                   auto-routes to the degree-class
///                                   counting engine (O(D·a) rounds).
///   "configuration-model-explicit"  one quenched sample as an explicit
///                                   CSR (agent engine; the reference
///                                   chain — O(Σ d_c·n_c) memory).
struct TopologySpec {
  std::string kind = "complete";
  double p = 0.0;             // erdos-renyi edge probability
  std::uint64_t degree = 0;   // random-regular family degree
  std::uint64_t rows = 0;     // torus (cols = n / rows)
  std::uint64_t bridges = 0;  // two-cliques cross edges
  std::uint64_t blocks = 0;   // sbm family: number of blocks B
  double intra_p = 0.0;       // sbm family: within-block edge probability
  double inter_p = 0.0;       // sbm family: cross-block edge probability
  // configuration-model family, explicit histogram form:
  std::vector<std::uint64_t> degrees;      // strictly increasing, >= 1
  std::vector<std::uint64_t> class_sizes;  // >= 1 each, summing to n
  // configuration-model family, power-law form:
  double alpha = 0.0;         // exponent of P(d) ∝ d^(−alpha)
  std::uint64_t d_min = 0;    // smallest degree (>= 1)
  std::uint64_t d_max = 0;    // largest degree (<= min(n, 2^20))

  friend bool operator==(const TopologySpec&, const TopologySpec&) = default;
};

/// F-bounded adversary applied between rounds (counting engine only).
struct AdversarySpec {
  std::string kind = "revive-weakest";  // revive-weakest|attack-leader|random-noise
  std::uint64_t budget = 0;

  friend bool operator==(const AdversarySpec&, const AdversarySpec&) = default;
};

/// Stubborn agents: `count` holders of `opinion` never update (agent
/// engine only — zealotry is per-vertex state).
struct ZealotSpec {
  core::Opinion opinion = 0;
  std::uint64_t count = 0;

  friend bool operator==(const ZealotSpec&, const ZealotSpec&) = default;
};

struct ScenarioSpec {
  /// Protocol registry name (core::make_protocol): "3-majority",
  /// "2-choices", "voter", "median", "undecided", "h-majority:<h>", ...
  std::string protocol = "3-majority";
  std::uint64_t n = 100000;
  std::uint32_t k = 16;
  InitSpec init;
  std::optional<TopologySpec> topology;  // absent = K_n with self-loops
  std::optional<AdversarySpec> adversary;
  std::optional<ZealotSpec> zealots;
  EngineChoice engine = EngineChoice::kAuto;
  /// Agent-engine parallelism: 1 = serial (default), 0 = hardware
  /// concurrency, else a dedicated pool of that many threads. The pool is
  /// owned by the Simulation and separate from any sweep-harness pool.
  std::size_t engine_threads = 1;
  /// Diagnostic: hide the protocol's closed-form/batched hooks so the
  /// counting engine runs the per-vertex reference path.
  bool generic_only = false;
  /// Diagnostic: hide only the sparse alive-set law so the counting engine
  /// runs the dense closed-form/batched paths (sparse-vs-dense benches and
  /// equivalence tests).
  bool dense_only = false;
  /// Agent-engine mean-field fast path (count-space alias sampling + fused
  /// protocol kernels on K_n with self-loops; see docs/ENGINES.md). On by
  /// default; set false to pin the legacy per-vertex dense path — same
  /// one-round law, different RNG consumption, and bit-compatible with
  /// trajectories recorded before the fast path existed. Setting false is
  /// only meaningful (and only accepted) for agent-engine scenarios.
  bool mean_field_fast_path = true;
  /// Periodic mid-run checkpointing for long single trials: when positive,
  /// `Simulation::run` persists the facade checkpoint (engine state + RNG
  /// position) every this many rounds to the file registered with
  /// `Simulation::set_checkpoint_file`. 0 = off. Ignored by `run_many`
  /// (concurrent trials share no checkpoint file).
  std::uint64_t checkpoint_every_rounds = 0;
  std::uint64_t max_rounds = 1'000'000;
  std::uint64_t seed = 42;

  /// Sets init to explicit counts and keeps n/k consistent with them.
  ScenarioSpec& set_counts(std::vector<std::uint64_t> counts);

  /// Throws std::invalid_argument (with the offending field named) when
  /// the spec is internally inconsistent or names unknown kinds.
  void validate() const;

  support::Json to_json() const;
  std::string to_json_text(int indent = 2) const;
  /// Strict parsers: unknown keys are rejected (typo safety), and the
  /// result is validate()d.
  static ScenarioSpec from_json(const support::Json& json);
  static ScenarioSpec from_json_text(const std::string& text);

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// The engine that will actually run `spec`: resolves kAuto (adversary →
/// counting; annealed SBM ("sbm") → block; annealed configuration model
/// ("configuration-model-annealed") → degree-class; zealots or a topology
/// that is not model-graph-equivalent → agent; otherwise counting) and
/// rejects contradictions (e.g. engine=counting with a cycle topology,
/// pairwise with a multi-sample protocol, block without an "sbm" topology,
/// degree-class without "configuration-model-annealed") with
/// std::invalid_argument. Never returns kAuto.
EngineChoice resolve_engine(const ScenarioSpec& spec);

}  // namespace consensus::api
