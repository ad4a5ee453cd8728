#include "consensus/api/simulation.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "consensus/core/agent_engine.hpp"
#include "consensus/core/async_engine.hpp"
#include "consensus/core/checkpoint.hpp"
#include "consensus/core/class_engine.hpp"
#include "consensus/core/counting_engine.hpp"
#include "consensus/core/init.hpp"
#include "consensus/core/pairwise_engine.hpp"
#include "consensus/core/undecided.hpp"
#include "consensus/experiment/sink.hpp"
#include "consensus/graph/generators.hpp"
#include "consensus/support/durable_file.hpp"
#include "consensus/support/simd_kernels.hpp"

namespace consensus::api {

namespace {

// Fixed stream tags: the topology and the vertex assignment each get their
// own reproducible stream off the scenario seed, independent of the run
// streams (which exp::Sweep derives by trial index).
constexpr std::uint64_t kTopologyStream = 0x70b0;
constexpr std::uint64_t kAssignStream = 0xa551;

/// The degree histogram a configuration-model topology describes: the
/// explicit list verbatim, or the deterministic power-law bucketing.
/// Shared by graph construction and the degree-class engine's class split
/// so the two always agree on the layout.
graph::DegreeHistogram config_model_histogram(const TopologySpec& topo,
                                              std::uint64_t n) {
  if (!topo.degrees.empty()) {
    graph::DegreeHistogram hist;
    hist.degrees = topo.degrees;
    hist.class_sizes = topo.class_sizes;
    hist.validate();
    return hist;
  }
  return graph::DegreeHistogram::power_law(n, topo.alpha, topo.d_min,
                                           topo.d_max);
}

graph::Graph build_graph(const ScenarioSpec& spec) {
  const std::uint64_t n = spec.n;
  if (!spec.topology || spec.topology->kind == "complete") {
    return graph::Graph::complete_with_self_loops(n);
  }
  const TopologySpec& topo = *spec.topology;
  support::Rng rng(support::derive_seed(spec.seed, kTopologyStream));
  if (topo.kind == "complete-no-self-loops") {
    return graph::Graph::complete_without_self_loops(n);
  }
  if (topo.kind == "cycle") return graph::cycle(n);
  if (topo.kind == "torus") return graph::torus2d(topo.rows, n / topo.rows);
  if (topo.kind == "erdos-renyi") return graph::erdos_renyi(n, topo.p, rng);
  if (topo.kind == "random-regular") {
    return graph::random_regular(n, topo.degree, rng);
  }
  if (topo.kind == "star") return graph::star(n);
  if (topo.kind == "two-cliques") {
    return graph::two_cliques_bridge(n, topo.bridges, rng);
  }
  // Structured families. The implicit kinds build O(B) / O(1) descriptors,
  // never a CSR, so n = 10^8 scenarios construct instantly.
  if (topo.kind == "sbm") {
    return graph::Graph::implicit_sbm(n, topo.blocks, topo.intra_p,
                                      topo.inter_p);
  }
  if (topo.kind == "sbm-explicit") {
    return graph::sbm_planted(n, topo.blocks, topo.intra_p, topo.inter_p,
                              rng);
  }
  if (topo.kind == "random-regular-implicit") {
    return graph::Graph::implicit_random_regular(
        n, topo.degree, support::derive_seed(spec.seed, kTopologyStream));
  }
  if (topo.kind == "random-regular-annealed") {
    // Per-query uniform neighbours == the model graph's one-round law.
    return graph::Graph::complete_with_self_loops(n);
  }
  if (topo.kind == "configuration-model") {
    return graph::Graph::implicit_configuration_model(
        config_model_histogram(topo, n),
        support::derive_seed(spec.seed, kTopologyStream));
  }
  if (topo.kind == "configuration-model-annealed") {
    return graph::Graph::implicit_configuration_model_annealed(
        config_model_histogram(topo, n));
  }
  if (topo.kind == "configuration-model-explicit") {
    return graph::configuration_model(config_model_histogram(topo, n), rng);
  }
  throw std::invalid_argument("ScenarioSpec: unknown topology kind '" +
                              topo.kind + "'");
}

core::Configuration build_initial(const ScenarioSpec& spec) {
  const InitSpec& init = spec.init;
  auto base = [&]() -> core::Configuration {
    if (init.kind == "counts") return core::Configuration(init.counts);
    if (init.kind == "balanced") return core::balanced(spec.n, spec.k);
    if (init.kind == "biased") {
      return core::biased_balanced(spec.n, spec.k, init.param);
    }
    if (init.kind == "heavy") {
      return core::single_heavy(spec.n, spec.k, init.param);
    }
    if (init.kind == "geometric") {
      return core::geometric_profile(spec.n, spec.k, init.param);
    }
    if (init.kind == "two-tied") {
      return core::two_tied_leaders(spec.n, spec.k, init.param);
    }
    if (init.kind == "planted-weak") {
      return core::planted_weak(spec.n, spec.k, init.param);
    }
    throw std::invalid_argument("ScenarioSpec: unknown init kind '" +
                                init.kind + "'");
  }();
  // Undecided-state dynamics runs on k opinions + the ⊥ slot; generators
  // produce the k opinions, explicit counts carry the full slot vector.
  if (spec.protocol == "undecided" && init.kind != "counts") {
    return core::with_undecided_slot(base);
  }
  return base;
}

}  // namespace

support::ThreadPool* WarmEnginePools::pool(std::size_t threads) {
  // Key by the resolved width (ThreadPool's own 0 → hardware-concurrency
  // rule) so engine_threads = 0 and an explicit hardware width share one
  // warm pool.
  const std::size_t width =
      threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : threads;
  auto& slot = pools_[width];
  if (!slot) slot = std::make_unique<support::ThreadPool>(width);
  return slot.get();
}

Simulation Simulation::from_spec(const ScenarioSpec& spec) {
  return from_spec(spec, nullptr);
}

Simulation Simulation::from_spec(const ScenarioSpec& spec,
                                 EnginePoolProvider* pools) {
  // Force the simd registry's one-time CPU detection (and CONSENSUS_SIMD
  // parse) before any engine work: the pin must be in place before the
  // first kernel call, and a bad override's warning should surface at
  // scenario build, not mid-run.
  support::init_simd_kernels();
  spec.validate();
  return Simulation(spec, pools);
}

namespace {

std::unique_ptr<core::Protocol> build_protocol(const ScenarioSpec& spec) {
  auto protocol = core::make_protocol(spec.protocol);
  if (spec.generic_only) return core::make_generic_only(std::move(protocol));
  if (spec.dense_only) return core::make_dense_only(std::move(protocol));
  return protocol;
}

}  // namespace

Simulation::Simulation(ScenarioSpec spec, EnginePoolProvider* pools)
    : spec_(std::move(spec)),
      resolved_(resolve_engine(spec_)),
      protocol_(build_protocol(spec_)),
      graph_(build_graph(spec_)),
      initial_(build_initial(spec_)) {
  // engine_threads sizes a dedicated pool for two distinct backends: the
  // agent engine splits its per-vertex round across it, and the counting
  // engine hands it to the protocol for internal law parallelism (the
  // h-majority composition enumeration) — which also scales the protocol's
  // enumeration budgets by the pool width, so wider pools keep more
  // configurations on the batched path. Either way the pool is separate
  // from any sweep-harness pool. A provider (serving daemon) supplies the
  // pool instead of constructing one — same width, so behaviour is
  // unchanged, but the threads stay warm across jobs.
  if ((resolved_ == EngineChoice::kAgent ||
       resolved_ == EngineChoice::kCounting ||
       resolved_ == EngineChoice::kBlock ||
       resolved_ == EngineChoice::kDegreeClass) &&
      spec_.engine_threads != 1) {
    if (pools != nullptr) engine_pool_ptr_ = pools->pool(spec_.engine_threads);
    if (engine_pool_ptr_ == nullptr) {
      engine_pool_ =
          std::make_unique<support::ThreadPool>(spec_.engine_threads);
      engine_pool_ptr_ = engine_pool_.get();
    }
    if (resolved_ != EngineChoice::kAgent) {
      // Counting and block engines advance through the protocol's batched
      // laws, so the pool goes to the protocol (h-majority enumeration).
      protocol_->set_thread_pool(engine_pool_ptr_);
    }
  }
}

std::unique_ptr<core::Engine> Simulation::make_engine() const {
  switch (resolved_) {
    case EngineChoice::kCounting:
      return std::make_unique<core::CountingEngine>(*protocol_, initial_);
    case EngineChoice::kAsync:
      return std::make_unique<core::AsyncEngine>(*protocol_, initial_);
    case EngineChoice::kPairwise:
      return std::make_unique<core::PairwiseEngine>(*protocol_, initial_);
    case EngineChoice::kAgent: {
      // Block assignment on the model graph (vertex identity is
      // immaterial on K_n); random placement everywhere else, from a
      // dedicated stream so every trial sees the same start.
      std::vector<core::Opinion> opinions;
      if (graph_.is_complete_with_self_loops()) {
        opinions = core::assign_vertices(initial_);
      } else {
        support::Rng rng(support::derive_seed(spec_.seed, kAssignStream));
        opinions = core::assign_vertices_shuffled(initial_, rng);
      }
      auto engine = std::make_unique<core::AgentEngine>(
          *protocol_, graph_, std::move(opinions), initial_.num_opinions());
      engine->set_mean_field(spec_.mean_field_fast_path);
      if (spec_.zealots) {
        engine->freeze_holders(spec_.zealots->opinion, spec_.zealots->count);
      }
      if (engine_pool_ptr_ != nullptr) {
        engine->set_thread_pool(engine_pool_ptr_);
      }
      return engine;
    }
    case EngineChoice::kBlock: {
      // Split the initial configuration over the blocks exactly as a
      // shuffled vertex assignment would (the agent engine's convention on
      // non-complete graphs), from the same dedicated stream.
      const auto offsets =
          graph::sbm_block_offsets(spec_.n, spec_.topology->blocks);
      const auto weights = graph::sbm_block_weights(
          offsets, spec_.topology->intra_p, spec_.topology->inter_p);
      support::Rng rng(support::derive_seed(spec_.seed, kAssignStream));
      auto blocks =
          core::ClassCountingEngine::split_shuffled(initial_, offsets, rng);
      return std::make_unique<core::ClassCountingEngine>(
          core::ClassCountingEngine::sbm(*protocol_, std::move(blocks),
                                         weights));
    }
    case EngineChoice::kDegreeClass: {
      // Same shuffled-split convention over the histogram's contiguous
      // class layout — identical to how the agent engine populates the
      // annealed implicit graph, so the two simulate the same chain.
      const graph::DegreeHistogram hist =
          config_model_histogram(*spec_.topology, spec_.n);
      const auto offsets = hist.vertex_offsets();
      support::Rng rng(support::derive_seed(spec_.seed, kAssignStream));
      auto classes =
          core::ClassCountingEngine::split_shuffled(initial_, offsets, rng);
      return std::make_unique<core::ClassCountingEngine>(
          core::ClassCountingEngine::degree_classes(
              *protocol_, std::move(classes), hist.degrees));
    }
    case EngineChoice::kAuto: break;  // resolve_engine never returns kAuto
  }
  throw std::logic_error("Simulation: unresolved engine choice");
}

std::unique_ptr<core::Adversary> Simulation::make_adversary() const {
  if (!spec_.adversary) return nullptr;
  const AdversarySpec& adv = *spec_.adversary;
  if (adv.kind == "revive-weakest") {
    return core::make_revive_weakest_adversary(adv.budget);
  }
  if (adv.kind == "attack-leader") {
    return core::make_attack_leader_adversary(adv.budget);
  }
  if (adv.kind == "random-noise") {
    return core::make_random_noise_adversary(adv.budget);
  }
  throw std::invalid_argument("ScenarioSpec: unknown adversary kind '" +
                              adv.kind + "'");
}

core::RunResult Simulation::run(std::uint64_t seed) {
  last_engine_ = make_engine();
  last_rng_ = std::make_unique<support::Rng>(seed);
  const auto adversary = make_adversary();
  core::RunOptions options;
  options.max_rounds = spec_.max_rounds;
  options.adversary = adversary.get();
  options.observer = observer_;
  options.cancel = cancel_;
  if (spec_.checkpoint_every_rounds > 0) {
    if (checkpoint_file_.empty()) {
      throw std::logic_error(
          "Simulation::run: spec sets checkpoint_every_rounds but no file "
          "is registered (call set_checkpoint_file first)");
    }
    options.checkpoint_every_rounds = spec_.checkpoint_every_rounds;
    // The hook fires post-adversary inside run_to_consensus, so the
    // persisted engine state + RNG position resume bit-exactly.
    options.on_checkpoint = [this](std::uint64_t) {
      save_checkpoint(checkpoint_file_);
    };
  }
  return core::run_to_consensus(*last_engine_, *last_rng_, options);
}

core::RunResult Simulation::run_seeded(std::uint64_t seed,
                                       const exp::Trial* trial,
                                       const TrialHooks& hooks) const {
  const auto engine = make_engine();
  const auto adversary = make_adversary();
  core::RunOptions options;
  options.max_rounds = spec_.max_rounds;
  options.adversary = adversary.get();
  options.cancel = cancel_;
  if (trial != nullptr && hooks.setup) hooks.setup(*trial, options);
  support::Rng rng(seed);
  const core::RunResult result = core::run_to_consensus(*engine, rng, options);
  if (trial != nullptr && hooks.done) hooks.done(*trial, result);
  return result;
}

exp::PointStats Simulation::run_many(
    std::size_t reps, std::size_t sweep_threads, const TrialHooks& hooks,
    const std::vector<exp::ResultSink*>& sinks) const {
  exp::Sweep sweep(1, reps, spec_.seed);
  sweep.set_threads(sweep_threads);
  exp::PointStatsSink aggregate(1, reps);
  std::vector<exp::ResultSink*> all_sinks;
  all_sinks.reserve(sinks.size() + 1);
  all_sinks.push_back(&aggregate);
  all_sinks.insert(all_sinks.end(), sinks.begin(), sinks.end());
  sweep.run_stream(
      [&](const exp::Trial& trial) {
        return run_seeded(trial.seed, &trial, hooks);
      },
      all_sinks, /*resume=*/nullptr, cancel_);
  return aggregate.stats()[0];
}

namespace {
// v1: no integrity line (still readable); v2: trailing CRC-32 over the
// whole payload + the versioned engine section, written durably.
constexpr std::string_view kScenarioCheckpointMagicV1 =
    "consensuslib-scenario-checkpoint-v1";
constexpr std::string_view kScenarioCheckpointMagic =
    "consensuslib-scenario-checkpoint-v2";
}

void Simulation::save_checkpoint(const std::string& path) const {
  if (!last_engine_ || !last_rng_) {
    throw std::logic_error(
        "Simulation::save_checkpoint: no run to checkpoint (call run() "
        "first)");
  }
  write_checkpoint(path, *last_engine_, *last_rng_);
}

void Simulation::write_checkpoint(const std::string& path,
                                  const core::Engine& engine,
                                  const support::Rng& rng) const {
  // Durable + verifiable: the payload (magic, spec line, versioned engine
  // section) gets a trailing CRC-32 line and lands via temp-file + fsync +
  // atomic rename (support::write_file_durable). Periodic mid-run
  // checkpoints rewrite the same file, so a crash at any instant must
  // leave either the old complete snapshot or the new one — and a torn
  // blob that somehow reaches the final name fails the checksum on load
  // instead of misparsing. The "checkpoint.save" FaultInjector site lets
  // chaos tests force exactly that tear.
  std::ostringstream out;
  out << kScenarioCheckpointMagic << '\n'
      << spec_.to_json().dump() << '\n';  // one compact line, then engine
  core::write_engine_checkpoint(out, core::capture_engine(engine, rng));
  support::write_file_durable(path, support::with_crc_line(out.str()),
                              "checkpoint.save");
}

namespace {

core::EngineCheckpoint read_scenario_checkpoint(const std::string& path,
                                                ScenarioSpec* spec_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("Simulation: cannot open checkpoint " + path);
  }
  std::string text{std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>()};
  // v2 files verify their trailing CRC before any parsing; legacy v1
  // files predate the integrity line and parse as-is.
  if (text.rfind(kScenarioCheckpointMagicV1, 0) != 0) {
    text = support::verify_and_strip_crc_line(
        std::move(text), "Simulation: checkpoint " + path);
  }
  std::istringstream stream(text);
  std::string magic;
  std::getline(stream, magic);
  if (magic != kScenarioCheckpointMagic &&
      magic != kScenarioCheckpointMagicV1) {
    throw std::runtime_error("Simulation: bad checkpoint magic '" + magic +
                             "' in " + path);
  }
  std::string spec_line;
  std::getline(stream, spec_line);
  const ScenarioSpec spec = ScenarioSpec::from_json_text(spec_line);
  if (spec_out != nullptr) *spec_out = spec;
  return core::read_engine_checkpoint(stream);
}

}  // namespace

ScenarioSpec Simulation::checkpoint_spec(const std::string& path) {
  ScenarioSpec spec;
  (void)read_scenario_checkpoint(path, &spec);
  return spec;
}

std::unique_ptr<core::Engine> Simulation::restore_engine(
    const std::string& path, support::Rng& rng) const {
  ScenarioSpec embedded;
  const core::EngineCheckpoint checkpoint =
      read_scenario_checkpoint(path, &embedded);
  // A same-kind, same-shape checkpoint from a DIFFERENT scenario (other
  // protocol, seed, …) would restore cleanly and then run the wrong
  // chain; the embedded spec pins the checkpoint to its scenario.
  if (embedded != spec_) {
    throw std::invalid_argument(
        "Simulation::restore_engine: checkpoint " + path +
        " was saved for a different scenario (rebuild the Simulation with "
        "checkpoint_spec)");
  }
  auto engine = make_engine();
  core::restore_engine(*engine, rng, checkpoint);
  return engine;
}

}  // namespace consensus::api
