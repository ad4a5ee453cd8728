// PERF — engine throughput microbenchmarks.
//
// Not a paper artifact: quantifies the cost model that makes the
// reproduction feasible — the O(k)-per-round closed-form and group-batched
// counting paths vs the O(n)-per-round per-vertex paths, and the parallel
// vs serial agent engine. Emits a human table and a machine-readable
// BENCH_perf_engines.json (rounds/sec per engine × protocol × n) so the
// perf trajectory can be tracked across PRs.
//
// Usage:
//   bench_perf_engines [--n-counting=1000000,100000000] [--n-agent=1000000]
//                      [--n-meanfield=1000000,10000000]
//                      [--n-sbm=10000000] [--n-sbm-block=100000000]
//                      [--sbm-blocks=16]
//                      [--n-config-model=10000000]
//                      [--n-config-model-class=100000000]
//                      [--k=16] [--seconds=1.0] [--threads=0]
//                      [--sparse-slots=1000000] [--sparse-alive=1000]
//                      [--enum-threads=8] [--mix-slots=1024]
//                      [--out=BENCH_perf_engines.json]
//
// The generic per-vertex reference path is time-budgeted (at n = 10^8 a
// single per-vertex h-majority round costs seconds), so each measurement
// runs for ~`--seconds` wall time but always at least one round.
//
// Two columns added with the sparse alive-set engine:
//   * counting-sparse vs counting-dense — 3-majority with and without the
//     alive-set law (dense = the O(k) step_counts closed form), at small
//     k (sparse must not be slower) and at k = --sparse-slots with
//     --sparse-alive alive opinions (the k ≈ n plurality regime, where
//     sparse is the whole point);
//   * hmaj-enum:T — h-majority alive-law throughput for
//     h ∈ {7, 9, 11} with a 1-thread vs --enum-threads-wide engine pool
//     (the pool also scales the enumeration budgets, so large h stays on
//     the batched path instead of falling back per-vertex).
//
// Columns added with the mean-field agent fast path:
//   * agent-meanfield vs agent-dense — the agent engine with the
//     count-space alias fast path (spec default) vs the legacy per-vertex
//     dense path (`mean_field_fast_path: false`), serial, at each
//     --n-meanfield size (CI gates meanfield >= dense at n >= 1e6);
//   * hmaj-simd vs hmaj-scalar — the counting engine's h-majority
//     composition integration with the support/simd_kernels vector path
//     enabled vs forced scalar (bit-identical laws, throughput only).
//
// Columns added with the structured-graph fast paths (schema_version 3):
//   * counting-block — the block-counting engine on the annealed SBM
//     ("sbm" topology, --sbm-blocks blocks) at each --n-sbm size and at
//     the --n-sbm-block sizes (default 10^8: rounds are O(B²·a), so n is
//     free and no CSR is ever materialised);
//   * agent-implicit — the agent engine on the SAME annealed SBM via the
//     implicit topology (per-query neighbour sampling, no CSR);
//   * agent-csr — the agent engine on one quenched SBM sample as an
//     explicit CSR (the reference chain; CI gates counting-block >=
//     agent-csr at the shared smoke point).
//   The SBM probabilities are degree-targeted (~8 intra + ~2 inter edges
//   per vertex at every n) so the explicit CSR stays materialisable.
//
// Columns added with the degree-class engine (schema_version 4):
//   * counting-degree — the degree-class counting engine on the annealed
//     power-law configuration model at each --n-config-model size and at
//     the --n-config-model-class sizes (default 10^8: rounds are O(D·a),
//     n is free, no CSR);
//   * agent-implicit-cm — the agent engine on the quenched implicit
//     configuration model (per-query stub re-derivation, no CSR);
//   * agent-csr-cm — the agent engine on one quenched stub-matching
//     sample as an explicit CSR (the reference chain; CI gates
//     counting-degree >= agent-csr-cm at the shared smoke point).
//   A further counting-degree row runs the end-to-end benchmark's
//   degree-class scenario (n = 10^7, k = 1024, degrees 3..10^4). The
//   class-engine rows restore their initial EngineState between rounds
//   outside the timed region.
//   Schema 4 also fixes thread provenance: top-level `hardware_threads`
//   is the true std::thread::hardware_concurrency(), and every row
//   carries the pool width it ACTUALLY ran on in `threads`.
//
// Columns added with the multi-ISA kernel registry (schema_version 5):
//   * block-mix-simd vs block-mix-scalar — the block engine's phase-1
//     mixing saxpy (support::mixture_accumulate, B² calls per round) plus
//     the per-destination 3-majority law assembly
//     (core::assemble_majority_mixture), at the engine's exact call shape
//     but isolated from phase-2 multinomial sampling (which dominates a
//     full step and would bury the kernel signal). --mix-slots sets the
//     slot width (default 1024, L1-resident);
//   * degree-mix-simd vs degree-mix-scalar — the same pair for the
//     degree-class engine's shared-q accumulation (one saxpy + one law
//     assembly per power-law degree class per round).
//   Schema 5 provenance: top-level `simd_isa` is the registry's active
//   lane (CONSENSUS_SIMD pins it) and rows carry the vector kernel they
//   exercise in `kernel`.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "consensus/api/simulation.hpp"
#include "consensus/core/async_engine.hpp"
#include "consensus/core/mixture_sampler.hpp"
#include "consensus/graph/degree_histogram.hpp"
#include "consensus/support/flags.hpp"
#include "consensus/support/json.hpp"
#include "consensus/support/simd_kernels.hpp"

using namespace consensus;

namespace {

struct Measurement {
  std::string engine;
  std::string protocol;
  std::uint64_t n = 0;
  std::uint32_t k = 0;
  std::uint64_t rounds = 0;
  double seconds = 0.0;
  double rounds_per_sec = 0.0;
  /// Engine pool width this row actually ran on (1 = serial). Recorded
  /// per row because columns mix widths in one artifact.
  std::size_t threads = 1;
  /// The registry kernel a kernel-pair column exercises ("histogram_term",
  /// "mixture"); empty for whole-engine rows. Schema 5.
  std::string kernel;
};

/// Runs step() repeatedly for ~budget seconds of wall time (>= 1 round)
/// and reports the throughput. `reset`, when given, runs between rounds
/// outside the timed region (engines put back into their measured regime),
/// and `seconds` then counts step() alone. Both return void; `engine`
/// outlives the call.
template <typename StepFn, typename ResetFn = std::nullptr_t>
Measurement measure(std::string engine, std::string protocol, std::uint64_t n,
                    std::uint32_t k, double budget_seconds, StepFn&& step,
                    ResetFn&& reset = nullptr) {
  using clock = std::chrono::steady_clock;
  Measurement m;
  m.engine = std::move(engine);
  m.protocol = std::move(protocol);
  m.n = n;
  m.k = k;
  const auto start = clock::now();
  for (;;) {
    if constexpr (std::is_null_pointer_v<std::remove_cvref_t<ResetFn>>) {
      step();
      ++m.rounds;
      m.seconds = std::chrono::duration<double>(clock::now() - start).count();
      if (m.seconds >= budget_seconds) break;
    } else {
      const auto before = clock::now();
      step();
      const auto after = clock::now();
      ++m.rounds;
      m.seconds += std::chrono::duration<double>(after - before).count();
      if (std::chrono::duration<double>(after - start).count() >=
          budget_seconds) {
        break;
      }
      reset();
    }
  }
  m.rounds_per_sec = static_cast<double>(m.rounds) / m.seconds;
  std::printf("%-18s %-14s n=%-12llu k=%-6u %10llu rounds in %7.3fs  %12.3f rounds/s\n",
              m.engine.c_str(), m.protocol.c_str(),
              static_cast<unsigned long long>(m.n), m.k,
              static_cast<unsigned long long>(m.rounds), m.seconds,
              m.rounds_per_sec);
  std::fflush(stdout);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = support::Flags::parse(argc - 1, argv + 1);
  const auto n_counting = flags.get_uint_list(
      "n-counting", {1000000ULL, 100000000ULL});
  const auto n_agent = flags.get_uint_list("n-agent", {1000000ULL});
  const auto n_meanfield =
      flags.get_uint_list("n-meanfield", {1000000ULL, 10000000ULL});
  const auto n_sbm = flags.get_uint_list("n-sbm", {10000000ULL});
  const auto n_sbm_block =
      flags.get_uint_list("n-sbm-block", {100000000ULL});
  const auto sbm_blocks = flags.get_uint("sbm-blocks", 16);
  const auto n_config_model =
      flags.get_uint_list("n-config-model", {10000000ULL});
  const auto n_config_model_class =
      flags.get_uint_list("n-config-model-class", {100000000ULL});
  const auto k = static_cast<std::uint32_t>(flags.get_uint("k", 16));
  const double seconds = flags.get_double("seconds", 1.0);
  const auto threads = static_cast<std::size_t>(flags.get_uint("threads", 0));
  const auto sparse_slots = flags.get_uint("sparse-slots", 1000000);
  const auto sparse_alive = flags.get_uint("sparse-alive", 1000);
  const auto enum_threads =
      static_cast<std::size_t>(flags.get_uint("enum-threads", 8));
  const auto mix_slots =
      static_cast<std::size_t>(flags.get_uint("mix-slots", 1024));
  const std::string out_path =
      flags.get_string("out", "BENCH_perf_engines.json");

  std::vector<Measurement> results;

  // All engines come out of api::Simulation::make_engine — the bench only
  // describes scenarios and steps the engines manually.
  const auto make_sim = [&](const std::string& protocol, std::uint64_t n,
                            api::EngineChoice engine, bool generic_only,
                            std::size_t engine_threads) {
    api::ScenarioSpec spec;
    spec.protocol = protocol;
    spec.n = n;
    spec.k = k;
    spec.engine = engine;
    spec.generic_only = generic_only;
    spec.engine_threads = engine_threads;
    return api::Simulation::from_spec(spec);
  };

  // --- counting engine: closed-form / batched path per protocol ---------
  const std::vector<std::string> protocols = {
      "3-majority", "2-choices", "voter",
      "undecided",  "median",    "h-majority:3",
      "h-majority:5"};
  for (std::uint64_t n : n_counting) {
    for (const auto& name : protocols) {
      const auto sim =
          make_sim(name, n, api::EngineChoice::kCounting, false, 1);
      const auto engine = sim.make_engine();
      support::Rng rng(1);
      results.push_back(measure("counting", name, n, k, seconds, [&] {
        engine->step(rng);
        // Reset so every measured round sees the same (hard) regime
        // instead of a near-consensus one.
        *engine->mutable_configuration() = sim.initial_configuration();
      }));
    }
    // Per-vertex reference path (what the batched path replaced).
    for (const auto& name : {std::string("h-majority:5"),
                             std::string("median")}) {
      const auto sim =
          make_sim(name, n, api::EngineChoice::kCounting, true, 1);
      const auto engine = sim.make_engine();
      support::Rng rng(2);
      results.push_back(
          measure("counting-generic", name, n, k, seconds, [&] {
            engine->step(rng);
            *engine->mutable_configuration() = sim.initial_configuration();
          }));
    }
  }

  // --- sparse alive-set path vs the dense closed form ------------------
  // Small k, full support: the sparse path must not be slower than the
  // step_counts closed form it shadows (CI gates on this pair).
  {
    for (const bool dense : {false, true}) {
      api::ScenarioSpec spec;
      spec.protocol = "3-majority";
      spec.n = 1000000;
      spec.k = k;
      spec.engine = api::EngineChoice::kCounting;
      spec.dense_only = dense;
      const auto sim = api::Simulation::from_spec(spec);
      const auto engine = sim.make_engine();
      support::Rng rng(5);
      results.push_back(measure(dense ? "counting-dense" : "counting-sparse",
                                spec.protocol, spec.n, k, seconds, [&] {
                                  engine->step(rng);
                                  *engine->mutable_configuration() =
                                      sim.initial_configuration();
                                }));
    }
  }
  // k ≈ n plurality regime (Thm 2.6): --sparse-slots opinion slots with
  // only --sparse-alive of them alive. Dense pays O(k) per round for the
  // closed form; sparse pays O(alive).
  {
    std::vector<std::uint64_t> counts(sparse_slots, 0);
    const std::uint64_t per = 1000;  // population of each alive opinion
    for (std::uint64_t i = 0; i < sparse_alive; ++i) counts[i] = per;
    for (const bool dense : {false, true}) {
      api::ScenarioSpec spec;
      spec.engine = api::EngineChoice::kCounting;
      spec.dense_only = dense;
      spec.protocol = "3-majority";
      spec.set_counts(counts);
      const auto sim = api::Simulation::from_spec(spec);
      const auto engine = sim.make_engine();
      support::Rng rng(6);
      // Resetting every round would copy the k = 10^6-slot vector (8 MB)
      // per step and dominate both paths; reset every 256 rounds instead —
      // alive decays by at most a few opinions in between, so the regime
      // stays pinned at ~sparse_alive alive opinions.
      std::uint64_t steps = 0;
      results.push_back(
          measure(dense ? "counting-dense" : "counting-sparse",
                  "3-majority(a=" + std::to_string(sparse_alive) + ")",
                  spec.n, static_cast<std::uint32_t>(sparse_slots), seconds,
                  [&] {
                    engine->step(rng);
                    if (++steps % 256 == 0) {
                      *engine->mutable_configuration() =
                          sim.initial_configuration();
                    }
                  }));
    }
  }

  // --- h-majority enumeration: 1-thread vs pooled law -------------------
  // n is kept modest: the batched law is independent of n, and when the
  // serial budget declines (h = 11) the fallback is per-vertex — which at
  // huge n would turn one round into minutes.
  for (const unsigned h : {7u, 9u, 11u}) {
    for (const std::size_t pool : {std::size_t{1}, enum_threads}) {
      const auto sim = make_sim("h-majority:" + std::to_string(h), 1000000,
                                api::EngineChoice::kCounting, false, pool);
      const auto engine = sim.make_engine();
      support::Rng rng(7);
      results.push_back(measure("hmaj-enum:" + std::to_string(pool),
                                "h-majority:" + std::to_string(h), 1000000, k,
                                seconds, [&] {
                                  engine->step(rng);
                                  *engine->mutable_configuration() =
                                      sim.initial_configuration();
                                }));
      results.back().threads = pool;
    }
  }

  // --- h-majority composition integration: SIMD vs scalar kernel --------
  // Same scenarios, same laws bit for bit (the scalar fallback mirrors the
  // vector lanes); only the kernel toggles. On hardware without AVX2 both
  // columns run the scalar code and the ratio is ~1.
  for (const unsigned h : {7u, 9u}) {
    for (const bool simd : {false, true}) {
      support::set_simd_kernels_enabled(simd);
      const auto sim = make_sim("h-majority:" + std::to_string(h), 1000000,
                                api::EngineChoice::kCounting, false, 1);
      const auto engine = sim.make_engine();
      support::Rng rng(9);
      results.push_back(measure(simd ? "hmaj-simd" : "hmaj-scalar",
                                "h-majority:" + std::to_string(h), 1000000,
                                k, seconds, [&] {
                                  engine->step(rng);
                                  *engine->mutable_configuration() =
                                      sim.initial_configuration();
                                }));
      results.back().kernel = "histogram_term";
    }
  }
  support::set_simd_kernels_enabled(true);

  // --- count-space mixing kernels: SIMD vs scalar -----------------------
  // The block engine's phase 1 at its exact call shape: B² saxpy
  // accumulations of u64 counts into the destination mixes
  // (support::mixture_accumulate) plus one 3-majority law assembly per
  // destination (core::assemble_majority_mixture — the γ reduction and
  // elementwise map behind outcome_distribution_mixture). Isolated from
  // phase-2 multinomial sampling, which dominates a full step() and would
  // bury the kernel signal. Laws are bit-identical across arms (the
  // scalar mirrors share the vector lanes' operation order); only the
  // kernel toggles. CI gates simd >= 0.9x scalar per pair.
  {
    const std::size_t B = static_cast<std::size_t>(sbm_blocks);
    std::vector<std::uint64_t> mix_sizes(n_sbm.begin(), n_sbm.end());
    mix_sizes.insert(mix_sizes.end(), n_sbm_block.begin(), n_sbm_block.end());
    for (std::uint64_t n : mix_sizes) {
      // Block counts: population n/B per block, spread evenly over the
      // slot width (every slot alive — the dense regime the vector saxpy
      // serves; thin supports take the sparse walk, not this kernel).
      std::vector<std::vector<std::uint64_t>> counts(
          B, std::vector<std::uint64_t>(mix_slots));
      for (std::size_t b = 0; b < B; ++b) {
        const std::uint64_t n_b = n / B;
        for (std::size_t j = 0; j < mix_slots; ++j) {
          counts[b][j] = n_b / mix_slots + (j < n_b % mix_slots ? 1 : 0);
        }
      }
      const double inv_n = 1.0 / static_cast<double>(n);
      std::vector<std::vector<double>> q(B, std::vector<double>(mix_slots));
      std::vector<double> law;
      for (const bool simd : {false, true}) {
        support::set_simd_kernels_enabled(simd);
        results.push_back(measure(
            simd ? "block-mix-simd" : "block-mix-scalar", "3-majority", n,
            static_cast<std::uint32_t>(mix_slots), seconds, [&] {
              for (std::size_t dst = 0; dst < B; ++dst) {
                std::fill(q[dst].begin(), q[dst].end(), 0.0);
                for (std::size_t src = 0; src < B; ++src) {
                  support::mixture_accumulate(q[dst].data(),
                                              counts[src].data(), mix_slots,
                                              inv_n);
                }
                core::assemble_majority_mixture(q[dst], law);
              }
            }));
        results.back().kernel = "mixture";
      }
    }
  }
  // The degree-class engine's phase 1: one SHARED q accumulated over the
  // power-law degree classes (one saxpy per class with the stub-share
  // coefficient), then the per-class law assembly phase 2 runs before any
  // multinomial draw — one assembly per class, same q each time, exactly
  // the engine's call pattern for anonymous rules.
  {
    std::vector<std::uint64_t> mix_sizes(n_config_model.begin(),
                                         n_config_model.end());
    mix_sizes.insert(mix_sizes.end(), n_config_model_class.begin(),
                     n_config_model_class.end());
    for (std::uint64_t n : mix_sizes) {
      const auto hist = graph::DegreeHistogram::power_law(
          n, 2.5, 3, std::min<std::uint64_t>(n, 1024));
      const std::size_t D = hist.num_classes();
      std::vector<std::vector<std::uint64_t>> counts(
          D, std::vector<std::uint64_t>(mix_slots));
      std::vector<double> stub_share(D);
      double total_stubs = 0.0;
      for (std::size_t c = 0; c < D; ++c) {
        const std::uint64_t n_c = hist.class_sizes[c];
        for (std::size_t j = 0; j < mix_slots; ++j) {
          counts[c][j] = n_c / mix_slots + (j < n_c % mix_slots ? 1 : 0);
        }
        total_stubs += static_cast<double>(hist.degrees[c]) *
                       static_cast<double>(n_c);
      }
      for (std::size_t c = 0; c < D; ++c) {
        stub_share[c] = static_cast<double>(hist.degrees[c]) / total_stubs;
      }
      std::vector<double> q(mix_slots);
      std::vector<double> law;
      for (const bool simd : {false, true}) {
        support::set_simd_kernels_enabled(simd);
        results.push_back(measure(
            simd ? "degree-mix-simd" : "degree-mix-scalar", "3-majority", n,
            static_cast<std::uint32_t>(mix_slots), seconds, [&] {
              std::fill(q.begin(), q.end(), 0.0);
              for (std::size_t c = 0; c < D; ++c) {
                support::mixture_accumulate(q.data(), counts[c].data(),
                                            mix_slots, stub_share[c]);
              }
              for (std::size_t c = 0; c < D; ++c) {
                core::assemble_majority_mixture(q, law);
              }
            }));
        results.back().kernel = "mixture";
      }
    }
  }
  support::set_simd_kernels_enabled(true);

  // --- agent engine: mean-field fast path vs legacy dense path ----------
  // Serial on purpose: the pair isolates the sampling representation
  // (count-space alias + fused kernels vs per-vertex array indexing +
  // virtual calls) from thread scaling. CI gates meanfield >= dense at
  // n >= 1e6.
  for (std::uint64_t n : n_meanfield) {
    for (const char* name : {"3-majority", "h-majority:5"}) {
      for (const bool dense : {false, true}) {
        api::ScenarioSpec spec;
        spec.protocol = name;
        spec.n = n;
        spec.k = k;
        spec.engine = api::EngineChoice::kAgent;
        spec.mean_field_fast_path = !dense;
        const auto sim = api::Simulation::from_spec(spec);
        const auto engine = sim.make_engine();
        support::Rng rng(8);
        results.push_back(measure(dense ? "agent-dense" : "agent-meanfield",
                                  name, n, k, seconds,
                                  [&] { engine->step(rng); }));
      }
    }
  }

  // --- structured SBM: block-counting vs agent (implicit / explicit) ----
  const auto sbm_scenario = [&](std::uint64_t n, const char* kind,
                                api::EngineChoice engine,
                                const char* protocol = "3-majority") {
    api::ScenarioSpec spec;
    spec.protocol = protocol;
    spec.n = n;
    spec.k = k;
    spec.engine = engine;
    api::TopologySpec topo;
    topo.kind = kind;
    topo.blocks = sbm_blocks;
    // Degree-targeted: ~8 expected intra + ~2 expected inter edges per
    // vertex at every n, so the quenched CSR at the explicit smoke point
    // stays materialisable while the structured paths never build one.
    topo.intra_p = std::min(
        1.0, 8.0 * static_cast<double>(sbm_blocks) / static_cast<double>(n));
    topo.inter_p =
        sbm_blocks < 2
            ? 0.0
            : std::min(1.0, 2.0 / (static_cast<double>(n) *
                                   (1.0 - 1.0 / static_cast<double>(
                                                    sbm_blocks))));
    spec.topology = topo;
    return api::Simulation::from_spec(spec);
  };
  for (std::uint64_t n : n_sbm) {
    {
      const auto sim = sbm_scenario(n, "sbm", api::EngineChoice::kBlock);
      const auto engine = sim.make_engine();
      // The block engine exposes no mutable aggregate configuration (its
      // state is per-block); pin the measured regime by restoring the
      // initial EngineState instead — an O(B·k) copy, same order as the
      // round itself, so it runs outside the timed region.
      const auto init_state = engine->capture_state();
      support::Rng rng(10);
      results.push_back(measure(
          "counting-block", "3-majority", n, k, seconds,
          [&] { engine->step(rng); },
          [&] { engine->restore_state(init_state); }));
    }
    {
      const auto sim = sbm_scenario(n, "sbm", api::EngineChoice::kAgent);
      const auto engine = sim.make_engine();
      support::Rng rng(10);
      // No per-round reset: agent rounds are O(n) and measure at most a
      // handful of rounds, far from any regime drift.
      results.push_back(measure("agent-implicit", "3-majority", n, k,
                                seconds, [&] { engine->step(rng); }));
    }
    {
      const auto sim =
          sbm_scenario(n, "sbm-explicit", api::EngineChoice::kAgent);
      const auto engine = sim.make_engine();
      support::Rng rng(10);
      results.push_back(measure("agent-csr", "3-majority", n, k, seconds,
                                [&] { engine->step(rng); }));
    }
  }
  // n-independent headline: the block engine at n = 10^8 (default) — the
  // whole scenario (graph descriptor + engine) never materialises a CSR.
  // 2-Choices runs the keep-or-adopt round (O(a) keeper binomials plus
  // one adopt multinomial per block).
  for (std::uint64_t n : n_sbm_block) {
    for (const char* protocol : {"3-majority", "2-choices"}) {
      const auto sim =
          sbm_scenario(n, "sbm", api::EngineChoice::kBlock, protocol);
      const auto engine = sim.make_engine();
      const auto init_state = engine->capture_state();
      support::Rng rng(11);
      results.push_back(measure(
          "counting-block", protocol, n, k, seconds,
          [&] { engine->step(rng); },
          [&] { engine->restore_state(init_state); }));
    }
  }

  // --- configuration model: degree-class vs agent (implicit / CSR) ------
  const auto config_model_scenario = [&](std::uint64_t n, const char* kind,
                                         api::EngineChoice engine) {
    api::ScenarioSpec spec;
    spec.protocol = "3-majority";
    spec.n = n;
    spec.k = k;
    spec.engine = engine;
    api::TopologySpec topo;
    topo.kind = kind;
    // Power-law histogram with a mean degree of ~9 (alpha 2.5, d_min 3),
    // comparable to the SBM columns, so the quenched CSR at the explicit
    // smoke point stays materialisable while the structured paths never
    // build one. d_max is capped well below n at every size.
    topo.alpha = 2.5;
    topo.d_min = 3;
    topo.d_max = std::min<std::uint64_t>(n, 1024);
    spec.topology = topo;
    return api::Simulation::from_spec(spec);
  };
  for (std::uint64_t n : n_config_model) {
    {
      const auto sim = config_model_scenario(
          n, "configuration-model-annealed", api::EngineChoice::kDegreeClass);
      const auto engine = sim.make_engine();
      // Like the block engine: no mutable aggregate configuration (state
      // is per degree class); pin the regime by restoring the initial
      // EngineState — an O(D·k) copy, untimed.
      const auto init_state = engine->capture_state();
      support::Rng rng(12);
      results.push_back(measure(
          "counting-degree", "3-majority", n, k, seconds,
          [&] { engine->step(rng); },
          [&] { engine->restore_state(init_state); }));
    }
    {
      const auto sim = config_model_scenario(n, "configuration-model",
                                             api::EngineChoice::kAgent);
      const auto engine = sim.make_engine();
      support::Rng rng(12);
      results.push_back(measure("agent-implicit-cm", "3-majority", n, k,
                                seconds, [&] { engine->step(rng); }));
    }
    {
      const auto sim = config_model_scenario(
          n, "configuration-model-explicit", api::EngineChoice::kAgent);
      const auto engine = sim.make_engine();
      support::Rng rng(12);
      results.push_back(measure("agent-csr-cm", "3-majority", n, k, seconds,
                                [&] { engine->step(rng); }));
    }
  }
  // n-independent headline: the degree-class engine at n = 10^8 (default)
  // — the whole scenario (degree histogram + engine) never materialises a
  // CSR or even a per-vertex array.
  for (std::uint64_t n : n_config_model_class) {
    const auto sim = config_model_scenario(
        n, "configuration-model-annealed", api::EngineChoice::kDegreeClass);
    const auto engine = sim.make_engine();
    const auto init_state = engine->capture_state();
    support::Rng rng(13);
    results.push_back(measure(
        "counting-degree", "3-majority", n, k, seconds,
        [&] { engine->step(rng); },
        [&] { engine->restore_state(init_state); }));
  }
  // The end-to-end benchmark's degree-class scenario (3-Majority,
  // n = 10^7, k = 1024, power law alpha 2.5 over degrees 3..10^4) at its
  // balanced first round: 46 classes, the small ones drawn by table
  // counting and the large ones by the cascade.
  {
    api::ScenarioSpec spec;
    spec.protocol = "3-majority";
    spec.n = 10000000;
    spec.k = 1024;
    spec.engine = api::EngineChoice::kDegreeClass;
    api::TopologySpec topo;
    topo.kind = "configuration-model-annealed";
    topo.alpha = 2.5;
    topo.d_min = 3;
    topo.d_max = 10000;
    spec.topology = topo;
    const auto sim = api::Simulation::from_spec(spec);
    const auto engine = sim.make_engine();
    const auto init_state = engine->capture_state();
    support::Rng rng(14);
    results.push_back(measure(
        "counting-degree", spec.protocol, spec.n, spec.k, seconds,
        [&] { engine->step(rng); },
        [&] { engine->restore_state(init_state); }));
  }

  // --- agent engine: serial vs thread pool ------------------------------
  const std::size_t agent_pool_width =
      threads == 0 ? static_cast<std::size_t>(std::max(
                         1u, std::thread::hardware_concurrency()))
                   : threads;
  for (std::uint64_t n : n_agent) {
    {
      const auto sim =
          make_sim("3-majority", n, api::EngineChoice::kAgent, false, 1);
      const auto engine = sim.make_engine();
      support::Rng rng(3);
      results.push_back(measure("agent-serial", "3-majority", n, k, seconds,
                                [&] { engine->step(rng); }));
    }
    {
      const auto sim = make_sim("3-majority", n, api::EngineChoice::kAgent,
                                false, threads);
      const auto engine = sim.make_engine();
      support::Rng rng(3);
      results.push_back(
          measure("agent-parallel:" + std::to_string(agent_pool_width),
                  "3-majority", n, k, seconds, [&] { engine->step(rng); }));
      results.back().threads = agent_pool_width;
    }
  }

  // --- async engine: O(log k) tick (ticks/sec, one "round" = one tick) --
  for (std::uint64_t n : n_agent) {
    const auto sim =
        make_sim("3-majority", n, api::EngineChoice::kAsync, false, 1);
    const auto owned = sim.make_engine();
    auto* engine = dynamic_cast<core::AsyncEngine*>(owned.get());
    support::Rng rng(4);
    results.push_back(measure("async-tick", "3-majority", n, k, seconds,
                              [&] { engine->tick(rng); }));
  }

  // --- machine-readable artifact ----------------------------------------
  auto json = support::Json::object();
  json.set("bench", "perf_engines");
  // Version the artifact so tools/check_perf_smoke.py can evolve its gates
  // without breaking on older JSONs.
  json.set("schema_version", std::uint64_t{5});
  json.set("k", static_cast<std::uint64_t>(k));
  json.set("sbm_blocks", sbm_blocks);
  json.set("mix_slots", static_cast<std::uint64_t>(mix_slots));
  // Provenance, fixed in schema 4: `hardware_threads` is what the machine
  // HAS (std::thread::hardware_concurrency), `agent_pool_threads` what the
  // agent-parallel column USED (a --threads override counts), and every
  // row carries its own pool width in `threads`. Schema 3 conflated the
  // first two, which made artifacts from --threads-overridden 1-core CI
  // containers unreadable.
  json.set("hardware_threads",
           static_cast<std::uint64_t>(
               std::max(1u, std::thread::hardware_concurrency())));
  json.set("agent_pool_threads",
           static_cast<std::uint64_t>(agent_pool_width));
  json.set("enum_threads", static_cast<std::uint64_t>(enum_threads));
  json.set("simd_available", support::simd_kernels_available());
  // Schema 5 provenance: the lane every vector-kernel call actually ran on
  // (CONSENSUS_SIMD pins it; "scalar" on hardware without any lane).
  json.set("simd_isa",
           std::string(support::to_string(support::active_simd_isa())));
  auto rows = support::Json::array();
  for (const auto& m : results) {
    auto row = support::Json::object();
    row.set("engine", m.engine);
    row.set("protocol", m.protocol);
    row.set("n", m.n);
    row.set("k", static_cast<std::uint64_t>(m.k));
    row.set("rounds", m.rounds);
    row.set("seconds", m.seconds);
    row.set("rounds_per_sec", m.rounds_per_sec);
    row.set("threads", static_cast<std::uint64_t>(m.threads));
    if (!m.kernel.empty()) row.set("kernel", m.kernel);
    rows.push(std::move(row));
  }
  json.set("results", std::move(rows));
  std::ofstream out(out_path);
  out << json.dump(2) << "\n";
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu measurements)\n", out_path.c_str(),
              results.size());
  return 0;
}
