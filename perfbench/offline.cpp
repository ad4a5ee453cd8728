// The three in-process workloads: kn-paper, structured-counting and
// agent-sparse. Each is a fixed list of scenarios run to consensus once per
// seed of a fixed seed list derived from --seed, through the public
// api::Simulation / core::Engine calls only.
//
// Untraced runs time the seed list group by group and report the
// end-to-end metrics. Traced runs take the first half of the seed list,
// run it once untraced and once with spans around every public call (kept
// in memory, written to the work dir at the end), then replay the
// protocol law hooks and support::multinomial_into on states captured
// along the traced trajectories.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "consensus/api/simulation.hpp"
#include "consensus/api/sweep_runner.hpp"
#include "consensus/core/configuration.hpp"
#include "consensus/experiment/sink.hpp"
#include "consensus/graph/degree_histogram.hpp"
#include "consensus/graph/graph.hpp"
#include "consensus/support/rng.hpp"
#include "consensus/support/sampling.hpp"
#include "consensus/support/simd_kernels.hpp"

namespace perfbench {

namespace api = consensus::api;
namespace core = consensus::core;
namespace graph = consensus::graph;
namespace support = consensus::support;

namespace {

// Trials that have not reached consensus by then are cut and fail their
// checks, so a regressed build still exits inside three minutes.
constexpr double kWallBudgetS = 150.0;

struct Scenario {
  std::string label;
  api::ScenarioSpec spec;
  api::EngineChoice expected_engine;
  double theory_scale;  // min(k, √n) for 3-Majority, k for 2-Choices
};

// The seed list is `groups` × `seeds_per_group` seeds; each group (every
// scenario on its seeds) is timed as a unit.
struct Workload {
  std::vector<Scenario> scenarios;
  std::size_t groups = 2;
  std::size_t seeds_per_group = 1;
  std::size_t num_seeds() const noexcept { return groups * seeds_per_group; }
};

Scenario scenario(std::string label, std::string protocol, std::uint64_t n,
                  std::uint32_t k, std::uint64_t max_rounds,
                  api::EngineChoice expected) {
  Scenario s;
  s.label = std::move(label);
  s.spec.protocol = std::move(protocol);
  s.spec.n = n;
  s.spec.k = k;
  s.spec.max_rounds = max_rounds;
  s.expected_engine = expected;
  s.theory_scale =
      s.spec.protocol == "3-majority"
          ? std::min(static_cast<double>(k), std::sqrt(static_cast<double>(n)))
          : static_cast<double>(k);
  return s;
}

api::TopologySpec power_law_topology(std::uint64_t d_max) {
  api::TopologySpec t;
  t.kind = "configuration-model-annealed";
  t.alpha = 2.5;
  t.d_min = 3;
  t.d_max = d_max;
  return t;
}

api::TopologySpec sbm_topology(std::uint64_t blocks) {
  api::TopologySpec t;
  t.kind = "sbm";
  t.blocks = blocks;
  t.intra_p = 0.01;
  t.inter_p = 0.001;
  return t;
}

api::TopologySpec regular_topology() {
  api::TopologySpec t;
  t.kind = "random-regular-implicit";
  t.degree = 16;
  return t;
}

// Seed lists are sized so one untraced pass over them takes 15 to 20
// seconds on a 4-vCPU x86-64 host; the smoke sizes take milliseconds.
Workload make_workload(const Options& o) {
  using E = api::EngineChoice;
  Workload w;
  const bool s = o.smoke;
  if (o.workload == "kn-paper") {
    w.scenarios = {
        scenario("3maj-n1e8-k1024", "3-majority", s ? 1'000'000 : 100'000'000,
                 s ? 64 : 1024, 20'000, E::kCounting),
        scenario("2ch-n1e7-k1024", "2-choices", s ? 100'000 : 10'000'000,
                 s ? 64 : 1024, 40'000, E::kCounting),
        scenario("3maj-n1e6-k1e6", "3-majority", s ? 20'000 : 1'000'000,
                 s ? 20'000 : 1'000'000, 20'000, E::kCounting),
    };
    w.groups = 3;
    w.seeds_per_group = 2;
  } else if (o.workload == "structured-counting") {
    Scenario cm = scenario("3maj-cm-n1e7-k1024", "3-majority",
                           s ? 100'000 : 10'000'000, s ? 64 : 1024, 20'000,
                           E::kDegreeClass);
    cm.spec.topology = power_law_topology(s ? 1000 : 10'000);
    Scenario sbm = scenario("2ch-sbm-n1e6-k64", "2-choices",
                            s ? 10'000 : 1'000'000, s ? 16 : 64, 20'000,
                            E::kBlock);
    sbm.spec.topology = sbm_topology(s ? 4 : 16);
    w.scenarios = {cm, sbm};
    w.groups = 3;
    w.seeds_per_group = 2;
  } else if (o.workload == "agent-sparse") {
    for (const char* protocol : {"3-majority", "2-choices"}) {
      Scenario a = scenario(
          std::string(protocol == std::string("3-majority") ? "3maj" : "2ch") +
              "-rr16-n5e5-k64",
          protocol, s ? 20'000 : 500'000, s ? 16 : 64, 20'000, E::kAgent);
      a.spec.topology = regular_topology();
      a.spec.engine_threads = 4;
      w.scenarios.push_back(a);
    }
    w.groups = 4;
    w.seeds_per_group = 1;
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  if (s) {
    w.groups = 2;
    w.seeds_per_group = 1;
  }
  for (std::size_t i = 0; i < w.scenarios.size(); ++i) {
    // Spec JSON carries seeds as signed 64-bit integers.
    w.scenarios[i].spec.seed = support::derive_seed(o.seed, 1000 + i) >> 1;
  }
  return w;
}

std::uint64_t trial_seed(std::uint64_t bench_seed, std::size_t scenario,
                         std::size_t index) {
  return support::derive_seed(support::derive_seed(bench_seed, scenario),
                              index);
}

// ------------------------------------------------------------------ spans

enum class SpanKind : std::uint8_t {
  kStep, kIsConsensus, kConfiguration, kCaptureState, kMakeEngine
};
const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kStep: return "core.step";
    case SpanKind::kIsConsensus: return "core.is_consensus";
    case SpanKind::kConfiguration: return "core.configuration";
    case SpanKind::kCaptureState: return "core.capture_state";
    case SpanKind::kMakeEngine: return "api.make_engine";
  }
  return "?";
}

struct Span {
  SpanKind kind;
  std::uint32_t trial;   // the span that caused it: index into trials
  std::uint64_t round;
  Clock::time_point start;
  Clock::time_point end;
};

struct Capture {
  std::size_t scenario;
  double step_s;  // the traced step that started from this state
  std::vector<std::uint64_t> counts;  // G groups × k slots, flattened
};

struct Tracer {
  Clock::time_point origin = Clock::now();
  std::vector<Span> spans;
  std::vector<Capture> captures;
  std::vector<std::string> trial_labels;
  double alive_sum = 0;
  std::uint64_t alive_samples = 0;
};

template <class F>
auto traced(Tracer* tracer, SpanKind kind, std::uint32_t trial,
            std::uint64_t round, F&& call) {
  if (tracer == nullptr) return call();
  const Clock::time_point t0 = Clock::now();
  auto out = call();
  tracer->spans.push_back({kind, trial, round, t0, Clock::now()});
  return out;
}

// ------------------------------------------------------------------ trials

struct Pass {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t rounds = 0;
  std::vector<double> trial_wall_s;
  std::map<std::string, std::uint64_t> rounds_by_trial;
};

std::string trial_key(const Scenario& sc, std::uint64_t seed) {
  return sc.label + "/" + std::to_string(seed);
}

// Runs one trial to consensus with the public Engine calls and checks its
// outcome. With a tracer, every call gets a span, alive sizes are sampled
// every `alive_stride` rounds, and the state before each round listed in
// `capture_rounds` is captured for the replays.
std::uint64_t run_trial(const Scenario& sc, std::size_t sc_index,
                        const api::Simulation& sim, std::uint64_t seed,
                        Clock::time_point deadline, Result& result,
                        double& wall_s, Tracer* tracer,
                        std::uint64_t alive_stride,
                        const std::vector<std::uint64_t>& capture_rounds) {
  const auto trial = static_cast<std::uint32_t>(
      tracer ? tracer->trial_labels.size() : 0);
  if (tracer) tracer->trial_labels.push_back(trial_key(sc, seed));
  std::unique_ptr<core::Engine> engine =
      traced(tracer, SpanKind::kMakeEngine, trial, 0,
             [&] { return sim.make_engine(); });
  support::Rng rng(seed);
  const bool count_space = sim.engine_kind() != api::EngineChoice::kAgent;
  std::size_t next_capture = 0;
  std::uint64_t rounds = 0;
  bool cut = false;

  const Clock::time_point t0 = Clock::now();
  while (!traced(tracer, SpanKind::kIsConsensus, trial, rounds,
                 [&] { return engine->is_consensus(); })) {
    if (rounds >= sc.spec.max_rounds ||
        ((rounds & 63) == 0 && Clock::now() > deadline)) {
      cut = true;
      break;
    }
    if (tracer && rounds % alive_stride == 0) {
      const core::Configuration cfg =
          traced(tracer, SpanKind::kConfiguration, trial, rounds,
                 [&] { return engine->configuration(); });
      tracer->alive_sum += static_cast<double>(cfg.support_size());
      ++tracer->alive_samples;
    }
    const bool capture = tracer && next_capture < capture_rounds.size() &&
                         capture_rounds[next_capture] == rounds;
    if (capture) {
      ++next_capture;
      std::vector<std::uint64_t> counts = traced(
          tracer, SpanKind::kCaptureState, trial, rounds, [&] {
            if (count_space) return engine->capture_state().counts;
            const core::Configuration cfg = engine->configuration();
            return std::vector<std::uint64_t>(cfg.counts().begin(),
                                              cfg.counts().end());
          });
      tracer->captures.push_back({sc_index, 0.0, std::move(counts)});
    }
    if (tracer) {
      const Clock::time_point s0 = Clock::now();
      engine->step(rng);
      const Clock::time_point s1 = Clock::now();
      tracer->spans.push_back({SpanKind::kStep, trial, rounds, s0, s1});
      if (capture) tracer->captures.back().step_s = seconds_between(s0, s1);
    } else {
      engine->step(rng);
    }
    ++rounds;
  }
  wall_s = seconds_since(t0);

  // Output checks: consensus within max_rounds, validity (the winner had
  // initial support), the final state is all-winner, the engine's round
  // counter agrees, and rounds sit in a wide band around the paper's scale.
  const std::string key = trial_key(sc, seed);
  result.check(!cut, key + ": no consensus within max_rounds");
  if (!cut) {
    const core::Opinion winner = engine->winner();
    const auto initial = sim.initial_configuration().counts();
    result.check(winner < initial.size() && initial[winner] > 0,
                 key + ": validity (winner had no initial support)");
    const core::Configuration final_cfg = engine->configuration();
    result.check(final_cfg.count(winner) == sc.spec.n,
                 key + ": final configuration is not all-winner");
    const double ratio = static_cast<double>(rounds) / sc.theory_scale;
    result.notes.push(support::Json::object()
                          .set("trial", key)
                          .set("rounds", rounds)
                          .set("rounds_over_theory_scale", ratio));
    result.check(ratio >= 0.05 && ratio <= 20.0,
                 key + ": rounds/theory scale " + std::to_string(ratio) +
                     " outside [0.05, 20]");
  }
  result.check(engine->rounds_elapsed() == rounds,
               key + ": rounds_elapsed disagrees with steps taken");
  return rounds;
}

Pass run_pass(const Workload& w, const std::vector<api::Simulation>& sims,
              const Options& o, std::size_t first_seed, std::size_t num_seeds,
              Clock::time_point deadline, Result& result, Tracer* tracer,
              const std::map<std::string, std::uint64_t>* known_rounds) {
  Pass pass;
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t s = 0; s < w.scenarios.size(); ++s) {
    const Scenario& sc = w.scenarios[s];
    for (std::size_t i = first_seed; i < first_seed + num_seeds; ++i) {
      const std::uint64_t seed = trial_seed(o.seed, s, i);
      std::uint64_t alive_stride = 8;
      std::vector<std::uint64_t> capture_rounds;
      if (known_rounds) {
        const std::uint64_t total = known_rounds->at(trial_key(sc, seed));
        alive_stride = std::max<std::uint64_t>(1, total / 32);
        const std::uint64_t captures = o.smoke ? 2 : 8;
        if (i == first_seed) {
          for (std::uint64_t j = 0; j < captures; ++j)
            capture_rounds.push_back(total * j / captures);
          capture_rounds.erase(
              std::unique(capture_rounds.begin(), capture_rounds.end()),
              capture_rounds.end());
        }
      }
      double wall = 0;
      const std::uint64_t rounds =
          run_trial(sc, s, sims[s], seed, deadline, result, wall, tracer,
                    alive_stride, capture_rounds);
      pass.rounds += rounds;
      pass.trial_wall_s.push_back(wall);
      pass.rounds_by_trial[trial_key(sc, seed)] = rounds;
    }
  }
  pass.wall_s = seconds_since(t0);
  pass.cpu_s = process_cpu_seconds() - cpu0;
  return pass;
}

// Two passes over the same seeds must replay the same trajectories.
void check_same_rounds(const Pass& a, const Pass& b, Result& result) {
  for (const auto& [key, rounds] : a.rounds_by_trial) {
    const auto it = b.rounds_by_trial.find(key);
    result.check(it != b.rounds_by_trial.end() && it->second == rounds,
                 key + ": rounds differ between two passes of one run");
  }
}

// ----------------------------------------------------------------- replays

struct ReplayTotals {
  double law_s = 0;
  double multinomial_s = 0;
  std::uint64_t slots = 0;
  std::uint64_t rounds = 0;
  double step_s = 0;  // traced step time at the replayed rounds
};

template <class F>
double timed(F&& call) {
  const Clock::time_point t0 = Clock::now();
  call();
  return seconds_since(t0);
}

// One K_n round the way the counting engine takes it: the alive-set law
// (one multinomial, or one per alive group), else the closed form
// step_counts, whose time counts as law because it fuses law and sampling.
void replay_kn_round(const core::Protocol& protocol,
                     const std::vector<std::uint64_t>& counts,
                     support::Rng& rng, ReplayTotals& out) {
  const core::Configuration cfg{counts};
  const auto alive = cfg.alive();
  std::vector<double> probs;
  std::vector<std::uint64_t> draw;
  bool ok = false;
  out.law_s += timed(
      [&] { ok = protocol.outcome_distribution_alive(alive[0], cfg, probs); });
  if (!ok) {
    std::vector<std::uint64_t> next;
    out.law_s += timed([&] { protocol.step_counts(cfg, next, rng); });
    return;
  }
  if (!protocol.outcome_depends_on_current()) {
    out.multinomial_s += timed([&] {
      support::multinomial_into(rng, cfg.num_vertices(), probs, 1.0, draw);
    });
    out.slots += probs.size();
    return;
  }
  for (std::size_t idx = 0; idx < alive.size(); ++idx) {
    if (idx > 0) {
      out.law_s += timed([&] {
        protocol.outcome_distribution_alive(alive[idx], cfg, probs);
      });
    }
    out.multinomial_s += timed([&] {
      support::multinomial_into(rng, counts[alive[idx]], probs, 1.0, draw);
    });
    out.slots += probs.size();
  }
}

// One mixture round of the block / degree-class engines: per group, the
// mixture law once (anonymous rules) or per alive opinion, each followed
// by a k-wide multinomial. `mix[g]` is group g's neighbour law.
void replay_mixture_round(const core::Protocol& protocol,
                          const std::vector<std::uint64_t>& counts,
                          std::size_t k,
                          const std::vector<std::vector<double>>& mix,
                          support::Rng& rng, ReplayTotals& out) {
  std::vector<double> probs;
  std::vector<std::uint64_t> draw;
  for (std::size_t g = 0; g < mix.size(); ++g) {
    const std::uint64_t* group = counts.data() + g * k;
    std::uint64_t n_g = 0;
    for (std::size_t j = 0; j < k; ++j) n_g += group[j];
    const auto one = [&](core::Opinion current, std::uint64_t trials) {
      out.law_s += timed([&] {
        protocol.outcome_distribution_mixture(current, mix[g], n_g, probs);
      });
      out.multinomial_s += timed(
          [&] { support::multinomial_into(rng, trials, probs, draw); });
      out.slots += probs.size();
    };
    if (!protocol.outcome_depends_on_current()) {
      one(0, n_g);
    } else {
      for (std::size_t j = 0; j < k; ++j)
        if (group[j] > 0) one(static_cast<core::Opinion>(j), group[j]);
    }
  }
}

// Neighbour laws of every group, mirroring the engines' phase-1 mixing.
std::vector<std::vector<double>> group_mixtures(
    const api::Simulation& sim, const std::vector<std::uint64_t>& counts,
    std::size_t k) {
  const graph::Graph& g = sim.graph();
  const std::size_t groups = counts.size() / k;
  std::vector<double> sizes(groups, 0.0);
  for (std::size_t c = 0; c < groups; ++c)
    for (std::size_t j = 0; j < k; ++j)
      sizes[c] += static_cast<double>(counts[c * k + j]);
  std::vector<std::vector<double>> mix;
  if (sim.engine_kind() == api::EngineChoice::kBlock) {
    const std::vector<double> w =
        graph::sbm_block_weights(g.block_offsets(), g.intra_p(), g.inter_p());
    mix.assign(groups, std::vector<double>(k, 0.0));
    for (std::size_t dst = 0; dst < groups; ++dst) {
      double row = 0;
      for (std::size_t src = 0; src < groups; ++src) row += w[dst * groups + src];
      for (std::size_t src = 0; src < groups; ++src) {
        const double coeff = w[dst * groups + src] / row / sizes[src];
        for (std::size_t j = 0; j < k; ++j)
          mix[dst][j] += coeff * static_cast<double>(counts[src * k + j]);
      }
    }
    return mix;
  }
  // Degree classes share one law: q = Σ_c d_c·counts_c / Σ_c d_c·n_c.
  const auto degrees = g.degree_class_degrees();
  double stubs = 0;
  for (std::size_t c = 0; c < groups; ++c)
    stubs += static_cast<double>(degrees[c]) * sizes[c];
  std::vector<double> q(k, 0.0);
  for (std::size_t c = 0; c < groups; ++c) {
    const double coeff = static_cast<double>(degrees[c]) / stubs;
    for (std::size_t j = 0; j < k; ++j)
      q[j] += coeff * static_cast<double>(counts[c * k + j]);
  }
  mix.assign(groups, q);
  return mix;
}

ReplayTotals replay_captures(const Workload& w,
                             const std::vector<api::Simulation>& sims,
                             const Tracer& tracer, std::uint64_t seed) {
  ReplayTotals total;
  support::Rng rng(support::derive_seed(seed, 77));
  constexpr int kReps = 3;
  for (const Capture& cap : tracer.captures) {
    const api::Simulation& sim = sims[cap.scenario];
    const std::size_t k = w.scenarios[cap.scenario].spec.k;
    const bool mixture = cap.counts.size() > k;
    const auto mix = mixture ? group_mixtures(sim, cap.counts, k)
                             : std::vector<std::vector<double>>{};
    std::vector<double> law, mult;
    std::uint64_t slots = 0;
    for (int r = 0; r < kReps; ++r) {
      ReplayTotals one;
      if (mixture) {
        replay_mixture_round(sim.protocol(), cap.counts, k, mix, rng, one);
      } else {
        replay_kn_round(sim.protocol(), cap.counts, rng, one);
      }
      law.push_back(one.law_s);
      mult.push_back(one.multinomial_s);
      slots = one.slots;
    }
    total.law_s += median(law);
    total.multinomial_s += median(mult);
    total.slots += slots;
    total.step_s += cap.step_s;
    ++total.rounds;
  }
  return total;
}

// support::mixture_accumulate at the structured workload's full-size call
// shapes — B² calls of width 64 (16-block SBM) plus D calls of width 1024
// (the α = 2.5 power law's degree classes) — per round, every slot alive.
double mixture_accumulate_us_per_round(std::uint64_t seed) {
  const std::size_t blocks = 16, sbm_k = 64, cm_k = 1024;
  const std::size_t classes =
      graph::DegreeHistogram::power_law(10'000'000, 2.5, 3, 10'000)
          .num_classes();
  support::Rng rng(support::derive_seed(seed, 78));
  std::vector<std::uint64_t> sbm_counts(blocks * sbm_k), cm_counts(classes * cm_k);
  for (auto& c : sbm_counts) c = 1 + rng.uniform_below(1u << 14);
  for (auto& c : cm_counts) c = 1 + rng.uniform_below(1u << 14);
  std::vector<double> q_sbm(blocks * sbm_k), q_cm(cm_k);
  std::vector<double> per_round;
  for (int r = 0; r < 200; ++r) {
    std::fill(q_sbm.begin(), q_sbm.end(), 0.0);
    std::fill(q_cm.begin(), q_cm.end(), 0.0);
    per_round.push_back(timed([&] {
      for (std::size_t dst = 0; dst < blocks; ++dst)
        for (std::size_t src = 0; src < blocks; ++src)
          support::mixture_accumulate(q_sbm.data() + dst * sbm_k,
                                      sbm_counts.data() + src * sbm_k, sbm_k,
                                      1e-7);
      for (std::size_t c = 0; c < classes; ++c)
        support::mixture_accumulate(q_cm.data(), cm_counts.data() + c * cm_k,
                                    cm_k, 1e-9);
    }));
  }
  volatile double sink = q_sbm[0] + q_cm[0];
  (void)sink;
  return median(per_round) * 1e6;
}

// Graph::random_neighbor on each scenario's graph, averaged over scenarios.
double neighbor_ns(const std::vector<api::Simulation>& sims,
                   std::uint64_t seed) {
  support::Rng rng(support::derive_seed(seed, 79));
  constexpr std::uint64_t kCalls = 1u << 18;
  double total = 0;
  for (const api::Simulation& sim : sims) {
    const graph::Graph& g = sim.graph();
    const std::uint64_t n = sim.spec().n;
    std::vector<double> reps;
    std::uint64_t acc = 0;
    for (int r = 0; r < 3; ++r) {
      reps.push_back(timed([&] {
        for (std::uint64_t i = 0; i < kCalls; ++i)
          acc += g.random_neighbor(static_cast<graph::Vertex>(i % n), rng);
      }));
    }
    volatile std::uint64_t sink = acc;
    (void)sink;
    total += median(reps) / static_cast<double>(kCalls) * 1e9;
  }
  return total / static_cast<double>(sims.size());
}

void write_trace(const Tracer& tracer, const Options& o) {
  std::ofstream out(o.work_dir + "/trace-" + o.workload + ".csv");
  out << "span,trial,round,start_us,duration_us\n";
  for (const Span& s : tracer.spans) {
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - tracer.origin)
          .count();
    };
    out << span_name(s.kind) << "," << tracer.trial_labels[s.trial] << ","
        << s.round << "," << us(s.start) << "," << us(s.end) - us(s.start)
        << "\n";
  }
}

}  // namespace

// SweepRunner to CSV for the served workload's sweep spec — the offline
// half of the serving-overhead comparison. Shared with served.cpp.
std::string offline_sweep_csv(const api::SweepSpec& spec, double& ms) {
  const Clock::time_point t0 = Clock::now();
  const api::SweepRunner runner(spec);
  const std::vector<consensus::exp::PointStats> stats = runner.run(1);
  std::string csv = consensus::exp::point_stats_csv_text(runner.labels(), stats);
  ms = seconds_since(t0) * 1e3;
  return csv;
}

void run_offline(const Options& o, Result& result) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kWallBudgetS));
  const Workload w = make_workload(o);

  // Set-up: from_spec + make_engine for every scenario, several times.
  std::vector<api::Simulation> sims;
  std::vector<double> setup_s, from_spec_ms, make_engine_ms;
  for (int rep = 0; rep < (o.smoke ? 2 : 11); ++rep) {
    std::vector<api::Simulation> built;
    double from_spec = 0, make_engine = 0;
    for (const Scenario& sc : w.scenarios) {
      const Clock::time_point t0 = Clock::now();
      built.push_back(api::Simulation::from_spec(sc.spec));
      const Clock::time_point t1 = Clock::now();
      const auto engine = built.back().make_engine();
      make_engine += seconds_since(t1);
      from_spec += seconds_between(t0, t1);
    }
    setup_s.push_back(from_spec + make_engine);
    from_spec_ms.push_back(from_spec * 1e3);
    make_engine_ms.push_back(make_engine * 1e3);
    sims = std::move(built);
  }
  for (std::size_t s = 0; s < w.scenarios.size(); ++s) {
    const Scenario& sc = w.scenarios[s];
    result.check(sims[s].engine_kind() == sc.expected_engine,
                 sc.label + ": resolved engine " +
                     std::string(api::to_string(sims[s].engine_kind())));
    result.notes.push(support::Json::object()
                          .set("scenario", sc.label)
                          .set("spec", sc.spec.to_json())
                          .set("engine", std::string(api::to_string(
                                             sims[s].engine_kind()))));
  }

  if (!o.trace) {
    // Untraced: the seed list group by group, and the whole list again
    // while another fits in the measuring window (replaying the same
    // trajectories). Medians over groups keep a slow spell of the shared
    // host that hits one group from moving the result.
    std::vector<Pass> groups;
    const Clock::time_point t0 = Clock::now();
    double list_wall_s = 0;
    do {
      const Clock::time_point l0 = Clock::now();
      for (std::size_t g = 0; g < w.groups; ++g) {
        groups.push_back(run_pass(w, sims, o, g * w.seeds_per_group,
                                  w.seeds_per_group, deadline, result,
                                  nullptr, nullptr));
        if (groups.size() > w.groups)
          check_same_rounds(groups[groups.size() - 1 - w.groups],
                            groups.back(), result);
      }
      list_wall_s = seconds_since(l0);
    } while (seconds_since(t0) + list_wall_s <= o.seconds &&
             Clock::now() < deadline);
    std::vector<double> walls, rates;
    support::Json group_walls = support::Json::array();
    for (const Pass& g : groups) {
      walls.push_back(g.wall_s);
      rates.push_back(static_cast<double>(g.rounds) / g.wall_s);
      group_walls.push(g.wall_s);
    }
    result.notes.push(support::Json::object().set("group_wall_s", group_walls));
    for (std::size_t g = 0; g < w.groups; ++g)
      for (const auto& [key, rounds] : groups[g].rounds_by_trial)
        result.record_rounds(key, rounds);
    result.set("consensus_s",
               static_cast<double>(w.groups) * median(walls), "s");
    result.set("rounds_per_s", median(rates), "1/s");
    result.set("setup_s", median(setup_s), "s");
    result.set("peak_rss_mb", proc_status_field(0, "VmHWM") / 1024.0, "MB");
    return;
  }

  // Traced: the first half of the seed list, untraced then traced.
  const std::size_t seeds = (w.num_seeds() + 1) / 2;
  const Pass plain =
      run_pass(w, sims, o, 0, seeds, deadline, result, nullptr, nullptr);
  Tracer tracer;
  tracer.spans.reserve(plain.rounds * 2 + 64);
  const Pass traced_pass = run_pass(w, sims, o, 0, seeds, deadline, result,
                                    &tracer, &plain.rounds_by_trial);
  check_same_rounds(plain, traced_pass, result);
  for (const auto& [key, rounds] : traced_pass.rounds_by_trial)
    result.record_rounds(key, rounds);

  std::vector<double> step_us;
  double step_s = 0, is_consensus_s = 0;
  for (const Span& s : tracer.spans) {
    const double d = seconds_between(s.start, s.end);
    if (s.kind == SpanKind::kStep) {
      step_us.push_back(d * 1e6);
      step_s += d;
    } else if (s.kind == SpanKind::kIsConsensus) {
      is_consensus_s += d;
    }
  }
  const ReplayTotals replay = replay_captures(w, sims, tracer, o.seed);
  std::vector<double> sweep_ms;
  const api::SweepSpec sweep = api::SweepSpec::from_json_text(
      read_file(o.specs_dir + "/sweep_fig1_grid.json"));
  for (int r = 0; r < 3; ++r) {
    double ms = 0;
    offline_sweep_csv(sweep, ms);
    sweep_ms.push_back(ms);
  }

  result.set("api.from_spec_ms", median(from_spec_ms), "ms");
  result.set("api.make_engine_ms", median(make_engine_ms), "ms");
  result.set("core.step_us_p50", quantile(step_us, 0.50), "us");
  result.set("core.step_us_p99", quantile(step_us, 0.99), "us");
  result.set("core.step_s", step_s, "s");
  result.set("core.is_consensus_s", is_consensus_s, "s");
  result.set("core.rounds", static_cast<double>(traced_pass.rounds), "count");
  result.set("core.trial_ms_p50", quantile(plain.trial_wall_s, 0.50) * 1e3, "ms");
  result.set("core.trial_ms_p90", quantile(plain.trial_wall_s, 0.90) * 1e3, "ms");
  result.set("core.alive_mean",
             tracer.alive_sum / static_cast<double>(
                                    std::max<std::uint64_t>(1, tracer.alive_samples)),
             "count");
  result.set("sampling.multinomial_ns_per_slot",
             replay.slots ? replay.multinomial_s * 1e9 /
                                static_cast<double>(replay.slots)
                          : 0.0,
             "ns");
  result.set("core.law_us_per_round",
             replay.law_s * 1e6 / static_cast<double>(replay.rounds), "us");
  result.set("sampling.replay_share",
             (replay.law_s + replay.multinomial_s) / replay.step_s, "ratio");
  result.set("simd.mixture_accumulate_us_per_round",
             mixture_accumulate_us_per_round(o.seed), "us");
  result.set("graph.neighbor_ns", neighbor_ns(sims, o.seed), "ns");
  result.set("agent.cpu_per_wall", plain.cpu_s / plain.wall_s, "ratio");
  result.set("experiment.offline_sweep_ms", median(sweep_ms), "ms");
  result.set("trace.overhead_pct",
             (traced_pass.wall_s - plain.wall_s) / plain.wall_s * 100.0, "%");
  write_trace(tracer, o);
}

}  // namespace perfbench
