// ScenarioSpec: JSON round-trips must be lossless, and malformed or
// contradictory specs must be rejected with std::invalid_argument before
// any engine is built.
#include "consensus/api/scenario.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace consensus::api {
namespace {

ScenarioSpec full_spec() {
  ScenarioSpec spec;
  spec.protocol = "median";
  spec.n = 4096;
  spec.k = 8;
  spec.init.kind = "biased";
  spec.init.param = 0.05;
  spec.topology = TopologySpec{.kind = "torus", .rows = 64};
  spec.zealots = ZealotSpec{.opinion = 1, .count = 40};
  spec.engine = EngineChoice::kAgent;
  spec.engine_threads = 2;
  spec.max_rounds = 5000;
  spec.seed = 7;
  return spec;
}

TEST(ScenarioSpec, DefaultSpecIsValid) {
  ScenarioSpec spec;
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(resolve_engine(spec), EngineChoice::kCounting);
}

TEST(ScenarioSpec, JsonRoundTripIsLossless) {
  // Default, fully-loaded, adversarial, and explicit-counts specs all
  // survive spec -> JSON text -> spec exactly.
  std::vector<ScenarioSpec> specs;
  specs.emplace_back();
  specs.push_back(full_spec());
  {
    ScenarioSpec adv;
    adv.protocol = "h-majority:5";
    adv.adversary = AdversarySpec{"attack-leader", 12};
    adv.generic_only = true;
    adv.engine = EngineChoice::kCounting;
    specs.push_back(adv);
  }
  {
    ScenarioSpec counts;
    counts.set_counts({100, 50, 0, 25});
    counts.engine = EngineChoice::kAsync;
    specs.push_back(counts);
  }
  {
    ScenarioSpec sparse;
    sparse.dense_only = true;
    sparse.checkpoint_every_rounds = 500;
    sparse.engine = EngineChoice::kCounting;
    specs.push_back(sparse);
  }
  {
    ScenarioSpec dense_agent;
    dense_agent.engine = EngineChoice::kAgent;
    dense_agent.mean_field_fast_path = false;
    specs.push_back(dense_agent);
  }
  for (const ScenarioSpec& spec : specs) {
    const ScenarioSpec reparsed =
        ScenarioSpec::from_json_text(spec.to_json_text());
    EXPECT_EQ(reparsed, spec);
    // And the rendered text is a fixed point.
    EXPECT_EQ(reparsed.to_json_text(), spec.to_json_text());
  }
}

TEST(ScenarioSpec, FromJsonFillsDefaults) {
  const ScenarioSpec spec =
      ScenarioSpec::from_json_text(R"({"protocol": "voter", "n": 1000})");
  EXPECT_EQ(spec.protocol, "voter");
  EXPECT_EQ(spec.n, 1000u);
  EXPECT_EQ(spec.k, 16u);  // default
  EXPECT_EQ(spec.engine, EngineChoice::kAuto);
  EXPECT_FALSE(spec.topology.has_value());
}

TEST(ScenarioSpec, RejectsUnknownKeysAndKinds) {
  // Typos anywhere in the document are hard errors, not silent defaults.
  EXPECT_THROW(ScenarioSpec::from_json_text(R"({"protocl": "voter"})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::from_json_text(
                   R"({"init": {"kind": "balanced", "margin": 0.1}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::from_json_text(R"({"protocol": "no-such"})"),
               std::invalid_argument);
  EXPECT_THROW(
      ScenarioSpec::from_json_text(R"({"protocol": "h-majority:4294967299"})"),
      std::invalid_argument);
  EXPECT_THROW(
      ScenarioSpec::from_json_text(R"({"protocol": "h-majority:-1"})"),
      std::invalid_argument);
  EXPECT_THROW(
      ScenarioSpec::from_json_text(R"({"protocol": "h-majority:5x"})"),
      std::invalid_argument);
  EXPECT_THROW(
      ScenarioSpec::from_json_text(R"({"init": {"kind": "no-such"}})"),
      std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::from_json_text(
                   R"({"topology": {"kind": "moebius"}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::from_json_text(
                   R"({"adversary": {"kind": "bribe", "budget": 3}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::from_json_text("[]"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::from_json_text("not json"),
               std::invalid_argument);
  // 32-bit fields must reject out-of-range values, not truncate them into
  // a different (but self-consistent) scenario.
  EXPECT_THROW(ScenarioSpec::from_json_text(R"({"k": 4294967298})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::from_json_text(
                   R"({"zealots": {"opinion": 4294967296, "count": 1}})"),
               std::invalid_argument);
}

TEST(ScenarioSpec, ValidateCatchesInconsistentFields) {
  {
    ScenarioSpec spec;
    spec.n = 0;
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
  {
    ScenarioSpec spec;
    spec.n = 8;
    spec.k = 16;  // n < k
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
  {
    ScenarioSpec spec;
    spec.init.kind = "counts";
    spec.init.counts = {10, 10};  // n/k left inconsistent
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
  {
    ScenarioSpec spec;
    spec.init.kind = "biased";
    spec.init.param = 1.5;
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
  {
    ScenarioSpec spec;
    spec.topology = TopologySpec{.kind = "torus", .rows = 7};  // 7 ∤ n
    spec.n = 100;
    spec.k = 4;
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
  {
    ScenarioSpec spec;
    spec.zealots = ZealotSpec{.opinion = 99, .count = 1};
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
  {
    // engine_threads sizes a real pool; wire-delivered specs must not be
    // able to crash the worker at ThreadPool construction.
    ScenarioSpec spec;
    spec.engine = EngineChoice::kAgent;
    spec.engine_threads = 4'000'000'000;
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
}

TEST(ScenarioSpec, ResolveEngineAutoRules) {
  {
    // Plain K_n scenario → counting (fast paths).
    ScenarioSpec spec;
    EXPECT_EQ(resolve_engine(spec), EngineChoice::kCounting);
  }
  {
    // Non-complete topology → agent.
    ScenarioSpec spec;
    spec.topology = TopologySpec{.kind = "cycle"};
    EXPECT_EQ(resolve_engine(spec), EngineChoice::kAgent);
  }
  {
    // Zealots → agent even on K_n.
    ScenarioSpec spec;
    spec.zealots = ZealotSpec{.opinion = 0, .count = 5};
    EXPECT_EQ(resolve_engine(spec), EngineChoice::kAgent);
  }
  {
    // Adversary → counting.
    ScenarioSpec spec;
    spec.adversary = AdversarySpec{"random-noise", 3};
    EXPECT_EQ(resolve_engine(spec), EngineChoice::kCounting);
  }
}

TEST(ScenarioSpec, ResolveEngineRejectsContradictions) {
  {
    // Counting engine cannot host a cycle.
    ScenarioSpec spec;
    spec.engine = EngineChoice::kCounting;
    spec.topology = TopologySpec{.kind = "cycle"};
    EXPECT_THROW(resolve_engine(spec), std::invalid_argument);
  }
  {
    // Zealots need the agent engine.
    ScenarioSpec spec;
    spec.engine = EngineChoice::kAsync;
    spec.zealots = ZealotSpec{.opinion = 0, .count = 5};
    EXPECT_THROW(resolve_engine(spec), std::invalid_argument);
  }
  {
    // Adversaries act on counts only.
    ScenarioSpec spec;
    spec.engine = EngineChoice::kAgent;
    spec.adversary = AdversarySpec{"random-noise", 3};
    EXPECT_THROW(resolve_engine(spec), std::invalid_argument);
  }
  {
    // Adversary + zealots is unsatisfiable (no engine has both).
    ScenarioSpec spec;
    spec.adversary = AdversarySpec{"random-noise", 3};
    spec.zealots = ZealotSpec{.opinion = 0, .count = 5};
    EXPECT_THROW(resolve_engine(spec), std::invalid_argument);
  }
  {
    // Pairwise fits single-sample protocols only (3-majority draws 3).
    ScenarioSpec spec;
    spec.engine = EngineChoice::kPairwise;
    EXPECT_THROW(resolve_engine(spec), std::invalid_argument);
  }
  {
    // ... but the voter model fits.
    ScenarioSpec spec;
    spec.protocol = "voter";
    spec.engine = EngineChoice::kPairwise;
    EXPECT_EQ(resolve_engine(spec), EngineChoice::kPairwise);
  }
  {
    // dense_only is a counting-engine diagnostic, like generic_only.
    ScenarioSpec spec;
    spec.engine = EngineChoice::kAgent;
    spec.dense_only = true;
    EXPECT_THROW(resolve_engine(spec), std::invalid_argument);
  }
  {
    // generic_only already hides the dense paths; the pair is ambiguous.
    ScenarioSpec spec;
    spec.engine = EngineChoice::kCounting;
    spec.generic_only = true;
    spec.dense_only = true;
    EXPECT_THROW(resolve_engine(spec), std::invalid_argument);
  }
  {
    // Opting out of the mean-field fast path only means something on the
    // agent engine.
    ScenarioSpec spec;
    spec.engine = EngineChoice::kCounting;
    spec.mean_field_fast_path = false;
    EXPECT_THROW(resolve_engine(spec), std::invalid_argument);
    spec.engine = EngineChoice::kAgent;
    EXPECT_EQ(resolve_engine(spec), EngineChoice::kAgent);
  }
}

TEST(ScenarioSpec, StructuredTopologyRoundTripsAndValidates) {
  // The SBM family descriptor fields survive JSON round-trips.
  ScenarioSpec spec;
  spec.n = 100000;
  spec.topology = TopologySpec{
      .kind = "sbm", .blocks = 16, .intra_p = 0.001, .inter_p = 0.0001};
  EXPECT_NO_THROW(spec.validate());
  const ScenarioSpec reparsed =
      ScenarioSpec::from_json_text(spec.to_json_text());
  EXPECT_EQ(reparsed, spec);
  EXPECT_EQ(reparsed.topology->blocks, 16u);
  EXPECT_DOUBLE_EQ(reparsed.topology->intra_p, 0.001);

  // Implicit regular kinds: no n*degree parity constraint (d-out model).
  ScenarioSpec reg;
  reg.n = 101;  // odd n, odd degree would be invalid for "random-regular"
  reg.topology = TopologySpec{.kind = "random-regular-implicit", .degree = 3};
  EXPECT_NO_THROW(reg.validate());
  EXPECT_EQ(ScenarioSpec::from_json_text(reg.to_json_text()), reg);
  reg.topology->kind = "random-regular-annealed";
  EXPECT_NO_THROW(reg.validate());

  // Bad family parameters are hard errors.
  for (const char* kind : {"sbm", "sbm-explicit"}) {
    ScenarioSpec bad;
    bad.topology = TopologySpec{.kind = kind};
    bad.topology->blocks = 0;  // need >= 1
    bad.topology->intra_p = 0.5;
    EXPECT_THROW(bad.validate(), std::invalid_argument) << kind;
    bad.topology->blocks = 8192;  // over the wire-safety cap
    EXPECT_THROW(bad.validate(), std::invalid_argument) << kind;
    bad.topology->blocks = 4;
    bad.topology->intra_p = 0.0;  // intra_p in (0, 1]
    EXPECT_THROW(bad.validate(), std::invalid_argument) << kind;
    bad.topology->intra_p = 0.5;
    bad.topology->inter_p = -0.1;  // inter_p in [0, 1]
    EXPECT_THROW(bad.validate(), std::invalid_argument) << kind;
  }
  {
    ScenarioSpec bad;
    bad.topology = TopologySpec{.kind = "random-regular-implicit"};
    EXPECT_THROW(bad.validate(), std::invalid_argument);  // degree == 0
  }
}

TEST(ScenarioSpec, ResolveEngineStructuredRules) {
  {
    // Annealed SBM auto-routes to the block-counting engine.
    ScenarioSpec spec;
    spec.topology = TopologySpec{
        .kind = "sbm", .blocks = 8, .intra_p = 0.01, .inter_p = 0.001};
    EXPECT_EQ(resolve_engine(spec), EngineChoice::kBlock);
    // ... but an explicit agent request on the same chain is honoured
    // (the cross-validation configuration).
    spec.engine = EngineChoice::kAgent;
    EXPECT_EQ(resolve_engine(spec), EngineChoice::kAgent);
    // Zealots need per-vertex state, so they win over the block route.
    spec.engine = EngineChoice::kAuto;
    spec.zealots = ZealotSpec{.opinion = 0, .count = 5};
    EXPECT_EQ(resolve_engine(spec), EngineChoice::kAgent);
  }
  {
    // The quenched CSR sample is a plain agent topology.
    ScenarioSpec spec;
    spec.topology = TopologySpec{
        .kind = "sbm-explicit", .blocks = 8, .intra_p = 0.01,
        .inter_p = 0.001};
    EXPECT_EQ(resolve_engine(spec), EngineChoice::kAgent);
    // The block engine is exact only for the ANNEALED model.
    spec.engine = EngineChoice::kBlock;
    EXPECT_THROW(resolve_engine(spec), std::invalid_argument);
  }
  {
    // Annealed regular == model graph ⇒ counting; quenched implicit is a
    // real (vertex-dependent) topology ⇒ agent.
    ScenarioSpec spec;
    spec.topology =
        TopologySpec{.kind = "random-regular-annealed", .degree = 8};
    EXPECT_EQ(resolve_engine(spec), EngineChoice::kCounting);
    spec.topology->kind = "random-regular-implicit";
    EXPECT_EQ(resolve_engine(spec), EngineChoice::kAgent);
  }
  {
    // Block without an sbm topology is a contradiction.
    ScenarioSpec spec;
    spec.engine = EngineChoice::kBlock;
    EXPECT_THROW(resolve_engine(spec), std::invalid_argument);
  }
}

TEST(ScenarioSpec, ConfigurationModelTopologyRoundTripsAndValidates) {
  // Explicit-histogram form: degrees + class_sizes survive JSON exactly.
  ScenarioSpec spec;
  spec.n = 150;
  spec.k = 4;
  spec.topology = TopologySpec{.kind = "configuration-model",
                               .degrees = {3, 8, 40},
                               .class_sizes = {100, 40, 10}};
  EXPECT_NO_THROW(spec.validate());
  const ScenarioSpec reparsed =
      ScenarioSpec::from_json_text(spec.to_json_text());
  EXPECT_EQ(reparsed, spec);
  EXPECT_EQ(reparsed.topology->degrees, (std::vector<std::uint64_t>{3, 8, 40}));
  EXPECT_EQ(reparsed.to_json_text(), spec.to_json_text());  // fixed point

  // Power-law form: alpha/d_min/d_max survive JSON exactly, on every kind
  // in the family.
  for (const char* kind : {"configuration-model",
                           "configuration-model-annealed",
                           "configuration-model-explicit"}) {
    ScenarioSpec pl;
    pl.n = 100000;
    pl.topology = TopologySpec{
        .kind = kind, .alpha = 2.5, .d_min = 3, .d_max = 1024};
    EXPECT_NO_THROW(pl.validate()) << kind;
    EXPECT_EQ(ScenarioSpec::from_json_text(pl.to_json_text()), pl) << kind;
  }

  // Exactly one histogram form: both or neither are hard errors.
  {
    ScenarioSpec bad;
    bad.n = 150;
    bad.topology = TopologySpec{.kind = "configuration-model"};
    EXPECT_THROW(bad.validate(), std::invalid_argument);  // neither form
    bad.topology->degrees = {3, 8};
    bad.topology->class_sizes = {100, 50};
    bad.topology->alpha = 2.5;
    bad.topology->d_min = 3;
    bad.topology->d_max = 8;
    EXPECT_THROW(bad.validate(), std::invalid_argument);  // both forms
  }
  // Explicit-form shape errors.
  {
    ScenarioSpec bad;
    bad.n = 150;
    bad.topology = TopologySpec{.kind = "configuration-model",
                                .degrees = {3, 8},
                                .class_sizes = {100}};
    EXPECT_THROW(bad.validate(), std::invalid_argument);  // length mismatch
    bad.topology->class_sizes = {100, 49};
    EXPECT_THROW(bad.validate(), std::invalid_argument);  // sums to 149 != n
    bad.topology->degrees = {8, 3};
    bad.topology->class_sizes = {100, 50};
    EXPECT_THROW(bad.validate(), std::invalid_argument);  // not increasing
    bad.topology->degrees = {0, 3};
    EXPECT_THROW(bad.validate(), std::invalid_argument);  // zero degree
    bad.topology->degrees = {3, 200};
    EXPECT_THROW(bad.validate(), std::invalid_argument);  // degree > n
  }
  // Power-law parameter errors.
  {
    ScenarioSpec bad;
    bad.n = 1000;
    bad.topology = TopologySpec{
        .kind = "configuration-model-annealed", .alpha = -1.0, .d_min = 3,
        .d_max = 64};
    EXPECT_THROW(bad.validate(), std::invalid_argument);  // alpha <= 0
    bad.topology->alpha = 2.5;
    bad.topology->d_min = 0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);  // d_min == 0
    bad.topology->d_min = 65;
    EXPECT_THROW(bad.validate(), std::invalid_argument);  // d_min > d_max
    bad.topology->d_min = 3;
    bad.topology->d_max = 2000;
    EXPECT_THROW(bad.validate(), std::invalid_argument);  // d_max > n
  }
}

TEST(ScenarioSpec, ResolveEngineConfigurationModelRules) {
  {
    // The annealed configuration model auto-routes to the degree-class
    // counting engine.
    ScenarioSpec spec;
    spec.n = 150;
    spec.topology = TopologySpec{.kind = "configuration-model-annealed",
                                 .degrees = {3, 8, 40},
                                 .class_sizes = {100, 40, 10}};
    EXPECT_EQ(resolve_engine(spec), EngineChoice::kDegreeClass);
    // ... but an explicit agent request on the same chain is honoured
    // (the cross-validation configuration).
    spec.engine = EngineChoice::kAgent;
    EXPECT_EQ(resolve_engine(spec), EngineChoice::kAgent);
    // Zealots need per-vertex state, so they win over the auto route.
    spec.engine = EngineChoice::kAuto;
    spec.zealots = ZealotSpec{.opinion = 0, .count = 5};
    EXPECT_EQ(resolve_engine(spec), EngineChoice::kAgent);
  }
  {
    // Quenched kinds (implicit stub-matching and explicit CSR) are plain
    // agent topologies.
    for (const char* kind :
         {"configuration-model", "configuration-model-explicit"}) {
      ScenarioSpec spec;
      spec.n = 150;
      spec.topology = TopologySpec{.kind = kind,
                                   .degrees = {3, 8, 40},
                                   .class_sizes = {100, 40, 10}};
      EXPECT_EQ(resolve_engine(spec), EngineChoice::kAgent) << kind;
      // The degree-class engine is exact only for the ANNEALED model.
      spec.engine = EngineChoice::kDegreeClass;
      EXPECT_THROW(resolve_engine(spec), std::invalid_argument) << kind;
    }
  }
  {
    // Degree-class without a configuration-model topology at all.
    ScenarioSpec spec;
    spec.engine = EngineChoice::kDegreeClass;
    EXPECT_THROW(resolve_engine(spec), std::invalid_argument);
  }
}

TEST(ScenarioSpec, SetCountsKeepsInvariants) {
  ScenarioSpec spec;
  spec.set_counts({30, 20, 10});
  EXPECT_EQ(spec.n, 60u);
  EXPECT_EQ(spec.k, 3u);
  EXPECT_EQ(spec.init.kind, "counts");
  EXPECT_NO_THROW(spec.validate());
}

}  // namespace
}  // namespace consensus::api
