#include "consensus/api/sweep_spec.hpp"

#include <gtest/gtest.h>

#include "consensus/support/rng.hpp"

namespace consensus::api {
namespace {

SweepSpec small_grid() {
  SweepSpec sweep;
  sweep.name = "grid";
  sweep.base.protocol = "3-majority";
  sweep.base.n = 500;
  sweep.base.k = 4;
  SweepAxis protocol_axis;
  protocol_axis.name = "protocol";
  protocol_axis.points.push_back(
      support::Json::object().set("protocol", "3-majority"));
  protocol_axis.points.push_back(
      support::Json::object().set("protocol", "2-choices"));
  SweepAxis k_axis;
  k_axis.name = "k";
  for (std::uint64_t k : {2, 4, 8}) {
    k_axis.points.push_back(support::Json::object().set("k", k));
  }
  sweep.axes = {protocol_axis, k_axis};
  sweep.replications = 3;
  sweep.seed = 0xabc;
  return sweep;
}

TEST(SweepSpec, JsonRoundTripIsLossless) {
  const SweepSpec sweep = small_grid();
  const SweepSpec reparsed = SweepSpec::from_json_text(sweep.to_json_text());
  EXPECT_EQ(sweep, reparsed);
  // And a second trip is stable (fully canonical encoding).
  EXPECT_EQ(sweep.to_json_text(), reparsed.to_json_text());
}

TEST(SweepSpec, RejectsUnknownKeys) {
  auto json = small_grid().to_json();
  json.set("reps", 7);  // typo for "replications"
  EXPECT_THROW(SweepSpec::from_json(json), std::invalid_argument);

  auto axis_typo = small_grid().to_json();
  axis_typo.set("axes", support::Json::array().push(
                            support::Json::object()
                                .set("name", "k")
                                .set("values", support::Json::array())));
  EXPECT_THROW(SweepSpec::from_json(axis_typo), std::invalid_argument);
}

TEST(SweepSpec, CartesianExpansionOrderAndLabels) {
  const SweepSpec sweep = small_grid();
  EXPECT_EQ(sweep.num_points(), 6u);
  EXPECT_EQ(sweep.num_trials(), 18u);
  const auto points = sweep.expand_points();
  ASSERT_EQ(points.size(), 6u);
  // Last axis (k) varies fastest; overrides land in the merged spec.
  EXPECT_EQ(points[0].label, "protocol=3-majority,k=2");
  EXPECT_EQ(points[1].label, "protocol=3-majority,k=4");
  EXPECT_EQ(points[3].label, "protocol=2-choices,k=2");
  EXPECT_EQ(points[0].spec.protocol, "3-majority");
  EXPECT_EQ(points[3].spec.protocol, "2-choices");
  EXPECT_EQ(points[5].spec.k, 8u);
  // Untouched base fields survive the merge.
  for (const SweepPoint& point : points) EXPECT_EQ(point.spec.n, 500u);
}

TEST(SweepSpec, ZipExpansionAdvancesAxesInLockstep) {
  SweepSpec sweep = small_grid();
  sweep.expand = ExpandMode::kZip;
  sweep.axes[1].points.pop_back();  // both axes length 2
  EXPECT_EQ(sweep.num_points(), 2u);
  const auto points = sweep.expand_points();
  EXPECT_EQ(points[0].spec.protocol, "3-majority");
  EXPECT_EQ(points[0].spec.k, 2u);
  EXPECT_EQ(points[1].spec.protocol, "2-choices");
  EXPECT_EQ(points[1].spec.k, 4u);
}

TEST(SweepSpec, ZipRejectsLengthMismatch) {
  SweepSpec sweep = small_grid();
  sweep.expand = ExpandMode::kZip;  // axes have lengths 2 and 3
  EXPECT_THROW(sweep.validate(), std::invalid_argument);
}

TEST(SweepSpec, NestedOverrideReplacesWholeObject) {
  SweepSpec sweep;
  sweep.base.protocol = "3-majority";
  sweep.base.n = 300;
  sweep.base.k = 3;
  sweep.base.init.kind = "biased";
  sweep.base.init.param = 0.25;
  SweepAxis bias;
  bias.name = "bias";
  bias.points.push_back(support::Json::object().set(
      "init", support::Json::object().set("kind", "balanced")));
  sweep.axes = {bias};
  const auto points = sweep.expand_points();
  // The whole init object is replaced: param resets to its default.
  EXPECT_EQ(points[0].spec.init.kind, "balanced");
  EXPECT_DOUBLE_EQ(points[0].spec.init.param, 0.0);
  EXPECT_EQ(points[0].label, "bias[0]");
}

TEST(SweepSpec, InvalidExpandedPointFailsValidationWithContext) {
  SweepSpec sweep = small_grid();
  sweep.axes[1].points.push_back(
      support::Json::object().set("k", std::uint64_t{0}));  // k=0 invalid
  try {
    sweep.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("k=0"), std::string::npos);
  }
}

TEST(SweepSpec, RejectsBadShapes) {
  SweepSpec no_reps = small_grid();
  no_reps.replications = 0;
  EXPECT_THROW(no_reps.validate(), std::invalid_argument);

  SweepSpec most_reps = small_grid();
  most_reps.replications = kMaxReplications;
  EXPECT_NO_THROW(most_reps.validate());
  SweepSpec too_many_reps = small_grid();
  too_many_reps.replications = kMaxReplications + 1;
  EXPECT_THROW(too_many_reps.validate(), std::invalid_argument);

  SweepSpec empty_axis = small_grid();
  empty_axis.axes[0].points.clear();
  EXPECT_THROW(empty_axis.validate(), std::invalid_argument);

  SweepSpec scalar_point = small_grid();
  scalar_point.axes[0].points[0] = support::Json(std::uint64_t{3});
  EXPECT_THROW(scalar_point.validate(), std::invalid_argument);
}

TEST(SweepSpec, NoAxesMeansSinglePoint) {
  SweepSpec sweep;
  sweep.base.protocol = "voter";
  sweep.base.n = 100;
  sweep.base.k = 2;
  sweep.replications = 5;
  EXPECT_EQ(sweep.num_points(), 1u);
  const auto points = sweep.expand_points();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].label, "base");
  EXPECT_EQ(points[0].spec, sweep.base);
}

TEST(SweepSpec, StructuredTopologyAxisResolvesEnginePerPoint) {
  // The structured families ride the existing topology patch mechanism:
  // one axis sweeps complete / annealed SBM / implicit regular / annealed
  // regular, and each expanded point auto-selects its engine.
  SweepSpec sweep;
  sweep.name = "structured-topologies";
  sweep.base.protocol = "3-majority";
  sweep.base.n = 2000;
  sweep.base.k = 3;
  sweep.base.seed = 5;
  SweepAxis topo;
  topo.name = "topology";
  topo.points.push_back(support::Json::object().set(
      "topology", support::Json::object().set("kind", "complete")));
  topo.points.push_back(support::Json::object().set(
      "topology", support::Json::object()
                      .set("kind", "sbm")
                      .set("blocks", 8)
                      .set("intra_p", 0.01)
                      .set("inter_p", 0.001)));
  topo.points.push_back(support::Json::object().set(
      "topology", support::Json::object()
                      .set("kind", "random-regular-implicit")
                      .set("degree", 8)));
  topo.points.push_back(support::Json::object().set(
      "topology", support::Json::object()
                      .set("kind", "random-regular-annealed")
                      .set("degree", 8)));
  sweep.axes = {topo};
  sweep.replications = 1;
  const auto points = sweep.expand_points();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(resolve_engine(points[0].spec), EngineChoice::kCounting);
  EXPECT_EQ(resolve_engine(points[1].spec), EngineChoice::kBlock);
  EXPECT_EQ(points[1].spec.topology->blocks, 8u);
  EXPECT_EQ(resolve_engine(points[2].spec), EngineChoice::kAgent);
  EXPECT_EQ(resolve_engine(points[3].spec), EngineChoice::kCounting);
  // The sweep itself round-trips through JSON with the new fields intact.
  const SweepSpec reparsed = SweepSpec::from_json_text(sweep.to_json_text());
  EXPECT_EQ(sweep, reparsed);
}

}  // namespace
}  // namespace consensus::api
