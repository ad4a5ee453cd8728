#include "consensus/api/sweep_spec.hpp"

#include <stdexcept>

#include "consensus/api/spec_detail.hpp"

namespace consensus::api {

namespace {

constexpr std::string_view kErrorPrefix = "SweepSpec";

[[noreturn]] void sweep_error(const std::string& what) {
  detail::spec_error(kErrorPrefix, what);
}

void check_known_keys(const support::Json& json,
                      std::initializer_list<const char*> known,
                      const char* where) {
  detail::check_known_keys(json, known, where, kErrorPrefix);
}

/// Top-level merge of a partial-spec override onto a full spec object:
/// overridden fields are replaced wholesale (an {"init": ...} override
/// replaces the entire init object).
void apply_override(support::Json& merged, const support::Json& override_obj) {
  for (const std::string& key : override_obj.keys()) {
    merged.set(key, *override_obj.find(key));
  }
}

/// Human-readable tag for one axis point: "k=8" when the override is a
/// single scalar field, "<axis>[<i>]" otherwise.
std::string point_label(const SweepAxis& axis, std::size_t i) {
  const support::Json& value = axis.points[i];
  const std::vector<std::string> keys = value.keys();
  if (keys.size() == 1) {
    const support::Json& field = *value.find(keys[0]);
    if (field.is_string()) return keys[0] + "=" + field.as_string();
    if (field.is_number() || field.is_bool()) {
      return keys[0] + "=" + field.dump();
    }
  }
  return axis.name + "[" + std::to_string(i) + "]";
}

}  // namespace

std::string_view to_string(ExpandMode mode) noexcept {
  switch (mode) {
    case ExpandMode::kCartesian: return "cartesian";
    case ExpandMode::kZip: return "zip";
  }
  return "cartesian";
}

ExpandMode expand_mode_from_string(std::string_view name) {
  if (name == "cartesian") return ExpandMode::kCartesian;
  if (name == "zip") return ExpandMode::kZip;
  sweep_error("unknown expand mode '" + std::string(name) +
              "' (cartesian|zip)");
}

std::size_t SweepSpec::num_points() const {
  if (axes.empty()) return 1;
  if (expand == ExpandMode::kZip) return axes.front().points.size();
  std::size_t total = 1;
  for (const SweepAxis& axis : axes) {
    if (axis.points.empty()) return 0;
    if (total > 10'000'000 / axis.points.size()) {
      sweep_error("cartesian grid exceeds 10M points");
    }
    total *= axis.points.size();
  }
  return total;
}

void SweepSpec::validate() const {
  // Expansion checks the grid shape first and then every merged cell.
  (void)expand_points();
}

std::vector<SweepPoint> SweepSpec::expand_points() const {
  // Shape checks up front: expansion indexes axes by the decomposed flat
  // index, so a malformed grid must fail loudly here, never out-of-bounds.
  if (replications == 0) sweep_error("replications must be positive");
  if (replications > kMaxReplications) {
    sweep_error("replications must be at most " +
                std::to_string(kMaxReplications));
  }
  for (const SweepAxis& axis : axes) {
    if (axis.name.empty()) sweep_error("axis name must be non-empty");
    if (axis.points.empty()) {
      sweep_error("axis '" + axis.name + "' has no points");
    }
    for (const support::Json& point : axis.points) {
      if (!point.is_object()) {
        sweep_error("axis '" + axis.name +
                    "' points must be partial-spec JSON objects");
      }
    }
  }
  if (expand == ExpandMode::kZip) {
    for (const SweepAxis& axis : axes) {
      if (axis.points.size() != axes.front().points.size()) {
        sweep_error("zip axes must have equal lengths ('" +
                    axes.front().name + "' has " +
                    std::to_string(axes.front().points.size()) + ", '" +
                    axis.name + "' has " +
                    std::to_string(axis.points.size()) + ")");
      }
    }
  }

  const std::size_t total = num_points();
  const support::Json base_json = base.to_json();
  std::vector<SweepPoint> points;
  points.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    // Per-axis point indices: zip advances all axes together; cartesian
    // decomposes the flat index with the LAST axis varying fastest.
    std::vector<std::size_t> axis_index(axes.size(), index);
    if (expand == ExpandMode::kCartesian) {
      std::size_t rest = index;
      for (std::size_t a = axes.size(); a-- > 0;) {
        axis_index[a] = rest % axes[a].points.size();
        rest /= axes[a].points.size();
      }
    }

    SweepPoint point;
    point.index = index;
    support::Json merged = base_json;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const support::Json& override_obj = axes[a].points[axis_index[a]];
      apply_override(merged, override_obj);
      if (!point.label.empty()) point.label += ",";
      point.label += point_label(axes[a], axis_index[a]);
    }
    if (point.label.empty()) point.label = "base";
    try {
      point.spec = ScenarioSpec::from_json(merged);
    } catch (const std::invalid_argument& e) {
      sweep_error("point " + std::to_string(index) + " (" + point.label +
                  ") is invalid: " + e.what());
    }
    points.push_back(std::move(point));
  }
  return points;
}

std::vector<std::string> SweepSpec::labels() const {
  std::vector<SweepPoint> points = expand_points();
  std::vector<std::string> out;
  out.reserve(points.size());
  for (SweepPoint& point : points) out.push_back(std::move(point.label));
  return out;
}

support::Json SweepSpec::to_json() const {
  auto json = support::Json::object();
  if (!name.empty()) json.set("name", name);
  json.set("base", base.to_json());
  if (!axes.empty()) {
    auto axes_json = support::Json::array();
    for (const SweepAxis& axis : axes) {
      auto axis_json = support::Json::object();
      axis_json.set("name", axis.name);
      auto points_json = support::Json::array();
      for (const support::Json& point : axis.points) points_json.push(point);
      axis_json.set("points", std::move(points_json));
      axes_json.push(std::move(axis_json));
    }
    json.set("axes", std::move(axes_json));
  }
  json.set("expand", std::string(to_string(expand)))
      .set("replications", static_cast<std::uint64_t>(replications))
      .set("seed", seed);
  return json;
}

std::string SweepSpec::to_json_text(int indent) const {
  return to_json().dump(indent);
}

SweepSpec SweepSpec::from_json(const support::Json& json) {
  if (!json.is_object()) sweep_error("top-level JSON value must be an object");
  check_known_keys(
      json, {"name", "base", "axes", "expand", "replications", "seed"},
      "sweep");

  SweepSpec spec;
  if (const auto* v = json.find("name")) spec.name = v->as_string();
  if (const auto* v = json.find("base")) {
    spec.base = ScenarioSpec::from_json(*v);
  }
  if (const auto* v = json.find("axes")) {
    for (std::size_t a = 0; a < v->size(); ++a) {
      const support::Json& axis_json = v->at(a);
      check_known_keys(axis_json, {"name", "points"}, "axis");
      SweepAxis axis;
      if (const auto* f = axis_json.find("name")) axis.name = f->as_string();
      if (const auto* f = axis_json.find("points")) {
        for (std::size_t i = 0; i < f->size(); ++i) {
          axis.points.push_back(f->at(i));
        }
      }
      spec.axes.push_back(std::move(axis));
    }
  }
  if (const auto* v = json.find("expand")) {
    spec.expand = expand_mode_from_string(v->as_string());
  }
  if (const auto* v = json.find("replications")) {
    spec.replications = static_cast<std::size_t>(v->as_uint());
  }
  if (const auto* v = json.find("seed")) spec.seed = v->as_uint();

  spec.validate();
  return spec;
}

SweepSpec SweepSpec::from_json_text(const std::string& text) {
  return from_json(support::Json::parse(text));
}

}  // namespace consensus::api
