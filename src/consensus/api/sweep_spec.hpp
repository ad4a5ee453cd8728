// SweepSpec: the declarative description of a whole experiment grid — a
// base ScenarioSpec plus named axes of per-point overrides, a replication
// count, and a master seed. The paper's figures and tables are all
// sweep-shaped ((protocol, n, k, bias, topology) grids with many
// replications), so this is the unit that benches, the CLI `sweep`
// subcommand, and fleet workers ship around.
//
// An axis point is a *partial ScenarioSpec JSON object*: at expansion it is
// merged onto the base spec (top-level fields replaced wholesale, so an
// override like {"init": {...}} replaces the whole init object) and the
// merged spec is re-parsed strictly — typos and contradictions fail at
// validate(), not mid-sweep. Axes combine by `cartesian` product (the last
// axis varies fastest) or `zip` (equal-length axes advanced in lockstep).
//
// Like ScenarioSpec, a SweepSpec round-trips losslessly through JSON, and
// the expansion into (point, replication, derived seed) trials is a pure
// function of the spec — every trial is reproducible bit-for-bit from the
// file alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "consensus/api/scenario.hpp"
#include "consensus/support/json.hpp"

namespace consensus::api {

/// Largest replication count one job may ask for: a sweep's
/// `replications` and a served scenario's `?reps=`. A larger count is
/// rejected up front rather than failing later on allocation.
inline constexpr std::size_t kMaxReplications = 1'000'000;

/// One named sweep axis: a label plus per-point partial-spec overrides.
struct SweepAxis {
  std::string name;
  std::vector<support::Json> points;

  friend bool operator==(const SweepAxis&, const SweepAxis&) = default;
};

/// How axes combine into the point grid.
enum class ExpandMode { kCartesian, kZip };

std::string_view to_string(ExpandMode mode) noexcept;
ExpandMode expand_mode_from_string(std::string_view name);

/// One fully-expanded grid cell: a validated ScenarioSpec plus a stable
/// human-readable label ("k=8,topology[2]" style) for tables and CSVs.
struct SweepPoint {
  std::size_t index = 0;
  std::string label;
  ScenarioSpec spec;
};

struct SweepSpec {
  /// Optional identifier shown by the registry/catalog ("" = anonymous).
  std::string name;
  ScenarioSpec base;
  /// No axes is legal: the sweep is the base spec as a single point.
  std::vector<SweepAxis> axes;
  ExpandMode expand = ExpandMode::kCartesian;
  std::size_t replications = 1;
  /// Master seed for trial-seed derivation (exp::Sweep semantics:
  /// seed(point, rep) = derive_seed(seed, point * replications + rep)).
  std::uint64_t seed = 42;

  /// Number of grid points (axis product or common zip length).
  std::size_t num_points() const;
  std::size_t num_trials() const { return num_points() * replications; }

  /// Throws std::invalid_argument when the sweep shape is inconsistent
  /// (empty axis, zip length mismatch, replications outside
  /// [1, kMaxReplications]) or any expanded point fails ScenarioSpec
  /// validation.
  void validate() const;

  /// Expands the grid into validated per-point specs, in trial order.
  std::vector<SweepPoint> expand_points() const;
  std::vector<std::string> labels() const;

  support::Json to_json() const;
  std::string to_json_text(int indent = 2) const;
  /// Strict parsers: unknown keys are rejected, and the result is
  /// validate()d (every point of the grid, not just the base).
  static SweepSpec from_json(const support::Json& json);
  static SweepSpec from_json_text(const std::string& text);

  friend bool operator==(const SweepSpec&, const SweepSpec&) = default;
};

}  // namespace consensus::api
