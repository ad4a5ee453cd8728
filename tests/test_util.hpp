// Shared test helpers: Monte-Carlo summaries, collision-free temp paths and
// the compact one-vertex law of a protocol.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "consensus/core/protocol.hpp"
#include "consensus/support/rng.hpp"
#include "consensus/support/stats.hpp"

namespace consensus::testing {

/// Temp file path unique per (test, process): temp_directory_path() /
/// "consensus_<suite>_<test>_p<pid><suffix>". Test-name uniqueness keeps
/// parallel ctest workers (one process per test) apart; the pid keeps two
/// simultaneous ctest invocations — e.g. two build trees sharing /tmp —
/// from clobbering each other's fixtures for the SAME test.
inline std::string unique_temp_path(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string stem = "consensus_";
  if (info != nullptr) {
    stem += std::string(info->test_suite_name()) + "_" + info->name();
  } else {
    stem += "test";
  }
  // Parameterized suites put '/' in names; keep the stem a single filename.
  for (char& c : stem) {
    if (c == '/') c = '_';
  }
  stem += "_p" + std::to_string(::getpid());
  return (std::filesystem::temp_directory_path() / (stem + suffix)).string();
}

/// Runs `draw` `trials` times and returns the Welford summary.
inline support::Welford monte_carlo(std::size_t trials,
                                    const std::function<double()>& draw) {
  support::Welford w;
  for (std::size_t t = 0; t < trials; ++t) w.add(draw());
  return w;
}

/// True if |mean − expected| <= z·SEM + atol — a z-sigma mean check with a
/// small absolute floor for zero-variance cases.
inline bool mean_close(const support::Welford& w, double expected,
                       double z = 5.0, double atol = 1e-12) {
  return std::fabs(w.mean() - expected) <= z * w.sem() + atol;
}

/// One vertex's law over cur.alive() for a holder of `group`
/// (out[i] = P(next = alive[i])): keep·δ_group + adopt from keep_or_adopt
/// over the compact α for the keep-or-adopt rules, which have no alive
/// law, else the alive law. False when the protocol offers neither.
inline bool compact_law(const core::Protocol& protocol,
                        const core::Configuration& cur, core::Opinion group,
                        std::vector<double>& out) {
  const auto alive = cur.alive();
  std::vector<double> alpha(alive.size());
  for (std::size_t i = 0; i < alive.size(); ++i) {
    alpha[i] = cur.alpha(alive[i]);
  }
  double keep = 0.0;
  if (protocol.keep_or_adopt(alpha, out, keep)) {
    for (std::size_t i = 0; i < alive.size(); ++i) {
      if (alive[i] == group) out[i] += keep;
    }
    return true;
  }
  return protocol.outcome_distribution_alive(group, cur, out);
}

}  // namespace consensus::testing
