#include "consensus/core/counting_engine.hpp"

#include <stdexcept>
#include <vector>

#include "consensus/core/mixture_sampler.hpp"
#include "consensus/support/sampling.hpp"

namespace consensus::core {

CountingEngine::CountingEngine(const Protocol& protocol, Configuration initial,
                               std::uint64_t start_round)
    : protocol_(&protocol), config_(std::move(initial)), round_(start_round) {}

void CountingEngine::step(support::Rng& rng) {
  // Sparse alive-set and keep-or-adopt paths first: they commit through
  // assign_alive_counts (O(a)), so a round never touches the k − a extinct
  // slots at all.
  if (!sparse_step(rng) && !keep_or_adopt_step(rng)) {
    if (!protocol_->step_counts(config_, scratch_, rng)) {
      generic_step(rng);
    }
    // Swap (not move) so scratch_ keeps its storage for the next round.
    config_.swap_counts(scratch_);
  }
  ++round_;
}

bool CountingEngine::sparse_step(support::Rng& rng) {
  const auto alive = config_.alive();
  const std::size_t a = alive.size();
  // Availability is uniform across groups for a fixed configuration
  // (outcome_distribution_alive contract), so the first probe decides for
  // the round.
  if (!protocol_->outcome_distribution_alive(alive[0], config_, probs_)) {
    return false;
  }

  // Anonymous rules: one law, one Multinomial(n, ·) over the alive
  // opinions for the whole round. The compact law sums to 1 by contract,
  // so the total-supplied multinomial overload skips the re-accumulation.
  if (!protocol_->outcome_depends_on_current()) {
    support::multinomial_into(rng, config_.num_vertices(), probs_, 1.0,
                              compact_);
    config_.assign_alive_counts(compact_);
    return true;
  }

  // Current-dependent rules: one multinomial per alive group, accumulated
  // in compact space.
  compact_.assign(a, 0);
  for (std::size_t idx = 0;; ++idx) {
    support::multinomial_into(rng, config_.counts()[alive[idx]], probs_, 1.0,
                              group_out_);
    for (std::size_t j = 0; j < a; ++j) compact_[j] += group_out_[j];
    if (idx + 1 == a) break;
    if (!protocol_->outcome_distribution_alive(alive[idx + 1], config_,
                                               probs_)) {
      throw std::logic_error(
          "CountingEngine: outcome_distribution_alive declined mid-round "
          "(availability must be uniform across groups)");
    }
  }
  config_.assign_alive_counts(compact_);
  return true;
}

bool CountingEngine::keep_or_adopt_step(support::Rng& rng) {
  const auto alive = config_.alive();
  const std::size_t a = alive.size();
  const auto counts = config_.counts();
  const double nd = static_cast<double>(config_.num_vertices());
  sampling_.resize(a);
  for (std::size_t i = 0; i < a; ++i) {
    sampling_[i] = static_cast<double>(counts[alive[i]]) / nd;
  }
  double keep = 0.0;
  if (!protocol_->keep_or_adopt(sampling_, probs_, keep)) return false;

  // Bin(count_o, keep) keepers per alive opinion in index order, then one
  // Multinomial(movers, adopt) over the compact α. Over all k slots the
  // extinct ones would draw nothing and add +0.0 to every sum, so this is
  // the k-wide round's draw sequence at O(a) cost. One caveat keeps it so:
  // the cascade hands its remainder to the final slot without a draw, so
  // when slot k − 1 is extinct a trailing zero weight keeps the last alive
  // opinion inside the cascade.
  compact_.resize(a);
  std::uint64_t movers = config_.num_vertices();
  for (std::size_t i = 0; i < a; ++i) {
    compact_[i] = support::binomial(rng, counts[alive[i]], keep);
    movers -= compact_[i];
  }
  if (alive.back() + 1 < config_.num_opinions()) probs_.push_back(0.0);
  support::multinomial_into(rng, movers, probs_, group_out_);
  for (std::size_t i = 0; i < a; ++i) compact_[i] += group_out_[i];
  config_.assign_alive_counts(compact_);
  return true;
}

void CountingEngine::generic_step(support::Rng& rng) {
  // Per-vertex fallback. All vertices observe the round-(t−1)
  // configuration (synchronous rule), and a random neighbour on K_n with
  // self-loops is a uniformly random vertex, so one alias table over the
  // counts serves the whole round.
  const std::size_t k = config_.num_opinions();
  const auto counts = config_.counts();
  weights_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    weights_[i] = static_cast<double>(counts[i]);
  }
  table_.rebuild(weights_);
  MixtureSampler sampler(table_, k);
  scratch_.assign(k, 0);
  for (const Opinion c : config_.alive()) {
    for (std::uint64_t v = 0; v < counts[c]; ++v) {
      ++scratch_[protocol_->update(c, sampler, rng)];
    }
  }
}

EngineState CountingEngine::capture_state() const {
  EngineState state;
  state.kind = "counting";
  state.progress = round_;
  state.counts.assign(config_.counts().begin(), config_.counts().end());
  return state;
}

void CountingEngine::restore_state(const EngineState& state) {
  if (state.kind != "counting") {
    throw std::invalid_argument(
        "CountingEngine::restore_state: state is for engine kind '" +
        state.kind + "'");
  }
  // replace_counts enforces the shape invariants (same k, counts sum to n).
  config_.replace_counts(state.counts);
  round_ = state.progress;
}

}  // namespace consensus::core
