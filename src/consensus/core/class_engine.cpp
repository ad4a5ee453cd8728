#include "consensus/core/class_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "consensus/core/fused.hpp"
#include "consensus/core/mixture_sampler.hpp"
#include "consensus/support/simd_kernels.hpp"

namespace consensus::core {

ClassCountingEngine ClassCountingEngine::sbm(
    const Protocol& protocol, std::vector<Configuration> blocks,
    std::span<const double> block_weights, std::uint64_t start_round) {
  const std::size_t B = blocks.size();
  if (block_weights.size() != B * B) {
    throw std::invalid_argument(
        "ClassCountingEngine::sbm: block_weights must be B x B");
  }
  std::vector<double> coeff(B * B);
  for (std::size_t b = 0; b < B; ++b) {
    const std::span<const double> row = block_weights.subspan(b * B, B);
    double row_mass = 0.0;  // W(b)
    for (const double w : row) {
      if (!(w >= 0.0)) {
        throw std::invalid_argument(
            "ClassCountingEngine::sbm: edge mass must be non-negative");
      }
      row_mass += w;
    }
    if (!(row_mass > 0.0)) {
      throw std::invalid_argument(
          "ClassCountingEngine::sbm: every block needs positive neighbour "
          "mass");
    }
    for (std::size_t s = 0; s < B; ++s) {
      coeff[b * B + s] =
          row[s] / row_mass *
          (1.0 / static_cast<double>(blocks[s].num_vertices()));
    }
  }
  return ClassCountingEngine(protocol, std::move(blocks), std::move(coeff),
                             "block", start_round);
}

ClassCountingEngine ClassCountingEngine::degree_classes(
    const Protocol& protocol, std::vector<Configuration> classes,
    std::span<const std::uint64_t> class_degrees, std::uint64_t start_round) {
  const std::size_t D = classes.size();
  if (class_degrees.size() != D) {
    throw std::invalid_argument(
        "ClassCountingEngine::degree_classes: need one degree per class");
  }
  unsigned __int128 stubs = 0;
  for (std::size_t c = 0; c < D; ++c) {
    if (class_degrees[c] == 0) {
      throw std::invalid_argument(
          "ClassCountingEngine::degree_classes: degrees must be >= 1");
    }
    stubs += static_cast<unsigned __int128>(class_degrees[c]) *
             classes[c].num_vertices();
  }
  if (stubs >= (static_cast<unsigned __int128>(1) << 63)) {
    throw std::invalid_argument(
        "ClassCountingEngine::degree_classes: total stub count must be "
        "< 2^63");
  }
  const double inv_m =
      1.0 / static_cast<double>(static_cast<std::uint64_t>(stubs));
  std::vector<double> coeff(D);
  for (std::size_t c = 0; c < D; ++c) {
    coeff[c] = static_cast<double>(class_degrees[c]) * inv_m;
  }
  return ClassCountingEngine(protocol, std::move(classes), std::move(coeff),
                             "degree-class", start_round);
}

ClassCountingEngine::ClassCountingEngine(const Protocol& protocol,
                                         std::vector<Configuration> classes,
                                         std::vector<double> coeff,
                                         std::string kind,
                                         std::uint64_t start_round)
    : protocol_(&protocol),
      classes_(std::move(classes)),
      coeff_(std::move(coeff)),
      kind_(std::move(kind)),
      round_(start_round) {
  if (classes_.empty()) {
    throw std::invalid_argument("ClassCountingEngine: need >= 1 class");
  }
  num_slots_ = classes_[0].num_opinions();
  agg_counts_.assign(num_slots_, 0);
  for (const Configuration& cfg : classes_) {
    if (cfg.num_opinions() != num_slots_) {
      throw std::invalid_argument(
          "ClassCountingEngine: classes disagree on slot count");
    }
    for (std::size_t j = 0; j < num_slots_; ++j) {
      agg_counts_[j] += cfg.counts()[j];
    }
  }
  mix_.assign(coeff_.size() / classes_.size(),
              std::vector<double>(num_slots_, 0.0));
  adopt_.resize(mix_.size());
}

std::vector<Configuration> ClassCountingEngine::split_shuffled(
    const Configuration& total, std::span<const std::uint64_t> offsets,
    support::Rng& rng) {
  if (offsets.size() < 2 || offsets.front() != 0 ||
      offsets.back() != total.num_vertices())
    throw std::invalid_argument(
        "split_shuffled: offsets must cover [0, n] with >= 1 class");
  const std::size_t C = offsets.size() - 1;
  const std::size_t k = total.num_opinions();
  std::vector<std::uint64_t> remaining(total.counts().begin(),
                                       total.counts().end());
  std::uint64_t pop = total.num_vertices();

  std::vector<Configuration> out;
  out.reserve(C);
  std::vector<std::uint64_t> counts(k);
  for (std::size_t c = 0; c < C; ++c) {
    const std::uint64_t class_size = offsets[c + 1] - offsets[c];
    // Fill the class opinion by opinion: the number of opinion-j holders
    // among a uniform class_size-subset of the remaining population is
    // Hypergeometric(pop_left, remaining[j], slots_left), conditioned on
    // the draws already placed — the exact law of a global shuffle
    // restricted to this class.
    std::uint64_t slots_left = class_size;
    std::uint64_t pop_left = pop;
    counts.assign(k, 0);
    for (std::size_t j = 0; j < k && slots_left > 0; ++j) {
      const std::uint64_t x =
          support::hypergeometric(rng, pop_left, remaining[j], slots_left);
      counts[j] = x;
      slots_left -= x;
      pop_left -= remaining[j];
      remaining[j] -= x;
    }
    pop -= class_size;
    out.emplace_back(counts);
  }
  return out;
}

void ClassCountingEngine::step(support::Rng& rng) {
  const std::size_t C = classes_.size();
  // Phase 1 — mixing: accumulate each SOURCE class's alive counts into
  // every mixture with its precomputed coefficient, sources in class order
  // for every mixture. Dense-support sources take the vectorised saxpy
  // (support::mixture_accumulate) over ALL slots: extinct slots hold count
  // 0, coeff·0 adds +0.0, and x + (+0.0) == x bitwise for the non-negative
  // q entries — so the dense kernel is bit-identical to the sparse alive
  // walk, which stays in place for thin supports (a ≪ k) where touching
  // the full k-width would regress the sparse win.
  for (std::vector<double>& q : mix_) q.assign(num_slots_, 0.0);
  for (std::size_t src = 0; src < C; ++src) {
    const Configuration& cfg = classes_[src];
    const auto alive = cfg.alive();
    const auto counts = cfg.counts();
    const bool dense = alive.size() * 4 >= num_slots_;
    for (std::size_t r = 0; r < mix_.size(); ++r) {
      const double coeff = coeff_[r * C + src];
      if (coeff == 0.0) continue;
      double* q = mix_[r].data();
      if (dense) {
        support::mixture_accumulate(q, counts.data(), num_slots_, coeff);
      } else {
        for (const Opinion o : alive)
          q[o] += coeff * static_cast<double>(counts[o]);
      }
    }
  }
  // Keep-or-adopt rules: one adopt law per mixture, shared by the classes
  // that sample from it (all of them on the degree-class engine).
  keep_or_adopt_ = true;
  for (std::size_t r = 0; keep_or_adopt_ && r < mix_.size(); ++r) {
    AdoptLaw& law = adopt_[r];
    keep_or_adopt_ = protocol_->keep_or_adopt(mix_[r], law.adopt, law.keep);
    law.total = 0.0;
    for (const double w : law.adopt) law.total += w;
  }
  fallback_mixture_ = kNoTable;
  law_mixture_ = kNoTable;
  // Phase 2 — transition: every q is fully built from the round-t state,
  // so classes can commit in order without aliasing the mixing inputs.
  for (std::size_t c = 0; c < C; ++c) step_class(c, rng);
  ++round_;
}

void ClassCountingEngine::step_class(std::size_t c, support::Rng& rng) {
  Configuration& cfg = classes_[c];
  const std::span<const double> q = mix_[mixture_of(c)];
  const std::uint64_t n_c = cfg.num_vertices();

  // Keep-or-adopt rules: Bin(count_o, keep) keepers per alive opinion in
  // index order, then one Multinomial(movers, adopt) for the class.
  if (keep_or_adopt_) {
    const AdoptLaw& law = adopt_[mixture_of(c)];
    const auto counts = cfg.counts();
    next_.assign(num_slots_, 0);
    std::uint64_t movers = n_c;
    for (const Opinion o : cfg.alive()) {
      next_[o] = support::binomial(rng, counts[o], law.keep);
      movers -= next_[o];
    }
    if (use_law_table(mixture_of(c), movers, law.adopt)) {
      law_table_.add_counts(rng, movers, next_);
    } else {
      support::multinomial_into(rng, movers, law.adopt, law.total,
                                group_out_);
      for (std::size_t j = 0; j < num_slots_; ++j) next_[j] += group_out_[j];
    }
    commit_class(c);
    return;
  }

  // Anonymous rules: one law, one Multinomial(n_c, ·) for the class.
  if (!protocol_->outcome_depends_on_current()) {
    if (!protocol_->outcome_distribution_mixture(0, q, n_c, probs_)) {
      fallback_class(c, rng);
      return;
    }
    if (use_law_table(mixture_of(c), n_c, probs_)) {
      next_.assign(num_slots_, 0);
      law_table_.add_counts(rng, n_c, next_);
    } else {
      support::multinomial_into(rng, n_c, probs_, next_);
    }
    commit_class(c);
    return;
  }

  // Current-dependent rules: one multinomial per alive group of the class.
  // Availability is uniform in `current` for a fixed sampling vector
  // (outcome_distribution_mixture contract), so the first probe decides
  // for the class.
  const auto alive = cfg.alive();
  if (!protocol_->outcome_distribution_mixture(alive[0], q, n_c, probs_)) {
    fallback_class(c, rng);
    return;
  }
  next_.assign(num_slots_, 0);
  for (std::size_t idx = 0;; ++idx) {
    support::multinomial_into(rng, cfg.counts()[alive[idx]], probs_,
                              group_out_);
    for (std::size_t j = 0; j < num_slots_; ++j) next_[j] += group_out_[j];
    if (idx + 1 == alive.size()) break;
    if (!protocol_->outcome_distribution_mixture(alive[idx + 1], q, n_c,
                                                 probs_)) {
      throw std::logic_error(
          "ClassCountingEngine: outcome_distribution_mixture declined "
          "mid-class (availability must be uniform across groups)");
    }
  }
  commit_class(c);
}

bool ClassCountingEngine::use_law_table(std::size_t r, std::uint64_t n,
                                        std::span<const double> law) {
  // The law's values depend only on the mixture (protocol.hpp: on
  // (current, sampling), and these laws ignore current; n_hint only gates
  // acceptance), so a and the table of the first class of mixture r serve
  // every later class of r this round. Building draws no randomness.
  if (law_mixture_ != r) {
    law_mixture_ = r;
    law_support_ = static_cast<std::size_t>(std::count_if(
        law.begin(), law.end(), [](double w) { return w > 0.0; }));
    law_table_built_ = false;
  }
  // n == 0 places nothing; the cascade returns the zero vector at once.
  if (n == 0 || !support::prefer_table_counting(n, law_support_)) return false;
  if (!law_table_built_) {
    law_table_.rebuild(law);
    law_table_built_ = true;
  }
  return true;
}

void ClassCountingEngine::fallback_class(std::size_t c, support::Rng& rng) {
  // Exact per-vertex fallback: each class-c vertex updates against i.i.d.
  // neighbour opinions ~ q. O(n_c · samples), the cost the law path exists
  // to avoid — taken only when the law declines (over budget). Building
  // the alias table draws no randomness, so sharing one build between the
  // classes of a mixture leaves the stream unchanged.
  Configuration& cfg = classes_[c];
  const std::size_t r = mixture_of(c);
  if (fallback_mixture_ != r) {
    fallback_table_.rebuild(mix_[r]);
    fallback_mixture_ = r;
  }
  MixtureSampler sampler(fallback_table_, num_slots_);
  next_.assign(num_slots_, 0);
  const auto alive = cfg.alive();
  const auto counts = cfg.counts();
  // Registered rules run each group through the fused mixture thunk
  // (devirtualized update body around the alias draws, same RNG stream as
  // the virtual loop); anything else takes the reference path.
  const FusedOps* ops = protocol_->fused_visitor();
  for (const Opinion o : alive) {
    const std::uint64_t members = counts[o];
    if (ops != nullptr) {
      ops->mixture_group(*protocol_, o, members, sampler, rng, next_.data());
    } else {
      for (std::uint64_t v = 0; v < members; ++v) {
        ++next_[protocol_->update(o, sampler, rng)];
      }
    }
  }
  commit_class(c);
}

void ClassCountingEngine::commit_class(std::size_t c) {
  Configuration& cfg = classes_[c];
  const auto old = cfg.counts();
  for (std::size_t j = 0; j < num_slots_; ++j) {
    agg_counts_[j] = agg_counts_[j] - old[j] + next_[j];
  }
  // Swap (not move) so next_ keeps its storage for the next class/round.
  cfg.swap_counts(next_);
}

Configuration ClassCountingEngine::configuration() const {
  return Configuration(agg_counts_);
}

bool ClassCountingEngine::is_consensus() const {
  return protocol_->is_consensus(configuration());
}

Opinion ClassCountingEngine::winner() const {
  return protocol_->winner(configuration());
}

EngineState ClassCountingEngine::capture_state() const {
  EngineState state;
  state.kind = kind_;
  state.progress = round_;
  state.counts.reserve(classes_.size() * num_slots_);
  for (const Configuration& cfg : classes_) {
    state.counts.insert(state.counts.end(), cfg.counts().begin(),
                        cfg.counts().end());
  }
  return state;
}

void ClassCountingEngine::restore_state(const EngineState& state) {
  if (state.kind != kind_) {
    throw std::invalid_argument(
        "ClassCountingEngine::restore_state: state is for engine kind '" +
        state.kind + "', not '" + kind_ + "'");
  }
  if (state.counts.size() != classes_.size() * num_slots_) {
    throw std::invalid_argument(
        "ClassCountingEngine::restore_state: state shape does not match "
        "classes x k");
  }
  std::vector<std::uint64_t> counts(num_slots_);
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    counts.assign(state.counts.begin() + c * num_slots_,
                  state.counts.begin() + (c + 1) * num_slots_);
    // replace_counts enforces per-class shape invariants (same k, sum n_c).
    classes_[c].replace_counts(counts);
  }
  agg_counts_.assign(num_slots_, 0);
  for (const Configuration& cfg : classes_) {
    for (std::size_t j = 0; j < num_slots_; ++j) {
      agg_counts_[j] += cfg.counts()[j];
    }
  }
  round_ = state.progress;
}

}  // namespace consensus::core
