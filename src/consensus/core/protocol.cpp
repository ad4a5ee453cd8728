#include "consensus/core/protocol.hpp"

#include <charconv>
#include <limits>
#include <stdexcept>
#include <string>

namespace consensus::core {

namespace {

class GenericOnly final : public Protocol {
 public:
  explicit GenericOnly(std::unique_ptr<Protocol> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const noexcept override { return inner_->name(); }
  unsigned samples_per_update() const noexcept override {
    return inner_->samples_per_update();
  }
  Opinion update(Opinion current, OpinionSampler& neighbors,
                 support::Rng& rng) const override {
    return inner_->update(current, neighbors, rng);
  }
  bool is_consensus(const Configuration& config) const override {
    return inner_->is_consensus(config);
  }
  Opinion winner(const Configuration& config) const override {
    return inner_->winner(config);
  }

 private:
  std::unique_ptr<Protocol> inner_;
};

/// Forwards everything EXCEPT outcome_distribution_alive (left at the
/// base-class "no alive law" default), pinning the counting engine to
/// keep_or_adopt or step_counts for sparse-vs-dense comparisons.
class DenseOnly final : public Protocol {
 public:
  explicit DenseOnly(std::unique_ptr<Protocol> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const noexcept override { return inner_->name(); }
  unsigned samples_per_update() const noexcept override {
    return inner_->samples_per_update();
  }
  Opinion update(Opinion current, OpinionSampler& neighbors,
                 support::Rng& rng) const override {
    return inner_->update(current, neighbors, rng);
  }
  bool step_counts(const Configuration& cur, std::vector<std::uint64_t>& next,
                   support::Rng& rng) const override {
    return inner_->step_counts(cur, next, rng);
  }
  bool outcome_distribution_mixture(Opinion current,
                                    std::span<const double> sampling,
                                    std::uint64_t n_hint,
                                    std::vector<double>& out) const override {
    return inner_->outcome_distribution_mixture(current, sampling, n_hint,
                                                out);
  }
  bool keep_or_adopt(std::span<const double> sampling,
                     std::vector<double>& adopt, double& keep) const override {
    return inner_->keep_or_adopt(sampling, adopt, keep);
  }
  bool outcome_depends_on_current() const noexcept override {
    return inner_->outcome_depends_on_current();
  }
  void set_thread_pool(support::ThreadPool* pool) noexcept override {
    inner_->set_thread_pool(pool);
  }
  bool is_consensus(const Configuration& config) const override {
    return inner_->is_consensus(config);
  }
  Opinion winner(const Configuration& config) const override {
    return inner_->winner(config);
  }

 private:
  std::unique_ptr<Protocol> inner_;
};

}  // namespace

std::unique_ptr<Protocol> make_generic_only(std::unique_ptr<Protocol> inner) {
  return std::make_unique<GenericOnly>(std::move(inner));
}

std::unique_ptr<Protocol> make_dense_only(std::unique_ptr<Protocol> inner) {
  return std::make_unique<DenseOnly>(std::move(inner));
}

std::unique_ptr<Protocol> make_protocol(std::string_view name) {
  if (name == "3-majority") return make_three_majority();
  if (name == "3-majority-keep") return make_three_majority_keep();
  if (name == "2-choices") return make_two_choices();
  if (name == "voter") return make_voter();
  if (name == "median") return make_median_rule();
  if (name == "undecided") return make_undecided();
  if (name.starts_with("h-majority:")) {
    // The whole suffix must be a decimal h >= 1 that fits `unsigned`: no
    // sign, no trailing characters, no silent wrap-around into another h.
    const std::string_view digits = name.substr(11);
    unsigned h = 0;
    const auto [end, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), h);
    if (digits.empty() || ec != std::errc() ||
        end != digits.data() + digits.size() || h == 0) {
      throw std::invalid_argument("make_protocol: bad h in '" +
                                  std::string(name) +
                                  "' (want h-majority:<h>, 1 <= h <= " +
                                  std::to_string(
                                      std::numeric_limits<unsigned>::max()) +
                                  ")");
    }
    return make_h_majority(h);
  }
  throw std::invalid_argument("make_protocol: unknown protocol '" +
                              std::string(name) + "'");
}

}  // namespace consensus::core
