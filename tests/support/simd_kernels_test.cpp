// support/simd_kernels contract tests: the AVX2 path and the scalar
// fallback must be BIT-IDENTICAL (both follow the fixed 4-lane-strided
// product order), the kernel must implement the h-majority histogram term
// (probability mass split uniformly over the argmax set), and flipping the
// runtime toggle must change throughput only — pinned end to end through
// HMajority's law.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "consensus/core/class_engine.hpp"
#include "consensus/core/h_majority.hpp"
#include "consensus/core/init.hpp"
#include "consensus/core/three_majority.hpp"
#include "consensus/graph/graph.hpp"
#include "consensus/support/metrics.hpp"
#include "consensus/support/rng.hpp"
#include "consensus/support/sampling.hpp"
#include "consensus/support/simd_kernels.hpp"
#include "consensus/support/thread_pool.hpp"

namespace consensus::support {
namespace {

/// Straightforward reference: sequential product, explicit argmax set.
void reference_term(const double* w, std::size_t stride,
                    const std::uint32_t* hist, std::size_t a,
                    double prefactor, std::vector<double>& acc) {
  double p = prefactor;
  std::uint32_t best = 0;
  for (std::size_t i = 0; i < a; ++i) {
    p *= w[i * stride + hist[i]];
    if (hist[i] > best) best = hist[i];
  }
  std::vector<std::size_t> tied;
  for (std::size_t i = 0; i < a; ++i) {
    if (hist[i] == best) tied.push_back(i);
  }
  for (std::size_t i : tied) {
    acc[i] += p / static_cast<double>(tied.size());
  }
}

struct RandomCase {
  std::vector<double> w;
  std::vector<std::uint32_t> hist;
  std::size_t a;
  unsigned h;
};

RandomCase make_case(Rng& rng, std::size_t a, unsigned h) {
  RandomCase c;
  c.a = a;
  c.h = h;
  c.w.resize(a * (h + 1));
  for (double& x : c.w) x = rng.uniform(0.01, 1.5);
  c.hist.assign(a, 0);
  // A random weak composition of h over a slots.
  for (unsigned s = 0; s < h; ++s) {
    ++c.hist[static_cast<std::size_t>(rng.uniform_below(a))];
  }
  return c;
}

TEST(SimdKernels, ScalarPathMatchesReferenceSemanticsAndTolerance) {
  Rng rng(1);
  for (const std::size_t a : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u, 33u}) {
    for (const unsigned h : {1u, 3u, 7u, 12u}) {
      const RandomCase c = make_case(rng, a, h);
      std::vector<double> acc_scalar(a, 0.0), acc_ref(a, 0.0);
      accumulate_histogram_term_scalar(c.w.data(), h + 1, c.hist.data(), a,
                                       2.5, acc_scalar.data());
      reference_term(c.w.data(), h + 1, c.hist.data(), a, 2.5, acc_ref);
      for (std::size_t i = 0; i < a; ++i) {
        // Same argmax/tie semantics exactly; product order differs from
        // the sequential reference only in rounding.
        if (acc_ref[i] == 0.0) {
          EXPECT_EQ(acc_scalar[i], 0.0) << "a=" << a << " h=" << h;
        } else {
          EXPECT_NEAR(acc_scalar[i] / acc_ref[i], 1.0, 1e-12)
              << "a=" << a << " h=" << h << " slot " << i;
        }
      }
    }
  }
}

TEST(SimdKernels, VectorAndScalarPathsAreBitIdentical) {
  if (!simd_kernels_available()) {
    GTEST_SKIP() << "no AVX2 at runtime: both paths are the scalar code";
  }
  Rng rng(2);
  for (const std::size_t a : {1u, 4u, 6u, 8u, 15u, 16u, 50u, 129u}) {
    for (const unsigned h : {1u, 2u, 5u, 9u, 15u}) {
      const RandomCase c = make_case(rng, a, h);
      std::vector<double> acc_simd(a, 0.0), acc_scalar(a, 0.0);
      set_simd_kernels_enabled(true);
      accumulate_histogram_term(c.w.data(), h + 1, c.hist.data(), a, 1.75,
                                acc_simd.data());
      set_simd_kernels_enabled(false);
      accumulate_histogram_term(c.w.data(), h + 1, c.hist.data(), a, 1.75,
                                acc_scalar.data());
      set_simd_kernels_enabled(true);
      for (std::size_t i = 0; i < a; ++i) {
        EXPECT_EQ(acc_simd[i], acc_scalar[i])
            << "a=" << a << " h=" << h << " slot " << i
            << " (bit-identity contract broken)";
      }
    }
  }
}

TEST(SimdKernels, PowWeightTableFoldsInverseFactorials) {
  const std::vector<double> alpha = {0.5, 0.25, 0.125};
  const unsigned h = 4;
  std::vector<double> inv_fact = {1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0};
  std::vector<double> w;
  build_pow_weight_table(alpha, h, inv_fact, w);
  ASSERT_EQ(w.size(), alpha.size() * (h + 1));
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    for (unsigned j = 0; j <= h; ++j) {
      EXPECT_NEAR(w[i * (h + 1) + j],
                  std::pow(alpha[i], j) * inv_fact[j], 1e-15)
          << i << "," << j;
    }
  }
}

TEST(SimdKernels, HMajorityLawBitIdenticalWithToggle) {
  // End to end through the protocol, covering the serial path, the
  // sharded path (histograms >= kParallelThreshold), and the ring-staged
  // enumeration the vector kernel runs behind.
  const core::Configuration small = core::balanced(10000, 10);  // serial
  const core::Configuration big = core::balanced(100000, 25);   // sharded
  for (const core::Configuration* cfg : {&small, &big}) {
    core::HMajority protocol(6);
    std::vector<double> law_simd, law_scalar;
    set_simd_kernels_enabled(true);
    ASSERT_TRUE(protocol.outcome_distribution_alive(0, *cfg, law_simd));
    set_simd_kernels_enabled(false);
    ASSERT_TRUE(protocol.outcome_distribution_alive(0, *cfg, law_scalar));
    set_simd_kernels_enabled(true);
    ASSERT_EQ(law_simd.size(), law_scalar.size());
    for (std::size_t i = 0; i < law_simd.size(); ++i) {
      EXPECT_EQ(law_simd[i], law_scalar[i]) << i;
    }
    double total = 0.0;
    for (double p : law_simd) total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(SimdKernels, HMajorityLawStillPoolInvariantWithSimd) {
  // The staged enumeration must preserve the bit-identical-across-thread-
  // counts guarantee of the sharded reduction.
  const core::Configuration big = core::balanced(100000, 25);
  core::HMajority serial(6);
  core::HMajority pooled(6);
  ThreadPool pool(8);
  pooled.set_thread_pool(&pool);
  std::vector<double> law_serial, law_pooled;
  ASSERT_TRUE(serial.outcome_distribution_alive(0, big, law_serial));
  ASSERT_TRUE(pooled.outcome_distribution_alive(0, big, law_pooled));
  ASSERT_EQ(law_serial.size(), law_pooled.size());
  for (std::size_t i = 0; i < law_serial.size(); ++i) {
    EXPECT_EQ(law_serial[i], law_pooled[i]) << i;
  }
}

// ---------- multi-ISA registry ----------

/// Restores the dispatch state (active lane + enabled toggle) a test found,
/// however the test leaves it — so a CONSENSUS_SIMD-pinned suite (the
/// scalar-forced CI job) stays pinned after these tests run.
class ScopedLaneState {
 public:
  ScopedLaneState()
      : isa_(active_simd_isa()), enabled_(simd_kernels_enabled()) {}
  ~ScopedLaneState() {
    set_simd_isa(to_string(isa_));  // re-enables; matches the entry lane
    set_simd_kernels_enabled(enabled_);
  }
  ScopedLaneState(const ScopedLaneState&) = delete;
  ScopedLaneState& operator=(const ScopedLaneState&) = delete;

 private:
  SimdIsa isa_;
  bool enabled_;
};

std::vector<SimdIsa> vector_lanes() {
  std::vector<SimdIsa> lanes;
  for (const SimdIsa isa :
       {SimdIsa::kAvx2, SimdIsa::kAvx512, SimdIsa::kNeon}) {
    if (simd_isa_supported(isa)) lanes.push_back(isa);
  }
  return lanes;
}

TEST(SimdRegistry, QueriesAreConsistent) {
  init_simd_kernels();
  EXPECT_TRUE(simd_isa_supported(SimdIsa::kScalar));
  EXPECT_TRUE(simd_isa_supported(best_simd_isa()));
  EXPECT_TRUE(simd_isa_supported(active_simd_isa()));
  EXPECT_EQ(simd_kernels_available(), best_simd_isa() != SimdIsa::kScalar);
#if defined(__x86_64__)
  EXPECT_FALSE(simd_isa_supported(SimdIsa::kNeon));
#elif defined(__aarch64__)
  EXPECT_FALSE(simd_isa_supported(SimdIsa::kAvx2));
  EXPECT_FALSE(simd_isa_supported(SimdIsa::kAvx512));
#endif
}

TEST(SimdRegistry, OverrideSemantics) {
  ScopedLaneState restore;
  // Unknown names are refused and change nothing.
  const SimdIsa before = active_simd_isa();
  EXPECT_FALSE(set_simd_isa("sse9"));
  EXPECT_FALSE(set_simd_isa(""));
  EXPECT_EQ(active_simd_isa(), before);
  // Lanes this build/CPU can't run are refused, state unchanged.
  for (const SimdIsa isa :
       {SimdIsa::kAvx2, SimdIsa::kAvx512, SimdIsa::kNeon}) {
    if (!simd_isa_supported(isa)) {
      EXPECT_FALSE(set_simd_isa(to_string(isa)));
      EXPECT_EQ(active_simd_isa(), before);
    }
  }
  // The scalar pin always takes (this is what the scalar-forced CI job
  // runs the whole suite under).
  EXPECT_TRUE(set_simd_isa("scalar"));
  EXPECT_EQ(active_simd_isa(), SimdIsa::kScalar);
  EXPECT_TRUE(simd_kernels_enabled());
  // Every supported vector lane pins by name.
  for (const SimdIsa isa : vector_lanes()) {
    EXPECT_TRUE(set_simd_isa(to_string(isa)));
    EXPECT_EQ(active_simd_isa(), isa);
  }
  // "off" disables the vector paths entirely.
  EXPECT_TRUE(set_simd_isa("off"));
  EXPECT_FALSE(simd_kernels_enabled());
  EXPECT_EQ(active_simd_isa(), SimdIsa::kScalar);
  // "auto" re-enables and returns to best-lane selection.
  EXPECT_TRUE(set_simd_isa("auto"));
  EXPECT_TRUE(simd_kernels_enabled());
  EXPECT_EQ(active_simd_isa(), best_simd_isa());
}

TEST(SimdRegistry, DispatchCountersAdvance) {
  const std::uint64_t acc0 =
      simd_dispatch_count(SimdKernel::kMixtureAccumulate);
  const std::uint64_t ss0 =
      simd_dispatch_count(SimdKernel::kMixtureSumSquares);
  const std::uint64_t mm0 =
      simd_dispatch_count(SimdKernel::kMixtureMajorityMap);
  double q[8] = {};
  const std::uint64_t counts[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  double out[8];
  mixture_accumulate(q, counts, 8, 0.125);
  const double gamma = mixture_sum_squares(q, 8);
  mixture_majority_map(q, 8, gamma, out);
  EXPECT_EQ(simd_dispatch_count(SimdKernel::kMixtureAccumulate), acc0 + 1);
  EXPECT_EQ(simd_dispatch_count(SimdKernel::kMixtureSumSquares), ss0 + 1);
  EXPECT_EQ(simd_dispatch_count(SimdKernel::kMixtureMajorityMap), mm0 + 1);
  // The histogram kernel's counter is caller-noted (once per law build).
  const std::uint64_t h0 = simd_dispatch_count(SimdKernel::kHistogramTerm);
  note_simd_dispatch(SimdKernel::kHistogramTerm, 3);
  EXPECT_EQ(simd_dispatch_count(SimdKernel::kHistogramTerm), h0 + 3);
}

TEST(SimdRegistry, MetricsExportPublishesRegistryState) {
  Metrics metrics;
  export_simd_metrics(metrics);
  EXPECT_EQ(metrics.info("simd_isa"),
            std::string(to_string(active_simd_isa())));
  EXPECT_EQ(metrics.gauge("simd_kernels_enabled"),
            simd_kernels_enabled() ? 1.0 : 0.0);
  EXPECT_EQ(metrics.counter("simd_dispatch_mixture_accumulate"),
            simd_dispatch_count(SimdKernel::kMixtureAccumulate));
  const std::string text = metrics.render_text();
  for (std::size_t i = 0; i < kNumSimdKernels; ++i) {
    const std::string name =
        "simd_dispatch_" +
        std::string(to_string(static_cast<SimdKernel>(i)));
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

// ---------- mixture kernels: per-lane bit identity ----------

/// Bitwise equality of two double vectors (distinguishes -0.0/+0.0 and
/// compares NaN payloads). Element-wise, so empty vectors — whose data()
/// may be null — never reach memcmp.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return std::ranges::equal(a, b, [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  });
}

TEST(SimdKernels, MixtureKernelsBitIdenticalOnEveryLane) {
  const auto lanes = vector_lanes();
  if (lanes.empty()) {
    GTEST_SKIP() << "scalar-only build/CPU: nothing to pit the mirror "
                    "against";
  }
  ScopedLaneState restore;
  Rng rng(3);
  for (const SimdIsa isa : lanes) {
    ASSERT_TRUE(set_simd_isa(to_string(isa)));
    // Every size through 257 (odd tails of every vector width), both an
    // aligned and a one-slot-shifted (unaligned) view, counts past 2^53
    // (the uint64→double rounding regime), and periodic denormal-range
    // coefficients (results ~1e-312 stay subnormal: FTZ must be off).
    for (std::size_t k = 0; k <= 257; ++k) {
      for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
        std::vector<double> q(k + offset);
        std::vector<std::uint64_t> counts(k + offset);
        for (double& x : q) x = rng.uniform(0.0, 1.0);
        for (std::uint64_t& c : counts) {
          c = rng.uniform_below(std::uint64_t{1} << 62);
        }
        if (k > 0) {
          q[offset] = 5e-310;                                // subnormal
          counts[offset + k - 1] = (std::uint64_t{1} << 53) + 1;  // rounds
        }
        const double coeff =
            (k % 3 == 0) ? 1e-312 : rng.uniform(0.0, 2.0);

        std::vector<double> acc_lane = q, acc_scalar = q;
        mixture_accumulate(acc_lane.data() + offset, counts.data() + offset,
                           k, coeff);
        mixture_accumulate_scalar(acc_scalar.data() + offset,
                                  counts.data() + offset, k, coeff);
        ASSERT_TRUE(same_bits(acc_lane, acc_scalar))
            << "mixture_accumulate " << to_string(isa) << " k=" << k
            << " offset=" << offset;

        const double ss_lane = mixture_sum_squares(q.data() + offset, k);
        const double ss_scalar =
            mixture_sum_squares_scalar(q.data() + offset, k);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(ss_lane),
                  std::bit_cast<std::uint64_t>(ss_scalar))
            << "mixture_sum_squares " << to_string(isa) << " k=" << k
            << " offset=" << offset;

        std::vector<double> out_lane(k + offset, 0.0);
        std::vector<double> out_scalar(k + offset, 0.0);
        mixture_majority_map(q.data() + offset, k, ss_scalar,
                             out_lane.data() + offset);
        mixture_majority_map_scalar(q.data() + offset, k, ss_scalar,
                                    out_scalar.data() + offset);
        ASSERT_TRUE(same_bits(out_lane, out_scalar))
            << "mixture_majority_map " << to_string(isa) << " k=" << k
            << " offset=" << offset;
      }
    }
  }
}

// ---------- end to end: count-space engine trajectories per lane ----------

std::vector<std::uint64_t> block_trajectory(const core::Protocol& protocol,
                                            int steps) {
  const core::Configuration total = core::balanced(6000, 8);
  const auto offsets = graph::sbm_block_offsets(6000, 4);
  Rng split_rng(77);
  auto blocks =
      core::ClassCountingEngine::split_shuffled(total, offsets, split_rng);
  const auto weights = graph::sbm_block_weights(offsets, 0.5, 0.1);
  auto engine =
      core::ClassCountingEngine::sbm(protocol, std::move(blocks), weights);
  Rng rng(123);
  std::vector<std::uint64_t> trajectory;
  for (int s = 0; s < steps; ++s) {
    engine.step(rng);
    for (std::size_t b = 0; b < engine.num_classes(); ++b) {
      const auto counts = engine.class_configuration(b).counts();
      trajectory.insert(trajectory.end(), counts.begin(), counts.end());
    }
  }
  return trajectory;
}

std::vector<std::uint64_t> degree_trajectory(const core::Protocol& protocol,
                                             int steps) {
  const core::Configuration total = core::balanced(4000, 6);
  const std::vector<std::uint64_t> offsets = {0, 1000, 2000, 3000, 4000};
  Rng split_rng(7);
  auto classes =
      core::ClassCountingEngine::split_shuffled(total, offsets, split_rng);
  const std::vector<std::uint64_t> degrees = {1, 2, 4, 9};
  auto engine = core::ClassCountingEngine::degree_classes(
      protocol, std::move(classes), degrees);
  Rng rng(321);
  std::vector<std::uint64_t> trajectory;
  for (int s = 0; s < steps; ++s) {
    engine.step(rng);
    for (std::size_t c = 0; c < engine.num_classes(); ++c) {
      const auto counts = engine.class_configuration(c).counts();
      trajectory.insert(trajectory.end(), counts.begin(), counts.end());
    }
  }
  return trajectory;
}

TEST(SimdKernels, BlockEngineTrajectoryIsLaneInvariant) {
  // The registry-override guarantee: a scalar-pinned run (CONSENSUS_SIMD=
  // scalar parses through the same set_simd_isa) reproduces every vector
  // lane's block-engine trajectory bit for bit — same multinomial
  // draws, same RNG stream, because the mixing saxpy and the 3-majority
  // mixture-law assembly are bit-identical across lanes.
  if (!simd_kernels_available()) {
    GTEST_SKIP() << "scalar-only build/CPU: every lane IS the scalar lane";
  }
  ScopedLaneState restore;
  core::ThreeMajority protocol;
  ASSERT_TRUE(set_simd_isa("scalar"));
  const auto scalar_traj = block_trajectory(protocol, 25);
  for (const SimdIsa isa : vector_lanes()) {
    ASSERT_TRUE(set_simd_isa(to_string(isa)));
    EXPECT_EQ(block_trajectory(protocol, 25), scalar_traj)
        << "lane " << to_string(isa);
  }
}

TEST(SimdKernels, DegreeClassEngineTrajectoryIsLaneInvariant) {
  // Same pin through the degree-class engine and the h-majority law (the
  // histogram-term kernel), covering the other count-space engine shape.
  if (!simd_kernels_available()) {
    GTEST_SKIP() << "scalar-only build/CPU: every lane IS the scalar lane";
  }
  ScopedLaneState restore;
  core::HMajority protocol(3);
  ASSERT_TRUE(set_simd_isa("scalar"));
  const auto scalar_traj = degree_trajectory(protocol, 20);
  for (const SimdIsa isa : vector_lanes()) {
    ASSERT_TRUE(set_simd_isa(to_string(isa)));
    EXPECT_EQ(degree_trajectory(protocol, 20), scalar_traj)
        << "lane " << to_string(isa);
  }
}

}  // namespace
}  // namespace consensus::support
