// Multi-ISA registry of vectorised kernels for the hot numeric loops of
// the count-space engines:
//
//   * accumulate_histogram_term — the h-majority composition integration
//     (h_majority.cpp), a per-histogram O(a) weighted-product/argmax scan;
//   * mixture_accumulate — the q += coeff·counts saxpy of the
//     class-counting engine's phase-1 mixing (class_engine.cpp), the hot
//     loop of the n = 10⁸ benches;
//   * mixture_sum_squares / mixture_majority_map — the γ = Σ q² reduction
//     and the out = q·((1+q)−γ) law assembly of the 3-majority mixture
//     path (mixture_sampler.hpp / three_majority.cpp).
//
// Each kernel has one entry per instruction-set lane (x86: AVX2, AVX-512;
// aarch64: NEON; everywhere: a scalar mirror), selected at runtime by CPU
// detection into a per-process function table. The `CONSENSUS_SIMD`
// environment variable — or the equivalent set_simd_isa() API — pins the
// dispatch for benches, tests, and the scalar-forced CI job:
//
//   CONSENSUS_SIMD=off | scalar | avx2 | avx512 | neon | auto
//
// ("off" disables the vector paths entirely, same as
// set_simd_kernels_enabled(false); an unsupported lane name falls back to
// auto with a one-line stderr warning.)
//
// Determinism contract: every lane produces results BIT-IDENTICAL to the
// scalar mirror. Floating-point reductions are not associative, so every
// implementation accumulates in the same fixed 4-lane-strided order (lane
// l holds the product/sum of elements l, l+4, l+8, …; lanes combine as
// (l0·l1)·(l2·l3) — or + for sums — then the tail folds in sequentially).
// Purely elementwise kernels (mixture_accumulate, mixture_majority_map)
// are bit-identical at any vector width as long as each element's operation
// chain matches the scalar mirror exactly — in particular the uint64 →
// double conversions are correctly rounded on every lane, and the kernels'
// translation unit is compiled with FP contraction off so no lane (or the
// mirror itself) silently fuses a multiply-add. The library's
// cross-platform bit-reproducibility requirement (rng.hpp) therefore holds
// whichever lane dispatches — the registry only changes throughput.
//
// Vector lanes are compiled with per-function target attributes and chosen
// at runtime, so the library still builds and runs on any x86-64 baseline
// (and on non-x86, where NEON or the scalar mirror serve).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace consensus::support {

class Metrics;

/// Instruction-set lanes the registry can dispatch to.
enum class SimdIsa : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
  kNeon = 3,
};
inline constexpr std::size_t kNumSimdIsas = 4;
std::string_view to_string(SimdIsa isa) noexcept;

/// Kernels the registry dispatches (for the per-kernel dispatch counters).
enum class SimdKernel : std::uint8_t {
  kHistogramTerm = 0,
  kMixtureAccumulate = 1,
  kMixtureSumSquares = 2,
  kMixtureMajorityMap = 3,
};
inline constexpr std::size_t kNumSimdKernels = 4;
std::string_view to_string(SimdKernel kernel) noexcept;

/// Initialises the registry (CPU detection + CONSENSUS_SIMD parsing).
/// Idempotent and cheap; every other entry point initialises lazily, so
/// calling this is only needed to force the env var to be read at a
/// well-defined time (api::Simulation::from_spec does).
void init_simd_kernels();

/// Runtime toggle for the vector paths (benches pit simd against scalar
/// columns with it); defaults to enabled. Scalar results are bit-identical,
/// so flipping it mid-run changes throughput only.
void set_simd_kernels_enabled(bool enabled) noexcept;
bool simd_kernels_enabled() noexcept;

/// True when this build on this CPU can actually run a vector lane; the
/// toggle and the override have no effect otherwise.
bool simd_kernels_available() noexcept;

/// True when `isa` was compiled into this binary AND the running CPU
/// supports it (kScalar is always supported).
bool simd_isa_supported(SimdIsa isa) noexcept;

/// Widest lane this build + CPU supports (what auto selection picks).
SimdIsa best_simd_isa() noexcept;

/// Lane the kernels dispatch to right now: kScalar when disabled, the
/// pinned lane under an override, best_simd_isa() otherwise. This is what
/// bench provenance and GET /metrics report.
SimdIsa active_simd_isa() noexcept;

/// Pins dispatch to one lane ("scalar", "avx2", "avx512", "neon"),
/// re-enables auto selection ("auto"), or disables the vector paths
/// ("off"). Returns false — changing nothing — for unknown names and for
/// lanes this build/CPU cannot run. CONSENSUS_SIMD is parsed through this
/// at init.
bool set_simd_isa(std::string_view name);

/// Per-kernel dispatch counters (relaxed atomics). The mixture kernels
/// count one dispatch per call; the histogram kernel is counted once per
/// law build by its caller (h_majority.cpp) so the per-histogram hot loop
/// stays counter-free. note_simd_dispatch is the explicit hook for that.
void note_simd_dispatch(SimdKernel kernel, std::uint64_t n = 1) noexcept;
std::uint64_t simd_dispatch_count(SimdKernel kernel) noexcept;

/// Publishes the registry state into `metrics`: the `simd_isa` info
/// string, a `simd_kernels_enabled` gauge, and one
/// `simd_dispatch_<kernel>` counter per kernel — what the serving daemon
/// surfaces on GET /metrics so a fleet operator can spot a node silently
/// running scalar.
void export_simd_metrics(Metrics& metrics);

/// Fills w[i·(h+1) + j] = alpha[i]^j · inv_fact[j] for j = 0..h — the
/// per-opinion weight table the composition integration gathers from
/// (inv_fact[j] = 1/j! folds the histogram's factorial denominators into
/// the table, removing a divide from the per-element hot path). `w` is
/// resized to alpha.size()·(h+1).
void build_pow_weight_table(std::span<const double> alpha, unsigned h,
                            std::span<const double> inv_fact,
                            std::vector<double>& w);

/// One histogram's contribution to the h-majority one-round law:
///
///   p    = prefactor · ∏_i w[i·stride + hist[i]]      (4-lane-strided)
///   best = max_i hist[i]
///   acc[i] += p / |{j : hist[j] = best}|  for every i with hist[i] = best
///
/// — i.e. the histogram's probability mass split uniformly over its argmax
/// set, matching HMajority::update's uniform tie-breaking. `hist` has `a`
/// entries, each < stride. Lanes: AVX2 (gather + lane products; also what
/// the avx512 table uses — the 4-lane contract leaves nothing for wider
/// registers to win); scalar elsewhere.
void accumulate_histogram_term(const double* w, std::size_t stride,
                               const std::uint32_t* hist, std::size_t a,
                               double prefactor, double* acc);

/// Scalar reference implementation (same lane-strided arithmetic); exposed
/// for tests asserting the bit-identity contract.
void accumulate_histogram_term_scalar(const double* w, std::size_t stride,
                                      const std::uint32_t* hist,
                                      std::size_t a, double prefactor,
                                      double* acc);

/// q[j] += coeff · double(counts[j]) for j = 0..k — the phase-1 mixing
/// saxpy of the class-counting engine. Elementwise, so every lane is
/// bit-identical to the mirror at any width; the uint64 → double
/// conversion is correctly rounded on every lane (AVX2 uses the 2⁸⁴/2⁵²
/// split, AVX-512 _mm512_cvtepu64_pd, NEON vcvtq_f64_u64). Adding
/// coeff·0 = +0.0 for an extinct slot leaves q[j] bit-unchanged (q is
/// never −0.0 on these paths), so the dense kernel equals the engines'
/// former alive-sparse scalar loop bit for bit.
void mixture_accumulate(double* q, const std::uint64_t* counts,
                        std::size_t k, double coeff);
void mixture_accumulate_scalar(double* q, const std::uint64_t* counts,
                               std::size_t k, double coeff);

/// γ = Σ_j q[j]² in the fixed 4-lane-strided order (lane sums combine as
/// (l0+l1)+(l2+l3), tail sequential) — the reduction half of the
/// 3-majority mixture law assembly.
double mixture_sum_squares(const double* q, std::size_t k);
double mixture_sum_squares_scalar(const double* q, std::size_t k);

/// out[j] = q[j] · ((1.0 + q[j]) − gamma) for j = 0..k — the elementwise
/// normalize/assembly half of the 3-majority mixture law (eq. (5) with the
/// neighbour frequencies q). Bit-identical at any width.
void mixture_majority_map(const double* q, std::size_t k, double gamma,
                          double* out);
void mixture_majority_map_scalar(const double* q, std::size_t k,
                                 double gamma, double* out);

}  // namespace consensus::support
