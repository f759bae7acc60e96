// Shared types for the HybridStitch FFT library.
//
// The library mirrors the plan/execute split of FFTW and cuFFT, the two
// libraries the paper builds on: a Plan is created once (optionally spending
// planning time to auto-tune, cf. FFTW's estimate/measure/patient modes) and
// then executed many times. Inverse transforms are unnormalized, matching
// both FFTW and cuFFT conventions.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>

namespace hs::fft {

using Complex = std::complex<double>;

enum class Direction { kForward, kInverse };

/// Version of the transforms' rounding. Two builds with the same version
/// produce bit-identical spectra for the same input and tier; persisted
/// spectra and pair results (the spill tier) carry it and are recomputed
/// when it differs. Bump it whenever any butterfly's operation sequence
/// changes. 1: the conjugate-pair odd-radix butterfly (0 was the r x r
/// complex DFT-matrix butterfly).
inline constexpr std::uint16_t kNumericsVersion = 1;

/// Planning rigor, mirroring FFTW's planner flags. kEstimate picks a
/// heuristic factor ordering; kMeasure and kPatient time candidate execution
/// strategies on scratch data and keep the fastest (kPatient explores more
/// candidates). The paper reports patient planning gave a 2x FFT improvement
/// over estimate for its 1392x1040 tiles.
enum class Rigor { kEstimate, kMeasure, kPatient };

/// Global transform counters (relaxed atomics), used by the Table I
/// operation-count harness and by tests that assert plan reuse.
struct Stats {
  std::uint64_t transforms_1d = 0;
  std::uint64_t transforms_2d = 0;
  std::uint64_t bluestein_transforms = 0;
};

Stats stats();
void reset_stats();

namespace detail {
void count_1d();
void count_2d();
void count_bluestein();
}  // namespace detail

}  // namespace hs::fft
