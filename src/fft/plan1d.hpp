// One-dimensional complex-to-complex FFT plan.
//
// Strategy selection:
//   * n whose prime factors are all <= kMaxDirectRadix runs a recursive
//     decimation-in-time mixed-radix kernel with per-depth precomputed
//     twiddle tables: specialized radix-2/4 butterflies, and for every odd
//     radix the conjugate-pair butterfly (fft/codelets.hpp), which pairs
//     inputs j and r-j so the radix's DFT costs real x complex products
//     against per-depth cosine/sine tables built at plan time.
//   * n with a larger prime factor falls back to Bluestein's chirp-z
//     algorithm over a power-of-two transform of length >= 2n-1. This is
//     exactly the regime the paper's 1392x1040 microscope tiles flirt with
//     (1392 = 2^4*3*29, 1040 = 2^4*5*13): awkward factors that make padding
//     to small-prime sizes profitable (paper SVI, future work).
//
// Plans are immutable after construction and safe to execute concurrently
// from many threads; per-thread scratch is drawn from a thread_local arena.
#pragma once

#include <memory>
#include <vector>

#include "common/simd.hpp"
#include "fft/types.hpp"

namespace hs::fft {

inline constexpr int kMaxDirectRadix = 31;

/// Returns true when every prime factor of n is <= kMaxDirectRadix, i.e. the
/// mixed-radix kernel applies without a Bluestein fallback.
bool is_smooth(std::size_t n);

/// Smallest m >= n whose prime factors are all in {2, 3, 5, 7}; the padding
/// target recommended by the paper's future-work section.
std::size_t next_smooth(std::size_t n);

class Plan1d {
 public:
  Plan1d(std::size_t n, Direction dir, Rigor rigor = Rigor::kEstimate);
  ~Plan1d();

  Plan1d(const Plan1d&) = delete;
  Plan1d& operator=(const Plan1d&) = delete;
  Plan1d(Plan1d&&) noexcept;
  Plan1d& operator=(Plan1d&&) noexcept;

  /// Out-of-place transform; `in` and `out` must not alias and must each
  /// hold size() elements.
  void execute(const Complex* in, Complex* out) const;

  /// In-place transform (uses scratch internally).
  void execute_inplace(Complex* data) const;

  /// Strided out-of-place transform: element i is read from in[i*in_stride]
  /// and written to out[i*out_stride]. Used by 2-D column passes.
  void execute_strided(const Complex* in, std::size_t in_stride, Complex* out,
                       std::size_t out_stride) const;

  std::size_t size() const;
  Direction direction() const;

  /// The SIMD codelet tier this plan executes with: measured rigors record
  /// the fastest tier in wisdom; kEstimate uses the widest the dispatch cap
  /// allows. Fixed at plan time.
  common::SimdTier simd_tier() const;

  bool uses_bluestein() const;

  /// The factor ordering chosen by the planner (empty for Bluestein plans).
  const std::vector<int>& factors() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Scales `data[0..n)` by 1/n; convenience for normalized inverse transforms.
void normalize(Complex* data, std::size_t n);

}  // namespace hs::fft
