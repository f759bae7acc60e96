// SIMD codelets for the FFT hot loops, selected at plan time.
//
// FFTW composes its transforms from small compiled "codelets" and lets the
// planner pick between them; this module is the same idea scaled to the
// loops this library actually spends time in:
//   * bf2 / bf4 — the specialized radix-2/radix-4 DIT butterflies, twiddle
//     application included.
//   * bfr — the conjugate-pair odd-radix butterfly (odd radix <=
//     kMaxDirectRadix). Input j and r-j share the real cosine and sine of
//     W_r^(jq), so the butterfly forms their sum and difference once and
//     accumulates real x complex products, about a quarter of the real
//     multiplies of the r x r complex DFT matrix. It is vectorized across
//     the m sub-transform columns, and at the m = 1 leaf (where the planner
//     puts the large odd radix) across output pairs (q, q+1).
//   * transpose — the cache-blocked transpose both 2-D column passes run
//     through.
//   * r2c_untangle / c2r_retangle — the even/odd packing arithmetic of the
//     half-spectrum real transforms.
//
// Each operation ships a scalar reference plus SSE2 and AVX2 variants; a
// Set bundles one variant of each. Every variant executes the *identical
// per-element operation sequence* as the scalar reference — same multiplies,
// same adds, no FMA contraction (the codelet translation units compile with
// -ffp-contract=off) — so outputs are bit-identical across tiers (signed
// zeros excepted, which compare equal) and displacement tables never depend
// on the dispatch tier.
//
// Tiers whose ISA is unavailable at build time alias the next-narrower set,
// so set_for() is total on every platform.
#pragma once

#include <cstddef>
#include <vector>

#include "common/simd.hpp"
#include "fft/types.hpp"

namespace hs::fft::codelets {

struct Set {
  common::SimdTier tier;

  /// Radix-2 combine over one butterfly group: for k in [0, m)
  ///   b = out[m+k] * tw[m+k];  out[k] = a + b;  out[m+k] = a - b.
  void (*bf2)(Complex* out, const Complex* tw, std::size_t m);

  /// Radix-4 combine; tw rows 1..3 hold the twiddles (row 0 is implied 1).
  void (*bf4)(Complex* out, const Complex* tw, std::size_t m, bool forward);

  /// Odd radix-r combine (r = 2h + 1, 3 <= r <= kMaxDirectRadix); wr is
  /// odd_radix_table(r, dir). With t_j the twiddled inputs, s_j = t_j +
  /// t_(r-j) and d_j = t_j - t_(r-j) for j in 1..h, it writes
  ///   out[0]   = t_0 + sum_j s_j
  ///   out[q]   = A_q + i B_q,  out[r-q] = A_q - i B_q   (q in 1..h)
  /// with A_q = t_0 + sum_j cos(jq) s_j and B_q = sum_j sin(jq) d_j, both
  /// summed in ascending j. tw rows 1..r-1 are read (row 0 is implied 1);
  /// at m == 1 the only column is k = 0, whose twiddles are all W^0 = 1,
  /// so tw is not read at all.
  void (*bfr)(Complex* out, const Complex* tw, const double* wr, int r,
              std::size_t m);

  /// Cache-blocked transpose: in is rows x cols, out becomes cols x rows.
  void (*transpose)(const Complex* in, Complex* out, std::size_t rows,
                    std::size_t cols);

  /// Half-spectrum untangle of the even/odd packed transform zf (length h)
  /// into bins out[0..h) using twiddles tw[0..h]; the Nyquist bin out[h]
  /// is the caller's (scalar, one element).
  void (*r2c_untangle)(const Complex* zf, const Complex* tw, Complex* out,
                       std::size_t h);

  /// Inverse of r2c_untangle: retangles half-spectrum bins in[0..h] into
  /// the packed signal z[0..h) ahead of the half-length inverse transform.
  void (*c2r_retangle)(const Complex* in, const Complex* tw, Complex* z,
                       std::size_t h);
};

/// The constants bfr reads for odd radix r and a direction, laid out as two
/// halves (cosines, then sines) of h rows (j = 1..h) by h-rounded-up-to-even
/// columns (q = 1..), each entry stored twice ({v, v}, one complex-sized
/// slot) so every tier loads it as a ready lane pair and the m = 1 vector
/// path loads outputs (q, q+1) as one 32-byte row segment. Padding is 0.
std::vector<double> odd_radix_table(int r, Direction dir);

/// The codelet set for a tier (total: unavailable ISAs alias narrower sets).
const Set& set_for(common::SimdTier tier);

/// set_for(common::active_tier()) — the dispatch-site shorthand.
const Set& active_set();

// Per-tier sets, exported for the planner's measurement sweep and tests.
const Set& scalar_set();
const Set& sse2_set();
const Set& avx2_set();

}  // namespace hs::fft::codelets
