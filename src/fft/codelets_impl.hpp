// Internal declarations shared by the codelet translation units. The scalar
// functions are the reference implementations; each SIMD TU either provides
// real vector code (when its ISA is available at build time) or forwards to
// the scalar reference, so the Set tables in codelets.cpp link everywhere.
#pragma once

#include "fft/codelets.hpp"

namespace hs::fft::codelets::detail {

// Row length of an odd_radix_table half: h = (r-1)/2 rounded up to even.
inline std::size_t odd_radix_row(int r) {
  return static_cast<std::size_t>(((r - 1) / 2 + 1) & ~1);
}

// codelets.cpp — scalar references.
void bf2_scalar(Complex* out, const Complex* tw, std::size_t m);
void bf4_scalar(Complex* out, const Complex* tw, std::size_t m, bool forward);
void bfr_scalar(Complex* out, const Complex* tw, const double* wr, int r,
                std::size_t m);
// One column k of bfr_scalar; the vector tiers' odd-m tail.
void bfr_column_scalar(Complex* out, const Complex* tw, const double* wr,
                       int r, std::size_t m, std::size_t k);
void transpose_scalar(const Complex* in, Complex* out, std::size_t rows,
                      std::size_t cols);
void r2c_untangle_scalar(const Complex* zf, const Complex* tw, Complex* out,
                         std::size_t h);
void c2r_retangle_scalar(const Complex* in, const Complex* tw, Complex* z,
                         std::size_t h);

// codelets_sse2.cpp — one complex per __m128d. Transpose is not listed: at
// 16 bytes per element the scalar blocked copy already moves whole complexes,
// so the SSE2 set reuses transpose_scalar.
void bf2_sse2(Complex* out, const Complex* tw, std::size_t m);
void bf4_sse2(Complex* out, const Complex* tw, std::size_t m, bool forward);
void bfr_sse2(Complex* out, const Complex* tw, const double* wr, int r,
              std::size_t m);
void r2c_untangle_sse2(const Complex* zf, const Complex* tw, Complex* out,
                       std::size_t h);
void c2r_retangle_sse2(const Complex* in, const Complex* tw, Complex* z,
                       std::size_t h);

// codelets_avx2.cpp — two complexes per __m256d, scalar tails.
void bf2_avx2(Complex* out, const Complex* tw, std::size_t m);
void bf4_avx2(Complex* out, const Complex* tw, std::size_t m, bool forward);
void bfr_avx2(Complex* out, const Complex* tw, const double* wr, int r,
              std::size_t m);
void transpose_avx2(const Complex* in, Complex* out, std::size_t rows,
                    std::size_t cols);
void r2c_untangle_avx2(const Complex* zf, const Complex* tw, Complex* out,
                       std::size_t h);
void c2r_retangle_avx2(const Complex* in, const Complex* tw, Complex* z,
                       std::size_t h);

}  // namespace hs::fft::codelets::detail
