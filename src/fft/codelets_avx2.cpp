// AVX2 codelets: two complexes per __m256d, scalar tails for odd counts.
//
// The bit-identity argument matches codelets_sse2.cpp (same naive complex
// multiply, sign-flip negation, -ffp-contract=off), with one addition:
// _mm256_addsub_pd performs a true subtract in the even (real) lanes and a
// true add in the odd (imaginary) lanes, exactly the scalar sub/add pair.
// The scalar tails compile in this TU under -mavx2, but contraction is off
// and each tail executes the reference operation sequence per element, so
// auto-vectorization cannot change their rounding either.
#include "fft/codelets_impl.hpp"
#include "fft/plan1d.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace hs::fft::codelets::detail {

namespace {

inline __m256d cload2(const Complex* p) {
  return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
}

inline void cstore2(Complex* p, __m256d v) {
  _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
}

// Two independent complex multiplies, the scalar formula lane for lane:
// (ar*br - ai*bi, ar*bi + ai*br).
inline __m256d cmul2(__m256d a, __m256d b) {
  const __m256d ar = _mm256_movedup_pd(a);        // (ar0,ar0,ar1,ar1)
  const __m256d ai = _mm256_permute_pd(a, 0xF);   // (ai0,ai0,ai1,ai1)
  const __m256d bsw = _mm256_permute_pd(b, 0x5);  // (bi0,br0,bi1,br1)
  const __m256d t1 = _mm256_mul_pd(ar, b);
  const __m256d t2 = _mm256_mul_pd(ai, bsw);
  return _mm256_addsub_pd(t1, t2);
}

// std::conj on both complexes: flip the imaginary-lane sign bits.
inline __m256d cconj2(__m256d a) {
  return _mm256_xor_pd(a, _mm256_set_pd(-0.0, 0.0, -0.0, 0.0));
}

// Swaps the two complexes (128-bit halves) of a register; used to walk the
// conjugate-mirror index, which descends while k ascends.
inline __m256d cswap2(__m256d a) { return _mm256_permute2f128_pd(a, a, 0x01); }

// m == 1 leaf: one column, so vectorize across output pairs (q, q+1). The
// table row holds the constants of q and q+1 side by side, each as a lane
// pair, so lane group 0 computes output q and lane group 1 output q+1 with
// the scalar reference's exact per-output operation sequence. For odd h the
// last pair's upper half reads the zero padding and is never stored.
void bfr_leaf_avx2(Complex* out, const double* cs, const double* sn, int r,
                   int h, std::size_t row) {
  __m256d s[kMaxDirectRadix / 2 + 1];
  __m256d d[kMaxDirectRadix / 2 + 1];
  const __m128d t0 = _mm_loadu_pd(reinterpret_cast<const double*>(out));
  __m128d sum = t0;
  for (int j = 1; j <= h; ++j) {
    const __m128d a = _mm_loadu_pd(reinterpret_cast<const double*>(out + j));
    const __m128d b =
        _mm_loadu_pd(reinterpret_cast<const double*>(out + (r - j)));
    const __m128d sj = _mm_add_pd(a, b);
    const __m128d dj = _mm_sub_pd(a, b);
    sum = _mm_add_pd(sum, sj);
    s[j] = _mm256_set_m128d(sj, sj);
    d[j] = _mm256_set_m128d(dj, dj);
  }
  _mm_storeu_pd(reinterpret_cast<double*>(out), sum);
  const __m256d t0x2 = _mm256_set_m128d(t0, t0);
  const __m256d neg_re = _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
  for (int q = 1; q <= h; q += 2) {
    const double* c = cs + 2 * static_cast<std::size_t>(q - 1);
    const double* w = sn + 2 * static_cast<std::size_t>(q - 1);
    __m256d acc_a = t0x2;
    __m256d acc_b = _mm256_mul_pd(_mm256_loadu_pd(w), d[1]);
    for (int j = 1; j <= h; ++j) {
      const std::size_t at = 2 * static_cast<std::size_t>(j - 1) * row;
      acc_a = _mm256_add_pd(acc_a,
                            _mm256_mul_pd(_mm256_loadu_pd(c + at), s[j]));
    }
    for (int j = 2; j <= h; ++j) {
      const std::size_t at = 2 * static_cast<std::size_t>(j - 1) * row;
      acc_b = _mm256_add_pd(acc_b,
                            _mm256_mul_pd(_mm256_loadu_pd(w + at), d[j]));
    }
    const __m256d ib = _mm256_xor_pd(_mm256_permute_pd(acc_b, 0x5), neg_re);
    const __m256d plus = _mm256_add_pd(acc_a, ib);    // out[q], out[q+1]
    const __m256d minus = _mm256_sub_pd(acc_a, ib);   // out[r-q], out[r-q-1]
    if (q + 1 <= h) {
      cstore2(out + q, plus);
      cstore2(out + (r - q - 1), cswap2(minus));
    } else {
      _mm_storeu_pd(reinterpret_cast<double*>(out + q),
                    _mm256_castpd256_pd128(plus));
      _mm_storeu_pd(reinterpret_cast<double*>(out + (r - q)),
                    _mm256_castpd256_pd128(minus));
    }
  }
}

}  // namespace

void bf2_avx2(Complex* out, const Complex* tw, std::size_t m) {
  std::size_t k = 0;
  for (; k + 2 <= m; k += 2) {
    const __m256d a = cload2(out + k);
    const __m256d b = cmul2(cload2(out + m + k), cload2(tw + m + k));
    cstore2(out + k, _mm256_add_pd(a, b));
    cstore2(out + m + k, _mm256_sub_pd(a, b));
  }
  for (; k < m; ++k) {
    const Complex a = out[k];
    const Complex b = out[m + k] * tw[m + k];
    out[k] = a + b;
    out[m + k] = a - b;
  }
}

void bf4_avx2(Complex* out, const Complex* tw, std::size_t m, bool forward) {
  // forward: t3w = (t3.im, -t3.re); inverse: t3w = (-t3.im, t3.re).
  const __m256d rot = forward ? _mm256_set_pd(-0.0, 0.0, -0.0, 0.0)
                              : _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
  std::size_t k = 0;
  for (; k + 2 <= m; k += 2) {
    const __m256d a0 = cload2(out + k);
    const __m256d a1 = cmul2(cload2(out + m + k), cload2(tw + m + k));
    const __m256d a2 = cmul2(cload2(out + 2 * m + k), cload2(tw + 2 * m + k));
    const __m256d a3 = cmul2(cload2(out + 3 * m + k), cload2(tw + 3 * m + k));
    const __m256d t0 = _mm256_add_pd(a0, a2);
    const __m256d t1 = _mm256_sub_pd(a0, a2);
    const __m256d t2 = _mm256_add_pd(a1, a3);
    const __m256d t3 = _mm256_sub_pd(a1, a3);
    const __m256d t3w = _mm256_xor_pd(_mm256_permute_pd(t3, 0x5), rot);
    cstore2(out + k, _mm256_add_pd(t0, t2));
    cstore2(out + 2 * m + k, _mm256_sub_pd(t0, t2));
    cstore2(out + m + k, _mm256_add_pd(t1, t3w));
    cstore2(out + 3 * m + k, _mm256_sub_pd(t1, t3w));
  }
  for (; k < m; ++k) {
    const Complex a0 = out[k];
    const Complex a1 = out[m + k] * tw[m + k];
    const Complex a2 = out[2 * m + k] * tw[2 * m + k];
    const Complex a3 = out[3 * m + k] * tw[3 * m + k];
    const Complex t0 = a0 + a2;
    const Complex t1 = a0 - a2;
    const Complex t2 = a1 + a3;
    const Complex t3 = a1 - a3;
    const Complex t3w = forward ? Complex(t3.imag(), -t3.real())
                                : Complex(-t3.imag(), t3.real());
    out[k] = t0 + t2;
    out[2 * m + k] = t0 - t2;
    out[m + k] = t1 + t3w;
    out[3 * m + k] = t1 - t3w;
  }
}

void bfr_avx2(Complex* out, const Complex* tw, const double* wr, int r,
              std::size_t m) {
  const int h = (r - 1) / 2;
  const std::size_t row = odd_radix_row(r);
  const double* cs = wr;
  const double* sn = wr + 2 * static_cast<std::size_t>(h) * row;
  if (m == 1) {
    bfr_leaf_avx2(out, cs, sn, r, h, row);
    return;
  }
  // m >= 2: two columns (k, k+1) per register, constants broadcast.
  const __m256d neg_re = _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
  __m256d s[kMaxDirectRadix / 2 + 1];
  __m256d d[kMaxDirectRadix / 2 + 1];
  std::size_t k = 0;
  for (; k + 2 <= m; k += 2) {
    const __m256d t0 = cload2(out + k);
    __m256d sum = t0;
    for (int j = 1; j <= h; ++j) {
      const std::size_t ja = static_cast<std::size_t>(j) * m + k;
      const std::size_t jb = static_cast<std::size_t>(r - j) * m + k;
      const __m256d a = cmul2(cload2(out + ja), cload2(tw + ja));
      const __m256d b = cmul2(cload2(out + jb), cload2(tw + jb));
      s[j] = _mm256_add_pd(a, b);
      d[j] = _mm256_sub_pd(a, b);
      sum = _mm256_add_pd(sum, s[j]);
    }
    cstore2(out + k, sum);
    for (int q = 1; q <= h; ++q) {
      const double* c = cs + 2 * static_cast<std::size_t>(q - 1);
      const double* w = sn + 2 * static_cast<std::size_t>(q - 1);
      __m256d acc_a = t0;
      __m256d acc_b = _mm256_mul_pd(
          _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(w)), d[1]);
      for (int j = 1; j <= h; ++j) {
        const std::size_t at = 2 * static_cast<std::size_t>(j - 1) * row;
        acc_a = _mm256_add_pd(
            acc_a,
            _mm256_mul_pd(
                _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(c + at)),
                s[j]));
      }
      for (int j = 2; j <= h; ++j) {
        const std::size_t at = 2 * static_cast<std::size_t>(j - 1) * row;
        acc_b = _mm256_add_pd(
            acc_b,
            _mm256_mul_pd(
                _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(w + at)),
                d[j]));
      }
      const __m256d ib = _mm256_xor_pd(_mm256_permute_pd(acc_b, 0x5), neg_re);
      cstore2(out + static_cast<std::size_t>(q) * m + k,
              _mm256_add_pd(acc_a, ib));
      cstore2(out + static_cast<std::size_t>(r - q) * m + k,
              _mm256_sub_pd(acc_a, ib));
    }
  }
  if (k < m) bfr_column_scalar(out, tw, wr, r, m, k);
}

void transpose_avx2(const Complex* in, Complex* out, std::size_t rows,
                    std::size_t cols) {
  // Same 32x32 blocking as the scalar reference; inside a block, 2x2 tiles
  // of complexes move through permute2f128 (pure lane moves, trivially
  // bit-exact).
  constexpr std::size_t kBlock = 32;
  for (std::size_t rb = 0; rb < rows; rb += kBlock) {
    const std::size_t rend = std::min(rows, rb + kBlock);
    for (std::size_t cb = 0; cb < cols; cb += kBlock) {
      const std::size_t cend = std::min(cols, cb + kBlock);
      std::size_t r = rb;
      for (; r + 2 <= rend; r += 2) {
        std::size_t c = cb;
        for (; c + 2 <= cend; c += 2) {
          const __m256d a = cload2(in + r * cols + c);        // r:(c, c+1)
          const __m256d b = cload2(in + (r + 1) * cols + c);  // r+1:(c, c+1)
          cstore2(out + c * rows + r, _mm256_permute2f128_pd(a, b, 0x20));
          cstore2(out + (c + 1) * rows + r, _mm256_permute2f128_pd(a, b, 0x31));
        }
        for (; c < cend; ++c) {
          out[c * rows + r] = in[r * cols + c];
          out[c * rows + r + 1] = in[(r + 1) * cols + c];
        }
      }
      for (; r < rend; ++r) {
        for (std::size_t c = cb; c < cend; ++c) {
          out[c * rows + r] = in[r * cols + c];
        }
      }
    }
  }
}

void r2c_untangle_avx2(const Complex* zf, const Complex* tw, Complex* out,
                       std::size_t h) {
  // k = 0 mirrors onto itself ((h - 0) % h == 0); keep it scalar so the
  // vector loop's descending mirror loads never wrap.
  {
    const Complex zk = zf[0];
    const Complex zmk = std::conj(zf[0]);
    const Complex e = 0.5 * (zk + zmk);
    const Complex od = Complex(0.0, -0.5) * (zk - zmk);
    out[0] = e + tw[0] * od;
  }
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d c_half_i = _mm256_set_pd(-0.5, 0.0, -0.5, 0.0);  // (0, -0.5)
  std::size_t k = 1;
  for (; k + 2 <= h; k += 2) {
    const __m256d zk = cload2(zf + k);
    // Mirrors for (k, k+1) are (h-k, h-k-1): load the ascending pair at
    // h-k-1 and swap halves to restore mirror order.
    const __m256d zmk = cconj2(cswap2(cload2(zf + (h - k - 1))));
    const __m256d e = _mm256_mul_pd(half, _mm256_add_pd(zk, zmk));
    const __m256d od = cmul2(c_half_i, _mm256_sub_pd(zk, zmk));
    cstore2(out + k, _mm256_add_pd(e, cmul2(cload2(tw + k), od)));
  }
  for (; k < h; ++k) {
    const Complex zk = zf[k];
    const Complex zmk = std::conj(zf[h - k]);
    const Complex e = 0.5 * (zk + zmk);
    const Complex od = Complex(0.0, -0.5) * (zk - zmk);
    out[k] = e + tw[k] * od;
  }
}

void c2r_retangle_avx2(const Complex* in, const Complex* tw, Complex* z,
                       std::size_t h) {
  const __m256d c_i = _mm256_set_pd(1.0, 0.0, 1.0, 0.0);  // (0.0, 1.0)
  std::size_t k = 0;
  // The mirror index h-k never wraps here (in holds h+1 bins), so the whole
  // range vectorizes.
  for (; k + 2 <= h; k += 2) {
    const __m256d xk = cload2(in + k);
    const __m256d xmk = cconj2(cswap2(cload2(in + (h - k - 1))));
    const __m256d e = _mm256_add_pd(xk, xmk);
    const __m256d od =
        cmul2(cconj2(cload2(tw + k)), _mm256_sub_pd(xk, xmk));
    cstore2(z + k, _mm256_add_pd(e, cmul2(c_i, od)));
  }
  for (; k < h; ++k) {
    const Complex xk = in[k];
    const Complex xmk = std::conj(in[h - k]);
    const Complex e = xk + xmk;
    const Complex od = std::conj(tw[k]) * (xk - xmk);
    z[k] = e + Complex(0.0, 1.0) * od;
  }
}

}  // namespace hs::fft::codelets::detail

#else  // !__AVX2__: the set table still links; forward to the references.

namespace hs::fft::codelets::detail {

void bf2_avx2(Complex* out, const Complex* tw, std::size_t m) {
  bf2_scalar(out, tw, m);
}
void bf4_avx2(Complex* out, const Complex* tw, std::size_t m, bool forward) {
  bf4_scalar(out, tw, m, forward);
}
void bfr_avx2(Complex* out, const Complex* tw, const double* wr, int r,
              std::size_t m) {
  bfr_scalar(out, tw, wr, r, m);
}
void transpose_avx2(const Complex* in, Complex* out, std::size_t rows,
                    std::size_t cols) {
  transpose_scalar(in, out, rows, cols);
}
void r2c_untangle_avx2(const Complex* zf, const Complex* tw, Complex* out,
                       std::size_t h) {
  r2c_untangle_scalar(zf, tw, out, h);
}
void c2r_retangle_avx2(const Complex* in, const Complex* tw, Complex* z,
                       std::size_t h) {
  c2r_retangle_scalar(in, tw, z, h);
}

}  // namespace hs::fft::codelets::detail

#endif
