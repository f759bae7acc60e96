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

// Broadcasts one complex to both halves: the twiddle every lane of a
// column shares.
inline __m256d cbcast2(const Complex* p) {
  return _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(p));
}

// One radix-2 / radix-4 element in the scalar reference's exact sequence;
// the vector loops' odd tails.
inline void bf2_one(Complex* out, std::size_t step, std::size_t e,
                    Complex w) {
  const Complex a = out[e];
  const Complex b = out[step + e] * w;
  out[e] = a + b;
  out[step + e] = a - b;
}

inline void bf4_one(Complex* out, std::size_t step, std::size_t e,
                    Complex w1, Complex w2, Complex w3, bool forward) {
  const Complex a0 = out[e];
  const Complex a1 = out[step + e] * w1;
  const Complex a2 = out[2 * step + e] * w2;
  const Complex a3 = out[3 * step + e] * w3;
  const Complex t0 = a0 + a2;
  const Complex t1 = a0 - a2;
  const Complex t2 = a1 + a3;
  const Complex t3 = a1 - a3;
  const Complex t3w = forward ? Complex(t3.imag(), -t3.real())
                              : Complex(-t3.imag(), t3.real());
  out[e] = t0 + t2;
  out[2 * step + e] = t0 - t2;
  out[step + e] = t1 + t3w;
  out[3 * step + e] = t1 - t3w;
}

inline void bf4_pair(Complex* out, std::size_t step, std::size_t e,
                     __m256d w1, __m256d w2, __m256d w3, __m256d rot) {
  const __m256d a0 = cload2(out + e);
  const __m256d a1 = cmul2(cload2(out + step + e), w1);
  const __m256d a2 = cmul2(cload2(out + 2 * step + e), w2);
  const __m256d a3 = cmul2(cload2(out + 3 * step + e), w3);
  const __m256d t0 = _mm256_add_pd(a0, a2);
  const __m256d t1 = _mm256_sub_pd(a0, a2);
  const __m256d t2 = _mm256_add_pd(a1, a3);
  const __m256d t3 = _mm256_sub_pd(a1, a3);
  const __m256d t3w = _mm256_xor_pd(_mm256_permute_pd(t3, 0x5), rot);
  cstore2(out + e, _mm256_add_pd(t0, t2));
  cstore2(out + 2 * step + e, _mm256_sub_pd(t0, t2));
  cstore2(out + step + e, _mm256_add_pd(t1, t3w));
  cstore2(out + 3 * step + e, _mm256_sub_pd(t1, t3w));
}

// Two odd-radix columns per register, constants broadcast: element j of the
// pair sits at col[j * step], and twiddle(j) yields the pair's twiddles
// (unused when m == 1, whose twiddles are all 1).
template <class Twiddle>
inline void bfr_pair(Complex* col, std::size_t step, std::size_t m,
                     Twiddle twiddle, const double* cs, const double* sn,
                     int r, int h, std::size_t row) {
  const __m256d neg_re = _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
  __m256d s[kMaxDirectRadix / 2 + 1];
  __m256d d[kMaxDirectRadix / 2 + 1];
  const auto input = [&](int j) {
    const __m256d x = cload2(col + static_cast<std::size_t>(j) * step);
    return m == 1 ? x : cmul2(x, twiddle(j));
  };
  const __m256d t0 = cload2(col);
  __m256d sum = t0;
  for (int j = 1; j <= h; ++j) {
    const __m256d a = input(j);
    const __m256d b = input(r - j);
    s[j] = _mm256_add_pd(a, b);
    d[j] = _mm256_sub_pd(a, b);
    sum = _mm256_add_pd(sum, s[j]);
  }
  cstore2(col, sum);
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
    cstore2(col + static_cast<std::size_t>(q) * step, _mm256_add_pd(acc_a, ib));
    cstore2(col + static_cast<std::size_t>(r - q) * step,
            _mm256_sub_pd(acc_a, ib));
  }
}

}  // namespace

// lanes == 1 pairs adjacent columns (k, k+1). lanes > 1 pairs adjacent
// lanes of one column under its broadcast twiddle; an odd lane count leaves
// one scalar lane per column.

void bf2_avx2(Complex* out, const Complex* tw, std::size_t m,
              std::size_t lanes) {
  if (lanes == 1) {
    std::size_t k = 0;
    for (; k + 2 <= m; k += 2) {
      const __m256d a = cload2(out + k);
      const __m256d b = cmul2(cload2(out + m + k), cload2(tw + m + k));
      cstore2(out + k, _mm256_add_pd(a, b));
      cstore2(out + m + k, _mm256_sub_pd(a, b));
    }
    for (; k < m; ++k) bf2_one(out, m, k, tw[m + k]);
    return;
  }
  const std::size_t step = m * lanes;
  for (std::size_t k = 0; k < m; ++k) {
    const __m256d w = cbcast2(tw + m + k);
    std::size_t e = k * lanes;
    const std::size_t end = e + lanes;
    for (; e + 2 <= end; e += 2) {
      const __m256d a = cload2(out + e);
      const __m256d b = cmul2(cload2(out + step + e), w);
      cstore2(out + e, _mm256_add_pd(a, b));
      cstore2(out + step + e, _mm256_sub_pd(a, b));
    }
    if (e < end) bf2_one(out, step, e, tw[m + k]);
  }
}

void bf4_avx2(Complex* out, const Complex* tw, std::size_t m,
              bool forward, std::size_t lanes) {
  // forward: t3w = (t3.im, -t3.re); inverse: t3w = (-t3.im, t3.re).
  const __m256d rot = forward ? _mm256_set_pd(-0.0, 0.0, -0.0, 0.0)
                              : _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
  if (lanes == 1) {
    std::size_t k = 0;
    for (; k + 2 <= m; k += 2) {
      bf4_pair(out, m, k, cload2(tw + m + k), cload2(tw + 2 * m + k),
               cload2(tw + 3 * m + k), rot);
    }
    for (; k < m; ++k) {
      bf4_one(out, m, k, tw[m + k], tw[2 * m + k], tw[3 * m + k], forward);
    }
    return;
  }
  const std::size_t step = m * lanes;
  for (std::size_t k = 0; k < m; ++k) {
    const __m256d w1 = cbcast2(tw + m + k);
    const __m256d w2 = cbcast2(tw + 2 * m + k);
    const __m256d w3 = cbcast2(tw + 3 * m + k);
    std::size_t e = k * lanes;
    const std::size_t end = e + lanes;
    for (; e + 2 <= end; e += 2) bf4_pair(out, step, e, w1, w2, w3, rot);
    if (e < end) {
      bf4_one(out, step, e, tw[m + k], tw[2 * m + k], tw[3 * m + k], forward);
    }
  }
}

void bfr_avx2(Complex* out, const Complex* tw, const double* wr, int r,
              std::size_t m, std::size_t lanes) {
  const int h = (r - 1) / 2;
  const std::size_t row = odd_radix_row(r);
  const double* cs = wr;
  const double* sn = wr + 2 * static_cast<std::size_t>(h) * row;
  if (lanes == 1) {
    if (m == 1) {
      bfr_leaf_avx2(out, cs, sn, r, h, row);
      return;
    }
    std::size_t k = 0;
    for (; k + 2 <= m; k += 2) {
      const auto twiddle = [&](int j) {
        return cload2(tw + static_cast<std::size_t>(j) * m + k);
      };
      bfr_pair(out + k, m, m, twiddle, cs, sn, r, h, row);
    }
    if (k < m) bfr_column_scalar(out, tw, wr, r, m, 1, k, 0);
    return;
  }
  const std::size_t step = m * lanes;
  for (std::size_t k = 0; k < m; ++k) {
    const auto twiddle = [&](int j) {
      return cbcast2(tw + static_cast<std::size_t>(j) * m + k);
    };
    std::size_t b = 0;
    for (; b + 2 <= lanes; b += 2) {
      bfr_pair(out + k * lanes + b, step, m, twiddle, cs, sn, r, h, row);
    }
    if (b < lanes) bfr_column_scalar(out, tw, wr, r, m, lanes, k, b);
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

void bf2_avx2(Complex* out, const Complex* tw, std::size_t m,
              std::size_t lanes) {
  bf2_scalar(out, tw, m, lanes);
}
void bf4_avx2(Complex* out, const Complex* tw, std::size_t m,
              bool forward, std::size_t lanes) {
  bf4_scalar(out, tw, m, forward, lanes);
}
void bfr_avx2(Complex* out, const Complex* tw, const double* wr, int r,
              std::size_t m, std::size_t lanes) {
  bfr_scalar(out, tw, wr, r, m, lanes);
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
