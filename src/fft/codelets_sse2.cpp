// SSE2 codelets: one complex per __m128d.
//
// Bit-identity with the scalar references holds because every lane executes
// the same operation sequence with the same rounding:
//   * complex multiply is the naive (ac-bd, ad+bc) formula GCC inlines for
//     std::complex (the __muldc3 NaN-recovery branch is unreachable for the
//     finite data these codelets see);
//   * x - y is computed as x + (-y), which IEEE 754 defines to be the same
//     operation; negation/conjugation is a sign-bit flip either way (so the
//     odd-radix butterfly's A -/+ iB, formed from a sign-flipped swap of B,
//     rounds exactly like the scalar ar + bi / ar - bi);
//   * the TU compiles with -ffp-contract=off, so no mul+add pair can fuse
//     into an FMA with different rounding than the scalar baseline.
#include "fft/codelets_impl.hpp"
#include "fft/plan1d.hpp"

#if defined(__SSE2__)

#include <emmintrin.h>

namespace hs::fft::codelets::detail {

namespace {

inline __m128d cload(const Complex* p) {
  return _mm_loadu_pd(reinterpret_cast<const double*>(p));
}

inline void cstore(Complex* p, __m128d v) {
  _mm_storeu_pd(reinterpret_cast<double*>(p), v);
}

// a * b with the scalar formula: (ar*br - ai*bi, ar*bi + ai*br). SSE2 has
// no addsub, so the subtract lane is x + (-y) via a sign flip — the IEEE
// definition of subtraction, hence bit-identical.
inline __m128d cmul(__m128d a, __m128d b) {
  const __m128d ar = _mm_unpacklo_pd(a, a);
  const __m128d ai = _mm_unpackhi_pd(a, a);
  const __m128d bsw = _mm_shuffle_pd(b, b, 0x1);  // (bi, br)
  const __m128d t1 = _mm_mul_pd(ar, b);           // (ar*br, ar*bi)
  __m128d t2 = _mm_mul_pd(ai, bsw);               // (ai*bi, ai*br)
  t2 = _mm_xor_pd(t2, _mm_set_pd(0.0, -0.0));     // negate the real lane
  return _mm_add_pd(t1, t2);
}

// Sign-flip of the imaginary lane == std::conj.
inline __m128d cconj(__m128d a) { return _mm_xor_pd(a, _mm_set_pd(-0.0, 0.0)); }

}  // namespace

void bf2_sse2(Complex* out, const Complex* tw, std::size_t m) {
  for (std::size_t k = 0; k < m; ++k) {
    const __m128d a = cload(out + k);
    const __m128d b = cmul(cload(out + m + k), cload(tw + m + k));
    cstore(out + k, _mm_add_pd(a, b));
    cstore(out + m + k, _mm_sub_pd(a, b));
  }
}

void bf4_sse2(Complex* out, const Complex* tw, std::size_t m, bool forward) {
  // forward: t3w = (t3.im, -t3.re); inverse: t3w = (-t3.im, t3.re).
  const __m128d rot = forward ? _mm_set_pd(-0.0, 0.0) : _mm_set_pd(0.0, -0.0);
  for (std::size_t k = 0; k < m; ++k) {
    const __m128d a0 = cload(out + k);
    const __m128d a1 = cmul(cload(out + m + k), cload(tw + m + k));
    const __m128d a2 = cmul(cload(out + 2 * m + k), cload(tw + 2 * m + k));
    const __m128d a3 = cmul(cload(out + 3 * m + k), cload(tw + 3 * m + k));
    const __m128d t0 = _mm_add_pd(a0, a2);
    const __m128d t1 = _mm_sub_pd(a0, a2);
    const __m128d t2 = _mm_add_pd(a1, a3);
    const __m128d t3 = _mm_sub_pd(a1, a3);
    const __m128d t3w = _mm_xor_pd(_mm_shuffle_pd(t3, t3, 0x1), rot);
    cstore(out + k, _mm_add_pd(t0, t2));
    cstore(out + 2 * m + k, _mm_sub_pd(t0, t2));
    cstore(out + m + k, _mm_add_pd(t1, t3w));
    cstore(out + 3 * m + k, _mm_sub_pd(t1, t3w));
  }
}

void bfr_sse2(Complex* out, const Complex* tw, const double* wr, int r,
              std::size_t m) {
  const int h = (r - 1) / 2;
  const std::size_t row = odd_radix_row(r);
  const double* cs = wr;
  const double* sn = wr + 2 * static_cast<std::size_t>(h) * row;
  const __m128d neg_re = _mm_set_pd(0.0, -0.0);
  __m128d s[kMaxDirectRadix / 2 + 1];
  __m128d d[kMaxDirectRadix / 2 + 1];
  for (std::size_t k = 0; k < m; ++k) {
    const __m128d t0 = cload(out + k);
    const auto input = [&](int j) {
      const std::size_t at = static_cast<std::size_t>(j) * m + k;
      return m == 1 ? cload(out + at) : cmul(cload(out + at), cload(tw + at));
    };
    __m128d sum = t0;
    for (int j = 1; j <= h; ++j) {
      const __m128d a = input(j);
      const __m128d b = input(r - j);
      s[j] = _mm_add_pd(a, b);
      d[j] = _mm_sub_pd(a, b);
      sum = _mm_add_pd(sum, s[j]);
    }
    cstore(out + k, sum);
    for (int q = 1; q <= h; ++q) {
      const double* c = cs + 2 * static_cast<std::size_t>(q - 1);
      const double* w = sn + 2 * static_cast<std::size_t>(q - 1);
      __m128d acc_a = t0;
      __m128d acc_b = _mm_mul_pd(_mm_loadu_pd(w), d[1]);
      for (int j = 1; j <= h; ++j) {
        const std::size_t at = 2 * static_cast<std::size_t>(j - 1) * row;
        acc_a = _mm_add_pd(acc_a, _mm_mul_pd(_mm_loadu_pd(c + at), s[j]));
      }
      for (int j = 2; j <= h; ++j) {
        const std::size_t at = 2 * static_cast<std::size_t>(j - 1) * row;
        acc_b = _mm_add_pd(acc_b, _mm_mul_pd(_mm_loadu_pd(w + at), d[j]));
      }
      // i*B = (-B.im, B.re): out[q] = A + iB, out[r-q] = A - iB.
      const __m128d ib =
          _mm_xor_pd(_mm_shuffle_pd(acc_b, acc_b, 0x1), neg_re);
      cstore(out + static_cast<std::size_t>(q) * m + k, _mm_add_pd(acc_a, ib));
      cstore(out + static_cast<std::size_t>(r - q) * m + k,
             _mm_sub_pd(acc_a, ib));
    }
  }
}

void r2c_untangle_sse2(const Complex* zf, const Complex* tw, Complex* out,
                       std::size_t h) {
  const __m128d half = _mm_set1_pd(0.5);
  const __m128d c_half_i = _mm_set_pd(-0.5, 0.0);  // Complex(0.0, -0.5)
  for (std::size_t k = 0; k < h; ++k) {
    const __m128d zk = cload(zf + k);
    const __m128d zmk = cconj(cload(zf + (h - k) % h));
    const __m128d e = _mm_mul_pd(half, _mm_add_pd(zk, zmk));
    const __m128d od = cmul(c_half_i, _mm_sub_pd(zk, zmk));
    cstore(out + k, _mm_add_pd(e, cmul(cload(tw + k), od)));
  }
}

void c2r_retangle_sse2(const Complex* in, const Complex* tw, Complex* z,
                       std::size_t h) {
  const __m128d c_i = _mm_set_pd(1.0, 0.0);  // Complex(0.0, 1.0)
  for (std::size_t k = 0; k < h; ++k) {
    const __m128d xk = cload(in + k);
    const __m128d xmk = cconj(cload(in + h - k));
    const __m128d e = _mm_add_pd(xk, xmk);
    const __m128d od = cmul(cconj(cload(tw + k)), _mm_sub_pd(xk, xmk));
    cstore(z + k, _mm_add_pd(e, cmul(c_i, od)));
  }
}

}  // namespace hs::fft::codelets::detail

#else  // !__SSE2__: the set table still links; forward to the references.

namespace hs::fft::codelets::detail {

void bf2_sse2(Complex* out, const Complex* tw, std::size_t m) {
  bf2_scalar(out, tw, m);
}
void bf4_sse2(Complex* out, const Complex* tw, std::size_t m, bool forward) {
  bf4_scalar(out, tw, m, forward);
}
void bfr_sse2(Complex* out, const Complex* tw, const double* wr, int r,
              std::size_t m) {
  bfr_scalar(out, tw, wr, r, m);
}
void r2c_untangle_sse2(const Complex* zf, const Complex* tw, Complex* out,
                       std::size_t h) {
  r2c_untangle_scalar(zf, tw, out, h);
}
void c2r_retangle_sse2(const Complex* in, const Complex* tw, Complex* z,
                       std::size_t h) {
  c2r_retangle_scalar(in, tw, z, h);
}

}  // namespace hs::fft::codelets::detail

#endif
