#include "fft/codelets.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "fft/codelets_impl.hpp"
#include "fft/plan1d.hpp"

namespace hs::fft::codelets {

namespace detail {

// The bit-identity references every vector variant is tested against. All
// but bfr are the loop bodies plan1d.cpp / plan2d.cpp / real.cpp inlined
// before the codelet split, verbatim.

void bf2_scalar(Complex* out, const Complex* tw, std::size_t m) {
  for (std::size_t k = 0; k < m; ++k) {
    const Complex a = out[k];
    const Complex b = out[m + k] * tw[m + k];
    out[k] = a + b;
    out[m + k] = a - b;
  }
}

void bf4_scalar(Complex* out, const Complex* tw, std::size_t m, bool forward) {
  for (std::size_t k = 0; k < m; ++k) {
    const Complex a0 = out[k];
    const Complex a1 = out[m + k] * tw[m + k];
    const Complex a2 = out[2 * m + k] * tw[2 * m + k];
    const Complex a3 = out[3 * m + k] * tw[3 * m + k];
    const Complex t0 = a0 + a2;
    const Complex t1 = a0 - a2;
    const Complex t2 = a1 + a3;
    const Complex t3 = a1 - a3;
    // W_4^1 is -i forward, +i inverse.
    const Complex t3w = forward ? Complex(t3.imag(), -t3.real())
                                : Complex(-t3.imag(), t3.real());
    out[k] = t0 + t2;
    out[2 * m + k] = t0 - t2;
    out[m + k] = t1 + t3w;
    out[3 * m + k] = t1 - t3w;
  }
}

void bfr_column_scalar(Complex* out, const Complex* tw, const double* wr,
                       int r, std::size_t m, std::size_t k) {
  const int h = (r - 1) / 2;
  const std::size_t row = odd_radix_row(r);
  const double* cs = wr;
  const double* sn = wr + 2 * static_cast<std::size_t>(h) * row;
  Complex s[kMaxDirectRadix / 2 + 1];
  Complex d[kMaxDirectRadix / 2 + 1];
  const Complex t0 = out[k];
  const auto input = [&](int j) {
    const std::size_t at = static_cast<std::size_t>(j) * m + k;
    return m == 1 ? out[at] : out[at] * tw[at];
  };
  Complex sum = t0;
  for (int j = 1; j <= h; ++j) {
    const Complex a = input(j);
    const Complex b = input(r - j);
    s[j] = a + b;
    d[j] = a - b;
    sum += s[j];
  }
  out[k] = sum;
  for (int q = 1; q <= h; ++q) {
    // Entry (j, q) of a table half sits at 2 * ((j-1) * row + (q-1)).
    const double* c = cs + 2 * static_cast<std::size_t>(q - 1);
    const double* w = sn + 2 * static_cast<std::size_t>(q - 1);
    double ar = t0.real();
    double ai = t0.imag();
    double br = w[0] * d[1].real();
    double bi = w[0] * d[1].imag();
    for (int j = 1; j <= h; ++j) {
      const std::size_t at = 2 * static_cast<std::size_t>(j - 1) * row;
      ar = ar + c[at] * s[j].real();
      ai = ai + c[at] * s[j].imag();
    }
    for (int j = 2; j <= h; ++j) {
      const std::size_t at = 2 * static_cast<std::size_t>(j - 1) * row;
      br = br + w[at] * d[j].real();
      bi = bi + w[at] * d[j].imag();
    }
    out[static_cast<std::size_t>(q) * m + k] = Complex(ar - bi, ai + br);
    out[static_cast<std::size_t>(r - q) * m + k] = Complex(ar + bi, ai - br);
  }
}

void bfr_scalar(Complex* out, const Complex* tw, const double* wr, int r,
                std::size_t m) {
  for (std::size_t k = 0; k < m; ++k) {
    bfr_column_scalar(out, tw, wr, r, m, k);
  }
}

void transpose_scalar(const Complex* in, Complex* out, std::size_t rows,
                      std::size_t cols) {
  constexpr std::size_t kBlock = 32;
  for (std::size_t rb = 0; rb < rows; rb += kBlock) {
    const std::size_t rend = std::min(rows, rb + kBlock);
    for (std::size_t cb = 0; cb < cols; cb += kBlock) {
      const std::size_t cend = std::min(cols, cb + kBlock);
      for (std::size_t r = rb; r < rend; ++r) {
        for (std::size_t c = cb; c < cend; ++c) {
          out[c * rows + r] = in[r * cols + c];
        }
      }
    }
  }
}

void r2c_untangle_scalar(const Complex* zf, const Complex* tw, Complex* out,
                         std::size_t h) {
  for (std::size_t k = 0; k < h; ++k) {
    const Complex zk = zf[k];
    const Complex zmk = std::conj(zf[(h - k) % h]);
    const Complex e = 0.5 * (zk + zmk);
    const Complex od = Complex(0.0, -0.5) * (zk - zmk);
    out[k] = e + tw[k] * od;
  }
}

void c2r_retangle_scalar(const Complex* in, const Complex* tw, Complex* z,
                         std::size_t h) {
  for (std::size_t k = 0; k < h; ++k) {
    const Complex xk = in[k];
    const Complex xmk = std::conj(in[h - k]);
    const Complex e = xk + xmk;
    const Complex od = std::conj(tw[k]) * (xk - xmk);
    z[k] = e + Complex(0.0, 1.0) * od;
  }
}

}  // namespace detail

std::vector<double> odd_radix_table(int r, Direction dir) {
  HS_REQUIRE(r >= 3 && r <= kMaxDirectRadix && r % 2 == 1,
             "odd-radix table needs an odd radix in 3..kMaxDirectRadix");
  const int h = (r - 1) / 2;
  const std::size_t row = detail::odd_radix_row(r);
  const std::size_t half = 2 * static_cast<std::size_t>(h) * row;
  std::vector<double> table(2 * half, 0.0);
  const double sign = dir == Direction::kForward ? -1.0 : 1.0;
  const double theta = sign * 2.0 * std::numbers::pi / r;
  for (int j = 1; j <= h; ++j) {
    for (int q = 1; q <= h; ++q) {
      // Reducing jq mod r keeps the argument in one turn.
      const double angle = theta * static_cast<double>((j * q) % r);
      const std::size_t at =
          2 * (static_cast<std::size_t>(j - 1) * row +
               static_cast<std::size_t>(q - 1));
      table[at] = table[at + 1] = std::cos(angle);
      table[half + at] = table[half + at + 1] = std::sin(angle);
    }
  }
  return table;
}

const Set& scalar_set() {
  static const Set set{common::SimdTier::kScalar,
                       detail::bf2_scalar,
                       detail::bf4_scalar,
                       detail::bfr_scalar,
                       detail::transpose_scalar,
                       detail::r2c_untangle_scalar,
                       detail::c2r_retangle_scalar};
  return set;
}

const Set& sse2_set() {
  // Transpose stays scalar: complexes are 16 bytes, so the blocked scalar
  // copy already moves full registers and SSE2 adds nothing.
  static const Set set{common::SimdTier::kSse2,
                       detail::bf2_sse2,
                       detail::bf4_sse2,
                       detail::bfr_sse2,
                       detail::transpose_scalar,
                       detail::r2c_untangle_sse2,
                       detail::c2r_retangle_sse2};
  return set;
}

const Set& avx2_set() {
  static const Set set{common::SimdTier::kAvx2,
                       detail::bf2_avx2,
                       detail::bf4_avx2,
                       detail::bfr_avx2,
                       detail::transpose_avx2,
                       detail::r2c_untangle_avx2,
                       detail::c2r_retangle_avx2};
  return set;
}

const Set& set_for(common::SimdTier tier) {
  switch (tier) {
    case common::SimdTier::kAvx2:
      return avx2_set();
    case common::SimdTier::kSse2:
      return sse2_set();
    case common::SimdTier::kScalar:
      break;
  }
  return scalar_set();
}

const Set& active_set() { return set_for(common::active_tier()); }

}  // namespace hs::fft::codelets
