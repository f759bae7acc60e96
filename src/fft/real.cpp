#include "fft/real.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "common/error.hpp"
#include "fft/codelets.hpp"
#include "fft/plan2d.hpp"
#include "fft/scratch.hpp"

namespace hs::fft {

namespace {

std::size_t checked_inner(std::size_t n) {
  HS_REQUIRE(n >= 1, "real transforms require positive length");
  // Even lengths run the even/odd packing at half length; odd lengths fall
  // back to a full complex transform of length n.
  return n % 2 == 0 ? n / 2 : n;
}

std::vector<Complex> make_half_twiddles(std::size_t n) {
  if (n % 2 != 0) return {};  // odd fallback path does not untangle
  // e^(-2*pi*i*k/n) for k in [0, n/2].
  std::vector<Complex> tw(n / 2 + 1);
  const double theta = -2.0 * std::numbers::pi / static_cast<double>(n);
  for (std::size_t k = 0; k < tw.size(); ++k) {
    tw[k] = Complex(std::cos(theta * static_cast<double>(k)),
                    std::sin(theta * static_cast<double>(k)));
  }
  return tw;
}

}  // namespace

PlanR2c1d::PlanR2c1d(std::size_t n, Rigor rigor)
    : n_(n),
      inner_(checked_inner(n), Direction::kForward, rigor),
      twiddle_(make_half_twiddles(n)),
      cod_(&codelets::set_for(inner_.simd_tier())) {}

common::SimdTier PlanR2c1d::simd_tier() const { return cod_->tier; }

void PlanR2c1d::execute(const double* in, Complex* out) const {
  execute_many(1, in, 0, out, 0);
}

void PlanR2c1d::execute_many(std::size_t howmany, const double* in,
                             std::size_t in_dist, Complex* out,
                             std::size_t out_dist) const {
  const bool packed = uses_packing();
  const std::size_t len = inner_.size();  // n/2 packed, n for odd n
  const std::size_t block = std::min(howmany, detail::kLaneBlock);
  detail::ScratchLease lease(2 * block * len);
  Complex* z = lease.get();
  Complex* zf = z + block * len;
  for (std::size_t t0 = 0; t0 < howmany; t0 += block) {
    const std::size_t nb = std::min(block, howmany - t0);
    // Every input of the block is buffered before any output is written.
    for (std::size_t b = 0; b < nb; ++b) {
      const double* row = in + (t0 + b) * in_dist;
      Complex* zb = z + b * len;
      if (packed) {
        // (even, odd) interleaved pairs are exactly the memory layout of a
        // complex array, so packing evens/odds is a straight copy.
        std::memcpy(reinterpret_cast<double*>(zb), row,
                    2 * len * sizeof(double));
      } else {
        // Odd-length fallback: widen to complex for a full transform.
        for (std::size_t j = 0; j < len; ++j) zb[j] = Complex(row[j], 0.0);
      }
    }
    inner_.execute_many(nb, z, zf, 1, len);
    for (std::size_t b = 0; b < nb; ++b) {
      const Complex* zfb = zf + b * len;
      Complex* o = out + (t0 + b) * out_dist;
      if (packed) {
        // Untangle: E[k] = spectrum of evens, O[k] = spectrum of odds.
        cod_->r2c_untangle(zfb, twiddle_.data(), o, len);
        // Nyquist bin: X[n/2] = E[0] - O[0], purely real.
        o[len] = Complex(zfb[0].real() - zfb[0].imag(), 0.0);
      } else {
        std::copy(zfb, zfb + n_ / 2 + 1, o);
      }
    }
  }
}

PlanC2r1d::PlanC2r1d(std::size_t n, Rigor rigor)
    : n_(n),
      inner_(checked_inner(n), Direction::kInverse, rigor),
      twiddle_(make_half_twiddles(n)),
      cod_(&codelets::set_for(inner_.simd_tier())) {}

common::SimdTier PlanC2r1d::simd_tier() const { return cod_->tier; }

void PlanC2r1d::execute(const Complex* in, double* out) const {
  execute_many(1, in, 0, out, 0);
}

void PlanC2r1d::execute_many(std::size_t howmany, const Complex* in,
                             std::size_t in_dist, double* out,
                             std::size_t out_dist) const {
  const bool packed = uses_packing();
  const std::size_t len = inner_.size();  // n/2 packed, n for odd n
  const std::size_t block = std::min(howmany, detail::kLaneBlock);
  detail::ScratchLease lease(2 * block * len);
  Complex* z = lease.get();
  Complex* zt = z + block * len;
  for (std::size_t t0 = 0; t0 < howmany; t0 += block) {
    const std::size_t nb = std::min(block, howmany - t0);
    // Every input of the block is buffered before any output is written.
    for (std::size_t b = 0; b < nb; ++b) {
      const Complex* src = in + (t0 + b) * in_dist;
      Complex* zb = z + b * len;
      if (packed) {
        // Retangle the half spectrum; the missing factor 1/2 in E and O
        // makes the round trip scale by n, matching FFTW's unnormalized c2r.
        cod_->c2r_retangle(src, twiddle_.data(), zb, len);
      } else {
        // Odd-length fallback: rebuild the full spectrum from the half via
        // the conjugate mirror (unnormalized, like the even path).
        for (std::size_t k = 0; k <= n_ / 2; ++k) zb[k] = src[k];
        for (std::size_t k = n_ / 2 + 1; k < n_; ++k) {
          zb[k] = std::conj(src[n_ - k]);
        }
      }
    }
    inner_.execute_many(nb, z, zt, 1, len);
    for (std::size_t b = 0; b < nb; ++b) {
      const Complex* ztb = zt + b * len;
      double* o = out + (t0 + b) * out_dist;
      if (packed) {
        // (real, imag) pairs are the interleaved (even, odd) output layout.
        std::memcpy(o, reinterpret_cast<const double*>(ztb),
                    2 * len * sizeof(double));
      } else {
        for (std::size_t j = 0; j < n_; ++j) o[j] = ztb[j].real();
      }
    }
  }
}

void fft_two_reals(const Plan1d& forward_plan, const double* a,
                   const double* b, Complex* spec_a, Complex* spec_b) {
  HS_REQUIRE(forward_plan.direction() == Direction::kForward,
             "fft_two_reals needs a forward plan");
  const std::size_t n = forward_plan.size();
  std::vector<Complex> z(n), zf(n);
  for (std::size_t j = 0; j < n; ++j) z[j] = Complex(a[j], b[j]);
  forward_plan.execute(z.data(), zf.data());
  for (std::size_t k = 0; k < n; ++k) {
    const Complex zk = zf[k];
    const Complex zmk = std::conj(zf[(n - k) % n]);
    spec_a[k] = 0.5 * (zk + zmk);
    spec_b[k] = Complex(0.0, -0.5) * (zk - zmk);
  }
}

void fft_two_reals_2d(const Plan2d& forward_plan, const double* a,
                      const double* b, Complex* spec_a, Complex* spec_b) {
  HS_REQUIRE(forward_plan.direction() == Direction::kForward,
             "fft_two_reals_2d needs a forward plan");
  const std::size_t h = forward_plan.height();
  const std::size_t w = forward_plan.width();
  const std::size_t count = h * w;
  std::vector<Complex> z(count), zf(count);
  for (std::size_t j = 0; j < count; ++j) z[j] = Complex(a[j], b[j]);
  forward_plan.execute(z.data(), zf.data());
  // Untangle with the 2-D conjugate mirror (-r mod h, -c mod w).
  for (std::size_t r = 0; r < h; ++r) {
    const std::size_t mr = (h - r) % h;
    for (std::size_t c = 0; c < w; ++c) {
      const std::size_t mc = (w - c) % w;
      const Complex zk = zf[r * w + c];
      const Complex zmk = std::conj(zf[mr * w + mc]);
      spec_a[r * w + c] = 0.5 * (zk + zmk);
      spec_b[r * w + c] = Complex(0.0, -0.5) * (zk - zmk);
    }
  }
}

}  // namespace hs::fft
