// FFT library tests: correctness against the O(n^2) reference, algebraic
// properties (round trip, Parseval, linearity, shift theorem), real
// transforms, 2-D transforms, plan cache, and planner behaviour — across a
// size sweep that includes powers of two, smooth composites, primes (the
// Bluestein path), and the paper's awkward 1392/1040 factorizations.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/dft_ref.hpp"
#include "fft/plan1d.hpp"
#include "fft/plan2d.hpp"
#include "fft/plan_cache.hpp"
#include "fft/real.hpp"
#include "fft/wisdom.hpp"

namespace hs::fft {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> out(n);
  for (auto& v : out) {
    v = Complex(rng.next_double() - 0.5, rng.next_double() - 0.5);
  }
  return out;
}

double max_error(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

// --- parameterized 1-D correctness -----------------------------------------

class Fft1dSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1dSizes, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, n);
  Plan1d plan(n, Direction::kForward);
  std::vector<Complex> out(n);
  plan.execute(x.data(), out.data());
  const auto ref = dft_reference(x, Direction::kForward);
  EXPECT_LT(max_error(out, ref), 1e-9 * static_cast<double>(n) + 1e-12)
      << "n=" << n;
}

TEST_P(Fft1dSizes, InverseMatchesReferenceDft) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, n + 1);
  Plan1d plan(n, Direction::kInverse);
  std::vector<Complex> out(n);
  plan.execute(x.data(), out.data());
  const auto ref = dft_reference(x, Direction::kInverse);
  EXPECT_LT(max_error(out, ref), 1e-9 * static_cast<double>(n) + 1e-12);
}

TEST_P(Fft1dSizes, RoundTripRecoversSignal) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 2 * n);
  Plan1d fwd(n, Direction::kForward), inv(n, Direction::kInverse);
  std::vector<Complex> spec(n), back(n);
  fwd.execute(x.data(), spec.data());
  inv.execute(spec.data(), back.data());
  normalize(back.data(), n);
  EXPECT_LT(max_error(back, x), 1e-10 * static_cast<double>(n) + 1e-13);
}

TEST_P(Fft1dSizes, ParsevalHolds) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 3 * n);
  Plan1d fwd(n, Direction::kForward);
  std::vector<Complex> spec(n);
  fwd.execute(x.data(), spec.data());
  double time_energy = 0.0, freq_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-6 * time_energy * static_cast<double>(n));
}

TEST_P(Fft1dSizes, InPlaceMatchesOutOfPlace) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 5 * n);
  Plan1d fwd(n, Direction::kForward);
  std::vector<Complex> out(n), inplace = x;
  fwd.execute(x.data(), out.data());
  fwd.execute_inplace(inplace.data());
  EXPECT_LT(max_error(out, inplace), 1e-12);
}

TEST_P(Fft1dSizes, StridedGatherScatterMatches) {
  const std::size_t n = GetParam();
  const std::size_t stride = 3;
  const auto x = random_signal(n, 7 * n);
  std::vector<Complex> strided(n * stride, Complex(99.0, 99.0));
  for (std::size_t i = 0; i < n; ++i) strided[i * stride] = x[i];
  Plan1d fwd(n, Direction::kForward);
  std::vector<Complex> expected(n), out(n * stride, Complex(0.0, 0.0));
  fwd.execute(x.data(), expected.data());
  fwd.execute_strided(strided.data(), stride, out.data(), stride);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(out[i * stride] - expected[i]), 1e-12) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizeSweep, Fft1dSizes,
    ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 25, 29, 32, 49,
                      60, 64, 81, 97,      // 97: Bluestein (prime > 31)
                      100, 101, 128, 143,  // 143 = 11*13
                      174,                 // 174 = 2*3*29 (1392's odd part)
                      210, 251,            // 251: Bluestein
                      256, 260, 347, 512, 520, 1040, 1392));

// --- algebraic properties ----------------------------------------------------

TEST(Fft1d, LinearityHolds) {
  const std::size_t n = 120;
  const auto x = random_signal(n, 1);
  const auto y = random_signal(n, 2);
  const Complex alpha(1.5, -0.25), beta(-0.75, 2.0);
  std::vector<Complex> combo(n);
  for (std::size_t i = 0; i < n; ++i) combo[i] = alpha * x[i] + beta * y[i];
  Plan1d fwd(n, Direction::kForward);
  std::vector<Complex> fx(n), fy(n), fc(n);
  fwd.execute(x.data(), fx.data());
  fwd.execute(y.data(), fy.data());
  fwd.execute(combo.data(), fc.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(fc[i] - (alpha * fx[i] + beta * fy[i])), 1e-9);
  }
}

TEST(Fft1d, ImpulseTransformsToConstant) {
  const std::size_t n = 60;
  std::vector<Complex> x(n, Complex(0.0, 0.0));
  x[0] = Complex(1.0, 0.0);
  Plan1d fwd(n, Direction::kForward);
  std::vector<Complex> out(n);
  fwd.execute(x.data(), out.data());
  for (const auto& v : out) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft1d, ShiftTheoremHolds) {
  const std::size_t n = 90;
  const std::size_t shift = 7;
  const auto x = random_signal(n, 4);
  std::vector<Complex> shifted(n);
  for (std::size_t i = 0; i < n; ++i) shifted[i] = x[(i + shift) % n];
  Plan1d fwd(n, Direction::kForward);
  std::vector<Complex> fx(n), fs(n);
  fwd.execute(x.data(), fx.data());
  fwd.execute(shifted.data(), fs.data());
  for (std::size_t k = 0; k < n; ++k) {
    const double phase = 2.0 * std::numbers::pi * static_cast<double>(k) *
                         static_cast<double>(shift) / static_cast<double>(n);
    const Complex factor(std::cos(phase), std::sin(phase));
    EXPECT_LT(std::abs(fs[k] - fx[k] * factor), 1e-9) << "k=" << k;
  }
}

TEST(Fft1d, BluesteinFlagOnlyForLargePrimes) {
  EXPECT_FALSE(Plan1d(1024, Direction::kForward).uses_bluestein());
  EXPECT_FALSE(Plan1d(1392, Direction::kForward).uses_bluestein());  // 2^4*3*29
  EXPECT_FALSE(Plan1d(1040, Direction::kForward).uses_bluestein());  // 2^4*5*13
  EXPECT_TRUE(Plan1d(97, Direction::kForward).uses_bluestein());
  EXPECT_TRUE(Plan1d(2 * 37, Direction::kForward).uses_bluestein());
}

TEST(Fft1d, FactorsMultiplyToSize) {
  Plan1d plan(360, Direction::kForward);
  std::size_t product = 1;
  for (int f : plan.factors()) product *= static_cast<std::size_t>(f);
  EXPECT_EQ(product, 360u);
}

// Relative L2 error ||out - ref|| / ||ref||, the usual FFT accuracy figure
// (benchFFT's). A max-norm ratio is limited by the O(n^2) reference's own
// round-off: it reads ~2e-15 at n = 1024 for the unchanged radix-4 path.
double relative_error(const std::vector<Complex>& out,
                      const std::vector<Complex>& ref) {
  EXPECT_EQ(out.size(), ref.size());
  double err = 0.0;
  double norm = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    err += std::norm(out[i] - ref[i]);
    norm += std::norm(ref[i]);
  }
  return std::sqrt(err / norm);
}

// The conjugate-pair odd-radix butterfly is exact math, so the paper's tile
// axes (and their serve-mix-sized cousins) must stay at double-precision
// round-off against the O(n^2) reference DFT, in both directions.
TEST(Fft1d, OddRadixSizesMatchReferenceToRoundOff) {
  for (const std::size_t n :
       std::vector<std::size_t>{13, 29, 260, 348, 1040, 1392}) {
    const auto x = random_signal(n, 31 * n);
    for (const auto dir : {Direction::kForward, Direction::kInverse}) {
      Plan1d plan(n, dir);
      std::vector<Complex> out(n);
      plan.execute(x.data(), out.data());
      EXPECT_LE(relative_error(out, dft_reference(x, dir)), 2e-15)
          << "n=" << n;
    }
  }
}

// Orderings the heuristic planner never emits: odd composites built only
// from odd radices, including a single radix-27 butterfly.
TEST(Fft1d, WisdomForcedOddCompositesMatchReference) {
  const std::vector<std::vector<int>> orders{{9, 5}, {27}, {25, 3}};
  for (const auto& order : orders) {
    std::size_t n = 1;
    for (const int f : order) n *= static_cast<std::size_t>(f);
    wisdom_clear();
    wisdom_remember(n, Direction::kForward, order);
    Plan1d plan(n, Direction::kForward);
    EXPECT_EQ(plan.factors(), order);
    const auto x = random_signal(n, 17 * n);
    std::vector<Complex> out(n);
    plan.execute(x.data(), out.data());
    EXPECT_LE(relative_error(out, dft_reference(x, Direction::kForward)),
              2e-15)
        << "n=" << n;
  }
  wisdom_clear();
}

TEST(Fft1d, ZeroSizeRejected) {
  EXPECT_THROW(Plan1d(0, Direction::kForward), InvalidArgument);
}

// --- planner rigor -----------------------------------------------------------

TEST(Planner, MeasuredPlansStayCorrect) {
  const std::size_t n = 720;
  const auto x = random_signal(n, 9);
  const auto ref = dft_reference(x, Direction::kForward);
  for (Rigor rigor : {Rigor::kEstimate, Rigor::kMeasure, Rigor::kPatient}) {
    Plan1d plan(n, Direction::kForward, rigor);
    std::vector<Complex> out(n);
    plan.execute(x.data(), out.data());
    EXPECT_LT(max_error(out, ref), 1e-8);
  }
}

TEST(Planner, NextSmoothFindsSevenSmoothSizes) {
  EXPECT_EQ(next_smooth(1392), 1400u);  // 2^3 * 5^2 * 7
  EXPECT_EQ(next_smooth(1040), 1050u);  // 2 * 3 * 5^2 * 7
  EXPECT_EQ(next_smooth(128), 128u);
  EXPECT_EQ(next_smooth(97), 98u);
}

TEST(Planner, IsSmoothMatchesFactorization) {
  EXPECT_TRUE(is_smooth(1392));
  EXPECT_TRUE(is_smooth(1040));
  EXPECT_FALSE(is_smooth(97));
  EXPECT_FALSE(is_smooth(74));  // 2 * 37
  EXPECT_TRUE(is_smooth(1));
}

// --- real transforms ---------------------------------------------------------

class RealFftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RealFftSizes, HalfSpectrumMatchesComplexTransform) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.next_double() - 0.5;
  PlanR2c1d r2c(n);
  std::vector<Complex> half(r2c.spectrum_size());
  r2c.execute(x.data(), half.data());

  std::vector<Complex> xc(n);
  for (std::size_t i = 0; i < n; ++i) xc[i] = Complex(x[i], 0.0);
  const auto ref = dft_reference(xc, Direction::kForward);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    EXPECT_LT(std::abs(half[k] - ref[k]), 1e-9) << "k=" << k;
  }
}

TEST_P(RealFftSizes, RoundTripScalesByN) {
  const std::size_t n = GetParam();
  Rng rng(2 * n);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.next_double();
  PlanR2c1d r2c(n);
  PlanC2r1d c2r(n);
  std::vector<Complex> half(r2c.spectrum_size());
  std::vector<double> back(n);
  r2c.execute(x.data(), half.data());
  c2r.execute(half.data(), back.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i] / static_cast<double>(n), x[i], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(EvenSizes, RealFftSizes,
                         ::testing::Values(2, 4, 6, 8, 16, 30, 64, 100, 174,
                                           256, 1040));

// Odd lengths take the full-complex fallback instead of even/odd packing;
// 29 divides 1392, and 1391/1041 are the odd neighbours of the paper's
// 1392x1040 tile extents (1391 = 13*107 exercises Bluestein factors).
INSTANTIATE_TEST_SUITE_P(OddSizes, RealFftSizes,
                         ::testing::Values(1, 3, 15, 29, 97, 1041, 1391));

TEST(RealFft, OddAndEvenPlansReportPackingChoice) {
  EXPECT_TRUE(PlanR2c1d(16).uses_packing());
  EXPECT_TRUE(PlanC2r1d(16).uses_packing());
  EXPECT_FALSE(PlanR2c1d(15).uses_packing());
  EXPECT_FALSE(PlanC2r1d(29).uses_packing());
  EXPECT_EQ(PlanR2c1d(29).spectrum_size(), 15u);
  EXPECT_EQ(PlanR2c1d(30).spectrum_size(), 16u);
}

TEST(RealFft, TwoForOneMatchesSeparateTransforms) {
  const std::size_t n = 96;
  Rng rng(33);
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.next_double();
    b[i] = rng.next_double();
  }
  Plan1d fwd(n, Direction::kForward);
  std::vector<Complex> sa(n), sb(n);
  fft_two_reals(fwd, a.data(), b.data(), sa.data(), sb.data());

  std::vector<Complex> ac(n), bc(n);
  for (std::size_t i = 0; i < n; ++i) {
    ac[i] = Complex(a[i], 0.0);
    bc[i] = Complex(b[i], 0.0);
  }
  const auto ra = dft_reference(ac, Direction::kForward);
  const auto rb = dft_reference(bc, Direction::kForward);
  EXPECT_LT(max_error(sa, ra), 1e-9);
  EXPECT_LT(max_error(sb, rb), 1e-9);
}

// --- 2-D ---------------------------------------------------------------------

struct Shape2d {
  std::size_t h;
  std::size_t w;
};

class Fft2dShapes : public ::testing::TestWithParam<Shape2d> {};

TEST_P(Fft2dShapes, MatchesReference2dDft) {
  const auto [h, w] = GetParam();
  const auto x = random_signal(h * w, h * 1000 + w);
  Plan2d plan(h, w, Direction::kForward);
  std::vector<Complex> out(h * w);
  plan.execute(x.data(), out.data());
  const auto ref = dft_reference_2d(x, h, w, Direction::kForward);
  EXPECT_LT(max_error(out, ref), 1e-8);
}

TEST_P(Fft2dShapes, RoundTripRecoversSignal) {
  const auto [h, w] = GetParam();
  const auto x = random_signal(h * w, h + w);
  Plan2d fwd(h, w, Direction::kForward), inv(h, w, Direction::kInverse);
  std::vector<Complex> spec(h * w), back(h * w);
  fwd.execute(x.data(), spec.data());
  inv.execute(spec.data(), back.data());
  normalize(back.data(), h * w);
  EXPECT_LT(max_error(back, x), 1e-10);
}

TEST_P(Fft2dShapes, InPlaceMatchesOutOfPlace) {
  const auto [h, w] = GetParam();
  const auto x = random_signal(h * w, 3 * h + w);
  Plan2d fwd(h, w, Direction::kForward);
  std::vector<Complex> out(h * w), inplace = x;
  fwd.execute(x.data(), out.data());
  fwd.execute_inplace(inplace.data());
  EXPECT_LT(max_error(out, inplace), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(ShapeSweep, Fft2dShapes,
                         ::testing::Values(Shape2d{1, 8}, Shape2d{8, 1},
                                           Shape2d{4, 4}, Shape2d{8, 16},
                                           Shape2d{13, 29}, Shape2d{15, 21},
                                           Shape2d{29, 24}, Shape2d{32, 48},
                                           Shape2d{65, 52}));

TEST(Fft2d, R2cMatchesComplexHalfSpectrum) {
  const std::size_t h = 24, w = 32;
  Rng rng(77);
  std::vector<double> x(h * w);
  for (auto& v : x) v = rng.next_double();
  PlanR2c2d r2c(h, w);
  std::vector<Complex> half(h * r2c.spectrum_width());
  r2c.execute(x.data(), half.data());

  std::vector<Complex> xc(h * w);
  for (std::size_t i = 0; i < h * w; ++i) xc[i] = Complex(x[i], 0.0);
  const auto ref = dft_reference_2d(xc, h, w, Direction::kForward);
  for (std::size_t r = 0; r < h; ++r) {
    for (std::size_t c = 0; c <= w / 2; ++c) {
      EXPECT_LT(std::abs(half[r * r2c.spectrum_width() + c] - ref[r * w + c]),
                1e-9)
          << r << "," << c;
    }
  }
}

TEST(Fft2d, R2cRoundTripScalesByHw) {
  const std::size_t h = 18, w = 22;
  Rng rng(78);
  std::vector<double> x(h * w);
  for (auto& v : x) v = rng.next_double();
  PlanR2c2d r2c(h, w);
  PlanC2r2d c2r(h, w);
  std::vector<Complex> half(h * r2c.spectrum_width());
  std::vector<double> back(h * w);
  r2c.execute(x.data(), half.data());
  c2r.execute(half.data(), back.data());
  const double scale = static_cast<double>(h * w);
  for (std::size_t i = 0; i < h * w; ++i) {
    EXPECT_NEAR(back[i] / scale, x[i], 1e-9);
  }
}

// Property suite for the 2-D half-spectrum plans across awkward
// factorizations: smooth composites, odd extents (row fallback path),
// primes (Bluestein), degenerate 1xN / Nx1, and thin slabs of the paper's
// 1392/1040 tile extents.
class RealFft2dShapes : public ::testing::TestWithParam<Shape2d> {};

std::vector<double> random_reals(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.next_double() - 0.5;
  return out;
}

TEST_P(RealFft2dShapes, HalfSpectrumMatchesComplexTransform) {
  const auto [h, w] = GetParam();
  const auto x = random_reals(h * w, h * 7919 + w);
  PlanR2c2d r2c(h, w);
  const std::size_t sw = r2c.spectrum_width();
  std::vector<Complex> half(h * sw);
  r2c.execute(x.data(), half.data());

  std::vector<Complex> xc(h * w);
  for (std::size_t i = 0; i < h * w; ++i) xc[i] = Complex(x[i], 0.0);
  Plan2d full(h, w, Direction::kForward);
  std::vector<Complex> ref(h * w);
  full.execute(xc.data(), ref.data());
  for (std::size_t r = 0; r < h; ++r) {
    for (std::size_t c = 0; c < sw; ++c) {
      EXPECT_LT(std::abs(half[r * sw + c] - ref[r * w + c]),
                1e-9 * static_cast<double>(h + w) + 1e-10)
          << r << "," << c;
    }
  }
}

TEST_P(RealFft2dShapes, RoundTripScalesByHw) {
  const auto [h, w] = GetParam();
  const auto x = random_reals(h * w, h * 31 + w);
  PlanR2c2d r2c(h, w);
  PlanC2r2d c2r(h, w);
  std::vector<Complex> half(h * r2c.spectrum_width());
  std::vector<double> back(h * w);
  r2c.execute(x.data(), half.data());
  c2r.execute(half.data(), back.data());
  const double scale = static_cast<double>(h * w);
  for (std::size_t i = 0; i < h * w; ++i) {
    EXPECT_NEAR(back[i] / scale, x[i], 1e-9);
  }
}

TEST_P(RealFft2dShapes, ParsevalHoldsOnHalfSpectrum) {
  // Interior retained columns stand in for their Hermitian mirrors, so they
  // count twice; column 0 (and w/2 when w is even) are self-conjugate.
  const auto [h, w] = GetParam();
  const auto x = random_reals(h * w, h * 131 + w);
  PlanR2c2d r2c(h, w);
  const std::size_t sw = r2c.spectrum_width();
  std::vector<Complex> half(h * sw);
  r2c.execute(x.data(), half.data());
  double time_energy = 0.0;
  for (const double v : x) time_energy += v * v;
  double freq_energy = 0.0;
  for (std::size_t r = 0; r < h; ++r) {
    for (std::size_t c = 0; c < sw; ++c) {
      const bool self = c == 0 || (w % 2 == 0 && c == w / 2);
      freq_energy += (self ? 1.0 : 2.0) * std::norm(half[r * sw + c]);
    }
  }
  const double expected = time_energy * static_cast<double>(h * w);
  EXPECT_NEAR(freq_energy, expected, 1e-8 * expected + 1e-10);
}

TEST_P(RealFft2dShapes, InPlacePaddedMatchesOutOfPlace) {
  // FFTW-style padded layout: row r's reals live at double offset r*2*sw.
  const auto [h, w] = GetParam();
  const auto x = random_reals(h * w, h * 997 + w);
  PlanR2c2d r2c(h, w);
  const std::size_t sw = r2c.spectrum_width();
  std::vector<Complex> buf(h * sw);
  double* reals = reinterpret_cast<double*>(buf.data());
  for (std::size_t r = 0; r < h; ++r) {
    for (std::size_t c = 0; c < w; ++c) reals[r * 2 * sw + c] = x[r * w + c];
  }
  r2c.execute_inplace_padded(buf.data());

  std::vector<Complex> ref(h * sw);
  r2c.execute(x.data(), ref.data());
  EXPECT_LT(max_error(buf, ref), 1e-12 * static_cast<double>(h + w) + 1e-13);

  // Inverse in place: output is packed h*w doubles at the buffer front.
  PlanC2r2d c2r(h, w);
  c2r.execute_inplace_half(buf.data());
  const double* back = reinterpret_cast<const double*>(buf.data());
  const double scale = static_cast<double>(h * w);
  for (std::size_t i = 0; i < h * w; ++i) {
    EXPECT_NEAR(back[i] / scale, x[i], 1e-9);
  }
}

TEST_P(RealFft2dShapes, TwoForOneMatchesSeparateTransforms) {
  const auto [h, w] = GetParam();
  const auto a = random_reals(h * w, h * 11 + w);
  const auto b = random_reals(h * w, h * 13 + w);
  Plan2d fwd(h, w, Direction::kForward);
  std::vector<Complex> sa(h * w), sb(h * w);
  fft_two_reals_2d(fwd, a.data(), b.data(), sa.data(), sb.data());

  std::vector<Complex> ac(h * w), bc(h * w);
  for (std::size_t i = 0; i < h * w; ++i) {
    ac[i] = Complex(a[i], 0.0);
    bc[i] = Complex(b[i], 0.0);
  }
  std::vector<Complex> ra(h * w), rb(h * w);
  fwd.execute(ac.data(), ra.data());
  fwd.execute(bc.data(), rb.data());
  EXPECT_LT(max_error(sa, ra), 1e-9 * static_cast<double>(h + w) + 1e-10);
  EXPECT_LT(max_error(sb, rb), 1e-9 * static_cast<double>(h + w) + 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, RealFft2dShapes,
    ::testing::Values(Shape2d{1, 8}, Shape2d{8, 1}, Shape2d{4, 4},
                      Shape2d{13, 29}, Shape2d{15, 21}, Shape2d{29, 24},
                      Shape2d{32, 48}, Shape2d{7, 97}, Shape2d{97, 6},
                      Shape2d{6, 1392}, Shape2d{6, 1040}));

TEST(Transpose, RoundTripIsIdentity) {
  const std::size_t rows = 37, cols = 53;
  const auto x = random_signal(rows * cols, 31);
  std::vector<Complex> t(rows * cols), back(rows * cols);
  transpose(x.data(), t.data(), rows, cols);
  transpose(t.data(), back.data(), cols, rows);
  EXPECT_LT(max_error(back, x), 0.0 + 1e-15);
  // Spot-check the actual transposition.
  EXPECT_EQ(t[5 * rows + 7], x[7 * cols + 5]);
}

// --- plan cache --------------------------------------------------------------

TEST(PlanCache, ReturnsSameInstanceForSameKey) {
  PlanCache cache;
  auto a = cache.plan_2d(16, 24, Direction::kForward);
  auto b = cache.plan_2d(16, 24, Direction::kForward);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, DistinctKeysDistinctPlans) {
  PlanCache cache;
  auto a = cache.plan_2d(16, 24, Direction::kForward);
  auto b = cache.plan_2d(16, 24, Direction::kInverse);
  auto c = cache.plan_2d(24, 16, Direction::kForward);
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 3u);
}

TEST(PlanCache, ClearEmptiesButPlansSurvive) {
  PlanCache cache;
  auto plan = cache.plan_1d(64, Direction::kForward);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  // shared_ptr keeps the plan alive past clear().
  std::vector<Complex> x(64, Complex(1.0, 0.0)), out(64);
  plan->execute(x.data(), out.data());
  EXPECT_NEAR(out[0].real(), 64.0, 1e-9);
}

TEST(Stats, CountersTrackExecutions) {
  reset_stats();
  Plan1d plan(32, Direction::kForward);
  std::vector<Complex> x(32, Complex(1.0, 0.0)), out(32);
  plan.execute(x.data(), out.data());
  plan.execute(x.data(), out.data());
  EXPECT_EQ(stats().transforms_1d, 2u);
  Plan2d plan2(8, 8, Direction::kForward);
  std::vector<Complex> y(64, Complex(1.0, 0.0)), out2(64);
  plan2.execute(y.data(), out2.data());
  EXPECT_EQ(stats().transforms_2d, 1u);
  reset_stats();
  EXPECT_EQ(stats().transforms_1d, 0u);
}

}  // namespace
}  // namespace hs::fft
