// Cross-tier SIMD codelet tests: the contract is that --kernel-dispatch
// changes wall-clock time and NOTHING else. Every vectorized variant (SSE2,
// AVX2) must be bit-identical to its scalar reference — same per-element
// arithmetic, same strictly-greater reductions, same lowest-index tie
// breaks — at every extent, including awkward sizes that leave scalar
// tails, unaligned surfaces, zero-magnitude inputs, and exact ties.
//
// On a scalar-only host the forced tiers clamp to scalar and every
// comparison trivially holds, so this suite passes (vacuously) everywhere.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "fft/codelets.hpp"
#include "fft/plan1d.hpp"
#include "fft/plan2d.hpp"
#include "fft/plan_cache.hpp"
#include "fft/real.hpp"
#include "fft/types.hpp"
#include "fft/wisdom.hpp"
#include "metrics/wellknown.hpp"
#include "stitch/request.hpp"
#include "stitch/stitcher.hpp"
#include "testing_providers.hpp"
#include "vgpu/kernels.hpp"

namespace hs {
namespace {

using common::KernelDispatch;
using common::ScopedKernelDispatch;
using common::SimdTier;
using fft::Complex;
using fft::Direction;

// Tiers to force in the identity sweeps. Anything wider than the CPU
// supports clamps to detected_tier(), making the comparison scalar-vs-
// scalar — still a valid (if vacuous) run of the test body.
const KernelDispatch kForcedTiers[] = {
    KernelDispatch::kScalar, KernelDispatch::kSse2, KernelDispatch::kAvx2,
    KernelDispatch::kAuto};

// Awkward extents: below one vector, exactly one vector, vector + tail,
// the paper-adjacent odd sizes (29 | 1392, 1041 = 3 * 347, 1391 = 13 * 107),
// and smooth powers of two.
const std::size_t kExtents[] = {1, 2, 3, 4, 5, 7, 8, 29, 240, 256, 257, 1041,
                                1391};

std::vector<Complex> random_spectrum(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> out(n);
  for (auto& v : out) v = Complex(rng.normal(), rng.normal());
  return out;
}

std::vector<std::uint16_t> random_pixels(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint16_t> out(n);
  for (auto& v : out) {
    v = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  }
  return out;
}

// --- dispatch control units ----------------------------------------------

TEST(SimdDispatch, ParseRoundTripsTheVocabulary) {
  for (const auto d : kForcedTiers) {
    EXPECT_EQ(common::parse_dispatch(common::dispatch_name(d)), d);
  }
  EXPECT_EQ(common::parse_dispatch("auto"), KernelDispatch::kAuto);
  EXPECT_EQ(common::parse_dispatch("scalar"), KernelDispatch::kScalar);
  EXPECT_EQ(common::parse_dispatch("sse2"), KernelDispatch::kSse2);
  EXPECT_EQ(common::parse_dispatch("avx2"), KernelDispatch::kAvx2);
}

TEST(SimdDispatch, ParseRejectsEverythingElse) {
  for (const char* bad : {"", "AVX2", "sse", "avx512", "fastest", "0"}) {
    EXPECT_THROW(common::parse_dispatch(bad), InvalidArgument) << bad;
  }
}

TEST(SimdDispatch, ResolveClampsToDetectedCapabilities) {
  const SimdTier detected = common::detected_tier();
  EXPECT_EQ(common::resolve_dispatch(KernelDispatch::kAuto), detected);
  EXPECT_EQ(common::resolve_dispatch(KernelDispatch::kScalar),
            SimdTier::kScalar);
  // Forcing can only narrow, never widen past the CPU.
  EXPECT_LE(static_cast<int>(common::resolve_dispatch(KernelDispatch::kAvx2)),
            static_cast<int>(detected));
  EXPECT_LE(static_cast<int>(common::resolve_dispatch(KernelDispatch::kSse2)),
            static_cast<int>(detected));
}

TEST(SimdDispatch, ScopedGuardForcesAndRestores) {
  const KernelDispatch before = common::forced_tier();
  {
    ScopedKernelDispatch forced(KernelDispatch::kScalar);
    EXPECT_EQ(common::active_tier(), SimdTier::kScalar);
  }
  EXPECT_EQ(common::forced_tier(), before);
}

TEST(SimdDispatch, GaugeTracksTheDispatchedTier) {
  // Exercise the ncc family under a forced scalar tier, then under auto;
  // the info gauge must read 1 exactly on the tier last dispatched to.
  const auto a = random_spectrum(64, 1);
  const auto b = random_spectrum(64, 2);
  std::vector<Complex> out(64);
  {
    ScopedKernelDispatch forced(KernelDispatch::kScalar);
    vgpu::k_ncc(a.data(), b.data(), out.data(), 64);
  }
  EXPECT_EQ(metrics::wellknown::kernel_dispatch("ncc", "scalar").value(), 1);
  const char* active = nullptr;
  {
    // kAuto overrides any HS_KERNEL_DISPATCH forcing for the scope, so the
    // tier actually dispatched to is the one active INSIDE the guard.
    ScopedKernelDispatch forced(KernelDispatch::kAuto);
    vgpu::k_ncc(a.data(), b.data(), out.data(), 64);
    active = common::tier_name(common::active_tier());
  }
  EXPECT_EQ(metrics::wellknown::kernel_dispatch("ncc", active).value(), 1);
  for (const char* tier : metrics::wellknown::kSimdTiers) {
    if (std::string(tier) != active) {
      EXPECT_EQ(metrics::wellknown::kernel_dispatch("ncc", tier).value(), 0)
          << tier;
    }
  }
}

// --- kernel bit-identity --------------------------------------------------

TEST(SimdKernels, NccMatchesScalarAtEveryExtentAndTier) {
  for (const std::size_t n : kExtents) {
    auto a = random_spectrum(n, n);
    auto b = random_spectrum(n, n + 1);
    if (n >= 3) {
      a[n / 2] = Complex(0.0, 0.0);  // zero-magnitude product -> 0 branch
      b[n / 3] = Complex(0.0, 0.0);
    }
    std::vector<Complex> expect(n);
    vgpu::k_ncc_scalar(a.data(), b.data(), expect.data(), n);
    for (const auto tier : kForcedTiers) {
      ScopedKernelDispatch forced(tier);
      std::vector<Complex> got(n, Complex(42.0, 42.0));
      vgpu::k_ncc(a.data(), b.data(), got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(expect[i].real(), got[i].real())
            << "n=" << n << " i=" << i << " " << common::dispatch_name(tier);
        EXPECT_EQ(expect[i].imag(), got[i].imag())
            << "n=" << n << " i=" << i << " " << common::dispatch_name(tier);
      }
    }
  }
}

TEST(SimdKernels, NccMatchesScalarOnUnalignedSurfaces) {
  // data() + 1 shifts every pointer off 16/32-byte alignment; the variants
  // use unaligned loads/stores so results must not change.
  const std::size_t n = 1041;
  const auto a = random_spectrum(n + 1, 3);
  const auto b = random_spectrum(n + 1, 4);
  std::vector<Complex> expect(n + 1), got(n + 1);
  vgpu::k_ncc_scalar(a.data() + 1, b.data() + 1, expect.data() + 1, n);
  for (const auto tier : kForcedTiers) {
    ScopedKernelDispatch forced(tier);
    vgpu::k_ncc(a.data() + 1, b.data() + 1, got.data() + 1, n);
    for (std::size_t i = 1; i <= n; ++i) {
      EXPECT_EQ(expect[i].real(), got[i].real()) << i;
      EXPECT_EQ(expect[i].imag(), got[i].imag()) << i;
    }
  }
}

TEST(SimdKernels, MaxAbsMatchesScalarIncludingTies) {
  for (const std::size_t n : kExtents) {
    auto data = random_spectrum(n, n ^ 0x5a5a);
    if (n >= 8) {
      // Exact duplicated maxima straddling different lanes and iterations:
      // the winner must be the lowest index under every tier.
      const Complex big(1e6, -1e6);
      data[1] = big;
      data[5] = big;
      data[n - 1] = big;
    }
    const auto expect = vgpu::k_max_abs_scalar(data.data(), n);
    for (const auto tier : kForcedTiers) {
      ScopedKernelDispatch forced(tier);
      const auto got = vgpu::k_max_abs(data.data(), n);
      EXPECT_EQ(expect.value, got.value)
          << "n=" << n << " " << common::dispatch_name(tier);
      EXPECT_EQ(expect.index, got.index)
          << "n=" << n << " " << common::dispatch_name(tier);
    }
  }
}

TEST(SimdKernels, MaxAbsRealMatchesScalarIncludingTies) {
  for (const std::size_t n : kExtents) {
    Rng rng(n ^ 0xfeed);
    std::vector<double> data(n);
    for (auto& v : data) v = rng.normal();
    if (n >= 8) {
      data[2] = -7e5;  // |x| ties across sign
      data[6] = 7e5;
      data[n - 1] = 7e5;
    }
    const auto expect = vgpu::k_max_abs_real_scalar(data.data(), n);
    for (const auto tier : kForcedTiers) {
      ScopedKernelDispatch forced(tier);
      const auto got = vgpu::k_max_abs_real(data.data(), n);
      EXPECT_EQ(expect.value, got.value)
          << "n=" << n << " " << common::dispatch_name(tier);
      EXPECT_EQ(expect.index, got.index)
          << "n=" << n << " " << common::dispatch_name(tier);
    }
  }
}

TEST(SimdKernels, TopkWithKOneMatchesMaxAbsExactly) {
  // The k == 1 fast path must keep the insertion loop's tie semantics.
  const std::size_t n = 257;
  auto data = random_spectrum(n, 9);
  data[3] = Complex(5e5, 0.0);
  data[200] = Complex(5e5, 0.0);
  Rng rng(10);
  std::vector<double> real_data(n);
  for (auto& v : real_data) v = rng.normal();
  real_data[4] = -9e5;
  real_data[99] = 9e5;
  for (const auto tier : kForcedTiers) {
    ScopedKernelDispatch forced(tier);
    const auto one = vgpu::k_max_abs_topk(data.data(), n, 1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].value, vgpu::k_max_abs(data.data(), n).value);
    EXPECT_EQ(one[0].index, vgpu::k_max_abs(data.data(), n).index);
    const auto one_real = vgpu::k_max_abs_topk_real(real_data.data(), n, 1);
    ASSERT_EQ(one_real.size(), 1u);
    EXPECT_EQ(one_real[0].value,
              vgpu::k_max_abs_real(real_data.data(), n).value);
    EXPECT_EQ(one_real[0].index,
              vgpu::k_max_abs_real(real_data.data(), n).index);
  }
  EXPECT_TRUE(vgpu::k_max_abs_topk(data.data(), 0, 1).empty());
}

TEST(SimdKernels, PixelWideningMatchesScalarAtEveryExtentAndTier) {
  for (const std::size_t n : kExtents) {
    const auto pixels = random_pixels(n + 1, n);  // +1 for the offset runs
    std::vector<double> expect_real(n), got_real(n);
    std::vector<Complex> expect_cplx(n), got_cplx(n);
    vgpu::k_u16_to_real_scalar(pixels.data(), expect_real.data(), n);
    vgpu::k_u16_to_complex_scalar(pixels.data(), expect_cplx.data(), n);
    for (const auto tier : kForcedTiers) {
      ScopedKernelDispatch forced(tier);
      vgpu::k_u16_to_real(pixels.data(), got_real.data(), n);
      vgpu::k_u16_to_complex(pixels.data(), got_cplx.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(expect_real[i], got_real[i]) << "n=" << n << " i=" << i;
        EXPECT_EQ(expect_cplx[i].real(), got_cplx[i].real()) << i;
        EXPECT_EQ(expect_cplx[i].imag(), got_cplx[i].imag()) << i;
      }
      // Unaligned source: u16 loads start mid-vector.
      if (n >= 2) {
        vgpu::k_u16_to_real(pixels.data() + 1, got_real.data(), n - 1);
        for (std::size_t i = 0; i < n - 1; ++i) {
          EXPECT_EQ(static_cast<double>(pixels[i + 1]), got_real[i]);
        }
      }
    }
  }
}

TEST(SimdKernels, PaddedWideningMatchesRowByRowReference) {
  const std::size_t h = 29, w = 37;  // odd width: padded rows, scalar tails
  const auto pixels = random_pixels(h * w, 77);
  const std::size_t sw = w / 2 + 1;
  for (const auto tier : kForcedTiers) {
    ScopedKernelDispatch forced(tier);
    std::vector<Complex> padded(h * sw, Complex(-1.0, -1.0));
    vgpu::k_u16_to_real_padded(pixels.data(), padded.data(), h, w);
    for (std::size_t r = 0; r < h; ++r) {
      const double* row = reinterpret_cast<const double*>(padded.data()) +
                          r * 2 * sw;
      for (std::size_t c = 0; c < w; ++c) {
        EXPECT_EQ(static_cast<double>(pixels[r * w + c]), row[c])
            << "r=" << r << " c=" << c;
      }
    }
  }
}

// --- FFT codelet and plan bit-identity ------------------------------------

// Every tier's odd-radix butterfly against the scalar reference, for every
// odd radix the planner can emit. m = 1 takes the AVX2 output-pair path
// (odd and even h), m = 2 and 4 the column-pair loop, m = 3 and 5 add the
// odd-m tail. Twiddles are random: the codelet contract is arithmetic, not
// the plan's particular tables.
TEST(SimdFft, OddRadixButterflyBitIdenticalAcrossTiers) {
  using fft::codelets::Set;
  // Only tiers this CPU can execute; wider ones run scalar-vs-scalar.
  std::vector<const Set*> tiers;
  for (const SimdTier tier : {SimdTier::kSse2, SimdTier::kAvx2}) {
    if (tier <= common::detected_tier()) {
      tiers.push_back(&fft::codelets::set_for(tier));
    }
  }
  for (int r = 3; r <= fft::kMaxDirectRadix; r += 2) {
    for (const auto dir : {Direction::kForward, Direction::kInverse}) {
      const std::vector<double> wr = fft::codelets::odd_radix_table(r, dir);
      for (std::size_t m = 1; m <= 5; ++m) {
        const std::size_t n = static_cast<std::size_t>(r) * m;
        const auto data = random_spectrum(n, 1000 * r + m);
        const auto tw = random_spectrum(n, 7000 * r + m);
        std::vector<Complex> expect = data;
        fft::codelets::scalar_set().bfr(expect.data(), tw.data(), wr.data(),
                                        r, m);
        for (const Set* set : tiers) {
          std::vector<Complex> got = data;
          set->bfr(got.data(), tw.data(), wr.data(), r, m);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(expect[i].real(), got[i].real())
                << "r=" << r << " m=" << m << " i=" << i << " tier "
                << common::tier_name(set->tier);
            ASSERT_EQ(expect[i].imag(), got[i].imag())
                << "r=" << r << " m=" << m << " i=" << i << " tier "
                << common::tier_name(set->tier);
          }
        }
      }
    }
  }
}

TEST(SimdFft, Plan1dBitIdenticalAcrossTiers) {
  for (const std::size_t n :
       {std::size_t{29}, std::size_t{240}, std::size_t{256}, std::size_t{260},
        std::size_t{348}, std::size_t{1040}, std::size_t{1041},
        std::size_t{1391}, std::size_t{1392}, std::size_t{1400}}) {
    const auto x = random_spectrum(n, n);
    for (const auto dir : {Direction::kForward, Direction::kInverse}) {
      std::vector<Complex> expect(n);
      {
        ScopedKernelDispatch forced(KernelDispatch::kScalar);
        fft::Plan1d plan(n, dir);
        EXPECT_EQ(plan.simd_tier(), SimdTier::kScalar);
        plan.execute(x.data(), expect.data());
      }
      for (const auto tier : kForcedTiers) {
        ScopedKernelDispatch forced(tier);
        fft::Plan1d plan(n, dir);
        std::vector<Complex> got(n);
        plan.execute(x.data(), got.data());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(expect[i].real(), got[i].real())
              << "n=" << n << " i=" << i << " " << common::dispatch_name(tier);
          EXPECT_EQ(expect[i].imag(), got[i].imag())
              << "n=" << n << " i=" << i << " " << common::dispatch_name(tier);
        }
      }
    }
  }
}

TEST(SimdFft, Plan2dBitIdenticalAcrossTiers) {
  const std::size_t h = 26, w = 58;  // 58 = 2 * 29: transpose + odd radix
  const auto x = random_spectrum(h * w, 123);
  std::vector<Complex> expect(h * w);
  {
    ScopedKernelDispatch forced(KernelDispatch::kScalar);
    fft::Plan2d plan(h, w, Direction::kForward);
    plan.execute(x.data(), expect.data());
  }
  for (const auto tier : kForcedTiers) {
    ScopedKernelDispatch forced(tier);
    fft::Plan2d plan(h, w, Direction::kForward);
    std::vector<Complex> got(h * w);
    plan.execute(x.data(), got.data());
    for (std::size_t i = 0; i < h * w; ++i) {
      EXPECT_EQ(expect[i].real(), got[i].real()) << i;
      EXPECT_EQ(expect[i].imag(), got[i].imag()) << i;
    }
  }
}

// The serve-mix tile geometry, whose axes are 2^2*5*13 and 2^2*3*29: both
// large odd radices land at the m = 1 leaf. Complex and r2c/c2r modes.
TEST(SimdFft, TileGeometry260x348BitIdenticalAcrossTiersInBothModes) {
  const std::size_t h = 260, w = 348, sw = w / 2 + 1;
  Rng rng(260348);
  std::vector<double> x(h * w);
  for (auto& v : x) v = rng.normal();
  std::vector<Complex> xc(x.begin(), x.end());
  std::vector<Complex> expect_full(h * w), expect_half(h * sw);
  std::vector<double> expect_back(h * w);
  {
    ScopedKernelDispatch forced(KernelDispatch::kScalar);
    fft::Plan2d(h, w, Direction::kForward)
        .execute(xc.data(), expect_full.data());
    fft::PlanR2c2d(h, w).execute(x.data(), expect_half.data());
    fft::PlanC2r2d(h, w).execute(expect_half.data(), expect_back.data());
  }
  for (const auto tier : kForcedTiers) {
    ScopedKernelDispatch forced(tier);
    std::vector<Complex> full(h * w), half(h * sw);
    std::vector<double> back(h * w);
    fft::Plan2d(h, w, Direction::kForward).execute(xc.data(), full.data());
    fft::PlanR2c2d(h, w).execute(x.data(), half.data());
    fft::PlanC2r2d(h, w).execute(half.data(), back.data());
    const char* name = common::dispatch_name(tier);
    for (std::size_t i = 0; i < full.size(); ++i) {
      ASSERT_EQ(expect_full[i].real(), full[i].real()) << name << " i=" << i;
      ASSERT_EQ(expect_full[i].imag(), full[i].imag()) << name << " i=" << i;
    }
    for (std::size_t i = 0; i < half.size(); ++i) {
      ASSERT_EQ(expect_half[i].real(), half[i].real()) << name << " i=" << i;
      ASSERT_EQ(expect_half[i].imag(), half[i].imag()) << name << " i=" << i;
    }
    for (std::size_t i = 0; i < back.size(); ++i) {
      ASSERT_EQ(expect_back[i], back[i]) << name << " i=" << i;
    }
  }
}

TEST(SimdFft, RealTransformsBitIdenticalAcrossTiers) {
  for (const auto& [h, w] : {std::pair<std::size_t, std::size_t>{26, 34},
                            {29, 37},   // odd width: untangle fallback
                            {30, 58}}) {
    Rng rng(h * 100 + w);
    std::vector<double> x(h * w);
    for (auto& v : x) v = rng.normal();
    const std::size_t sw = w / 2 + 1;
    std::vector<Complex> expect_half(h * sw);
    std::vector<double> expect_back(h * w);
    {
      ScopedKernelDispatch forced(KernelDispatch::kScalar);
      fft::PlanR2c2d r2c(h, w);
      fft::PlanC2r2d c2r(h, w);
      r2c.execute(x.data(), expect_half.data());
      c2r.execute(expect_half.data(), expect_back.data());
    }
    for (const auto tier : kForcedTiers) {
      ScopedKernelDispatch forced(tier);
      fft::PlanR2c2d r2c(h, w);
      fft::PlanC2r2d c2r(h, w);
      std::vector<Complex> half(h * sw);
      std::vector<double> back(h * w);
      r2c.execute(x.data(), half.data());
      for (std::size_t i = 0; i < half.size(); ++i) {
        EXPECT_EQ(expect_half[i].real(), half[i].real())
            << h << "x" << w << " i=" << i;
        EXPECT_EQ(expect_half[i].imag(), half[i].imag())
            << h << "x" << w << " i=" << i;
      }
      c2r.execute(half.data(), back.data());
      for (std::size_t i = 0; i < back.size(); ++i) {
        EXPECT_EQ(expect_back[i], back[i]) << h << "x" << w << " i=" << i;
      }
    }
  }
}

// --- wisdom & plan cache --------------------------------------------------

TEST(SimdWisdom, RememberedTierRoundTripsThroughTheFile) {
  fft::wisdom_clear();
  fft::wisdom_remember(240, Direction::kForward, {5, 3, 4, 4},
                       SimdTier::kScalar);
  fft::wisdom_remember(240, Direction::kInverse, {5, 3, 4, 4});  // unspecified
  const std::string path = "simd_wisdom_" + std::to_string(getpid()) + ".txt";
  fft::wisdom_save(path);
  fft::wisdom_clear();
  fft::wisdom_load(path);
  std::filesystem::remove(path);
  const auto fwd = fft::wisdom_lookup_entry(240, Direction::kForward);
  ASSERT_TRUE(fwd.has_value());
  EXPECT_EQ(fwd->tier, static_cast<int>(SimdTier::kScalar));
  EXPECT_EQ(fwd->factors, (std::vector<int>{5, 3, 4, 4}));
  const auto inv = fft::wisdom_lookup_entry(240, Direction::kInverse);
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(inv->tier, fft::kTierUnspecified);
  fft::wisdom_clear();
}

TEST(SimdWisdom, MeasuredPlanningRecordsTheWinningTier) {
  fft::wisdom_clear();
  fft::Plan1d plan(48, Direction::kForward, fft::Rigor::kMeasure);
  const auto entry = fft::wisdom_lookup_entry(48, Direction::kForward);
  ASSERT_TRUE(entry.has_value());
  ASSERT_NE(entry->tier, fft::kTierUnspecified);
  EXPECT_EQ(entry->tier, static_cast<int>(plan.simd_tier()));
  // The recorded tier can never exceed what this CPU supports.
  EXPECT_LE(entry->tier, static_cast<int>(common::detected_tier()));
  fft::wisdom_clear();
}

TEST(SimdPlanCache, ForcedTierJoinsTheCacheKey) {
  // The same geometry under different forced tiers must yield different
  // plans (a scalar-planned codelet set must not be re-executed by an auto
  // caller); repeated lookups under one tier must hit.
  auto& cache = fft::PlanCache::instance();
  cache.clear();
  std::shared_ptr<const fft::Plan1d> scalar_plan, auto_plan;
  {
    ScopedKernelDispatch forced(KernelDispatch::kScalar);
    scalar_plan = cache.plan_1d(64, Direction::kForward);
    EXPECT_EQ(cache.plan_1d(64, Direction::kForward), scalar_plan);
    EXPECT_EQ(scalar_plan->simd_tier(), SimdTier::kScalar);
  }
  {
    ScopedKernelDispatch forced(KernelDispatch::kAuto);
    auto_plan = cache.plan_1d(64, Direction::kForward);
    EXPECT_EQ(auto_plan->simd_tier(), common::active_tier());
  }
  if (common::detected_tier() != SimdTier::kScalar) {
    EXPECT_NE(scalar_plan, auto_plan);
  }
  cache.clear();
}

// --- option plumbing ------------------------------------------------------

TEST(SimdOptions, OldKernelDispatchRecordReplaysWithoutForcingTier) {
  // Records journaled while the tier was a per-job option carry an
  // o.kernel_dispatch line. Unknown keys are ignored, so such a record
  // still replays, and the job no longer forces the process tier.
  const auto grid = testing::make_grid(2, 2);
  stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);
  stitch::StitchRequest request;
  request.backend = stitch::Backend::kSimpleCpu;
  request.options = testing::fast_options();
  ScopedKernelDispatch process_tier(KernelDispatch::kAuto);
  for (const char* old : {"scalar", "sse2", "warp9"}) {
    stitch::StitchRequest replayed = stitch::deserialize_request(
        stitch::serialize_request(request) + "o.kernel_dispatch=" + old +
        "\n");
    replayed.provider = &provider;
    const auto result = stitch::stitch(replayed);
    EXPECT_EQ(testing::truth_accuracy(grid, result.table), 1.0) << old;
    EXPECT_EQ(common::forced_tier(), KernelDispatch::kAuto) << old;
    EXPECT_EQ(common::active_tier(), common::detected_tier()) << old;
  }
}

// --- end-to-end: displacement tables are tier-invariant -------------------

class AllBackendsAllTiers
    : public ::testing::TestWithParam<std::tuple<stitch::Backend,
                                                 KernelDispatch>> {};

TEST_P(AllBackendsAllTiers, TableBitIdenticalToScalarReference) {
  const auto [backend, dispatch] = GetParam();
  const auto grid = testing::make_grid(3, 3);
  stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);
  const auto options = testing::fast_options();

  const auto reference = [&] {
    ScopedKernelDispatch forced(KernelDispatch::kScalar);
    return stitch::stitch(stitch::Backend::kSimpleCpu, provider, options);
  }();
  ScopedKernelDispatch forced(dispatch);
  const auto result = stitch::stitch(backend, provider, options);
  EXPECT_TRUE(testing::tables_identical(reference.table, result.table))
      << stitch::backend_name(backend) << " under "
      << common::dispatch_name(dispatch);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsByTier, AllBackendsAllTiers,
    ::testing::Combine(::testing::ValuesIn(stitch::kAllBackends),
                       ::testing::Values(KernelDispatch::kScalar,
                                         KernelDispatch::kSse2,
                                         KernelDispatch::kAvx2,
                                         KernelDispatch::kAuto)),
    [](const auto& param_info) {
      std::string name = stitch::backend_name(std::get<0>(param_info.param)) +
                         std::string("_") +
                         common::dispatch_name(std::get<1>(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';  // gtest names must be alphanumeric
      }
      return name;
    });

}  // namespace
}  // namespace hs
