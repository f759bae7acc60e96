// Counts global heap allocations around 2-D FFT executes: after one
// warm-up call per thread, Plan2d, PlanR2c2d and PlanC2r2d must execute
// without touching the heap (their scratch comes from the thread-local
// lease arena, which keeps its high-water mark).
//
// Kept in its own binary because it replaces the global operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "fft/plan2d.hpp"

namespace {
std::atomic<long> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace hs::fft {
namespace {

// Runs every 2-D entry point once and returns the allocations it made.
long allocations_per_round(const Plan2d& c2c, const PlanR2c2d& r2c,
                           const PlanC2r2d& c2r, std::vector<Complex>& full,
                           std::vector<Complex>& out,
                           std::vector<Complex>& half,
                           std::vector<double>& reals) {
  const long before = g_allocs.load();
  c2c.execute(full.data(), out.data());
  c2c.execute_inplace(out.data());
  r2c.execute(reals.data(), half.data());
  r2c.execute_inplace_padded(half.data());
  c2r.execute(half.data(), reals.data());
  c2r.execute_inplace_half(half.data());
  return g_allocs.load() - before;
}

TEST(FftAlloc, TwoDimensionalExecutesAllocateNothingAfterWarmUp) {
  // 37 rows take the Bluestein column path; 260 x 348 is the serve-mix tile.
  for (const auto& [h, w] : {std::pair<std::size_t, std::size_t>{260, 348},
                            {37, 29}, {1, 24}, {24, 1}}) {
    const Plan2d c2c(h, w, Direction::kForward);
    const PlanR2c2d r2c(h, w);
    const PlanC2r2d c2r(h, w);
    const auto worker = [&](long* steady) {
      std::vector<Complex> full(h * w, Complex(1.0, 0.5)), out(h * w);
      std::vector<Complex> half(r2c.spectrum_count(), Complex(0.0, 0.0));
      std::vector<double> reals(h * w, 0.25);
      allocations_per_round(c2c, r2c, c2r, full, out, half, reals);
      *steady = allocations_per_round(c2c, r2c, c2r, full, out, half, reals);
    };
    long main_thread = -1;
    worker(&main_thread);
    EXPECT_EQ(main_thread, 0) << h << "x" << w;
    // A fresh thread warms its own arena once, then allocates nothing.
    // (Counts are global, so the threads run one after the other.)
    for (int t = 0; t < 2; ++t) {
      long steady = -1;
      std::thread th(worker, &steady);
      th.join();
      EXPECT_EQ(steady, 0) << h << "x" << w << " thread " << t;
    }
  }
}

}  // namespace
}  // namespace hs::fft
