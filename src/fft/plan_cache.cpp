#include "fft/plan_cache.hpp"

#include <atomic>
#include <map>
#include <mutex>
#include <tuple>

#include "common/simd.hpp"
#include "metrics/wellknown.hpp"

namespace hs::fft {

namespace {

// Cached per-rigor metric handles: hit/miss tracking is one relaxed add.
struct CacheMetrics {
  metrics::Counter& hits;
  metrics::Counter& misses;
  metrics::Histogram& build_us;
};

// Hits by the cached plan's codelet tier: which variants actually re-run.
metrics::Counter& tier_hits(common::SimdTier tier) {
  using metrics::wellknown::plan_cache_tier_hits;
  static metrics::Counter& scalar = plan_cache_tier_hits("scalar");
  static metrics::Counter& sse2 = plan_cache_tier_hits("sse2");
  static metrics::Counter& avx2 = plan_cache_tier_hits("avx2");
  switch (tier) {
    case common::SimdTier::kScalar: return scalar;
    case common::SimdTier::kSse2: return sse2;
    case common::SimdTier::kAvx2: return avx2;
  }
  return scalar;
}

// Keeps the hs_kernel_dispatch info gauges for a family current; the gauge
// write happens only when the tier actually changes.
void note_dispatch(const char* family, std::atomic<int>& last,
                   common::SimdTier tier) {
  const int t = static_cast<int>(tier);
  if (last.exchange(t, std::memory_order_relaxed) != t) {
    metrics::wellknown::note_kernel_dispatch(family, tier);
  }
}

void note_fft_dispatch(common::SimdTier tier) {
  static std::atomic<int> last{-1};
  note_dispatch("fft", last, tier);
}

// The active tier joins every cache key: plans built under a forced narrow
// dispatch must not be served to (or poison) lookups made under a wider one.
int active_tier_key() { return static_cast<int>(common::active_tier()); }

CacheMetrics& cache_metrics(Rigor rigor) {
  using namespace metrics::wellknown;
  static CacheMetrics estimate{plan_cache_hits("estimate"),
                               plan_cache_misses("estimate"),
                               plan_build_us("estimate")};
  static CacheMetrics measure{plan_cache_hits("measure"),
                              plan_cache_misses("measure"),
                              plan_build_us("measure")};
  static CacheMetrics patient{plan_cache_hits("patient"),
                              plan_cache_misses("patient"),
                              plan_build_us("patient")};
  switch (rigor) {
    case Rigor::kEstimate: return estimate;
    case Rigor::kMeasure: return measure;
    case Rigor::kPatient: return patient;
  }
  return estimate;
}

}  // namespace

struct PlanCache::Impl {
  // Trailing int in every key is the active SIMD tier at lookup time.
  using Key1d = std::tuple<std::size_t, int, int, int>;
  using Key2d = std::tuple<std::size_t, std::size_t, int, int, int>;

  // (height, width, rigor, tier); real plans have a fixed direction per type.
  using KeyReal2d = std::tuple<std::size_t, std::size_t, int, int>;

  mutable std::mutex mutex;
  std::map<Key1d, std::shared_ptr<const Plan1d>> plans_1d;
  std::map<Key2d, std::shared_ptr<const Plan2d>> plans_2d;
  std::map<KeyReal2d, std::shared_ptr<const PlanR2c2d>> plans_r2c_2d;
  std::map<KeyReal2d, std::shared_ptr<const PlanC2r2d>> plans_c2r_2d;
};

PlanCache::PlanCache() : impl_(std::make_unique<Impl>()) {}
PlanCache::~PlanCache() = default;

PlanCache& PlanCache::instance() {
  static PlanCache cache;
  return cache;
}

std::shared_ptr<const Plan1d> PlanCache::plan_1d(std::size_t n, Direction dir,
                                                 Rigor rigor) {
  const Impl::Key1d key{n, static_cast<int>(dir), static_cast<int>(rigor),
                        active_tier_key()};
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (auto it = impl_->plans_1d.find(key); it != impl_->plans_1d.end()) {
      cache_metrics(rigor).hits.add();
      tier_hits(it->second->simd_tier()).add();
      return it->second;
    }
  }
  // Plan outside the lock: planning can take milliseconds-to-seconds at high
  // rigor and must not serialize unrelated lookups. A racing thread may plan
  // the same key; the first insert wins and the duplicate is discarded.
  CacheMetrics& m = cache_metrics(rigor);
  m.misses.add();
  std::shared_ptr<const Plan1d> plan;
  {
    HS_METRIC_TIMER(m.build_us);
    plan = std::make_shared<const Plan1d>(n, dir, rigor);
  }
  note_fft_dispatch(plan->simd_tier());
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto [it, inserted] = impl_->plans_1d.emplace(key, std::move(plan));
  return it->second;
}

std::shared_ptr<const Plan2d> PlanCache::plan_2d(std::size_t height,
                                                 std::size_t width,
                                                 Direction dir, Rigor rigor) {
  const Impl::Key2d key{height, width, static_cast<int>(dir),
                        static_cast<int>(rigor), active_tier_key()};
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (auto it = impl_->plans_2d.find(key); it != impl_->plans_2d.end()) {
      cache_metrics(rigor).hits.add();
      tier_hits(it->second->simd_tier()).add();
      return it->second;
    }
  }
  CacheMetrics& m = cache_metrics(rigor);
  m.misses.add();
  std::shared_ptr<const Plan2d> plan;
  {
    HS_METRIC_TIMER(m.build_us);
    plan = std::make_shared<const Plan2d>(height, width, dir, rigor);
  }
  note_fft_dispatch(plan->simd_tier());
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto [it, inserted] = impl_->plans_2d.emplace(key, std::move(plan));
  return it->second;
}

std::shared_ptr<const PlanR2c2d> PlanCache::plan_r2c_2d(std::size_t height,
                                                        std::size_t width,
                                                        Rigor rigor) {
  const Impl::KeyReal2d key{height, width, static_cast<int>(rigor),
                            active_tier_key()};
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (auto it = impl_->plans_r2c_2d.find(key);
        it != impl_->plans_r2c_2d.end()) {
      cache_metrics(rigor).hits.add();
      tier_hits(it->second->simd_tier()).add();
      return it->second;
    }
  }
  CacheMetrics& m = cache_metrics(rigor);
  m.misses.add();
  std::shared_ptr<const PlanR2c2d> plan;
  {
    HS_METRIC_TIMER(m.build_us);
    plan = std::make_shared<const PlanR2c2d>(height, width, rigor);
  }
  note_fft_dispatch(plan->simd_tier());
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto [it, inserted] = impl_->plans_r2c_2d.emplace(key, std::move(plan));
  return it->second;
}

std::shared_ptr<const PlanC2r2d> PlanCache::plan_c2r_2d(std::size_t height,
                                                        std::size_t width,
                                                        Rigor rigor) {
  const Impl::KeyReal2d key{height, width, static_cast<int>(rigor),
                            active_tier_key()};
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (auto it = impl_->plans_c2r_2d.find(key);
        it != impl_->plans_c2r_2d.end()) {
      cache_metrics(rigor).hits.add();
      tier_hits(it->second->simd_tier()).add();
      return it->second;
    }
  }
  CacheMetrics& m = cache_metrics(rigor);
  m.misses.add();
  std::shared_ptr<const PlanC2r2d> plan;
  {
    HS_METRIC_TIMER(m.build_us);
    plan = std::make_shared<const PlanC2r2d>(height, width, rigor);
  }
  note_fft_dispatch(plan->simd_tier());
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto [it, inserted] = impl_->plans_c2r_2d.emplace(key, std::move(plan));
  return it->second;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->plans_1d.clear();
  impl_->plans_2d.clear();
  impl_->plans_r2c_2d.clear();
  impl_->plans_c2r_2d.clear();
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->plans_1d.size() + impl_->plans_2d.size() +
         impl_->plans_r2c_2d.size() + impl_->plans_c2r_2d.size();
}

}  // namespace hs::fft
