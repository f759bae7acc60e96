#include "vgpu/vfft.hpp"

#include "fft/plan_cache.hpp"

namespace hs::vgpu {

namespace {

/// The device's FFT lock rule: Fermi serializes FFT kernels on fft_mutex;
/// Kepler/Hyper-Q lets kernels on different streams overlap.
template <typename Transform>
void under_fft_rule(Device& device, const Transform& transform) {
  if (device.config().concurrent_fft_kernels) {
    transform();
    return;
  }
  std::lock_guard<std::mutex> lock(device.fft_mutex());
  transform();
}

}  // namespace

VFftPlan2d::VFftPlan2d(Device& device, std::size_t height, std::size_t width,
                       fft::Direction dir, fft::Rigor rigor)
    : device_(&device),
      plan_(fft::PlanCache::instance().plan_2d(height, width, dir, rigor)) {}

void VFftPlan2d::execute_inplace(fft::Complex* data) const {
  under_fft_rule(*device_, [&] { plan_->execute_inplace(data); });
}

VFftPlanR2c2d::VFftPlanR2c2d(Device& device, std::size_t height,
                             std::size_t width, fft::Rigor rigor)
    : device_(&device),
      plan_(fft::PlanCache::instance().plan_r2c_2d(height, width, rigor)) {}

void VFftPlanR2c2d::execute_inplace_padded(fft::Complex* data) const {
  under_fft_rule(*device_, [&] { plan_->execute_inplace_padded(data); });
}

VFftPlanC2r2d::VFftPlanC2r2d(Device& device, std::size_t height,
                             std::size_t width, fft::Rigor rigor)
    : device_(&device),
      plan_(fft::PlanCache::instance().plan_c2r_2d(height, width, rigor)) {}

void VFftPlanC2r2d::execute_inplace_half(fft::Complex* data) const {
  under_fft_rule(*device_, [&] { plan_->execute_inplace_half(data); });
}

}  // namespace hs::vgpu
