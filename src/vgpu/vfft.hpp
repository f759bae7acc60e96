// cuFFT-analog: FFT plans executing on virtual-GPU streams.
//
// Mirrors the paper's cuFFT usage: plans are created per tile size, executed
// asynchronously on a stream, and — reproducing the Fermi-era cuFFT register
// pressure restriction the paper calls out — at most one FFT kernel runs on
// a device at a time. That is the lock rule every transform here runs
// under: hold Device::fft_mutex unless the device is configured with
// concurrent_fft_kernels (the Kepler/Hyper-Q model). Each plan's execute_*
// method applies the rule on the calling thread; a stream command — one
// of VFftPlan2d's enqueue_* methods, or a scheduler command issuing one or
// a group of transforms — calls it once per transform.
#pragma once

#include <memory>

#include "fft/plan2d.hpp"
#include "vgpu/stream.hpp"

namespace hs::vgpu {

class VFftPlan2d {
 public:
  /// Plans a height x width transform for `device`.
  VFftPlan2d(Device& device, std::size_t height, std::size_t width,
             fft::Direction dir, fft::Rigor rigor = fft::Rigor::kEstimate);

  /// Enqueues an out-of-place transform of `in` into `out` on `stream`.
  /// Both buffers must hold height*width Complex values and stay alive
  /// until the stream passes this command.
  void enqueue(Stream& stream, const DeviceBuffer& in, DeviceBuffer& out,
               std::string label = "fft2d") const;

  /// Enqueues an in-place transform.
  void enqueue_inplace(Stream& stream, DeviceBuffer& data,
                       std::string label = "fft2d") const;

  /// Raw-pointer variant for device memory owned elsewhere (e.g. a pooled
  /// buffer whose handle lives in a guarded map). The pointer must refer to
  /// at least count() Complex values of device memory and stay valid until
  /// the stream passes this command.
  void enqueue_inplace_ptr(Stream& stream, fft::Complex* data,
                           std::string label = "fft2d") const;

  /// Runs an in-place transform on the calling thread (a stream worker of
  /// this plan's device) under the device's FFT lock rule.
  void execute_inplace(fft::Complex* data) const;

  std::size_t height() const { return plan_->height(); }
  std::size_t width() const { return plan_->width(); }
  std::size_t count() const { return plan_->count(); }
  std::size_t bytes() const { return count() * sizeof(fft::Complex); }

 private:
  Device* device_;
  std::shared_ptr<const fft::Plan2d> plan_;
};

/// Device-side forward real-to-complex plan (cuFFT R2C analog). Operates on
/// a pooled buffer of spectrum_count() Complex values in the padded in-place
/// layout (see PlanR2c2d::execute_inplace_padded): real rows staged at
/// double stride 2*(w/2+1), half spectrum on completion.
class VFftPlanR2c2d {
 public:
  VFftPlanR2c2d(Device& device, std::size_t height, std::size_t width,
                fft::Rigor rigor = fft::Rigor::kEstimate);

  /// Runs the transform on the calling thread (a stream worker of this
  /// plan's device) under the device's FFT lock rule.
  void execute_inplace_padded(fft::Complex* data) const;

  std::size_t height() const { return plan_->height(); }
  std::size_t width() const { return plan_->width(); }
  std::size_t spectrum_count() const { return plan_->spectrum_count(); }
  std::size_t bytes() const { return spectrum_count() * sizeof(fft::Complex); }

 private:
  Device* device_;
  std::shared_ptr<const fft::PlanR2c2d> plan_;
};

/// Device-side inverse complex-to-real plan (cuFFT C2R analog). The buffer
/// holds the half spectrum on entry and height*width packed doubles on
/// completion (see PlanC2r2d::execute_inplace_half).
class VFftPlanC2r2d {
 public:
  VFftPlanC2r2d(Device& device, std::size_t height, std::size_t width,
                fft::Rigor rigor = fft::Rigor::kEstimate);

  /// Runs the transform on the calling thread (a stream worker of this
  /// plan's device) under the device's FFT lock rule.
  void execute_inplace_half(fft::Complex* data) const;

  std::size_t height() const { return plan_->height(); }
  std::size_t width() const { return plan_->width(); }
  std::size_t spectrum_count() const { return plan_->spectrum_count(); }
  std::size_t bytes() const { return spectrum_count() * sizeof(fft::Complex); }

 private:
  Device* device_;
  std::shared_ptr<const fft::PlanC2r2d> plan_;
};

}  // namespace hs::vgpu
