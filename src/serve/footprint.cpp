#include "serve/footprint.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hs::serve {

namespace {

double dmax(double a, double b) { return a > b ? a : b; }

}  // namespace

JobFootprint predict_footprint(const stitch::StitchRequest& request,
                               const sched::CostModel& cost) {
  HS_REQUIRE(request.provider != nullptr, "provider must not be null");
  const img::GridLayout layout = request.provider->layout();
  const std::size_t h = request.provider->tile_height();
  const std::size_t w = request.provider->tile_width();
  const double tiles = static_cast<double>(layout.tile_count());
  const double pairs = static_cast<double>(layout.pair_count());
  const stitch::StitchOptions& o = request.options;

  // Scale the calibrated per-op constants to this job's tile geometry; the
  // half-spectrum option discounts every transform (and, via
  // predicted_pool_bytes, halves the admission charge).
  const double fs = cost.fft_scale(h, w, o.use_real_fft);
  const double ps = cost.pixel_scale(h, w);
  const double read_s = cost.read_tile_s * ps;
  const double cpu_fft_s = cost.cpu_fft_s * fs;
  const double cpu_pair_s =
      cost.cpu_ncc_s * ps + cpu_fft_s + cost.cpu_max_s * ps;
  const double ccf_s = cost.ccf_s * ps;
  const double gpu_fft_s = cost.gpu_fft_s * fs;
  const double gpu_pair_s =
      cost.gpu_ncc_s * ps + gpu_fft_s + cost.gpu_max_s * ps +
      cost.d2h_scalar_s;
  const double upload_s = cost.convert_s * ps + cost.h2d_s * ps;

  JobFootprint f;
  f.bytes = request.predicted_pool_bytes();

  // Each backend name denotes a ResourceSet preset over the unified
  // scheduler loop, stitch(ResourceSet) (stitch/scheduler.hpp); the cost
  // shapes below model those presets' executor mixes, not separate
  // implementations.
  switch (request.backend) {
    case stitch::Backend::kNaivePairwise:
      // Both tiles re-read and re-transformed for every pair.
      f.seconds = pairs * (2.0 * read_s + 2.0 * cpu_fft_s + cpu_pair_s +
                           ccf_s);
      break;
    case stitch::Backend::kSimpleCpu:
      f.seconds = tiles * (read_s + cpu_fft_s) + pairs * (cpu_pair_s + ccf_s);
      break;
    case stitch::Backend::kMtCpu: {
      const double work =
          tiles * (read_s + cpu_fft_s) + pairs * (cpu_pair_s + ccf_s);
      f.seconds = work * cost.mt_cpu_contention /
                  cost.effective_threads(std::max<std::size_t>(1, o.threads));
      break;
    }
    case stitch::Backend::kPipelinedCpu: {
      const double work =
          tiles * (read_s + cpu_fft_s) + pairs * (cpu_pair_s + ccf_s);
      f.seconds =
          work * cost.pipelined_cpu_overhead /
          cost.effective_threads(std::max<std::size_t>(1, o.threads));
      break;
    }
    case stitch::Backend::kSimpleGpu: {
      // Every operation pays the synchronous-invocation stall (Fig 7).
      const double sync_ops = tiles * 3.0 + pairs * 4.0;
      f.seconds = tiles * (read_s + upload_s + gpu_fft_s) +
                  pairs * (gpu_pair_s + ccf_s) +
                  sync_ops * cost.simple_gpu_sync_stall_s;
      break;
    }
    case stitch::Backend::kPipelinedGpu: {
      // Stages overlap; the bottleneck stage sets the runtime.
      const double gpus = static_cast<double>(std::max<std::size_t>(
          1, std::min(o.gpu_count, layout.rows)));
      const double readers =
          static_cast<double>(std::max<std::size_t>(1, o.read_threads));
      const double ccf_threads =
          static_cast<double>(std::max<std::size_t>(1, o.ccf_threads));
      const double read_stage = tiles * read_s / readers;
      const double fft_stage = tiles * (upload_s + gpu_fft_s) / gpus;
      const double disp_stage = pairs * gpu_pair_s / gpus;
      const double ccf_stage = pairs * ccf_s / ccf_threads;
      f.seconds =
          dmax(dmax(read_stage, fft_stage), dmax(disp_stage, ccf_stage));
      break;
    }
  }
  return f;
}

}  // namespace hs::serve
