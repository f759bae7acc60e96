#include "sched/models.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "imgio/grid.hpp"
#include "stitch/traversal.hpp"

namespace hs::sched {

namespace {

/// Per-tile-size operation costs for one configuration.
struct ScaledCosts {
  double read, convert, cpu_fft, cpu_ncc, cpu_max, ccf;
  double gpu_fft, gpu_ncc, gpu_max, h2d, d2h;

  ScaledCosts(const CostModel& cost, std::size_t h, std::size_t w) {
    const double fs = cost.fft_scale(h, w);
    const double ps = cost.pixel_scale(h, w);
    read = cost.read_tile_s * ps;
    convert = cost.convert_s * ps;
    cpu_fft = cost.cpu_fft_s * fs;
    cpu_ncc = cost.cpu_ncc_s * ps;
    cpu_max = cost.cpu_max_s * ps;
    ccf = cost.ccf_s * ps;
    gpu_fft = cost.gpu_fft_s * fs;
    gpu_ncc = cost.gpu_ncc_s * ps;
    gpu_max = cost.gpu_max_s * ps;
    h2d = cost.h2d_s * ps;
    d2h = cost.d2h_scalar_s;
  }
};

struct Pair {
  std::size_t a = 0;  // reference tile index
  std::size_t b = 0;  // moved tile index
};

std::vector<Pair> grid_pairs(const img::GridLayout& layout) {
  std::vector<Pair> pairs;
  pairs.reserve(layout.pair_count());
  for (std::size_t r = 0; r < layout.rows; ++r) {
    for (std::size_t c = 0; c < layout.cols; ++c) {
      if (c > 0) {
        pairs.push_back(Pair{layout.index_of({r, c - 1}),
                             layout.index_of({r, c})});
      }
      if (r > 0) {
        pairs.push_back(Pair{layout.index_of({r - 1, c}),
                             layout.index_of({r, c})});
      }
    }
  }
  return pairs;
}

ModelResult finish(Simulator& sim, hs::trace::Recorder* recorder) {
  ModelResult result;
  result.tasks = sim.task_count();
  result.seconds = sim.run(recorder);
  result.resources = sim.resource_stats();
  return result;
}

// --- NaivePairwise: sequential, both FFTs recomputed per pair. -----------
ModelResult model_naive(const ModelConfig& config,
                        hs::trace::Recorder* recorder) {
  const img::GridLayout layout{config.grid_rows, config.grid_cols};
  const ScaledCosts op(config.cost, config.tile_h, config.tile_w);
  Simulator sim;
  const ResourceId cpu = sim.add_resource("cpu", 1);
  const double per_pair = 2 * (op.read + op.convert + op.cpu_fft) +
                          op.cpu_ncc + op.cpu_fft + op.cpu_max + op.ccf;
  for (std::size_t p = 0; p < layout.pair_count(); ++p) {
    sim.add_task("pair", cpu, per_pair);
  }
  return finish(sim, recorder);
}

// --- Simple-CPU: sequential with a transform cache. ----------------------
ModelResult model_simple_cpu(const ModelConfig& config,
                             hs::trace::Recorder* recorder) {
  const img::GridLayout layout{config.grid_rows, config.grid_cols};
  const ScaledCosts op(config.cost, config.tile_h, config.tile_w);
  Simulator sim;
  const ResourceId cpu = sim.add_resource("cpu", 1);
  for (std::size_t t = 0; t < layout.tile_count(); ++t) {
    sim.add_task("tile", cpu, op.read + op.convert + op.cpu_fft);
  }
  const double per_pair = op.cpu_ncc + op.cpu_fft + op.cpu_max + op.ccf;
  for (std::size_t p = 0; p < layout.pair_count(); ++p) {
    sim.add_task("pair", cpu, per_pair);
  }
  return finish(sim, recorder);
}

// --- Shared CPU-parallel structure for MT-CPU and Pipelined-CPU. ----------
// Reads flow through a single disk; FFT and pair tasks run on a CPU pool
// whose per-slot speed models SMT; `overhead` multiplies compute durations
// (SPMD contention for MT, queue overhead for the pipeline).
ModelResult model_cpu_parallel(const ModelConfig& config, double overhead,
                               hs::trace::Recorder* recorder) {
  const img::GridLayout layout{config.grid_rows, config.grid_cols};
  const ScaledCosts op(config.cost, config.tile_h, config.tile_w);
  const std::size_t threads = std::max<std::size_t>(1, config.threads);
  const double speed =
      config.cost.effective_threads(threads) / static_cast<double>(threads);

  Simulator sim;
  const ResourceId disk = sim.add_resource("disk", 1);
  const ResourceId cpu = sim.add_resource("cpu", threads, speed);

  std::vector<TaskId> fft_done(layout.tile_count());
  for (std::size_t t = 0; t < layout.tile_count(); ++t) {
    const TaskId read = sim.add_task("read", disk, op.read);
    fft_done[t] = sim.add_task(
        "fft", cpu, (op.convert + op.cpu_fft) * overhead, {read});
  }
  const double per_pair =
      (op.cpu_ncc + op.cpu_fft + op.cpu_max + op.ccf) * overhead;
  for (const Pair& pair : grid_pairs(layout)) {
    sim.add_task("pair", cpu, per_pair, {fft_done[pair.a], fft_done[pair.b]});
  }
  return finish(sim, recorder);
}

// --- Simple-GPU: every operation synchronous on one stream. ---------------
// Driver work (reads, conversions, CCFs, and the per-invocation
// synchronization stall) and GPU work (copies + kernels) live on separate
// resources chained in strict alternation: the single CPU thread issues one
// GPU operation, waits, does host work, issues the next. The GPU lane of
// the resulting trace shows exactly the Fig 7 pathology — one kernel at a
// time with gaps between invocations.
ModelResult model_simple_gpu(const ModelConfig& config,
                             hs::trace::Recorder* recorder) {
  const img::GridLayout layout{config.grid_rows, config.grid_cols};
  const ScaledCosts op(config.cost, config.tile_h, config.tile_w);
  const double stall = config.cost.simple_gpu_sync_stall_s;
  Simulator sim;
  const ResourceId driver = sim.add_resource("driver", 1);
  const ResourceId gpu = sim.add_resource("gpu0.kernels", 1);

  TaskId prev = static_cast<TaskId>(-1);
  auto chain = [&](const char* name, ResourceId resource, double seconds) {
    std::vector<TaskId> deps;
    if (prev != static_cast<TaskId>(-1)) deps.push_back(prev);
    prev = sim.add_task(name, resource, seconds, std::move(deps));
  };
  for (std::size_t t = 0; t < layout.tile_count(); ++t) {
    chain("read+convert", driver, op.read + op.convert);
    chain("h2d", gpu, op.h2d);
    chain("sync", driver, stall);
    chain("fft", gpu, op.gpu_fft);
    chain("sync", driver, stall);
  }
  for (std::size_t p = 0; p < layout.pair_count(); ++p) {
    chain("ncc", gpu, op.gpu_ncc);
    chain("sync", driver, stall);
    chain("ifft", gpu, op.gpu_fft);
    chain("sync", driver, stall);
    chain("max+d2h", gpu, op.gpu_max + op.d2h);
    chain("sync", driver, stall);
    chain("ccf", driver, op.ccf);
    chain("sync", driver, stall);
  }
  return finish(sim, recorder);
}

// --- Pipelined-GPU: one pipeline per GPU + shared CCF stage. ---------------
ModelResult model_pipelined_gpu(const ModelConfig& config,
                                hs::trace::Recorder* recorder) {
  const img::GridLayout layout{config.grid_rows, config.grid_cols};
  const ScaledCosts op(config.cost, config.tile_h, config.tile_w);
  const std::size_t gpus =
      std::max<std::size_t>(1, std::min(config.gpus, layout.rows));
  const std::size_t ccf_threads = std::max<std::size_t>(1, config.ccf_threads);
  const bool use_p2p = config.use_p2p && gpus > 1;
  // Fermi: all kernels serialize on one engine slot (cuFFT register
  // pressure). Kepler/Hyper-Q: two kernels in flight.
  const std::size_t kernel_slots = config.kepler_concurrent_fft ? 2 : 1;

  Simulator sim;
  const ResourceId ccf_pool = sim.add_resource("ccf", ccf_threads);

  struct GpuResources {
    ResourceId reader, copier, engine;
    stitch::RowBand rows;
  };
  std::vector<GpuResources> resources;
  for (std::size_t g = 0; g < gpus; ++g) {
    const std::string prefix = "gpu" + std::to_string(g);
    resources.push_back(GpuResources{
        sim.add_resource(prefix + ".read", 1),
        sim.add_resource(prefix + ".copy", 1),
        sim.add_resource(prefix + ".kernels", kernel_slots),
        stitch::row_band(layout.rows, g, gpus)});
  }

  // fft_done[g][tile] = task after which the transform is available on g.
  std::vector<std::vector<TaskId>> fft_done(
      gpus, std::vector<TaskId>(layout.tile_count(), static_cast<TaskId>(-1)));

  // Pass 1: per-tile chains. Without p2p, each GPU also re-reads and
  // re-transforms the halo row above its band.
  for (std::size_t g = 0; g < gpus; ++g) {
    const auto& res = resources[g];
    const std::size_t local_begin =
        (!use_p2p && g > 0) ? res.rows.begin - 1 : res.rows.begin;
    for (std::size_t r = local_begin; r < res.rows.end; ++r) {
      for (std::size_t c = 0; c < layout.cols; ++c) {
        const TaskId read =
            sim.add_task("read", res.reader, op.read + op.convert);
        const TaskId copy = sim.add_task("h2d", res.copier, op.h2d, {read});
        fft_done[g][layout.index_of({r, c})] =
            sim.add_task("fft", res.engine, op.gpu_fft, {copy});
      }
    }
  }
  // Pass 2 (p2p only): halo transforms arrive over the peer link, ordered
  // after the owner's FFT; the copy occupies the consumer's copy engine.
  if (use_p2p) {
    for (std::size_t g = 1; g < gpus; ++g) {
      const auto& res = resources[g];
      const std::size_t halo_row = res.rows.begin - 1;
      for (std::size_t c = 0; c < layout.cols; ++c) {
        const std::size_t index = layout.index_of({halo_row, c});
        fft_done[g][index] = sim.add_task(
            "p2p", res.copier, op.h2d, {fft_done[g - 1][index]});
      }
    }
  }
  // Pass 3: pair chains on the owning GPU.
  for (const Pair& pair : grid_pairs(layout)) {
    const std::size_t owner_row = std::max(pair.a, pair.b) / layout.cols;
    for (std::size_t g = 0; g < gpus; ++g) {
      const auto& res = resources[g];
      if (owner_row < res.rows.begin || owner_row >= res.rows.end) continue;
      const TaskId ncc =
          sim.add_task("ncc", res.engine, op.gpu_ncc,
                       {fft_done[g][pair.a], fft_done[g][pair.b]});
      const TaskId ifft = sim.add_task("ifft", res.engine, op.gpu_fft, {ncc});
      const TaskId reduce =
          sim.add_task("max", res.engine, op.gpu_max + op.d2h, {ifft});
      sim.add_task("ccf", ccf_pool, op.ccf, {reduce});
      break;
    }
  }
  return finish(sim, recorder);
}

}  // namespace

ModelResult model_backend(stitch::Backend backend, const ModelConfig& config,
                          hs::trace::Recorder* recorder) {
  HS_REQUIRE(config.grid_rows >= 1 && config.grid_cols >= 1,
             "model grid must be non-empty");
  switch (backend) {
    case stitch::Backend::kNaivePairwise:
      return model_naive(config, recorder);
    case stitch::Backend::kSimpleCpu:
      return model_simple_cpu(config, recorder);
    case stitch::Backend::kMtCpu:
      return model_cpu_parallel(config, config.cost.mt_cpu_contention,
                                recorder);
    case stitch::Backend::kPipelinedCpu:
      return model_cpu_parallel(config, config.cost.pipelined_cpu_overhead,
                                recorder);
    case stitch::Backend::kSimpleGpu:
      return model_simple_gpu(config, recorder);
    case stitch::Backend::kPipelinedGpu:
      return model_pipelined_gpu(config, recorder);
  }
  throw InvalidArgument("unknown backend");
}

ModelResult model_fiji(const ModelConfig& config) {
  const img::GridLayout layout{config.grid_rows, config.grid_cols};
  const double scale = config.cost.fft_scale(config.tile_h, config.tile_w);
  ModelResult result;
  result.tasks = layout.pair_count();
  result.seconds =
      static_cast<double>(layout.pair_count()) * config.cost.fiji_pair_s *
      scale;
  return result;
}

}  // namespace hs::sched
