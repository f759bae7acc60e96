#include "scan_workload.hpp"

#include <malloc.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common/crc32c.hpp"
#include "compose/streaming.hpp"
#include "fft/plan_cache.hpp"
#include "replay.hpp"
#include "simdata/plate.hpp"
#include "stitch/pciam.hpp"
#include "stitch/validate.hpp"
#include "vgpu/device.hpp"

namespace perfbench {

namespace {

namespace st = hs::stitch;
namespace fs = std::filesystem;

constexpr const char* kPattern = "t_r{r}_c{c}.tif";
constexpr int kSetupReps = 5;

std::uint32_t file_crc32c(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> chunk(1 << 20);
  std::uint32_t crc = 0;
  while (in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    crc = hs::crc32c(chunk.data(), static_cast<std::size_t>(in.gcount()),
                             crc);
  }
  return crc;
}

/// One three-phase scan as the client sees it, plus what the gates need.
struct ScanSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double phase1_s = 0.0;
  double phase1_cpu_s = 0.0;
  double phase2_s = 0.0;
  double phase3_s = 0.0;
  /// Resident-set high-water mark of this scan, MB.
  double peak_mb = 0.0;
  st::StitchResult result;
  std::size_t mosaic_height = 0;
  std::size_t mosaic_width = 0;
  // Traced scans only.
  TimingTileProvider::Totals phase1_reads;
  TimingTileProvider::Totals phase3_reads;
  RegistrySnapshot registry_delta;
  double vgpu_max_reduce_s = 0.0;
  double vgpu_ifft_s = 0.0;
};

}  // namespace

ScanSpec paper_scan_spec(bool toy) {
  ScanSpec spec;
  // 4x5 rather than the paper's 5x6 reference grid: a scan takes ~5 s, so a
  // run fits several of them and the median is steady.
  spec.rows = toy ? 2 : 4;
  spec.cols = toy ? 3 : 5;
  // Toy tiles keep the 29 factor in the width (348 = 2^2*3*29).
  spec.tile_height = toy ? 260 : 1040;
  spec.tile_width = toy ? 348 : 1392;
  spec.backend = st::Backend::kPipelinedCpu;
  spec.options.threads = 3;
  spec.options.read_threads = 1;
  spec.compute_threads = 3;
  spec.edge_tolerance_px = 0.5;
  return spec;
}

ScanSpec tile_swarm_spec(bool toy) {
  ScanSpec spec;
  // 12x12 rather than the 24x24 reference grid, and a 64 MiB rather than the
  // default 512 MiB vgpu arena: a run's CPU time then stays steady when the
  // host's shared cache and memory bandwidth change under it. At 24x24 (a
  // ~50 MB plate in set-up) with the default arena (zero-filled by every
  // stitch()), the medians of two ten-run sets moved 20-42% apart.
  spec.rows = toy ? 6 : 12;
  spec.cols = toy ? 6 : 12;
  spec.tile_height = 128;
  spec.tile_width = 160;
  // 30% rather than 10%: with +-9 px stage jitter a 10% overlap of a 128-px
  // tile (13 px) leaves some edges without enough shared content, and about
  // 6% of them land tens of pixels off. 20% still leaves one to three such
  // edges in a fifth of the seeds, 25% a few; 30% (38 px) none.
  spec.overlap = 0.3;
  spec.backend = st::Backend::kPipelinedGpu;
  spec.options.gpu_count = 1;
  spec.options.gpu_memory_bytes = 64ull << 20;
  spec.options.use_real_fft = true;
  spec.options.ccf_threads = 1;
  // One FFT stream and one displacement stream on the vgpu, plus the CCF
  // thread.
  spec.compute_threads = 3;
  spec.edge_tolerance_px = 0.5;
  return spec;
}

Outcome run_scan_workload(const RunContext& ctx, const ScanSpec& spec,
                          SpanLog* log) {
  Outcome out;
  out.layer = layer_metric_defaults();
  const std::string data_dir = ctx.work_dir + "/tiles";
  const std::string mosaic_path = ctx.work_dir + "/mosaic.pgm";

  // --- set-up: dataset generation + TIFF write + FFT plan construction ---
  hs::sim::AcquisitionParams acq;
  acq.grid_rows = spec.rows;
  acq.grid_cols = spec.cols;
  acq.tile_height = spec.tile_height;
  acq.tile_width = spec.tile_width;
  acq.overlap_fraction = spec.overlap;
  acq.seed = ctx.seed * 7919 + 17;
  hs::sim::PlateParams plate;
  plate.seed = ctx.seed;

  std::vector<double> setup_times;  // wall
  std::vector<double> setup_cpu_times;
  std::vector<double> plan_build_times;
  hs::sim::SyntheticGrid truth;
  st::FftPipeline pipeline;
  std::optional<st::DatasetTileProvider> disk;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    disk.reset();
    hs::fft::PlanCache::instance().clear();
    fs::remove_all(data_dir);
    fs::create_directories(data_dir);
    const RegistrySnapshot before = RegistrySnapshot::take();
    const double t0 = wall_s();
    const double c0 = process_cpu_s();
    hs::sim::SyntheticGrid grid = hs::sim::make_synthetic_grid(acq, plate);
    hs::sim::write_dataset(grid, data_dir, kPattern);
    pipeline = st::make_fft_pipeline(spec.tile_height, spec.tile_width,
                                     spec.options.rigor,
                                     spec.options.use_real_fft);
    disk.emplace(hs::img::TileGridDataset(data_dir, kPattern, grid.layout));
    setup_times.push_back(wall_s() - t0);
    setup_cpu_times.push_back(process_cpu_s() - c0);
    plan_build_times.push_back(
        1e-6 * RegistrySnapshot::delta(before, RegistrySnapshot::take())
                   .family_sum("hs_fft_plan_build_us_sum"));
    grid.tiles.clear();
    truth = std::move(grid);
  }
  malloc_trim(0);

  std::optional<st::DisplacementTable> reference_table;
  std::optional<std::uint32_t> reference_mosaic;
  std::uint64_t next_run = 1;
  std::vector<double> edge_errors;

  auto run_scan = [&](const st::TileProvider& provider,
                      TimingTileProvider* timing) {
    ScanSample s;
    const std::uint64_t run = next_run++;
    std::optional<hs::trace::Recorder> recorder;
    double recorder_offset_us = 0.0;
    st::StitchOptions options = spec.options;
    if (timing != nullptr) {
      recorder.emplace();
      recorder_offset_us = log->now_us() - recorder->now_us();
      options.recorder = &*recorder;
    }
    const RegistrySnapshot before =
        timing != nullptr ? RegistrySnapshot::take() : RegistrySnapshot{};

    SpanLog* span_log = timing != nullptr ? log : nullptr;
    SpanLog::Scope scan_span(span_log, "scan", 0, run);
    reset_peak_rss();
    const double t0 = wall_s();
    const double c0 = process_cpu_s();
    std::uint64_t stitch_span = 0;
    {
      SpanLog::Scope span(span_log, "stitch.stitch", scan_span.id(), run);
      stitch_span = span.id();
      if (timing != nullptr) timing->set_context(span.id(), run);
      s.result = st::stitch(spec.backend, provider, options);
    }
    const double t1 = wall_s();
    const double c1 = process_cpu_s();
    if (timing != nullptr) s.phase1_reads = timing->take();
    hs::compose::GlobalPositions positions;
    {
      SpanLog::Scope span(span_log, "compose.resolve_positions",
                          scan_span.id(), run);
      positions = hs::compose::resolve_positions(
          s.result.table, hs::compose::Phase2Method::kMaximumSpanningTree);
    }
    const double t2 = wall_s();
    hs::compose::MosaicStats mosaic;
    {
      SpanLog::Scope span(span_log, "compose.compose_mosaic_to_pgm",
                          scan_span.id(), run);
      if (timing != nullptr) timing->set_context(span.id(), run);
      mosaic = hs::compose::compose_mosaic_to_pgm(
          provider, positions, hs::compose::BlendMode::kLinear, mosaic_path);
    }
    const double t3 = wall_s();
    s.cpu_s = process_cpu_s() - c0;
    s.peak_mb = peak_rss_mb();
    s.wall_s = t3 - t0;
    s.phase1_s = t1 - t0;
    s.phase1_cpu_s = c1 - c0;
    s.phase2_s = t2 - t1;
    s.phase3_s = t3 - t2;
    s.mosaic_height = mosaic.height;
    s.mosaic_width = mosaic.width;

    if (timing != nullptr) {
      s.phase3_reads = timing->take();
      s.registry_delta =
          RegistrySnapshot::delta(before, RegistrySnapshot::take());
      for (const auto& span : recorder->spans()) {
        if (span.name == "max_reduce") {
          s.vgpu_max_reduce_s += span.duration_us() * 1e-6;
        } else if (span.name.rfind("ifft2d", 0) == 0) {
          s.vgpu_ifft_s += span.duration_us() * 1e-6;
        }
      }
      log->import(*recorder, recorder_offset_us, stitch_span, run);
    }

    // --- correctness gates ---
    ++out.attempted;
    if (s.result.pairs_failed != 0) {
      ++out.failed;
      out.fail_gate("scan " + std::to_string(run) + ": " +
                    std::to_string(s.result.pairs_failed) + " pairs failed");
    }
    st::DisplacementTable checked = s.result.table;
    if (ctx.perturb_table && reference_table.has_value()) {
      checked.west[1].x += 1;
    }
    if (!reference_table.has_value()) {
      reference_table = checked;
    } else if (!st::diff_tables(*reference_table, checked).identical()) {
      out.fail_gate("scan " + std::to_string(run) +
                    ": table differs from the first repeat");
    }
    const std::uint32_t crc = file_crc32c(mosaic_path);
    if (!reference_mosaic.has_value()) {
      reference_mosaic = crc;
    } else if (crc != *reference_mosaic) {
      out.fail_gate("scan " + std::to_string(run) +
                    ": mosaic bytes differ from the first repeat");
    }
    const auto accuracy = st::compare_to_truth(s.result.table, truth);
    edge_errors.push_back(accuracy.mean_abs_error_px);
    if (accuracy.mean_abs_error_px > spec.edge_tolerance_px) {
      out.fail_gate("scan " + std::to_string(run) + ": edge error " +
                    fmt("%.3f", accuracy.mean_abs_error_px) +
                    " px exceeds tolerance " +
                    fmt("%.3f", spec.edge_tolerance_px) + " px");
    }
    return s;
  };

  auto loop = [&](double budget_s, TimingTileProvider* timing) {
    std::vector<ScanSample> samples;
    const st::TileProvider& provider =
        timing != nullptr ? static_cast<const st::TileProvider&>(*timing)
                          : static_cast<const st::TileProvider&>(*disk);
    const double start = wall_s();
    while (samples.empty() || wall_s() - start < budget_s) {
      samples.push_back(run_scan(provider, timing));
    }
    return samples;
  };
  auto pick = [](const std::vector<ScanSample>& samples, auto field) {
    std::vector<double> values;
    for (const auto& s : samples) values.push_back(field(s));
    return values;
  };

  // One untimed warm-up scan: the first scan of a process pays first-touch
  // page faults and allocator growth that later scans do not. Its table and
  // mosaic still become the references the gates compare against.
  run_scan(*disk, nullptr);
  const double untraced_budget = ctx.trace ? ctx.seconds / 2 : ctx.seconds;
  const std::vector<ScanSample> plain = loop(untraced_budget, nullptr);
  const std::size_t n = plain.size();
  const std::vector<double> walls =
      pick(plain, [](const ScanSample& s) { return s.wall_s; });

  put(out.e2e, "setup_s", median(setup_cpu_times), "s",
      setup_cpu_times.size());
  put(out.e2e, "setup_wall_s", median(setup_times), "s", setup_times.size());
  put(out.e2e, "scan_s", median(walls), "s", n);
  put(out.e2e, "scan_cpu_s",
      median(pick(plain, [](const ScanSample& s) { return s.cpu_s; })), "s", n);
  put(out.e2e, "job_p50_ms", 1e3 * median(walls), "ms", n);
  put(out.e2e, "jobs_per_s", static_cast<double>(n) / sum(walls), "1/s", n);
  // Per-scan high-water marks: how many transforms are live at the peak
  // depends on thread timing, so the peak of a whole run is the worst of
  // its scans and moves more between runs than their median.
  put(out.e2e, "peak_rss_mb",
      median(pick(plain, [](const ScanSample& s) { return s.peak_mb; })), "MB",
      n);
  put(out.e2e, "edge_error_px", sum(edge_errors) / edge_errors.size(), "px",
      edge_errors.size());
  put(out.e2e, "failed_frac",
      static_cast<double>(out.failed) / static_cast<double>(out.attempted),
      "ratio", out.attempted);
  put(out.e2e, "phase1_s",
      median(pick(plain, [](const ScanSample& s) { return s.phase1_s; })), "s",
      n);
  put(out.e2e, "compose_s",
      median(pick(plain,
                  [](const ScanSample& s) { return s.phase2_s + s.phase3_s; })),
      "s", n);
  std::string walls_line = "scan walls (s):";
  for (double w : walls) walls_line += " " + fmt("%.3f", w);
  out.notes.push_back(walls_line);
  if (!ctx.trace) return out;

  // --- traced half: decorator, spans, recorder, registry deltas ---
  TimingTileProvider timing(*disk, log);
  const std::vector<ScanSample> traced = loop(ctx.seconds / 2, &timing);
  const std::size_t nt = traced.size();
  auto med = [&](auto field) { return median(pick(traced, field)); };
  auto reg = [&](const char* family) {
    return med([family](const ScanSample& s) {
      return s.registry_delta.family_sum(family);
    });
  };
  const ScanSample& last = traced.back();

  // --- single-threaded layer replay on this workload's tiles and pairs ---
  const ReplayTotals replay =
      replay_layers(*disk, *reference_table, pipeline, log, next_run++);
  if (replay.mismatches != 0) {
    out.fail_gate(std::to_string(replay.mismatches) +
                  " replayed pairs differ from the stitched table");
  }

  MetricSet& L = out.layer;
  const double read_s = med([](const ScanSample& s) {
    return s.phase1_reads.seconds + s.phase3_reads.seconds;
  });
  const double phase1_read_s =
      med([](const ScanSample& s) { return s.phase1_reads.seconds; });
  double read_bytes = 0.0, read_total_s = 0.0;
  for (const auto& s : traced) {
    read_bytes +=
        static_cast<double>(s.phase1_reads.bytes + s.phase3_reads.bytes);
    read_total_s += s.phase1_reads.seconds + s.phase3_reads.seconds;
  }
  put(L, "imgio.reads", med([](const ScanSample& s) {
        return static_cast<double>(s.phase1_reads.reads + s.phase3_reads.reads);
      }), "count", nt);
  put(L, "imgio.read_s", read_s, "s", nt);
  put(L, "imgio.read_mb_per_s", read_bytes / 1e6 / read_total_s, "MB/s", nt);

  put_replay_metrics(L, replay);
  put(L, "fft.forward_count", static_cast<double>(last.result.ops.forward_ffts),
      "count", nt);
  put(L, "fft.inverse_count", static_cast<double>(last.result.ops.inverse_ffts),
      "count", nt);
  put(L, "fft.transform_bins",
      static_cast<double>(last.result.ops.transform_bins), "count", nt);
  put(L, "fft.plan_build_s", median(plan_build_times), "s",
      plan_build_times.size());

  const double phase1_s = med([](const ScanSample& s) { return s.phase1_s; });
  const double phase1_cpu_s =
      med([](const ScanSample& s) { return s.phase1_cpu_s; });
  put(L, "stitch.phase1_s", phase1_s, "s", nt);
  put(L, "stitch.ccf_evals",
      static_cast<double>(last.result.ops.ccf_evaluations), "count", nt);
  put(L, "stitch.peak_live_transforms",
      static_cast<double>(last.result.peak_live_transforms), "count", nt);
  put(L, "stitch.busy_frac",
      (replay.forward_s + replay.pair_s) /
          (phase1_s * static_cast<double>(spec.compute_threads)),
      "ratio", nt);
  const double attributed = phase1_read_s + replay.forward_s + replay.pair_s;
  put(L, "stitch.attrib_gap_frac",
      std::fabs(phase1_cpu_s - attributed) / phase1_cpu_s, "ratio", nt);

  put(L, "pipeline.queue_pop_wait_s",
      1e-6 * reg("hs_pipeline_queue_pop_wait_us_sum"), "s", nt);
  put(L, "pipeline.queue_push_wait_s",
      1e-6 * reg("hs_pipeline_queue_push_wait_us_sum"), "s", nt);
  put(L, "vgpu.enqueues", reg("hs_vgpu_stream_enqueues_total"), "count", nt);
  put(L, "vgpu.pool_wait_s", 1e-6 * reg("hs_vgpu_pool_wait_us_sum"), "s", nt);
  put(L, "vgpu.max_reduce_s",
      med([](const ScanSample& s) { return s.vgpu_max_reduce_s; }), "s", nt);
  put(L, "vgpu.ifft_s", med([](const ScanSample& s) { return s.vgpu_ifft_s; }),
      "s", nt);
  // A GPU backend creates its virtual devices inside every stitch() call;
  // each allocates and zero-fills a gpu_memory_bytes arena.
  double device_init_s = 0.0;
  if (st::is_gpu_backend(spec.backend)) {
    std::vector<double> inits;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      SpanLog::Scope span(log, "vgpu.device_init", 0, next_run);
      const double t0 = wall_s();
      hs::vgpu::DeviceConfig config;
      config.memory_bytes = spec.options.gpu_memory_bytes;
      { const hs::vgpu::Device device(config); }
      inits.push_back(wall_s() - t0);
    }
    device_init_s = median(inits);
    put(L, "vgpu.device_init_s",
        device_init_s * static_cast<double>(spec.options.gpu_count), "s",
        inits.size());
  }

  const double phase3_s = med([](const ScanSample& s) { return s.phase3_s; });
  const double mosaic_mb = static_cast<double>(last.mosaic_height) *
                           static_cast<double>(last.mosaic_width) *
                           sizeof(std::uint16_t) / 1e6;
  put(L, "compose.phase2_s",
      med([](const ScanSample& s) { return s.phase2_s; }), "s", nt);
  put(L, "compose.phase3_s", phase3_s, "s", nt);
  put(L, "compose.mosaic_mb", mosaic_mb, "MB", nt);
  put(L, "compose.write_mb_per_s", mosaic_mb / phase3_s, "MB/s", nt);

  const double traced_scan_s =
      med([](const ScanSample& s) { return s.wall_s; });
  put(L, "trace.overhead_frac", traced_scan_s / median(walls) - 1.0, "ratio",
      nt);

  const double compose_s =
      L["compose.phase2_s"].value + phase3_s -
      med([](const ScanSample& s) { return s.phase3_reads.seconds; });
  out.notes.push_back(layer_split_note(
      "layer split (busy s per scan)",
      {{"imgio", read_s},
       {"fft", replay.forward_s + replay.inverse_s},
       {"stitch.ncc_peak", L["stitch.ncc_peak_s"].value},
       {"stitch.ccf", replay.ccf_s},
       {"vgpu.device_init", device_init_s},
       {"compose", compose_s}}));
  return out;
}

}  // namespace perfbench
