#include "serve_workload.hpp"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>

#include "fft/plan_cache.hpp"
#include "replay.hpp"
#include "serve/service.hpp"
#include "simdata/plate.hpp"
#include "stitch/pciam.hpp"
#include "stitch/validate.hpp"

namespace perfbench {

namespace {

namespace st = hs::stitch;
namespace sv = hs::serve;
namespace fs = std::filesystem;

constexpr int kSetupReps = 5;
constexpr std::size_t kBases = 8;        // 4 seeds x {4x4, 4x5}
constexpr std::size_t kOutstanding = 4;  // closed loop: jobs in flight
constexpr std::size_t kResubmitWindow = 12;
/// Gate: mean Chebyshev edge error of a fresh scan, pixels.
constexpr double kEdgeTolerancePx = 0.5;

/// A fresh scan: a seeded base scan with a per-scan intensity offset, so its
/// tile content digests (and hence every cache key) are new while the
/// geometry and ground truth stay the base's.
class VariantTileProvider final : public st::TileProvider {
 public:
  VariantTileProvider(const hs::sim::SyntheticGrid& base, std::uint16_t offset)
      : base_(base), offset_(offset) {}

  hs::img::GridLayout layout() const override { return base_.layout; }
  std::size_t tile_height() const override { return base_.tile_height; }
  std::size_t tile_width() const override { return base_.tile_width; }
  hs::img::ImageU16 load(hs::img::TilePos pos) const override {
    hs::img::ImageU16 tile = base_.tile(pos);
    for (auto& px : tile.pixels()) {
      px = static_cast<std::uint16_t>(std::min<unsigned>(65535u, px + offset_));
    }
    return tile;
  }

 private:
  const hs::sim::SyntheticGrid& base_;
  std::uint16_t offset_;
};

struct Scan {
  std::size_t base = 0;
  VariantTileProvider tiles;
  std::optional<st::DisplacementTable> first_table;
};

/// One finished job as the submitting client saw it.
struct JobSample {
  bool fresh = false;
  bool traced = false;
  sv::JobTiming timing;
  double predicted_s = 0.0;
  st::OpCounts ops;
  std::size_t peak_live = 0;
  std::size_t tiles = 0;
};

}  // namespace

Outcome run_serve_mix(const RunContext& ctx, SpanLog* log) {
  Outcome out;
  out.layer = layer_metric_defaults();
  const std::size_t rows = ctx.toy ? 2 : 4;
  const std::size_t tile_h = 260;
  const std::size_t tile_w = 348;
  const std::string spill_dir = ctx.work_dir + "/spill";
  const std::string journal_dir = ctx.work_dir + "/journal";

  // --- set-up: base scans + service construction (journal, spill tier) ---
  std::vector<hs::sim::SyntheticGrid> bases;
  std::unique_ptr<sv::StitchService> service;
  std::vector<double> setup_times;  // wall
  std::vector<double> setup_cpu_times;
  std::vector<double> plan_build_times;
  st::FftPipeline pipeline;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    bases.clear();
    hs::fft::PlanCache::instance().clear();
    fs::remove_all(spill_dir);
    fs::remove_all(journal_dir);
    const RegistrySnapshot before = RegistrySnapshot::take();
    const double t0 = wall_s();
    const double c0 = process_cpu_s();
    for (std::size_t b = 0; b < kBases; ++b) {
      hs::sim::AcquisitionParams acq;
      acq.grid_rows = rows;
      acq.grid_cols = rows + b % 2;
      acq.tile_height = tile_h;
      acq.tile_width = tile_w;
      // 20% rather than 10%: with +-9 px stage jitter a 10% overlap of a
      // 260-px tile can shrink to 8 px, too little shared content to
      // register (seed 1370 has a 10-px north edge that phase 1 leaves at
      // (0, 0), 250 px off, failing the edge gate on every fresh copy).
      acq.overlap_fraction = 0.2;
      acq.seed = ctx.seed * 7919 + 101 * b + 17;
      hs::sim::PlateParams plate;
      plate.seed = ctx.seed * 1000 + b;
      bases.push_back(hs::sim::make_synthetic_grid(acq, plate));
    }
    pipeline = st::make_fft_pipeline(tile_h, tile_w, hs::fft::Rigor::kEstimate,
                                     false);
    sv::ServiceConfig config;
    config.workers = 2;
    config.shared_cache_bytes = (ctx.toy ? 4ull : 64ull) << 20;
    config.spill_dir = spill_dir;
    config.journal.dir = journal_dir;
    config.journal.fsync = sv::FsyncPolicy::kInterval;
    service = std::make_unique<sv::StitchService>(config);
    setup_times.push_back(wall_s() - t0);
    setup_cpu_times.push_back(process_cpu_s() - c0);
    plan_build_times.push_back(
        1e-6 * RegistrySnapshot::delta(before, RegistrySnapshot::take())
                   .family_sum("hs_fft_plan_build_us_sum"));
  }
  malloc_trim(0);
  reset_peak_rss();

  std::deque<Scan> scans;  // deque: stable addresses for the providers
  std::mt19937_64 rng(ctx.seed);
  std::vector<double> edge_errors;
  std::size_t job_index = 0;
  bool perturbed = false;

  struct Pending {
    sv::JobHandle handle;
    Scan* scan = nullptr;
    bool fresh = false;
    std::uint64_t span = 0;
    std::uint64_t run = 0;
    std::unique_ptr<TimingTileProvider> timed;  // traced half only
  };
  TimingTileProvider::Totals reads;  // traced jobs' tile loads

  auto submit = [&](bool traced) {
    const std::size_t k = job_index++;
    Scan* scan = nullptr;
    bool fresh = true;
    if (k % 2 == 1) {
      // Resubmit a recent scan whose first result is in.
      std::vector<Scan*> window;
      const std::size_t first =
          scans.size() > kResubmitWindow ? scans.size() - kResubmitWindow : 0;
      for (std::size_t i = first; i < scans.size(); ++i) {
        if (scans[i].first_table.has_value()) window.push_back(&scans[i]);
      }
      if (!window.empty()) {
        scan = window[rng() % window.size()];
        fresh = false;
      }
    }
    if (scan == nullptr) {
      const std::size_t id = scans.size();
      const std::size_t base = id % kBases;
      scans.push_back(Scan{base,
                           VariantTileProvider(
                               bases[base],
                               static_cast<std::uint16_t>(1 + id / kBases)),
                           std::nullopt});
      scan = &scans.back();
    }
    const st::TileProvider* provider = &scan->tiles;
    Pending p;
    p.scan = scan;
    p.fresh = fresh;
    p.run = k + 1;
    if (traced) {
      p.timed = std::make_unique<TimingTileProvider>(scan->tiles, log);
      p.span = log->open("serve.job", 0, p.run);
      p.timed->set_context(p.span, p.run);
      provider = p.timed.get();
    }
    sv::StitchJob job;
    job.name = "job" + std::to_string(k);
    job.backend = st::Backend::kSimpleCpu;
    job.provider = provider;
    // Tenant alternates every two jobs so both see fresh and resubmitted
    // scans.
    const bool acme = (k / 2) % 2 == 0;
    job.tenant = acme ? "acme" : "beta";
    job.tenant_weight = acme ? 2.0 : 1.0;
    p.handle = service->submit(std::move(job));
    return p;
  };

  std::vector<JobSample> samples;
  auto harvest = [&](Pending& p, bool traced) {
    ++out.attempted;
    JobSample s;
    s.fresh = p.fresh;
    s.traced = traced;
    s.timing = p.handle.timing();
    s.predicted_s = p.handle.predicted_seconds();
    s.tiles = p.scan->tiles.layout().tile_count();
    if (traced) {
      const auto t = p.timed->take();
      reads.reads += t.reads;
      reads.seconds += t.seconds;
      reads.bytes += t.bytes;
      log->close(p.span);
      const double t_end = log->now_us();
      const double t_submit = t_end - s.timing.latency_us();
      log->record("serve.queue", t_submit, t_submit + s.timing.queued_us(),
                  p.span, p.run);
      log->record("serve.run", t_submit + s.timing.queued_us(), t_end, p.span,
                  p.run);
    }
    if (p.handle.state() != sv::JobState::kDone) {
      std::string why;
      try {
        p.handle.wait();
      } catch (const std::exception& e) {
        why = std::string(": ") + e.what();
      }
      ++out.failed;
      out.fail_gate(p.handle.name() + " ended " +
                    sv::job_state_name(p.handle.state()) + why);
      return;
    }
    const st::StitchResult& result = p.handle.wait();
    s.ops = result.ops;
    s.peak_live = result.peak_live_transforms;
    if (result.pairs_failed != 0) {
      ++out.failed;
      out.fail_gate(p.handle.name() + ": pairs failed");
    }
    if (p.fresh) {
      p.scan->first_table = result.table;
      const auto accuracy =
          st::compare_to_truth(result.table, bases[p.scan->base]);
      edge_errors.push_back(accuracy.mean_abs_error_px);
      if (accuracy.mean_abs_error_px > kEdgeTolerancePx) {
        out.fail_gate(p.handle.name() + ": edge error " +
                      fmt("%.3f", accuracy.mean_abs_error_px) +
                      " px exceeds tolerance " + fmt("%.3f", kEdgeTolerancePx) +
                      " px");
      }
    } else {
      st::DisplacementTable checked = result.table;
      if (ctx.perturb_table && !perturbed) {
        checked.west[1].x += 1;
        perturbed = true;
      }
      if (!st::diff_tables(*p.scan->first_table, checked).identical()) {
        out.fail_gate(p.handle.name() +
                      ": resubmitted table differs from its first submission");
      }
    }
    samples.push_back(s);
  };

  struct Window {
    double seconds = 0.0;
    double cpu_s = 0.0;
    std::size_t jobs = 0;
    RegistrySnapshot registry_delta;
  };
  auto loop = [&](double budget_s, bool traced) {
    Window w;
    std::vector<Pending> pending;
    const RegistrySnapshot before = RegistrySnapshot::take();
    const std::size_t first_sample = samples.size();
    const double start = wall_s();
    const double cpu0 = process_cpu_s();
    double last_done = start;
    auto want_more = [&] {
      if (wall_s() - start < budget_s) return true;
      // The perturbed-table check needs one resubmit.
      return ctx.perturb_table && !perturbed && samples.size() < 64;
    };
    while (true) {
      while (pending.size() < kOutstanding && want_more()) {
        pending.push_back(submit(traced));
      }
      if (pending.empty()) break;
      bool any = false;
      for (std::size_t i = 0; i < pending.size();) {
        if (sv::is_terminal(pending[i].handle.state())) {
          last_done = wall_s();
          harvest(pending[i], traced);
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
          any = true;
        } else {
          ++i;
        }
      }
      if (!any) std::this_thread::sleep_for(std::chrono::microseconds(250));
    }
    w.seconds = last_done - start;
    w.cpu_s = process_cpu_s() - cpu0;
    w.jobs = samples.size() - first_sample;
    w.registry_delta =
        RegistrySnapshot::delta(before, RegistrySnapshot::take());
    return w;
  };

  // Fresh 4x5 scans give the per-scan times: fresh jobs alternate between
  // the two grid shapes, and a median over both would sit between them.
  const std::size_t large_tiles = rows * (rows + 1);
  enum class Jobs { kFresh, kFreshLarge, kResubmits, kAll };
  auto values = [&](bool traced, Jobs jobs, auto field) {
    std::vector<double> v;
    for (const auto& s : samples) {
      if (s.traced != traced) continue;
      if (jobs == Jobs::kFresh && !s.fresh) continue;
      if (jobs == Jobs::kFreshLarge && !(s.fresh && s.tiles == large_tiles)) {
        continue;
      }
      if (jobs == Jobs::kResubmits && s.fresh) continue;
      v.push_back(field(s));
    }
    return v;
  };
  auto latency_ms = [](const JobSample& s) {
    return 1e-3 * s.timing.latency_us();
  };
  auto run_s = [](const JobSample& s) { return 1e-6 * s.timing.run_us(); };

  const Window plain = loop(ctx.trace ? ctx.seconds / 2 : ctx.seconds, false);
  const std::vector<double> fresh_latency =
      values(false, Jobs::kFresh, latency_ms);
  const std::vector<double> resub_latency =
      values(false, Jobs::kResubmits, latency_ms);
  const std::vector<double> all_latency = values(false, Jobs::kAll, latency_ms);
  const std::size_t nf = fresh_latency.size();

  put(out.e2e, "setup_s", median(setup_cpu_times), "s",
      setup_cpu_times.size());
  put(out.e2e, "setup_wall_s", median(setup_times), "s", setup_times.size());
  const std::vector<double> large_run = values(false, Jobs::kFreshLarge, run_s);
  put(out.e2e, "scan_s", median(large_run), "s", large_run.size());
  put(out.e2e, "scan_cpu_s", plain.cpu_s / static_cast<double>(nf), "s", nf);
  put(out.e2e, "job_p50_ms", median(fresh_latency), "ms", nf);
  put(out.e2e, "jobs_per_s", static_cast<double>(plain.jobs) / plain.seconds,
      "1/s", plain.jobs);
  put(out.e2e, "peak_rss_mb", peak_rss_mb(), "MB", 1);
  put(out.e2e, "edge_error_px", sum(edge_errors) / edge_errors.size(), "px",
      edge_errors.size());
  put(out.e2e, "failed_frac",
      static_cast<double>(out.failed) / static_cast<double>(out.attempted),
      "ratio", out.attempted);
  put(out.e2e, "resubmit_p50_ms", median(resub_latency), "ms",
      resub_latency.size());
  put(out.e2e, "all_jobs_p50_ms", median(all_latency), "ms",
      all_latency.size());
  // A percentile is reported only with >= 10 samples beyond it.
  if (all_latency.size() >= 100) {
    put(out.e2e, "all_jobs_p90_ms", quantile(all_latency, 0.90), "ms",
        all_latency.size());
  }
  if (all_latency.size() >= 200) {
    put(out.e2e, "job_p95_ms", quantile(all_latency, 0.95), "ms",
        all_latency.size());
  }
  if (!ctx.trace) {
    service->wait_idle();
    return out;
  }

  // --- traced half ---
  const Window traced = loop(ctx.seconds / 2, true);
  service->wait_idle();
  const std::vector<double> t_large_run =
      values(true, Jobs::kFreshLarge, run_s);
  const std::size_t tf = values(true, Jobs::kFresh, run_s).size();
  const double tj = static_cast<double>(traced.jobs);
  const RegistrySnapshot& reg = traced.registry_delta;

  // Layer replay on the first fresh 4x5 scan's tiles and pairs.
  const auto replay_scan =
      std::find_if(scans.begin(), scans.end(), [&](const Scan& scan) {
        return scan.first_table.has_value() &&
               scan.tiles.layout().tile_count() == large_tiles;
      });
  if (replay_scan == scans.end()) {
    out.fail_gate("no finished fresh scan to replay");
    return out;
  }
  const ReplayTotals replay =
      replay_layers(replay_scan->tiles, *replay_scan->first_table, pipeline,
                    log, job_index + 1);
  if (replay.mismatches != 0) {
    out.fail_gate(std::to_string(replay.mismatches) +
                  " replayed pairs differ from the served table");
  }

  MetricSet& L = out.layer;
  auto per_fresh = [&](auto field) {
    return sum(values(true, Jobs::kFresh, field)) / static_cast<double>(tf);
  };
  put(L, "imgio.reads", static_cast<double>(reads.reads) / tj, "count",
      traced.jobs);
  put(L, "imgio.read_s", reads.seconds / tj, "s", traced.jobs);
  put(L, "imgio.read_mb_per_s",
      static_cast<double>(reads.bytes) / 1e6 / reads.seconds, "MB/s",
      traced.jobs);
  put(L, "fft.forward_count", per_fresh([](const JobSample& s) {
        return static_cast<double>(s.ops.forward_ffts);
      }), "count", tf);
  put(L, "fft.inverse_count", per_fresh([](const JobSample& s) {
        return static_cast<double>(s.ops.inverse_ffts);
      }), "count", tf);
  put(L, "fft.transform_bins", per_fresh([](const JobSample& s) {
        return static_cast<double>(s.ops.transform_bins);
      }), "count", tf);
  put_replay_metrics(L, replay);
  put(L, "fft.plan_build_s", median(plan_build_times), "s",
      plan_build_times.size());

  const double phase1_s = median(t_large_run);
  put(L, "stitch.phase1_s", phase1_s, "s", t_large_run.size());
  put(L, "stitch.ccf_evals", per_fresh([](const JobSample& s) {
        return static_cast<double>(s.ops.ccf_evaluations);
      }), "count", tf);
  put(L, "stitch.peak_live_transforms",
      median(values(true, Jobs::kFresh,
                    [](const JobSample& s) {
                      return static_cast<double>(s.peak_live);
                    })),
      "count", tf);
  // simple-cpu runs each job on one thread.
  put(L, "stitch.busy_frac", (replay.forward_s + replay.pair_s) / phase1_s,
      "ratio", tf);
  // Over the traced window: process CPU against reads plus one replayed
  // scan per fresh job (resubmits compute no transforms).
  const double attributed =
      reads.seconds +
      static_cast<double>(tf) * (replay.forward_s + replay.pair_s);
  put(L, "stitch.attrib_gap_frac",
      std::fabs(traced.cpu_s - attributed) / traced.cpu_s, "ratio",
      traced.jobs);

  put(L, "pipeline.queue_pop_wait_s",
      1e-6 * reg.family_sum("hs_pipeline_queue_pop_wait_us_sum") / tj, "s",
      traced.jobs);
  put(L, "pipeline.queue_push_wait_s",
      1e-6 * reg.family_sum("hs_pipeline_queue_push_wait_us_sum") / tj, "s",
      traced.jobs);
  put(L, "vgpu.enqueues", reg.family_sum("hs_vgpu_stream_enqueues_total") / tj,
      "count", traced.jobs);
  put(L, "vgpu.pool_wait_s",
      1e-6 * reg.family_sum("hs_vgpu_pool_wait_us_sum") / tj, "s",
      traced.jobs);

  put(L, "serve.queue_wait_p50_ms",
      median(values(true, Jobs::kAll,
                    [](const JobSample& s) {
                      return 1e-3 * s.timing.queued_us();
                    })),
      "ms", traced.jobs);
  // Run time of resubmits: the served hit path (digests, pair lookups, no
  // transforms). A fresh job's run time is stitch.phase1_s; a median over
  // both kinds would flip between them.
  const std::vector<double> resubmit_run_ms = values(
      true, Jobs::kResubmits,
      [](const JobSample& s) { return 1e-3 * s.timing.run_us(); });
  put(L, "serve.run_p50_ms", median(resubmit_run_ms), "ms",
      resubmit_run_ms.size());
  put(L, "serve.prediction_err_p50",
      median(values(true, Jobs::kFresh,
                    [](const JobSample& s) {
                      const double run = 1e-6 * s.timing.run_us();
                      return std::fabs(s.predicted_s - run) / run;
                    })),
      "ratio", tf);
  put(L, "serve.journal_fsyncs", reg.family_sum("hs_journal_fsyncs_total") / tj,
      "count", traced.jobs);

  const double hits = reg.family_sum("hs_stitch_shared_cache_hits_total");
  const double misses = reg.family_sum("hs_stitch_shared_cache_misses_total");
  put(L, "stitch.shared_cache_hit_ratio", hits / (hits + misses), "ratio",
      traced.jobs);
  put(L, "stitch.spill_hits", reg.family_sum("hs_stitch_spill_hits_total") / tj,
      "count", traced.jobs);
  put(L, "stitch.spill_bytes_written",
      reg.family_sum("hs_stitch_spill_bytes_written_total") / tj, "bytes",
      traced.jobs);
  put(L, "stitch.spill_bytes_read",
      reg.family_sum("hs_stitch_spill_bytes_read_total") / tj, "bytes",
      traced.jobs);
  put(L, "stitch.forward_ffts_skipped",
      sum(values(true, Jobs::kAll,
                 [](const JobSample& s) {
                   return static_cast<double>(s.tiles) -
                          static_cast<double>(s.ops.forward_ffts);
                 })) /
          tj,
      "count", traced.jobs);

  const std::vector<double> t_fresh_latency =
      values(true, Jobs::kFresh, latency_ms);
  put(L, "trace.overhead_frac",
      median(t_fresh_latency) / median(fresh_latency) - 1.0, "ratio", tf);

  const double fresh_jobs = static_cast<double>(tf);
  out.notes.push_back(layer_split_note(
      "layer split (busy s over the traced window)",
      {{"imgio", reads.seconds},
       {"fft", fresh_jobs * (replay.forward_s + replay.inverse_s)},
       {"stitch.ncc_peak", fresh_jobs * L["stitch.ncc_peak_s"].value},
       {"stitch.ccf", fresh_jobs * replay.ccf_s}}));
  return out;
}

}  // namespace perfbench
