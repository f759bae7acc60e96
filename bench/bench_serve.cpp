// Stitch service benchmark: heterogeneous concurrent jobs under one memory
// budget.
//
// Three measurements:
//   1. Throughput — N heterogeneous jobs (mixed backends and grid sizes)
//      submitted at once to a shared worker pool; reports aggregate pairs/s
//      plus per-job queued time, run time, and end-to-end latency, and
//      compares the batch wall clock against running the same jobs serially.
//   2. Bit-identity — every job's displacement table is diffed against a
//      direct stitch() call with the same request.
//   3. Admission control — a job whose predicted footprint exceeds the
//      remaining (but not the total) budget queues until running jobs drain
//      budget back, instead of over-committing memory; a job that could
//      never fit is rejected at submit() with InvalidArgument.
//   4. Metrics overhead — the same batch with metric timers off vs on,
//      alternating, five runs each; the cheapest instrumented run's process
//      CPU time must stay within 2% of the cheapest untimed one (plus a
//      small absolute floor for scheduler noise), the budget DESIGN.md §10
//      commits to.
//   5. Overload — a 4x-capacity flood against a reject-policy service:
//      accepted jobs finish within deadline + one watchdog period, rejects
//      fail fast at submit(), and the shed/deadline-exceeded counters
//      account for every non-completed job exactly.
//   6. Journal durability — the same flood-style workload with the
//      write-ahead journal off vs on per fsync policy (the default
//      `interval` policy must stay within 3% + 50 ms of no-journal), and
//      startup recovery time as a function of journal size; numbers land in
//      BENCH_journal.json and scripts/check.sh gates on the budget.
//   7. Shared transform cache — a resubmit-heavy workload (the same job
//      submitted R times) through a service with the cross-job
//      content-addressed cache off vs on: the warm runs must replay pairs
//      from the shared store bit-identically at >= 2x the unshared batch
//      throughput, and a two-tenant weighted flood must keep the low-weight
//      tenant's accepted jobs inside deadline + one watchdog period. The
//      timings land in BENCH_journal.json's real_time_ns/derived sections,
//      which scripts/perf_gate.py diffs against the committed snapshot.
//   8. Restart with a persisted spill cache — the same job through two
//      service incarnations over one spill directory. The cold incarnation
//      computes every forward FFT and persists spectra + pair displacements;
//      the warm incarnation starts with an empty memory cache, recovers the
//      spill index, and must replay the resubmit with zero forward FFTs at
//      >= 2x the cold wall clock, bit-identically. Numbers land in
//      BENCH_restart.json (--restart-json-out), gated by perf_gate.py.
#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "common/thread_util.hpp"
#include "metrics/metrics.hpp"
#include "serve/service.hpp"
#include "simdata/plate.hpp"
#include "stitch/cli_flags.hpp"
#include "stitch/scheduler.hpp"
#include "stitch/validate.hpp"

using namespace hs;

namespace {

struct JobSpec {
  const char* name;
  stitch::Backend backend;
  std::size_t rows;
  std::size_t cols;
  std::size_t threads;
  std::size_t gpus;
};

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_serve",
                "stitch service throughput, bit-identity, and "
                "admission-control benchmark");
  cli.add_flag("workers", "concurrent jobs in the service", "3");
  cli.add_flag("budget-mb", "global memory budget, MiB", "64");
  cli.add_flag("tile-height", "tile height in pixels", "96");
  cli.add_flag("tile-width", "tile width in pixels", "128");
  stitch::register_json_out_flag(
      cli, "the journal section's numbers", "BENCH_journal.json");
  cli.add_flag("restart-json-out",
               "write the restart section's numbers to this JSON file "
               "(empty: skip)", "");
  stitch::register_metrics_flags(cli);
  if (!cli.parse(argc, argv)) return 0;

  const std::size_t tile_h = static_cast<std::size_t>(cli.get_int("tile-height"));
  const std::size_t tile_w = static_cast<std::size_t>(cli.get_int("tile-width"));

  serve::ServiceConfig config;
  config.workers = static_cast<std::size_t>(cli.get_int("workers"));
  config.memory_budget_bytes =
      static_cast<std::size_t>(cli.get_int("budget-mb")) << 20;

  // Six heterogeneous jobs: four backends, three grid shapes.
  const JobSpec specs[] = {
      {"tissue-a", stitch::Backend::kPipelinedCpu, 6, 8, 2, 0},
      {"tissue-b", stitch::Backend::kMtCpu, 5, 7, 2, 0},
      {"plate-1", stitch::Backend::kPipelinedGpu, 6, 6, 2, 2},
      {"plate-2", stitch::Backend::kSimpleCpu, 4, 6, 1, 0},
      {"slide-x", stitch::Backend::kPipelinedGpu, 4, 8, 2, 1},
      {"slide-y", stitch::Backend::kSimpleGpu, 4, 5, 1, 1},
  };
  const std::size_t n_jobs = std::size(specs);

  std::printf("== Stitch service: %zu heterogeneous jobs, %zu workers, "
              "%.0f MiB budget ==\n\n",
              n_jobs, config.workers,
              static_cast<double>(config.memory_budget_bytes) / (1 << 20));

  std::vector<sim::SyntheticGrid> grids;
  std::vector<stitch::MemoryTileProvider> providers;
  std::vector<stitch::StitchOptions> options_for;
  grids.reserve(n_jobs);
  providers.reserve(n_jobs);
  options_for.reserve(n_jobs);
  std::size_t total_pairs = 0;
  for (std::size_t i = 0; i < n_jobs; ++i) {
    sim::AcquisitionParams acq;
    acq.grid_rows = specs[i].rows;
    acq.grid_cols = specs[i].cols;
    acq.tile_height = tile_h;
    acq.tile_width = tile_w;
    acq.seed = 100 + i;
    grids.push_back(sim::make_synthetic_grid(acq));
    providers.emplace_back(&grids[i].tiles, grids[i].layout);
    stitch::StitchOptions o;
    o.threads = specs[i].threads;
    o.gpu_count = specs[i].gpus;
    options_for.push_back(o);
    total_pairs += grids[i].layout.pair_count();
  }

  // ---- 1. Concurrent batch through the service. --------------------------
  double batch_seconds = 0.0;
  std::vector<serve::JobHandle> handles;
  {
    serve::StitchService service(config);
    Stopwatch stopwatch;
    for (std::size_t i = 0; i < n_jobs; ++i) {
      serve::StitchJob job;
      job.name = specs[i].name;
      job.backend = specs[i].backend;
      job.provider = &providers[i];
      job.options = options_for[i];
      handles.push_back(service.submit(job));
    }
    service.wait_idle();
    batch_seconds = stopwatch.seconds();
  }

  // ---- 2. The same jobs serially, directly through stitch(). -------------
  Stopwatch serial_watch;
  std::vector<stitch::StitchResult> direct;
  direct.reserve(n_jobs);
  for (std::size_t i = 0; i < n_jobs; ++i) {
    direct.push_back(stitch::stitch(
        stitch::ResourceSet::for_backend(specs[i].backend, options_for[i]),
        providers[i], options_for[i]));
  }
  const double serial_seconds = serial_watch.seconds();

  bool all_identical = true;
  TextTable table({"job", "backend", "grid", "pairs", "footprint", "queued",
                   "run", "latency", "vs direct"});
  for (std::size_t i = 0; i < n_jobs; ++i) {
    const auto& handle = handles[i];
    const auto timing = handle.timing();
    const bool identical =
        stitch::diff_tables(direct[i].table, handle.wait().table).identical();
    all_identical = all_identical && identical;
    table.add_row(
        {handle.name(), stitch::backend_name(specs[i].backend),
         std::to_string(specs[i].rows) + "x" + std::to_string(specs[i].cols),
         std::to_string(grids[i].layout.pair_count()),
         format_num(static_cast<double>(handle.footprint_bytes()) / (1 << 20),
                    1) + " MiB",
         format_duration(timing.queued_us() / 1e6),
         format_duration(timing.run_us() / 1e6),
         format_duration(timing.latency_us() / 1e6),
         identical ? "identical" : "MISMATCH"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("batch wall clock:  %s  (%.0f pairs/s aggregate)\n",
              format_duration(batch_seconds).c_str(),
              static_cast<double>(total_pairs) / batch_seconds);
  std::printf("serial wall clock: %s  (%.0f pairs/s)\n",
              format_duration(serial_seconds).c_str(),
              static_cast<double>(total_pairs) / serial_seconds);
  std::printf("concurrency speedup: %.2fx; tables %s\n\n",
              serial_seconds / batch_seconds,
              all_identical ? "all bit-identical to direct stitch()"
                            : "MISMATCH vs direct stitch()");

  // ---- 3. Admission control. ---------------------------------------------
  // A budget sized so the big job cannot run alongside the small ones: it
  // must wait in the queue until the running jobs return their budget.
  std::printf("== Admission control ==\n");
  sim::AcquisitionParams big_acq;
  big_acq.grid_rows = 10;
  big_acq.grid_cols = 12;
  big_acq.tile_height = tile_h;
  big_acq.tile_width = tile_w;
  big_acq.seed = 999;
  const auto big_grid = sim::make_synthetic_grid(big_acq);
  stitch::MemoryTileProvider big_provider(&big_grid.tiles, big_grid.layout);

  serve::StitchJob big_job;
  big_job.name = "oversized";
  big_job.backend = stitch::Backend::kSimpleCpu;
  big_job.provider = &big_provider;

  // Probe the footprint, then size the budget at 1.2x so the big job fits
  // alone but not next to anything else.
  const auto big_request = stitch::StitchRequest{
      big_job.backend, big_job.provider, big_job.options};
  const std::size_t big_bytes = big_request.predicted_pool_bytes();
  serve::ServiceConfig tight = config;
  tight.workers = 2;
  tight.memory_budget_bytes = big_bytes + big_bytes / 5;

  serve::StitchService tight_service(tight);
  std::vector<serve::JobHandle> small_handles;
  for (std::size_t i = 0; i < 2; ++i) {
    serve::StitchJob job;
    job.name = std::string("small-") + std::to_string(i);
    job.backend = stitch::Backend::kPipelinedCpu;
    job.provider = &providers[i];
    job.options = options_for[i];
    job.priority = 1;  // admitted first, holding most of the budget
    small_handles.push_back(tight_service.submit(job));
  }
  auto big_handle = tight_service.submit(big_job);
  std::printf("budget %.1f MiB; 'oversized' predicts %.1f MiB and waits for "
              "the small jobs to finish\n",
              static_cast<double>(tight.memory_budget_bytes) / (1 << 20),
              static_cast<double>(big_handle.footprint_bytes()) / (1 << 20));

  const auto big_timing_pre = big_handle.timing();
  (void)big_timing_pre;
  big_handle.wait();
  const auto big_timing = big_handle.timing();
  std::printf("'oversized' state: %s, queued %s before admission "
              "(deferred, not OOM-crashed)\n",
              serve::job_state_name(big_handle.state()).c_str(),
              format_duration(big_timing.queued_us() / 1e6).c_str());

  // A job that can never fit is rejected up front.
  bool rejected = false;
  try {
    serve::ServiceConfig tiny = config;
    tiny.memory_budget_bytes = 1 << 20;
    serve::StitchService tiny_service(tiny);
    tiny_service.submit(big_job);
  } catch (const InvalidArgument& e) {
    rejected = true;
    std::printf("impossible job rejected at submit(): %s\n", e.what());
  }

  // ---- 4. Metrics overhead. ----------------------------------------------
  // The timers (queue waits, per-pair latency, plan builds) are the only
  // metric cost that involves clock reads; counters are single relaxed adds.
  // Timers-off and timers-on batches alternate, five of each, and the
  // verdict compares the cheapest of each in process CPU time, which host
  // load inflates far less than wall time.
  std::printf("\n== Metrics overhead ==\n");
  auto process_cpu_s = [] {
    timespec t{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
  };
  auto run_batch = [&]() -> double {
    serve::StitchService service(config);
    const double cpu0 = process_cpu_s();
    for (std::size_t i = 0; i < n_jobs; ++i) {
      serve::StitchJob job;
      job.name = specs[i].name;
      job.backend = specs[i].backend;
      job.provider = &providers[i];
      job.options = options_for[i];
      service.submit(job);
    }
    service.wait_idle();
    return process_cpu_s() - cpu0;
  };
  double untimed_s = 1e30;
  double timed_s = 1e30;
  for (int round = 0; round < 5; ++round) {
    metrics::set_timing_enabled(false);
    untimed_s = std::min(untimed_s, run_batch());
    metrics::set_timing_enabled(true);
    timed_s = std::min(timed_s, run_batch());
  }
  // 2% relative budget plus a 50 ms absolute floor: at this batch size a
  // single preemption costs more than every timer in the run combined.
  const double budget_s = untimed_s * 1.02 + 0.05;
  const bool overhead_ok = timed_s <= budget_s;
  std::printf("timers off: %s CPU   timers on: %s CPU   (budget %s)\n",
              format_duration(untimed_s).c_str(),
              format_duration(timed_s).c_str(),
              format_duration(budget_s).c_str());
  std::printf("metrics overhead %s the 2%% budget\n",
              overhead_ok ? "within" : "EXCEEDS");

  // ---- 5. Overload: bounded tail latency at 4x capacity. -----------------
  // A reject-policy service with 2 workers + 2 queue slots takes a flood of
  // 4x its capacity. The contract under test: every accepted job goes
  // terminal within its deadline plus one watchdog period, every rejected
  // job fails fast at submit(), and the shed + deadline-exceeded counters
  // account for every non-completed job exactly.
  std::printf("\n== Overload shedding and tail latency ==\n");
  serve::ServiceConfig loaded = config;
  loaded.workers = 2;
  loaded.max_queued = 2;
  loaded.overload = serve::OverloadPolicy::kReject;
  loaded.watchdog_period_s = 0.005;
  const double wd_ms = loaded.watchdog_period_s * 1e3;
  const std::int64_t flood_deadline_ms = 30000;
  const std::int64_t rushed_deadline_ms = 25;

  bool tail_ok = true, reject_fast_ok = true, accounted = false;
  std::uint64_t rejected_count = 0, done_count = 0, expired_count = 0;
  double worst_reject_ms = 0.0, worst_done_latency_ms = 0.0;
  {
    serve::StitchService loaded_service(loaded);
    std::vector<serve::JobHandle> flood;

    // Two doomed stragglers first: deadlines the big grid can never make.
    // They occupy the workers, so the flood behind them piles onto the queue.
    for (std::size_t i = 0; i < 2; ++i) {
      serve::StitchJob job;
      job.name = "rushed-" + std::to_string(i);
      job.backend = stitch::Backend::kSimpleCpu;
      job.provider = &big_provider;
      job.deadline_ms = rushed_deadline_ms;
      flood.push_back(loaded_service.submit(job));
    }
    while (loaded_service.running_count() < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::size_t flood_jobs = 4 * (loaded.workers + loaded.max_queued);
    for (std::size_t i = 0; i < flood_jobs; ++i) {
      serve::StitchJob job;
      job.name = "flood-" + std::to_string(i);
      job.backend = stitch::Backend::kSimpleCpu;
      job.provider = &providers[3];  // the smallest grid in the mix
      job.options = options_for[3];
      job.deadline_ms = flood_deadline_ms;
      Stopwatch submit_watch;
      flood.push_back(loaded_service.submit(job));
      const double submit_ms = submit_watch.seconds() * 1e3;
      if (flood.back().state() == serve::JobState::kRejected) {
        worst_reject_ms = std::max(worst_reject_ms, submit_ms);
        reject_fast_ok = reject_fast_ok && submit_ms < 10.0;
      }
    }
    loaded_service.wait_idle();

    for (const auto& handle : flood) {
      const auto state = handle.state();
      const double latency_ms = handle.timing().latency_us() / 1e3;
      if (state == serve::JobState::kDone) {
        ++done_count;
        worst_done_latency_ms = std::max(worst_done_latency_ms, latency_ms);
        tail_ok = tail_ok &&
                  latency_ms <=
                      static_cast<double>(flood_deadline_ms) + wd_ms;
      } else if (state == serve::JobState::kRejected) {
        ++rejected_count;
      }
    }
    const auto lm = loaded_service.metrics();
    expired_count = lm.jobs_deadline_exceeded;
    accounted = lm.jobs_shed == rejected_count &&
                lm.jobs_shed + lm.jobs_deadline_exceeded ==
                    lm.jobs_submitted - lm.jobs_done;
    std::printf("flood: %llu submitted -> %llu done, %llu rejected "
                "(worst submit %.2f ms), %llu past deadline\n",
                static_cast<unsigned long long>(lm.jobs_submitted),
                static_cast<unsigned long long>(lm.jobs_done),
                static_cast<unsigned long long>(rejected_count),
                worst_reject_ms,
                static_cast<unsigned long long>(expired_count));
    std::printf("accepted tail: worst latency %.1f ms vs bound %.1f ms "
                "(deadline + %.0f ms watchdog period): %s\n",
                worst_done_latency_ms,
                static_cast<double>(flood_deadline_ms) + wd_ms, wd_ms,
                tail_ok ? "within" : "EXCEEDS");
    std::printf("rejects fail fast (<10 ms): %s; shed+deadline counters "
                "account for every non-completed job: %s\n",
                reject_fast_ok ? "yes" : "NO",
                accounted ? "yes" : "NO");
  }
  const bool overload_ok =
      tail_ok && reject_fast_ok && accounted && done_count > 0 &&
      rejected_count > 0 && expired_count >= 2;

  // ---- 6. Journal durability. --------------------------------------------
  // (a) Fsync-policy overhead: a flood-style burst of small jobs with the
  // write-ahead journal off, then on under each policy. The default
  // `interval` policy amortizes fsyncs over many appends, so its cost must
  // stay within 3% of the un-journaled run (plus a 50 ms absolute floor for
  // scheduler noise). `every-record` is reported, not gated — its cost is
  // the price of losing nothing, and it scales with the record rate.
  std::printf("\n== Journal durability ==\n");
  const std::filesystem::path journal_root = "bench_journal_tmp";
  std::filesystem::remove_all(journal_root);
  const std::size_t flood_small = 16;
  auto run_flood = [&](const std::string& journal_dir,
                       serve::FsyncPolicy policy) -> double {
    serve::ServiceConfig flood_config = config;
    flood_config.workers = 2;
    flood_config.journal.dir = journal_dir;
    flood_config.journal.fsync = policy;
    serve::StitchService service(flood_config);
    Stopwatch stopwatch;
    for (std::size_t i = 0; i < flood_small; ++i) {
      serve::StitchJob job;
      job.name = "flood-" + std::to_string(i);
      job.backend = stitch::Backend::kSimpleCpu;
      job.provider = &providers[3];  // the smallest grid in the mix
      job.options = options_for[3];
      service.submit(job);
    }
    service.wait_idle();
    return stopwatch.seconds();
  };
  auto best_of_two = [&](const std::string& dir,
                         serve::FsyncPolicy policy) -> double {
    if (!dir.empty()) std::filesystem::remove_all(dir);
    const double first = run_flood(dir, policy);
    if (!dir.empty()) std::filesystem::remove_all(dir);
    return std::min(first, run_flood(dir, policy));
  };
  const double no_journal_s = best_of_two("", serve::FsyncPolicy::kNever);
  const double never_s = best_of_two((journal_root / "never").string(),
                                     serve::FsyncPolicy::kNever);
  const double interval_s = best_of_two((journal_root / "interval").string(),
                                        serve::FsyncPolicy::kInterval);
  const double every_s = best_of_two((journal_root / "every").string(),
                                     serve::FsyncPolicy::kEveryRecord);
  const double journal_budget_s = no_journal_s * 1.03 + 0.05;
  const bool journal_overhead_ok = interval_s <= journal_budget_s;
  std::printf("flood of %zu jobs: no journal %s | fsync=never %s | "
              "fsync=interval %s | fsync=every-record %s\n",
              flood_small, format_duration(no_journal_s).c_str(),
              format_duration(never_s).c_str(),
              format_duration(interval_s).c_str(),
              format_duration(every_s).c_str());
  std::printf("interval-policy overhead %s the 3%% budget (%s)\n",
              journal_overhead_ok ? "within" : "EXCEEDS",
              format_duration(journal_budget_s).c_str());

  // (b) Recovery time vs journal size: journals holding N live jobs, then a
  // service restart over each. The measured window is the constructor —
  // replay, torn-tail scan, resubmission, compaction — not the re-running
  // of the jobs themselves (they are cancelled right after).
  struct RecoveryRow {
    std::size_t jobs;
    std::uint64_t journal_bytes;
    double recover_s;
  };
  std::vector<RecoveryRow> recovery_rows;
  bool recovery_ok = true;
  for (const std::size_t live_jobs : {4ul, 16ul, 64ul}) {
    const std::filesystem::path dir =
        journal_root / ("recover-" + std::to_string(live_jobs));
    std::filesystem::remove_all(dir);
    std::uint64_t journal_bytes = 0;
    {
      serve::JournalConfig jc;
      jc.dir = dir.string();
      jc.fsync = serve::FsyncPolicy::kNever;
      serve::Journal journal(jc);
      journal.replay();
      stitch::StitchRequest request{stitch::Backend::kSimpleCpu,
                                    &providers[3], options_for[3]};
      for (std::size_t i = 0; i < live_jobs; ++i) {
        journal.append_submitted(journal.next_job_id(),
                                 "job-" + std::to_string(i),
                                 stitch::serialize_request(request), "", 0);
      }
      journal.flush();
      journal_bytes = journal.bytes();
    }
    serve::ServiceConfig recover_config = config;
    recover_config.workers = 1;
    recover_config.journal.dir = dir.string();
    recover_config.journal.fsync = serve::FsyncPolicy::kNever;
    recover_config.provider_resolver = [&](const std::string&) {
      return &providers[3];
    };
    Stopwatch recover_watch;
    serve::StitchService recovered_service(std::move(recover_config));
    const double recover_s = recover_watch.seconds();
    recovery_ok = recovery_ok &&
                  recovered_service.recovered_jobs().size() == live_jobs;
    recovered_service.cancel_all();
    recovery_rows.push_back({live_jobs, journal_bytes, recover_s});
  }
  TextTable recovery_table({"live jobs", "journal size", "recovery"});
  for (const RecoveryRow& row : recovery_rows) {
    recovery_table.add_row(
        {std::to_string(row.jobs),
         std::to_string(row.journal_bytes) + " B",
         format_duration(row.recover_s)});
  }
  std::printf("%s", recovery_table.render().c_str());
  std::printf("recovery resubmitted every journaled job: %s\n",
              recovery_ok ? "yes" : "NO");
  std::filesystem::remove_all(journal_root);
  const bool journal_ok = journal_overhead_ok && recovery_ok;

  // ---- 7. Shared transform cache: resubmit-heavy workload. ---------------
  // The same job R times: without the shared cache every resubmit recomputes
  // every FFT; with it the first job publishes spectra + pair results and
  // the other R-1 replay bit-identically from the store.
  std::printf("\n== Shared transform cache (resubmit-heavy) ==\n");
  const std::size_t resubmits = 8;
  bool shared_identical = true;
  auto run_resubmits = [&](std::size_t shared_cache_bytes) -> double {
    serve::ServiceConfig resubmit_config = config;
    resubmit_config.workers = 2;
    resubmit_config.shared_cache_bytes = shared_cache_bytes;
    serve::StitchService service(resubmit_config);
    Stopwatch stopwatch;
    std::vector<serve::JobHandle> resubmit_handles;
    for (std::size_t i = 0; i < resubmits; ++i) {
      serve::StitchJob job;
      job.name = "resubmit-" + std::to_string(i);
      job.backend = stitch::Backend::kMtCpu;
      job.provider = &providers[1];
      job.options = options_for[1];
      resubmit_handles.push_back(service.submit(job));
    }
    service.wait_idle();
    const double seconds = stopwatch.seconds();
    for (const auto& handle : resubmit_handles) {
      shared_identical =
          shared_identical &&
          stitch::diff_tables(direct[1].table, handle.wait().table).identical();
    }
    return seconds;
  };
  const double resubmit_unshared_s = run_resubmits(0);
  const double resubmit_shared_s = run_resubmits(256ull << 20);
  const double resubmit_speedup = resubmit_unshared_s / resubmit_shared_s;
  const bool shared_fast_enough = resubmit_speedup >= 2.0;
  std::printf("%zu identical jobs: unshared %s | shared cache %s | "
              "speedup %.2fx (gate: >= 2x); tables %s\n",
              resubmits, format_duration(resubmit_unshared_s).c_str(),
              format_duration(resubmit_shared_s).c_str(), resubmit_speedup,
              shared_identical ? "all bit-identical to direct stitch()"
                               : "MISMATCH vs direct stitch()");

  // Two-tenant weighted flood: a bulk tenant floods the queue while an
  // interactive tenant submits two deadline-bearing jobs. Weighted-fair
  // admission must keep the light tenant's jobs inside deadline + one
  // watchdog period instead of letting the flood starve them.
  serve::ServiceConfig fair = config;
  fair.workers = 1;
  fair.watchdog_period_s = 0.005;
  const std::int64_t light_deadline_ms = 30000;
  bool fair_ok = true;
  double worst_light_ms = 0.0;
  {
    serve::StitchService fair_service(fair);
    serve::StitchJob blocker;
    blocker.name = "fair-blocker";
    blocker.backend = stitch::Backend::kSimpleCpu;
    blocker.provider = &big_provider;
    fair_service.submit(blocker);
    while (fair_service.running_count() < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<serve::JobHandle> light_handles;
    for (std::size_t i = 0; i < 6; ++i) {
      serve::StitchJob job;
      job.name = "bulk-" + std::to_string(i);
      job.backend = stitch::Backend::kSimpleCpu;
      job.provider = &providers[3];
      job.options = options_for[3];
      job.tenant = "bulk";
      job.tenant_weight = 4.0;
      fair_service.submit(job);
    }
    for (std::size_t i = 0; i < 2; ++i) {
      serve::StitchJob job;
      job.name = "interactive-" + std::to_string(i);
      job.backend = stitch::Backend::kSimpleCpu;
      job.provider = &providers[3];
      job.options = options_for[3];
      job.tenant = "interactive";
      job.tenant_weight = 1.0;
      job.deadline_ms = light_deadline_ms;
      light_handles.push_back(fair_service.submit(job));
    }
    fair_service.wait_idle();
    const double bound_ms = static_cast<double>(light_deadline_ms) +
                            fair_service.watchdog_period_s() * 1e3;
    for (const auto& handle : light_handles) {
      const double latency_ms = handle.timing().latency_us() / 1e3;
      worst_light_ms = std::max(worst_light_ms, latency_ms);
      fair_ok = fair_ok && handle.state() == serve::JobState::kDone &&
                latency_ms <= bound_ms;
    }
    std::printf("two-tenant flood (weights 4:1): low-weight tenant worst "
                "latency %.1f ms vs bound %.1f ms: %s\n",
                worst_light_ms, bound_ms,
                fair_ok ? "within" : "EXCEEDS/STARVED");
  }
  const bool shared_ok = shared_identical && shared_fast_enough && fair_ok;

  // ---- 8. Restart with a persisted spill cache. --------------------------
  // Two service *incarnations* over one spill directory. The cold one pays
  // for every forward FFT and spills spectra + pair displacements as it
  // goes; the warm one constructs with an empty memory cache, recovers the
  // spill index from disk, and replays the identical resubmit from
  // persisted pair results — zero forward FFTs, >= 2x faster, bit-identical.
  std::printf("\n== Restart with persisted spill cache ==\n");
  const std::filesystem::path restart_root = "bench_restart_tmp";
  std::filesystem::remove_all(restart_root);
  serve::ServiceConfig restart_config = config;
  restart_config.workers = 1;
  restart_config.shared_cache_bytes = 256ull << 20;
  restart_config.spill_dir = (restart_root / "spill").string();
  bool restart_identical = true;
  auto run_restart_once = [&](double* seconds_out) -> std::uint64_t {
    serve::StitchService service(restart_config);
    Stopwatch stopwatch;
    serve::StitchJob job;
    job.name = "restartable";
    job.backend = stitch::Backend::kMtCpu;
    job.provider = &providers[1];
    job.options = options_for[1];
    const stitch::StitchResult result = service.submit(job).wait();
    *seconds_out = stopwatch.seconds();
    restart_identical =
        restart_identical &&
        stitch::diff_tables(direct[1].table, result.table).identical();
    return result.ops.forward_ffts;
  };
  double restart_cold_s = 0.0;
  double restart_warm_s = 0.0;
  const std::uint64_t restart_cold_ffts = run_restart_once(&restart_cold_s);
  const std::uint64_t restart_warm_ffts = run_restart_once(&restart_warm_s);
  const double restart_speedup = restart_cold_s / restart_warm_s;
  const bool restart_fast_enough = restart_speedup >= 2.0;
  std::printf("cold incarnation: %s (%llu forward FFTs) | warm restart: %s "
              "(%llu forward FFTs) | speedup %.2fx (gate: >= 2x)\n",
              format_duration(restart_cold_s).c_str(),
              static_cast<unsigned long long>(restart_cold_ffts),
              format_duration(restart_warm_s).c_str(),
              static_cast<unsigned long long>(restart_warm_ffts),
              restart_speedup);
  std::printf("warm resubmit replayed from the spill tier: %s; tables %s\n",
              restart_warm_ffts == 0 ? "0 forward FFTs" : "RECOMPUTED FFTS",
              restart_identical ? "bit-identical to direct stitch()"
                                : "MISMATCH vs direct stitch()");
  std::filesystem::remove_all(restart_root);
  const bool restart_ok = restart_identical && restart_fast_enough &&
                          restart_warm_ffts == 0 && restart_cold_ffts > 0;

  const std::string restart_json_path = cli.get("restart-json-out");
  if (!restart_json_path.empty()) {
    std::FILE* json = std::fopen(restart_json_path.c_str(), "w");
    if (json != nullptr) {
      std::fprintf(json,
                   "{\n"
                   "  \"bench\": \"restart\",\n"
                   "  \"real_time_ns\": {\n"
                   "    \"serve_restart_cold_ns\": %.0f,\n"
                   "    \"serve_restart_warm_ns\": %.0f\n"
                   "  },\n"
                   "  \"derived\": {\n"
                   "    \"serve_restart_warm_speedup\": %.4f\n"
                   "  },\n"
                   "  \"cold_forward_ffts\": %llu,\n"
                   "  \"warm_forward_ffts\": %llu,\n"
                   "  \"pass\": %s\n"
                   "}\n",
                   restart_cold_s * 1e9, restart_warm_s * 1e9,
                   restart_speedup,
                   static_cast<unsigned long long>(restart_cold_ffts),
                   static_cast<unsigned long long>(restart_warm_ffts),
                   restart_ok ? "true" : "false");
      std::fclose(json);
      std::printf("wrote %s\n", restart_json_path.c_str());
    }
  }

  if (!stitch::json_out_from_cli(cli).empty()) {
    std::FILE* json = std::fopen(stitch::json_out_from_cli(cli).c_str(), "w");
    if (json != nullptr) {
      std::fprintf(json,
                   "{\n"
                   "  \"bench\": \"serve\",\n"
                   "  \"real_time_ns\": {\n"
                   "    \"serve_resubmit_unshared_ns\": %.0f,\n"
                   "    \"serve_resubmit_shared_ns\": %.0f\n"
                   "  },\n"
                   "  \"derived\": {\n"
                   "    \"serve_resubmit_speedup\": %.4f\n"
                   "  },\n",
                   resubmit_unshared_s * 1e9, resubmit_shared_s * 1e9,
                   resubmit_speedup);
      std::fprintf(json,
                   "  \"flood_jobs\": %zu,\n"
                   "  \"fsync_overhead\": {\n"
                   "    \"no_journal_s\": %.6f,\n"
                   "    \"never_s\": %.6f,\n"
                   "    \"interval_s\": %.6f,\n"
                   "    \"every_record_s\": %.6f,\n"
                   "    \"interval_budget_s\": %.6f,\n"
                   "    \"interval_within_budget\": %s\n"
                   "  },\n"
                   "  \"recovery\": [\n",
                   flood_small, no_journal_s, never_s, interval_s, every_s,
                   journal_budget_s, journal_overhead_ok ? "true" : "false");
      for (std::size_t i = 0; i < recovery_rows.size(); ++i) {
        const RecoveryRow& row = recovery_rows[i];
        std::fprintf(json,
                     "    {\"live_jobs\": %zu, \"journal_bytes\": %llu, "
                     "\"recover_s\": %.6f}%s\n",
                     row.jobs,
                     static_cast<unsigned long long>(row.journal_bytes),
                     row.recover_s,
                     i + 1 < recovery_rows.size() ? "," : "");
      }
      std::fprintf(json,
                   "  ],\n"
                   "  \"pass\": %s\n"
                   "}\n",
                   journal_ok && shared_ok ? "true" : "false");
      std::fclose(json);
      std::printf("wrote %s\n", stitch::json_out_from_cli(cli).c_str());
    }
  }

  if (stitch::write_metrics_if_requested(cli)) {
    std::printf("wrote metrics snapshot: %s\n",
                cli.get("metrics-out").c_str());
  }

  const bool ok = all_identical && rejected && overhead_ok && overload_ok &&
                  journal_ok && shared_ok && restart_ok &&
                  big_handle.state() == serve::JobState::kDone;
  std::printf("\n%s\n", ok ? "Reproduced: shared budget serves heterogeneous "
                             "jobs concurrently with bit-identical results."
                           : "FAILED: see mismatches above.");
  return ok ? 0 : 1;
}
