// Scheduler suite: ResourceSet presets, knob validation, hybrid
// CPU+GPU shapes, work-stealing correctness (bit-identity under any steal
// interleaving, straggler rescue), and batched vgpu dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "fault/plan.hpp"
#include "metrics/wellknown.hpp"
#include "stitch/ledger.hpp"
#include "stitch/scheduler.hpp"
#include "stitch/stitcher.hpp"
#include "testing_providers.hpp"
#include "trace/trace.hpp"

namespace hs::stitch {
namespace {

using hs::testing::fast_options;
using hs::testing::make_grid;
using hs::testing::tables_identical;
using hs::testing::truth_accuracy;

// --- ResourceSet presets -----------------------------------------------------

TEST(ResourceSetTest, ForBackendMapsLegacyShapes) {
  StitchOptions o;
  o.threads = 3;
  o.read_threads = 2;
  o.gpu_count = 4;

  const ResourceSet naive = ResourceSet::for_backend(Backend::kNaivePairwise, o);
  EXPECT_EQ(naive.cpu_workers, 1u);
  EXPECT_FALSE(naive.use_transform_cache);
  EXPECT_EQ(naive.gpu_devices, 0u);
  EXPECT_EQ(naive.label, "naive-pairwise");

  const ResourceSet simple = ResourceSet::for_backend(Backend::kSimpleCpu, o);
  EXPECT_EQ(simple.cpu_workers, 1u);
  EXPECT_TRUE(simple.use_transform_cache);
  EXPECT_EQ(simple.prefetch_threads, 0u);

  const ResourceSet mt = ResourceSet::for_backend(Backend::kMtCpu, o);
  EXPECT_EQ(mt.cpu_workers, 3u);
  EXPECT_EQ(mt.prefetch_threads, 0u);

  const ResourceSet pipelined =
      ResourceSet::for_backend(Backend::kPipelinedCpu, o);
  EXPECT_EQ(pipelined.cpu_workers, 3u);
  EXPECT_EQ(pipelined.prefetch_threads, 2u);

  const ResourceSet sgpu = ResourceSet::for_backend(Backend::kSimpleGpu, o);
  EXPECT_EQ(sgpu.cpu_workers, 0u);
  EXPECT_EQ(sgpu.gpu_devices, 1u);
  EXPECT_TRUE(sgpu.synchronous_gpu);

  const ResourceSet pgpu = ResourceSet::for_backend(Backend::kPipelinedGpu, o);
  EXPECT_EQ(pgpu.cpu_workers, 0u);
  EXPECT_EQ(pgpu.gpu_devices, 4u);
  EXPECT_FALSE(pgpu.synchronous_gpu);
  EXPECT_EQ(pgpu.label, "pipelined-gpu");
}

// --- validation --------------------------------------------------------------

TEST(SchedulerValidation, RejectsBadResourceSets) {
  const auto grid = make_grid(2, 2);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const StitchOptions options = fast_options();

  ResourceSet none;
  none.cpu_workers = 0;
  none.gpu_devices = 0;
  EXPECT_THROW(stitch(none, provider, options), InvalidArgument);

  StitchOptions zero_batch = options;
  zero_batch.gpu_batch_pairs = 0;
  EXPECT_THROW(stitch(ResourceSet{}, provider, zero_batch), InvalidArgument);

  ResourceSet prefetch_no_cache;
  prefetch_no_cache.prefetch_threads = 1;
  prefetch_no_cache.use_transform_cache = false;
  EXPECT_THROW(stitch(prefetch_no_cache, provider, options), InvalidArgument);

  ResourceSet bad_sync;
  bad_sync.cpu_workers = 0;
  bad_sync.gpu_devices = 2;
  bad_sync.synchronous_gpu = true;
  EXPECT_THROW(stitch(bad_sync, provider, options), InvalidArgument);
}

TEST(SchedulerValidation, ResourceSetRejectsUndersizedPools) {
  // stitch(ResourceSet) checks the same shape rule a request does: a pool
  // that cannot cover its executor's working set is rejected up front
  // instead of starving the executor forever.
  const auto grid = make_grid(4, 4);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  StitchOptions options = fast_options();
  options.gpu_count = 1;
  options.pool_buffers = 2;

  ResourceSet gpu_only;
  gpu_only.cpu_workers = 0;
  gpu_only.gpu_devices = 1;
  ResourceSet hybrid;
  hybrid.cpu_workers = 1;
  hybrid.gpu_devices = 1;
  ResourceSet sync;
  sync.cpu_workers = 0;
  sync.gpu_devices = 1;
  sync.synchronous_gpu = true;

  const auto expect_pool_rejected = [&](const ResourceSet& rs,
                                        const StitchOptions& o,
                                        const char* shape) {
    try {
      stitch(rs, provider, o);
      ADD_FAILURE() << shape << ": expected a pool_buffers rejection";
    } catch (const InvalidArgument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("pool_buffers:", 0), 0u)
          << shape << ": " << e.what();
    }
  };
  expect_pool_rejected(gpu_only, options, "gpu-only");
  expect_pool_rejected(hybrid, options, "1 cpu + 1 gpu");
  expect_pool_rejected(sync, options, "synchronous gpu");
  // The synchronous pool also holds the NCC surface: working set 5 + 2.
  options.pool_buffers = 5;
  expect_pool_rejected(sync, options, "synchronous gpu, pool 5");
}

TEST(SchedulerValidation, RequestRejectsBadKnobs) {
  const auto grid = make_grid(2, 2);
  MemoryTileProvider provider(&grid.tiles, grid.layout);

  StitchOptions zero_batch = fast_options();
  zero_batch.gpu_batch_pairs = 0;
  EXPECT_THROW(stitch(Backend::kSimpleCpu, provider, zero_batch),
               InvalidArgument);

  StitchOptions p2p_steal = fast_options();
  p2p_steal.use_p2p = true;
  p2p_steal.kepler_concurrent_fft = true;
  p2p_steal.steal_threshold = 1;
  EXPECT_THROW(stitch(Backend::kPipelinedGpu, provider, p2p_steal),
               InvalidArgument);
}

// --- hybrid shapes and steal-interleaving bit-identity -----------------------

ResourceSet hybrid_set() {
  ResourceSet rs;
  rs.cpu_workers = 2;
  rs.gpu_devices = 2;
  rs.label = "hybrid";
  return rs;
}

StitchOptions steal_options(std::size_t steal_threshold) {
  StitchOptions options = fast_options();
  options.steal_threshold = steal_threshold;
  return options;
}

TEST(HybridScheduling, CpuPlusGpuMatchesReferenceBitExactly) {
  for (const std::uint64_t seed : {7ull, 13ull, 29ull}) {
    const auto grid = make_grid(5, 3, seed);
    MemoryTileProvider provider(&grid.tiles, grid.layout);
    const StitchResult reference =
        stitch(Backend::kSimpleCpu, provider, fast_options());
    const StitchResult hybrid =
        stitch(hybrid_set(), provider, steal_options(1));
    EXPECT_TRUE(tables_identical(reference.table, hybrid.table))
        << "seed " << seed;
    EXPECT_EQ(hybrid.backend_used, "hybrid");
  }
}

TEST(HybridScheduling, StealInterleavingsPreserveLedgerContents) {
  // PCIAM pairs are pure, so no matter which executor wins the race for a
  // pair, the ledger must end up with the same contents as a sequential
  // reference run. Repeat to sample different steal interleavings.
  const auto grid = make_grid(4, 4, 11);
  MemoryTileProvider provider(&grid.tiles, grid.layout);

  StitchOptions ref_options = fast_options();
  PairLedger reference_ledger(grid.layout);
  ref_options.ledger = &reference_ledger;
  stitch(Backend::kSimpleCpu, provider, ref_options);
  const DisplacementTable reference = reference_ledger.snapshot();

  for (int rep = 0; rep < 5; ++rep) {
    StitchOptions options = steal_options(1);
    PairLedger ledger(grid.layout);
    options.ledger = &ledger;
    stitch(hybrid_set(), provider, options);
    EXPECT_TRUE(tables_identical(reference, ledger.snapshot()))
        << "rep " << rep;
  }
}

TEST(HybridScheduling, CpuBandReadsAndTransformsEachTileOnce) {
  // The CPU band runs the same worker as simple-cpu: a transform cache
  // shared by its pairs, so each tile is read and transformed once. On a
  // 5x3 grid with 2 GPUs + the CPU band, rows split {0}, {1,2}, {3,4}: the
  // GPU bands read 3 + 9 tiles (the second with its halo row), and the CPU
  // band's pairs read rows 2-4, 9 tiles. Thieves reuse the spectra already
  // computed for a pair, so the counts hold with stealing too.
  const auto grid = make_grid(5, 3, 43);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const StitchResult reference =
      stitch(Backend::kSimpleCpu, provider, fast_options());
  for (const std::size_t steal : {std::size_t{0}, std::size_t{1}}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
      StitchOptions options = steal_options(steal);
      options.gpu_batch_pairs = batch;
      const StitchResult hybrid = stitch(hybrid_set(), provider, options);
      EXPECT_TRUE(tables_identical(reference.table, hybrid.table))
          << "steal " << steal << ", batch " << batch;
      EXPECT_EQ(hybrid.ops.tile_reads, 21u)
          << "steal " << steal << ", batch " << batch;
      EXPECT_EQ(hybrid.ops.forward_ffts, 21u)
          << "steal " << steal << ", batch " << batch;
    }
  }
}

TEST(HybridScheduling, PrefetchersWarmTheCpuBand) {
  // prefetch_threads is honoured on hybrid shapes: one prefetch span per
  // tile the CPU band reads (rows 2-4 of the 5x3 grid, 9 tiles).
  const auto grid = make_grid(5, 3, 47);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const StitchResult reference =
      stitch(Backend::kSimpleCpu, provider, fast_options());
  ResourceSet rs = hybrid_set();
  rs.prefetch_threads = 1;
  trace::Recorder recorder;
  StitchOptions options = fast_options();
  options.recorder = &recorder;
  const StitchResult hybrid = stitch(rs, provider, options);
  EXPECT_TRUE(tables_identical(reference.table, hybrid.table));
  std::size_t prefetches = 0;
  for (const trace::Span& span : recorder.spans()) {
    if (span.name == "prefetch") ++prefetches;
  }
  EXPECT_EQ(prefetches, 9u);
}

TEST(HybridScheduling, StealDisabledKeepsLegacyBehaviorReachable) {
  // steal_threshold = 0 must still be a valid hybrid configuration (static
  // band split, no stealing) and produce the same table.
  const auto grid = make_grid(4, 3, 17);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const StitchResult reference =
      stitch(Backend::kSimpleCpu, provider, fast_options());
  const StitchResult hybrid = stitch(hybrid_set(), provider, steal_options(0));
  EXPECT_TRUE(tables_identical(reference.table, hybrid.table));
}

// --- batched vgpu dispatch ---------------------------------------------------

TEST(BatchedDispatch, BitIdenticalAndFewerEnqueues) {
  const auto grid = make_grid(6, 4, 19);
  MemoryTileProvider provider(&grid.tiles, grid.layout);

  // A small per-launch delay models kernel-launch overhead: it slows every
  // submitting thread, so work accumulates in the queues and grouping has
  // something to group — exactly the small-tile regime batching targets.
  auto run = [&](std::size_t batch) {
    fault::FaultPlan faults;
    faults.set_delay_us(fault::Site::kStreamExec, 200, "gpu0");
    StitchOptions options = fast_options();
    options.gpu_count = 1;
    options.gpu_batch_pairs = batch;
    options.faults = &faults;
    metrics::Counter& enqueues =
        metrics::wellknown::vgpu_stream_enqueues_total();
    const std::uint64_t before = enqueues.value();
    const StitchResult result =
        stitch(Backend::kPipelinedGpu, provider, options);
    return std::pair{result, enqueues.value() - before};
  };

  const auto [unbatched, enqueues_1] = run(1);
  const auto [batched, enqueues_8] = run(8);

  EXPECT_TRUE(tables_identical(unbatched.table, batched.table));
  EXPECT_EQ(truth_accuracy(grid, batched.table), 1.0);
  // Semantic op counts are grouping-invariant.
  EXPECT_EQ(unbatched.ops.forward_ffts, batched.ops.forward_ffts);
  EXPECT_EQ(unbatched.ops.ncc_multiplies, batched.ops.ncc_multiplies);
  EXPECT_EQ(unbatched.ops.inverse_ffts, batched.ops.inverse_ffts);
  // Grouping exists to shrink launch traffic. Under the modeled launch
  // overhead the reduction is large (the bench records >= 4x in release
  // builds); assert a conservative 2x so sanitizer builds stay stable.
  EXPECT_LT(enqueues_8 * 2, enqueues_1)
      << "batch=8 issued " << enqueues_8 << " enqueues vs " << enqueues_1
      << " at batch=1";
}

TEST(BatchedDispatch, BatchOfOneIsExactlyLegacyDispatch) {
  // gpu_batch_pairs = 1 must not change enqueue counts at all: same pair
  // sequence, same per-pair commands.
  const auto grid = make_grid(3, 3, 23);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  metrics::Counter& enqueues =
      metrics::wellknown::vgpu_stream_enqueues_total();

  StitchOptions options = fast_options();
  options.gpu_count = 1;
  const std::uint64_t before_a = enqueues.value();
  const StitchResult a = stitch(Backend::kPipelinedGpu, provider, options);
  const std::uint64_t delta_a = enqueues.value() - before_a;

  options.gpu_batch_pairs = 1;
  const std::uint64_t before_b = enqueues.value();
  const StitchResult b = stitch(Backend::kPipelinedGpu, provider, options);
  const std::uint64_t delta_b = enqueues.value() - before_b;

  EXPECT_TRUE(tables_identical(a.table, b.table));
  EXPECT_EQ(delta_a, delta_b);
}

TEST(BatchedDispatch, BatchOfOneIssuesPerTileAndPerPairCommands) {
  // At gpu_batch_pairs = 1 the GPU stages issue one upload, one forward FFT
  // and one announcement per tile read, and one NCC, one inverse FFT and one
  // reduction per pair, under exactly these labels. Enqueue counts and the
  // per-layer vgpu metrics of the end-to-end benchmark both key on them.
  const auto grid = make_grid(3, 4, 37);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const std::size_t pairs = grid.layout.pair_count();
  for (const bool real_fft : {false, true}) {
    for (const std::size_t gpus : {std::size_t{1}, std::size_t{2}}) {
      trace::Recorder recorder;
      StitchOptions options = fast_options();
      options.use_real_fft = real_fft;
      options.gpu_count = gpus;
      options.recorder = &recorder;
      stitch(Backend::kPipelinedGpu, provider, options);

      std::map<std::string, std::size_t> labels;
      for (const trace::Span& span : recorder.spans()) {
        if (span.lane.rfind("gpu", 0) == 0) ++labels[span.name];
      }
      // Without p2p every band below the first re-reads its halo row.
      const std::size_t tiles =
          grid.layout.tile_count() + (gpus - 1) * grid.layout.cols;
      const std::map<std::string, std::size_t> expected = {
          {"memcpy_h2d", tiles},
          {real_fft ? "fft2d_r2c" : "fft2d", tiles},
          {"announce", tiles},
          {"ncc", pairs},
          {real_fft ? "ifft2d_c2r" : "ifft2d", pairs},
          {"max_reduce", pairs}};
      EXPECT_EQ(labels, expected)
          << (real_fft ? "r2c" : "complex") << ", " << gpus << " gpu(s)";
    }
  }
}

TEST(BatchedDispatch, GroupedLaunchesMatchSimpleCpuUnderKeplerAndP2p) {
  // Grouping combined with concurrent FFT kernels on two fft streams, and
  // with p2p halo sharing (whose halo pulls always travel as groups of one).
  const auto grid = make_grid(5, 4, 41);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const StitchResult reference =
      stitch(Backend::kSimpleCpu, provider, fast_options());

  StitchOptions kepler = fast_options();
  kepler.gpu_count = 1;
  kepler.gpu_batch_pairs = 4;
  kepler.kepler_concurrent_fft = true;
  kepler.fft_streams = 2;
  EXPECT_TRUE(tables_identical(
      reference.table,
      stitch(Backend::kPipelinedGpu, provider, kepler).table));

  StitchOptions p2p = fast_options();
  p2p.gpu_count = 2;
  p2p.gpu_batch_pairs = 4;
  p2p.use_p2p = true;
  EXPECT_TRUE(tables_identical(
      reference.table, stitch(Backend::kPipelinedGpu, provider, p2p).table));
}

// --- straggler rescue --------------------------------------------------------

TEST(WorkStealing, RescuesStragglerVgpuStream) {
  // One vgpu's displacement stream is delayed per launch (the straggler). A
  // static split (steal 0) leaves that band's pairs to it alone; with
  // stealing, the other executors take pairs from the straggler's lane.
  // Gated on the steal counters and the trace's steal instants, not on
  // wall clock; bench/table2_runtimes holds the recovered-time budget.
  const auto grid = make_grid(8, 4, 31);
  MemoryTileProvider provider(&grid.tiles, grid.layout);

  const auto steals_total = [] {
    std::uint64_t total = 0;
    for (const char* direction :
         {"cpu_from_gpu", "gpu_from_cpu", "gpu_from_gpu"}) {
      total += metrics::wellknown::sched_steals_total(direction).value();
    }
    return total;
  };
  const auto run = [&](std::size_t steal_threshold,
                       trace::Recorder* recorder) {
    fault::FaultPlan faults;
    faults.set_delay_us(fault::Site::kStreamExec, 2000, "gpu1.disp");
    StitchOptions options = steal_options(steal_threshold);
    options.faults = &faults;
    options.recorder = recorder;
    const std::uint64_t before = steals_total();
    const StitchResult result = stitch(hybrid_set(), provider, options);
    return std::pair{result.table, steals_total() - before};
  };

  const auto [static_table, static_steals] = run(0, nullptr);
  EXPECT_EQ(static_steals, 0u);

  trace::Recorder recorder;
  const auto [steal_table, steals] = run(1, &recorder);
  EXPECT_GT(steals, 0u);
  std::size_t from_straggler = 0;
  for (const trace::Span& span : recorder.spans()) {
    if (span.lane == "sched" && span.name.ends_with("<-gpu1")) {
      ++from_straggler;
    }
  }
  EXPECT_GT(from_straggler, 0u) << steals << " steals, none from gpu1";

  // Stealing and the straggler reorder work, never change it.
  EXPECT_TRUE(tables_identical(static_table, steal_table));
  EXPECT_EQ(truth_accuracy(grid, steal_table), 1.0);
}

}  // namespace
}  // namespace hs::stitch
