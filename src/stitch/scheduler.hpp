// The hybrid scheduler — stitch(ResourceSet), the one dispatch loop behind
// every backend.
//
// The paper's six implementations (NaivePairwise, Simple-CPU, MT-CPU,
// Pipelined-CPU, Simple-GPU, Pipelined-GPU) share the same unit of work — an
// independent PCIAM pair task — but historically each hand-rolled its own
// dispatch loop. This module collapses them into one scheduler parameterized
// by a ResourceSet: a shared pool of pair-task lanes fed in the existing
// traversal order, claimed by N CPU workers and/or M virtual GPUs. Each
// legacy Backend enum value is just a ResourceSet factory preset
// (ResourceSet::for_backend), and hybrid CPU+GPU configurations that no
// enum value names become expressible.
//
// Two run paths, one CPU worker. The synchronous Simple-GPU shape has its
// own loop; every other shape runs on the pipelined executor, which adds a
// six-stage pipeline per asynchronous GPU (none for CPU-only shapes) and
// CPU workers on the CPU band — the bottom rows of the grid, or all of it
// without GPUs. Every CPU worker, and any GPU thief of a CPU-band pair,
// completes pairs through one host pair body: the transform cache plus the
// cross-job pair memo, or naive-style without a cache. A tile's initial
// reference count is the number of the executor's pairs that read it.
//
// A ResourceSet names executors only. The two scheduling knobs that ride on
// the unified loop live in StitchOptions, next to every other option; both
// are off by default so every legacy configuration stays bit-identical to
// its pre-scheduler behavior:
//
//  * Demand-driven work stealing (steal_threshold > 0): an executor whose
//    lane runs dry pulls a pair from the deepest other lane — idle vgpu
//    streams pull CPU-queued pairs and vice versa — but only while the
//    victim holds more than steal_threshold queued pairs (hysteresis, so a
//    GPU keeps batch-sized chunks of its own work). Efficient Irregular
//    Wavefront Propagation Algorithms on Hybrid CPU-GPU Machines shows this
//    closes exactly the straggler gap a static split leaves open. Safe
//    because PCIAM pairs are pure: any executor produces the bit-identical
//    Translation, so steals reorder work without changing the table.
//
//  * Batched vgpu dispatch (gpu_batch_pairs = k > 1): k pair tasks are
//    claimed together and issued as ONE grouped launch through
//    vgpu::k_batched (and k tile uploads/FFTs share one enqueue), amortizing
//    Stream::enqueue overhead the way Accelerating Pathology Image Data
//    Cross-Comparison on CPU-GPU Hybrid Systems batches small GPU tasks.
//    The group size is a value inside each GPU stage, not a second set of
//    stages: k = 1 is the per-item dispatch. Semantic op counts
//    (forward_ffts, ncc_multiplies, ...) are bumped per pair regardless of
//    grouping; only hs_vgpu_stream_enqueues_total shrinks.
//
// Transform memory is decided once, by the scheduler's shape rule: how the
// grid splits into executor bands, how many transform slots each
// executor's pool holds, whether those pools cover the traversal's working
// set (check_shape), and what the shape costs in bytes (shape_pool_bytes).
// The executors allocate from it, stitch(ResourceSet) checks it on entry,
// and StitchRequest's validate() and predicted_pool_bytes() reach it
// through for_backend.
//
// Observability: hs_sched_steals_total{direction}, hs_sched_batch_size,
// hs_sched_executor_busy{executor}, and steal instants in the "sched" trace
// lane (created lazily, so steal-free runs record no extra lane).
#pragma once

#include <string>

#include "stitch/stitcher.hpp"

namespace hs::stitch {

/// The executors a stitch runs on. Legacy backends map onto these via
/// for_backend(); hybrid shapes (cpu_workers > 0 AND gpu_devices > 0) are
/// reachable through the ResourceSet API only. The scheduling knobs
/// (steal_threshold, gpu_batch_pairs) are StitchOptions fields.
struct ResourceSet {
  /// CPU pair workers. 0 = GPU-only configuration.
  std::size_t cpu_workers = 1;
  /// Dedicated transform-prefetch threads warming the TransformCache ahead
  /// of the workers on the CPU band (the Pipelined-CPU reader stage), on
  /// CPU-only and hybrid shapes alike. Requires use_transform_cache.
  std::size_t prefetch_threads = 0;
  /// Compute each tile's forward transform once and share it (every backend
  /// except the Fiji-style naive baseline).
  bool use_transform_cache = true;
  /// Virtual GPUs, one execution pipeline each. 0 = CPU-only.
  std::size_t gpu_devices = 0;
  /// Simple-GPU mode: one caller thread drives one GPU through a single
  /// default stream, synchronizing after every command (no overlap).
  bool synchronous_gpu = false;
  /// Label for metrics (hs_stitch_pair_latency_us{backend=...}) and
  /// result.backend_used.
  std::string label = "custom";

  /// The ResourceSet a legacy Backend name denotes.
  static ResourceSet for_backend(Backend backend,
                                 const StitchOptions& options);
};

/// The shape rule's check: throws InvalidArgument ("<field>: ...") for an
/// inconsistent ResourceSet, an out-of-range scheduling knob, or a pool
/// that cannot cover its executor's working set (which would starve the
/// executor forever).
void check_shape(const ResourceSet& resources, const img::GridLayout& layout,
                 const StitchOptions& options);

/// The shape rule's price: peak transform-pool footprint in bytes (host +
/// device) on the provider's grid and tiles — what the serve layer admits
/// against. Conservative for the bookkeeping overheads it rounds up.
std::size_t shape_pool_bytes(const ResourceSet& resources,
                             const TileProvider& provider,
                             const StitchOptions& options);

/// Runs phase 1 on the executors `resources` names — the scheduler's one
/// entry point. Preserves every backend contract: per-pair cancellation
/// polling, warm-start filtering, ledger recording, fault hooks, and
/// bit-identical tables in both FFT modes. Throws InvalidArgument when
/// check_shape() rejects the shape, and like the legacy backends at runtime
/// (IoError, DeviceError, OutOfDeviceMemory, Cancelled, ...); request.cpp's
/// fallback chains catch the same exceptions they always did.
StitchResult stitch(const ResourceSet& resources, const TileProvider& provider,
                    const StitchOptions& options = StitchOptions());

}  // namespace hs::stitch
