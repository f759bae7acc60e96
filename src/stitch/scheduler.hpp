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
// Two extensions ride on the unified loop, both off by default so every
// legacy configuration stays bit-identical to its pre-scheduler behavior:
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
// Observability: hs_sched_steals_total{direction}, hs_sched_batch_size,
// hs_sched_executor_busy{executor}, and steal instants in the "sched" trace
// lane (created lazily, so steal-free runs record no extra lane).
#pragma once

#include <string>

#include "stitch/stitcher.hpp"

namespace hs::stitch {

/// The executors a stitch runs on, plus the scheduling knobs. Legacy
/// backends map onto these via for_backend(); hybrid shapes (cpu_workers > 0
/// AND gpu_devices > 0) are reachable through the ResourceSet API only.
struct ResourceSet {
  /// CPU pair workers. 0 = GPU-only configuration.
  std::size_t cpu_workers = 1;
  /// Dedicated transform-prefetch threads warming the TransformCache ahead
  /// of the workers (the Pipelined-CPU reader stage). Requires
  /// use_transform_cache.
  std::size_t prefetch_threads = 0;
  /// Compute each tile's forward transform once and share it (every backend
  /// except the Fiji-style naive baseline).
  bool use_transform_cache = true;
  /// Virtual GPUs, one execution pipeline each. 0 = CPU-only.
  std::size_t gpu_devices = 0;
  /// Simple-GPU mode: one caller thread drives one GPU through a single
  /// default stream, synchronizing after every command (no overlap).
  bool synchronous_gpu = false;
  /// Work-stealing hysteresis; see StitchOptions::steal_threshold.
  std::size_t steal_threshold = 0;
  /// Pairs per grouped vgpu launch; see StitchOptions::gpu_batch_pairs.
  std::size_t gpu_batch_pairs = 1;
  /// Label for metrics (hs_stitch_pair_latency_us{backend=...}) and
  /// result.backend_used.
  std::string label = "custom";

  /// The ResourceSet a legacy Backend name denotes. steal_threshold and
  /// gpu_batch_pairs are copied from the options (both default to the
  /// legacy-exact behavior).
  static ResourceSet for_backend(Backend backend,
                                 const StitchOptions& options);

  /// Human-readable shape, e.g. "2 cpu + 1 prefetch + 2 gpu (steal>1)".
  std::string describe() const;
};

/// Runs phase 1 on the executors `resources` names — the scheduler's one
/// entry point. Preserves every backend contract: per-pair cancellation
/// polling, warm-start filtering, ledger recording, fault hooks, and
/// bit-identical tables in both FFT modes. Throws InvalidArgument for an
/// inconsistent ResourceSet, and like the legacy backends at runtime
/// (IoError, DeviceError, OutOfDeviceMemory, Cancelled, ...); request.cpp's
/// fallback chains catch the same exceptions they always did.
StitchResult stitch(const ResourceSet& resources, const TileProvider& provider,
                    const StitchOptions& options = StitchOptions());

}  // namespace hs::stitch
