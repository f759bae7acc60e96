#pragma once

// Canonical metric families for the stitching pipeline. This header is the
// naming table: every instrumented module fetches its handles through these
// accessors so the schema lives in one place and the global exposition always
// carries the full family set (register_wellknown pre-registers the fixed
// label sets, zero-valued, on first Registry::global() access).
//
// Naming convention: hs_<area>_<what>[_total|_us|_bytes]. Counters end in
// _total, histograms of wall time in _us, byte gauges in _bytes. Labels are
// closed vocabularies (rigor, backend, queue) — never unbounded values.
//
// Only strings are shared here: this module depends on nothing but hs_common,
// so fft/stitch/vgpu/pipeline/serve can all link it without cycles.

#include <string>

#include "common/simd.hpp"
#include "metrics/metrics.hpp"

namespace hs::metrics::wellknown {

// Label vocabularies (kept in sync with fft::Rigor and stitch::backend_name).
inline constexpr const char* kRigors[] = {"estimate", "measure", "patient"};
inline constexpr const char* kBackends[] = {"naive-pairwise", "simple-cpu",
                                            "mt-cpu",         "pipelined-cpu",
                                            "simple-gpu",     "pipelined-gpu"};

// SIMD dispatch vocabularies (kept in sync with common::SimdTier and the
// codelet families in fft/codelets.hpp + vgpu/kernels.hpp).
inline constexpr const char* kSimdTiers[] = {"scalar", "sse2", "avx2"};
inline constexpr const char* kKernelFamilies[] = {"fft", "ncc", "max_abs",
                                                  "u16_convert"};

// --- fft ---
Counter& plan_cache_hits(const std::string& rigor);
Counter& plan_cache_misses(const std::string& rigor);
Histogram& plan_build_us(const std::string& rigor);
/// Plan-cache hits by the cached plan's codelet tier (which codelet variants
/// are actually being re-executed, complementing the per-rigor counters).
Counter& plan_cache_tier_hits(const std::string& tier);

// --- SIMD kernel dispatch (info-style gauges) ---
/// hs_kernel_dispatch{family,tier}: 1 on the tier the family last dispatched
/// to, 0 elsewhere — an exposition shows exactly which codelets run.
Gauge& kernel_dispatch(const std::string& family, const std::string& tier);
/// Flips the family's gauges so only `tier` reads 1. Dispatch sites call
/// this on tier changes (first use, forced-dispatch updates).
void note_kernel_dispatch(const std::string& family, common::SimdTier tier);

// --- stitch transform cache ---
Counter& transform_cache_hits();
Counter& transform_cache_misses();
Counter& transform_cache_evictions();
Gauge& transform_cache_resident_bytes();

// --- cross-job shared spectrum/pair cache (label: kind) ---
/// Entry kinds form a closed vocabulary: tile spectra and memoized pair
/// displacements share one LRU but are counted separately.
inline constexpr const char* kSharedCacheKinds[] = {"spectrum", "pair"};
Counter& shared_cache_hits(const std::string& kind);
Counter& shared_cache_misses(const std::string& kind);
Counter& shared_cache_evictions();
Counter& shared_cache_quota_refusals();
Gauge& shared_cache_resident_bytes();

// --- disk spill tier under the shared cache (stitch/spectrum_store.hpp) ---
/// A spill hit is a spectrum served from disk instead of a forward FFT; a
/// corrupt frame is a CRC/framing failure detected at load or recover time
/// (the frame is deleted and the spectrum recomputed as a miss).
Counter& spill_hits();
Counter& spill_misses();
Counter& spill_bytes_written();
Counter& spill_bytes_read();
Counter& spill_corrupt_frames();
Counter& spill_write_failures();
Gauge& spill_frames();

// --- vgpu buffer pools ---
Counter& pool_allocs_total();
Counter& pool_acquires_total();
Gauge& pool_bytes();
Histogram& pool_wait_us();

// --- pipeline queues (label: queue name) ---
Gauge& queue_depth(const std::string& queue);
Histogram& queue_push_wait_us(const std::string& queue);
Histogram& queue_pop_wait_us(const std::string& queue);

// --- per-pair PCIAM latency (label: backend) ---
Histogram& pair_latency_us(const std::string& backend);

// --- hybrid scheduler ---
/// Steal directions form a closed vocabulary: a single shared CPU lane makes
/// cpu_from_cpu impossible by construction.
inline constexpr const char* kStealDirections[] = {"cpu_from_gpu",
                                                   "gpu_from_cpu",
                                                   "gpu_from_gpu"};
Counter& sched_steals_total(const std::string& direction);
/// Pair tasks claimed per dispatch round (1 = unbatched legacy behavior).
Histogram& sched_batch_size();
/// 1 while the named executor is running a claimed task, 0 while it waits.
Gauge& sched_executor_busy(const std::string& executor);

// --- vgpu streams ---
/// Commands pushed through Stream::enqueue (kernel launches + copies; event
/// record/wait bypass the queue and are excluded). Batched dispatch shrinks
/// this without changing the semantic op counts.
Counter& vgpu_stream_enqueues_total();

// --- fault handling ---
Counter& fault_retries_total();
Counter& fault_quarantined_tiles_total();

// --- serve ---
Counter& serve_jobs_submitted_total();
Counter& serve_jobs_admitted_total();
Counter& serve_jobs_done_total();
Counter& serve_jobs_failed_total();
Counter& serve_jobs_cancelled_total();
Counter& serve_fallbacks_total();
Histogram& serve_queue_wait_us();
Histogram& serve_run_us();
Gauge& serve_memory_in_use_bytes();
Gauge& serve_queue_depth();
Counter& serve_deadline_exceeded_total();
Counter& serve_shed_total();
Counter& serve_watchdog_stalls_total();
/// 0 = closed, 1 = open, 2 = half-open (matches serve::BreakerState).
Gauge& serve_breaker_state();
/// Admissions deferred (job stays queued) because memory sat above a
/// watermark; distinct from shed/rejected — deferred jobs run later.
Counter& serve_watermark_deferrals_total();
/// 0 below the soft watermark, 1 between soft and hard, 2 at/above hard.
Gauge& serve_memory_pressure();

// --- per-tenant serve accounting (label: tenant — an open vocabulary, so
// these are declare()d like queue names and instantiated on first use; the
// "default" tenant is pre-registered so a fresh exposition shows the shape).
Counter& tenant_jobs_admitted(const std::string& tenant);
Counter& tenant_quota_deferrals(const std::string& tenant);
Gauge& tenant_memory_in_use_bytes(const std::string& tenant);

// --- journal (write-ahead durability, serve/journal.hpp) ---
/// Replay outcomes form a closed vocabulary: resumed (warm-started from a
/// verified checkpoint), fresh (no/unusable checkpoint, re-ran from
/// scratch), unresolved (no provider could be rebound; job left in the
/// journal for a later recovery).
inline constexpr const char* kReplayOutcomes[] = {"resumed", "fresh",
                                                  "unresolved"};
Counter& journal_appends_total();
Counter& journal_fsyncs_total();
Counter& journal_truncated_records_total();
Counter& journal_replay_jobs_total(const std::string& outcome);
/// Bytes across the journal's live segment files.
Gauge& journal_bytes();

// Pre-register every family above (with fixed label sets instantiated) so an
// exposition taken before any activity still shows the whole schema.
void register_wellknown(Registry& registry);

}  // namespace hs::metrics::wellknown
