// The hybrid scheduler: the one dispatch loop behind all six legacy backends
// (see scheduler.hpp for the design rationale). Two run paths, one CPU
// worker. Layout of this file:
//
//   WorkPool            lanes of pair tasks, the claim/steal protocol and
//                       the executor loop (drain)
//   pair helpers        the naive host pair, table writes
//   ExecutorShape       the shape rule: CPU and GPU bands and pool slots
//   DeviceFft           one device's in-place forward/inverse FFT plans
//   run_gpu_sync        the synchronous single-stream Simple-GPU shape
//   run_pipelined       every other shape: per asynchronous GPU one read,
//                       copy, fft, bookkeeping and displacement stage whose
//                       copy/fft/displacement bodies issue groups of up to k
//                       items (k = 1 is per-item dispatch); CPU workers and
//                       prefetchers on the CPU band (the whole grid without
//                       GPUs), completing pairs through one host pair body
//   ResourceSet presets, the shape rule's check and price, stitch()
#include "stitch/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_util.hpp"
#include "metrics/wellknown.hpp"
#include "pipeline/pipeline.hpp"
#include "stitch/ccf.hpp"
#include "stitch/ledger.hpp"
#include "stitch/pciam.hpp"
#include "stitch/transform_cache.hpp"
#include "trace/trace.hpp"
#include "vgpu/buffer_pool.hpp"
#include "vgpu/kernels.hpp"
#include "vgpu/stream.hpp"
#include "vgpu/vfft.hpp"

namespace hs::stitch {

namespace {

// ---------------------------------------------------------------------------
// Work pool: per-executor lanes of pair tasks + the claim/steal protocol.
// ---------------------------------------------------------------------------

/// The scheduler's unit of work is one PairTask (ledger.hpp). PCIAM pairs
/// are pure — any executor computes the bit-identical Translation — which
/// is what makes claiming and stealing reorder-safe.
class WorkPool {
 public:
  enum class Kind { kCpu, kGpu };

  struct Claim {
    std::vector<PairTask> tasks;
    bool stolen = false;
    std::size_t victim = 0;  // lane index, valid when stolen
  };

  WorkPool(std::size_t steal_threshold, hs::trace::Recorder* recorder)
      : steal_threshold_(steal_threshold),
        recorder_(recorder),
        metric_batch_(metrics::wellknown::sched_batch_size()),
        steal_cpu_from_gpu_(
            metrics::wellknown::sched_steals_total("cpu_from_gpu")),
        steal_gpu_from_cpu_(
            metrics::wellknown::sched_steals_total("gpu_from_cpu")),
        steal_gpu_from_gpu_(
            metrics::wellknown::sched_steals_total("gpu_from_gpu")) {}

  /// Lanes must all be added before any push/claim traffic.
  std::size_t add_lane(std::string name, Kind kind) {
    auto lane = std::make_unique<Lane>();
    lane->name = std::move(name);
    lane->kind = kind;
    lane->queue.instrument("sched." + lane->name);
    lanes_.push_back(std::move(lane));
    return lanes_.size() - 1;
  }

  bool push(std::size_t lane, PairTask task) {
    return lanes_[lane]->queue.push(std::move(task));
  }
  void close(std::size_t lane) { lanes_[lane]->queue.close(); }
  void close_all() {
    for (auto& lane : lanes_) lane->queue.close();
  }

  /// Claims up to `max_n` tasks for the executor owning `lane_index`.
  /// Returns own-lane tasks in lane order (up to max_n per round), a single
  /// stolen task when the own lane is dry and a victim is raidable, or an
  /// empty claim once every lane is drained (the executor's exit signal).
  Claim claim(std::size_t lane_index, std::size_t max_n) {
    Lane& own = *lanes_[lane_index];
    Claim claim;
    for (;;) {
      while (claim.tasks.size() < max_n) {
        auto task = own.queue.try_pop();
        if (!task) break;
        claim.tasks.push_back(std::move(*task));
      }
      // Batch formation window: grouped dispatchers (max_n > 1) consume
      // pairs as fast as bookkeeping announces them, so an instant launch
      // would mostly issue singleton batches. Hold a partial batch for
      // bounded timed pops while the producer is still running — the wait
      // is amortized against the per-launch overhead batching exists to
      // avoid; a timed-out pop means the producer stalled, so dispatch
      // what we have rather than add latency.
      while (!claim.tasks.empty() && claim.tasks.size() < max_n) {
        auto task = own.queue.pop_for(std::chrono::microseconds(500));
        if (!task) break;
        claim.tasks.push_back(std::move(*task));
      }
      if (!claim.tasks.empty()) {
        metric_batch_.observe(claim.tasks.size());
        return claim;
      }
      if (steal_threshold_ == 0 || lanes_.size() == 1) {
        // Stealing disabled (or nobody to steal from): legacy blocking
        // consumption of the own lane.
        auto task = own.queue.pop();
        if (!task) return claim;  // closed and drained: executor done
        claim.tasks.push_back(std::move(*task));
        continue;  // top up toward max_n without blocking
      }
      // Steal scan: raid the deepest lane still above its floor. An OPEN
      // lane's floor is the hysteresis threshold (its owner keeps
      // batch-sized chunks of its own work); a CLOSED lane's floor is zero —
      // its producer is finished (or dead, after a cancellation), so
      // leftover depth is pure tail latency and holding the threshold
      // against it would strand that work forever.
      Lane* victim = nullptr;
      std::size_t victim_index = 0;
      std::size_t victim_depth = 0;
      for (std::size_t i = 0; i < lanes_.size(); ++i) {
        if (i == lane_index) continue;
        Lane& other = *lanes_[i];
        const std::size_t depth = other.queue.size();
        const std::size_t floor = other.queue.closed() ? 0 : steal_threshold_;
        if (depth > floor && depth > victim_depth) {
          victim = &other;
          victim_index = i;
          victim_depth = depth;
        }
      }
      if (victim != nullptr) {
        if (auto task = victim->queue.try_steal()) {
          note_steal(own, *victim);
          claim.tasks.push_back(std::move(*task));
          claim.stolen = true;
          claim.victim = victim_index;
          metric_batch_.observe(1);
          return claim;
        }
        continue;  // raced another thief; rescan
      }
      // Nothing stealable right now.
      bool all_drained = true;
      for (const auto& lane : lanes_) {
        if (!lane->queue.drained()) {
          all_drained = false;
          break;
        }
      }
      if (all_drained) return claim;  // empty claim: all work finished
      if (own.queue.drained()) {
        // Own lane finished but another lane's producer is still running;
        // wait for its depth to cross the steal floor (or for global drain).
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        continue;
      }
      if (auto task = own.queue.pop_for(std::chrono::milliseconds(1))) {
        claim.tasks.push_back(std::move(*task));
      }
    }
  }

  /// The executor loop: hands each claim of up to `max_n` tasks to `body`,
  /// with the executor's busy gauge raised while it runs, until every lane
  /// drains.
  template <typename Body>
  void drain(std::size_t lane_index, std::size_t max_n,
             const std::string& executor, Body&& body) {
    metrics::Gauge& busy = metrics::wellknown::sched_executor_busy(executor);
    for (;;) {
      Claim claim = this->claim(lane_index, max_n);
      if (claim.tasks.empty()) return;
      busy.set(1);
      body(claim);
      busy.set(0);
    }
  }

 private:
  struct Lane {
    std::string name;
    Kind kind = Kind::kCpu;
    pipe::BoundedQueue<PairTask> queue;
  };

  void note_steal(const Lane& thief, const Lane& victim) {
    if (thief.kind == Kind::kCpu) {
      // The CPU executors share one lane, so a CPU thief's victim is a GPU.
      steal_cpu_from_gpu_.add();
    } else if (victim.kind == Kind::kCpu) {
      steal_gpu_from_cpu_.add();
    } else {
      steal_gpu_from_gpu_.add();
    }
    if (recorder_ != nullptr) {
      const std::uint64_t t = recorder_->now_us();
      recorder_->record("sched", "steal " + thief.name + "<-" + victim.name,
                        t, t);
    }
  }

  const std::size_t steal_threshold_;
  hs::trace::Recorder* recorder_;
  metrics::Histogram& metric_batch_;
  metrics::Counter& steal_cpu_from_gpu_;
  metrics::Counter& steal_gpu_from_cpu_;
  metrics::Counter& steal_gpu_from_gpu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

// ---------------------------------------------------------------------------
// Pair helpers shared by every shape.
// ---------------------------------------------------------------------------

/// A pair computed naive-style (the Fiji baseline): both tiles re-read and
/// re-transformed for this pair alone, no reuse.
Translation naive_pair(const TileProvider& provider, const PairTask& task,
                       const FftPipeline& fftp, PciamScratch& scratch,
                       OpCountsAtomic& counts, const StitchOptions& options) {
  const img::ImageU16 a = provider.load(task.reference);
  const img::ImageU16 b = provider.load(task.moved);
  counts.bump(counts.tile_reads, 2);
  return pciam_full(a, b, fftp, scratch, &counts, options.peak_candidates,
                    options.min_overlap_px);
}

/// Writes a finished pair into the table and reports it to the ledger and
/// progress counter.
void record_pair(DisplacementTable& table, const StitchOptions& options,
                 img::TilePos moved, bool is_west, const Translation& t) {
  (is_west ? table.west_of(moved) : table.north_of(moved)) = t;
  note_pair_result(options, moved, is_west, t);
}

// ---------------------------------------------------------------------------
// The shape rule: how a ResourceSet splits the grid into executor bands and
// how many transform slots each executor's pool holds. The executors
// allocate from it; check_shape() and shape_pool_bytes() check and price it.
// ---------------------------------------------------------------------------

struct ExecutorShape {
  /// One executor's share of the grid: the rows whose pairs it owns (a pair
  /// belongs to the band of its south/east tile), the tiles it reads
  /// (band_layout: those rows plus, below the first band, the halo row
  /// above), and its transform pool slots — an asynchronous GPU's forward
  /// pool, or the CPU band's prefetch budget.
  struct Band {
    RowBand rows;
    img::GridLayout layout;
    std::size_t pool_slots = 0;
  };

  /// Per asynchronous GPU: NCC buffers, kept apart from the forward pool so
  /// the copier can never starve the displacement stage (the deadlock a
  /// single shared pool invites), and tiles read ahead of the copier.
  static constexpr std::size_t kNccSlots = 2;
  static constexpr std::size_t kReadAheadTiles = 8;

  /// Asynchronous GPU bands in device order; empty for CPU-only and
  /// synchronous shapes.
  std::vector<Band> gpu_bands;
  /// The CPU workers' band, below every GPU band: the whole grid without
  /// GPUs, none without CPU workers or when the GPUs take every row.
  std::optional<Band> cpu_band;
  /// run_gpu_sync's whole-grid device pool; 0 for every other shape.
  std::size_t pool_slots = 0;
};

ExecutorShape plan_shape(const ResourceSet& rs, const img::GridLayout& layout,
                         const StitchOptions& options) {
  ExecutorShape shape;
  if (rs.synchronous_gpu) {
    shape.pool_slots =
        pool_size(layout, options.traversal, options.pool_buffers);
    return shape;
  }
  const auto band = [&](RowBand rows) {
    const img::GridLayout grid = band_layout(layout, rows);
    return ExecutorShape::Band{
        rows, grid, pool_size(grid, options.traversal, options.pool_buffers)};
  };
  // Contiguous row bands, one per effective GPU. CPU workers take the
  // bottom band as one more partition unit — an equal-rows static split
  // that stealing refines at runtime. Without GPUs that band is the grid.
  const std::size_t gpus =
      rs.gpu_devices == 0
          ? 0
          : std::max<std::size_t>(1, std::min(rs.gpu_devices, layout.rows));
  const bool cpu_band = rs.cpu_workers > 0 && layout.rows > gpus;
  const std::size_t units = gpus + (cpu_band ? 1 : 0);
  for (std::size_t g = 0; g < gpus; ++g) {
    shape.gpu_bands.push_back(band(row_band(layout.rows, g, units)));
  }
  if (cpu_band) shape.cpu_band = band(row_band(layout.rows, gpus, units));
  return shape;
}

/// One device's FFT plan pair for the configured spectrum mode: c2c both
/// ways, or the padded in-place r2c forward and half-spectrum c2r inverse.
/// Each transform runs in place on the calling stream worker under the
/// device's FFT lock rule (vgpu/vfft.hpp).
class DeviceFft {
 public:
  DeviceFft(vgpu::Device& device, std::size_t h, std::size_t w, bool real_fft,
            fft::Rigor rigor) {
    if (real_fft) {
      forward_r2c_.emplace(device, h, w, rigor);
      inverse_c2r_.emplace(device, h, w, rigor);
    } else {
      forward_.emplace(device, h, w, fft::Direction::kForward, rigor);
      inverse_.emplace(device, h, w, fft::Direction::kInverse, rigor);
    }
  }

  void forward_inplace(fft::Complex* data) const {
    if (forward_r2c_) {
      forward_r2c_->execute_inplace_padded(data);
    } else {
      forward_->execute_inplace(data);
    }
  }
  void inverse_inplace(fft::Complex* data) const {
    if (inverse_c2r_) {
      inverse_c2r_->execute_inplace_half(data);
    } else {
      inverse_->execute_inplace(data);
    }
  }

 private:
  std::optional<vgpu::VFftPlan2d> forward_;
  std::optional<vgpu::VFftPlan2d> inverse_;
  std::optional<vgpu::VFftPlanR2c2d> forward_r2c_;
  std::optional<vgpu::VFftPlanC2r2d> inverse_c2r_;
};

// ---------------------------------------------------------------------------
// Synchronous single-stream GPU shape (the paper's Simple-GPU): one caller
// thread drives one virtual GPU through a single default stream, waiting
// after every command — the pathology profiled in the paper's Fig 7.
// ---------------------------------------------------------------------------

StitchResult run_gpu_sync(const ResourceSet& rs, const ExecutorShape& shape,
                          const TileProvider& provider,
                          const StitchOptions& options) {
  const img::GridLayout layout = provider.layout();
  const std::vector<PairTask> pairs =
      band_pairs(layout, RowBand{0, layout.rows}, options.traversal,
                 WarmFilter(options.warm_start));
  const std::vector<std::size_t> refs = pair_refcounts(layout, pairs);
  StitchResult result(layout);
  OpCountsAtomic counts;

  const std::size_t h = provider.tile_height();
  const std::size_t w = provider.tile_width();
  const std::size_t count = h * w;
  const bool real_fft = options.use_real_fft;
  // Pooled buffers hold spectrum bins: the half-spectrum path shrinks every
  // device buffer (and thus the pool footprint) to h*(w/2+1) bins.
  const std::size_t bins = real_fft ? h * (w / 2 + 1) : count;
  const std::size_t buffer_bytes = bins * sizeof(fft::Complex);

  vgpu::DeviceConfig config;
  config.memory_bytes = options.gpu_memory_bytes;
  config.recorder = options.recorder;
  config.trace_prefix = "gpu0";
  config.faults = options.faults;
  config.cancel = options.cancel;
  vgpu::Device device(config);
  const DeviceFft transforms(device, h, w, real_fft, options.rigor);
  vgpu::Stream stream(device, "default");

  // check_shape() has sized the pool for the working set + NCC buffer.
  vgpu::BufferPool pool(device, shape.pool_slots, buffer_bytes);
  const std::size_t peaks_k = std::max<std::size_t>(1, options.peak_candidates);
  vgpu::DeviceBuffer reduce_out =
      device.alloc(peaks_k * sizeof(vgpu::MaxAbsResult));

  // Per-tile device transform + host tile, reference counted.
  struct TileState {
    vgpu::PooledBuffer transform;
    img::ImageU16 tile;
    std::size_t refs = 0;
  };
  std::map<std::size_t, TileState> states;
  std::size_t live = 0, peak = 0;

  std::vector<fft::Complex> staging(bins);
  auto ensure_tile = [&](img::TilePos pos) -> TileState& {
    const std::size_t index = layout.index_of(pos);
    auto it = states.find(index);
    if (it != states.end()) return it->second;

    TileState state;
    state.refs = refs[index];
    state.tile = provider.load(pos);
    counts.bump(counts.tile_reads);
    // Synchronous H2D copy (the Simple-GPU pathology): convert on the host,
    // copy, wait. The real-FFT path stages the padded in-place r2c layout.
    if (real_fft) {
      vgpu::k_u16_to_real_padded(state.tile.data(), staging.data(), h, w);
    } else {
      vgpu::k_u16_to_complex(state.tile.data(), staging.data(), count);
    }
    state.transform = pool.acquire();
    stream.enqueue("memcpy_h2d", [&staging, dst = state.transform.as<void>(),
                                  buffer_bytes] {
      std::memcpy(dst, staging.data(), buffer_bytes);
    });
    stream.synchronize();
    // FFT in place on the default stream, then wait again.
    fft::Complex* data = state.transform.as<fft::Complex>();
    stream.enqueue(real_fft ? "fft2d_r2c" : "fft2d",
                   [&transforms, data] { transforms.forward_inplace(data); });
    stream.synchronize();
    counts.bump(counts.forward_ffts);
    counts.bump(counts.transform_bins, bins);

    live += 1;
    peak = std::max(peak, live);
    return states.emplace(index, std::move(state)).first->second;
  };

  auto release_tile = [&](img::TilePos pos) {
    const std::size_t index = layout.index_of(pos);
    auto it = states.find(index);
    HS_ASSERT(it != states.end() && it->second.refs > 0);
    if (--it->second.refs == 0) {
      states.erase(it);  // returns the pooled buffer
      live -= 1;
    }
  };

  metrics::Histogram& pair_latency =
      metrics::wellknown::pair_latency_us(rs.label);
  auto run_pair = [&](const PairTask& task) {
    HS_METRIC_TIMER(pair_latency);
    throw_if_cancelled(options);
    TileState& ref = ensure_tile(task.reference);
    TileState& mov = ensure_tile(task.moved);

    vgpu::PooledBuffer ncc = pool.acquire();
    const fft::Complex* fa = ref.transform.as<fft::Complex>();
    const fft::Complex* fb = mov.transform.as<fft::Complex>();
    fft::Complex* fc = ncc.as<fft::Complex>();
    // Each step synchronous on the default stream — no overlap anywhere.
    stream.enqueue("ncc", [fa, fb, fc, bins] {
      vgpu::k_ncc_half(fa, fb, fc, bins);
    });
    stream.synchronize();
    counts.bump(counts.ncc_multiplies);

    stream.enqueue(real_fft ? "ifft2d_c2r" : "ifft2d",
                   [&transforms, fc] { transforms.inverse_inplace(fc); });
    stream.synchronize();
    counts.bump(counts.inverse_ffts);

    auto* reduced = reduce_out.as<vgpu::MaxAbsResult>();
    stream.enqueue("max_reduce", [fc, count, reduced, peaks_k, real_fft] {
      const auto peaks =
          real_fft ? vgpu::k_max_abs_topk_real(
                         reinterpret_cast<const double*>(fc), count, peaks_k)
                   : vgpu::k_max_abs_topk(fc, count, peaks_k);
      for (std::size_t i = 0; i < peaks.size(); ++i) reduced[i] = peaks[i];
      for (std::size_t i = peaks.size(); i < peaks_k; ++i) {
        reduced[i] = vgpu::MaxAbsResult{-1.0, 0};
      }
    });
    stream.synchronize();
    counts.bump(counts.max_reductions);

    // Only the scalar results cross back to the host.
    std::vector<vgpu::MaxAbsResult> peak_results(peaks_k);
    stream.memcpy_d2h(peak_results.data(), reduce_out,
                      peaks_k * sizeof(vgpu::MaxAbsResult));
    stream.synchronize();

    std::vector<std::size_t> indices;
    for (const auto& peak_result : peak_results) {
      if (peak_result.value >= 0.0) indices.push_back(peak_result.index);
    }
    counts.bump(counts.ccf_evaluations, 4 * indices.size());
    const Translation t = disambiguate_peaks(ref.tile, mov.tile, indices, w,
                                             options.min_overlap_px);

    release_tile(task.reference);
    release_tile(task.moved);
    record_pair(result.table, options, task.moved, task.is_west, t);
  };

  // The single "gpu0" lane seeded in closure order and claimed one task at a
  // time reproduces the legacy traversal double-loop exactly (and with only
  // one lane, steal instants cannot occur — the trace lane set stays
  // {"gpu0.default"}).
  WorkPool work(options.steal_threshold, options.recorder);
  const std::size_t lane = work.add_lane("gpu0", WorkPool::Kind::kGpu);
  for (const PairTask& task : pairs) work.push(lane, task);
  work.close(lane);
  work.drain(lane, 1, "gpu0", [&](const WorkPool::Claim& claim) {
    for (const PairTask& task : claim.tasks) run_pair(task);
  });

  result.peak_live_transforms = peak;
  result.ops = counts.snapshot();
  return result;
}

// ---------------------------------------------------------------------------
// The pipelined executor: every shape but the synchronous GPU. Per
// asynchronous GPU a six-stage pipeline (paper SIV-B, Fig 8) over the
// shared work pool, with batched dispatch; CPU workers (plus optional
// prefetchers) on the CPU band; stolen-pair execution. With zero GPUs only
// the CPU stages exist.
// ---------------------------------------------------------------------------

/// Work item flowing through stages 1-3 of one GPU pipeline. A null tile
/// marks a halo position to be pulled via peer-to-peer copy instead of
/// read + transform.
struct TileWork {
  img::TilePos pos;
  std::shared_ptr<const img::ImageU16> tile;
};

/// Stage 6 input: everything the CCF threads need, self-contained.
struct CcfTask {
  std::shared_ptr<const img::ImageU16> reference;
  std::shared_ptr<const img::ImageU16> moved;
  img::TilePos moved_pos;
  bool is_west = false;
  /// Flat correlation-surface peak indices (1 by default; more with the
  /// multi-peak extension).
  std::vector<std::size_t> peak_indices;
};

/// Per-GPU tile state: device transform buffer + host tile + refcount over
/// the pairs *this pipeline* owns (plus one per exported halo transform).
struct GpuTileState {
  vgpu::PooledBuffer buffer;
  std::shared_ptr<const img::ImageU16> tile;
  std::size_t refs = 0;
  bool fft_done = false;
};

/// Cross-pipeline handoff of exported halo transforms (use_p2p mode).
class HaloExchange {
 public:
  struct Entry {
    vgpu::Event ready;                          // signals after the FFT
    const fft::Complex* transform = nullptr;    // owner's device memory
    std::shared_ptr<const img::ImageU16> tile;  // host pixels for CCF
    std::function<void()> release;              // drops the owner's ref
  };

  void publish(std::size_t tile_index, Entry entry) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      entries_.emplace(tile_index, std::move(entry));
    }
    cv_.notify_all();
  }

  /// Blocks until the entry arrives; returns an empty entry (null
  /// transform) if the exchange was shut down by pipeline cancellation.
  Entry take(std::size_t tile_index) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock,
             [&] { return shutdown_ || entries_.contains(tile_index); });
    if (!entries_.contains(tile_index)) return Entry{};
    Entry entry = std::move(entries_.at(tile_index));
    entries_.erase(tile_index);
    return entry;
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::size_t, Entry> entries_;
  bool shutdown_ = false;
};

/// One GPU's execution pipeline context. Pair tasks no longer flow through
/// a private q_pairs queue — bookkeeping feeds this GPU's WorkPool lane,
/// which is what makes the pairs visible to thieves.
struct GpuPipeline {
  std::size_t id = 0;
  std::unique_ptr<vgpu::Device> device;
  std::unique_ptr<vgpu::Stream> copy_stream;
  std::vector<std::unique_ptr<vgpu::Stream>> fft_streams;
  std::unique_ptr<vgpu::Stream> disp_stream;
  std::unique_ptr<vgpu::BufferPool> pool;      // forward-transform buffers
  std::unique_ptr<vgpu::BufferPool> ncc_pool;  // backward (NCC) buffers
  std::optional<DeviceFft> transforms;

  std::vector<img::TilePos> tiles_to_read;     // band (+ halo unless p2p)
  std::vector<PairTask> owned_pairs;
  std::unordered_set<std::size_t> halo_pull;   // p2p: pulled from gpu id-1
  std::unordered_set<std::size_t> halo_export; // p2p: published to gpu id+1

  std::mutex state_mutex;
  std::unordered_map<std::size_t, GpuTileState> states;

  // Stage 1 -> 2, bounded: the reader stalls rather than pulling the whole
  // grid into host memory ahead of the copier.
  pipe::BoundedQueue<TileWork> q_read{ExecutorShape::kReadAheadTiles};
  pipe::BoundedQueue<img::TilePos> q_fft;   // stage 2 -> 3
  pipe::BoundedQueue<img::TilePos> q_ready; // fft/p2p completion -> stage 4

  // q_ready closes when both its producers (copy stage for p2p pulls, fft
  // stage for transforms) have drained their streams.
  std::atomic<std::size_t> ready_producers{2};

  std::atomic<std::size_t> live{0};
  std::atomic<std::size_t> peak{0};

  void close_ready_when_done() {
    if (ready_producers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      q_ready.close();
    }
  }

  void note_live() {
    const std::size_t now = live.fetch_add(1, std::memory_order_relaxed) + 1;
    std::size_t prev = peak.load(std::memory_order_relaxed);
    while (now > prev &&
           !peak.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
    }
  }
};

/// Drops one reference from a tile's per-pipeline state; frees the device
/// buffer and host pixels at zero. Callable from any stream worker (and,
/// with stealing, from whichever executor completed the stolen pair).
void release_tile(GpuPipeline* gpu, const img::GridLayout& layout,
                  img::TilePos pos) {
  std::lock_guard<std::mutex> lock(gpu->state_mutex);
  GpuTileState& state = gpu->states.at(layout.index_of(pos));
  HS_ASSERT(state.refs > 0);
  if (--state.refs == 0) {
    state.buffer.release();
    state.tile.reset();
    gpu->live.fetch_sub(1, std::memory_order_relaxed);
  }
}

/// A claimed pair's inputs as resident on one GPU: both device spectra and
/// both host tiles.
struct PairInputs {
  PairTask pair;
  vgpu::PairDispJob spectra;
  std::shared_ptr<const img::ImageU16> reference;
  std::shared_ptr<const img::ImageU16> moved;
};

std::vector<PairInputs> resident_inputs(GpuPipeline* gpu,
                                        const img::GridLayout& layout,
                                        const std::vector<PairTask>& pairs) {
  std::vector<PairInputs> inputs;
  inputs.reserve(pairs.size());
  std::lock_guard<std::mutex> lock(gpu->state_mutex);
  for (const PairTask& pair : pairs) {
    const GpuTileState& a = gpu->states.at(layout.index_of(pair.reference));
    const GpuTileState& b = gpu->states.at(layout.index_of(pair.moved));
    inputs.push_back(PairInputs{pair,
                                vgpu::PairDispJob{
                                    a.buffer.as<const fft::Complex>(),
                                    b.buffer.as<const fft::Complex>()},
                                a.tile, b.tile});
  }
  return inputs;
}

/// Completes a pair's device work, on the displacement stream after its
/// reduction: hands the peaks and host tiles to the CCF stage, then drops
/// the pair's references on both tiles.
void finish_pair(GpuPipeline* gpu, const img::GridLayout& layout,
                 PairInputs& in, const std::vector<vgpu::MaxAbsResult>& peaks,
                 pipe::BoundedQueue<CcfTask>& q_ccf) {
  CcfTask task;
  task.reference = std::move(in.reference);
  task.moved = std::move(in.moved);
  task.moved_pos = in.pair.moved;
  task.is_west = in.pair.is_west;
  task.peak_indices.reserve(peaks.size());
  for (const auto& peak : peaks) task.peak_indices.push_back(peak.index);
  q_ccf.push(std::move(task));
  release_tile(gpu, layout, in.pair.reference);
  release_tile(gpu, layout, in.pair.moved);
}

StitchResult run_pipelined(const ResourceSet& rs, const ExecutorShape& shape,
                           const TileProvider& provider,
                           const StitchOptions& options) {
  const img::GridLayout layout = provider.layout();
  const WarmFilter warm(options.warm_start);
  StitchResult result(layout);
  OpCountsAtomic counts;

  const std::size_t h = provider.tile_height();
  const std::size_t w = provider.tile_width();
  const std::size_t count = h * w;
  const bool real_fft = options.use_real_fft;
  // Device buffers hold spectrum bins; half-spectrum mode halves the pools.
  const std::size_t bins = real_fft ? h * (w / 2 + 1) : count;
  const std::size_t buffer_bytes = bins * sizeof(fft::Complex);

  const std::size_t gpu_count = shape.gpu_bands.size();
  const std::size_t fft_stream_count =
      std::max<std::size_t>(1, options.fft_streams);
  const bool use_p2p = options.use_p2p && gpu_count > 1;
  // Group sizes: the displacement stage claims up to pair_k pairs per
  // launch, the copy and fft stages up to tile_k tiles per command. The p2p
  // halo protocol needs the per-tile copy/fft interleaving, so under p2p
  // tiles travel alone. A group size of 1 is per-item dispatch, under the
  // per-item labels.
  const std::size_t pair_k = options.gpu_batch_pairs;
  const std::size_t tile_k = use_p2p ? 1 : pair_k;
  const std::string group_suffix = tile_k > 1 ? "_batched" : "";
  const std::string h2d_label = "memcpy_h2d" + group_suffix;
  const std::string fft_label =
      (real_fft ? "fft2d_r2c" : "fft2d") + group_suffix;
  const std::string announce_label = "announce" + group_suffix;
  const char* ifft_label = real_fft ? "ifft2d_c2r" : "ifft2d";

  // Host-side FFT pipeline for pairs executed off the GPU fast path: CPU
  // workers and stolen pairs. Built lazily — plan setup is not free and
  // pure-GPU runs never touch it.
  FftPipeline host_fftp;
  if (rs.cpu_workers > 0 || options.steal_threshold > 0) {
    host_fftp = make_fft_pipeline(h, w, options.rigor, options.use_real_fft);
  }

  // The CPU band's pairs in closure order, and the transform cache sized to
  // them: a tile's reference count is the number of those pairs that read
  // it, so the cache frees the halo row above the band too.
  const std::vector<PairTask> cpu_pairs =
      shape.cpu_band ? band_pairs(layout, shape.cpu_band->rows,
                                  options.traversal, warm)
                     : std::vector<PairTask>{};
  const std::vector<std::size_t> cpu_refs = pair_refcounts(layout, cpu_pairs);
  std::unique_ptr<TransformCache> cache;
  if (shape.cpu_band && rs.use_transform_cache) {
    SharedCacheBinding shared;
    shared.cache = options.shared_cache;
    shared.tenant =
        options.shared_tenant.empty() ? "default" : options.shared_tenant;
    shared.tenant_quota_bytes = options.shared_tenant_quota_bytes;
    shared.spill = options.spill;
    cache = std::make_unique<TransformCache>(provider, host_fftp, &counts,
                                             cpu_refs, std::move(shared));
  }
  // The naive shape deliberately skips the cross-job store too: its whole
  // point is the no-reuse baseline. GPU bands compute spectra on device and
  // never touch the host cache, so they run unshared.
  SharedSpectrumCache* shared_store =
      cache != nullptr ? cache->shared().cache : nullptr;
  const common::SimdTier shared_tier = common::active_tier();

  HaloExchange exchange;

  // --- Partition: the shape's row bands; boundary (north) pairs pull a
  // halo row from above.
  std::vector<std::unique_ptr<GpuPipeline>> gpus;
  for (std::size_t g = 0; g < gpu_count; ++g) {
    auto gpu = std::make_unique<GpuPipeline>();
    gpu->id = g;
    const ExecutorShape::Band& band = shape.gpu_bands[g];
    const RowBand rows = band.rows;
    gpu->tiles_to_read =
        band_visit_order(layout, rows, options.traversal);
    // Warm-settled pairs are excluded at partition time: reference counts,
    // the read plan, and the halo sets all derive from owned_pairs, so a
    // warm start shrinks every downstream structure consistently.
    gpu->owned_pairs = band_pairs(layout, rows, options.traversal, warm);
    if (use_p2p) {
      // A halo transform crosses devices only when the consumer's boundary
      // pair still needs computing.
      if (g > 0) {
        for (std::size_t c = 0; c < layout.cols; ++c) {
          if (warm.skip_north(img::TilePos{rows.begin, c})) continue;
          gpu->halo_pull.insert(layout.index_of({rows.begin - 1, c}));
        }
      }
      if (g + 1 < gpu_count) {
        for (std::size_t c = 0; c < layout.cols; ++c) {
          if (warm.skip_north(img::TilePos{rows.end, c})) continue;
          gpu->halo_export.insert(layout.index_of({rows.end - 1, c}));
        }
      }
    }

    vgpu::DeviceConfig config;
    config.name = "vGPU" + std::to_string(g);
    config.memory_bytes = options.gpu_memory_bytes;
    config.recorder = options.recorder;
    config.trace_prefix = "gpu" + std::to_string(g);
    config.concurrent_fft_kernels = options.kepler_concurrent_fft;
    config.faults = options.faults;
    config.cancel = options.cancel;
    gpu->device = std::make_unique<vgpu::Device>(config);
    gpu->copy_stream = std::make_unique<vgpu::Stream>(*gpu->device, "copy");
    for (std::size_t s = 0; s < fft_stream_count; ++s) {
      gpu->fft_streams.push_back(std::make_unique<vgpu::Stream>(
          *gpu->device,
          fft_stream_count == 1 ? "fft" : "fft" + std::to_string(s)));
    }
    gpu->disp_stream = std::make_unique<vgpu::Stream>(*gpu->device, "disp");
    gpu->transforms.emplace(*gpu->device, h, w, real_fft, options.rigor);
    gpu->pool = std::make_unique<vgpu::BufferPool>(
        *gpu->device, band.pool_slots, buffer_bytes);
    gpu->ncc_pool = std::make_unique<vgpu::BufferPool>(
        *gpu->device, ExecutorShape::kNccSlots, buffer_bytes);

    const std::string qprefix = "pipelined_gpu.g" + std::to_string(g) + ".";
    gpu->q_read.instrument(qprefix + "read");
    gpu->q_fft.instrument(qprefix + "fft");
    gpu->q_ready.instrument(qprefix + "ready");

    // Initialize per-pipeline reference counts (+1 per exported halo
    // transform, released by the consumer after its p2p copy), then drop
    // any tile no owned pair needs (single-tile grids, or tiles whose every
    // pair a warm start already settled).
    const std::vector<std::size_t> refs =
        pair_refcounts(layout, gpu->owned_pairs);
    for (std::size_t index = 0; index < refs.size(); ++index) {
      if (refs[index] > 0) gpu->states[index].refs = refs[index];
    }
    for (const std::size_t index : gpu->halo_export) {
      auto [it, inserted] = gpu->states.try_emplace(index, GpuTileState{});
      it->second.refs += 1;
    }
    std::erase_if(gpu->tiles_to_read, [&](const img::TilePos& pos) {
      return !gpu->states.contains(layout.index_of(pos));
    });
    gpus.push_back(std::move(gpu));
  }

  WorkPool work(options.steal_threshold, options.recorder);
  std::vector<std::size_t> gpu_lane(gpu_count);
  std::vector<GpuPipeline*> lane_owner;  // per lane; nullptr = CPU lane
  for (std::size_t g = 0; g < gpu_count; ++g) {
    gpu_lane[g] =
        work.add_lane("gpu" + std::to_string(g), WorkPool::Kind::kGpu);
    lane_owner.push_back(gpus[g].get());
  }
  std::size_t cpu_lane = 0;
  if (rs.cpu_workers > 0) {
    cpu_lane = work.add_lane("cpu", WorkPool::Kind::kCpu);
    lane_owner.push_back(nullptr);
    // The CPU band's pairs are seeded (and the lane closed) up front — they
    // have no device-side dependency chain, so there is nothing to wait
    // for, and a closed lane is raidable down to zero by idle GPUs. A
    // single lane replayed by one worker reproduces the legacy sequential
    // pair order exactly.
    for (const PairTask& task : cpu_pairs) work.push(cpu_lane, task);
    work.close(cpu_lane);
  }

  pipe::BoundedQueue<CcfTask> q_ccf;  // stage 6, shared across GPUs
  if (gpu_count > 0) q_ccf.instrument("pipelined_gpu.ccf");
  std::atomic<std::size_t> disp_stages_live{gpu_count};
  metrics::Histogram& pair_latency =
      metrics::wellknown::pair_latency_us(rs.label);

  // The one host pair body: every CPU worker's pair, and whatever a thief
  // claims. A pair stolen from a GPU lane only enters that lane after
  // bookkeeping saw both forward FFTs complete, so the victim's device
  // buffers (host-visible in the virtual-GPU model) already hold both
  // spectra: the thief reuses them via pciam_from_spectra and no forward
  // transform is repeated. A CPU-lane pair goes through the transform
  // cache, or naive-style from the tile files when there is none.
  auto host_pair = [&](const PairTask& task, GpuPipeline* victim,
                       PciamScratch& scratch) {
    HS_METRIC_TIMER(pair_latency);
    throw_if_cancelled(options);
    Translation t;
    if (victim != nullptr) {
      const PairInputs in = resident_inputs(victim, layout, {task}).front();
      t = pciam_from_spectra(in.spectra.fft_reference, in.spectra.fft_moved,
                             *in.reference, *in.moved, host_fftp, scratch,
                             &counts, options.peak_candidates,
                             options.min_overlap_px);
      release_tile(victim, layout, task.reference);
      release_tile(victim, layout, task.moved);
    } else if (cache == nullptr) {
      t = naive_pair(provider, task, host_fftp, scratch, counts, options);
    } else {
      // Cross-job memoization: a pair whose tile contents and PCIAM
      // parameters match an earlier job replays the cached displacement
      // without touching the FFT. PCIAM is a pure function of tile bytes
      // and parameters, so the replayed Translation is bit-identical to a
      // recomputation. On a hit the tiles are released without ever
      // computing — release() tolerates never-computed entries.
      std::optional<PairKey> key;
      if (shared_store != nullptr) {
        key = PairKey{cache->digest(task.reference),
                      cache->digest(task.moved),
                      static_cast<std::uint32_t>(h),
                      static_cast<std::uint32_t>(w),
                      real_fft,
                      shared_tier,
                      static_cast<std::uint32_t>(options.peak_candidates),
                      options.min_overlap_px};
      }
      const bool hit = key && shared_store->find_pair(*key, &t);
      if (!hit) {
        const fft::Complex* fft_ref = cache->transform(task.reference);
        const fft::Complex* fft_mov = cache->transform(task.moved);
        t = pciam_from_spectra(fft_ref, fft_mov, cache->tile(task.reference),
                               cache->tile(task.moved), host_fftp, scratch,
                               &counts, options.peak_candidates,
                               options.min_overlap_px);
      }
      cache->release(task.reference);
      cache->release(task.moved);
      if (key && !hit) {
        shared_store->insert_pair(*key, t, cache->shared().tenant,
                                  cache->shared().tenant_quota_bytes,
                                  cache->shared().spill);
      }
    }
    record_pair(result.table, options, task.moved, task.is_west, t);
  };
  // A CPU worker: claims from the CPU lane (stealing GPU pairs when idle
  // and allowed) and completes every claim through the host pair body.
  auto cpu_worker = [&](std::size_t id) {
    PciamScratch scratch;
    work.drain(cpu_lane, 1, "cpu" + std::to_string(id),
               [&](const WorkPool::Claim& claim) {
                 GpuPipeline* victim =
                     claim.stolen ? lane_owner[claim.victim] : nullptr;
                 for (const PairTask& task : claim.tasks) {
                   host_pair(task, victim, scratch);
                 }
               });
  };

  pipe::Pipeline pipeline;
  pipeline.on_cancel([&] { q_ccf.close(); });
  pipeline.on_cancel([&] { exchange.shutdown(); });
  pipeline.on_cancel([&work] { work.close_all(); });

  for (std::size_t g = 0; g < gpu_count; ++g) {
    GpuPipeline* gpu = gpus[g].get();
    const std::size_t lane = gpu_lane[g];
    pipeline.on_cancel([gpu] {
      gpu->q_read.close();
      gpu->q_fft.close();
      gpu->q_ready.close();
      // Wake stages blocked on buffer acquisition (their acquire() throws,
      // which the pipeline has already accounted for).
      gpu->pool->close();
      gpu->ncc_pool->close();
    });

    // ---- Stage 1: read. Halo-pull positions are forwarded unread.
    pipeline.add_stage(
        "g" + std::to_string(gpu->id) + ".read",
        std::max<std::size_t>(1, options.read_threads),
        [gpu, &provider, &counts, &options, &layout] {
          for (const img::TilePos pos : gpu->tiles_to_read) {
            throw_if_cancelled(options);
            if (gpu->q_read.closed()) return;
            TileWork tile_work;
            tile_work.pos = pos;
            if (!gpu->halo_pull.contains(layout.index_of(pos))) {
              std::optional<hs::trace::Recorder::Scoped> span;
              if (options.recorder != nullptr) {
                span.emplace(*options.recorder,
                             "cpu.read" + std::to_string(gpu->id), "read");
              }
              tile_work.tile =
                  std::make_shared<const img::ImageU16>(provider.load(pos));
              counts.bump(counts.tile_reads);
            }
            if (!gpu->q_read.push(std::move(tile_work))) return;
          }
        },
        [gpu] { gpu->q_read.close(); });

    // ---- Stage 2: copier. Host-converts a group of up to tile_k tiles into
    // staging blocks owned by ONE async H2D command (pinned-buffer
    // analogue), then hands each tile to the FFT stage. Blocking pool
    // acquire = memory back-pressure. Group members take their buffer
    // FIRST, then their work item: an unpaired buffer just returns to the
    // pool via its handle, whereas holding a work item while blocking on a
    // dry pool could deadlock a pool smaller than the group. Halo pulls
    // (p2p only, so always a group of one) wait for the owner's published
    // transform, order the peer copy after the owner's FFT event, and
    // announce readiness directly (the transform arrives already in the
    // frequency domain).
    pipeline.add_stage(
        "g" + std::to_string(gpu->id) + ".copy", 1,
        [gpu, &layout, &exchange, h, w, count, bins, buffer_bytes, real_fft,
         tile_k, h2d_label] {
          struct Upload {
            TileWork tile_work;
            vgpu::PooledBuffer buffer;
          };
          struct Staging {
            std::unique_ptr<fft::Complex[]> block;
            void* dst = nullptr;
          };
          while (auto first = gpu->q_read.pop()) {
            vgpu::PooledBuffer buffer = gpu->pool->acquire();
            if (first->tile == nullptr) {
              const std::size_t index = layout.index_of(first->pos);
              HaloExchange::Entry entry = exchange.take(index);
              if (entry.transform == nullptr) return;  // cancelled
              gpu->copy_stream->wait_event(entry.ready);
              void* dst = buffer.data();
              const fft::Complex* src = entry.transform;
              gpu->copy_stream->enqueue("memcpy_p2p", [dst, src, buffer_bytes] {
                std::memcpy(dst, src, buffer_bytes);
              });
              {
                std::lock_guard<std::mutex> lock(gpu->state_mutex);
                GpuTileState& state = gpu->states.at(index);
                state.buffer = std::move(buffer);
                state.tile = std::move(entry.tile);
              }
              gpu->note_live();
              gpu->copy_stream->enqueue(
                  "halo_ready", [gpu, done = first->pos,
                                 release = std::move(entry.release)] {
                    release();  // owner may now recycle its copy
                    gpu->q_ready.push(done);
                  });
              continue;
            }
            std::vector<Upload> group;
            group.push_back(Upload{std::move(*first), std::move(buffer)});
            while (group.size() < tile_k) {
              auto spare = gpu->pool->try_acquire();
              if (!spare) break;  // pool pressure: upload what we have
              // Group formation: wait briefly for the reader to top the
              // group up; a timeout (or close) dispatches the partial group.
              auto more = gpu->q_read.pop_for(std::chrono::microseconds(500));
              if (!more) break;
              group.push_back(Upload{std::move(*more), std::move(*spare)});
            }
            // Real-FFT mode stages the padded in-place r2c layout.
            std::vector<Staging> staging;
            staging.reserve(group.size());
            for (Upload& up : group) {
              auto block = std::make_unique<fft::Complex[]>(bins);
              if (real_fft) {
                vgpu::k_u16_to_real_padded(up.tile_work.tile->data(),
                                           block.get(), h, w);
              } else {
                vgpu::k_u16_to_complex(up.tile_work.tile->data(), block.get(),
                                       count);
              }
              staging.push_back(Staging{std::move(block), up.buffer.data()});
            }
            gpu->copy_stream->enqueue(
                h2d_label, [staging = std::move(staging), buffer_bytes] {
                  for (const Staging& s : staging) {
                    std::memcpy(s.dst, s.block.get(), buffer_bytes);
                  }
                });
            for (Upload& up : group) {
              {
                std::lock_guard<std::mutex> lock(gpu->state_mutex);
                GpuTileState& state =
                    gpu->states.at(layout.index_of(up.tile_work.pos));
                state.buffer = std::move(up.buffer);
                state.tile = std::move(up.tile_work.tile);
              }
              gpu->note_live();
              if (!gpu->q_fft.push(up.tile_work.pos)) return;
            }
          }
          // Flush pending halo announcements before declaring this
          // q_ready producer done.
          gpu->copy_stream->synchronize();
        },
        [gpu] {
          gpu->q_fft.close();
          gpu->close_ready_when_done();
        });

    // ---- Stage 3: fft. Transforms a group of up to tile_k tiles in ONE
    // command, ordered after the group's uploads by ONE copy-stream event
    // (the copy stream is in-order, so "everything enqueued so far is done"
    // covers every member). The fft stream itself then publishes halo
    // exports and announces the group to bookkeeping. Each transform runs
    // under the device's FFT lock rule, so with Kepler mode and several
    // streams, FFTs issue concurrently.
    auto fft_thread_ids = std::make_shared<std::atomic<std::size_t>>(0);
    pipeline.add_stage(
        "g" + std::to_string(gpu->id) + ".fft", fft_stream_count,
        [gpu, &layout, &counts, &exchange, fft_thread_ids, bins, tile_k,
         fft_label, announce_label] {
          const std::size_t stream_id =
              fft_thread_ids->fetch_add(1, std::memory_order_relaxed) %
              gpu->fft_streams.size();
          vgpu::Stream& fft_stream = *gpu->fft_streams[stream_id];
          while (auto first = gpu->q_fft.pop()) {
            std::vector<img::TilePos> group{*first};
            while (group.size() < tile_k) {
              // Group formation: brief timed pop so uploads still in
              // flight can join this group (timeout or close dispatches
              // the partial group).
              auto more = gpu->q_fft.pop_for(std::chrono::microseconds(500));
              if (!more) break;
              group.push_back(*more);
            }
            fft_stream.wait_event(gpu->copy_stream->record_event());
            std::vector<fft::Complex*> datas;
            std::vector<std::pair<std::size_t, HaloExchange::Entry>> exports;
            {
              std::lock_guard<std::mutex> lock(gpu->state_mutex);
              for (const img::TilePos pos : group) {
                const std::size_t index = layout.index_of(pos);
                GpuTileState& state = gpu->states.at(index);
                datas.push_back(state.buffer.as<fft::Complex>());
                if (gpu->halo_export.contains(index)) {
                  HaloExchange::Entry entry;
                  entry.transform = datas.back();
                  entry.tile = state.tile;
                  const img::GridLayout grid = layout;
                  entry.release = [gpu, grid, pos] {
                    release_tile(gpu, grid, pos);
                  };
                  exports.emplace_back(index, std::move(entry));
                }
              }
            }
            fft_stream.enqueue(fft_label, [gpu, datas = std::move(datas)] {
              for (fft::Complex* data : datas) gpu->transforms->forward_inplace(data);
            });
            counts.bump(counts.forward_ffts, group.size());
            counts.bump(counts.transform_bins, group.size() * bins);
            for (auto& [index, entry] : exports) {
              entry.ready = fft_stream.record_event();
              exchange.publish(index, std::move(entry));
            }
            fft_stream.enqueue(announce_label,
                               [gpu, group = std::move(group)] {
                                 for (const img::TilePos pos : group) {
                                   gpu->q_ready.push(pos);
                                 }
                               });
          }
          // Drain this thread's stream so its announcements land before
          // the producer count drops.
          fft_stream.synchronize();
        },
        [gpu] { gpu->close_ready_when_done(); });

    // ---- Stage 4: bookkeeping. Ready pairs go to this GPU's WorkPool lane
    // (not a private queue) — that is what makes them visible to thieves.
    pipeline.add_stage(
        "g" + std::to_string(gpu->id) + ".bookkeeping", 1,
        [gpu, &layout, &work, lane] {
          std::size_t emitted = 0;
          if (gpu->owned_pairs.empty()) return;
          while (auto pos = gpu->q_ready.pop()) {
            std::lock_guard<std::mutex> lock(gpu->state_mutex);
            GpuTileState& state = gpu->states.at(layout.index_of(*pos));
            state.fft_done = true;
            // Advance every owned pair whose both transforms are ready.
            for (const PairTask& pair : gpu->owned_pairs) {
              if (!(pair.reference == *pos) && !(pair.moved == *pos)) continue;
              const GpuTileState& a =
                  gpu->states.at(layout.index_of(pair.reference));
              const GpuTileState& b =
                  gpu->states.at(layout.index_of(pair.moved));
              if (a.fft_done && b.fft_done) {
                work.push(lane, pair);
                ++emitted;
              }
            }
            if (emitted == gpu->owned_pairs.size()) break;
          }
        },
        [&work, lane] { work.close(lane); });

    // ---- Stage 5: displacement. Claims up to pair_k pairs from this GPU's
    // lane. A single pair issues the per-pair ncc / inverse FFT / reduction
    // sequence; a larger claim collapses into one grouped k_batched launch
    // sharing one NCC scratch surface (the group runs sequentially inside
    // the command). Both finish each pair through finish_pair, from the
    // stream, so the displacement thread never blocks on the GPU. Stolen
    // pairs run synchronously on the host.
    pipeline.add_stage(
        "g" + std::to_string(gpu->id) + ".displacement", 1,
        [gpu, lane, &work, &lane_owner, &layout, &counts, &q_ccf, &host_pair,
         count, bins, real_fft, &options, pair_k, ifft_label] {
          PciamScratch scratch;
          const std::size_t peaks_k =
              std::max<std::size_t>(1, options.peak_candidates);
          const img::GridLayout grid = layout;
          const auto dispatch = [&](const WorkPool::Claim& claim) {
            if (claim.stolen) {
              host_pair(claim.tasks.front(), lane_owner[claim.victim],
                        scratch);
              return;
            }
            throw_if_cancelled(options);
            vgpu::PooledBuffer ncc = gpu->ncc_pool->acquire();
            fft::Complex* fc = ncc.as<fft::Complex>();
            std::vector<PairInputs> inputs =
                resident_inputs(gpu, layout, claim.tasks);
            counts.bump(counts.ncc_multiplies, inputs.size());
            counts.bump(counts.inverse_ffts, inputs.size());
            counts.bump(counts.max_reductions, inputs.size());
            if (inputs.size() == 1) {
              const vgpu::PairDispJob job = inputs.front().spectra;
              gpu->disp_stream->enqueue("ncc", [job, fc, bins] {
                vgpu::k_ncc_half(job.fft_reference, job.fft_moved, fc, bins);
              });
              gpu->disp_stream->enqueue(
                  ifft_label, [gpu, fc] { gpu->transforms->inverse_inplace(fc); });
              gpu->disp_stream->enqueue(
                  "max_reduce",
                  [gpu, grid, fc, count, peaks_k, real_fft,
                   in = std::move(inputs.front()), ncc = std::move(ncc),
                   &q_ccf]() mutable {
                    const auto peaks =
                        real_fft
                            ? vgpu::k_max_abs_topk_real(
                                  reinterpret_cast<const double*>(fc), count,
                                  peaks_k)
                            : vgpu::k_max_abs_topk(fc, count, peaks_k);
                    finish_pair(gpu, grid, in, peaks, q_ccf);
                    ncc.release();  // recycle device memory
                  });
            } else {
              gpu->disp_stream->enqueue(
                  "pair_batch",
                  [gpu, grid, fc, count, bins, peaks_k, real_fft,
                   inputs = std::move(inputs), ncc = std::move(ncc),
                   &q_ccf]() mutable {
                    std::vector<vgpu::PairDispJob> jobs;
                    jobs.reserve(inputs.size());
                    for (const PairInputs& in : inputs) {
                      jobs.push_back(in.spectra);
                    }
                    vgpu::k_batched(
                        jobs.data(), jobs.size(), fc, bins, count, peaks_k,
                        real_fft,
                        [gpu](fft::Complex* data) {
                          gpu->transforms->inverse_inplace(data);
                        },
                        [&](std::size_t i,
                            std::vector<vgpu::MaxAbsResult> peaks) {
                          finish_pair(gpu, grid, inputs[i], peaks, q_ccf);
                        });
                    ncc.release();
                  });
            }
          };
          work.drain(lane, pair_k, "gpu" + std::to_string(gpu->id), dispatch);
          // All pairs issued; wait for the stream to drain before declaring
          // this GPU's displacement work done.
          gpu->disp_stream->synchronize();
        },
        [&disp_stages_live, &q_ccf] {
          if (disp_stages_live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            q_ccf.close();
          }
        });
  }

  // ---- CPU stages: an optional prefetch stage (the Pipelined-CPU reader)
  // warming the cache ahead of the workers under the CPU band's slot
  // budget, and the workers themselves.
  std::vector<img::TilePos> prefetch_list;
  std::atomic<std::size_t> next_prefetch{0};
  if (rs.prefetch_threads > 0 && cache != nullptr) {
    // Tiles no remaining pair reads are neither read nor transformed.
    for (const img::TilePos pos :
         band_visit_order(layout, shape.cpu_band->rows, options.traversal)) {
      if (cpu_refs[layout.index_of(pos)] > 0) prefetch_list.push_back(pos);
    }
    pipeline.add_stage("cpu.prefetch", rs.prefetch_threads, [&] {
      for (;;) {
        throw_if_cancelled(options);
        const std::size_t i =
            next_prefetch.fetch_add(1, std::memory_order_relaxed);
        if (i >= prefetch_list.size() || pipeline.cancelled()) return;
        // Back-pressure: a prefetcher running far ahead of the workers
        // would pin the whole band in memory; cap live transforms at the
        // band's slot budget instead (the SlotLimiter analogue).
        while (cache->live_transforms() >= shape.cpu_band->pool_slots) {
          throw_if_cancelled(options);
          if (pipeline.cancelled()) return;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        std::optional<hs::trace::Recorder::Scoped> span;
        if (options.recorder != nullptr) {
          span.emplace(*options.recorder, "cpu.read", "prefetch");
        }
        cache->prefetch(prefetch_list[i]);
      }
    });
  }
  // One worker with nothing to overlap runs inline on the caller thread,
  // keeping its thread-local FFT scratch warm across jobs.
  const bool inline_worker =
      gpu_count == 0 && rs.cpu_workers <= 1 && rs.prefetch_threads == 0;
  std::atomic<std::size_t> cpu_worker_ids{0};
  if (rs.cpu_workers > 0 && !inline_worker) {
    pipeline.add_stage("cpu.workers", rs.cpu_workers, [&] {
      const std::size_t id =
          cpu_worker_ids.fetch_add(1, std::memory_order_relaxed);
      set_current_thread_name("sched.cpu" + std::to_string(id));
      cpu_worker(id);
    });
  }

  // ---- Stage 6: CCF threads, shared across all GPU pipelines.
  std::atomic<std::size_t> ccf_ids{0};
  if (gpu_count > 0) pipeline.add_stage(
      "ccf", std::max<std::size_t>(1, options.ccf_threads),
      [&q_ccf, &result, &counts, &options, &ccf_ids, &pair_latency, w] {
        const std::size_t id = ccf_ids.fetch_add(1, std::memory_order_relaxed);
        const std::string lane = "cpu.ccf" + std::to_string(id);
        while (auto task = q_ccf.pop()) {
          // Covers the host-side completion of the pair (peak disambiguation
          // + table write); the device-side NCC/IFFT cost shows up in the
          // queue wait histograms instead.
          HS_METRIC_TIMER(pair_latency);
          throw_if_cancelled(options);
          counts.bump(counts.ccf_evaluations, 4 * task->peak_indices.size());
          std::optional<hs::trace::Recorder::Scoped> span;
          if (options.recorder != nullptr) {
            span.emplace(*options.recorder, lane, "ccf");
          }
          const Translation translation =
              disambiguate_peaks(*task->reference, *task->moved,
                                 task->peak_indices, w, options.min_overlap_px);
          span.reset();
          record_pair(result.table, options, task->moved_pos, task->is_west,
                      translation);
        }
      });

  try {
    if (inline_worker) {
      cpu_worker(0);
    } else {
      pipeline.run();
    }
  } catch (...) {
    // A failing stage unwinds without reaching its end-of-stage
    // synchronize(), so commands that touch this function's state (tile
    // maps, queues, pools) may still sit on stream queues — and ~Stream
    // drains, not discards. Quiesce every stream before the unwind frees
    // that state. The cancel hooks have already closed the queues, so the
    // pending commands' pushes fail fast and every drain terminates.
    for (auto& gpu : gpus) {
      gpu->copy_stream->synchronize();
      for (auto& fft_stream : gpu->fft_streams) fft_stream->synchronize();
      gpu->disp_stream->synchronize();
    }
    throw;
  }

  // A naive worker holds one pair's two transforms at a time.
  std::size_t peak_total =
      cache != nullptr ? cache->peak_live_transforms()
      : shape.cpu_band && shape.cpu_band->layout.pair_count() > 0 ? 2
                                                                  : 0;
  for (const auto& gpu : gpus) {
    peak_total += gpu->peak.load(std::memory_order_relaxed);
  }
  result.peak_live_transforms = peak_total;
  result.ops = counts.snapshot();
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API: ResourceSet presets, the shape rule's check and price, and
// stitch(ResourceSet), the scheduler's one entry point.
// ---------------------------------------------------------------------------

ResourceSet ResourceSet::for_backend(Backend backend,
                                     const StitchOptions& o) {
  ResourceSet rs;
  switch (backend) {
    case Backend::kNaivePairwise:
      rs.cpu_workers = 1;
      rs.use_transform_cache = false;
      break;
    case Backend::kSimpleCpu:
      rs.cpu_workers = 1;
      break;
    case Backend::kMtCpu:
      rs.cpu_workers = std::max<std::size_t>(1, o.threads);
      break;
    case Backend::kPipelinedCpu:
      rs.cpu_workers = std::max<std::size_t>(1, o.threads);
      rs.prefetch_threads = std::max<std::size_t>(1, o.read_threads);
      break;
    case Backend::kSimpleGpu:
      rs.cpu_workers = 0;
      rs.gpu_devices = 1;
      rs.synchronous_gpu = true;
      break;
    case Backend::kPipelinedGpu:
      rs.cpu_workers = 0;
      rs.gpu_devices = std::max<std::size_t>(1, o.gpu_count);
      break;
  }
  rs.label = backend_name(backend);
  return rs;
}

void check_shape(const ResourceSet& rs, const img::GridLayout& layout,
                 const StitchOptions& o) {
  const auto reject = [](const std::string& field, const std::string& what) {
    throw InvalidArgument(field + ": " + what);
  };
  const auto num = [](std::size_t v) { return std::to_string(v); };
  if (rs.cpu_workers == 0 && rs.gpu_devices == 0) {
    reject("ResourceSet",
           "needs at least one executor (cpu_workers or gpu_devices)");
  }
  if (rs.prefetch_threads > 0 && !rs.use_transform_cache) {
    reject("ResourceSet.prefetch_threads",
           "prefetching warms the transform cache, which "
           "use_transform_cache = false removes");
  }
  if (rs.synchronous_gpu && (rs.gpu_devices != 1 || rs.cpu_workers != 0)) {
    reject("ResourceSet.synchronous_gpu",
           "the synchronous shape is exactly one GPU and no CPU workers");
  }
  if (o.use_p2p && rs.cpu_workers > 0 && rs.gpu_devices > 0) {
    reject("ResourceSet",
           "hybrid CPU+GPU bands are incompatible with use_p2p");
  }
  if (o.gpu_batch_pairs < 1) {
    reject("gpu_batch_pairs", "must be >= 1 (1 = per-pair dispatch, got " +
                                  num(o.gpu_batch_pairs) + ")");
  }
  if (o.use_p2p && o.steal_threshold > 0) {
    reject("steal_threshold",
           "incompatible with use_p2p: a stolen boundary pair would bypass "
           "the halo transform's cross-device release protocol");
  }

  // Pool sizing against the traversal's working set: the paper's "pool
  // must exceed the smallest dimension of the image grid" rule,
  // generalized per traversal and per GPU band.
  const ExecutorShape shape = plan_shape(rs, layout, o);
  const std::size_t ws = traversal_working_set(layout, o.traversal);
  const std::string cover = "pool of " + num(o.pool_buffers) +
                            " cannot cover traversal " +
                            traversal_name(o.traversal) + "'s ";
  if (rs.prefetch_threads > 0 && shape.cpu_band && o.pool_buffers > 0) {
    const img::GridLayout& band = shape.cpu_band->layout;
    const std::size_t band_ws = traversal_working_set(band, o.traversal);
    if (o.pool_buffers <= band_ws) {
      reject("pool_buffers", cover + "working set of " + num(band_ws) +
                                 " on a " + num(band.rows) + "x" +
                                 num(band.cols) + " grid; need > " +
                                 num(band_ws));
    }
  }
  // (A synchronous pool only falls short when pool_buffers sized it.)
  if (rs.synchronous_gpu && shape.pool_slots < ws + 2) {
    reject("pool_buffers", cover + "working set of " + num(ws) +
                               " plus an NCC working buffer; need >= " +
                               num(ws + 2));
  }
  for (const ExecutorShape::Band& band : shape.gpu_bands) {
    const std::size_t band_ws = traversal_working_set(band.layout, o.traversal);
    if (o.pool_buffers > 0 && o.pool_buffers <= band_ws) {
      reject("pool_buffers", cover + "per-band working set of " +
                                 num(band_ws) + " (band " +
                                 num(band.layout.rows) + "x" +
                                 num(band.layout.cols) + "); need > " +
                                 num(band_ws));
    }
  }
}

std::size_t shape_pool_bytes(const ResourceSet& rs,
                             const TileProvider& provider,
                             const StitchOptions& options) {
  const img::GridLayout layout = provider.layout();
  const std::size_t h = provider.tile_height();
  const std::size_t w = provider.tile_width();
  // Half-spectrum transforms hold h*(w/2+1) bins instead of h*w — the
  // real-FFT path halves the dominant term of every shape's footprint.
  const std::size_t spectrum_count =
      options.use_real_fft ? h * (w / 2 + 1) : h * w;
  const std::size_t transform_bytes = spectrum_count * sizeof(fft::Complex);
  const std::size_t tile_bytes = h * w * sizeof(std::uint16_t);
  // Two tiles + both transforms + the correlation surface: one pair
  // computed without reuse.
  const std::size_t naive_pair_bytes = 2 * tile_bytes + 3 * transform_bytes;
  const ExecutorShape shape = plan_shape(rs, layout, options);

  if (rs.synchronous_gpu) {
    // Device pool + host tiles pinned alongside + staging + reduce.
    return shape.pool_slots * (transform_bytes + tile_bytes) +
           2 * transform_bytes;
  }
  std::size_t total = 0;
  if (shape.cpu_band && !rs.use_transform_cache) {
    total = rs.cpu_workers * naive_pair_bytes;
  } else if (shape.cpu_band && rs.prefetch_threads > 0) {
    total = shape.cpu_band->pool_slots * (transform_bytes + tile_bytes) +
            rs.cpu_workers * transform_bytes;
  } else if (shape.cpu_band) {
    // Workers close pairs independently; charge one in-flight scratch
    // transform per worker (up to one per band row) on top of the shared
    // cache's working set.
    const img::GridLayout& band = shape.cpu_band->layout;
    const std::size_t ws = traversal_working_set(band, options.traversal);
    const std::size_t workers =
        std::max<std::size_t>(1, std::min(rs.cpu_workers, band.rows));
    total = (ws + workers) * (transform_bytes + tile_bytes) +
            workers * transform_bytes;
  }
  for (const ExecutorShape::Band& band : shape.gpu_bands) {
    total += (band.pool_slots + ExecutorShape::kNccSlots) * transform_bytes +
             band.pool_slots * tile_bytes  // host pixels for the CCFs
             + ExecutorShape::kReadAheadTiles * tile_bytes;
  }
  return total;
}

StitchResult stitch(const ResourceSet& rs, const TileProvider& provider,
                    const StitchOptions& options) {
  check_shape(rs, provider.layout(), options);
  const ExecutorShape shape = plan_shape(rs, provider.layout(), options);
  Stopwatch stopwatch;
  StitchResult result = rs.synchronous_gpu
                            ? run_gpu_sync(rs, shape, provider, options)
                            : run_pipelined(rs, shape, provider, options);
  result.backend_used = rs.label;
  result.seconds = stopwatch.seconds();
  return result;
}

}  // namespace hs::stitch
