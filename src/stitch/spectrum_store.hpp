// Disk spill tier under the cross-job SharedSpectrumCache.
//
// The memory cache evicts LRU spectra when it hits its byte capacity; without
// this tier an eviction means a future job recomputes the FFT, and a service
// restart always rebuilds every spectrum cold. The store keeps one
// CRC32C-framed file per spectrum in a spill directory (content-addressed by
// the same SpectrumKey the cache uses) plus an append-only log of memoized
// pair displacements, so a spill hit skips the forward FFT exactly like a
// memory hit and a recovered service warm-starts from whatever the previous
// incarnation persisted.
//
// Integrity over availability: every frame is validated (magic, length,
// CRC32C, header/key match) at recover time and again on every demand load.
// Frames and pair records also carry fft::kNumericsVersion; one written by a
// build with different FFT rounding is stale and recomputes as a miss, so a
// spill dir never mixes two numerics into one table.
// Damage of any kind — bit rot, a short write, a torn pair-log tail — demotes
// to a recompute-as-miss and deletes the offending bytes; a corrupt frame can
// never become a wrong table. Fault sites fault::Site::kSpillWrite /
// kSpillRead inject ENOSPC, short writes, and bit flips deterministically so
// the chaos tests can prove that property.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/plan.hpp"
#include "metrics/metrics.hpp"
#include "stitch/shared_cache.hpp"

namespace hs::stitch {

class SpectrumStore {
 public:
  struct Config {
    /// Spill directory; created if missing. Must be non-empty.
    std::string dir;
    /// Optional deterministic fault injection (kSpillWrite / kSpillRead).
    fault::FaultPlan* faults = nullptr;
  };

  using SpectrumPtr = std::shared_ptr<const std::vector<fft::Complex>>;

  /// Creates the directory, garbage-collects orphaned `.tmp` files, validates
  /// every spectrum frame (deleting corrupt ones), and replays the pair log
  /// (truncating a torn tail) — the warm-start index survives restarts.
  explicit SpectrumStore(Config config);
  ~SpectrumStore();

  SpectrumStore(const SpectrumStore&) = delete;
  SpectrumStore& operator=(const SpectrumStore&) = delete;

  /// Persists a spectrum (durable write: tmp + fsync + rename). Idempotent —
  /// the store is content-addressed, so re-putting a resident key is a no-op.
  /// Returns false when the write was dropped (injected or real I/O failure);
  /// the caller degrades to memory-only, never fails the job.
  bool put(const SpectrumKey& key, const std::vector<fft::Complex>& bins);

  /// Reloads a spilled spectrum, or nullptr on a miss. A frame that fails
  /// validation is deleted and counted corrupt; the caller recomputes.
  SpectrumPtr load(const SpectrumKey& key);

  bool contains(const SpectrumKey& key) const;

  /// Appends a memoized pair displacement to the pair log (flushed, fsynced
  /// at destruction; a torn tail is truncated on recover).
  void put_pair(const PairKey& key, const Translation& value);

  /// Looks up a recovered or just-put pair displacement; true + *out on hit.
  bool load_pair(const PairKey& key, Translation* out) const;

  struct Stats {
    std::uint64_t hits = 0;            ///< spectra served from disk
    std::uint64_t misses = 0;          ///< loads with no usable frame
    std::uint64_t bytes_written = 0;   ///< frame + pair-record bytes
    std::uint64_t bytes_read = 0;      ///< demand-load bytes
    std::uint64_t corrupt_frames = 0;  ///< CRC/framing failures (load+recover)
    std::uint64_t write_failures = 0;  ///< dropped writes (ENOSPC, short)
    std::uint64_t gc_removed = 0;      ///< orphaned/corrupt/stale files deleted
    std::uint64_t stale_records = 0;   ///< frames/pairs of other FFT numerics
    std::size_t spectrum_frames = 0;   ///< valid frames currently indexed
    std::size_t pairs = 0;             ///< pair displacements resident
  };
  Stats stats() const;

  const std::string& dir() const { return config_.dir; }

 private:
  struct FrameInfo {
    std::string path;
    std::uint64_t bin_count = 0;
  };

  void recover();
  void replay_pair_log();
  bool append_pair_locked(const PairKey& key, const Translation& value);
  std::string frame_path(const SpectrumKey& key) const;
  std::string pair_log_path() const;

  Config config_;
  mutable std::mutex mutex_;
  std::unordered_map<SpectrumKey, FrameInfo, SpectrumKeyHash> index_;
  std::unordered_map<PairKey, Translation, PairKeyHash> pairs_;
  std::FILE* pair_log_ = nullptr;
  Stats stats_;

  metrics::Counter& metric_hits_;
  metrics::Counter& metric_misses_;
  metrics::Counter& metric_bytes_written_;
  metrics::Counter& metric_bytes_read_;
  metrics::Counter& metric_corrupt_;
  metrics::Counter& metric_write_failures_;
  metrics::Gauge& metric_frames_;
};

}  // namespace hs::stitch
