// Outside-in probes of the end-to-end benchmark: clocks, an in-memory span
// log, a timing TileProvider decorator, metric-registry deltas, and the
// metric/outcome types every workload fills in.
//
// Nothing here reaches inside the library: spans wrap calls to public
// functions, counts come from StitchResult and from the process-wide metric
// registry the library already maintains.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stitch/types.hpp"
#include "trace/trace.hpp"

namespace perfbench {

// --- clocks and statistics -------------------------------------------------

/// Seconds on the steady clock since an arbitrary process-wide origin.
double wall_s();
/// Process CPU seconds (all threads): CLOCK_PROCESS_CPUTIME_ID.
double process_cpu_s();

/// printf-style formatting of one number.
std::string fmt(const char* format, double value);

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]. Empty input gives 0.
double quantile(std::vector<double> values, double q);
double sum(const std::vector<double>& values);

/// Forgets the process's resident-set high-water mark so a later
/// peak_rss_mb() covers only what ran after this call. Returns false when
/// the kernel refuses (the peak then includes everything before).
bool reset_peak_rss();
/// Resident-set high-water mark in MB (10^6 bytes).
double peak_rss_mb();

/// nproc, active SIMD tier, build type, compiler and LLC size as one JSON
/// object.
std::string host_fingerprint_json();

// --- metrics ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Named metrics in name order.
using MetricSet = std::map<std::string, Metric>;

inline void put(MetricSet& set, const std::string& name, double value,
                const std::string& unit, std::size_t samples) {
  set[name] = Metric{value, unit, samples};
}

/// Every per-layer metric name with its unit, each set to 0 with no samples.
/// A workload overwrites the layers it reaches; the rest stay 0 — the layer
/// does no work on that workload.
MetricSet layer_metric_defaults();

/// "<title> name=<s> (<share>%) ..." — busy seconds per layer and each
/// one's share of their sum.
std::string layer_split_note(
    const std::string& title,
    const std::vector<std::pair<std::string, double>>& layers);

/// What one benchmark run reports.
struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  MetricSet e2e;
  MetricSet layer;
  /// One line per failed correctness gate.
  std::vector<std::string> gate_failures;
  /// Free-form report lines (layer split, sample notes).
  std::vector<std::string> notes;

  void fail_gate(const std::string& why) {
    correct = false;
    gate_failures.push_back(why);
  }
};

/// Run parameters shared by every workload.
struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy scale: tiny grids, so the whole benchmark runs in seconds.
  bool toy = false;
  /// Flips one translation of a repeated table (scan workloads) or of the
  /// first resubmitted table (serve-mix) before the gate compares it, to
  /// prove the gate trips.
  bool perturb_table = false;
  /// Scratch directory for datasets, mosaics, spill and journal files.
  std::string work_dir;
};

// --- span log --------------------------------------------------------------

struct SpanRecord {
  std::uint64_t id = 0;
  std::string name;
  double t0_us = 0.0;
  double t1_us = 0.0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t run = 0;     // scan or job the span belongs to
};

/// Thread-safe in-memory span store, written out once when the benchmark
/// ends. Times are microseconds since the log was created.
class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  double now_us() const;
  std::uint64_t record(std::string name, double t0_us, double t1_us,
                       std::uint64_t parent, std::uint64_t run);
  /// Opens a span ending at close(id).
  std::uint64_t open(std::string name, std::uint64_t parent,
                     std::uint64_t run);
  void close(std::uint64_t id);

  /// Copies a library Recorder's spans in as children of `parent`, named
  /// "<lane>/<name>"; `offset_us` maps recorder time to log time.
  void import(const hs::trace::Recorder& recorder, double offset_us,
              std::uint64_t parent, std::uint64_t run);

  std::size_t size() const;
  /// {"header": <header_json>, "spans": [...]}
  void write_json(const std::string& path, const std::string& header_json)
      const;

  /// RAII span.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name, std::uint64_t parent,
          std::uint64_t run);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    SpanLog* log_;
    std::uint64_t id_ = 0;
  };

 private:
  double origin_s_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // index = id - 1
};

// --- timing tile provider --------------------------------------------------

/// TileProvider decorator timing every load() of the wrapped provider. Safe
/// to call from the pipelined backends' reader threads.
class TimingTileProvider final : public hs::stitch::TileProvider {
 public:
  TimingTileProvider(const hs::stitch::TileProvider& inner, SpanLog* log);

  hs::img::GridLayout layout() const override { return inner_.layout(); }
  std::size_t tile_height() const override { return inner_.tile_height(); }
  std::size_t tile_width() const override { return inner_.tile_width(); }
  hs::img::ImageU16 load(hs::img::TilePos pos) const override;

  /// Parent span and run id given to the "imgio.load" spans that follow.
  void set_context(std::uint64_t parent, std::uint64_t run);

  struct Totals {
    std::uint64_t reads = 0;
    double seconds = 0.0;
    std::uint64_t bytes = 0;
  };
  /// Returns and zeroes the totals since the last take().
  Totals take();

 private:
  const hs::stitch::TileProvider& inner_;
  SpanLog* log_;
  std::atomic<std::uint64_t> parent_{0};
  std::atomic<std::uint64_t> run_{0};
  mutable std::atomic<std::uint64_t> reads_{0};
  mutable std::atomic<std::uint64_t> nanos_{0};
  mutable std::atomic<std::uint64_t> bytes_{0};
};

// --- metric registry deltas ------------------------------------------------

/// Every series of the process-wide metric registry ("name{labels}" ->
/// value), parsed from its text exposition.
class RegistrySnapshot {
 public:
  static RegistrySnapshot take();

  /// Sum over every series of `family` (all label sets) — for a histogram
  /// pass "<name>_sum" or "<name>_count".
  double family_sum(const std::string& family) const;

  /// after - before, series by series.
  static RegistrySnapshot delta(const RegistrySnapshot& before,
                                const RegistrySnapshot& after);

 private:
  std::map<std::string, double> series_;
};

}  // namespace perfbench
