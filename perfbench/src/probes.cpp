#include "probes.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/simd.hpp"
#include "metrics/metrics.hpp"

namespace perfbench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

bool reset_peak_rss() {
  // Writing 5 to clear_refs resets VmHWM (Linux >= 4.0).
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

namespace {

std::string llc_description(std::uint64_t* bytes) {
  // The highest cache index is the last level; sysfs sizes read "300M",
  // "32768K" and so on.
  std::string best_size;
  int best_level = -1;
  for (int index = 0; index < 8; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_in(base + "/level");
    std::ifstream size_in(base + "/size");
    int level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size)) continue;
    if (level > best_level) {
      best_level = level;
      best_size = size;
    }
  }
  *bytes = 0;
  if (best_size.empty()) return "unknown";
  std::uint64_t value = std::stoull(best_size);
  const char suffix = best_size.back();
  if (suffix == 'K') value <<= 10;
  if (suffix == 'M') value <<= 20;
  if (suffix == 'G') value <<= 30;
  *bytes = value;
  return "L" + std::to_string(best_level) + " " + best_size;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string host_fingerprint_json() {
  std::uint64_t llc_bytes = 0;
  const std::string llc = llc_description(&llc_bytes);
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"simd_tier\": \""
      << hs::common::tier_name(hs::common::active_tier())
      << "\", \"build_type\": \"" << HS_BENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << json_escape(__VERSION__)
      << "\", \"llc\": \"" << llc << "\", \"llc_bytes\": " << llc_bytes
      << "}";
  return out.str();
}

MetricSet layer_metric_defaults() {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"imgio.reads", "count"},
      {"imgio.read_s", "s"},
      {"imgio.read_mb_per_s", "MB/s"},
      {"fft.forward_count", "count"},
      {"fft.inverse_count", "count"},
      {"fft.transform_bins", "count"},
      {"fft.forward_s", "s"},
      {"fft.inverse_s", "s"},
      {"fft.forward_ns_per_pt", "ns"},
      {"fft.inverse_ns_per_pt", "ns"},
      {"fft.plan_build_s", "s"},
      {"stitch.phase1_s", "s"},
      {"stitch.pair_s", "s"},
      {"stitch.ccf_s", "s"},
      {"stitch.ncc_peak_s", "s"},
      {"stitch.ccf_evals", "count"},
      {"stitch.peak_live_transforms", "count"},
      {"stitch.busy_frac", "ratio"},
      {"stitch.attrib_gap_frac", "ratio"},
      {"pipeline.queue_pop_wait_s", "s"},
      {"pipeline.queue_push_wait_s", "s"},
      {"vgpu.enqueues", "count"},
      {"vgpu.pool_wait_s", "s"},
      {"vgpu.max_reduce_s", "s"},
      {"vgpu.ifft_s", "s"},
      {"vgpu.device_init_s", "s"},
      {"compose.phase2_s", "s"},
      {"compose.phase3_s", "s"},
      {"compose.mosaic_mb", "MB"},
      {"compose.write_mb_per_s", "MB/s"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.run_p50_ms", "ms"},
      {"serve.prediction_err_p50", "ratio"},
      {"serve.journal_fsyncs", "count"},
      {"stitch.shared_cache_hit_ratio", "ratio"},
      {"stitch.spill_hits", "count"},
      {"stitch.spill_bytes_written", "bytes"},
      {"stitch.spill_bytes_read", "bytes"},
      {"stitch.forward_ffts_skipped", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  MetricSet set;
  for (const auto& [name, unit] : kLayers) put(set, name, 0.0, unit, 0);
  return set;
}

std::string layer_split_note(
    const std::string& title,
    const std::vector<std::pair<std::string, double>>& layers) {
  double total = 0.0;
  for (const auto& layer : layers) total += layer.second;
  std::string line = title + ":";
  for (const auto& [name, seconds] : layers) {
    line += " " + name + "=" + fmt("%.3f", seconds) + " (" +
            fmt("%.1f", 100.0 * seconds / total) + "%)";
  }
  return line;
}

// --- SpanLog ---------------------------------------------------------------

SpanLog::SpanLog() : origin_s_(wall_s()) {}

double SpanLog::now_us() const { return (wall_s() - origin_s_) * 1e6; }

std::uint64_t SpanLog::record(std::string name, double t0_us, double t1_us,
                              std::uint64_t parent, std::uint64_t run) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(SpanRecord{id, std::move(name), t0_us, t1_us, parent, run});
  return id;
}

std::uint64_t SpanLog::open(std::string name, std::uint64_t parent,
                            std::uint64_t run) {
  const double t0 = now_us();
  return record(std::move(name), t0, t0, parent, run);
}

void SpanLog::close(std::uint64_t id) {
  const double t1 = now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(id - 1).t1_us = t1;
}

void SpanLog::import(const hs::trace::Recorder& recorder, double offset_us,
                     std::uint64_t parent, std::uint64_t run) {
  for (const auto& span : recorder.spans()) {
    record(span.lane + "/" + span.name, span.t0_us + offset_us,
           span.t1_us + offset_us, parent, run);
  }
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void SpanLog::write_json(const std::string& path,
                         const std::string& header_json) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "{\"header\": " << header_json << ",\n\"spans\": [\n";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf), "%.3f, \"t1_us\": %.3f", s.t0_us, s.t1_us);
    out << "{\"id\": " << s.id << ", \"name\": \"" << json_escape(s.name)
        << "\", \"t0_us\": " << buf << ", \"parent\": " << s.parent
        << ", \"run\": " << s.run << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

SpanLog::Scope::Scope(SpanLog* log, std::string name, std::uint64_t parent,
                      std::uint64_t run)
    : log_(log) {
  if (log_ != nullptr) id_ = log_->open(std::move(name), parent, run);
}

SpanLog::Scope::~Scope() {
  if (log_ != nullptr) log_->close(id_);
}

// --- TimingTileProvider ----------------------------------------------------

TimingTileProvider::TimingTileProvider(const hs::stitch::TileProvider& inner,
                                       SpanLog* log)
    : inner_(inner), log_(log) {}

hs::img::ImageU16 TimingTileProvider::load(hs::img::TilePos pos) const {
  const double t0 = wall_s();
  const double span_t0 = log_ != nullptr ? log_->now_us() : 0.0;
  hs::img::ImageU16 tile = inner_.load(pos);
  const double t1 = wall_s();
  if (log_ != nullptr) {
    log_->record("imgio.load", span_t0, log_->now_us(),
                 parent_.load(std::memory_order_relaxed),
                 run_.load(std::memory_order_relaxed));
  }
  reads_.fetch_add(1, std::memory_order_relaxed);
  nanos_.fetch_add(static_cast<std::uint64_t>((t1 - t0) * 1e9),
                   std::memory_order_relaxed);
  bytes_.fetch_add(tile.pixel_count() * sizeof(std::uint16_t),
                   std::memory_order_relaxed);
  return tile;
}

void TimingTileProvider::set_context(std::uint64_t parent, std::uint64_t run) {
  parent_.store(parent, std::memory_order_relaxed);
  run_.store(run, std::memory_order_relaxed);
}

TimingTileProvider::Totals TimingTileProvider::take() {
  Totals totals;
  totals.reads = reads_.exchange(0, std::memory_order_relaxed);
  totals.seconds =
      1e-9 * static_cast<double>(nanos_.exchange(0, std::memory_order_relaxed));
  totals.bytes = bytes_.exchange(0, std::memory_order_relaxed);
  return totals;
}

// --- RegistrySnapshot ------------------------------------------------------

RegistrySnapshot RegistrySnapshot::take() {
  RegistrySnapshot snap;
  std::istringstream text(hs::metrics::Registry::global().render_text());
  std::string line;
  while (std::getline(text, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    snap.series_[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return snap;
}

double RegistrySnapshot::family_sum(const std::string& family) const {
  double total = 0.0;
  for (auto it = series_.lower_bound(family); it != series_.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, family.size(), family) != 0) break;
    if (key.size() == family.size() || key[family.size()] == '{') {
      total += it->second;
    }
  }
  return total;
}

RegistrySnapshot RegistrySnapshot::delta(const RegistrySnapshot& before,
                                         const RegistrySnapshot& after) {
  RegistrySnapshot out;
  for (const auto& [key, value] : after.series_) {
    const auto it = before.series_.find(key);
    out.series_[key] = value - (it == before.series_.end() ? 0.0 : it->second);
  }
  return out;
}

}  // namespace perfbench
