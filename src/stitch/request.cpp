#include "stitch/request.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/stopwatch.hpp"
#include "fault/plan.hpp"
#include "stitch/ledger.hpp"
#include "stitch/scheduler.hpp"
#include "stitch/shared_cache.hpp"

namespace hs::stitch {

namespace {

[[noreturn]] void fail(const std::string& field, const std::string& what) {
  throw InvalidArgument(field + ": " + what);
}

std::string num(std::size_t v) { return std::to_string(v); }

bool uses_worker_threads(Backend backend) {
  return backend == Backend::kMtCpu || backend == Backend::kPipelinedCpu ||
         backend == Backend::kPipelinedGpu;
}

bool is_pipelined(Backend backend) {
  return backend == Backend::kPipelinedCpu ||
         backend == Backend::kPipelinedGpu;
}

/// Mirrors the pipelined-GPU partition: contiguous row bands, one per
/// effective GPU, a halo row prepended to every band but the first.
std::vector<img::GridLayout> gpu_bands(const img::GridLayout& layout,
                                       std::size_t gpu_count) {
  const std::size_t gpus =
      std::max<std::size_t>(1, std::min(gpu_count, layout.rows));
  std::vector<img::GridLayout> bands;
  bands.reserve(gpus);
  for (std::size_t g = 0; g < gpus; ++g) {
    const RowBand rows = row_band(layout.rows, g, gpus);
    bands.push_back(img::GridLayout{rows.end - rows.begin + (g > 0 ? 1 : 0),
                                    layout.cols});
  }
  return bands;
}

}  // namespace

void StitchRequest::validate() const {
  if (provider == nullptr) fail("provider", "must not be null");
  const img::GridLayout layout = provider->layout();
  if (layout.tile_count() < 1) fail("provider", "empty grid");
  const StitchOptions& o = options;

  // --- invariants shared by every backend.
  if (o.peak_candidates < 1) {
    fail("peak_candidates",
         "must be >= 1 (got " + num(o.peak_candidates) + ")");
  }
  if (o.min_overlap_px < 1) {
    fail("min_overlap_px",
         "must be >= 1 (got " + std::to_string(o.min_overlap_px) + ")");
  }

  // --- hybrid scheduler knobs (scheduler.hpp).
  if (o.gpu_batch_pairs < 1) {
    fail("gpu_batch_pairs",
         "must be >= 1 (1 = per-pair dispatch, got " +
             num(o.gpu_batch_pairs) + ")");
  }
  if (o.use_p2p && o.steal_threshold > 0) {
    fail("steal_threshold",
         "incompatible with use_p2p: a stolen boundary pair would bypass "
         "the halo transform's cross-device release protocol");
  }

  // --- thread counts, scoped to the backends that consume them.
  if (uses_worker_threads(backend) && o.threads < 1) {
    fail("threads", "must be >= 1 for backend " + backend_name(backend));
  }
  if (is_pipelined(backend) && o.read_threads < 1) {
    fail("read_threads",
         "must be >= 1 for backend " + backend_name(backend));
  }

  // --- pool sizing against the traversal's working set (the paper's "pool
  // must exceed the smallest dimension of the image grid" rule,
  // generalized per traversal).
  const std::size_t ws = traversal_working_set(layout, o.traversal);
  if (backend == Backend::kPipelinedCpu && o.pool_buffers > 0 &&
      o.pool_buffers <= ws) {
    fail("pool_buffers",
         "pool of " + num(o.pool_buffers) + " cannot cover traversal " +
             traversal_name(o.traversal) + "'s working set of " + num(ws) +
             " on a " + num(layout.rows) + "x" + num(layout.cols) +
             " grid; need > " + num(ws));
  }
  if (backend == Backend::kSimpleGpu) {
    const std::size_t pool = pool_size(layout, o.traversal, o.pool_buffers);
    if (pool < ws + 2) {
      fail("pool_buffers",
           "pool of " + num(pool) + " cannot cover traversal " +
               traversal_name(o.traversal) + "'s working set of " + num(ws) +
               " plus an NCC working buffer; need >= " + num(ws + 2));
    }
  }

  // --- GPU pipeline invariants.
  if (backend == Backend::kPipelinedGpu) {
    if (o.gpu_count < 1) fail("gpu_count", "must be >= 1");
    if (o.ccf_threads < 1) fail("ccf_threads", "must be >= 1");
    if (o.fft_streams < 1) fail("fft_streams", "must be >= 1");
    if (o.fft_streams > 1 && !o.kepler_concurrent_fft) {
      fail("fft_streams",
           num(o.fft_streams) + " streams need kepler_concurrent_fft: the "
           "Fermi model serializes FFT kernels, so extra streams are dead "
           "weight");
    }
    if (o.use_p2p && o.gpu_count < 2) {
      fail("use_p2p",
           "requires gpu_count > 1 (got " + num(o.gpu_count) +
               "): peer-to-peer halo sharing needs a neighbouring device");
    }
    if (o.pool_buffers > 0) {
      for (const img::GridLayout& band : gpu_bands(layout, o.gpu_count)) {
        const std::size_t band_ws = traversal_working_set(band, o.traversal);
        if (o.pool_buffers <= band_ws) {
          fail("pool_buffers",
               "pool of " + num(o.pool_buffers) +
                   " cannot cover traversal " + traversal_name(o.traversal) +
                   "'s per-band working set of " + num(band_ws) + " (band " +
                   num(band.rows) + "x" + num(band.cols) + "); need > " +
                   num(band_ws));
        }
      }
    }
  }

  // --- fault-tolerance fields.
  if (deadline_ms < 0) {
    fail("deadline_ms", "must be >= 0 (0 means unlimited, got " +
                            std::to_string(deadline_ms) + ")");
  }
  if (retry.max_attempts < 1) {
    fail("retry.max_attempts", "must be >= 1 (1 means no retry)");
  }
  if (tenant.find('\n') != std::string::npos ||
      tenant.find('\r') != std::string::npos) {
    fail("tenant", "must not contain newlines (journal line framing)");
  }
  if (!(tenant_weight > 0.0) || !std::isfinite(tenant_weight)) {
    fail("tenant_weight", "must be positive and finite (got " +
                              std::to_string(tenant_weight) + ")");
  }
  if (tenant_quota_bytes != 0) {
    // A quota below one spectrum can never admit a cache entry; reject it
    // loudly instead of silently refusing every insert at runtime.
    const std::size_t one_spectrum = spectrum_entry_bytes(
        provider->tile_height(), provider->tile_width(), o.use_real_fft);
    if (tenant_quota_bytes < one_spectrum) {
      fail("tenant_quota_bytes",
           "quota of " + num(tenant_quota_bytes) + " bytes is below one " +
               num(provider->tile_height()) + "x" +
               num(provider->tile_width()) + " spectrum (" +
               num(one_spectrum) + " bytes): the job could never cache "
               "anything — raise the quota or use 0 (unlimited)");
    }
  }
  if (retry.backoff_multiplier < 1.0) {
    fail("retry.backoff_multiplier", "must be >= 1.0");
  }
  for (const std::size_t index : pre_quarantined) {
    if (index >= layout.tile_count()) {
      fail("pre_quarantined",
           "tile index " + num(index) + " outside the provider's " +
               num(layout.tile_count()) + "-tile grid");
    }
  }
  if (o.warm_start != nullptr &&
      (o.warm_start->layout.rows != layout.rows ||
       o.warm_start->layout.cols != layout.cols)) {
    fail("warm_start", "layout " + num(o.warm_start->layout.rows) + "x" +
                           num(o.warm_start->layout.cols) +
                           " does not match the provider's " +
                           num(layout.rows) + "x" + num(layout.cols));
  }
  // Every fallback backend must itself be a valid configuration: it runs
  // with this request's provider and options when the primary dies.
  for (const Backend fb : fallback) {
    StitchRequest sub;
    sub.backend = fb;
    sub.provider = provider;
    sub.options = options;
    sub.retry = retry;
    try {
      sub.validate();
    } catch (const InvalidArgument& e) {
      fail("fallback", std::string("backend ") + backend_name(fb) +
                           " rejects this request: " + e.what());
    }
  }
}

namespace {

std::size_t pool_bytes_for(const StitchRequest& request, Backend backend) {
  const TileProvider* provider = request.provider;
  const StitchOptions& options = request.options;
  const img::GridLayout layout = provider->layout();
  const std::size_t h = provider->tile_height();
  const std::size_t w = provider->tile_width();
  // Half-spectrum transforms hold h*(w/2+1) bins instead of h*w — the
  // real-FFT path halves the dominant term of every backend's footprint.
  const std::size_t spectrum_count =
      options.use_real_fft ? h * (w / 2 + 1) : h * w;
  const std::size_t transform_bytes = spectrum_count * sizeof(fft::Complex);
  const std::size_t tile_bytes = h * w * sizeof(std::uint16_t);
  const std::size_t ws = traversal_working_set(layout, options.traversal);

  switch (backend) {
    case Backend::kNaivePairwise:
      // Two tiles + both transforms + the correlation surface per pair.
      return 2 * tile_bytes + 3 * transform_bytes;
    case Backend::kSimpleCpu:
      return (ws + 1) * (transform_bytes + tile_bytes) + transform_bytes;
    case Backend::kMtCpu: {
      // Each band closes pairs independently; charge one in-flight scratch
      // transform per worker on top of the shared cache's working set.
      const std::size_t bands = std::max<std::size_t>(
          1, std::min(options.threads, layout.rows));
      return (ws + bands) * (transform_bytes + tile_bytes) +
             bands * transform_bytes;
    }
    case Backend::kPipelinedCpu: {
      const std::size_t slots =
          pool_size(layout, options.traversal, options.pool_buffers);
      return slots * (transform_bytes + tile_bytes) +
             options.threads * transform_bytes;
    }
    case Backend::kSimpleGpu: {
      const std::size_t pool =
          pool_size(layout, options.traversal, options.pool_buffers);
      // Device pool + host tiles pinned alongside + staging + reduce.
      return pool * (transform_bytes + tile_bytes) + 2 * transform_bytes;
    }
    case Backend::kPipelinedGpu: {
      std::size_t total = 0;
      for (const img::GridLayout& band :
           gpu_bands(layout, options.gpu_count)) {
        const std::size_t pool =
            pool_size(band, options.traversal, options.pool_buffers);
        total += (pool + 2) * transform_bytes  // forward pool + NCC pool
                 + pool * tile_bytes           // host pixels for the CCFs
                 + 8 * tile_bytes;             // bounded reader queue
      }
      return total;
    }
  }
  return 0;
}

/// Computed (not merely settled) pairs in a table.
std::size_t computed_pairs(const DisplacementTable& table) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < table.layout.tile_count(); ++i) {
    const img::TilePos pos = table.layout.pos_of(i);
    if (table.layout.has_west(pos) &&
        table.west[i].correlation != kNotComputed) {
      ++n;
    }
    if (table.layout.has_north(pos) &&
        table.north[i].correlation != kNotComputed) {
      ++n;
    }
  }
  return n;
}

/// Copies warm entries into slots the backend left untouched.
void merge_warm(DisplacementTable& table, const DisplacementTable& warm) {
  for (std::size_t i = 0; i < table.layout.tile_count(); ++i) {
    if (table.west[i].correlation == kNotComputed &&
        warm.west[i].correlation != kNotComputed) {
      table.west[i] = warm.west[i];
    }
    if (warm.west_status[i] == PairStatus::kFailed) {
      table.west_status[i] = PairStatus::kFailed;
    }
    if (table.north[i].correlation == kNotComputed &&
        warm.north[i].correlation != kNotComputed) {
      table.north[i] = warm.north[i];
    }
    if (warm.north_status[i] == PairStatus::kFailed) {
      table.north_status[i] = PairStatus::kFailed;
    }
  }
}

}  // namespace

std::size_t StitchRequest::predicted_pool_bytes() const {
  HS_REQUIRE(provider != nullptr, "provider must not be null");
  // A job that may fall back must fit whichever backend in its chain is
  // hungriest — the serve layer admits against the worst case.
  std::size_t bytes = pool_bytes_for(*this, backend);
  for (const Backend fb : fallback) {
    bytes = std::max(bytes, pool_bytes_for(*this, fb));
  }
  return bytes;
}

StitchResult stitch(const StitchRequest& request) {
  request.validate();

  // --- SIMD dispatch: a concrete tier forces the codelet selection for
  // every kernel this job (and, being process-global, any concurrent job)
  // runs. kAuto leaves the current forcing untouched so a CLI/env setting
  // made at startup stays in effect across serve jobs.
  if (request.options.kernel_dispatch != common::KernelDispatch::kAuto) {
    common::set_forced_tier(request.options.kernel_dispatch);
  }

  // --- deadline: armed on the same stop token every backend already polls
  // between pairs. A direct call starts the clock here; through the serve
  // layer the token was armed at submit() and this arm is a no-op (first
  // arm wins), so queue wait counts against the budget.
  pipe::CancelToken local_cancel;
  const pipe::CancelToken* cancel = request.options.cancel;
  if (request.deadline_ms > 0) {
    if (cancel == nullptr) cancel = &local_cancel;
    cancel->arm_deadline(pipe::CancelToken::Clock::now() +
                         std::chrono::milliseconds(request.deadline_ms));
  }
  if (cancel != nullptr) cancel->throw_if_requested();
  const img::GridLayout layout = request.provider->layout();
  Stopwatch stopwatch;

  // --- provider chain: [caller's provider] -> retry/quarantine decorator.
  const TileProvider* provider = request.provider;
  std::optional<fault::RetryingProvider> retrying;

  // --- ledger: fallback and quarantine both need pair-level progress; use
  // the caller's (serve checkpointing) or a local one.
  PairLedger* ledger = request.options.ledger;
  std::optional<PairLedger> local_ledger;
  if (ledger == nullptr &&
      (!request.fallback.empty() || request.retry.quarantine ||
       !request.pre_quarantined.empty())) {
    local_ledger.emplace(layout);
    ledger = &*local_ledger;
  }
  if (request.retry.enabled() || !request.pre_quarantined.empty()) {
    retrying.emplace(*request.provider, request.retry,
                     request.options.faults);
    if (ledger != nullptr) {
      retrying->on_quarantine(
          [ledger](std::size_t index) { ledger->quarantine_tile(index); });
    }
    // Known-poisoned tiles from a recovered checkpoint: blank immediately,
    // pairs failed up front — no retry budget spent rediscovering them.
    retrying->pre_quarantine(request.pre_quarantined);
    provider = &*retrying;
  }

  const DisplacementTable* caller_warm = request.options.warm_start;
  if (ledger != nullptr && caller_warm != nullptr) {
    ledger->prime(*caller_warm);
  }
  if (ledger != nullptr) {
    // After the prime: quarantine_tile un-records any warm pairs touching a
    // poisoned tile, so they come back kFailed, not kDone.
    for (const std::size_t index : request.pre_quarantined) {
      ledger->quarantine_tile(index);
    }
  }
  if (request.options.pairs_done != nullptr && caller_warm != nullptr) {
    // Checkpointed pairs count as progress the moment the job starts.
    request.options.pairs_done->fetch_add(computed_pairs(*caller_warm),
                                          std::memory_order_relaxed);
  }

  // --- attempt chain: primary, then each fallback on a device fault.
  std::vector<Backend> chain;
  chain.push_back(request.backend);
  chain.insert(chain.end(), request.fallback.begin(), request.fallback.end());

  StitchResult result;
  DisplacementTable warm_local;
  const DisplacementTable* warm = caller_warm;
  std::size_t fallbacks_taken = 0;
  std::size_t pairs_reused = 0;
  for (std::size_t attempt = 0;; ++attempt) {
    StitchOptions attempt_options = request.options;
    attempt_options.cancel = cancel;
    attempt_options.warm_start = warm;
    attempt_options.ledger = ledger;
    try {
      result = stitch(ResourceSet::for_backend(chain[attempt], attempt_options),
                      *provider, attempt_options);
      pairs_reused = warm != nullptr ? computed_pairs(*warm) : 0;
      break;
    } catch (const Error& e) {
      // Only device faults are recoverable by switching backends; I/O
      // errors, cancellation, and configuration errors propagate.
      const bool device_fault = dynamic_cast<const OutOfDeviceMemory*>(&e) !=
                                    nullptr ||
                                dynamic_cast<const DeviceError*>(&e) != nullptr;
      if (!device_fault || attempt + 1 >= chain.size()) throw;
      if (request.options.faults != nullptr) {
        request.options.faults->note_handled(
            dynamic_cast<const OutOfDeviceMemory*>(&e) != nullptr
                ? fault::Site::kDeviceAlloc
                : fault::Site::kStreamExec);
      }
      ++fallbacks_taken;
      // A watchdog stall interrupt belongs to the attempt that just died —
      // retire it (whatever exception won the unwind race) so the fallback
      // attempt starts with a clean token instead of re-throwing at its
      // first poll.
      if (cancel != nullptr) cancel->acknowledge_stall();
      // Everything the dead attempt finished is in the ledger; the next
      // backend starts warm from its snapshot (ledger is non-null here:
      // a non-empty fallback chain forces one above).
      warm_local = ledger->snapshot();
      warm = &warm_local;
    }
  }

  // --- finalize: one table carrying every pair (computed, reused, failed).
  if (ledger != nullptr) {
    result.table = ledger->snapshot();
    result.quarantined_tiles = ledger->quarantined();
  } else if (caller_warm != nullptr) {
    merge_warm(result.table, *caller_warm);
  }
  std::size_t failed = 0;
  for (std::size_t i = 0; i < layout.tile_count(); ++i) {
    const img::TilePos pos = layout.pos_of(i);
    if (layout.has_west(pos)) {
      if (result.table.west_status[i] == PairStatus::kFailed) {
        ++failed;
      } else if (result.table.west[i].correlation != kNotComputed) {
        result.table.west_status[i] = PairStatus::kDone;
      }
    }
    if (layout.has_north(pos)) {
      if (result.table.north_status[i] == PairStatus::kFailed) {
        ++failed;
      } else if (result.table.north[i].correlation != kNotComputed) {
        result.table.north_status[i] = PairStatus::kDone;
      }
    }
  }
  result.fallbacks_taken = fallbacks_taken;
  result.pairs_reused = pairs_reused;
  result.pairs_failed = failed;
  if (result.backend_used.empty()) {
    result.backend_used = backend_name(request.backend);
  }
  result.seconds = stopwatch.seconds();
  return result;
}

namespace {

template <typename T>
std::string join_csv(const std::vector<T>& values,
                     std::string (*render)(T)) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += render(values[i]);
  }
  return out;
}

std::vector<std::string> split_csv(const std::string& value) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin < value.size()) {
    const std::size_t end = value.find(',', begin);
    if (end == std::string::npos) {
      parts.push_back(value.substr(begin));
      break;
    }
    parts.push_back(value.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end == value.c_str() || *end != '\0') {
    throw IoError("request field " + key + ": bad integer '" + value + "'");
  }
  return static_cast<std::uint64_t>(v);
}

std::int64_t parse_i64(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (errno != 0 || end == value.c_str() || *end != '\0') {
    throw IoError("request field " + key + ": bad integer '" + value + "'");
  }
  return static_cast<std::int64_t>(v);
}

double parse_f64(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (errno != 0 || end == value.c_str() || *end != '\0') {
    throw IoError("request field " + key + ": bad number '" + value + "'");
  }
  return v;
}

}  // namespace

std::string serialize_request(const StitchRequest& request) {
  std::ostringstream out;
  const StitchOptions& o = request.options;
  char buffer[64];
  const auto emit_f64 = [&](const char* key, double v) {
    std::snprintf(buffer, sizeof buffer, "%.17g", v);
    out << key << '=' << buffer << '\n';
  };
  out << "backend=" << backend_name(request.backend) << '\n';
  out << "deadline_ms=" << request.deadline_ms << '\n';
  out << "tenant=" << request.tenant << '\n';
  emit_f64("tenant_weight", request.tenant_weight);
  out << "tenant_quota_bytes=" << request.tenant_quota_bytes << '\n';
  out << "retry.max_attempts=" << request.retry.max_attempts << '\n';
  out << "retry.backoff_us=" << request.retry.backoff_us << '\n';
  emit_f64("retry.backoff_multiplier", request.retry.backoff_multiplier);
  out << "retry.quarantine=" << (request.retry.quarantine ? 1 : 0) << '\n';
  out << "fallback="
      << join_csv<Backend>(request.fallback,
                           [](Backend b) { return backend_name(b); })
      << '\n';
  out << "pre_quarantined="
      << join_csv<std::size_t>(
             request.pre_quarantined,
             [](std::size_t i) { return std::to_string(i); })
      << '\n';
  out << "o.rigor=" << static_cast<int>(o.rigor) << '\n';
  out << "o.traversal=" << traversal_name(o.traversal) << '\n';
  out << "o.threads=" << o.threads << '\n';
  out << "o.read_threads=" << o.read_threads << '\n';
  out << "o.ccf_threads=" << o.ccf_threads << '\n';
  out << "o.gpu_count=" << o.gpu_count << '\n';
  out << "o.gpu_memory_bytes=" << o.gpu_memory_bytes << '\n';
  out << "o.pool_buffers=" << o.pool_buffers << '\n';
  out << "o.kepler_concurrent_fft=" << (o.kepler_concurrent_fft ? 1 : 0)
      << '\n';
  out << "o.fft_streams=" << o.fft_streams << '\n';
  out << "o.use_p2p=" << (o.use_p2p ? 1 : 0) << '\n';
  out << "o.peak_candidates=" << o.peak_candidates << '\n';
  out << "o.min_overlap_px=" << o.min_overlap_px << '\n';
  out << "o.use_real_fft=" << (o.use_real_fft ? 1 : 0) << '\n';
  out << "o.spill=" << (o.spill ? 1 : 0) << '\n';
  out << "o.steal_threshold=" << o.steal_threshold << '\n';
  out << "o.gpu_batch_pairs=" << o.gpu_batch_pairs << '\n';
  out << "o.kernel_dispatch=" << common::dispatch_name(o.kernel_dispatch)
      << '\n';
  return out.str();
}

StitchRequest deserialize_request(const std::string& text) {
  StitchRequest request;
  StitchOptions& o = request.options;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw IoError("request line without '=': " + line);
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "backend") {
      request.backend = parse_backend(value);
    } else if (key == "deadline_ms") {
      request.deadline_ms = parse_i64(key, value);
    } else if (key == "tenant") {
      request.tenant = value;
    } else if (key == "tenant_weight") {
      request.tenant_weight = parse_f64(key, value);
    } else if (key == "tenant_quota_bytes") {
      request.tenant_quota_bytes =
          static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "retry.max_attempts") {
      request.retry.max_attempts =
          static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "retry.backoff_us") {
      request.retry.backoff_us = parse_u64(key, value);
    } else if (key == "retry.backoff_multiplier") {
      request.retry.backoff_multiplier = parse_f64(key, value);
    } else if (key == "retry.quarantine") {
      request.retry.quarantine = parse_u64(key, value) != 0;
    } else if (key == "fallback") {
      for (const std::string& name : split_csv(value)) {
        request.fallback.push_back(parse_backend(name));
      }
    } else if (key == "pre_quarantined") {
      for (const std::string& index : split_csv(value)) {
        request.pre_quarantined.push_back(
            static_cast<std::size_t>(parse_u64(key, index)));
      }
    } else if (key == "o.rigor") {
      const std::int64_t rigor = parse_i64(key, value);
      if (rigor < 0 || rigor > static_cast<int>(fft::Rigor::kPatient)) {
        throw IoError("request field o.rigor: out of range '" + value + "'");
      }
      o.rigor = static_cast<fft::Rigor>(rigor);
    } else if (key == "o.traversal") {
      o.traversal = parse_traversal(value);
    } else if (key == "o.threads") {
      o.threads = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "o.read_threads") {
      o.read_threads = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "o.ccf_threads") {
      o.ccf_threads = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "o.gpu_count") {
      o.gpu_count = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "o.gpu_memory_bytes") {
      o.gpu_memory_bytes = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "o.pool_buffers") {
      o.pool_buffers = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "o.kepler_concurrent_fft") {
      o.kepler_concurrent_fft = parse_u64(key, value) != 0;
    } else if (key == "o.fft_streams") {
      o.fft_streams = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "o.use_p2p") {
      o.use_p2p = parse_u64(key, value) != 0;
    } else if (key == "o.peak_candidates") {
      o.peak_candidates = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "o.min_overlap_px") {
      o.min_overlap_px = parse_i64(key, value);
    } else if (key == "o.use_real_fft") {
      o.use_real_fft = parse_u64(key, value) != 0;
    } else if (key == "o.spill") {
      o.spill = parse_u64(key, value) != 0;
    } else if (key == "o.steal_threshold") {
      o.steal_threshold = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "o.gpu_batch_pairs") {
      o.gpu_batch_pairs = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "o.kernel_dispatch") {
      try {
        o.kernel_dispatch = common::parse_dispatch(value);
      } catch (const InvalidArgument&) {
        throw IoError("request field o.kernel_dispatch: bad value '" + value +
                      "'");
      }
    }
    // Unknown keys are ignored: a journal written by a newer build stays
    // replayable by this one for the fields both understand.
  }
  return request;
}

}  // namespace hs::stitch
