// The validated request API for phase 1.
//
// A StitchRequest bundles everything one stitch job needs — backend, tile
// provider, options — behind a single validate() that centralizes every
// option invariant the backends used to enforce ad hoc (thread counts,
// extension-flag combinations, and — through the scheduler's shape rule —
// pool sizing against the traversal working set).
// Validation errors are InvalidArgument whose message begins with the
// offending field's name, so a service can map them back to request fields.
//
// stitch(Backend, provider, options) in stitcher.hpp remains as a thin
// forwarding wrapper over this API; no existing call site changes.
#pragma once

#include <vector>

#include "fault/provider.hpp"
#include "stitch/stitcher.hpp"

namespace hs::stitch {

struct StitchRequest {
  Backend backend = Backend::kSimpleCpu;
  /// Non-owning; must outlive the request's execution.
  const TileProvider* provider = nullptr;
  StitchOptions options;

  // --- fault tolerance (trailing fields keep aggregate init sites valid) --
  /// Tile-read retry/backoff/quarantine policy. When enabled, stitch()
  /// wraps the provider in a fault::RetryingProvider so transient I/O
  /// faults heal in place; with `quarantine` set, a permanently bad tile
  /// marks its pairs kFailed instead of failing the job.
  fault::RetryPolicy retry = {};
  /// Backends to fall back to, in order, when the running backend dies on a
  /// device fault (OutOfDeviceMemory / DeviceError). Every pair already in
  /// the ledger is reused, never recomputed. Typical chain for a GPU
  /// primary: {Backend::kMtCpu}.
  std::vector<Backend> fallback = {};
  /// Tile indices known to be poisoned before the run starts — the
  /// quarantine sidecar of a recovered checkpoint. stitch() seeds the
  /// retrying provider's quarantine set (the tiles blank out immediately,
  /// no retry budget burned) and fails their pairs in the ledger, exactly
  /// as if they had been quarantined during this run.
  std::vector<std::size_t> pre_quarantined = {};
  /// Wall-clock budget for the whole request, milliseconds; 0 = unlimited.
  /// Enforced cooperatively at pair granularity in every backend via the
  /// cancel token: expiry throws DeadlineExceeded at the next preemption
  /// point. Through the serve layer the clock starts at submit() (queue
  /// wait counts against the budget); through a direct stitch() call it
  /// starts at entry. Falling back does not extend the budget.
  std::int64_t deadline_ms = 0;

  // --- multi-tenant identity (serve-layer fairness; see service.hpp) ------
  /// Tenant this job belongs to; empty is normalized to "default" by the
  /// serve layer. Must not contain newlines (journal line framing).
  std::string tenant = "";
  /// Weighted-fair-queueing weight: a tenant with twice the weight is
  /// admitted twice as often under contention. Must be positive and finite.
  double tenant_weight = 1.0;
  /// Byte cap this tenant may hold inside the service (admitted-job
  /// footprints and shared-cache residency); 0 = unlimited.
  std::size_t tenant_quota_bytes = 0;

  /// Checks every invariant of this backend/options/provider combination.
  /// Throws InvalidArgument with a message of the form
  ///   "<field>: <what is wrong> ..."
  /// naming the first offending StitchOptions (or request) field. A request
  /// that passes validate() will not fail on configuration grounds inside
  /// the backend (it can still fail at runtime on I/O or device memory
  /// exhaustion).
  void validate() const;

  /// Predicted peak transform-pool footprint in bytes (host + device), the
  /// quantity the serve layer admits jobs against: the scheduler's own
  /// shape rule priced for the hungriest backend in the attempt chain
  /// (shape_pool_bytes in scheduler.hpp).
  std::size_t predicted_pool_bytes() const;
};

/// Validates and runs the request. The single entry point every wrapper and
/// the serve layer funnel through.
StitchResult stitch(const StitchRequest& request);

/// Serializes everything a journal can replay: backend, options, retry,
/// fallback chain, deadline, pre-quarantined tiles. Pointer fields
/// (provider, recorder, cancel, ledger, ...) are process-local and
/// excluded — recovery rebinds them. One key=value pair per line; stable
/// across versions (unknown keys are ignored on read).
std::string serialize_request(const StitchRequest& request);

/// Inverse of serialize_request. The returned request has provider ==
/// nullptr; the caller must rebind one before validate()/stitch(). Throws
/// IoError on a malformed value.
StitchRequest deserialize_request(const std::string& text);

}  // namespace hs::stitch
