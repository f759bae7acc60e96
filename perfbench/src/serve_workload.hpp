// serve-mix: a closed loop of 4 outstanding jobs from one submitting thread
// against a StitchService (2 workers, two tenants weighted 2:1, shared
// cache smaller than the distinct-scan working set, disk spill tier,
// journal with interval fsync). Half the jobs are fresh scans, half
// resubmit a recent one.
#pragma once

#include "probes.hpp"

namespace perfbench {

Outcome run_serve_mix(const RunContext& ctx, SpanLog* log);

}  // namespace perfbench
