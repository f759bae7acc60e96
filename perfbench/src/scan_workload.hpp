// Closed-loop scan workloads: one client stitching one scan after another,
// each a full three-phase run (TIFF tiles on disk -> displacement table ->
// MST positions -> streamed linear-blend PGM).
#pragma once

#include <string>

#include "probes.hpp"
#include "stitch/stitcher.hpp"

namespace perfbench {

struct ScanSpec {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t tile_height = 0;
  std::size_t tile_width = 0;
  double overlap = 0.1;
  hs::stitch::Backend backend = hs::stitch::Backend::kPipelinedCpu;
  hs::stitch::StitchOptions options;
  /// Threads doing compute work during phase 1 (stitch.busy_frac base).
  std::size_t compute_threads = 1;
  /// Gate: mean Chebyshev edge error against ground truth, pixels.
  double edge_tolerance_px = 0.0;
};

/// Paper geometry: 1040x1392 tiles (1392 = 2^4*3*29), 4x5, complex spectra,
/// pipelined-cpu with 3 compute threads and 1 reader.
ScanSpec paper_scan_spec(bool toy);
/// 24x24 grid of 7-smooth 128x160 tiles, pipelined-gpu with 1 vgpu, r2c
/// spectra, 1 CCF thread.
ScanSpec tile_swarm_spec(bool toy);

/// Runs the closed loop for ctx.seconds (trace off), or in trace mode an
/// untraced half, a traced half and the layer replay. Spans go to `log`.
Outcome run_scan_workload(const RunContext& ctx, const ScanSpec& spec,
                          SpanLog* log);

}  // namespace perfbench
