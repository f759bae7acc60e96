// Single-threaded layer replay: every tile's forward transform and every
// pair's PCIAM, inverse FFT and CCF disambiguation, each timed on its own,
// on the workload's own tiles and pairs.
#pragma once

#include <cstdint>

#include "probes.hpp"
#include "stitch/pciam.hpp"

namespace perfbench {

struct ReplayTotals {
  std::size_t forwards = 0;
  std::size_t pairs = 0;
  /// Pixels per tile transform (h * w), the ns-per-point denominator.
  std::size_t points = 0;
  double forward_s = 0.0;  // tile_forward_spectrum
  double pair_s = 0.0;     // pciam_from_spectra (NCC + inverse + peak + CCF)
  double inverse_s = 0.0;  // Plan2d / PlanC2r2d::execute alone
  double ccf_s = 0.0;      // disambiguate_peak alone
  /// Pairs whose replayed translation differs from the table's.
  std::size_t mismatches = 0;
};

/// Replays phase 1 for `table` on `tiles` (row by row, so two rows of
/// spectra are live at a time). Spans go to `log` when it is set.
ReplayTotals replay_layers(const hs::stitch::TileProvider& tiles,
                           const hs::stitch::DisplacementTable& table,
                           const hs::stitch::FftPipeline& pipeline,
                           SpanLog* log, std::uint64_t run);

/// Sets the replay-timed per-layer metrics: fft.forward_s, fft.inverse_s,
/// both ns-per-point figures, stitch.pair_s, stitch.ccf_s and
/// stitch.ncc_peak_s (= pair - inverse - CCF).
void put_replay_metrics(MetricSet& layer, const ReplayTotals& replay);

}  // namespace perfbench
