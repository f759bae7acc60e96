#include "replay.hpp"

#include <vector>

#include "stitch/ccf.hpp"

namespace perfbench {

namespace {

namespace st = hs::stitch;

/// Runs `fn`, returns its wall seconds, and logs it as a span.
template <typename Fn>
double timed(SpanLog* log, const char* name, std::uint64_t parent,
             std::uint64_t run, Fn&& fn) {
  const double span_t0 = log != nullptr ? log->now_us() : 0.0;
  const double t0 = wall_s();
  fn();
  const double seconds = wall_s() - t0;
  if (log != nullptr) log->record(name, span_t0, log->now_us(), parent, run);
  return seconds;
}

std::size_t wrap(std::int64_t shift, std::size_t extent) {
  const auto n = static_cast<std::int64_t>(extent);
  return static_cast<std::size_t>(((shift % n) + n) % n);
}

}  // namespace

ReplayTotals replay_layers(const st::TileProvider& tiles,
                           const st::DisplacementTable& table,
                           const st::FftPipeline& pipeline, SpanLog* log,
                           std::uint64_t run) {
  const hs::img::GridLayout layout = tiles.layout();
  const std::size_t h = pipeline.height;
  const std::size_t w = pipeline.width;
  const std::size_t bins = pipeline.spectrum_count();
  SpanLog::Scope root(log, "replay", 0, run);

  ReplayTotals totals;
  totals.points = h * w;
  st::PciamScratch scratch;
  std::vector<hs::fft::Complex> inverse_in(bins);
  std::vector<hs::fft::Complex> inverse_out(pipeline.real_fft ? 0 : h * w);
  std::vector<double> inverse_real(pipeline.real_fft ? h * w : 0);

  struct Row {
    std::vector<hs::img::ImageU16> tiles;
    std::vector<std::vector<hs::fft::Complex>> spectra;
  };
  Row previous;
  for (std::size_t r = 0; r < layout.rows; ++r) {
    Row current;
    for (std::size_t c = 0; c < layout.cols; ++c) {
      current.tiles.push_back(tiles.load({r, c}));
      current.spectra.emplace_back(bins);
      totals.forward_s += timed(log, "fft.forward", root.id(), run, [&] {
        st::tile_forward_spectrum(current.tiles.back(), pipeline,
                                  current.spectra.back().data(), scratch);
      });
      ++totals.forwards;
    }
    auto replay_pair = [&](const hs::img::ImageU16& ref_tile,
                           const std::vector<hs::fft::Complex>& ref_spec,
                           const hs::img::ImageU16& mov_tile,
                           const std::vector<hs::fft::Complex>& mov_spec,
                           const st::Translation& expected) {
      st::Translation got;
      totals.pair_s += timed(log, "stitch.pciam_from_spectra", root.id(), run,
                             [&] {
                               got = st::pciam_from_spectra(
                                   ref_spec.data(), mov_spec.data(), ref_tile,
                                   mov_tile, pipeline, scratch, nullptr);
                             });
      inverse_in = ref_spec;
      totals.inverse_s += timed(log, "fft.inverse", root.id(), run, [&] {
        if (pipeline.real_fft) {
          pipeline.c2r->execute(inverse_in.data(), inverse_real.data());
        } else {
          pipeline.inverse->execute(inverse_in.data(), inverse_out.data());
        }
      });
      st::Translation ccf_pick;
      totals.ccf_s += timed(log, "stitch.disambiguate_peak", root.id(), run,
                            [&] {
                              ccf_pick = st::disambiguate_peak(
                                  ref_tile, mov_tile, wrap(expected.x, w),
                                  wrap(expected.y, h));
                            });
      if (!(got == expected) || !(ccf_pick == expected)) ++totals.mismatches;
      ++totals.pairs;
    };
    for (std::size_t c = 0; c < layout.cols; ++c) {
      if (c > 0) {
        replay_pair(current.tiles[c - 1], current.spectra[c - 1],
                    current.tiles[c], current.spectra[c],
                    table.west_of({r, c}));
      }
      if (r > 0) {
        replay_pair(previous.tiles[c], previous.spectra[c], current.tiles[c],
                    current.spectra[c], table.north_of({r, c}));
      }
    }
    previous = std::move(current);
  }
  return totals;
}

void put_replay_metrics(MetricSet& layer, const ReplayTotals& replay) {
  const double points = static_cast<double>(replay.points);
  const double forwards = static_cast<double>(replay.forwards);
  const double pairs = static_cast<double>(replay.pairs);
  put(layer, "fft.forward_s", replay.forward_s, "s", replay.forwards);
  put(layer, "fft.inverse_s", replay.inverse_s, "s", replay.pairs);
  put(layer, "fft.forward_ns_per_pt",
      1e9 * replay.forward_s / (forwards * points), "ns", replay.forwards);
  put(layer, "fft.inverse_ns_per_pt",
      1e9 * replay.inverse_s / (pairs * points), "ns", replay.pairs);
  put(layer, "stitch.pair_s", replay.pair_s, "s", replay.pairs);
  put(layer, "stitch.ccf_s", replay.ccf_s, "s", replay.pairs);
  put(layer, "stitch.ncc_peak_s",
      replay.pair_s - replay.inverse_s - replay.ccf_s, "s", replay.pairs);
}

}  // namespace perfbench
