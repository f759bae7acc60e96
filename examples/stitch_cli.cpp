// Standalone stitching tool — the "standalone C++ version" the paper says
// it will release.
//
// Three subcommand-style modes, composable through intermediate files:
//   --mode=generate   synthesize a TIFF tile dataset (stand-in for a scan)
//   --mode=stitch     phase 1 on a dataset -> displacement table CSV
//   --mode=compose    phases 2+3 from a table CSV -> streamed PGM mosaic
//   --mode=all        all three in sequence (default)
//
// --table and --output default to table.csv and mosaic.pgm inside --dir.
// Example round trip:
//   stitch_cli --mode=generate --dir=/tmp/scan --rows=6 --cols=8
//   stitch_cli --mode=stitch   --dir=/tmp/scan --rows=6 --cols=8
//              --backend=pipelined-gpu --gpus=2
//   stitch_cli --mode=compose  --dir=/tmp/scan --rows=6 --cols=8
#include <cstdio>

#include "common/cli.hpp"
#include "common/stopwatch.hpp"
#include "stitch/cli_flags.hpp"
#include "compose/positions.hpp"
#include "compose/streaming.hpp"
#include "serve/service.hpp"
#include "simdata/plate.hpp"
#include "stitch/request.hpp"
#include "stitch/stitcher.hpp"
#include "stitch/table_io.hpp"
#include "trace/trace.hpp"

using namespace hs;

namespace {

/// --table, or table.csv inside --dir when it is unset.
std::string table_path(const CliParser& cli) {
  const std::string& table = cli.get("table");
  return table.empty() ? cli.get("dir") + "/table.csv" : table;
}

/// --output, or mosaic.pgm inside --dir when it is unset.
std::string output_path(const CliParser& cli) {
  const std::string& output = cli.get("output");
  return output.empty() ? cli.get("dir") + "/mosaic.pgm" : output;
}

img::TileGridDataset dataset_from(const CliParser& cli) {
  img::TileGridDataset dataset(cli.get("dir"), cli.get("pattern"),
                               stitch::layout_from_cli(cli));
  const auto missing = dataset.missing_tiles();
  if (!missing.empty()) {
    throw IoError("dataset incomplete: " + std::to_string(missing.size()) +
                  " tiles missing (first: " + missing.front() + ")");
  }
  return dataset;
}

int run_generate(const CliParser& cli) {
  const sim::AcquisitionParams acq = stitch::acquisition_from_cli(cli);
  Stopwatch stopwatch;
  const auto grid = sim::make_synthetic_grid(acq);
  sim::write_dataset(grid, cli.get("dir"), cli.get("pattern"));
  std::printf("generated %zu tiles into %s in %s\n",
              grid.layout.tile_count(), cli.get("dir").c_str(),
              format_duration(stopwatch.seconds()).c_str());
  return 0;
}

// Journaled stitch: the run goes through a one-worker StitchService with a
// write-ahead journal, so killing the process mid-run loses nothing — the
// same command line afterwards recovers the job from the journal and resumes
// it from its last checkpoint, producing a bit-identical table.
int run_stitch_journaled(const CliParser& cli) {
  stitch::DatasetTileProvider provider(dataset_from(cli));

  serve::ServiceConfig config;
  config.workers = 1;
  config.checkpoint_interval_s = 0.25;
  config.journal.dir = stitch::journal_dir_from_cli(cli);
  config.journal.fsync =
      serve::parse_fsync_policy(stitch::journal_fsync_from_cli(cli));
  config.provider_resolver = [&provider](const std::string&) {
    return &provider;
  };
  serve::StitchService service(config);

  Stopwatch stopwatch;
  std::vector<serve::JobHandle> handles = service.recovered_jobs();
  if (!handles.empty()) {
    const serve::RecoveryStats& stats = service.recovery_stats();
    std::printf("recovered %zu unfinished job(s) from %s (%zu resumed from "
                "checkpoints, %zu fresh)\n",
                handles.size(), config.journal.dir.c_str(), stats.resumed,
                stats.fresh);
  } else {
    serve::StitchJob job;
    job.name = "stitch";
    job.backend = stitch::backend_from_cli(cli);
    job.provider = &provider;
    job.options = stitch::options_from_cli(cli);
    job.deadline_ms = stitch::deadline_ms_from_cli(cli);
    job.checkpoint_path = config.journal.dir + "/stitch.ckpt";
    handles.push_back(service.submit(std::move(job)));
  }

  for (serve::JobHandle& handle : handles) {
    const stitch::StitchResult& result = handle.wait();
    std::printf("phase 1 [journaled]: %s over %zu pairs\n",
                format_duration(stopwatch.seconds()).c_str(),
                provider.layout().pair_count());
    stitch::write_table_csv(table_path(cli), result.table);
    std::printf("wrote displacement table: %s\n", table_path(cli).c_str());
  }
  return 0;
}

int run_stitch(const CliParser& cli) {
  if (!stitch::journal_dir_from_cli(cli).empty()) {
    return run_stitch_journaled(cli);
  }
  stitch::DatasetTileProvider provider(dataset_from(cli));
  stitch::StitchOptions options = stitch::options_from_cli(cli);

  trace::Recorder recorder(!cli.get("trace").empty());
  if (recorder.enabled()) options.recorder = &recorder;

  Stopwatch stopwatch;
  const auto backend = stitch::backend_from_cli(cli);
  stitch::StitchRequest request{backend, &provider, options};
  request.deadline_ms = stitch::deadline_ms_from_cli(cli);
  const auto result = stitch::stitch(request);
  std::printf("phase 1 [%s]: %s over %zu pairs (%llu reads, %llu forward "
              "FFTs, peak %zu transforms live)\n",
              stitch::backend_name(backend).c_str(),
              format_duration(stopwatch.seconds()).c_str(),
              provider.layout().pair_count(),
              static_cast<unsigned long long>(result.ops.tile_reads),
              static_cast<unsigned long long>(result.ops.forward_ffts),
              result.peak_live_transforms);
  stitch::write_table_csv(table_path(cli), result.table);
  std::printf("wrote displacement table: %s\n", table_path(cli).c_str());
  if (recorder.enabled()) {
    recorder.write_chrome_json(cli.get("trace"));
    std::printf("wrote execution trace: %s\n", cli.get("trace").c_str());
  }
  return 0;
}

int run_compose(const CliParser& cli) {
  stitch::DatasetTileProvider provider(dataset_from(cli));
  const auto table = stitch::read_table_csv(table_path(cli));
  HS_REQUIRE(table.layout.rows == provider.layout().rows &&
                 table.layout.cols == provider.layout().cols,
             "table grid does not match dataset grid");
  const auto method = cli.get("phase2") == "least-squares"
                          ? compose::Phase2Method::kLeastSquares
                          : compose::Phase2Method::kMaximumSpanningTree;
  const auto positions = compose::resolve_positions(table, method);
  std::printf("phase 2 [%s]: consistency RMS %.3f px\n",
              cli.get("phase2").c_str(),
              compose::consistency_rms(table, positions));

  Stopwatch stopwatch;
  const auto stats = compose::compose_mosaic_to_pgm(
      provider, positions, compose::BlendMode::kLinear, output_path(cli));
  std::printf("phase 3 (streamed): %zu x %zu mosaic -> %s in %s\n",
              stats.width, stats.height, output_path(cli).c_str(),
              format_duration(stopwatch.seconds()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("stitch_cli", "standalone three-phase stitching tool");
  cli.add_flag("mode", "generate | stitch | compose | all", "all");
  cli.add_flag("dir", "dataset directory", "stitch_cli_data");
  cli.add_flag("pattern", "tile filename pattern", "t_r{r}_c{c}.tif");
  stitch::StitchCliDefaults defaults;
  defaults.options.threads = 4;
  stitch::register_stitch_flags(cli, defaults);
  stitch::register_deadline_flag(cli);
  stitch::register_grid_flags(cli);
  cli.add_flag("table", "displacement table CSV path (default <dir>/table.csv)",
               "");
  cli.add_flag("phase2", "mst | least-squares", "mst");
  cli.add_flag("output",
               "mosaic output, 16-bit PGM, streamed (default <dir>/mosaic.pgm)",
               "");
  cli.add_flag("trace", "write chrome://tracing JSON here (stitch mode)", "");
  stitch::register_journal_flags(cli);
  stitch::register_metrics_flags(cli);
  if (!cli.parse(argc, argv)) return 0;

  try {
    const std::string mode = cli.get("mode");
    int rc = 2;
    if (mode == "generate") {
      rc = run_generate(cli);
    } else if (mode == "stitch") {
      rc = run_stitch(cli);
    } else if (mode == "compose") {
      rc = run_compose(cli);
    } else if (mode == "all") {
      rc = run_generate(cli);
      if (rc == 0) rc = run_stitch(cli);
      if (rc == 0) rc = run_compose(cli);
    } else {
      std::fprintf(stderr, "unknown --mode=%s\n%s", mode.c_str(),
                   cli.usage().c_str());
      return 2;
    }
    if (stitch::write_metrics_if_requested(cli)) {
      std::printf("wrote metrics snapshot: %s\n",
                  cli.get("metrics-out").c_str());
    }
    return rc;
  } catch (const Error& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
