// Shared command-line flag registration for every binary that builds a
// StitchOptions — the examples and the benchmark harnesses used to each
// hand-roll the same dozen flags with drifting names and defaults; this is
// the single source of truth for flag spelling, help text, and the mapping
// onto StitchOptions / AcquisitionParams.
//
// Usage:
//   CliParser cli("tool", "...");
//   stitch::StitchCliDefaults defaults;            // or customize
//   stitch::register_stitch_flags(cli, defaults);
//   stitch::register_grid_flags(cli);
//   if (!cli.parse(argc, argv)) return 0;
//   auto backend = stitch::backend_from_cli(cli);
//   auto options = stitch::options_from_cli(cli);  // parse only; invalid
//       // combinations are rejected by StitchRequest::validate() at
//       // stitch() time with a field-specific message.
#pragma once

#include "common/cli.hpp"
#include "simdata/plate.hpp"
#include "stitch/stitcher.hpp"

namespace hs::stitch {

/// Per-binary defaults shown in --help and used when a flag is absent.
struct StitchCliDefaults {
  std::string backend = "pipelined-gpu";
  /// Benches that sweep a fixed backend set omit the --backend flag.
  bool include_backend = true;
  StitchOptions options;
};

/// Registers: --backend --threads --read-threads --ccf-threads --gpus
/// --gpu-memory-mb --pool-buffers --traversal --kepler --fft-streams --p2p
/// --peaks --min-overlap.
void register_stitch_flags(CliParser& cli,
                           const StitchCliDefaults& defaults = {});

Backend backend_from_cli(const CliParser& cli);

/// Builds a StitchOptions from the flags above. Option invariants stay
/// centralized in StitchRequest::validate(). --kernel-dispatch is not an
/// option: a concrete tier is forced process-wide here, once.
StitchOptions options_from_cli(const CliParser& cli);

/// Synthetic-grid defaults for binaries that generate their own data.
struct GridCliDefaults {
  std::size_t rows = 4;
  std::size_t cols = 6;
  std::size_t tile_height = 96;
  std::size_t tile_width = 128;
  double overlap = 0.2;
  std::uint64_t seed = 42;
};

/// Registers: --rows --cols --tile-height --tile-width --overlap --seed.
void register_grid_flags(CliParser& cli, const GridCliDefaults& defaults = {});

img::GridLayout layout_from_cli(const CliParser& cli);
sim::AcquisitionParams acquisition_from_cli(const CliParser& cli);

/// Registers --deadline-ms (default 0: unlimited) — the end-to-end
/// wall-clock budget mapped onto StitchRequest::deadline_ms (or
/// StitchJob::deadline_ms for serving binaries).
void register_deadline_flag(CliParser& cli);

std::int64_t deadline_ms_from_cli(const CliParser& cli);

/// Registers --journal-dir (default "": journaling disabled) and
/// --journal-fsync (default "interval"). Serving binaries map these onto
/// serve::JournalConfig — this layer only validates spelling and hands the
/// strings through, so hs_stitch stays independent of hs_serve.
void register_journal_flags(CliParser& cli);

/// The --journal-dir value; empty = journaling disabled.
std::string journal_dir_from_cli(const CliParser& cli);

/// The --journal-fsync value, validated against the policy vocabulary
/// ("never", "interval", "every-record"). Throws InvalidArgument otherwise.
std::string journal_fsync_from_cli(const CliParser& cli);

/// Registers --spill-dir (default "": spill disabled), --soft-watermark and
/// --hard-watermark (defaults 0: disabled). Serving binaries map these onto
/// ServiceConfig::spill_dir / soft_watermark / hard_watermark; this layer
/// only range-checks and hands the values through, so hs_stitch stays
/// independent of hs_serve.
void register_spill_flags(CliParser& cli);

/// The --spill-dir value; empty = spill tier disabled.
std::string spill_dir_from_cli(const CliParser& cli);

/// The --soft-watermark / --hard-watermark values, validated to [0, 1]
/// (fractions of the service memory budget; 0 = disabled).
double soft_watermark_from_cli(const CliParser& cli);
double hard_watermark_from_cli(const CliParser& cli);

/// Registers --tenant (default "default"), --tenant-weight (default 1) and
/// --tenant-quota-mb (default 0: unlimited) — the multi-tenant identity a
/// serving binary maps onto StitchJob::tenant / tenant_weight /
/// tenant_quota_bytes.
void register_tenant_flags(CliParser& cli);

std::string tenant_from_cli(const CliParser& cli);
double tenant_weight_from_cli(const CliParser& cli);
std::size_t tenant_quota_bytes_from_cli(const CliParser& cli);

/// Registers --shared-cache-mb (0 = disabled) — the capacity of the
/// cross-job content-addressed transform cache a serving binary maps onto
/// ServiceConfig::shared_cache_bytes. `default_mb` is the value used when
/// the flag is not given; binaries that want sharing on by default pass a
/// non-zero capacity.
void register_shared_cache_flag(CliParser& cli, std::size_t default_mb = 0);

std::size_t shared_cache_bytes_from_cli(const CliParser& cli);

/// Registers --metrics-out (default "": disabled). When set, the binary
/// should call write_metrics_if_requested() before exiting.
void register_metrics_flags(CliParser& cli);

/// Writes a snapshot of the process-wide metrics registry to the path given
/// by --metrics-out: Prometheus-style text, or a JSON snapshot when the path
/// ends in ".json". No-op when the flag is empty. Returns true if written.
bool write_metrics_if_requested(const CliParser& cli);

/// Registers --json-out (default `default_path`; empty = disabled): where
/// the harness writes its machine-readable results. The committed BENCH_*
/// snapshots at the repo root are these files; scripts/perf_gate.py diffs a
/// fresh run against them with a tolerance band. `what` names the payload
/// in --help ("scheduler section results", ...).
void register_json_out_flag(CliParser& cli, const std::string& what,
                            const std::string& default_path);

/// The --json-out value; empty = disabled.
std::string json_out_from_cli(const CliParser& cli);

/// argv-level --json-out for google-benchmark harnesses, which hand the
/// rest of the command line to benchmark::Initialize: removes
/// "--json-out PATH" / "--json-out=PATH" from argv (updating *argc) and
/// returns the path, `default_path` when the flag is absent, or "" when
/// explicitly emptied (disabled).
std::string extract_json_out_flag(int* argc, char** argv,
                                  const std::string& default_path);

}  // namespace hs::stitch
