// perfbench_e2e — end-to-end stitching benchmark binary.
//
//   perfbench_e2e --workload paper-scan|tile-swarm|serve-mix --seed N
//                 --seconds S --trace 0|1 --work-dir DIR
//                 [--spans-out FILE] [--toy] [--perturb-table]
//
// Prints a human-readable report (every metric with unit and sample count,
// the host fingerprint, failed gates) and, as its last line,
//   RESULT {"correct": ..., "attempted": ..., "failed": ..., "e2e": {...},
//           "layer": {...}, "host": {...}}
// Exit status: 0 when every correctness gate passed, 1 when one failed,
// 2 on a usage error or an exception.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "probes.hpp"
#include "scan_workload.hpp"
#include "serve_workload.hpp"

namespace {

using perfbench::MetricSet;

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e "
               "--workload paper-scan|tile-swarm|serve-mix "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--spans-out FILE] [--toy] [--perturb-table]\n");
}

/// JSON number; a non-finite value (a metric with no samples to divide by)
/// becomes null, which run.py reports as not measured.
std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string metrics_json(const MetricSet& set) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : set) {
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
           number(m.value) + ", \"unit\": \"" + m.unit +
           "\", \"samples\": " + std::to_string(m.samples) + "}";
    first = false;
  }
  return out + "}";
}

void print_metrics(const char* kind, const MetricSet& set) {
  for (const auto& [name, m] : set) {
    std::printf("%-6s %-32s %14.6g %-6s n=%zu\n", kind, name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunContext ctx;
  std::string spans_out;
  int trace_flag = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      ctx.workload = value();
    } else if (arg == "--seed") {
      ctx.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      ctx.seconds = std::stod(value());
    } else if (arg == "--trace") {
      trace_flag = std::stoi(value());
    } else if (arg == "--work-dir") {
      ctx.work_dir = value();
    } else if (arg == "--spans-out") {
      spans_out = value();
    } else if (arg == "--toy") {
      ctx.toy = true;
    } else if (arg == "--perturb-table") {
      ctx.perturb_table = true;
    } else {
      usage();
      return 2;
    }
  }
  if (ctx.work_dir.empty() || (trace_flag != 0 && trace_flag != 1) ||
      ctx.seconds <= 0.0) {
    usage();
    return 2;
  }
  ctx.trace = trace_flag == 1;

  const std::string host = perfbench::host_fingerprint_json();
  std::printf(
      "# perfbench workload=%s seed=%llu seconds=%g trace=%d scale=%s\n",
              ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
              ctx.seconds, trace_flag, ctx.toy ? "toy" : "full");
  std::printf("# host %s\n", host.c_str());
  std::fflush(stdout);

  perfbench::SpanLog log;
  perfbench::Outcome outcome;
  try {
    std::filesystem::create_directories(ctx.work_dir);
    if (ctx.workload == "paper-scan") {
      outcome = perfbench::run_scan_workload(
          ctx, perfbench::paper_scan_spec(ctx.toy), &log);
    } else if (ctx.workload == "tile-swarm") {
      outcome = perfbench::run_scan_workload(
          ctx, perfbench::tile_swarm_spec(ctx.toy), &log);
    } else if (ctx.workload == "serve-mix") {
      outcome = perfbench::run_serve_mix(ctx, &log);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", ctx.workload.c_str());
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  if (ctx.trace && !spans_out.empty()) {
    const std::string header =
        "{\"workload\": \"" + ctx.workload +
        "\", \"seed\": " + std::to_string(ctx.seed) + ", \"host\": " + host +
        "}";
    log.write_json(spans_out, header);
    std::printf("# spans %zu written to %s\n", log.size(), spans_out.c_str());
  }
  print_metrics("e2e", outcome.e2e);
  if (ctx.trace) print_metrics("layer", outcome.layer);
  for (const auto& note : outcome.notes) std::printf("# %s\n", note.c_str());
  for (const auto& why : outcome.gate_failures) {
    std::printf("gate FAILED: %s\n", why.c_str());
    std::fprintf(stderr, "perfbench: gate FAILED: %s\n", why.c_str());
  }
  std::printf(
      "RESULT {\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"seed\": %llu, \"e2e\": %s, \"layer\": %s, \"host\": %s}\n",
      outcome.correct ? "true" : "false", outcome.attempted, outcome.failed,
      static_cast<unsigned long long>(ctx.seed),
      metrics_json(outcome.e2e).c_str(),
      metrics_json(ctx.trace ? outcome.layer : MetricSet{}).c_str(),
      host.c_str());
  return outcome.correct ? 0 : 1;
}
