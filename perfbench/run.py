#!/usr/bin/env python3
"""End-to-end stitching benchmark: build, run one workload, print the result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper-scan|tile-swarm|serve-mix \
        --seed N --seconds S --trace 0|1 [--toy] [--perturb-table]

The first run configures and builds perfbench/ (which builds the library
sources of the checkout) into .bench_build/cmake; later runs only re-check
the build. The benchmark binary prints a report with every metric, its unit
and sample count; this script then prints, as the last line of standard
output, one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). Traced runs also leave their spans in
.bench_build/spans/. Exit status is 0 only when every correctness gate
passed and every listed metric was measured.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench_e2e")
WORKLOADS = ("paper-scan", "tile-swarm", "serve-mix")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark binary; exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run from a checkout of "
             "the repository")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", CMAKE_DIR, "--target",
                      "perfbench_e2e", "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-20000:])
                fail("build failed: " + " ".join(step))


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args):
    """Runs the binary; returns (exit code, parsed RESULT or None)."""
    name = f"{args.workload}-seed{args.seed}"
    work = os.path.join(BUILD, "runs", f"{name}-{os.getpid()}")
    spans = os.path.join(BUILD, "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--spans-out", os.path.join(spans, f"{name}.json")]
    if args.toy:
        cmd.append("--toy")
    if args.perturb_table:
        cmd.append("--perturb-table")
    result = None
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    except OSError as e:
        fail(f"cannot run {BINARY}: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in done.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="tiny grids: the whole run takes seconds")
    parser.add_argument("--perturb-table", action="store_true",
                        help="corrupt one table entry to show the gate trips")
    args = parser.parse_args()

    contract = load_contract()
    build()
    code, result = run(args)
    if result is None:
        fail(f"benchmark binary exited {code} without a result")

    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    measured = result["layer"] if args.trace else result["e2e"]
    correct = bool(result["correct"]) and code == 0
    if code != 0:
        print(f"perfbench: benchmark binary exited {code}", file=sys.stderr)
    metrics = {}
    for spec in wanted:
        got = measured.get(spec["name"])
        if (got is None or got["unit"] != spec["unit"]
                or not isinstance(got["value"], (int, float))):
            print(f"metric {spec['name']} missing or not in {spec['unit']}",
                  file=sys.stderr)
            correct = False
            continue
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
