#!/usr/bin/env python3
"""Toy-scale self-test of the end-to-end benchmark (about a minute once built).

    python3 perfbench/selftest.py

For every workload, at toy scale, it checks that:
  * an untraced and a traced run pass every correctness gate and print every
    end-to-end / per-layer metric of BENCHMARK.json with its unit;
  * a run with a deliberately perturbed table trips the correctness gate
    (non-zero exit, "correct": false).
It also checks that the benchmark refuses to run, with a non-zero exit and no
result, from a directory holding only BENCHMARK.json and perfbench/.
Exit status is 0 when every check held.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-scan", "tile-swarm", "serve-mix")


def run(args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done.stdout + done.stderr


def unmeasured(specs, measured):
    """Names of the metrics in `specs` absent from `measured` or not numbers
    in the listed unit."""
    bad = []
    for spec in specs:
        got = measured.get(spec["name"])
        if (got is None or got["unit"] != spec["unit"]
                or not isinstance(got["value"], (int, float))):
            bad.append(spec["name"])
    return bad


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, output = run(
                ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--toy"])
            label = f"{workload} trace={trace}"
            check(code == 0 and result is not None and result["correct"],
                  f"{label}: exit 0 and correct")
            if result is None:
                print(output[-3000:])
                continue
            bad = unmeasured(contract[key], result["metrics"])
            what = f"{label}: all {len(contract[key])} {key} metrics"
            if bad:
                what += " (missing: " + ", ".join(bad) + ")"
            check(not bad, what)
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{label}: attempted >= 1, failed == 0")

        code, result, _ = run(["--workload", workload, "--seed", "1",
                               "--seconds", "1", "--trace", "0", "--toy",
                               "--perturb-table"])
        check(code != 0 and result is not None and not result["correct"],
              f"{workload}: perturbed table trips the gate")

    orphan = os.path.join(ROOT, ".bench_build", "selftest-orphan")
    shutil.rmtree(orphan, ignore_errors=True)
    os.makedirs(orphan)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), orphan)
    shutil.copytree(HERE, os.path.join(orphan, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run(["--workload", "paper-scan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=orphan)
    shutil.rmtree(orphan, ignore_errors=True)
    check(code != 0 and result is None,
          "benchmark alone (no library sources) exits non-zero, no result")

    print(f"{len(failures)} check(s) failed" if failures
          else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
