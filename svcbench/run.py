#!/usr/bin/env python3
"""Build and run the defrag-serve service benchmark.

Usage (from the root of a checkout):

    python3 svcbench/run.py --workload first_write|aged_series|mixed_tenants \
        --seed N --seconds S --trace 0|1

BENCHMARK.json lists aged_series and mixed_tenants; first_write runs by hand
(README.md says why it is left out).

Builds the repository's libraries and the svcbench binary with CMake into
$CARGO_TARGET_DIR/svcbench (default .bench_build/svcbench), runs the binary,
checks that its result line carries exactly the metrics BENCHMARK.json names
for the mode (end_to_end with --trace 0, per_layer with --trace 1), and
prints the binary's output. The last stdout line is the result JSON.
Exits non-zero, without a result line, when the build, the run or the check
fails. README.md in this directory documents workloads and metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("first_write", "aged_series", "mixed_tenants")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"svcbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then (re)build the binary; the log goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "svcbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")


def check_result(line, trace):
    """The result line must name exactly BENCHMARK.json's metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last output line is not JSON: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("result has no attempted requests")
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        fail(f"metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(wanted))}")
    for name, m in metrics.items():
        if m.get("unit") != wanted[name]:
            fail(f"{name} has unit {m.get('unit')!r}, wanted {wanted[name]!r}")
        if not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            fail(f"{name} has no finite value")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = target if target.is_absolute() else ROOT / target
    build_dir = build_dir / "svcbench"
    build(build_dir)

    # The daemon socket and the Chrome trace go here. The path handed to the
    # binary is relative to ROOT (its working directory) so the socket path
    # stays within sockaddr_un's limit however deep the checkout is.
    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        out_arg = str(out_dir.relative_to(ROOT))
    except ValueError:
        out_arg = str(out_dir)
    cmd = [str(build_dir / "svcbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_arg]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark run failed: {e}")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited {done.returncode}")
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
