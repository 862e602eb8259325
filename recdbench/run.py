#!/usr/bin/env python3
"""Builds and runs the RecD benchmark harness for one workload.

Usage, from the repository root:

    python3 recdbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: train_rm1_highdup, preprocess_rm3_lowdup, serve_zoo_open
(BENCHMARK.json says why each exists). The harness is compiled from
source into .bench_build/ on first use (recdbench/CMakeLists.txt builds
the repository's src/ library plus recd_bench); later runs only rebuild
what changed. recd_bench prints a table of every metric it measured; the
last line of standard output is the result JSON, holding exactly the
metrics BENCHMARK.json lists for the run's --trace mode (end_to_end for
0, per_layer for 1), which every workload reports under the same names.
Build output goes to standard error. Full results with provenance and
the trace windows of --trace 1 runs land in .bench_build/results/.

Exit codes: 0 correct, 1 a correctness check failed, 2 the build or the
run failed, or a listed metric is missing (no result line is printed
then).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "recdbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "recd_bench"
RUN_TIMEOUT_S = 170


def listed_metrics(trace):
    """Names of the metrics BENCHMARK.json lists for one --trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace == "1" else
                                     "end_to_end"]]


def result_line(stdout, names, complete):
    """The harness's last line cut down to `names`; None when it is not a
    result or when `complete` and one of `names` is missing from it."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    metrics = result.get("metrics", {})
    missing = [n for n in names if n not in metrics]
    if complete and missing:
        print(f"recdbench: no value for {', '.join(missing)}", file=sys.stderr)
        return None
    result["metrics"] = {n: metrics[n] for n in names if n in metrics}
    return json.dumps(result)


def build():
    """Configures (once) and builds recd_bench; output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "recd_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            return out[1]
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "recdbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs (the self-test)")
    parser.add_argument("--fault", default="none",
                        help="corrupt one output before the checks (self-test)")
    args = parser.parse_args()

    if not build():
        print("recdbench: build failed", file=sys.stderr)
        return 2
    names = listed_metrics(args.trace)
    results = BUILD_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, RECD_BENCH_COMMIT=source_commit())
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size, "--fault", args.fault,
           "--out-dir", str(results)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"recdbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2
    # A failed correctness check (exit 1) still reports what it measured.
    line = result_line(run.stdout, names, complete=run.returncode == 0)
    if run.returncode not in (0, 1) or line is None:
        sys.stderr.write(run.stdout)
        print(f"recdbench: recd_bench exited {run.returncode}", file=sys.stderr)
        return 2
    sys.stdout.write(run.stdout[:run.stdout.rstrip().rfind("\n") + 1])
    print(line)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
