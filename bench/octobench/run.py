#!/usr/bin/env python3
# Copyright 2026 The OCTOPUS Reproduction Authors
"""Builds and runs octobench, the repository benchmark.

One run (the form BENCHMARK.json's "command" takes):

    python3 bench/octobench/run.py --workload monitor --seed 1 \
        --seconds 20 --trace 0

builds bench_octobench from this source tree if needed, runs it once, and
prints as its last stdout line one JSON object with "correct",
"attempted", "failed" and "metrics" (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).

Repeated runs, for judging noise:

    python3 bench/octobench/run.py --repeat 10 [--trace 0] [--seed 1]

runs every workload N times in alternating order (forward, then
backward, ...), round r with seed SEED + r, and prints each metric's
median, quartiles, interquartile range over the median and
(max - min) / median.

The workload names and the default --seconds come from BENCHMARK.json at
the root of the tree.

Builds go to $CARGO_TARGET_DIR/octobench when that is set, else to
build/octobench; run outputs go to <build dir>/out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"octobench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    base = target if target else "build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "octobench")


def load_benchmark():
    """Returns (workload names, run_seconds) from BENCHMARK.json."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json at {ROOT}: {e}")
    return [w["name"] for w in bench["workloads"]], bench["run_seconds"]


def build():
    """Configures (once) and builds bench_octobench; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no OCTOPUS source tree at {ROOT} (expected CMakeLists.txt "
             "and src/ two levels above this script)")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "bench_octobench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "bench_octobench")


def git_sha():
    # Only ask git about this tree itself: a checkout without .git must
    # not pick up the sha of some enclosing repository.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_once(binary, workload, seed, seconds, trace, sha, echo=True):
    """Runs the benchmark once; returns (exit code, result dict or None)."""
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", out_dir, "--git-sha", sha]
    if trace:
        cmd.append("--traced")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"octobench: {workload} seed {seed} timed out",
              file=sys.stderr)
        return 1, None
    lines = done.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    sys.stderr.write(done.stderr)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    scale = abs(median) if median else 1.0
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / scale,
            "range_over_median": (max(values) - min(values)) / scale}


def repeat(binary, args, sha, workloads):
    samples = {w: {} for w in workloads}
    runs = []
    for r in range(args.repeat):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.seed + r
            started = time.time()
            code, result = run_once(binary, w, seed, args.seconds,
                                    args.trace, sha, echo=False)
            wall = time.time() - started
            runs.append({"workload": w, "seed": seed, "exit": code,
                         "wall_s": wall, "result": result})
            if code != 0 or result is None:
                print(f"{w} seed {seed}: FAILED (exit {code})")
                continue
            print(f"{w} seed {seed}: {wall:.1f} s, correct="
                  f"{result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
            for name, metric in result["metrics"].items():
                samples[w].setdefault(name, []).append(metric["value"])
    summary = {w: {name: summarize(v) for name, v in metrics.items()}
               for w, metrics in samples.items()}
    for w in workloads:
        print(f"\n{w} ({args.repeat} runs)")
        print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/med':>8} {'range/med':>9}")
        for name, s in summary[w].items():
            print(f"  {name:36} {s['median']:14.6g} {s['q1']:14.6g} "
                  f"{s['q3']:14.6g} {s['iqr_over_median']:8.4f} "
                  f"{s['range_over_median']:9.4f}")
    path = os.path.join(build_dir(), "out",
                        f"repeat-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as f:
        json.dump({"git_sha": sha, "seconds": args.seconds,
                   "trace": args.trace, "runs": runs, "summary": summary},
                  f, indent=1)
    print(f"\nwrote {path}")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


def main():
    workloads, run_seconds = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run every workload this many times")
    args = parser.parse_args()
    if args.repeat <= 0 and args.workload is None:
        parser.error("--workload is required (or --repeat N)")

    binary = build()
    sha = git_sha()
    if args.repeat > 0:
        return repeat(binary, args, sha, workloads)
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace, sha)
    if result is None:
        print("octobench: the run printed no result", file=sys.stderr)
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
