#!/usr/bin/env python3
# Copyright 2026 The OCTOPUS Reproduction Authors
"""Compares a parent commit and a change on octobench.

    python3 bench/octobench/compare.py --parent PARENT_TREE \
        --change CHANGE_TREE [--pairs 10] [--seed 1]

PARENT_TREE and CHANGE_TREE are source trees of the two commits (e.g.
two checkouts made with `git archive`), each holding
bench/octobench/run.py. Every pair runs both sides on the same seed (seed
SEED + pair index), alternating which side runs first; each side builds
its own tree. Every workload in BENCHMARK.json runs, each for the
benchmark's run_seconds: a verdict covers every pairing of metric and
workload at the benchmark's own run length.

The verdicts follow the repository's measurement rules:
  WIN         the change beats the parent in at least 9/10 of the pairs
              and the medians differ by more than the parent's
              interquartile range (and no more requests fail);
  REGRESSION  the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the run-to-run spread (interquartile range over the
              median, either side) exceeds the bound, unless every
              change run reads better than every parent run;
  ok          within the bound.
Bounds, units and directions come from the change's BENCHMARK.json. The
report has one row per workload; raw runs are saved as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run(tree, workload, seed, seconds):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each tree builds in its own dir
    cmd = [sys.executable, os.path.join(tree, "bench", "octobench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if done.returncode != 0 or result is None:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"compare: {tree} failed on {workload} seed {seed}")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound, parent_failed, change_failed):
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    cq1, cq3 = quartiles(change)
    gain = sign * (cm - pm)  # > 0: the change reads better
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    spread = max((pq3 - pq1) / abs(pm) if pm else 0.0,
                 (cq3 - cq1) / abs(cm) if cm else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    rel = gain / abs(pm) if pm else 0.0
    if wins >= 0.9 * len(parent) and gain > (pq3 - pq1) and gain > 0:
        label = "WIN" if change_failed <= parent_failed else "WIN-VOID"
    elif spread > bound and not all_better:
        label = "unresolved"
    elif -gain > bound * abs(pm):
        label = "REGRESSION"
    else:
        label = "ok"
    return {"verdict": label, "parent_median": pm, "change_median": cm,
            "parent_q1": pq1, "parent_q3": pq3, "change_q1": cq1,
            "change_q3": cq3, "gain_rel": rel, "wins": wins,
            "pairs": len(parent), "spread": spread, "bound": bound}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("a claim needs at least 10 pairs")
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        seed = args.seed + i
        for w in workloads:
            sides = [("parent", parent), ("change", change)]
            if i % 2:
                sides.reverse()
            for side, tree in sides:
                runs[w][side].append(run(tree, w, seed, seconds))
            print(f"pair {i + 1}/{args.pairs} {w} seed {seed} done",
                  flush=True)

    report = {}
    for w in workloads:
        failed = {s: sum(r["failed"] for r in runs[w][s])
                  for s in ("parent", "change")}
        report[w] = {m["name"]: verdict(
            [r["metrics"][m["name"]]["value"] for r in runs[w]["parent"]],
            [r["metrics"][m["name"]]["value"] for r in runs[w]["change"]],
            m["better"], m["bound"], failed["parent"], failed["change"])
            for m in metrics}

    names = [m["name"] for m in metrics]
    print("\ncolumns: " + ", ".join(f"{i + 1}={n}" for i, n in
                                      enumerate(names)))
    print(f"{'workload':16}" + "".join(f"{i + 1:>13}" for i in
                                       range(len(names))))
    for w in workloads:
        cells = []
        for n in names:
            v = report[w][n]
            cells.append(f"{v['verdict'][:5]} {100 * v['gain_rel']:+.1f}%")
        print(f"{w:16}" + "".join(f"{c:>13}" for c in cells))
    print("\n(gain = change over parent, signed so that + is better)")
    for w in workloads:
        print(f"\n{w}")
        for n in names:
            v = report[w][n]
            print(f"  {n:24} {v['verdict']:11} parent {v['parent_median']:.6g}"
                  f" [{v['parent_q1']:.6g}, {v['parent_q3']:.6g}]  change "
                  f"{v['change_median']:.6g} [{v['change_q1']:.6g}, "
                  f"{v['change_q3']:.6g}]  wins {v['wins']}/{v['pairs']}  "
                  f"spread {v['spread']:.3f} (bound {v['bound']})")

    out_dir = os.path.join(change, "build", "octobench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir,
                        f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as f:
        json.dump({"parent": parent, "change": change, "seconds": seconds,
                   "runs": runs, "report": report}, f, indent=1)
    print(f"\nwrote {path}")
    return 1 if any(v["verdict"] == "REGRESSION" for r in report.values()
                    for v in r.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
