#!/usr/bin/env python3
"""Perf smoke over bench_dynamic's summary record.

Reads BENCH_dynamic.json and enforces the lease-economy guarantees:

  * `access_over_distinct` — priced page accesses per distinct page
    touched. Deterministic (pure counters), so the bound is tight: the
    lease layer must keep a batch's accesses within 2x of the distinct
    pages it crawls. A regression here means pages are being re-priced
    per read again (the pin tax is back).
  * `paged_over_in_memory_warm` — warm-pool paged wall clock over
    in-memory wall clock. Wall-clock on a shared CI runner is noisy, so
    the bound is deliberately loose; it exists to catch the paged path
    falling off a cliff (an accidental per-read pin round trip shows up
    as >3x immediately), not to police single-digit percentages.
  * `probe_position_reads` — surface positions the fused probe read.
    Deterministic: every batch gathers ceil(surface / stride) positions
    once per shard, however many queries it holds, so the summary must
    satisfy probe_position_reads == batches * shards *
    ceil(surface_vertices / probe_stride) exactly. A regression to
    per-query surface reads multiplies it by the queries per shard.
  * Traversal totals — walk invocations, walked vertices, crawl edges,
    result vertices and the queries the Eq. 6 route answered by the
    tiled scan, per backend, over the whole run. Deterministic
    for given settings (scale, steps, queries per step; any thread
    count), so they must equal the committed baseline for those
    settings, tools/perf_smoke_baseline.json, exactly. A change that
    moves them changes what the engine computes: re-baseline on purpose,
    in the same change, and say why.

When also given BENCH_server.json, additionally enforces:

  * `tracing_overhead` — the server threads' CPU time over a warm paged
    single-client loopback run with the flight-recorder ring and the
    journal on, divided by the same run with them off: the median over
    31 pairs run in alternating order (bench_server's server_summary
    record). Tracing is one 136-byte record append per request behind a
    predictable branch; it must stay within 5% of free or it is not a
    flight recorder any more.

When also given BENCH_epoch.json, additionally enforces:

  * Epoch-history counters — per backend and per step, the pinned
    query's page accesses, the spill sidecar's total bytes, the
    resident overlay bytes and the spilled-epoch count. Deterministic
    for given settings (scale, steps, queries per step), so they must
    equal the `epoch_history` baseline for those settings exactly.

When also given BENCH_outofcore.json, additionally enforces:

  * Buffer-pool counters — page misses, hits and evictions of every
    bench_fig14_outofcore record (layout x pool size under LRU, plus LRU
    vs clock). Deterministic for given settings (scale, queries per
    pool): they are the pool's replacement decisions, so they must equal
    the `outofcore` baseline for those settings exactly. A bookkeeping
    change that keeps the decisions keeps every one of them.

Every input file must also carry one provenance record (name
"provenance": git_sha, build_type, hardware_threads, scale, steps), which
bench/bench_util.h's JsonWriter writes first, so a committed number says
which commit, build and host produced it.

Usage: check_perf_smoke.py [BENCH_dynamic.json] [BENCH_server.json]
           [BENCH_epoch.json] [BENCH_outofcore.json]
"""

import json
import os
import sys

MAX_ACCESS_OVER_DISTINCT = 2.0
MAX_PAGED_OVER_IN_MEMORY = 3.0
MAX_TRACING_OVERHEAD = 1.05
BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "perf_smoke_baseline.json")
EPOCH_COUNTERS = ["pinned_page_accesses", "spill_bytes_total",
                  "resident_overlay_bytes", "spilled_epochs"]
POOL_COUNTERS = ["page_misses", "page_hits", "page_evictions"]
PROVENANCE_FIELDS = ["git_sha", "build_type", "hardware_threads", "scale",
                     "steps"]
TRAVERSAL_COUNTERS = [
    f"{backend}_{counter}"
    for backend in ("in_memory", "paged")
    for counter in ("walk_invocations", "walk_vertices", "crawl_edges",
                    "result_vertices", "scan_queries")
]


def find_baseline(kind: str, settings: dict, failures: list):
    """The `kind` baseline recorded for exactly these settings, or None
    (a failure: a run with settings no baseline covers fails too)."""
    with open(BASELINE_PATH) as f:
        baselines = json.load(f)[kind]

    def same(want, got):
        if isinstance(want, float):
            return isinstance(got, (int, float)) and abs(want - got) < 1e-9
        return want == got

    matches = [b for b in baselines
               if all(same(v, settings.get(k))
                      for k, v in b["settings"].items())]
    if len(matches) != 1:
        failures.append(
            f"no {kind} counter baseline for {settings} in "
            f"{BASELINE_PATH} (recorded: "
            f"{[b['settings'] for b in baselines]})")
        return None
    return matches[0]


def check_traversal_baseline(summary: dict, failures: list) -> None:
    """Traversal totals must equal the baseline recorded for the run's
    settings."""
    settings = {k: summary.get(k) for k in ("scale", "steps",
                                            "queries_per_step")}
    baseline = find_baseline("dynamic_summary", settings, failures)
    if baseline is None:
        return
    expected = baseline["counters"]
    for name in TRAVERSAL_COUNTERS:
        got = summary.get(name)
        print(f"  {name:<26} = {got} (baseline {expected.get(name)})")
        if got != expected.get(name):
            failures.append(
                f"{name} = {got}, baseline {expected.get(name)}: the "
                f"engine's traversal work changed; re-baseline only if "
                f"that is intended")


def check_epoch(path: str, failures: list) -> None:
    """Per-backend, per-step epoch-history counters must equal the
    baseline for the run's settings."""
    with open(path) as f:
        records = [r for r in json.load(f)
                   if r.get("name", "").startswith("epoch_history_")]
    if not records:
        failures.append(f"no epoch_history records in {path}")
        return
    settings = {"scale": records[0].get("scale"),
                "steps": max(r["step"] for r in records),
                "queries_per_step": records[0].get("queries_per_step")}
    baseline = find_baseline("epoch_history", settings, failures)
    if baseline is None:
        return
    steps = list(range(baseline["first_step"], settings["steps"] + 1))
    for backend, expected in baseline["counters"].items():
        by_step = {r["step"]: r for r in records
                   if r["name"] == "epoch_history_" + backend}
        if sorted(by_step) != steps:
            failures.append(f"{backend}: epoch_history steps "
                            f"{sorted(by_step)}, expected {steps}")
            continue
        for name in EPOCH_COUNTERS:
            got = [by_step[step].get(name) for step in steps]
            print(f"  {backend} {name} at step {steps[-1]} = {got[-1]} "
                  f"(baseline {expected[name][-1]})")
            if got != expected[name]:
                failures.append(
                    f"{backend} {name} per step = {got}, baseline "
                    f"{expected[name]}: the epoch store's work changed; "
                    f"re-baseline only if that is intended")


def check_outofcore(path: str, failures: list) -> None:
    """Every fig14 record's pool counters must equal the baseline for the
    run's settings, and the run must hold exactly the baseline's
    records."""
    with open(path) as f:
        records = [r for r in json.load(f)
                   if r.get("name", "").startswith("outofcore/")]
    if not records:
        failures.append(f"no outofcore records in {path}")
        return
    settings = {"scale": records[0].get("scale"),
                "queries": records[0].get("queries")}
    baseline = find_baseline("outofcore", settings, failures)
    if baseline is None:
        return
    expected = baseline["records"]
    got = {f"{r['name']}@{r.get('pool_bytes')}": r for r in records}
    if sorted(got) != sorted(expected):
        failures.append(f"outofcore records {sorted(got)}, expected "
                        f"{sorted(expected)}")
        return
    mismatched = [key for key in expected
                  if any(got[key].get(name) != expected[key][name]
                         for name in POOL_COUNTERS)]
    print(f"  outofcore pool counters   = {len(expected) - len(mismatched)}"
          f"/{len(expected)} records equal the baseline")
    for key in mismatched:
        failures.append(
            f"{key}: " + ", ".join(
                f"{name} = {got[key].get(name)} (baseline "
                f"{expected[key][name]})" for name in POOL_COUNTERS) +
            ": the buffer pool's replacement decisions changed; "
            "re-baseline only if that is intended")


def check_provenance(path: str, failures: list) -> None:
    """The file must hold exactly one complete provenance record."""
    with open(path) as f:
        records = [r for r in json.load(f) if r.get("name") == "provenance"]
    missing = PROVENANCE_FIELDS if len(records) != 1 else [
        k for k in PROVENANCE_FIELDS if k not in records[0]]
    if missing:
        failures.append(f"{path}: {len(records)} provenance record(s), "
                        f"missing {missing}: regenerate it with the "
                        f"current bench")
        return
    p = records[0]
    print(f"  provenance {os.path.basename(path):<20} = {p['git_sha']}"
          f" {p['build_type']}, {p['hardware_threads']} hw threads, "
          f"scale {p['scale']}, steps {p['steps']}")


def check_server(path: str, failures: list) -> None:
    with open(path) as f:
        records = json.load(f)
    summaries = [r for r in records if r.get("name") == "server_summary"]
    if len(summaries) != 1:
        failures.append(f"expected one server_summary record in {path}, "
                        f"found {len(summaries)}")
        return
    overhead = summaries[0].get("tracing_overhead")
    print(f"  tracing_overhead          = "
          f"{overhead if overhead is None else format(overhead, '.3f')} "
          f"(bound {MAX_TRACING_OVERHEAD})")
    if overhead is None or overhead > MAX_TRACING_OVERHEAD:
        failures.append(
            f"tracing_overhead = {overhead} (bound {MAX_TRACING_OVERHEAD}):"
            f" the flight-recorder ring is no longer effectively free")


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_dynamic.json"
    server_path = sys.argv[2] if len(sys.argv) > 2 else None
    epoch_path = sys.argv[3] if len(sys.argv) > 3 else None
    outofcore_path = sys.argv[4] if len(sys.argv) > 4 else None
    with open(path) as f:
        records = json.load(f)
    summaries = [r for r in records if r.get("name") == "dynamic_summary"]
    if len(summaries) != 1:
        print(f"FAIL: expected one dynamic_summary record in {path}, "
              f"found {len(summaries)}")
        return 1
    s = summaries[0]

    failures = []
    access = s.get("access_over_distinct")
    if access is None or access > MAX_ACCESS_OVER_DISTINCT:
        failures.append(
            f"access_over_distinct = {access} "
            f"(bound {MAX_ACCESS_OVER_DISTINCT}): page accesses are no "
            f"longer tracking distinct pages touched")
    slowdown = s.get("paged_over_in_memory_warm")
    if slowdown is None or slowdown > MAX_PAGED_OVER_IN_MEMORY:
        failures.append(
            f"paged_over_in_memory_warm = {slowdown} "
            f"(bound {MAX_PAGED_OVER_IN_MEMORY}): warm-pool paged "
            f"execution fell off a cliff vs in-memory")

    reads = s.get("probe_position_reads")
    fields = [s.get(k) for k in ("batches", "shards", "surface_vertices",
                                 "probe_stride")]
    expected_reads = None
    if all(isinstance(v, int) and v > 0 for v in fields):
        batches, shards, surface, stride = fields
        expected_reads = batches * shards * (-(-surface // stride))
    if expected_reads is None or reads != expected_reads:
        failures.append(
            f"probe_position_reads = {reads}, expected {expected_reads} "
            f"(batches * shards * ceil(surface_vertices / probe_stride)):"
            f" the surface probe no longer reads the surface once per "
            f"shard per batch")

    def fmt(v):
        return f"{v:.3f}" if isinstance(v, (int, float)) else str(v)

    print(f"perf smoke ({path}):")
    print(f"  access_over_distinct      = {fmt(access)} "
          f"(bound {MAX_ACCESS_OVER_DISTINCT})")
    print(f"  paged_over_in_memory_warm = {fmt(slowdown)} "
          f"(bound {MAX_PAGED_OVER_IN_MEMORY})")
    print(f"  probe_position_reads      = {reads} "
          f"(expected {expected_reads})")
    check_traversal_baseline(s, failures)
    for given in (path, server_path, epoch_path, outofcore_path):
        if given is not None:
            check_provenance(given, failures)
    if server_path is not None:
        check_server(server_path, failures)
    if epoch_path is not None:
        check_epoch(epoch_path, failures)
    if outofcore_path is not None:
        check_outofcore(outofcore_path, failures)
    for msg in failures:
        print(f"FAIL: {msg}")
    if not failures:
        print("OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
