#!/usr/bin/env python3
"""Validates a Prometheus /metrics scrape from the OCTOPUS server.

Checks performed on one exposition file:

  * every sample line parses as `name{labels} value` with a legal
    metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`) and a finite value;
  * every sample is preceded by `# HELP` and `# TYPE` comments for its
    family, and the declared type is one of counter/gauge/histogram;
  * counter families end in `_total` (or the histogram-generated
    `_sum`/`_count`/`_bucket` suffixes);
  * histogram families are internally consistent: `_bucket` cumulative
    counts are non-decreasing, the `+Inf` bucket equals `_count`;
  * the scrape's families are exactly the ones `docs/OBSERVABILITY.md`
    documents (`--docs`; every `| `name` | type |` table row must be
    scraped with that `# TYPE`, and every scraped family must have a
    row), so the docs table is held to the server's metric table.

Given a second scrape taken later from the same server, additionally
checks that every counter present in both is monotone non-decreasing.

Saved bodies of the JSON introspection endpoints are validated too:

  * --healthz FILE  — must be exactly "ok\n";
  * --readyz FILE   — well-formed readiness document, ready == true
    (the CI server is healthy by construction);
  * --epochs FILE   — retention-ring document: entries ascend by epoch,
    per-entry resident bytes sum to the store total, spill counters
    present when spill is enabled;
  * --journal FILE  — event-journal document: known kinds only, seq
    strictly increasing, ring bounded by capacity.

Usage: check_metrics.py scrape.txt [later_scrape.txt] [--docs F]
           [--healthz F] [--readyz F] [--epochs F] [--journal F]
"""

import argparse
import json
import math
import pathlib
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>\S+)$")

# A documented family: `| `name` | counter|gauge|histogram | ... |`.
DOC_ROW_RE = re.compile(
    r"^\|\s*`([a-zA-Z_:][a-zA-Z0-9_:]*)`\s*\|\s*(counter|gauge|histogram)"
    r"\s*\|", re.M)
DEFAULT_DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs" / \
    "OBSERVABILITY.md"

HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")

EVENT_KINDS = {
    "step_applied", "epoch_published", "epoch_spilled", "epoch_reloaded",
    "epoch_evicted", "epoch_pinned", "epoch_unpinned", "session_opened",
    "session_closed", "overload_rejected", "drain_began", "drain_ended",
}


def family_of(name: str, types: dict) -> str:
    """Maps a sample name to its declared family (histograms declare
    the bare name but emit suffixed samples)."""
    if name in types:
        return name
    for suffix in HISTOGRAM_SUFFIXES:
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)]
    return name


def parse(path: str, failures: list):
    """Returns ({sample_key: value}, {family: type})."""
    samples = {}
    types = {}
    helps = set()
    with open(path) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines, 1):
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not NAME_RE.match(parts[2]):
                failures.append(f"{path}:{i}: malformed HELP: {line!r}")
                continue
            helps.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if (len(parts) != 4 or not NAME_RE.match(parts[2])
                    or parts[3] not in ("counter", "gauge", "histogram")):
                failures.append(f"{path}:{i}: malformed TYPE: {line!r}")
                continue
            if parts[2] not in helps:
                failures.append(f"{path}:{i}: TYPE for {parts[2]} "
                                f"without a preceding HELP")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            failures.append(f"{path}:{i}: unparseable sample: {line!r}")
            continue
        name = m.group("name")
        try:
            value = float(m.group("value"))
        except ValueError:
            failures.append(f"{path}:{i}: bad value: {line!r}")
            continue
        if not math.isfinite(value):
            failures.append(f"{path}:{i}: non-finite value: {line!r}")
            continue
        family = family_of(name, types)
        if family not in types:
            failures.append(f"{path}:{i}: sample {name} has no TYPE")
            continue
        if (types[family] == "counter" and family == name
                and not name.endswith("_total")):
            failures.append(f"{path}:{i}: counter {name} does not end "
                            f"in _total")
        if value < 0 and types[family] != "gauge":
            failures.append(f"{path}:{i}: negative non-gauge: {line!r}")
        samples[name + (m.group("labels") or "")] = value
    return samples, types


def check_histograms(path, samples, types, failures):
    for family, kind in types.items():
        if kind != "histogram":
            continue
        buckets = []  # (le, cumulative) in exposition order
        for key, value in samples.items():
            if key.startswith(family + "_bucket{le=\""):
                le = key[len(family) + 12:key.rindex("\"")]
                buckets.append((le, value))
        count = samples.get(family + "_count")
        if count is None or samples.get(family + "_sum") is None:
            failures.append(f"{path}: histogram {family} missing "
                            f"_sum/_count")
            continue
        if not buckets or buckets[-1][0] != "+Inf":
            failures.append(f"{path}: histogram {family} missing the "
                            f"+Inf bucket")
            continue
        if buckets[-1][1] != count:
            failures.append(f"{path}: histogram {family}: +Inf bucket "
                            f"{buckets[-1][1]} != _count {count}")
        cumulative = [v for _, v in buckets]
        if cumulative != sorted(cumulative):
            failures.append(f"{path}: histogram {family}: bucket counts "
                            f"are not cumulative")


def check_docs(path: str, scrape: str, types: dict, failures: list):
    """The scrape's families must equal the documented ones, types too."""
    documented = {}
    for name, kind in DOC_ROW_RE.findall(pathlib.Path(path).read_text(
            encoding="utf-8")):
        if documented.setdefault(name, kind) != kind:
            failures.append(f"{path}: {name} documented twice with "
                            f"different types")
    for name, kind in documented.items():
        got = types.get(name, "missing")
        if got != kind:
            failures.append(f"{scrape}: documented {kind} {name} is "
                            f"scraped as {got}")
    for name in sorted(set(types) - set(documented)):
        failures.append(f"{scrape}: family {name} is not documented in "
                        f"{path}")


def load_json(path: str, failures: list):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        failures.append(f"{path}: not valid JSON: {e}")
        return None


def is_uint(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def check_healthz(path: str, failures: list):
    try:
        with open(path) as f:
            body = f.read()
    except OSError as e:
        failures.append(f"{path}: {e}")
        return
    if body != "ok\n":
        failures.append(f"{path}: /healthz body is {body!r}, not 'ok\\n'")


def check_readyz(path: str, failures: list):
    doc = load_json(path, failures)
    if doc is None:
        return
    for key, kinds in (("ready", bool), ("dynamic", bool),
                       ("max_publish_lag_seconds", (int, float)),
                       ("spill_failed_epochs", int),
                       ("reason", str)):
        if not isinstance(doc.get(key), kinds):
            failures.append(f"{path}: /readyz field {key} missing or "
                            f"mistyped: {doc.get(key)!r}")
    lag = doc.get("publish_lag_seconds")
    if lag is not None and not isinstance(lag, (int, float)):
        failures.append(f"{path}: publish_lag_seconds must be a number "
                        f"or null, got {lag!r}")
    if doc.get("ready") is not True:
        failures.append(f"{path}: server reports not ready "
                        f"(reason: {doc.get('reason')!r})")


def check_epochs(path: str, failures: list):
    doc = load_json(path, failures)
    if doc is None:
        return
    if not isinstance(doc.get("dynamic"), bool) \
            or not is_uint(doc.get("current_epoch")) \
            or not is_uint(doc.get("current_step")) \
            or not isinstance(doc.get("entries"), list):
        failures.append(f"{path}: /epochs missing dynamic/current_epoch/"
                        f"current_step/entries")
        return
    if not doc["dynamic"]:
        if doc["entries"]:
            failures.append(f"{path}: static backend reports retention "
                            f"entries")
        return
    spill = doc.get("spill")
    if not isinstance(spill, dict) or not isinstance(
            spill.get("enabled"), bool):
        failures.append(f"{path}: /epochs spill block missing")
        spill = {}
    if spill.get("enabled") and not all(
            is_uint(spill.get(key)) for key in (
                "pages_written", "bytes_written", "sidecar_bytes",
                "pages_free")):
        failures.append(f"{path}: spill enabled but counters missing")
    last_epoch = -1
    resident_sum = 0
    for i, entry in enumerate(doc["entries"]):
        for key in ("epoch", "step", "pins", "resident_bytes"):
            if not is_uint(entry.get(key)):
                failures.append(f"{path}: entry {i} field {key} missing "
                                f"or mistyped")
        for key in ("resident", "spilled", "spill_failed"):
            if not isinstance(entry.get(key), bool):
                failures.append(f"{path}: entry {i} field {key} missing "
                                f"or mistyped")
        if entry.get("epoch", 0) <= last_epoch:
            failures.append(f"{path}: entries not ascending at index {i}")
        last_epoch = entry.get("epoch", last_epoch)
        resident_sum += entry.get("resident_bytes", 0)
    if is_uint(doc.get("resident_bytes")) \
            and resident_sum != doc["resident_bytes"]:
        failures.append(
            f"{path}: per-entry resident bytes sum to {resident_sum}, "
            f"header says {doc['resident_bytes']}")


def check_journal(path: str, failures: list):
    doc = load_json(path, failures)
    if doc is None:
        return
    if not is_uint(doc.get("total")) or not is_uint(doc.get("capacity")) \
            or not isinstance(doc.get("events"), list):
        failures.append(f"{path}: /journal missing total/capacity/events")
        return
    events = doc["events"]
    if doc["capacity"] and len(events) > doc["capacity"]:
        failures.append(f"{path}: {len(events)} events exceed the ring "
                        f"capacity {doc['capacity']}")
    if doc["total"] < len(events):
        failures.append(f"{path}: total {doc['total']} below the "
                        f"{len(events)} events held")
    prev_seq = 0
    for i, event in enumerate(events):
        for key in ("seq", "epoch", "session", "a", "b"):
            if not is_uint(event.get(key)):
                failures.append(f"{path}: event {i} field {key} missing "
                                f"or mistyped")
        if not isinstance(event.get("unix_nanos"), int):
            failures.append(f"{path}: event {i} unix_nanos mistyped")
        if event.get("kind") not in EVENT_KINDS:
            failures.append(f"{path}: event {i} has unknown kind "
                            f"{event.get('kind')!r}")
        if event.get("seq", 0) <= prev_seq:
            failures.append(f"{path}: event seq not increasing at "
                            f"index {i}")
        prev_seq = event.get("seq", prev_seq)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Validate OCTOPUS introspection endpoint bodies.")
    parser.add_argument("scrape", help="/metrics exposition text")
    parser.add_argument("later_scrape", nargs="?",
                        help="a later scrape for monotonicity checks")
    parser.add_argument("--docs", default=str(DEFAULT_DOCS),
                        help="docs whose metric tables the scrape must "
                        "match (default: docs/OBSERVABILITY.md)")
    parser.add_argument("--healthz", help="saved /healthz body")
    parser.add_argument("--readyz", help="saved /readyz body")
    parser.add_argument("--epochs", help="saved /epochs body")
    parser.add_argument("--journal", help="saved /journal body")
    args = parser.parse_args()

    failures = []
    samples, types = parse(args.scrape, failures)
    check_histograms(args.scrape, samples, types, failures)
    check_docs(args.docs, args.scrape, types, failures)

    if args.later_scrape:
        later, later_types = parse(args.later_scrape, failures)
        check_histograms(args.later_scrape, later, later_types, failures)
        for key, value in samples.items():
            family = family_of(key.split("{")[0], types)
            if types.get(family) == "gauge":
                continue
            if key in later and later[key] < value:
                failures.append(
                    f"counter {key} went backwards between scrapes: "
                    f"{value} -> {later[key]}")
        # Merge consistency for histograms with elided empty buckets:
        # cumulative bucket counts never decrease, so every bucket key
        # the first scrape exposed must still be exposed later — a
        # vanished `le` means a shard was dropped from the merge, not
        # that the bucket emptied.
        for family, kind in types.items():
            if kind != "histogram":
                continue
            prefix = family + "_bucket{"
            earlier_keys = {k for k in samples if k.startswith(prefix)}
            later_keys = {k for k in later if k.startswith(prefix)}
            missing = earlier_keys - later_keys
            if missing:
                failures.append(
                    f"histogram {family}: bucket series vanished "
                    f"between scrapes: {sorted(missing)[:3]}")

    if args.healthz:
        check_healthz(args.healthz, failures)
    if args.readyz:
        check_readyz(args.readyz, failures)
    if args.epochs:
        check_epochs(args.epochs, failures)
    if args.journal:
        check_journal(args.journal, failures)

    print(f"check_metrics: {len(samples)} samples, "
          f"{len(types)} families, "
          f"{len([t for t in types.values() if t == 'histogram'])} "
          f"histograms")
    for msg in failures:
        print(f"FAIL: {msg}")
    if not failures:
        print("OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
