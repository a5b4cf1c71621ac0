#!/usr/bin/env python3
# Copyright 2026 The OCTOPUS Reproduction Authors
"""Cross-checks docs/PROTOCOL.md against src/server/protocol.h.

The wire layout exists in three places: the normative byte tables in
docs/PROTOCOL.md, the named constants + static_asserts in protocol.h
(the wire-layout lint), and the field-by-field encoders in protocol.cc.
The static_asserts tie constants to struct fields at compile time; this
script ties the constants to the document, so a layout change that
forgets either side fails CI instead of shipping a wire break that only
a peer discovers.

Checks performed:
  * every `### FRAME (type N), payload ... bytes` heading matches the
    header's payload-size constants and FrameType enum values;
  * every offset/type table is internally consistent (each row's offset
    is the previous offset plus the previous field's width) and its
    fixed-prefix total matches the matching constant;
  * the batch-stats block and trace-record tables sum to
    kBatchStatsBytes / kTraceRecordBytes, and the STATS sample table's
    fixed fields (around its variable-length name) to
    kStatsSampleFixedBytes;
  * envelope facts: 8-byte frame header, 16 MiB payload cap, protocol
    magic and version, the 1024-step cap.

Runs under plain python3 (no third-party imports) as the
`check_wire_spec` CTest entry and as a CI job.
"""

import argparse
import pathlib
import re
import sys

# Wire widths of the scalar type names used in PROTOCOL.md tables.
TYPE_SIZES = {
    "u8": 1,
    "u16": 2,
    "u32": 4,
    "u64": 8,
    "i64": 8,
    "f32": 4,
    "f64": 8,
}

# Heading frame name -> the header constants its payload expression must
# lead with, in order. Trailing literal numbers (e.g. the per-query
# `4 + 4·k` words in RESULT) are written as ints.
PAYLOAD_EXPECTATIONS = {
    "HELLO": ["kHelloPayloadBytes"],
    "WELCOME": ["kWelcomePayloadBytes"],
    "QUERY_BATCH": ["kQueryBatchFixedBytes", "kQueryBoxBytes"],
    "RESULT": ["kResultFixedBytes", "kBatchStatsBytes", 4, 4],
    "STATS_REQUEST": [0],
    "STATS": ["kStatsFixedBytes", "kStatsSampleFixedBytes"],
    "ERROR": ["kErrorFixedBytes"],
    "STEP": ["kStepPayloadBytes"],
    "EPOCH_INFO": ["kEpochInfoPayloadBytes"],
    "PIN_EPOCH": ["kPinEpochPayloadBytes"],
    "UNPIN_EPOCH": ["kPinEpochPayloadBytes"],
    "TRACE_DUMP_REQUEST": [0],
    "TRACE_DUMP": ["kTraceDumpFixedBytes", "kTraceRecordBytes"],
}

# Frame name -> the constant its table's fixed prefix must total.
# Frames without an offset table (the empty verbs) are absent.
TABLE_TOTALS = {
    "HELLO": "kHelloPayloadBytes",
    "WELCOME": "kWelcomePayloadBytes",
    "QUERY_BATCH": "kQueryBatchFixedBytes",
    "RESULT": "kResultFixedBytes",
    "STATS": "kStatsFixedBytes",
    "ERROR": "kErrorFixedBytes",
    "STEP": "kStepPayloadBytes",
    "EPOCH_INFO": "kEpochInfoPayloadBytes",
    "PIN_EPOCH": "kPinEpochPayloadBytes",
    "TRACE_DUMP": "kTraceDumpFixedBytes",
}


def parse_header_constants(text):
    """Parses `inline constexpr <type> kName = <expr>;` declarations.

    Expressions may reference earlier constants (e.g.
    kResultMetaBytesBeforeCounts); evaluation is a tiny arithmetic eval
    over already-parsed names.
    """
    consts = {}
    pattern = re.compile(
        r"inline\s+constexpr\s+\w+\s+(k\w+)\s*=\s*([^;]+);")
    for name, expr in pattern.findall(text):
        expr = re.sub(r"(\d)[uUlL]+\b", r"\1", expr)  # strip int suffixes
        expr = re.sub(r"/\*.*?\*/", "", expr, flags=re.S)
        try:
            consts[name] = int(eval(expr, {"__builtins__": {}}, consts))
        except Exception:
            pass  # non-arithmetic constexprs are not wire constants
    return consts


def parse_frame_type_enum(text):
    """Returns {WIRE_NAME: value} from the FrameType enum."""
    match = re.search(r"enum class FrameType[^{]*\{(.*?)\};", text, re.S)
    if not match:
        return {}
    values = {}
    for name, value in re.findall(r"k(\w+)\s*=\s*(\d+)", match.group(1)):
        # kQueryBatch -> QUERY_BATCH
        wire = re.sub(r"(?<!^)(?=[A-Z])", "_", name).upper()
        values[wire] = int(value)
    return values


def parse_md_tables(lines):
    """Yields (start_line_index, rows) for each markdown table."""
    i = 0
    while i < len(lines):
        if lines[i].lstrip().startswith("|"):
            start = i
            rows = []
            while i < len(lines) and lines[i].lstrip().startswith("|"):
                cells = [c.strip() for c in lines[i].strip().strip("|").split("|")]
                if cells and not set(cells[0]) <= {"-", " ", ""}:
                    rows.append(cells)
                i += 1
            yield start, rows
        else:
            i += 1


def fixed_prefix_total(rows, errors, context):
    """Checks offset continuity of an offset/type table; returns the
    byte total of the leading fixed-width rows (stops at the first
    variable-width or placeholder row)."""
    total = 0
    for cells in rows[1:]:  # rows[0] is the header row
        offset_text, type_text = cells[0], cells[1] if len(cells) > 1 else ""
        if not offset_text.isdigit():
            continue
        offset = int(offset_text)
        base_type = type_text.split("×")[0].split("x")[0].strip("` ")
        if offset != total:
            errors.append(
                f"{context}: row at offset {offset} expected offset {total} "
                f"(field widths above it sum to {total})")
            total = offset  # resynchronize so one slip reports once
        if base_type in TYPE_SIZES and "×" not in type_text \
                and "per query" not in " ".join(cells).lower():
            total += TYPE_SIZES[base_type]
        else:
            break  # variable-width tail (boxes, message, records, stats)
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    root = pathlib.Path(__file__).resolve().parent.parent
    parser.add_argument("--spec", default=str(root / "docs" / "PROTOCOL.md"))
    parser.add_argument("--header",
                        default=str(root / "src" / "server" / "protocol.h"))
    args = parser.parse_args()

    spec = pathlib.Path(args.spec).read_text(encoding="utf-8")
    header = pathlib.Path(args.header).read_text(encoding="utf-8")
    consts = parse_header_constants(header)
    enum = parse_frame_type_enum(header)
    lines = spec.splitlines()
    errors = []
    checked = 0

    def expect(name, doc_value, context):
        nonlocal checked
        checked += 1
        if name not in consts:
            errors.append(f"{context}: constant {name} not found in protocol.h")
        elif consts[name] != doc_value:
            errors.append(f"{context}: PROTOCOL.md says {doc_value}, "
                          f"protocol.h has {name} = {consts[name]}")

    # --- Envelope facts ---------------------------------------------
    match = re.search(r"fixed (\d+)-byte header", spec)
    if match:
        expect("kFrameHeaderBytes", int(match.group(1)), "frame envelope")
    else:
        errors.append("frame envelope: 'fixed N-byte header' sentence missing")

    match = re.search(r"\*\*(\d+) MiB\*\*\s*\(`kMaxFramePayloadBytes`\)", spec)
    if match:
        expect("kMaxFramePayloadBytes", int(match.group(1)) << 20,
               "payload cap")
    else:
        errors.append("payload cap: '**N MiB** (`kMaxFramePayloadBytes`)' missing")

    match = re.search(r"wire protocol \(version (\d+)\)", spec)
    if match:
        expect("kProtocolVersion", int(match.group(1)), "title version")
    else:
        errors.append("title: 'wire protocol (version N)' missing")

    match = re.search(r"`0x([0-9A-Fa-f]{8})`", spec)
    if match:
        expect("kProtocolMagic", int(match.group(1), 16), "protocol magic")
    else:
        errors.append("HELLO: magic constant `0x........` missing")

    match = re.search(r"must not exceed \*\*(\d+)\*\*\s*\(`kMaxStepsPerFrame`\)",
                      spec)
    if match:
        expect("kMaxStepsPerFrame", int(match.group(1)), "STEP cap")
    else:
        errors.append("STEP: 'must not exceed **N** (`kMaxStepsPerFrame`)' missing")

    # --- Frame-type numbering ---------------------------------------
    for number, name in re.findall(
            r"^\|\s*(\d+)\s*\|\s*([A-Z_]+)\s*\|\s*(?:client|server)", spec,
            re.M):
        checked += 1
        if name not in enum:
            errors.append(f"frame table: {name} missing from FrameType enum")
        elif enum[name] != int(number):
            errors.append(f"frame table: {name} is type {number} in the doc "
                          f"but {enum[name]} in FrameType")

    # --- Payload headings -------------------------------------------
    heading_re = re.compile(
        r"^### ([A-Z_]+) \(type (\d+)\)(?: / ([A-Z_]+) \(type (\d+)\))?"
        r", payload ([^\n]*?) bytes")
    headings = []  # (line_index, primary_name)
    for i, line in enumerate(lines):
        match = heading_re.match(line)
        if not match:
            continue
        name, type_a, name_b, type_b, size_expr = match.groups()
        headings.append((i, name))
        for frame, value in ((name, type_a), (name_b, type_b)):
            if frame is None:
                continue
            checked += 1
            if enum.get(frame) != int(value):
                errors.append(f"{frame} heading: type {value} in the doc, "
                              f"{enum.get(frame)} in FrameType")
            expected = PAYLOAD_EXPECTATIONS.get(frame)
            if expected is None:
                errors.append(f"{frame}: no payload expectation registered — "
                              "add it to PAYLOAD_EXPECTATIONS")
                continue
            numbers = [int(n) for n in re.findall(r"\d+", size_expr)]
            if len(numbers) < len(expected):
                errors.append(f"{frame} heading: payload expression "
                              f"'{size_expr}' has {len(numbers)} numbers, "
                              f"expected {len(expected)}")
                continue
            for want, got in zip(expected, numbers):
                value_want = want if isinstance(want, int) else consts.get(want)
                label = want if isinstance(want, str) else f"literal {want}"
                checked += 1
                if value_want != got:
                    errors.append(f"{frame} heading: payload term {got} does "
                                  f"not match {label} = {value_want}")

    missing = set(PAYLOAD_EXPECTATIONS) - {h[1] for h in headings} - {
        name_b for i, _ in enumerate(headings) for name_b in ()}
    # UNPIN_EPOCH rides PIN_EPOCH's heading; drop secondary names found
    # via the combined heading form.
    for line in lines:
        match = heading_re.match(line)
        if match and match.group(3):
            missing.discard(match.group(3))
    if missing:
        errors.append(f"PROTOCOL.md is missing payload headings for: "
                      f"{', '.join(sorted(missing))}")

    # --- Offset tables ----------------------------------------------
    tables = list(parse_md_tables(lines))

    def table_after(line_index):
        for start, rows in tables:
            if start > line_index and rows and rows[0][0].lower() == "offset":
                return start, rows
        return None, None

    # The envelope's own table precedes every frame heading.
    first_heading = headings[0][0] if headings else len(lines)
    for start, rows in tables:
        if start < first_heading and rows[0][0].lower() == "offset":
            total = fixed_prefix_total(rows, errors, "frame-envelope table")
            expect("kFrameHeaderBytes", total, "frame-envelope table total")
            break

    for line_index, name in headings:
        want = TABLE_TOTALS.get(name)
        if want is None:
            continue
        next_heading = min((i for i, _ in headings if i > line_index),
                           default=len(lines))
        start, rows = table_after(line_index)
        if rows is None or start >= next_heading:
            errors.append(f"{name}: offset table missing")
            continue
        total = fixed_prefix_total(rows, errors, f"{name} table")
        expect(want, total, f"{name} table total")
        if name == "RESULT":
            # The per-query row's offset doubles as fixed + stats size.
            for cells in rows[1:]:
                if "per query" in " ".join(cells).lower():
                    expect_value = consts.get("kResultFixedBytes", 0) + \
                        consts.get("kBatchStatsBytes", 0)
                    checked += 1
                    if int(cells[0]) != expect_value:
                        errors.append(
                            f"RESULT table: per-query data starts at "
                            f"{cells[0]}, but kResultFixedBytes + "
                            f"kBatchStatsBytes = {expect_value}")

    # --- Embedded blocks (batch stats, trace record) -----------------
    for marker, const in ((r"\*\*Batch-stats block\*\* \((\d+) bytes\)",
                           "kBatchStatsBytes"),
                          (r"\*\*Trace record\*\* \((\d+) bytes\)",
                           "kTraceRecordBytes")):
        found = False
        for i, line in enumerate(lines):
            match = re.search(marker, line)
            if not match:
                continue
            found = True
            expect(const, int(match.group(1)), f"{const} prose size")
            start, rows = table_after(i)
            if rows is None:
                errors.append(f"{const}: block table missing")
                break
            total = fixed_prefix_total(rows, errors, f"{const} table")
            expect(const, total, f"{const} table total")
            break
        if not found:
            errors.append(f"{const}: block marker missing from PROTOCOL.md")

    # --- STATS sample: fixed fields around the variable-length name --
    match = re.search(r"\*\*Stats sample\*\* \((\d+) \+ name_len bytes\)",
                      spec)
    if match:
        expect("kStatsSampleFixedBytes", int(match.group(1)),
               "stats-sample prose size")
        _, rows = table_after(spec[:match.start()].count("\n"))
        fixed = sum(TYPE_SIZES[cells[1].strip("` ")] for cells in
                    (rows or [])[1:] if cells[1].strip("` ") in TYPE_SIZES)
        expect("kStatsSampleFixedBytes", fixed, "stats-sample table fixed "
               "fields")
    else:
        errors.append("STATS: '**Stats sample** (N + name_len bytes)' "
                      "marker missing")

    if errors:
        for error in errors:
            print(f"FAIL {error}")
        print(f"check_wire_spec: {len(errors)} mismatch(es) "
              f"({checked} checks ran)")
        return 1
    print(f"check_wire_spec: OK ({checked} checks, "
          f"{len(consts)} header constants, {len(enum)} frame types)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
