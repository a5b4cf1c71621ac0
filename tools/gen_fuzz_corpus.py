#!/usr/bin/env python3
# Copyright 2026 The OCTOPUS Reproduction Authors
"""Generates the checked-in fuzz seed corpus under fuzz/corpus/.

The seeds are deterministic, hand-shaped OCTP frames and HTTP request
heads: one well-formed example of every frame type, the boundary and
malformed cases the protocol tests already exercise (count lies,
over-cap steps, oversized payload announcements, truncations), and the
introspection endpoint's routed/unrouted/malformed request lines. They
give libFuzzer a structured starting population and give the
`fuzz_corpus_replay` CTest entry a fixed regression set that runs with
every compiler, no libFuzzer required.

Re-run after any wire-layout change and commit the result:
    python3 tools/gen_fuzz_corpus.py
"""

import pathlib
import struct
import sys

MAGIC = 0x4F435450
VERSION = 7

HELLO = 1
WELCOME = 2
QUERY_BATCH = 3
RESULT = 4
STATS_REQUEST = 5
STATS = 6
ERROR = 7
STEP = 8
EPOCH_INFO = 9
PIN_EPOCH = 10
UNPIN_EPOCH = 11
TRACE_DUMP_REQUEST = 12
TRACE_DUMP = 13


def frame(frame_type, payload=b"", *, announce=None, flags=0, reserved=0):
    """Header + payload. `announce` overrides the length prefix so seeds
    can lie about their payload size, exactly like a broken peer."""
    length = len(payload) if announce is None else announce
    return struct.pack("<IBBH", length, frame_type, flags, reserved) + payload


def hello(magic=MAGIC, version=VERSION, flags=0):
    return frame(HELLO, struct.pack("<IHH", magic, version, flags))


def query_batch(request_id, boxes, epoch=0, span_id=0, count=None):
    count = len(boxes) if count is None else count
    payload = struct.pack("<QIIQQ", request_id, count, 0, epoch, span_id)
    for box in boxes:
        payload += struct.pack("<6f", *box)
    return frame(QUERY_BATCH, payload)


def batch_stats(trace_id=7):
    return struct.pack("<4q", 1000, 2000, 3000, 40) + \
        struct.pack("<12Q", 2, 64, 2, 640, 1280, 99, 12, 3, 1, 8, 4, 4) + \
        struct.pack("<IIQII", 2, 1, 5, 4, 0) + struct.pack("<Q", trace_id)


def result(request_id, per_query):
    payload = struct.pack("<QII", request_id, len(per_query), 0)
    payload += batch_stats()
    for ids in per_query:
        payload += struct.pack("<I", len(ids))
        payload += struct.pack(f"<{len(ids)}I", *ids)
    return frame(RESULT, payload)


def trace_record(trace_id):
    return struct.pack("<4Q", trace_id, 11, 42, 5) + \
        struct.pack("<4I", 4, 1, 2, 1) + \
        struct.pack("<8q", 1, 2, 3, 4, 5, 6, 7, 28) + \
        struct.pack("<3Q", 12, 8, 99)


def stats(samples):
    """A v7 STATS payload: u32 count, then u8 name_len, name, f64."""
    payload = struct.pack("<I", len(samples))
    for name, value in samples:
        payload += struct.pack("<B", len(name)) + name + \
            struct.pack("<d", value)
    return payload


STATS_SAMPLES = stats([(b"octopus_queries_received_total", 500.0),
                       (b"octopus_request_latency_seconds_sum", 0.125)])


def protocol_seeds():
    box = (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    seeds = {
        "hello_v7": hello(),
        "hello_bad_magic": hello(magic=0x12345678),
        "hello_old_version": hello(version=6),
        "hello_nonzero_flags": hello(flags=1),
        "welcome": frame(WELCOME,
                         struct.pack("<HBBQII", VERSION, 1, 1, 50000, 4096,
                                     512)),
        "query_batch_two": query_batch(42, [box, box]),
        "query_batch_empty": query_batch(43, []),
        "query_batch_historic": query_batch(44, [box], epoch=5,
                                            span_id=0xABCDEF),
        "query_batch_count_lie": query_batch(45, [box], count=3),
        "result_two_queries": result(42, [[1, 2, 3], []]),
        "stats_request": frame(STATS_REQUEST),
        "stats": frame(STATS, STATS_SAMPLES),
        # Hostile STATS: a name running past the payload, a count the
        # payload cannot hold, and bytes after the last sample.
        "stats_name_overrun": frame(
            STATS, struct.pack("<IB", 1, 200) + b"octopus_x" +
            struct.pack("<d", 1.0)),
        "stats_count_overrun": frame(
            STATS, struct.pack("<I", 0xFFFFFFFF) + STATS_SAMPLES[4:]),
        "stats_trailing_bytes": frame(STATS, STATS_SAMPLES + b"\x00"),
        "error_epoch_gone": frame(ERROR,
                                  struct.pack("<HHQI", 10, 0, 42, 4) +
                                  b"gone"),
        "error_len_lie": frame(ERROR,
                               struct.pack("<HHQI", 3, 0, 0, 100) + b"short"),
        "step_four": frame(STEP, struct.pack("<II", 4, 0)),
        "step_over_cap": frame(STEP, struct.pack("<II", 4096, 0)),
        "epoch_info": frame(EPOCH_INFO,
                            struct.pack("<QIBBHQ", 5, 4, 1, 2, 0, 17)),
        "pin_epoch": frame(PIN_EPOCH, struct.pack("<Q", 5)),
        "unpin_epoch": frame(UNPIN_EPOCH, struct.pack("<Q", 5)),
        "trace_dump_request": frame(TRACE_DUMP_REQUEST),
        "trace_dump_one": frame(TRACE_DUMP,
                                struct.pack("<QII", 9, 1, 0) +
                                trace_record(7)),
        # Envelope rejections: each must fail in ParseFrameHeader before
        # any payload allocation.
        "header_too_large": frame(QUERY_BATCH, announce=(17 << 20)),
        "header_bad_type": frame(99),
        "header_type_zero": frame(0),
        "header_nonzero_flags": frame(STEP, struct.pack("<II", 1, 0),
                                      flags=1),
        "header_nonzero_reserved": frame(STEP, struct.pack("<II", 1, 0),
                                         reserved=7),
    }
    # Truncation sweep seeds, mirroring tests/test_protocol.cc: every
    # prefix of a valid frame must be rejected cleanly, so give the
    # fuzzer a few interesting cut points to mutate from.
    for name, cut in (("query_batch_two", 21), ("result_two_queries", 100),
                      ("trace_dump_one", 30), ("pin_epoch", 11)):
        seeds[f"truncated_{name}_{cut}"] = seeds[name][:cut]
    return seeds


def http_seeds():
    return {
        "get_metrics": b"GET /metrics HTTP/1.0\r\n\r\n",
        "get_healthz": b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        "get_query_string": b"GET /metrics?name=octp_frames HTTP/1.0\r\n\r\n",
        "get_unknown_path": b"GET /nope HTTP/1.0\r\n\r\n",
        "post_rejected": b"POST /metrics HTTP/1.0\r\n\r\n",
        "malformed_no_version": b"GET /metrics\r\n\r\n",
        "malformed_garbage": b"\x00\xff garbage without structure",
        "empty_line_only": b"\r\n\r\n",
    }


def write_corpus(root, name, seeds, suffix):
    directory = root / name
    directory.mkdir(parents=True, exist_ok=True)
    for seed_name, data in sorted(seeds.items()):
        (directory / f"{seed_name}{suffix}").write_bytes(data)
    print(f"{name}: {len(seeds)} seeds -> {directory}")


def main():
    root = pathlib.Path(__file__).resolve().parent.parent / "fuzz" / "corpus"
    write_corpus(root, "protocol", protocol_seeds(), ".bin")
    write_corpus(root, "http", http_seeds(), ".txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
