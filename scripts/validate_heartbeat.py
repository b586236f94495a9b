#!/usr/bin/env python3
"""Validate a pfuzz heartbeat NDJSON stream (--telemetry=FILE output).

Checks, per line: the line parses as a standalone JSON object carrying
exactly the documented key set with the right types and ranges. Across
lines: beat numbers count 1, 2, 3, ... and the execution/timestamp
columns never regress (the emitter re-reads the shared counter under its
lock, so concurrent shard emissions must still serialize monotonically).

Usage: validate_heartbeat.py FILE [--min-beats=N]

Exit code 0 when the stream validates, 1 otherwise. Stdlib only — CI
runs this straight from a checkout.
"""

import json
import sys

# The stable schema: key -> (type check, value check). Records carry
# exactly these keys — nothing optional, nothing extra — so downstream
# trend tooling never needs schema sniffing.
SCHEMA = {
    "ts_ms": (int, lambda v: v > 0),
    "beat": (int, lambda v: v >= 1),
    "shard": (int, lambda v: v >= 0),
    "executions": (int, lambda v: v >= 1),
    "wall_s": ((int, float), lambda v: v >= 0),
    "execs_per_sec": ((int, float), lambda v: v >= 0),
    "frontier": (int, lambda v: v >= 0),
    "queue_bytes": (int, lambda v: v >= 0),
    "run_cache_hit_rate": ((int, float), lambda v: 0 <= v <= 1),
    "resume_hit_rate": ((int, float), lambda v: 0 <= v <= 1),
    "shard_lag": (int, lambda v: v >= 0),
}


def fail(msg):
    print(f"validate_heartbeat: {msg}", file=sys.stderr)
    sys.exit(1)


def main(argv):
    if len(argv) < 2:
        fail(f"usage: {argv[0]} FILE [--min-beats=N]")
    path = argv[1]
    min_beats = 1
    for arg in argv[2:]:
        if arg.startswith("--min-beats="):
            min_beats = int(arg.split("=", 1)[1])
        else:
            fail(f"unknown argument '{arg}'")

    last_beat = 0
    last_execs = 0
    last_ts = 0
    records = 0
    with open(path, encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                fail(f"line {lineno}: blank line inside the stream")
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                fail(f"line {lineno}: not valid JSON: {err}")
            if not isinstance(rec, dict):
                fail(f"line {lineno}: record is not an object")
            if set(rec) != set(SCHEMA):
                missing = set(SCHEMA) - set(rec)
                extra = set(rec) - set(SCHEMA)
                fail(
                    f"line {lineno}: key set mismatch"
                    f" (missing {sorted(missing)}, extra {sorted(extra)})"
                )
            for key, (types, ok) in SCHEMA.items():
                value = rec[key]
                if isinstance(value, bool) or not isinstance(value, types):
                    fail(f"line {lineno}: {key} has type {type(value).__name__}")
                if not ok(value):
                    fail(f"line {lineno}: {key} out of range: {value!r}")
            if rec["beat"] != last_beat + 1:
                fail(
                    f"line {lineno}: beat {rec['beat']} after {last_beat}"
                    " (must count 1, 2, 3, ...)"
                )
            if rec["executions"] < last_execs:
                fail(
                    f"line {lineno}: executions regressed"
                    f" {last_execs} -> {rec['executions']}"
                )
            if rec["ts_ms"] < last_ts:
                fail(
                    f"line {lineno}: ts_ms regressed"
                    f" {last_ts} -> {rec['ts_ms']}"
                )
            last_beat = rec["beat"]
            last_execs = rec["executions"]
            last_ts = rec["ts_ms"]
            records += 1

    if records < min_beats:
        fail(f"only {records} record(s), expected at least {min_beats}")
    print(
        f"validate_heartbeat: OK — {records} record(s),"
        f" final executions={last_execs}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
