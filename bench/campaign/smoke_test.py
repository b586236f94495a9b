#!/usr/bin/env python3
"""Self-test of the campaign benchmark, registered with ctest.

    smoke_test.py PFUZZ_BENCH BENCHMARK.json

Runs `pfuzz_bench --smoke` (every budget divided by 50, three traced
repetitions of all workloads) in the current directory and asserts:

- every workload and every metric name BENCHMARK.json declares is reported;
- no campaign failed an output check (fail rate 0);
- on json, the traced subject's fresh plus resumed runs equal the
  executions minus the run-cache replays;
- the traced run wrote one span record per campaign;
- the whole smoke run took under 15 seconds.
"""

import json
import subprocess
import sys
import time

TIME_LIMIT_S = 15


def main():
    binary, benchmark = sys.argv[1], sys.argv[2]
    with open(benchmark) as f:
        declared = json.load(f)
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    workloads = [w["name"] for w in declared["workloads"]]

    start = time.monotonic()
    proc = subprocess.run([binary, "--smoke", "--results", "smoke-results.json",
                           "--trace=smoke-trace.ndjson"],
                          stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    print(proc.stdout)
    errors = []
    if proc.returncode != 0:
        errors.append(f"pfuzz_bench --smoke exited {proc.returncode}")
    if elapsed > TIME_LIMIT_S:
        errors.append(f"smoke run took {elapsed:.1f} s > {TIME_LIMIT_S} s")

    with open("smoke-results.json") as f:
        results = json.load(f)["workloads"]
    campaigns = 0
    for w in workloads:
        r = results.get(w)
        if r is None:
            errors.append(f"workload {w} missing")
            continue
        campaigns += r["attempted"]
        missing = [n for n in names if n not in r["metrics"]]
        if missing:
            errors.append(f"{w}: metrics missing: {', '.join(missing)}")
        if r["failed"] != 0 or r["attempted"] == 0:
            errors.append(f"{w}: {r['failed']}/{r['attempted']} campaigns "
                          f"failed: {r['failures']}")

    # "cell fresh resumed executions replays", one line per traced pFuzzer
    # campaign whose run-cache counters the bench could read.
    json_lines = [line.split() for r in results.values()
                  for line in r["accounting"] if "/json" in line.split()[0]]
    if not json_lines:
        errors.append("no run accounting for a json campaign")
    for cell, fresh, resumed, execs, replays in json_lines:
        if int(fresh) + int(resumed) != int(execs) - int(replays):
            errors.append(f"{cell}: {fresh} fresh + {resumed} resumed runs != "
                          f"{execs} executions - {replays} replays")

    with open("smoke-trace.ndjson") as f:
        records = [json.loads(line) for line in f]
    if len(records) != campaigns:
        errors.append(f"{len(records)} trace records for {campaigns} campaigns")

    for e in errors:
        print("FAIL:", e)
    print(f"smoke: {len(errors)} failures, {elapsed:.1f} s")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
