#!/usr/bin/env python3
"""Compares two sets of campaign-benchmark results (standard library only).

    compare.py --parent P1.json P2.json ... --change C1.json C2.json ...
    compare.py --parent P1.json ... [--summary OUT.json]

Each file is a results.json written by pfuzz_bench (a directory stands for
every *.json in it). End-to-end metrics are taken from untraced runs and
per-layer metrics from traced runs. Runs of the two sets are paired in
order of seed, then file name. For every workload and every metric
BENCHMARK.json declares, the report gives each side's median and
quartiles, the share of pairs the change won (ties count for neither
side), and a verdict.

Coverage and token counts are deterministic per seed, so they are
compared exactly, run against run of the same seed:

  regression        the change is lower on at least one seed
  gain              the change is higher on at least 9 of 10 seeds and
                    lower on none
  unchanged         none of the above
  nondeterministic  one side reported two values for one seed

Every other end-to-end metric is compared median against median:

  regression   the change's median is worse than the parent's by more than
               the metric's bound; for setup_s, by more than the bound or
               20 ms, whichever is larger
  gain         the change won at least 9 of 10 pairs and the medians differ
               by more than the parent's quartile spread
  unresolved   the parent's own quartile spread exceeds the bound, and not
               every change run beats every parent run
  unchanged    none of the above

Per-layer metrics have no bound; they get "gain" or "-" only. The exit code
is 1 when any metric regressed or was nondeterministic. Without --change,
the parent set is only summarised; --summary also writes that summary
(medians, quartiles and the machine the runs came from) as JSON, the
format of baseline.json.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.normpath(os.path.join(HERE, "..", "..",
                                                  "BENCHMARK.json"))

# Deterministic per seed: equal seeds must give equal values.
EXACT = {"branch_coverage", "tokens_found", "long_tokens_found"}
# Set-up is about a millisecond, so a relative bound alone would flag
# noise; it regresses only past this absolute floor as well.
SETUP_FLOOR_S = 0.020


def load_runs(paths):
    files = []
    for p in paths:
        files += sorted(glob.glob(os.path.join(p, "*.json"))) \
            if os.path.isdir(p) else [p]
    runs = []
    for f in files:
        with open(f) as fh:
            runs.append((f, json.load(fh)))
    runs.sort(key=lambda r: (r[1].get("seed", 0), r[0]))
    return runs


def values(runs, workload, metric, traced):
    """(seed, value) per run that reported the metric for the workload.
    End-to-end metrics come from untraced runs, per-layer ones from
    traced runs."""
    out = []
    for _, r in runs:
        if r.get("trace", False) != traced:
            continue
        m = r.get("workloads", {}).get(workload, {}).get("metrics", {})
        if metric in m:
            out.append((r.get("seed"), m[metric]["value"]))
    return out


def metrics(declared):
    """(metric, traced) for every declared metric."""
    return [(m, False) for m in declared["end_to_end"]] + \
        [(m, True) for m in declared["per_layer"]]


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, med, q3


def worse(a, b, better):
    """True when a is worse than b."""
    return a < b if better == "higher" else a > b


def exact_verdict(p, c, better):
    """Pairs runs by seed; each seed must read one value per side."""
    ps, cs = {}, {}
    for side, runs in ((ps, p), (cs, c)):
        for seed, v in runs:
            side.setdefault(seed, set()).add(v)
    if any(len(v) > 1 for v in list(ps.values()) + list(cs.values())):
        return 0.0, "nondeterministic"
    pairs = [(ps[s].pop(), cs[s].pop()) for s in ps if s in cs]
    if not pairs:
        return 0.0, "no common seed"
    won = sum(worse(pv, cv, better) for pv, cv in pairs) / len(pairs)
    if any(worse(cv, pv, better) for pv, cv in pairs):
        return won, "regression"
    return won, "gain" if won >= 0.9 else "unchanged"


def verdict(p, c, metric):
    name, better, bound = metric["name"], metric["better"], metric.get("bound")
    if bound is not None and name in EXACT:
        return exact_verdict(p, c, better)
    p, c = [v for _, v in p], [v for _, v in c]
    pq1, pmed, pq3 = quartiles(p)
    _, cmed, _ = quartiles(c)
    pairs = list(zip(p, c))
    won = sum(worse(pv, cv, better) for pv, cv in pairs)
    won_share = won / len(pairs) if pairs else 0.0
    all_better = all(worse(pv, cv, better) for pv in p for cv in c)
    gain = won_share >= 0.9 and abs(cmed - pmed) > (pq3 - pq1)
    if bound is None:
        return won_share, "gain" if gain else "-"
    allowed = bound * abs(pmed)
    if name == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    worse_by = (pmed - cmed) if better == "higher" else (cmed - pmed)
    if pq3 - pq1 > allowed and not all_better:
        return won_share, "unresolved"
    if worse_by > allowed:
        return won_share, "regression"
    return won_share, "gain" if gain else "unchanged"


def fmt(x):
    return f"{x:.6g}"


def summarize(runs, declared):
    first = runs[0][1]
    out = {"runs": len(runs),
           "seeds": sorted({r.get("seed") for _, r in runs}),
           "nproc": first.get("nproc"), "compiler": first.get("compiler"),
           "build_type": first.get("build_type"),
           "seconds": first.get("seconds"), "workloads": {}}
    for w in declared["workloads"]:
        row = {}
        for m, traced in metrics(declared):
            v = [x for _, x in values(runs, w["name"], m["name"], traced)]
            if v:
                q1, med, q3 = quartiles(v)
                row[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                  "unit": m["unit"], "n": len(v)}
        if row:
            out["workloads"][w["name"]] = row
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+")
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    ap.add_argument("--summary", help="write the parent summary here")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        declared = json.load(f)
    parent = load_runs(args.parent)
    if not parent:
        sys.exit("compare.py: no parent results")

    if args.summary or not args.change:
        summary = summarize(parent, declared)
        text = json.dumps(summary, indent=2) + "\n"
        if args.summary:
            with open(args.summary, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
        if not args.change:
            return 0

    change = load_runs(args.change)
    if not change:
        sys.exit("compare.py: no change results")
    failures = 0
    header = (f"{'workload':<10} {'metric':<34} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'won':>5}  verdict")
    print(header)
    print("-" * len(header))
    for w in declared["workloads"]:
        for m, traced in metrics(declared):
            p = values(parent, w["name"], m["name"], traced)
            c = values(change, w["name"], m["name"], traced)
            if not p or not c:
                continue
            won, v = verdict(p, c, m)
            failures += v in ("regression", "nondeterministic")
            pq = quartiles([x for _, x in p])
            cq = quartiles([x for _, x in c])
            print(f"{w['name']:<10} {m['name']:<34} "
                  f"{'/'.join(fmt(x) for x in pq):>32} "
                  f"{'/'.join(fmt(x) for x in cq):>32} {won:>5.2f}  {v}")
    print(f"{len(parent)} parent runs, {len(change)} change runs, "
          f"{failures} regressed or nondeterministic")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
