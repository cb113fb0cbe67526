#!/usr/bin/env python3
"""Compare two sets of rfidmon_bench suite results against BENCHMARK.json.

  python3 bench/suite/compare.py PARENT CHANGE [--layers]

PARENT and CHANGE are comma-separated result files written by
`run.py --out`, each optionally suffixed with :SET to pick one set label
(for example results/seed-abc.json:a). All runs named on one side are
pooled. Each workload gets its own block of rows; for every end-to-end
metric the row shows both medians with their quartiles and a status:

  same        within the metric's bound
  better      at least 10 runs paired in order, the change wins 9 of 10
              of them, and the medians differ by more than the parent's
              quartile spread
  REGRESSION  the change's median is worse by more than the bound, and
              either both sides' quartile spreads are within the bound or
              every change run is worse than every parent run
  unresolved  a side's quartile spread is wider than the bound and the
              runs do not separate: the comparison cannot show whether the
              change regressed
  CHANGED     an exact metric (simulated air time) differs on equal seeds

Quartiles are the inclusive ones (statistics.quantiles, method
"inclusive"); the spread is q3 - q1 over the median. Any rise in the error
share (failed / attempted) or a run that failed its correctness checks
also fails. Exit status: 1 on any REGRESSION, CHANGED, error rise, failed
or missing run; else 3 when a row is unresolved; else 0. --layers adds the
traced per-layer medians, without verdicts.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT = ("air_ms_per_run",)
MIN_PAIRS = 10


def load(spec):
    """Runs named by 'file[:set],file[:set]...', plus the seeds they used."""
    runs, seeds = [], set()
    for part in spec.split(","):
        path, _, label = part.partition(":")
        data = json.loads(Path(path).read_text())
        seeds.add(data["meta"]["seed"])
        runs += [r for r in data["runs"] if not label or r["set"] == label]
    return runs, seeds


def values(runs, workload, trace, metric):
    out = []
    for r in runs:
        res = r["result"]
        if r["workload"] == workload and r["trace"] == trace and res:
            if metric in res["metrics"]:
                out.append(res["metrics"][metric]["value"])
    return out


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0]
    q = statistics.quantiles(vals, n=4, method="inclusive")
    return q[0], q[2]


def spread(vals):
    med = statistics.median(vals)
    q1, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else 0.0


def judge(metric, parent, change, same_seed):
    """Status of one end-to-end metric on one workload."""
    if metric["name"] in EXACT and same_seed:
        return "same" if set(parent) == set(change) and len(set(parent)) == 1 \
            else "CHANGED"
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    mp, mc = statistics.median(parent), statistics.median(change)
    worse = (mc - mp) / abs(mp) if lower else (mp - mc) / abs(mp)
    if lower:
        all_worse = min(change) > max(parent)
        all_better = max(change) < min(parent)
    else:
        all_worse = max(change) < min(parent)
        all_better = min(change) > max(parent)
    noisy = max(spread(parent), spread(change)) > bound
    if worse > bound and (not noisy or all_worse):
        return "REGRESSION"
    if noisy and not all_better:
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    q1, q3 = quartiles(parent)
    if len(pairs) >= MIN_PAIRS and wins * 10 >= 9 * len(pairs) \
            and abs(mc - mp) > q3 - q1:
        return "better"
    return "same"


def error_share(runs, workload):
    attempted = failed = 0
    for r in runs:
        res = r["result"]
        if r["workload"] == workload and res:
            attempted += res["attempted"]
            failed += res["failed"]
    return failed / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args()

    bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    parent, parent_seeds = load(args.parent)
    change, change_seeds = load(args.change)
    same_seed = parent_seeds == change_seeds and len(parent_seeds) == 1
    failing = False
    unresolved = False

    for run in parent + change:
        res = run["result"]
        if run["exit"] != 0 or not res or not res["correct"]:
            print(f"FAILED RUN: {run['workload']} trace={run['trace']} "
                  f"set={run['set']} repeat={run['repeat']}")
            failing = True

    header = (f"{'metric':28s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'delta':>8s} {'bound':>6s}  "
              "status")
    for wl in bench["workloads"]:
        name = wl["name"]
        n_parent = len(values(parent, name, False, "setup_s"))
        n_change = len(values(change, name, False, "setup_s"))
        print(f"\n== {name}  (parent n={n_parent}, change n={n_change})")
        if n_parent == 0 and n_change == 0:
            print("not run on either side")
            continue
        print(header)
        for metric in bench["end_to_end"]:
            p = values(parent, name, False, metric["name"])
            c = values(change, name, False, metric["name"])
            if not p or not c:
                print(f"{metric['name']:28s} missing")
                failing = True
                continue
            status = judge(metric, p, c, same_seed)
            failing |= status in ("REGRESSION", "CHANGED")
            unresolved |= status == "unresolved"
            mp, mc = statistics.median(p), statistics.median(c)
            pq, cq = quartiles(p), quartiles(c)
            delta = (mc - mp) / abs(mp) * 100 if mp else 0.0
            print(f"{metric['name']:28s} "
                  f"{mp:12.6g} [{pq[0]:9.4g}, {pq[1]:9.4g}] "
                  f"{mc:12.6g} [{cq[0]:9.4g}, {cq[1]:9.4g}] "
                  f"{delta:+7.2f}% {metric['bound']:6.2f}  {status}")
        ep, ec = error_share(parent, name), error_share(change, name)
        rose = ec > ep
        failing |= rose
        print(f"{'error_share':28s} {ep:12.6g} {'':22s}{ec:12.6g} "
              f"{'':30s}{'ROSE' if rose else 'same'}")
        if args.layers:
            for metric in bench["per_layer"]:
                p = values(parent, name, True, metric["name"])
                c = values(change, name, True, metric["name"])
                if p and c:
                    mp, mc = statistics.median(p), statistics.median(c)
                    delta = (mc - mp) / abs(mp) * 100 if mp else 0.0
                    print(f"  {metric['name']:34s} {mp:12.6g} -> {mc:12.6g} "
                          f"{metric['unit']:6s} {delta:+8.2f}%")
    if not same_seed:
        print("\nnote: the sides used different seeds; air_ms_per_run was judged "
              "against their bounds instead of exactly")
    return 1 if failing else 3 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
