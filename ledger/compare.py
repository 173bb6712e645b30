#!/usr/bin/env python3
"""Compares two sets of ledger runs, workload by workload.

Usage:

    python3 ledger/compare.py BASE NEW [--bench BENCHMARK.json]

BASE and NEW are files or directories of captured `ledger/run.py` output
(one or more runs per file: each run is its {"ledger": ...} metadata line
followed by its result line). Runs pair up by (workload, seed); runs whose
seed has no partner pair up in order.

For every workload and every end-to-end metric of BENCHMARK.json it prints
each side's median and quartiles, the change of the medians, the share of
pairs the new side won (ties count for neither) and a verdict:

  improved    the new side won at least 9 of 10 pairs and the medians
              differ, in the better direction, by more than the base side's
              own spread (the distance between its quartiles);
  unresolved  the base side's spread, as a share of its median, is wider
              than the metric's bound, so "unchanged" cannot be claimed;
  regressed   the new median is worse than the base median by more than
              the bound;
  unchanged   none of the above.

Exits 1 when any metric regressed, otherwise 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def read_runs(path):
    """{workload: [(seed, {metric: value})]} from a file or directory."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path))
    runs = {}
    for name in files:
        meta = None
        with open(name) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                record = json.loads(line)
                if "ledger" in record:
                    meta = record["ledger"]
                elif "metrics" in record and meta is not None:
                    values = {k: v["value"] for k, v in record["metrics"].items()}
                    runs.setdefault(meta["workload"], []).append(
                        (meta.get("seed"), values))
                    meta = None
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pair_up(base, new):
    """Pairs (base, new) values: same seed first, then in order."""
    new_by_seed = {}
    for seed, value in new:
        new_by_seed.setdefault(seed, []).append(value)
    pairs, base_left = [], []
    for seed, value in base:
        if new_by_seed.get(seed):
            pairs.append((value, new_by_seed[seed].pop(0)))
        else:
            base_left.append(value)
    new_left = [v for values in new_by_seed.values() for v in values]
    pairs.extend(zip(base_left, new_left))
    return pairs


def verdict(base, new, pairs, better, bound):
    """Applies the rules of the module docstring; returns (verdict, won)."""
    sign = 1.0 if better == "higher" else -1.0
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    won = sum(1 for b, n in pairs if sign * (n - b) > 0)
    won_share = won / len(pairs) if pairs else 0.0
    gain = sign * (nmed - bmed)
    if won_share >= 0.9 and gain > (b3 - b1):
        return "improved", won_share
    if bmed != 0 and (b3 - b1) / abs(bmed) > bound:
        return "unresolved", won_share
    if bmed != 0 and -gain / abs(bmed) > bound:
        return "regressed", won_share
    return "unchanged", won_share


def compare(base_runs, new_runs, bench):
    """Rows of (workload, metric, unit, base q, new q, change, won, verdict)."""
    rows = []
    for workload in sorted(set(base_runs) | set(new_runs)):
        base = base_runs.get(workload, [])
        new = new_runs.get(workload, [])
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = [(s, v[name]) for s, v in base if name in v]
            n = [(s, v[name]) for s, v in new if name in v]
            if not b or not n:
                rows.append((workload, name, metric["unit"], None, None, None,
                             None, "missing"))
                continue
            bvals = [v for _, v in b]
            nvals = [v for _, v in n]
            result, won = verdict(bvals, nvals, pair_up(b, n),
                                  metric["better"], metric["bound"])
            bq, nq = quartiles(bvals), quartiles(nvals)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            rows.append((workload, name, metric["unit"], bq, nq, change, won,
                         result))
    return rows


def render(rows, base_count, new_count):
    lines = ["base runs: %s; new runs: %s" % (base_count, new_count)]
    header = "%-14s %-16s %-8s %-34s %-34s %8s %6s  %s" % (
        "workload", "metric", "unit", "base median [q1, q3]",
        "new median [q1, q3]", "change", "won", "verdict")
    lines.append(header)
    for workload, name, unit, bq, nq, change, won, result in rows:
        if bq is None:
            lines.append("%-14s %-16s %-8s %s" % (workload, name, unit, result))
            continue
        fmt = "%.4g [%.4g, %.4g]"
        lines.append("%-14s %-16s %-8s %-34s %-34s %+7.1f%% %5.0f%%  %s" % (
            workload, name, unit, fmt % (bq[1], bq[0], bq[2]),
            fmt % (nq[1], nq[0], nq[2]), 100 * change, 100 * won, result))
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--bench",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    base_runs, new_runs = read_runs(args.base), read_runs(args.new)
    rows = compare(base_runs, new_runs, bench)
    count = lambda runs: {w: len(r) for w, r in sorted(runs.items())}
    print(render(rows, count(base_runs), count(new_runs)))
    return 1 if any(r[-1] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
