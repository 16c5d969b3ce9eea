#!/usr/bin/env python3
"""Compare two sets of perf_ledger runs, metric by metric.

    python3 bench/ledger/compare.py BASE NEW

BASE and NEW are each a ledger.json written by perf_ledger, or a
directory of them (one file per run; pair the runs of both sides by
sorted file name, alternating which side ran first).

For every end-to-end metric x workload the script prints each side's
median and quartiles over its runs and a verdict, using the bounds
and directions in BENCHMARK.json:

  worse       the new median is worse than the base median by more
              than the bound;
  better      the new side wins at least 9 of every 10 pairs (ties
              count for neither), there are at least 10 pairs, and
              the medians differ by more than the base quartile
              distance;
  unresolved  the base runs spread (quartile distance over median)
              wider than the bound, and not every new run reads
              better than every base run;
  unchanged   otherwise.

Per-layer counts are compared as counts. The simulated counters
(gpu.sim_cycles, mem.mshr_full_stalls, rt.rays_traced) are a parity
contract: a speed change must not move them. Per-layer times have no
bound; their medians are printed for diagnosis.

Exits 1 on any worse metric, any moved parity counter, or any rise in
the failed share (failed / attempted operations).
"""

import argparse
import json
import os
import statistics
import sys

PARITY = ("gpu.sim_cycles", "mem.mshr_full_stalls", "rt.rays_traced")


def load_runs(path):
    if os.path.isdir(path):
        files = sorted(os.path.join(path, name) for name in os.listdir(path)
                       if name.endswith(".json"))
    else:
        files = [path]
    runs = []
    for name in files:
        with open(name) as handle:
            doc = json.load(handle)
        # Skip the ledger_trace.json written next to each ledger.json.
        if doc.get("schema") == "lumibench-perf-ledger-v1":
            runs.append(doc)
    if not runs:
        sys.exit(f"compare.py: no ledger files in {path}")
    return runs


def values(runs, workload, kind, metric):
    out = []
    for run in runs:
        entry = run["workloads"].get(workload, {}).get(kind, {})
        if metric in entry:
            out.append(entry[metric]["value"])
    return out


def summary(samples):
    med = statistics.median(samples)
    if len(samples) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return med, q1, q3


def verdict(base, new, bound, higher_better):
    """One end-to-end verdict under the rule in the module docstring."""
    def better(a, b):
        return a > b if higher_better else a < b

    base_med, base_q1, base_q3 = summary(base)
    new_med = statistics.median(new)
    spread = (base_q3 - base_q1) / base_med if base_med else 0.0
    change = (new_med - base_med) / base_med if base_med else 0.0
    worsening = -change if higher_better else change
    all_better = all(better(n, b) for n in new for b in base)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if better(n, b))
    gain = (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and
            abs(new_med - base_med) > base_q3 - base_q1)
    if spread > bound and not all_better:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if gain and better(new_med, base_med):
        return "better"
    return "unchanged"


def failed_share(runs, workload):
    attempted = failed = 0
    for run in runs:
        entry = run["workloads"].get(workload, {})
        attempted += entry.get("attempted", 0)
        failed += entry.get("failed", 0)
    return failed / attempted if attempted else 0.0


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    with open(os.path.join(here, "..", "..", "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    base_runs = load_runs(args.base)
    new_runs = load_runs(args.new)

    failing = False
    for workload in [w["name"] for w in bench["workloads"]]:
        print(f"# {workload}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base = values(base_runs, workload, "end_to_end", name)
            new = values(new_runs, workload, "end_to_end", name)
            if not base or not new:
                continue
            call = verdict(base, new, metric["bound"],
                           metric["better"] == "higher")
            failing |= call == "worse"
            b, b1, b3 = summary(base)
            n, n1, n3 = summary(new)
            print(f"  {name:20s} base {b:11.5g} [{b1:.5g}, {b3:.5g}] "
                  f"new {n:11.5g} [{n1:.5g}, {n3:.5g}] "
                  f"{(n - b) / b * 100 if b else 0.0:+7.2f}%  {call}")
        for metric in bench["per_layer"]:
            name = metric["name"]
            base = values(base_runs, workload, "per_layer", name)
            new = values(new_runs, workload, "per_layer", name)
            if not base or not new:
                continue
            b, n = statistics.median(base), statistics.median(new)
            if metric["unit"] == "count":
                moved = b != n
                failing |= moved and name in PARITY
                print(f"  {name:28s} {b:.0f} -> {n:.0f} "
                      f"{'MOVED' if moved else 'same'}")
            else:
                print(f"  {name:28s} {b:.5g} -> {n:.5g} {metric['unit']}")
        base_fail = failed_share(base_runs, workload)
        new_fail = failed_share(new_runs, workload)
        if new_fail > base_fail:
            failing = True
            print(f"  failed_share rose: {base_fail:.4g} -> {new_fail:.4g}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
