#!/usr/bin/env python3
"""Report-only comparison of benchmark result sets.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--trace 0|1]
    python3 perfbench/compare.py RUNS.jsonl            # one set: spread only

Each file holds the records perfbench/run.py appends (one per run). For
every (workload, metric) the report gives each set's median and quartiles
(statistics.quantiles, n=4) and the spread: the quartile distance as a
share of the median. With two sets, gain is how much better the new median
is than the base median, as a share of the base (negative: worse), and
each end-to-end metric is marked

    within bound   the new median is not worse than the base median by
                   more than the metric's bound from BENCHMARK.json
    outside bound  it is worse by more than the bound
    unresolved     a set's spread is wider than the bound, so the medians
                   cannot be told apart (unless every new run beats every
                   base run, which is marked better); or the two sets ran
                   on different amounts of machine: their median
                   hypervisor steal differs by more than STEAL_POINTS

Each workload's rows are headed by its sets' median steal and iowait share
of the timed window (machine-wide, from /proc/stat; "-" for records that
predate it). Per-layer metrics (--trace 1) have no bound; their change is
printed as is.
With one set, each metric is marked steady (spread under a third of its
bound), noisy (under the bound) or too noisy. Nothing is ever rejected:
the exit status is 0 whenever the files parse.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Two sets whose median steal share differs by more than this ran on
# different machines, as far as a benchmark can tell.
STEAL_POINTS = 0.03
MACHINE = ("steal_frac", "iowait_frac")


def load(path, trace):
    """Returns the values per (workload, metric), and the machine shares
    (steal, iowait) per (workload, share)."""
    runs = defaultdict(list)
    machine = defaultdict(list)
    with open(path) as source:
        for line in source:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace", 0) != trace:
                continue
            for name, metric in record["result"]["metrics"].items():
                runs[(record["workload"], name)].append(metric["value"])
            for share in MACHINE:
                if share in record["meta"]:
                    machine[(record["workload"], share)].append(record["meta"][share])
    return runs, machine


def machine_median(machine, workload, share):
    values = machine.get((workload, share))
    return statistics.median(values) if values else None


def show(value):
    return "-" if value is None else f"{value:.3f}"


def summary(values):
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def beats(new, base, better):
    return new < base if better == "lower" else new > base


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    base, base_machine = load(args.base, args.trace)
    new, new_machine = load(args.new, args.trace) if args.new else (None, None)
    workloads = [w["name"] for w in spec["workloads"]]

    fmt = "{:<14} {:<32} {:>5} {:>12} {:>12} {:>12} {:>7}"
    if new is None:
        print(fmt.format("workload", "metric", "runs", "median", "q1", "q3", "spread")
              + "  verdict")
    else:
        print(fmt.format("workload", "metric", "runs", "base", "new", "gain", "spread")
              + "  verdict")
    for workload in workloads:
        b_steal = machine_median(base_machine, workload, "steal_frac")
        b_iowait = machine_median(base_machine, workload, "iowait_frac")
        if new is None:
            print(f"{workload}: steal {show(b_steal)}, iowait {show(b_iowait)}")
            machine_differs = False
        else:
            n_steal = machine_median(new_machine, workload, "steal_frac")
            n_iowait = machine_median(new_machine, workload, "iowait_frac")
            machine_differs = (b_steal is not None and n_steal is not None
                               and abs(n_steal - b_steal) > STEAL_POINTS)
            print(f"{workload}: steal base {show(b_steal)} new {show(n_steal)}, "
                  f"iowait base {show(b_iowait)} new {show(n_iowait)}"
                  + ("  (steal differs: unresolved)" if machine_differs else ""))
        for metric in metrics:
            key = (workload, metric["name"])
            if key not in base or (new is not None and key not in new):
                continue
            bound = metric.get("bound")
            b_med, b_q1, b_q3, b_spread = summary(base[key])
            if new is None:
                verdict = "-"
                if bound is not None:
                    verdict = ("steady" if b_spread <= bound / 3
                               else "noisy" if b_spread <= bound else "too noisy")
                print(fmt.format(workload, metric["name"], len(base[key]), f"{b_med:.5g}",
                                 f"{b_q1:.5g}", f"{b_q3:.5g}", f"{b_spread:.3f}")
                      + f"  {verdict}")
                continue
            n_med, n_q1, n_q3, n_spread = summary(new[key])
            worse = worse_by(b_med, n_med, metric["better"])
            spread = max(b_spread, n_spread)
            verdict = "-"
            if bound is not None:
                if machine_differs:
                    verdict = "unresolved"
                elif spread > bound:
                    all_better = all(beats(n, b, metric["better"])
                                     for n in new[key] for b in base[key])
                    verdict = "better" if all_better else "unresolved"
                elif worse > bound:
                    verdict = "outside bound"
                else:
                    verdict = "within bound"
            print(fmt.format(workload, metric["name"], f"{len(base[key])}/{len(new[key])}",
                             f"{b_med:.5g}", f"{n_med:.5g}", f"{-worse:+.3f}", f"{spread:.3f}")
                  + f"  {verdict}")
            print(fmt.format("", "  quartiles", "", f"{b_q1:.4g}-{b_q3:.4g}",
                             f"{n_q1:.4g}-{n_q3:.4g}", "", ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
