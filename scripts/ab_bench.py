#!/usr/bin/env python3
"""A/B comparison of two checkouts on the benchmark, in alternating pairs.

Usage:  python scripts/ab_bench.py PARENT CHANGE [--pairs 10] [--seed 7] [--workload NAME ...]

PARENT and CHANGE are the roots of two source checkouts.  Their absolute
paths must have the same length: ``peak_rss_mb`` moves by 0.2-0.3 MiB with
the path length alone.  For each workload (default: every workload that the
parent's BENCHMARK.json names) and each pair, both checkouts run
``perfbench/run.py --workload W --seed N --seconds 0``, one execution each;
the parent runs first in odd pairs and the change in even ones.  Before
pair 1 of each workload, each side runs one warm-up execution, the change
first, so that no side is charged a cold start: its correctness and digest
count, but its values enter no median, interquartile range, tally or
verdict.  The seed
(default 7) generates the workloads' inputs; checking a claim on a seed
that was not used while making the change guards against tuning to one
input.

The first line gives the seed, the number of pairs, the CPUs this process
may use and each checkout's line total of ``src/hydrolimit/*.py``
(``src_lines``).  A warning line follows when the checkouts' BENCHMARK.json
or ``perfbench/*.py`` differ: each side then runs its own benchmark, and the
A/B compares two different programs.  The warm-up and every pair are
printed as they end.
Then, per workload and end-to-end metric: the parent's median and
interquartile range, the change's median, the relative change of the
medians and the number of pairs the change won, then a verdict line
(``verdict``).  A digest that differs between executions of one side is
reported.  The exit status is 1 if any execution printed
``"correct": false`` (or no result), else 0.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys


def source_lines(root):
    """Line total of ``src/hydrolimit/*.py`` in the checkout ``root``,
    counted as ``wc -l`` counts: newline characters."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "hydrolimit", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def _read(path):
    """The bytes of ``path``, or None when there is no such file."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def benchmark_differences(parent, change):
    """Sorted relative paths of the benchmark files, BENCHMARK.json and
    ``perfbench/*.py``, whose contents differ between the two checkouts; a
    file that only one of them has differs."""
    names = {"BENCHMARK.json"}
    for root in (parent, change):
        names.update(os.path.relpath(p, root) for p in glob.glob(os.path.join(root, "perfbench", "*.py")))
    return sorted(n for n in names
                  if _read(os.path.join(parent, n)) != _read(os.path.join(change, n)))


def run_once(root, workload, seed):
    """(metrics dict, correct, payload digest) of one ``--seconds 0`` run."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
    lines = proc.stdout.strip().splitlines()
    digest = next((ln.split()[1].partition("=")[2] for ln in lines
                   if ln.startswith("payload sha256=")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(f"{root}: {workload}: no result (exit {proc.returncode})\n"
                         f"{proc.stderr.strip()[-2000:]}\n")
        return {}, False, digest
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, bool(result["correct"]), digest


def quartiles(values):
    """(first quartile, third quartile), inclusive method."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def pairs_won(base, new, lower):
    """Pairs in which the change read better; ties count for neither."""
    return sum((b > c) if lower else (c > b) for b, c in zip(base, new))


def verdict(base, new, lower):
    """Return "gain" when the change won at least nine tenths of the pairs
    and its median is better than the parent's by more than the parent's
    interquartile range, else "no gain shown"."""
    q1, q3 = quartiles(base)
    better = statistics.median(base) - statistics.median(new)
    if not lower:
        better = -better
    won = pairs_won(base, new, lower)
    return "gain" if 10 * won >= 9 * len(base) and better > q3 - q1 else "no gain shown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", action="append", dest="workloads", metavar="NAME")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if len(sides["parent"]) != len(sides["change"]):
        ap.error(f"checkout paths of unequal length ({len(sides['parent'])} and "
                 f"{len(sides['change'])} characters): peak_rss_mb depends on it")
    with open(os.path.join(sides["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]

    print(f"seed={args.seed} pairs={args.pairs} cpus_usable={len(os.sched_getaffinity(0))} "
          f"src_lines={source_lines(sides['parent'])}/{source_lines(sides['change'])} "
          "(parent/change)", flush=True)
    differ = benchmark_differences(sides["parent"], sides["change"])
    if differ:
        print(f"warning: {', '.join(differ)} differ between the checkouts: each side runs its "
              "own benchmark, so the A/B compares two different programs", flush=True)
    ok = True
    for workload in workloads:
        values = {side: {m["name"]: [] for m in metrics} for side in sides}
        digests = {side: set() for side in sides}
        for pair in range(args.pairs + 1):  # pair 0 is the warm-up
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                got, correct, digest = run_once(sides[side], workload, args.seed)
                ok = ok and correct
                digests[side].add(digest)
                for m in metrics:
                    values[side][m["name"]].append(got.get(m["name"], float("nan")))
            print(f"{workload} {f'pair {pair}' if pair else 'warm-up'} ({order[0]} first): " + " ".join(
                f"{m['name']}={values['parent'][m['name']][-1]:.4g}/{values['change'][m['name']][-1]:.4g}"
                for m in metrics) + " (parent/change)", flush=True)
        for side in sides:
            if len(digests[side]) > 1:
                print(f"{workload}: {side} executions disagree on the digest: {sorted(map(str, digests[side]))}")
        print(f"{workload}: digest parent {'/'.join(sorted(map(str, digests['parent'])))} "
              f"change {'/'.join(sorted(map(str, digests['change'])))}")
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            base, new = values["parent"][name][1:], values["change"][name][1:]  # no warm-up
            q1, q3 = quartiles(base)
            med_base, med_new = statistics.median(base), statistics.median(new)
            rel = (med_new - med_base) / med_base if med_base else float("nan")
            print(f"{workload} {name}: parent {med_base:.4g} "
                  f"(IQR {q1:.4g}-{q3:.4g}), change {med_new:.4g} {m['unit']} ({rel:+.1%}), "
                  f"change won {pairs_won(base, new, lower)}/{len(base)}")
            print(f"{workload} {name} verdict: {verdict(base, new, lower)}")
    if not ok:
        print("error: an execution was not correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
