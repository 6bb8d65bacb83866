#!/usr/bin/env python3
"""Measures how steady the benchmark is from run to run.

Makes two sets of untraced runs, one after the other. In each set every
workload of BENCHMARK.json runs once per seed, seeds 1 to --runs. For
each end-to-end metric it prints the median, the quartiles and the
spread (interquartile distance over the median) next to the metric's
bound, and then compares the medians of the two sets in both directions:
each set in turn is taken as the parent. A spread or a worsening over
its bound is marked OVER and listed at the end as unresolved. One traced
run per workload (seed 1, first set) gives the tracing overhead on
pass_s and checks that tracing leaves the output digest unchanged.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 > steadiness.md
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def run(bench, workload, seed, trace):
    """One benchmark run: (result object, stdout lines, seconds taken)."""
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    took = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(lines[-1]), lines, took


def find(lines, pattern):
    """The first group of the first line matching `pattern`."""
    for line in lines:
        m = re.search(pattern, line)
        if m:
            return m.group(1)
    return None


def worse_by(metric, parent, child):
    """How much worse `child` is than `parent`, as a share of `parent`."""
    if parent == 0:
        return 0.0
    change = (child - parent) / parent
    return change if metric["better"] == "lower" else -change


def one_set(bench, seeds, traced):
    """Every workload once per seed; prints the tables and returns
    {workload: {metric: [values]}} and the spreads over their bounds."""
    metrics = bench["end_to_end"]
    values, over = {}, []
    for w in [w["name"] for w in bench["workloads"]]:
        vals, digests, took = {}, {}, []
        for s in seeds:
            result, lines, t = run(bench, w, s, 0)
            if not result["correct"]:
                raise SystemExit(f"{w} seed {s}: output checks failed")
            digests[s] = find(lines, r"output digest: (\w+)")
            took.append(t)
            for name, m in result["metrics"].items():
                vals.setdefault(name, []).append(m["value"])
            sys.stderr.write(f"{w} seed {s}: {t:.1f} s\n")
        values[w] = vals
        print(f"### {w}\n")
        print(f"{len(seeds)} untraced runs, {statistics.median(took):.1f} s each "
              "(median; set-up, checks and the no-op build included)\n")
        print("| metric | median | q1 | q3 | spread | bound | spread / bound | |")
        print("|---|---|---|---|---|---|---|---|")
        for m in metrics:
            v = vals[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if spread > m["bound"]:
                flag = "OVER"
                over.append(f"{w} {m['name']}: spread {spread:.1%} in one set")
            print(f"| {m['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.2%} "
                  f"| {m['bound']} | {spread / m['bound']:.2f} | {flag} |")
        if traced:
            s = seeds[0]
            result, lines, _ = run(bench, w, s, 1)
            digest = find(lines, r"output digest: (\w+)")
            same = "identical" if digest == digests[s] else f"DIFFERENT ({digest} vs {digests[s]})"
            floor = float(find(lines, r"pass_s with tracing on .*?: ([0-9.e+-]+)"))
            q1, med, q3 = statistics.quantiles(vals["pass_s"], n=4)
            checks = "passed" if result["correct"] else "FAILED"
            print(f"\nTraced run, seed {s}: output checks {checks}; output digest {same} to the "
                  f"untraced run's; pass_s {floor:.4f} s traced against the untraced "
                  f"median {med:.4f} s ({floor / med - 1:+.2%}; untraced quartiles "
                  f"{q1:.4f}–{q3:.4f} s).")
        print()
    return values, over


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="untraced runs per workload and set")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seeds = list(range(1, args.runs + 1))
    print(f"run_seconds {bench['run_seconds']}, seeds {seeds[0]}..{seeds[-1]}\n")
    print("## Set 1\n")
    first, over = one_set(bench, seeds, traced=True)
    print("## Set 2\n")
    second, over2 = one_set(bench, seeds, traced=False)
    over += over2

    print("## The two sets compared\n")
    print("Each set in turn is the parent. A positive figure is a worsening.\n")
    print("| workload | metric | set 1 median | set 2 median | set 2 worse by "
          "| set 1 worse by | bound | |")
    print("|---|---|---|---|---|---|---|---|")
    for w in first:
        for m in bench["end_to_end"]:
            a = statistics.median(first[w][m["name"]])
            b = statistics.median(second[w][m["name"]])
            fwd, back = worse_by(m, a, b), worse_by(m, b, a)
            flag = ""
            if max(fwd, back) > m["bound"]:
                flag = "OVER"
                over.append(f"{w} {m['name']}: medians {max(fwd, back):.1%} apart")
            print(f"| {w} | {m['name']} | {a:.6g} | {b:.6g} | {fwd:+.2%} | {back:+.2%} "
                  f"| {m['bound']} | {flag} |")
    print()
    if over:
        print("Unresolved, over the bound:\n")
        for line in over:
            print(f"- {line}")
    else:
        print("Every spread and every change between the sets is within its bound.")


if __name__ == "__main__":
    main()
