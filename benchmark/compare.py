#!/usr/bin/env python3
"""A/B comparison of two source trees on the benchmark.

    python3 benchmark/compare.py PARENT_TREE CHANGE_TREE [--pairs 10]
        [--seed 1]

Each tree is a checkout holding BENCHMARK.json and benchmark/run.py
(for example `git archive <commit> | tar -x -C DIR`). Pair i runs every
workload on both trees with seed SEED+i; the side that runs first
alternates between pairs. Every run measures BENCHMARK.json's
run_seconds. Per (workload, end-to-end metric) it prints each side's
median and quartiles and a verdict:

  gain          the change wins at least 9/10 of the pairs and the
                medians differ by more than the parent's quartile spread
  regression    the change's median is worse than the parent's by more
                than the metric's bound (for setup_s, also by more than
                0.05 s: set-ups of a few milliseconds swing by a third
                with host load, and no user waits on the difference)
  unresolved    the parent's own spread is wider than the bound, and not
                every change run beats every parent run
  within bound  none of the above

It stops at the first run on either side that is not correct: a broken
cell (failed > 0, so the failure share cannot rise) or a pass that did
not reproduce the first (info.deterministic false). It also fails when
a workload's sim_digest differs between the trees for the same seed: a
speed-only change must keep every simulated statistic identical. Exit
status 0 means every run correct, no regression and equal digests.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 900 + 180  # the first run in a tree builds
MIN_PAIRS = 10  # choosing-metrics: a gain needs >= 9 of 10 pair wins
SETUP_FLOOR_S = 0.05  # setup_s changes smaller than this never regress


def at_least_min_pairs(text):
    pairs = int(text)
    if pairs < MIN_PAIRS:
        raise argparse.ArgumentTypeError(f"at least {MIN_PAIRS} pairs")
    return pairs


def run(tree, workload, seed, seconds, smoke=False):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    cmd += ["--seconds", "0", "--smoke"] if smoke else \
        ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"compare.py: {tree}: run.py {workload} seed {seed} "
                 f"exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    runs = json.loads(
        (tree / "benchmark" / "out" / "results.json").read_text())["runs"]
    result["info"] = runs[0]["info"]
    if not result["correct"]:
        sys.exit(f"compare.py: {tree}: {workload} seed {seed} is not "
                 f"correct: {result['failed']} of {result['attempted']} "
                 f"cells broken, passes reproduced the first: "
                 f"{result['info']['deterministic']}")
    return result


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change):
    """Verdict of one (workload, metric) over paired runs."""
    higher = metric["better"] == "higher"

    def better(a, b):  # a reads better than b
        return a > b if higher else a < b

    pm, cm = statistics.median(parent), statistics.median(change)
    p1, p3 = quartiles(parent)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    worse_by = (pm - cm if higher else cm - pm) / pm if pm else 0.0
    if wins >= 0.9 * len(parent) and better(cm, pm) and \
            abs(cm - pm) > p3 - p1:
        return "gain", wins
    if pm and (p3 - p1) / pm > metric["bound"] and not all(
            better(c, p) for c in change for p in parent):
        return "unresolved", wins
    if worse_by > metric["bound"] and not (
            metric["name"] == "setup_s" and abs(cm - pm) <= SETUP_FLOOR_S):
        return "regression", wins
    return "within bound", wins


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=at_least_min_pairs, default=MIN_PAIRS)
    ap.add_argument("--seed", type=int, default=1,
                    help="pair i uses seed SEED+i on both sides")
    args = ap.parse_args()

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    if json.loads((args.change / "BENCHMARK.json").read_text()) != spec:
        print("compare.py: the trees' BENCHMARK.json differ; a change "
              "that claims a gain may not edit the benchmark; using the "
              "parent's", file=sys.stderr)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}

    for tree in sides.values():  # build both before anything is timed
        run(tree, workloads[0], args.seed, 0, smoke=True)

    results = {(s, w): [] for s in sides for w in workloads}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                results[side, w].append(
                    run(sides[side], w, args.seed + i, seconds))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    failed = False
    print(f"{'workload':11s} {'metric':16s} {'parent median [q1, q3]':>35s}"
          f" {'change median [q1, q3]':>35s} {'delta':>8s}  wins verdict")
    for w in workloads:
        par, chg = results["parent", w], results["change", w]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in par]
            cv = [r["metrics"][name]["value"] for r in chg]
            what, wins = verdict(metric, pv, cv)
            failed |= what == "regression"
            pm, cm = statistics.median(pv), statistics.median(cv)
            pq, cq = quartiles(pv), quartiles(cv)
            delta = (cm - pm) / pm * 100 if pm else 0.0
            print(f"{w:11s} {name:16s} {pm:12.5g} [{pq[0]:9.4g}, "
                  f"{pq[1]:9.4g}] {cm:12.5g} [{cq[0]:9.4g}, {cq[1]:9.4g}]"
                  f" {delta:+7.2f}% {wins:2d}/{len(pv)} {what}")
        for i, (p, c) in enumerate(zip(par, chg)):
            pd, cd = p["info"]["sim_digest"], c["info"]["sim_digest"]
            if pd != cd:
                failed = True
                print(f"{w:11s} seed {args.seed + i}: sim_digest {pd} -> "
                      f"{cd} (simulated statistics changed)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
