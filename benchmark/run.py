#!/usr/bin/env python3
"""Build the simulator's host-time benchmark and run it.

One workload; the last line of stdout is its result as one JSON object
with the metrics BENCHMARK.json declares for the mode:

    python3 benchmark/run.py --workload paper_mix --seed 1 --seconds 10 --trace 0

Every workload, each in its own process, with a summary table; with
--trace 1 each workload also gets one traced run:

    python3 benchmark/run.py [--seed S] [--repeats N] [--trace 0|1]

Both forms first build benchmark/ into build-bench/ (CMake,
RelWithDebInfo) and write benchmark/out/results.json; traced runs also
write benchmark/out/<workload>.trace.json. See benchmark/README.md.
"""

import argparse
import fcntl
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-bench"
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

RUN_CAP_S = 180  # one run, build excluded
BUILD_CAP_S = 900  # the first run in a checkout builds
SET_CAP_S = 3420  # a full set: 4 + 22 runs per workload and two builds


class BenchError(Exception):
    pass


def call(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout or interrupt kill the
    whole group (a build's compilers too) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{Path(cmd[0]).name} exited {proc.returncode}")
    return out


def build():
    """Configure and bring spk_bench up to date; returns (path, seconds)."""
    start = time.monotonic()
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # runs sharing a checkout queue here
        jobs = str(min(4, os.cpu_count() or 1))
        # Build chatter goes to stderr: stdout ends with the result.
        call(["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_CAP_S,
             stdout=sys.stderr)
        call(["cmake", "--build", str(BUILD), "--target", "spk_bench",
              "-j", jobs], BUILD_CAP_S, stdout=sys.stderr)
    return BUILD / "spk_bench", time.monotonic() - start


def check_metrics(result, traced):
    """Exactly the declared metrics of the mode, each a finite number in
    its declared unit."""
    declared = SPEC["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, undeclared "
            f"{sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m["unit"] != want[name]:
            raise BenchError(f"{name}: unit {m['unit']}, declared "
                             f"{want[name]}")
        if not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            raise BenchError(f"{name}: value {m['value']!r}")


def run_workload(exe, name, seed, seconds, traced, smoke):
    OUT.mkdir(exist_ok=True)
    cmd = [str(exe), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(OUT)]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    out = call(cmd, RUN_CAP_S, stdout=subprocess.PIPE, text=True)
    result = json.loads(out.strip().splitlines()[-1])
    result["info"]["wall_s"] = time.monotonic() - start
    result["info"]["traced"] = traced
    check_metrics(result, traced)
    return result


def describe(result):
    info = result["info"]
    lines = [
        f"{info['workload']} seed {info['seed']}: {result['attempted']} "
        f"cells, {result['failed']} broken, {info['passes']} pass(es), "
        f"{info['measured_s']:.2f} s measured, sim_digest "
        f"{info['sim_digest']}, correct {result['correct']}",
        f"  fast-mode error vs exact over {info['fast_cells']} cells: "
        f"bandwidth {info['fast_bw_err_pct']:.2f}%, mean latency "
        f"{info['fast_lat_err_pct']:.2f}%"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    return "\n".join(lines)


def write_results(results):
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(
        json.dumps({"runs": results}, indent=1) + "\n")


def summarize(results):
    """Median and quartile spread of every (workload, metric) over the
    measured runs, plus the deterministic outputs per seed."""
    print(f"\n{'workload':11s} {'metric':36s} {'median':>14s} "
          f"{'IQR/median':>10s}  n  unit")
    for name in WORKLOADS:
        runs = [r for r in results
                if r["info"]["workload"] == name and not r["info"]["traced"]]
        for metric in (m["name"] for m in SPEC["end_to_end"]):
            values = [r["metrics"][metric]["value"] for r in runs]
            if not values:
                continue
            med = statistics.median(values)
            spread = "-"
            if len(values) >= 2:
                q = statistics.quantiles(values, n=4)
                spread = f"{(q[2] - q[0]) / med:.4f}" if med else "-"
            unit = runs[0]["metrics"][metric]["unit"]
            print(f"{name:11s} {metric:36s} {med:>14.6g} {spread:>10s} "
                  f"{len(values):2d}  {unit}")
        for r in runs:
            i = r["info"]
            print(f"{name:11s}   seed {i['seed']}: sim_digest "
                  f"{i['sim_digest']}, cell_error_pct "
                  f"{i['cell_error_pct']:g}, fast_bw_err_pct "
                  f"{i['fast_bw_err_pct']:.4f}, fast_lat_err_pct "
                  f"{i['fast_lat_err_pct']:.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run this workload alone and end with its result")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"],
                    help="host seconds the measured phase lasts at least")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report the per-layer metrics of a traced run "
                         "(without --workload: add one traced run each)")
    ap.add_argument("--repeats", type=int, default=1,
                    help="without --workload: runs per workload, seeds "
                         "S, S+1, ...")
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken cells, for checking the harness")
    args = ap.parse_args()

    start = time.monotonic()
    try:
        exe, build_s = build()
        if args.workload:
            result = run_workload(exe, args.workload, args.seed,
                                  args.seconds, args.trace == 1, args.smoke)
            write_results([result])
            print(describe(result))
            print(json.dumps({k: result[k] for k in
                              ("correct", "attempted", "failed", "metrics")}))
            return 0

        results = []
        for name in WORKLOADS:
            for r in range(args.repeats):
                results.append(run_workload(exe, name, args.seed + r,
                                            args.seconds, False, args.smoke))
                print(describe(results[-1]), flush=True)
            if args.trace:
                results.append(run_workload(exe, name, args.seed,
                                            args.seconds, True, args.smoke))
                print(describe(results[-1]), flush=True)
        write_results(results)
        summarize(results)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    # Project a full set from this one: 4 + 22 runs per workload, each
    # paying the up-to-date check, plus two builds.
    elapsed = time.monotonic() - start
    _, check_s = build()
    per_run = statistics.mean(r["info"]["wall_s"] for r in results) + check_s
    projected = (4 + 22 * len(WORKLOADS)) * per_run + 2 * build_s
    print(f"\nset elapsed {elapsed:.1f} s; projected full set "
          f"{projected:.0f} s (cap {SET_CAP_S} s)")
    if elapsed > SET_CAP_S or projected > SET_CAP_S:
        print("run.py: over the time cap", file=sys.stderr)
        return 1
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
