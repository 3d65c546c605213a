#!/usr/bin/env python3
"""Perf gate: diff BENCH_microbench.json against the committed baseline.

Usage:
    perf_gate.py CURRENT.json BASELINE.json [--tolerance 0.10]
                 [--warn-only] [--update BASELINE.json]

Exit status is non-zero when a gated metric regresses by more than the
tolerance, or when an allocation-free benchmark starts allocating.

Three classes of checks:
  * allocation counts: the event-loop and GC-heavy steady-state
    benchmarks must stay at 0 allocations. This is machine-independent
    and always a hard failure.
  * allocation ratchet: every benchmark with a pinned "allocs" value
    must not allocate MORE than the baseline records. The simulator is
    deterministic, so allocation counts are machine-independent too:
    the ratchet hard-fails even when the hardware fingerprint does not
    match and under --warn-only. Lowering a count is always fine (and
    --update re-pins the improvement); raising one is a regression of
    the steady-state-allocation work and needs a deliberate re-pin.
  * events/sec rates: wall-clock rates are machine-relative, so the
    baseline file stores one benchmark set per *hardware fingerprint*
    (cpu model + logical core count; override with
    SPK_PERF_FINGERPRINT). When the machine running the gate matches
    a pinned fingerprint, rate regressions beyond the tolerance
    hard-fail — including on hosted CI, once a baseline for that
    runner class is committed. On an unknown fingerprint the gate
    still compares warn-only against some pinned entry (absolute
    numbers are wrong cross-hardware, but order-of-magnitude drift
    stays visible) and says how to pin. event_loop_steady_state is
    warn-only even on a matching fingerprint: the reschedule-chain
    microbench is the noisiest metric. --warn-only downgrades every
    rate failure regardless.

--update rewrites (or adds) this machine's fingerprint entry in the
baseline from the current run after the checks pass (used when
intentionally re-pinning after a perf-affecting PR).
"""

import argparse
import json
import os
import platform
import sys

# Benchmarks whose measurement windows must not allocate, ever.
ZERO_ALLOC = (
    "event_loop_batch",
    "event_loop_steady_state",
    "event_loop_run_until",
    "gc_heavy_steady_state",
)

# Rate regressions on these names only warn (noisy measurements).
WARN_ONLY_RATES = ("event_loop_steady_state",)


def fingerprint():
    """Hardware fingerprint: cpu model + logical core count.

    SPK_PERF_FINGERPRINT overrides the detected value. Use it on
    virtualized hosts: hypervisors often report a generic model
    string (e.g. 'Intel(R) Xeon(R) Processor @ 2.10GHz'), under
    which two different physical machines would collide and gate
    each other's wall-clock rates.
    """
    override = os.environ.get("SPK_PERF_FINGERPRINT")
    if override:
        return override
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if not model:
        model = platform.processor() or platform.machine() or "unknown"
    return f"{model} x{os.cpu_count()}"


def by_name(benchmarks):
    return {b["name"]: b for b in benchmarks}


def load_current(path):
    with open(path) as f:
        return by_name(json.load(f)["benchmarks"])


def load_baseline(path, fp):
    """Return (benchmarks-by-name, matched: bool, ref_name, blob).

    When no entry matches this machine's fingerprint, fall back to an
    arbitrary (alphabetically first) pinned entry so rate drift still
    produces warn-level signal — cross-hardware numbers are wrong in
    absolute terms but a 10x regression is visible on any machine.
    """
    with open(path) as f:
        blob = json.load(f)
    entry = blob["fingerprints"].get(fp)
    if entry is not None:
        return by_name(entry["benchmarks"]), True, fp, blob
    for name in sorted(blob["fingerprints"]):
        entry = blob["fingerprints"][name]
        return by_name(entry["benchmarks"]), False, name, blob
    return {}, False, None, blob


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional rate drop (default 0.10)")
    ap.add_argument("--warn-only", action="store_true",
                    help="downgrade all rate regressions to warnings")
    ap.add_argument("--update", metavar="PATH",
                    help="re-pin this machine's fingerprint entry")
    args = ap.parse_args()

    fp = fingerprint()
    current = load_current(args.current)
    baseline, matched, ref_name, blob = load_baseline(args.baseline, fp)
    failures = []

    # A provisional entry was synthesized (e.g. derated numbers for a
    # CI runner class nobody has measured yet): its rates gate real
    # runs, so make sure nobody mistakes them for measurements.
    note = blob["fingerprints"][ref_name].get("note") if ref_name else None
    if note:
        banner = "!" * 66
        print(banner)
        print(f"!!  PROVISIONAL BASELINE '{ref_name}'")
        print(f"!!  {note}")
        print("!!  re-pin with --update on the target machine to "
              "clear this note")
        print(banner)

    reported_missing = set()
    for name in ZERO_ALLOC:
        bench = current.get(name)
        if bench is None:
            failures.append(f"{name}: missing from current run")
            reported_missing.add(name)
        elif bench["allocs"] != 0:
            failures.append(
                f"{name}: {bench['allocs']} allocations in the "
                "measurement window (must be 0)")

    rates_enforced = matched and not args.warn_only
    if not baseline:
        print("note  baseline has no pinned entries; rate checks "
              "skipped (pin one with --update)")
    elif not rates_enforced:
        reason = ("--warn-only" if args.warn_only else
                  f"comparing against '{ref_name}' numbers, but this "
                  f"machine is '{fp}' (pin it with --update to "
                  "enforce)")
        print(f"note  rate regressions only warn: {reason}")

    for name, base in sorted(baseline.items()):
        bench = current.get(name)
        if bench is None:
            if name not in reported_missing:
                failures.append(f"{name}: missing from current run")
            continue
        # Allocation ratchet: machine-independent, always enforced.
        base_allocs = base.get("allocs")
        if base_allocs is not None and bench["allocs"] > base_allocs:
            failures.append(
                f"{name}: {bench['allocs']} allocations vs pinned "
                f"{base_allocs} (ratchet; allocation counts are "
                "machine-independent -- re-pin with --update only if "
                "the increase is intentional)")
        if base["rate"] <= 0:
            continue
        ratio = bench["rate"] / base["rate"]
        line = (f"{name}: {bench['rate']:.3g} vs baseline "
                f"{base['rate']:.3g} {bench['unit']} "
                f"({100 * (ratio - 1):+.1f}%)")
        if ratio < 1.0 - args.tolerance:
            if not rates_enforced or name in WARN_ONLY_RATES:
                print(f"WARN  {line}")
            else:
                failures.append(line + " regression beyond "
                                f"{100 * args.tolerance:.0f}%")
        else:
            print(f"ok    {line}")

    for msg in failures:
        print(f"FAIL  {msg}")
    if failures:
        return 1

    if args.update:
        with open(args.current) as f:
            run = json.load(f)
        blob["fingerprints"][fp] = {"benchmarks": run["benchmarks"]}
        with open(args.update, "w") as f:
            json.dump(blob, f, indent=2)
            f.write("\n")
        print(f"baseline updated for '{fp}': {args.update}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
