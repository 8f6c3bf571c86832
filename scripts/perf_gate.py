#!/usr/bin/env python3
"""Kernel perf-regression gate over BENCH_kernel.json artifacts.

Compares a freshly measured micro_kernel sweep against the committed
baseline sweep rate by rate. Raw wall-clock numbers are useless across
CI machines, so the gate compares *speedup ratios*, which are
dimensionless and measured within a single process on one machine:

  * "speedup" (active vs dense) isolates the active-set scheduler:
    both kernels evaluate routers on the branchy pipeline, and Active
    skips what the scheduler proves idle;
  * "bitmaskSpeedup" (bitmask vs active) isolates the packed fast
    path: Active and Bitmask share one scheduler and evaluate the
    same routers, so the ratio is per-evaluation cost alone.

The gate fails when:
  * any kernel pair ever disagreed ("identical" false anywhere), or
  * at any rate present in both sweeps, a fresh speedup falls below
    (1 - tolerance) * baseline speedup, or
  * a rate or speedup key present in the baseline is missing fresh
    (a silently dropped kernel must not pass).

--self-test proves the gate can actually fail: it doctors the
baseline into a fabricated regression (and separately into a
disagreement), runs the same gate logic, and exits non-zero unless
both doctored inputs are rejected and the undoctored input passes.

Usage:
  perf_gate.py BASELINE FRESH [--tolerance 0.30]
  perf_gate.py BASELINE --self-test [--tolerance 0.30]
"""

import argparse
import copy
import json
import sys

SPEEDUP_KEYS = ("speedup", "bitmaskSpeedup")


def load(path):
    with open(path) as f:
        return json.load(f)


def gate(baseline, fresh, tolerance):
    """Return a list of failure strings (empty = pass)."""
    failures = []
    if not fresh.get("identical", False):
        failures.append("fresh sweep: kernels disagreed on some run "
                        "('identical' is not true)")

    fresh_by_rate = {e["rate"]: e for e in fresh.get("sweep", [])}
    compared = 0
    for base_entry in baseline.get("sweep", []):
        rate = base_entry["rate"]
        fresh_entry = fresh_by_rate.get(rate)
        if fresh_entry is None:
            failures.append(f"rate {rate}: present in baseline, "
                            "missing from fresh sweep")
            continue
        if not fresh_entry.get("identical", False):
            failures.append(f"rate {rate}: kernels disagreed")
        for key in SPEEDUP_KEYS:
            if key not in base_entry:
                continue  # baseline predates this kernel
            if key not in fresh_entry:
                failures.append(f"rate {rate}: '{key}' missing from "
                                "fresh sweep")
                continue
            base_val = base_entry[key]
            fresh_val = fresh_entry[key]
            floor = base_val * (1.0 - tolerance)
            verdict = "ok" if fresh_val >= floor else "REGRESSION"
            print(f"rate {rate}: {key} fresh {fresh_val:.2f}x vs "
                  f"baseline {base_val:.2f}x (floor {floor:.2f}x) "
                  f"[{verdict}]")
            if fresh_val < floor:
                failures.append(
                    f"rate {rate}: {key} regressed to {fresh_val:.2f}x, "
                    f"below {floor:.2f}x "
                    f"(baseline {base_val:.2f}x - {tolerance:.0%})")
            compared += 1
    if compared == 0:
        failures.append("no comparable (rate, speedup) pairs between "
                        "baseline and fresh sweeps")
    return failures


def self_test(baseline, tolerance):
    """Exit 0 iff the gate passes the baseline against itself AND
    rejects two injected defects (slowdown, disagreement)."""
    clean = gate(baseline, copy.deepcopy(baseline), tolerance)
    if clean:
        print("self-test FAILED: baseline does not pass against "
              "itself:", *clean, sep="\n  ")
        return 1

    slow = copy.deepcopy(baseline)
    for entry in slow["sweep"]:
        for key in SPEEDUP_KEYS:
            if key in entry:
                entry[key] *= (1.0 - tolerance) * 0.5
    if not gate(baseline, slow, tolerance):
        print("self-test FAILED: injected slowdown was not rejected")
        return 1

    broken = copy.deepcopy(baseline)
    broken["identical"] = False
    if not gate(baseline, broken, tolerance):
        print("self-test FAILED: kernel disagreement was not rejected")
        return 1

    print("self-test passed: gate accepts the baseline and rejects "
          "injected regressions")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_kernel.json")
    parser.add_argument("fresh", nargs="?",
                        help="freshly measured BENCH_kernel.json")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional drop below the "
                             "baseline speedup (default 0.30)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate fails on an injected "
                             "regression instead of comparing")
    args = parser.parse_args()

    baseline = load(args.baseline)
    if args.self_test:
        return self_test(baseline, args.tolerance)
    if args.fresh is None:
        parser.error("FRESH is required unless --self-test")

    failures = gate(baseline, load(args.fresh), args.tolerance)
    if failures:
        print("perf gate FAILED:", *failures, sep="\n  ")
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
