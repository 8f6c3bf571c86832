#!/usr/bin/env python3
"""End-to-end benchmark of the NoCAlert campaign engine and service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (the simulator library, the nocalert_serve daemon and the
harness) into .bench_build/perfbench; later calls rebuild nothing.
The harness does the work and the checks and writes raw timings, work
counts and spans; this script turns them into metrics. The last line
of stdout is one JSON object: correct, attempted, failed and metrics
(the end-to-end metrics untraced, the per-layer metrics traced).
README.md next to this file describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_ROOT = ".bench_run"
DEADLINE_S = 170.0

# Host seconds one repetition takes on the 4-core reference host (see
# README.md). --seconds buys round(seconds / cost) repetitions of a
# fixed amount of work, so the work never depends on measured time.
REP_COST_S = {"paper_warm": 8.0, "recovery_permanent": 7.0,
              "serve_sequential": 7.0}
TRACE_REPS = 2        # replica passes per batch traced run
TAIL_BEYOND = 10      # samples beyond the reported tail percentile


def workload_args(workload, seed, tiny):
    """Harness mode and flags for a workload: its fixed configuration
    plus the seeds derived from --seed. Every spec keeps the campaign's
    default site-sample seed, so each workload sweeps the paper
    campaign's stratified site sample and --seed varies the traffic
    (and the sampler) under it. tiny shrinks it for the self-test."""
    seed = seed % (1 << 31)
    flags = {"traffic-seed": seed}
    if workload == "paper_warm":
        mode = "batch"
        flags.update({"mesh": 8, "rate": 0.04, "warmup": 2000,
                      "kind": "transient", "recovery": 0, "sites": 24,
                      "jobs": 2})
    elif workload == "recovery_permanent":
        mode = "batch"
        flags.update({"mesh": 8, "rate": 0.04, "warmup": 2000,
                      "kind": "permanent", "recovery": 1, "sites": 24,
                      "jobs": 1})
    else:
        mode = "serve"
        flags.update({"mesh": 4, "rate": 0.05, "warmup": 200,
                      "kind": "transient", "sites": 16, "max-runs": 16,
                      "sampler-seed": seed, "hits": 200})
    if tiny:
        flags.update({"mesh": 4, "warmup": 200, "sites": 4})
        if mode == "serve":
            flags.update({"max-runs": 4, "hits": 3})
    args = [mode]
    for key, value in flags.items():
        args += ["--" + key, str(value)]
    return args


def build():
    """Configure once, then build; False when the sources are missing
    or do not compile."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("perfbench: the repository sources are not here",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            return False
    return True


def run_harness(workload, seed, seconds, trace, tiny=False, doctor=None):
    """Run the harness for one invocation; returns its raw document."""
    # Relative to the checkout root (the harness and the daemon inherit
    # the working directory), so the daemon's Unix socket path stays
    # short however deep the checkout lies.
    run_dir = os.path.join(RUN_ROOT,
                           "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    raw_path = os.path.join(run_dir, "raw.json")
    reps = max(2, round(seconds / REP_COST_S[workload]))
    args = workload_args(workload, seed, tiny)
    cmd = [os.path.join(BUILD_DIR, "perfbench_harness")] + args + [
        "--out", raw_path, "--dir", run_dir,
        "--reps", str(TRACE_REPS if trace else reps),
        "--trace", "1" if trace else "0"]
    if args[0] == "serve":
        cmd += ["--daemon", os.path.join(BUILD_DIR, "nocalert_serve")]
    if doctor:
        cmd += ["--doctor", doctor]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=DEADLINE_S)
        if proc.returncode != 0:
            return None
        with open(raw_path) as f:
            return json.load(f)
    except (subprocess.TimeoutExpired, OSError, ValueError):
        return None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest order statistic with TAIL_BEYOND samples beyond it
    (the maximum when there are too few samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1]
    return ordered[len(ordered) - 1 - TAIL_BEYOND]


class Report:
    """Metrics plus the checks that feed attempted/failed."""

    def __init__(self, raw):
        tally = raw["tally"]
        self.attempted = tally["attempted"]
        self.failed = tally["failed"]
        self.failures = list(tally["failures"])
        self.metrics = {}

    def put(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def expect_repeats(self, label, rows):
        """Every repetition's work counts must equal the first's."""
        if not rows:
            return
        print("work %s: %s" % (label, json.dumps(rows[0], sort_keys=True)))
        for i, row in enumerate(rows[1:], 1):
            if row != rows[0]:
                self.failed += 1
                self.failures.append("%s of repetition %d differ from the "
                                     "first: %s" % (label, i, json.dumps(row)))
        if len(rows) > 1 and all(r == rows[0] for r in rows):
            print("work %s: repeats exactly across %d repetitions"
                  % (label, len(rows)))


def end_to_end(raw, workload):
    """The untraced metrics."""
    report = Report(raw)
    reps = raw["reps"]
    if workload == "serve_sequential":
        executed = [(r.get("counts") or {}).get("runs_executed", 0)
                    for r in reps]
        report.put("runs_per_s", median(
            [n / sum(r["cold_s"]) for n, r in zip(executed, reps)
             if r["cold_s"]]), "runs/s")
        report.put("setup_s", median(
            [r["setup_s"] for r in reps] + raw["setup_only_s"]), "s")
        report.put("submit_to_artifact_s",
                   median([s for r in reps for s in r["cold_s"]]), "s")
        report.put("peak_rss_mb", median([r["peak_rss_mib"] for r in reps]),
                   "MiB")
        hits = [s * 1e3 for r in reps for s in r["hit_s"]]
        print("cache hits: %d round trips, p50 %.3f ms, p95 %.3f ms"
              % (len(hits), median(hits), percentile(hits, 95)))
    else:
        report.put("runs_per_s", median(
            [r["runs"] / r["run_phase_s"] for r in reps]), "runs/s")
        report.put("setup_s", median([r["setup_s"] for r in reps]), "s")
        report.put("submit_to_artifact_s",
                   median([r["submit_to_artifact_s"] for r in reps]), "s")
        report.put("peak_rss_mb", raw["peak_rss_mib"], "MiB")
    report.expect_repeats("counts", [r.get("counts") for r in reps])
    return report


def percentile(values, pct):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(pct / 100.0 * len(ordered)))
    return ordered[index]


RUN_TIMES = [  # per-run span times, ms: (metric, span, "dur" or "self")
    ("noc.copy_ms", "noc.copy", "dur"),
    ("noc.observe_self_ms", "noc.observe", "self"),
    ("noc.drain_ms", "noc.drain", "self"),
    ("noc.epoch_tail_ms", "noc.epoch_tail", "self"),
    ("fault.collect_ms", "fault.collect", "dur"),
    ("fault.compare_ms", "fault.compare", "dur"),
]
CALLBACK_TIMES = [  # per-run timed callbacks into a layer, ms
    ("core.checker_ms", "checker"),
    ("forever.observer_ms", "forever"),
    ("recovery.orchestrator_ms", "orchestrator"),
]
RUN_COUNTS = [  # per-run replica counters: (metric, counter, unit)
    ("noc.sim_cycles", "sim_cycles", "cycles"),
    ("noc.router_evals", "router_evals", "count"),
    ("noc.ni_evals", "ni_evals", "count"),
    ("core.branchy_calls", "branchy_calls", "count"),
    ("core.packed_calls", "packed_calls", "count"),
    ("forever.calls", "forever_calls", "count"),
    ("recovery.actions", "recovery_actions", "count"),
    ("recovery.retransmits", "retransmits", "count"),
    ("recovery.purged_flits", "purged_flits", "count"),
    ("fault.golden_flits", "golden_flits", "count"),
]
SETUP_SPANS = [("fault.setup_warmup_ms", "fault.setup_warmup"),
               ("fault.setup_golden_ms", "fault.setup_golden"),
               ("fault.site_plan_ms", "fault.site_plan")]


def per_layer(raw, workload):
    """The traced metrics: spans and counters of the replica, plus the
    exec, serialize and serve numbers measured around it. A layer that
    is not on the workload's path reports 0.

    Each replayed record gives one sample per metric: the median over
    its replica passes for a time, the first pass for a count (the
    counts must repeat exactly, which is checked). Times exclude the
    harness's own cost per timed callback, measured on an empty one."""
    report = Report(raw)
    trace = raw.get("trace")
    if not trace:
        report.failed += 1
        report.failures.append("the traced run produced no trace")
        trace = {"replay": {"runs": [], "spans": [], "rep_counts": [],
                            "traced_s": 0.0, "untraced_s": 0.0,
                            "runs_replayed": 0, "timer_inside_ns": 0.0,
                            "timer_outside_ns": 0.0},
                 "artifacts": [], "worker_utilization": 0.0}
    replay = trace["replay"]
    inside_ns = replay["timer_inside_ns"]
    outside_ns = replay["timer_outside_ns"]

    per_run = {}
    setup = {}
    for name, start, end, _parent, run_id, child, calls in replay["spans"]:
        if run_id >= 0:
            per_run.setdefault(run_id, {})[name] = (
                (end - start) * 1e-6,
                (end - start - child - calls * outside_ns) * 1e-6)
        else:
            setup.setdefault(name, []).append((end - start) * 1e-6)
    by_record = {}
    for row in replay["runs"]:
        by_record.setdefault((row["artifact"], row["record"]), []).append(row)
    records = [passes for _key, passes in sorted(by_record.items())]

    def per_record_time(value):
        return [median([value(row) for row in passes]) for passes in records]

    for metric, span, kind in RUN_TIMES:
        index = 0 if kind == "dur" else 1
        values = per_record_time(
            lambda row: per_run[row["run_id"]].get(span, (0.0, 0.0))[index])
        report.put(metric + ".p50", median(values), "ms")
        report.put(metric + ".tail", tail(values), "ms")
    for metric, key in CALLBACK_TIMES:
        values = per_record_time(
            lambda row: (row[key + "_ns"] - row[key + "_calls"] * inside_ns)
            * 1e-6)
        report.put(metric + ".p50", median(values), "ms")
        report.put(metric + ".tail", tail(values), "ms")
    first_pass = [passes[0] for passes in records]
    for metric, key, unit in RUN_COUNTS:
        values = [row[key] for row in first_pass]
        report.put(metric + ".p50", median(values), unit)
        report.put(metric + ".tail", tail(values), unit)
    evals = sum(r["router_evals"] for r in first_pass)
    branchy = sum(r["branchy_calls"] for r in first_pass)
    report.put("noc.fast_path_share", 1.0 - branchy / evals if evals else 0.0,
               "ratio")
    for metric, span in SETUP_SPANS:
        report.put(metric, median(setup.get(span, [])), "ms")
    artifacts = trace["artifacts"]
    report.put("fault.serialize_ms",
               median([a["serialize_s"] * 1e3 for a in artifacts]), "ms")
    report.put("fault.artifact_kb",
               median([a["artifact_kib"] for a in artifacts]), "KiB")
    report.put("exec.worker_utilization", trace["worker_utilization"],
               "ratio")

    quanta = [q * 1e3 for q in trace.get("quantum_s", [])]
    life = raw["reps"][0] if raw["reps"] else {}
    counts = life.get("counts") or {}
    hits = [s * 1e3 for s in life.get("hit_s", [])]
    report.put("serve.quanta", len(quanta), "count")
    report.put("serve.quantum_ms.p50", median(quanta), "ms")
    report.put("serve.quantum_ms.tail", tail(quanta), "ms")
    for name in ("runs_executed", "cache_hits", "journal_appends"):
        report.put("serve." + name, counts.get(name, 0), "count")
    report.put("serve.hit_roundtrip_ms_p50", median(hits), "ms")
    report.put("serve.hit_roundtrip_ms_p95", percentile(hits, 95), "ms")

    print("work: %s" % json.dumps(counts, sort_keys=True))
    passes = {}
    for row in replay["rep_counts"]:
        passes.setdefault(row["artifact"], []).append(row)
    for index, rows in sorted(passes.items()):
        report.expect_repeats("replica artifact %d" % index, rows)

    n = len(records)
    traced = replay["runs_replayed"] / replay["traced_s"] \
        if replay["traced_s"] else 0.0
    untraced = replay["runs_replayed"] / replay["untraced_s"] \
        if replay["untraced_s"] else 0.0
    report.put("trace.samples", n, "count")
    report.put("trace.tail_pct",
               100.0 * (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 100.0,
               "%")
    report.put("trace.runs_per_s_traced", traced, "runs/s")
    report.put("trace.runs_per_s_untraced", untraced, "runs/s")
    report.put("trace.overhead", untraced / traced - 1.0 if traced else 0.0,
               "ratio")
    report.put("trace.timer_inside_ns", inside_ns, "ns")
    report.put("trace.timer_outside_ns", outside_ns, "ns")
    print("trace: replica of %s, %d runs, traced %.3f vs untraced %.3f "
          "runs/s" % (replay.get("replica_of", "?"), n, traced, untraced))
    return report


def measure(workload, seed, seconds, trace, tiny=False, doctor=None):
    """One invocation: the Report, or None when the harness failed."""
    raw = run_harness(workload, seed, seconds, trace, tiny, doctor)
    if raw is None:
        return None
    return per_layer(raw, workload) if trace else end_to_end(raw, workload)


def result_line(report):
    for why in report.failures:
        print("FAILED: %s" % why)
    share = report.failed / report.attempted if report.attempted else 1.0
    print("failed_share %.6f ratio (%d of %d operations)"
          % (share, report.failed, report.attempted))
    for name, m in report.metrics.items():
        print("%-32s %14.6f %s" % (name, m["value"], m["unit"]))
    return json.dumps({"correct": report.failed == 0,
                       "attempted": report.attempted,
                       "failed": report.failed,
                       "metrics": report.metrics})


def expected_metrics(trace):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def self_test():
    """A tiny pass over every workload: every named metric is printed
    with its unit, and a doctored artifact or work count fails."""
    ok = True
    for workload in REP_COST_S:
        for trace in (False, True):
            report = measure(workload, 1, 1, trace, tiny=True)
            want = expected_metrics(trace)
            got = {k: v["unit"] for k, v in (report.metrics if report
                                             else {}).items()}
            good = report is not None and report.failed == 0 and got == want
            print("self-test %s trace=%d: %s" % (workload, trace,
                                                 "ok" if good else "FAILED"))
            if report is not None and got != want:
                print("  metric/unit mismatch: %s"
                      % sorted(set(got.items()) ^ set(want.items())))
            ok &= good
        for doctor in ("artifact", "count"):
            report = measure(workload, 1, 1, False, tiny=True, doctor=doctor)
            caught = report is not None and report.failed > 0
            print("self-test %s doctored %s: %s" % (
                workload, doctor, "caught" if caught else "MISSED"))
            ok &= caught
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(REP_COST_S))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    started = time.monotonic()
    if not build():
        return 1
    if args.self_test:
        return 0 if self_test() else 1
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if report is None:
        print("perfbench: the harness failed", file=sys.stderr)
        return 1
    print("elapsed %.1f s" % (time.monotonic() - started))
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
