#!/usr/bin/env python3
"""Steadiness protocol for the benchmark: two sets of runs over the same
seeds, one workload at a time, then each end-to-end metric's median,
quartiles, spread (quartile distance over median) per set and the
set-to-set difference of the medians, as a Markdown table.

    python3 perfbench/steadiness.py --workload paper_warm --seeds 1-10 \
        [--sets 2] [--log runs.jsonl]

Run from the repository root; it calls run.py with BENCHMARK.json's
run_seconds. Each result line is appended to --log as it arrives.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--log")
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = [m["name"] for m in bench["end_to_end"]]

    sets = []
    for _ in range(args.sets):
        values = {name: [] for name in metrics}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit("seed %d failed:\n%s" % (seed, out.stderr[-2000:]))
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if args.log:
                with open(args.log, "a") as log:
                    log.write(json.dumps({"workload": args.workload,
                                          "seed": seed, "result": result})
                              + "\n")
            if not result["correct"]:
                sys.exit("seed %d: incorrect result %s" % (seed, result))
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
        sets.append(values)

    print("| metric | set | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|")
    medians = {}
    for i, values in enumerate(sets, 1):
        for name in metrics:
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            medians.setdefault(name, []).append(med)
            print("| %s | %d | %.6g | %.6g | %.6g | %.3f |"
                  % (name, i, med, q1, q3, (q3 - q1) / med))
    if len(sets) > 1:
        print()
        print("| metric | set-to-set difference of medians |")
        print("|---|---|")
        for name in metrics:
            first, last = medians[name][0], medians[name][-1]
            print("| %s | %+.3f |" % (name, (last - first) / first))


if __name__ == "__main__":
    main()
