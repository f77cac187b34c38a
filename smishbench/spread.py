#!/usr/bin/env python3
"""Checks that the benchmark is steady across seeds.

Runs one workload once per seed and prints each run's metrics and the
host's CPU steal during it, then, for every end-to-end metric, the median
and the spread: the distance between the first and third
quartiles as a share of the median, against the metric's bound from
BENCHMARK.json. Run from the repository root:

    python3 smishbench/spread.py --workload study_batch --seeds 101-110

It exits non-zero when a run fails or a spread exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def cpu_ticks():
    """The host's cumulative CPU ticks per state, from /proc/stat."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_pct(before, after):
    """The share of CPU time the hypervisor gave to other guests between
    two readings: runs that saw more of it read slower on every metric."""
    d = [b - a for a, b in zip(before, after)]
    return 100 * d[7] / sum(d) if sum(d) else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    first, last = (int(x) for x in args.seeds.split("-"))

    values = {}
    for seed in range(first, last + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        before = cpu_ticks()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        steal = steal_pct(before, cpu_ticks())
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} steal={steal:.1f}% " +
              " ".join(f"{m['name']}={values[m['name']][-1]:.4g}" for m in bench["end_to_end"]),
              flush=True)

    ok = True
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "ok" if spread < m["bound"] / 3 else ("WIDE" if spread > m["bound"] else "over a third")
        if spread > m["bound"]:
            ok = False
        print(f"{m['name']:32s} median {med:12.4f} {m['unit']:10s} spread {spread:6.3f} "
              f"bound {m['bound']:.2f} {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
