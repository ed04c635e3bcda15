#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs two (or more) sets of benchmark runs of the same code, each run with
its own seed, and prints for every end-to-end metric of every workload each
set's median, first and third quartile and relative IQR ((q3 - q1) / median,
quartiles as statistics.quantiles(values, n=4) gives them), then how far the
second set's median moved from the first in the metric's worse direction.
Both are compared with the bounds in BENCHMARK.json: every metric's spread,
setup_s's too, must stay within its bound and should stay below a third of
it, and the median may not move by more than the bound in either direction.

Run from the repository root:

    python3 perfbench/steadiness.py                 # every workload, 2 x 10 runs
    python3 perfbench/steadiness.py --workloads health-nogain --runs 5 --sets 1

Run i of set k uses seed 1 + i + k*runs, so set 0 runs seeds 1-10 and set 1
seeds 11-20 by default. Exits 1 if a run fails or a bound is exceeded.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace, logs):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if logs:
        os.makedirs(logs, exist_ok=True)
        with open(os.path.join(logs, f"{workload}-seed{seed}.log"), "w") as f:
            f.write(proc.stdout + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    host = re.search(r"^host factor ([0-9.]+)", proc.stdout, re.M)
    return result["metrics"], float(host.group(1)) if host else float("nan")


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="also write every run's metrics to this JSON file")
    ap.add_argument("--logs", help="also keep every run's full output in this directory")
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    ok = True
    record = {}
    for w in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1 + i + k * args.runs
                figures, host = run_once(w, seed, args.seconds, 0, args.logs)
                runs.append(figures)
                print(f"  {w} set {k} seed {seed}: host factor {host:.3f}, " + ", ".join(
                    f"{m['name']}={figures[m['name']]['value']:.6g}" for m in metrics), flush=True)
            sets.append(runs)
        record[w] = sets
        print(f"\n{w}: {args.sets} sets x {args.runs} runs, {args.seconds}s each")
        print(f"  {'metric':<20} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'relIQR':>8} {'bound':>6} {'verdict'}")
        for m in metrics:
            name, bound, better = m["name"], m["bound"], m["better"]
            meds = []
            for k, runs in enumerate(sets):
                values = [r[name]["value"] for r in runs]
                med, q1, q3, spread = summarize(values)
                meds.append(med)
                if spread > bound:
                    verdict = "OVER BOUND"
                    ok = False
                elif spread >= bound / 3:
                    verdict = "above bound/3"
                else:
                    verdict = "ok"
                print(f"  {name:<20} {k:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bound:>6} {verdict}")
            for k in range(1, len(meds)):
                # Judged both ways: which set runs first is an accident of
                # the schedule, so a move in the better direction counts too.
                worse = (meds[k] - meds[0]) / meds[0]
                if better == "higher":
                    worse = -worse
                verdict = "ok" if abs(worse) <= bound else "MOVED BEYOND BOUND"
                ok = ok and abs(worse) <= bound
                print(f"  {name:<20} set {k} median vs set 0: {100 * worse:+.2f}% worse (bound {100 * bound:.0f}%) {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
