#!/usr/bin/env python3
"""Steadiness procedure for the end-to-end benchmark.

Runs independent sets of benchmark runs of the same code, each run
lasting BENCHMARK.json's run_seconds with its own seed (set s, run i:
seed 1 + 1000 s + i), and prints for every end-to-end metric of every workload
each set's median and quartiles. It flags a metric whose spread (the
distance between the quartiles, as a share of the median) exceeds its
bound in BENCHMARK.json, and a metric whose later set's median is worse
than the first set's by more than its bound. setup_s is exempt from the
spread rule, as in the acceptance procedure.

Run it from the repository root:

    python3 e2ebench/steady.py                      # 2 sets x 10 runs, every workload
    python3 e2ebench/steady.py --sets 1 --runs 5 --workloads sfs

It exits non-zero when a run fails, reports a failed op or an output
check failure, or a metric is flagged. Raw results
go to .bench_build/e2ebench/steady-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


# Set s, run i uses seed SEED0 + SET_STRIDE * s + i, so the sets share no seed.
SEED0 = 1
SET_STRIDE = 1000


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
        raise SystemExit(f"run failed: {workload} seed {seed} exit {p.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.stderr.write("\n".join(l for l in lines if "FAILED" in l or "last error" in l) + "\n")
    return res, wall


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="", help="comma-separated; default every workload")
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=2)
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w for w in a.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    raw = {}  # raw[set][workload] = list of result lines
    for s in range(a.sets):
        raw[s] = {}
        for w in workloads:
            raw[s][w] = []
            for i in range(a.runs):
                seed = SEED0 + SET_STRIDE * s + i
                res, wall = run_once(cmd, w, seed, seconds)
                raw[s][w].append(res)
                print(f"set {s} {w} seed {seed}: {wall:.1f}s attempted={res['attempted']} failed={res['failed']}",
                      file=sys.stderr, flush=True)

    flagged = 0
    for s in raw:
        for w in workloads:
            for i, r in enumerate(raw[s][w]):
                if not r["correct"] or r["failed"]:
                    print(f"set {s} {w} run {i}: correct={r['correct']} failed={r['failed']} of {r['attempted']}")
                    flagged += 1
    for w in workloads:
        print(f"\n== {w} ({a.runs} runs per set, {seconds}s each)")
        print(f"{'metric':<24} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  flags")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for s in range(a.sets):
                vals = [r["metrics"][name]["value"] for r in raw[s][w]]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                flags, hard = [], False
                if name != "setup_s" and spread > bound:
                    flags.append("SPREAD>BOUND")
                    hard = True
                elif name != "setup_s" and spread > bound / 3:
                    flags.append("spread>bound/3")
                if first:
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    if worse > bound:
                        flags.append(f"DRIFT {100 * worse:+.1f}%")
                        hard = True
                if first is None:
                    first = med
                flagged += hard
                print(f"{name:<24} {s:>3} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.3f} {bound:>6.2f}  {' '.join(flags)}")

    out = os.path.join(".bench_build", "e2ebench")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as f:
        json.dump({"seconds": seconds, "runs": a.runs, "results": raw}, f)
    print(f"\nraw results: {path}; flagged: {flagged}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
