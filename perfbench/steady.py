#!/usr/bin/env python3
"""Steadiness mode: run every workload repeatedly and report the spread.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --runs 10 [--workloads serve,exhaustive] [--seed0 1]

Run i uses seed seed0+i and walks the workloads forward on even runs and
backward on odd ones, so no workload always runs first. For each
end-to-end metric the script prints the median and quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, and
flags every metric, setup_s included, whose spread exceeds its bound in
BENCHMARK.json; the exit code is 1 if any does or any run failed. The
per-run results are saved to .bench_build/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    runs = []
    failed = False
    for i in range(args.runs):
        seed = args.seed0 + i
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                sys.stderr.write(res.stdout + res.stderr)
                print("run %d %s seed %d: FAILED (exit %d)" % (i, w, seed, res.returncode))
                failed = True
                continue
            out = json.loads(lines[-1])
            runs.append({"run": i, "workload": w, "seed": seed, "result": out})
            for m in bounds:
                values[w][m].append(out["metrics"][m]["value"])
            print("run %d %-12s seed %-4d %s" % (i, w, seed, " ".join(
                "%s=%.4g" % (m, out["metrics"][m]["value"]) for m in bounds)), flush=True)

    print()
    print("%-12s %-16s %12s %12s %12s %8s %6s" % ("workload", "metric", "q1", "median", "q3", "spread", "bound"))
    for w in workloads:
        for m, bound in bounds.items():
            xs = values[w][m]
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bound:
                flag = "EXCEEDS BOUND"
                failed = True
            elif spread > bound / 3:
                flag = "above bound/3"
            print("%-12s %-16s %12.5g %12.5g %12.5g %8.4f %6.2f %s" % (w, m, q1, med, q3, spread, bound, flag))
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "steady.json"), "w") as f:
        json.dump(runs, f, indent=1)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
