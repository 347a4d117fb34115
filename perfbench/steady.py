#!/usr/bin/env python3
"""Run a workload N times with consecutive seeds and print each metric's
median and quartiles.

    python3 perfbench/steady.py --workload rocksdb-sweep --runs 10 --first-seed 1 --seconds 20

Run it from the root of the repository. For every metric it prints the
median, the first and third quartiles (statistics.quantiles, n=4), and the
spread: (q3 - q1) / median. End-to-end metrics are compared with a third
of their bound in BENCHMARK.json, the margin the benchmark is tuned to;
setup_s is exempt, since only its median is compared between two sets of
runs. --json writes every run's result to a file for later comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"steady.py: {workload} seed {seed} exited {out.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="write every run's result to this file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        res = run_once(args.workload, seed, seconds, args.trace)
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"{args.workload}: {len(results)} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
          f"all correct: {all(r['correct'] for r in results)}, failed shares: {shares}")
    print(f"{'metric':32} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  limit")
    for name in sorted(results[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        limit = ""
        if name in bounds and name != "setup_s":
            ok = spread < bounds[name] / 3
            limit = f"{bounds[name] / 3:.4f} {'ok' if ok else 'OVER'}"
        print(f"{name:32} {unit:>6} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}  {limit}")


if __name__ == "__main__":
    main()
