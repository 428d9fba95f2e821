#!/usr/bin/env python3
"""Repeat the driver's steadiness check: run BENCHMARK.json's command on
every workload with several seeds and print, per end-to-end metric, the
median and the interquartile range as a share of the median, beside the
metric's bound. Run from the root of the repository:

    python3 benchmark/spread.py [--seeds 1,2,...,10] [--workloads a,b] [--trace 0|1] [--keep DIR]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ap = argparse.ArgumentParser()
ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
ap.add_argument("--workloads", default="")
ap.add_argument("--trace", default="0", choices=["0", "1"])
ap.add_argument("--keep", default="", help="directory to keep each run's full output in")
args = ap.parse_args()

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
names = [w["name"] for w in spec["workloads"]]
if args.workloads:
    names = args.workloads.split(",")
seeds = [int(s) for s in args.seeds.split(",")]

print("| workload | metric | median | IQR/median | min | max | bound |")
print("|---|---|---|---|---|---|---|")
for w in names:
    values = {}
    for seed in seeds:
        start = time.time()
        cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}")
        if args.keep:
            os.makedirs(args.keep, exist_ok=True)
            with open(os.path.join(args.keep, f"{w}-{seed}.txt"), "w") as f:
                f.write(p.stdout)
        r = json.loads(p.stdout.strip().splitlines()[-1])
        if not r["correct"] or r["failed"]:
            sys.exit(f"{w} seed {seed}: {r}")
        for k, v in r["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        print(f"{w} seed {seed}: {time.time() - start:.1f} s " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(r["metrics"].items())), file=sys.stderr)
    for k, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
        share = (q[2] - q[0]) / med if med else 0.0
        print(f"| {w} | {k} | {med:.6g} | {share:.3f} | {min(v):.6g} | {max(v):.6g} | {bounds.get(k, '')} |", flush=True)
