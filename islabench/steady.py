#!/usr/bin/env python3
"""Steadiness and parent/change comparison for islabench.

Runs each workload N times (seeds S, S+1, ...) through run.py and prints,
per end-to-end metric, the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median against the metric's bound from
BENCHMARK.json:

    python3 islabench/steady.py --runs 10
    python3 islabench/steady.py --runs 5 --workloads dashboard --seed 100

With --against DIR (another checkout, e.g. the parent commit), every seed
runs on both trees in alternating order, and each metric gets both sides'
medians and quartiles, the share of pairs the change won, and a verdict:
"gain" when it won at least 9 pairs in 10 and the medians differ by more
than the parent's own spread, "worse" when its median is worse by more than
the bound, "unresolved" when the parent's spread exceeds the bound, else
"same".

Exits non-zero when a run fails or reports correct=false.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, str(Path(root) / "islabench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed} failed in {root}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(out.stdout)
        raise SystemExit(f"{workload} seed {seed}: correct=false in {root}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"  {workload} seed {seed} ({root}): " +
          " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    return values


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--against", default="",
                    help="another checkout to compare with (the parent)")
    args = ap.parse_args()

    root = HERE.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    worst = 0.0
    for w in workloads:
        mine, theirs = [], []
        for i in range(args.runs):
            seed = args.seed + i
            if args.against and i % 2 == 1:
                theirs.append(run_once(args.against, w, seed, spec["run_seconds"]))
            mine.append(run_once(root, w, seed, spec["run_seconds"]))
            if args.against and i % 2 == 0:
                theirs.append(run_once(args.against, w, seed, spec["run_seconds"]))
        print(f"== {w} ({args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1})")
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            med, q1, q3, spread = summary([r[name] for r in mine])
            line = (f"  {name:15s} median {med:12.6g}  q1 {q1:12.6g}  "
                    f"q3 {q3:12.6g}  spread {spread:7.4f}  bound {bound:5.3f}")
            if name != "setup_s":
                worst = max(worst, spread / bound)
                line += "  ok" if spread < bound / 3 else (
                    "  WIDE" if spread < bound else "  OVER")
            if args.against:
                pmed, pq1, pq3, pspread = summary([r[name] for r in theirs])
                wins = sum((a < b) if lower else (a > b)
                           for a, b in zip((r[name] for r in mine),
                                           (r[name] for r in theirs)))
                worse = (med - pmed) / pmed if lower else (pmed - med) / pmed
                if pspread > bound:
                    verdict = "unresolved"
                elif wins >= 0.9 * args.runs and abs(med - pmed) > pq3 - pq1:
                    verdict = "gain"
                elif worse > bound:
                    verdict = "worse"
                else:
                    verdict = "same"
                line += (f"\n  {'':15s} parent {pmed:12.6g}  q1 {pq1:12.6g}  "
                         f"q3 {pq3:12.6g}  wins {wins}/{args.runs}  {verdict}")
            print(line, flush=True)
    print(f"widest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
