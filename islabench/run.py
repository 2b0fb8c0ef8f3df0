#!/usr/bin/env python3
"""Builds and runs the islabench benchmark from a checkout of the ISLA tree.

    python3 islabench/run.py --workload adhoc_avg --seed 1 --seconds 10 --trace 0
    python3 islabench/run.py --selftest

The first call configures and builds (Release) into .bench_build/ at the
root of the checkout: the system under test (the `isla` library and
`isla_serverd`, with the tree's own CMakeLists.txt) and the load generator.
Build output goes to stderr. The load generator's stdout is passed through;
its last line is the JSON result. Data files live under .bench_work/ for the
length of a run; traced runs leave their spans under .bench_out/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "islabench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Returns True on success."""
    if not (BUILD / "CMakeCache.txt").exists():
        rc = subprocess.call(
            ["cmake", "-S", str(BENCH), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            return False
    rc = subprocess.call(["cmake", "--build", str(BUILD), "--parallel", "4"],
                         stdout=sys.stderr, stderr=sys.stderr)
    return rc == 0


def source_id():
    """The commit when the checkout is a git tree, else a digest of the
    sources the benchmark builds (checkouts without .git are common)."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()[:12]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "islabench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def check_metrics(line, trace):
    """The result names exactly the metrics BENCHMARK.json declares."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return True
    spec = json.loads(spec_path.read_text())
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(json.loads(line)["metrics"])
    if want != got:
        log(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)},"
            f" extra {sorted(got - want)}")
        return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    if not build():
        log("build failed")
        return 1
    if args.selftest:
        return subprocess.call([str(BUILD / "islabench_test")])

    cmd = [str(BUILD / "islabench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--serverd", str(BUILD / "isla" / "tools" / "isla_serverd"),
           "--workdir", str(ROOT / ".bench_work"),
           "--outdir", str(ROOT / ".bench_out"),
           "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"no result within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1] if lines and lines[-1].startswith("{")
                                   else lines) + "\n")
        log(f"islabench exited with {proc.returncode}")
        return 1
    if not check_metrics(lines[-1], args.trace):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
