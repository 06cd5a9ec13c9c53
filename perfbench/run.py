#!/usr/bin/env python3
"""Benchmark launcher: runs each workload in its own process and checks it.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

The launcher imports no numerical library.  It caps the BLAS threads in the
child's environment, so that pool workers x BLAS threads <= nproc, and points
the child at the package sources in src/ of this checkout.  With --trace 0 the
child prints the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Run records (and the spans of traced runs) go
to .perfbench_out/ at the root of the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lt_family", "three_condition", "cli_artifacts")
# lt_family runs its family through run_experiments with this many workers
POOL_WORKERS = 2
# a workload process that has not finished by then is killed
TIMEOUT_S = 170


def child_env() -> dict:
    blas = str(max(1, len(os.sched_getaffinity(0)) // POOL_WORKERS))
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas,
               MKL_NUM_THREADS=blas, PYTHONPATH=str(ROOT / "src"))
    return env


def run_workload(name: str, args) -> dict | None:
    """Run one workload process, relay its output, return its result object."""
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(ROOT / ".perfbench_out")]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: {name} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines:
        print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"error: {name} printed no result", file=sys.stderr)
        return None
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the self-test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "finitegap" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args)
        if result is None:
            return 1
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
