"""Measure one workload in this process; started by run.py.

Phases: set-up (import in a fresh interpreter, then input generation plus
one untimed warm-up unit), then the timed phase: whole rounds in a closed loop
until `seconds` of round time have passed.  The set-up is repeated
SETUP_REPEATS times, once before the timed phase and the rest spread evenly
between its rounds (outside the round clock).

A shared host switches between a fast and a slow state (about 1.4x apart)
every few seconds.  A median of a few samples from such a mix jumps between
the two states from run to run, so the figures average over the run instead:
throughput and CPU time per unit are totals over all timed rounds, and
setup_s is the mean of the set-ups left after dropping the fastest and the
slowest.  With --trace 1 the timed phase is split: an untraced half gives the
baseline for trace_overhead_frac and a traced half gives the per-layer
metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import finitegap

from spans import PER_LAYER, Tracer, per_layer_metrics
from workloads import WORKLOADS, Outcome
import provenance

ROOT = Path(__file__).resolve().parent.parent
if not Path(finitegap.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"finitegap was imported from {finitegap.__file__}, not {ROOT / 'src'}")

SETUP_REPEATS = 7
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, finitegap; "
                "print(time.perf_counter() - t)")
# a tail percentile needs ten units beyond it
TAIL_BEYOND = 10

END_TO_END = {"setup_s": "s", "units_per_s": "1/s", "unit_p50_s": "s",
              "unit_tail_s": "s", "cpu_s_per_unit": "s", "peak_rss_mb": "MB"}


class Runner:
    """Runs rounds, times units, checks them and keeps the tallies."""

    def __init__(self, workload, tracer=None, corrupt=None):
        self.workload = workload
        self.tracer = tracer
        self.corrupt = corrupt
        self.attempted = 0
        self.errors = []
        self.log = []  # (unit key, seconds) of every timed unit
        self._uid = 0

    def call(self, unit) -> Outcome:
        if self.tracer is not None:
            self._uid += 1
            self.tracer.set_unit(self._uid)
        t0 = time.perf_counter()
        try:
            out = Outcome(0.0, unit.fn())
        except Exception as exc:  # a unit that raises is a failed unit
            out = Outcome(0.0, error=exc)
        out.elapsed = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.set_unit(None)
        return out

    def round(self, units):
        """(wall, cpu, outcomes) of one round; checks run after the clock stops."""
        c0, w0 = time.process_time(), time.perf_counter()
        if self.tracer is not None:
            self.tracer.armed = True
        try:
            outcomes = self.workload.run_round(units, self.call)
        finally:
            if self.tracer is not None:
                self.tracer.armed = False
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if self.corrupt is not None:
            self.corrupt(units, outcomes)
        errors = self.workload.check_round(units, outcomes)
        self.attempted += len(units)
        self.errors += [e for e in errors if e is not None]
        return wall, cpu, outcomes

    def phase(self, seconds: float, min_units: int = TAIL_BEYOND + 1,
              between=None, n_between: int = 0) -> dict:
        """Whole rounds until `seconds` of round time and at least min_units
        units (by default enough for a tail percentile).  `between()` is
        called n_between times between rounds, at evenly spaced round time."""
        times, wall, cpu, r = [], 0.0, 0.0, 0
        marks = [seconds * (k + 1) / (n_between + 1) for k in range(n_between)]
        while wall < seconds or len(times) < min_units:
            units = self.workload.make_round(r)
            w, c, outcomes = self.round(units)
            wall, cpu, r = wall + w, cpu + c, r + 1
            times += [o.elapsed for o in outcomes]
            self.log += [(u.key, o.elapsed) for u, o in zip(units, outcomes)]
            while marks and wall >= marks[0]:
                marks.pop(0)
                between()
        for _ in marks:  # rounds longer than the spacing leave some over
            between()
        return {"times": times, "wall": wall, "cpu": cpu}


def import_seconds() -> float:
    """Time to import numpy and finitegap in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                         capture_output=True, text=True, timeout=60, env=env)
    return float(out.stdout)


def set_up(runner, name, seed, reference, tiny, scratch) -> float:
    """Seconds of one set-up: an import in a fresh interpreter, then input
    generation and one warm-up unit in this process, which become the
    runner's workload."""
    t_import = import_seconds()
    t0 = time.perf_counter()
    runner.workload = WORKLOADS[name](seed, reference, tiny, scratch)
    runner.round(runner.workload.warmup())
    return t_import + time.perf_counter() - t0


def trimmed_mean(xs: list) -> float:
    """Mean without the lowest and the highest value."""
    return statistics.fmean(sorted(xs)[1:-1])


def end_to_end(ph: dict, setup_s: float) -> dict:
    times = sorted(ph["times"])
    n = len(times)
    return {"setup_s": setup_s,
            "units_per_s": n / ph["wall"],
            "unit_p50_s": statistics.median(times),
            "unit_tail_s": times[n - TAIL_BEYOND - 1],
            "cpu_s_per_unit": ph["cpu"] / n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def measure(name, seed, seconds, trace, tiny=False, scratch=None, corrupt=None):
    """Run one workload; returns the result record (metrics plus details)."""
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    runner = Runner(None, corrupt=corrupt)
    setups = [set_up(runner, name, seed, reference, tiny, scratch)]
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "tiny": tiny}
    if not trace:
        ph = runner.phase(seconds, between=lambda: setups.append(
            set_up(runner, name, seed, reference, tiny, scratch)),
            n_between=SETUP_REPEATS - 1)
        record["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in
                             end_to_end(ph, trimmed_mean(setups)).items()}
        record["units"] = len(ph["times"])
        record["tail_percentile"] = 100.0 * (1 - TAIL_BEYOND / len(ph["times"]))
    else:
        base = runner.phase(seconds / 2, min_units=1)
        tracer = Tracer()
        tracer.install()
        try:
            runner.tracer = tracer
            traced = runner.phase(seconds / 2, min_units=1)
        finally:
            tracer.uninstall()
        n = len(traced["times"])
        overhead = 1 - (n / traced["wall"]) / (len(base["times"]) / base["wall"])
        record["metrics"] = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in
                             per_layer_metrics(tracer.spans, n, overhead).items()}
        record["units"] = n
        record["spans"] = tracer
    record["attempted"] = runner.attempted
    record["failed"] = len(runner.errors)
    record["errors"] = runner.errors[:20]
    record["unit_log"] = runner.log
    return record


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--out", required=True, help="directory for run records")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rec = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.tiny, scratch=out)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = rec.pop("spans", None)
    if tracer is not None:
        tracer.dump(out / f"{stem}.spans.jsonl.gz")
    rec["provenance"] = provenance.collect()
    (out / f"{stem}.json").write_text(json.dumps(rec, indent=1, default=str) + "\n")

    attempted, failed = rec["attempted"], rec["failed"]
    for err in rec["errors"]:
        print(f"FAILED {err}")
    print(f"provenance {json.dumps(rec['provenance'], sort_keys=True)}")
    print(f"{args.workload}: {rec['units']} timed units, "
          f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    extra = {"unit_p50_s": f"(n={rec['units']})",
             "unit_tail_s": f"(p{rec.get('tail_percentile', 0):.1f}, n={rec['units']})"}
    for k, m in rec["metrics"].items():
        print(f"  {k:48s} {m['value']:.6g} {m['unit']} {extra.get(k, '')}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": rec["metrics"]}))


if __name__ == "__main__":
    main()
