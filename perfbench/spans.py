"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the finitegap modules from outside the
package: every module binding of a wrapped function (``sumrules`` and
``isotorus`` import names from ``jacobi``, so patching the defining module
alone would miss their calls) and three public methods.  Callbacks handed to
``adaptive_cos_coeffs`` / ``de_quad`` are wrapped to count samples, and the
job callables handed to ``run_experiments`` are wrapped so pool-thread spans
nest under the submitting span.  No private function is wrapped.

Spans are (id, name, start, end, parent, unit, info) tuples kept in memory;
``per_layer_metrics`` turns them into the per-layer metrics of BENCHMARK.json.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("bandset", "quadrature", "jacobi", "isotorus", "sumrules", "cli")

# public function (module, name) -> span name
FUNCTIONS = {
    ("bandset", "solve_equilibrium"): "bandset.solve_equilibrium",
    ("bandset", "potential"): "bandset.eval",
    ("bandset", "green"): "bandset.eval",
    ("bandset", "equilibrium_density"): "bandset.eval",
    ("quadrature", "adaptive_cos_coeffs"): "quadrature.adaptive_cos_coeffs",
    ("quadrature", "de_quad"): "quadrature.de_quad",
    ("jacobi", "strip_coefficients"): "jacobi.strip_coefficients",
    ("jacobi", "truncation_eigenvalues_outside"):
        "jacobi.truncation_eigenvalues_outside",
    ("jacobi", "oprl_eval"): "jacobi.oprl",
    ("jacobi", "oprl_log_abs"): "jacobi.oprl",
    ("jacobi", "oprl_scaled_last"): "jacobi.oprl",
    ("isotorus", "minimal_herglotz"): "isotorus.minimal_herglotz",
    ("isotorus", "torus_measure"): "isotorus.torus_measure",
    ("isotorus", "torus_jacobi"): "isotorus.torus_jacobi",
    ("isotorus", "d_m"): "isotorus.d_m",
    ("isotorus", "dist_to_torus"): "isotorus.dist_to_torus",
    ("sumrules", "lt_free_bound"): "sumrules.lt_free_bound",
    ("sumrules", "apply_perturbation"): "sumrules.apply_perturbation",
    ("sumrules", "szego_integral"): "sumrules.szego_integral",
    ("sumrules", "three_condition_experiment"):
        "sumrules.three_condition_experiment",
    ("sumrules", "run_experiments"): "sumrules.run_experiments",
    ("cli", "main"): "cli.main",
}

# public method (module, class, name) -> span name
METHODS = {
    ("jacobi", "JacobiParams", "coeffs"): "jacobi.coeffs",
    ("jacobi", "SpectralMeasure", "discretize"): "jacobi.discretize",
    ("sumrules", "PerturbationSpec", "deltas"): "sumrules.deltas",
}

# every per-layer metric, with its unit; BENCHMARK.json lists the same names
PER_LAYER = {
    "bandset.solve_equilibrium.calls": "count",
    "bandset.solve_equilibrium.self_s": "s",
    "bandset.eval.calls": "count",
    "bandset.eval.self_s": "s",
    "quadrature.adaptive_cos_coeffs.calls": "count",
    "quadrature.adaptive_cos_coeffs.self_s": "s",
    "quadrature.adaptive_cos_coeffs.samples": "count",
    "quadrature.adaptive_cos_coeffs.useful_frac": "ratio",
    "quadrature.de_quad.calls": "count",
    "quadrature.de_quad.self_s": "s",
    "quadrature.de_quad.evals": "count",
    "quadrature.de_quad.level_mean": "level",
    "jacobi.strip_coefficients.calls": "count",
    "jacobi.strip_coefficients.self_s": "s",
    "jacobi.coeffs.self_s": "s",
    "jacobi.discretize.calls": "count",
    "jacobi.discretize.nodes": "count",
    "jacobi.strip.useful_node_frac": "ratio",
    "jacobi.truncation_eigenvalues_outside.calls": "count",
    "jacobi.truncation_eigenvalues_outside.self_s": "s",
    "jacobi.oprl.calls": "count",
    "jacobi.oprl.self_s": "s",
    "isotorus.minimal_herglotz.calls": "count",
    "isotorus.minimal_herglotz.self_s": "s",
    "isotorus.torus_measure.calls": "count",
    "isotorus.torus_measure.self_s": "s",
    "isotorus.torus_jacobi.calls": "count",
    "isotorus.torus_jacobi.self_s": "s",
    "isotorus.d_m.calls": "count",
    "isotorus.d_m.self_s": "s",
    "isotorus.dist_to_torus.calls": "count",
    "isotorus.dist_to_torus.self_s": "s",
    "isotorus.dist_to_torus.evals_per_call": "count",
    "sumrules.lt_free_bound.self_s": "s",
    "sumrules.deltas.self_s": "s",
    "sumrules.apply_perturbation.calls": "count",
    "sumrules.apply_perturbation.self_s": "s",
    "sumrules.szego_integral.self_s": "s",
    "sumrules.three_condition_experiment.self_s": "s",
    "sumrules.run_experiments.wait_s": "s",
    "sumrules.run_experiments.busy_s": "s",
    "sumrules.run_experiments.overlap": "ratio",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.bytes_written": "B",
    "trace_overhead_frac": "ratio",
}

# span name of the pool jobs that run_experiments executes
JOB = "sumrules.run_experiments.job"


class Tracer:
    """Records spans of wrapped calls while armed; install/uninstall patch
    and restore the module bindings."""

    def __init__(self):
        self.spans = []
        self.armed = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    # -- context -----------------------------------------------------------

    def current(self):
        return getattr(self._local, "span", None)

    def set_unit(self, unit):
        self._local.unit = unit

    def _enter(self):
        sid = next(self._ids)
        self._local.span = sid
        return sid

    def record(self, sid, name, t0, t1, parent, info=None):
        self.spans.append((sid, name, t0, t1, parent,
                           getattr(self._local, "unit", None), info))

    def span(self, name, fn, *args, info_fn=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        if not self.armed:
            return fn(*args, **kwargs)
        parent = self.current()
        sid = self._enter()
        t0 = perf_counter()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            t1 = perf_counter()
            self._local.span = parent
            self.record(sid, name, t0, t1, parent,
                        info_fn(args, kwargs, out) if info_fn else None)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        special = {"quadrature.adaptive_cos_coeffs": self._wrap_sampler,
                   "quadrature.de_quad": self._wrap_sampler,
                   "sumrules.run_experiments": self._wrap_pool,
                   "jacobi.discretize": self._wrap_discretize,
                   "cli.main": self._wrap_cli}.get(name)
        if special is not None:
            return special(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _wrap_sampler(self, name, fn):
        """Count the samples a quadrature routine requests from its callback."""

        @functools.wraps(fn)
        def wrapper(callback, *args, **kwargs):
            if not self.armed:
                return fn(callback, *args, **kwargs)
            sizes = []

            def counted(x):
                sizes.append(len(x))
                return callback(x)

            def info(_a, _k, out):
                level = out[1] if name.endswith("de_quad") and out else None
                return {"sizes": sizes, "level": level}

            return self.span(name, fn, counted, *args, info_fn=info, **kwargs)
        return wrapper

    def _wrap_discretize(self, name, fn):
        @functools.wraps(fn)
        def wrapper(mu, nodes_per_band):
            return self.span(name, fn, mu, nodes_per_band,
                             info_fn=lambda _a, _k, out: {"nodes": len(out[0])
                                                          if out else 0})
        return wrapper

    def _wrap_pool(self, name, fn):
        """Wrap each job so its span nests under the submitting span; a job's
        wait is measured from the pool call, where every job is submitted."""

        @functools.wraps(fn)
        def wrapper(jobs, *args, **kwargs):
            if not self.armed:
                return fn(jobs, *args, **kwargs)
            parent = self.current()
            sid = self._enter()
            t0 = perf_counter()

            def job_span(job):
                def run():
                    job_sid = self._enter()
                    start = perf_counter()
                    try:
                        return job()
                    finally:
                        self._local.span = None
                        self.record(job_sid, JOB, start, perf_counter(), sid,
                                    {"wait": start - t0})
                return run

            try:
                return fn({k: job_span(v) for k, v in jobs.items()},
                          *args, **kwargs)
            finally:
                self._local.span = parent
                self.record(sid, name, t0, perf_counter(), parent)
        return wrapper

    def _wrap_cli(self, name, fn):
        """Count the bytes cli.main leaves in its --out directory."""

        @functools.wraps(fn)
        def wrapper(argv=None):
            if not self.armed or argv is None or "--out" not in argv:
                return fn(argv)
            out = Path(argv[argv.index("--out") + 1])

            def size():
                return sum(p.stat().st_size for p in out.glob("*")
                           if p.is_file()) if out.is_dir() else 0

            before = size()
            return self.span(name, fn, argv,
                             info_fn=lambda _a, _k, _o: {"bytes": size() - before})
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every binding of the listed functions in finitegap.* modules."""
        pkg = importlib.import_module("finitegap")
        mods = {m: importlib.import_module(f"finitegap.{m}") for m in MODULES}
        originals = {}
        for (mod, attr), name in FUNCTIONS.items():
            fn = inspect.unwrap(getattr(mods[mod], attr))
            originals[fn] = self._wrap(name, fn)
        for target in (pkg, *mods.values()):
            for attr, value in list(vars(target).items()):
                if callable(value) and not isinstance(value, type):
                    wrapped = originals.get(inspect.unwrap(value))
                    if wrapped is not None:
                        self._patch(target, attr, wrapped)
        for (mod, cls_name, attr), name in METHODS.items():
            cls = getattr(mods[mod], cls_name)
            self._patch(cls, attr, self._wrap(name, vars(cls)[attr]))

    def _patch(self, target, attr, value):
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self):
        while self._patches:
            target, attr, value = self._patches.pop()
            setattr(target, attr, value)

    def dump(self, path):
        """Write the spans as gzip'd JSON lines."""
        with gzip.open(path, "wt") as fh:
            for sid, name, t0, t1, parent, unit, info in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "unit": unit,
                                     "info": info}) + "\n")


# ---------------------------------------------------------------------------
# span analysis


def _covered(intervals):
    """Total length of the union of intervals."""
    total, end = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans):
    """span id -> span duration minus the time its child spans cover."""
    children = defaultdict(list)
    for sid, _name, t0, t1, parent, _unit, _info in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _name, t0, t1, _parent, _unit, _info in spans:
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ())]
        out[sid] = (t1 - t0) - _covered([k for k in kids if k[1] > k[0]])
    return out


def per_layer_metrics(spans, units: int, overhead: float) -> dict:
    """Per-layer metrics from spans recorded over `units` units.

    Counts, times and bytes are per unit; ratios are ratios of totals.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
    calls = {n: len(v) for n, v in by_name.items()}
    self_s = defaultdict(float)
    for s in spans:
        self_s[s[1]] += selfs[s[0]]

    m = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            m[metric] = calls.get(layer, 0) / units
        elif stat == "self_s":
            m[metric] = self_s.get(layer, 0.0) / units

    acc = by_name.get("quadrature.adaptive_cos_coeffs", [])
    samples = sum(sum(s[6]["sizes"]) for s in acc)
    final = sum(s[6]["sizes"][-1] for s in acc if s[6]["sizes"])
    m["quadrature.adaptive_cos_coeffs.samples"] = samples / units
    m["quadrature.adaptive_cos_coeffs.useful_frac"] = final / samples if samples else 0.0

    deq = by_name.get("quadrature.de_quad", [])
    m["quadrature.de_quad.evals"] = sum(sum(s[6]["sizes"]) for s in deq) / units
    levels = [s[6]["level"] for s in deq if s[6]["level"] is not None]
    m["quadrature.de_quad.level_mean"] = sum(levels) / len(levels) if levels else 0.0

    # one strip = the discretize passes under one parent span (a strip_coefficients
    # call or a JacobiParams.coeffs call that re-strips a lazy tail)
    passes = defaultdict(list)
    for s in sorted(by_name.get("jacobi.discretize", []), key=lambda s: s[2]):
        passes[s[4]].append(s[6]["nodes"])
    all_nodes = sum(sum(v) for v in passes.values())
    m["jacobi.discretize.nodes"] = all_nodes / units
    m["jacobi.strip.useful_node_frac"] = (
        sum(v[-1] for v in passes.values()) / all_nodes if all_nodes else 0.0)

    parent_of = {s[0]: s[4] for s in spans}
    name_of = {s[0]: s[1] for s in spans}
    searches = calls.get("isotorus.dist_to_torus", 0)
    evals = 0
    for s in by_name.get("isotorus.torus_jacobi", []):
        p = s[4]
        while p is not None and name_of.get(p) != "isotorus.dist_to_torus":
            p = parent_of.get(p)
        evals += p is not None
    m["isotorus.dist_to_torus.evals_per_call"] = evals / searches if searches else 0.0

    jobs = by_name.get(JOB, [])
    pools = by_name.get("sumrules.run_experiments", [])
    busy = sum(s[3] - s[2] for s in jobs)
    wall = sum(s[3] - s[2] for s in pools)
    m["sumrules.run_experiments.wait_s"] = sum(s[6]["wait"] for s in jobs) / units
    m["sumrules.run_experiments.busy_s"] = busy / units
    m["sumrules.run_experiments.overlap"] = busy / wall if wall else 0.0

    m["cli.bytes_written"] = sum(s[6]["bytes"] for s in by_name.get("cli.main", [])
                                 if s[6]) / units
    m["trace_overhead_frac"] = overhead
    return m
