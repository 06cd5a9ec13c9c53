"""The three benchmark workloads: inputs, units and correctness gates.

A unit is one call of a workload's top-level public function.  A round is a
fixed list of units built from freshly generated inputs, so lazy tail caches
never carry over between rounds; the timed phase runs whole rounds, so every
run measures the same mix.  Inputs come from the seed: ``make_round(r)`` is a
pure function of (seed, r).

Where the gate compares against recorded values, the seed selects inputs from
a finite pool whose references are in reference.json (make_reference.py).
"""
from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import finitegap as fg
from finitegap import cli, sumrules
from finitegap.sumrules import PerturbationSpec, RandomDecay, SingleSite

S5 = math.sqrt(5.0)
E2 = fg.make_band_set([-2.0, 2.0])
P2 = fg.make_band_set([-S5, -1.0, 1.0, S5])

# recorded scalar references of the three-condition experiment, relative
REFERENCE_RTOL = 1e-8
# closed-form heads (criterion 3) and the single-site anchor (criterion 7)
HEAD_TOL = 1e-8
ANCHOR_TOL = 1e-6


@dataclass
class Unit:
    """One call of a public function on prepared inputs."""

    kind: str
    key: str
    fn: object
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    elapsed: float
    result: object = None
    error: BaseException | None = None


class Workload:
    """Base: sequential closed loop, per-unit checks."""

    name = ""

    def __init__(self, seed: int, reference: dict, tiny: bool = False,
                 scratch: Path | None = None):
        self.seed = seed
        self.reference = reference.get(self.name, {})
        self.tiny = tiny
        self.scratch = scratch  # directory for files a workload writes

    def warmup(self) -> list:
        """The untimed unit of the set-up phase."""
        return self.make_round(-1)[:1]

    def make_round(self, r: int) -> list:
        raise NotImplementedError

    def run_round(self, units, call) -> list:
        return [call(u) for u in units]

    def check_round(self, units, outcomes) -> list:
        """One error message (or None) per unit."""
        errors = []
        for u, o in zip(units, outcomes):
            if o.error is not None:
                errors.append(f"{u.key}: {o.error!r}")
                continue
            try:
                errors.append(self.check(u, o.result))
            except Exception as exc:  # a check that cannot run fails its unit
                errors.append(f"{u.key}: check raised {exc!r}")
        return errors

    def check(self, unit, result):
        raise NotImplementedError

    def ref(self, key):
        if self.tiny:
            key += ":tiny"
        if key not in self.reference:
            raise KeyError(f"no reference for {self.name} {key}")
        return self.reference[key]


def _rel_close(x, ref, rtol=REFERENCE_RTOL) -> bool:
    if math.isinf(ref):
        return x == ref
    return abs(x - ref) <= rtol * abs(ref)


# ---------------------------------------------------------------------------
# lt_family


class LtFamily(Workload):
    """Seeded l^1 perturbations of the free matrix, each checked by
    lt_free_bound, plus the single-site anchor (criterion 7), run through
    run_experiments with two workers."""

    name = "lt_family"
    workers = 2

    def make_round(self, r):
        n_trunc = 400 if self.tiny else 2000
        family = 5 if self.tiny else 19
        units = [self._unit("anchor", PerturbationSpec(SingleSite(1, 3.0), "b"),
                            n_trunc)]
        rng = np.random.default_rng([self.seed, r + 1])
        for i, s in enumerate(rng.integers(0, 2**31, family)):
            spec = PerturbationSpec(RandomDecay(int(s), 1.5, 0.5),
                                    "both" if i % 2 else "b")
            units.append(self._unit("random", spec, n_trunc))
        return units

    @staticmethod
    def _unit(kind, spec, n_trunc):
        return Unit(kind, kind, lambda: fg.lt_free_bound(spec, n_trunc=n_trunc))

    def run_round(self, units, call):
        jobs = {i: (lambda u=u: call(u)) for i, u in enumerate(units)}
        done = sumrules.run_experiments(jobs, workers=self.workers)
        return [done[i] for i in range(len(units))]

    def check(self, unit, res):
        if not res.holds:
            return f"LT bound fails: lhs {res.lhs} > rhs {res.rhs}"
        if unit.kind == "anchor" and not (
                len(res.eigenvalues) == 1
                and abs(res.eigenvalues[0] - 10 / 3) < ANCHOR_TOL
                and abs(res.lhs - 8 / 3) < ANCHOR_TOL):
            return f"single-site anchor off: {res.eigenvalues}, lhs {res.lhs}"
        return None


# ---------------------------------------------------------------------------
# three_condition


ARC_ATOMS = (3.0, -3.0, 2.5, -2.5, 3.5, -3.5, 2.75, -2.75)
GAP_ATOMS = (0.3, -0.3, 0.1, -0.1, 0.5, -0.5, 0.2, -0.2)
# the acceptance suite's dead band; the cost of a dead-band strip swings
# five-fold with the band's position, so it is not drawn from the seed
DEAD_BAND = (0.2, 0.8)


class ThreeCondition(Workload):
    """three_condition_experiment on measure-driven examples; the seed picks
    each round's atom positions from the pools above."""

    name = "three_condition"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.eq_p2 = fg.solve_equilibrium(P2)

    def n_strip(self, example):
        full = {"arcsine_atom": 128, "semicircle": 128, "period2_atom": 96,
                "dead_band": 64}
        return 24 if self.tiny else full[example]

    def measure(self, example, v):
        if example == "arcsine_atom":
            return fg.measure_from_theta_density(
                E2, lambda j, th: np.full_like(th, 0.8 / np.pi),
                [(ARC_ATOMS[v], 0.2)])
        if example == "semicircle":
            return fg.semicircle_measure()
        if example == "period2_atom":
            eq = self.eq_p2
            return fg.measure_from_theta_density(
                P2, lambda j, th: 0.9 * eq.theta_density(j, th),
                [(GAP_ATOMS[v], 0.1)])
        lo, hi = DEAD_BAND

        def dead(j, th):
            x = 2 * np.cos(th)
            return np.where((x > lo) & (x < hi), 0.0, 2 * np.sin(th) ** 2 / np.pi)

        return fg.measure_from_theta_density(E2, dead, strict=False,
                                             validate=False)

    def unit(self, example, v):
        mu = self.measure(example, v)
        e = P2 if example == "period2_atom" else E2
        n = self.n_strip(example)
        kw = dict(n_strip=n, n_trunc=4 * n)
        if example == "dead_band":
            kw.update(which_two=("a", "c"), strip_tol=2e-3)

        def run():
            # keep the stripped coefficients for the head check
            strip = sumrules.strip_coefficients
            heads = []

            def keep(*a, **k):
                heads.append(strip(*a, **k))
                return heads[-1]

            sumrules.strip_coefficients = keep
            try:
                return fg.three_condition_experiment(e, mu, **kw), heads[0]
            finally:
                sumrules.strip_coefficients = strip

        return Unit(example, f"{example}:{v}", run, {"n_strip": n})

    def make_round(self, r):
        # Unit times form two clusters: about 0.45 s for the atom units and
        # 1.4 s for the dead band.  One dead band per eight atom units keeps
        # the dead bands of a 30 s run below ten at any host speed, so the
        # tail percentile (ten units beyond it) always falls in the upper end
        # of the atom cluster, never on the edge between the two.  Two gapped
        # units per semicircle put the median unit time inside one cluster.
        rng = np.random.default_rng([self.seed, r + 1])
        arcs = rng.choice(len(ARC_ATOMS), 2, replace=False)
        gaps = rng.choice(len(GAP_ATOMS), 4, replace=False)
        units = []
        for arc, pair in zip(arcs, gaps.reshape(2, 2)):
            units += [self.unit("semicircle", 0), self.unit("arcsine_atom", arc),
                      *(self.unit("period2_atom", g) for g in pair)]
        return units + [self.unit("dead_band", 0)]

    def pool(self):
        yield self.unit("semicircle", 0)
        yield self.unit("dead_band", 0)
        for v in range(len(ARC_ATOMS)):
            yield self.unit("arcsine_atom", v)
        for v in range(len(GAP_ATOMS)):
            yield self.unit("period2_atom", v)

    @staticmethod
    def summary(res):
        rep, J = res
        q = rep.quantities
        return {"verdicts": rep.verdicts,
                "lt_half_sum": q["lt_half_sum"]["value"],
                "szego_integral": q["szego_integral"]["value"],
                "a_product_range": q["a_product_range"]["value"],
                "head_a": J.head_a[:8].tolist(), "head_b": J.head_b[:8].tolist()}

    def check(self, unit, res):
        got, ref = self.summary(res), self.ref(unit.key)
        if got["verdicts"] != ref["verdicts"]:
            return f"verdicts {got['verdicts']} != reference {ref['verdicts']}"
        for name in ("lt_half_sum", "szego_integral"):
            if not _rel_close(got[name], ref[name]):
                return f"{name} {got[name]!r} != reference {ref[name]!r}"
        if not all(_rel_close(x, y) for x, y in
                   zip(got["a_product_range"], ref["a_product_range"])):
            return f"a_product_range {got['a_product_range']} != reference"
        J = res[1]
        if unit.kind == "semicircle":
            a, b = J.coeffs(unit.data["n_strip"])
            if np.abs(a - 1).max() > HEAD_TOL or np.abs(b).max() > HEAD_TOL:
                return "semicircle head is not the free matrix"
        elif unit.kind == "arcsine_atom" and not (
                np.allclose(got["head_a"], ref["head_a"], rtol=0, atol=HEAD_TOL)
                and np.allclose(got["head_b"], ref["head_b"], rtol=0,
                                atol=HEAD_TOL)):
            return "arcsine + atom head differs from the reference"
        return None


# ---------------------------------------------------------------------------
# cli_artifacts


def cli_configs(seed: int, tiny: bool) -> list:
    """(command, config) pairs, in run order; report aggregates the rest."""
    p2 = [[-S5, -1.0], [1.0, S5]]
    torus = {"bands": p2, "dirichlet": [{"gamma": 0.0, "sheet": -1}],
             "n": 24 if tiny else 64}
    rand = {"kind": "random", "seed": seed, "rate": 1.5, "amplitude": 0.5}
    return [
        ("eqm", {"bands": [[-2, -1], [1, 2]], "grid_points": 32 if tiny else 256}),
        ("torus", torus),
        ("oprl", {"jacobi": {"torus": torus}, "z": [3.0, [0.0, 1.0], [-2.5, 0.5]],
                  "n": 64}),
        ("perturb", {"base": "free", "perturbation": {**rand, "target": "both"},
                     "n": 256}),
        ("sumrule", {"experiment": "lt_free",
                     "perturbation": {**rand, "target": "b"},
                     "n_trunc": 400 if tiny else 1000}),
        ("distance", {"bands": p2, "jacobi": {"torus": {**torus, "n": 48}},
                      "m": 2, "grid_per_gap": 4 if tiny else 8}),
        ("report", None),
    ]


# files each command writes; report aggregates the JSON of the others
ARTIFACTS = {"eqm": ("equilibrium.json", "eqm_grid.csv"),
             "torus": ("torus.json", "torus_coeffs.csv"),
             "oprl": ("oprl.csv",),
             "perturb": ("perturb.json", "perturb_coeffs.csv"),
             "sumrule": ("sumrule_lt_free.json",),
             "distance": ("distance.json",),
             "report": ("summary.csv",)}


class CliArtifacts(Workload):
    """Every CLI command in-process through cli.main, twice per round into two
    fresh directories; the two runs must be byte-identical."""

    name = "cli_artifacts"

    def warmup(self):
        return self._units(("a",), ("torus",))

    def make_round(self, r):
        return self._units(("a", "b"), tuple(ARTIFACTS))

    def _units(self, copies, commands):
        base = Path(tempfile.mkdtemp(prefix="cli-", dir=self.scratch))
        units = []
        for copy in copies:
            out = base / copy
            for cmd, config in cli_configs(self.seed, self.tiny):
                if cmd not in commands:
                    continue
                argv = [cmd, "--out", str(out), "--quiet", "--seed", str(self.seed)]
                if config is not None:
                    path = base / f"{cmd}.json"
                    path.write_text(json.dumps(config))
                    argv += ["--config", str(path)]
                units.append(Unit(cmd, cmd, lambda argv=argv: cli.main(argv),
                                  {"out": out, "base": base}))
        return units

    def check_round(self, units, outcomes):
        errors = super().check_round(units, outcomes)
        dirs = sorted({u.data["out"] for u in units})
        files = [{p.name: p.read_bytes() for p in d.iterdir()} if d.is_dir() else {}
                 for d in dirs]
        for i, u in enumerate(units):
            for name in ARTIFACTS[u.kind]:
                got = [f.get(name) for f in files]
                if got[0] is None:
                    errors[i] = errors[i] or f"{u.kind} wrote no {name}"
                elif any(g != got[0] for g in got):
                    errors[i] = errors[i] or f"{name} differs between runs"
        if any(f.keys() != files[0].keys() for f in files):
            errors = [e or "runs wrote different file sets" for e in errors]
        shutil.rmtree(units[0].data["base"], ignore_errors=True)
        return errors

    def check(self, unit, rc):
        return None if rc == 0 else f"{unit.kind} exited with {rc}"


WORKLOADS = {w.name: w for w in (LtFamily, ThreeCondition, CliArtifacts)}
