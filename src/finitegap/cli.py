"""Command-line front end.

Subcommands: eqm, torus, oprl, perturb, sumrule, distance, report.
Global flags: --config PATH, --out DIR, --seed U64, --quiet.
Exit codes: 0 success, 1 hard invariant violation, 2 bad input, 3 missing
dependency file.

Every output embeds the tool version and a sha256 hash of the canonical
config, and numeric CSV cells use 17 significant digits, so identical
config+seed reruns are byte-identical.

Output works in bulk: each CSV row is one %-template that the command states
(integers %d, floats %.17g, which is the float formatter f"{x:.17g}" uses),
filled from Python scalars that .tolist() and zip give; eqm evaluates the
density once per band on the whole grid.  main parses with one module-level
parser, built once per process.

JSON payloads are built from the objects' own to_json() values; only
_write_json makes text.  Config values are checked (_get, _check_keys) before
any file is written: sizes are integers >= 1 (oprl's n >= 0), other scalars
numbers, nested specs objects, lists of numbers, pairs or lists in the shape
each field states; a wrong type or range, or a bad jacobi spec, exits 2.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bandset import (FiniteGapSet, equilibrium_density, potential,
                      rational_harmonic_period)
from .errors import AccuracyError, DomainError, FiniteGapError, MeasureError
from .isotorus import DirichletData, dirichlet_data, dist_to_torus, torus_jacobi
from .jacobi import (JacobiParams, SpectralMeasure, arcsine_measure,
                     equilibrium_measure, free_jacobi,
                     measure_from_theta_density, oprl_eval,
                     semicircle_measure)
from .sumrules import (PerturbationSpec, apply_perturbation, cesaro_distance,
                       lt_free_bound, oscillatory_spec,
                       three_condition_experiment, twisted_sum_report)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _check_keys(config: dict, allowed: set, where: str):
    if not isinstance(config, dict):
        raise CliError(2, f"{where} must be a JSON object, got {config!r}")
    unknown = set(config) - allowed
    if unknown:
        raise CliError(2, f"unknown config keys {sorted(unknown)} in {where}")


def _load_config(args) -> dict:
    if args.config is None:
        return {}
    path = Path(args.config)
    if not path.exists():
        raise CliError(3, f"config file {path} does not exist")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(2, f"malformed config JSON: {exc}") from exc


def _write_json(out: Path, name: str, payload: dict, config: dict):
    doc = {"tool": "finitegap", "version": __version__,
           "config_sha256": _config_hash(config), **payload}
    (out / name).write_text(json.dumps(doc, sort_keys=True) + "\n")


def _write_csv(out: Path, name: str, header: list, template: str, rows,
               config: dict):
    """One line per row, formatted by the caller's %-template."""
    lines = [f"# finitegap {__version__} config={_config_hash(config)}",
             ",".join(header)]
    lines += [template % row for row in rows]
    (out / name).write_text("\n".join(lines) + "\n")


def _get(config: dict, key: str, default, ok, what: str):
    """config[key] (default if absent), which ok must accept; what names it."""
    v = config.get(key, default)
    if not ok(v):
        raise CliError(2, f"{key} must be {what}, got {v!r}")
    return v


def _is_number(x) -> bool:
    return type(x) in (int, float)


def _is_list(v, ok, length: int | None = None) -> bool:
    """v is a JSON list (of the given length) whose every item ok accepts."""
    return type(v) is list and length in (None, len(v)) and all(map(ok, v))


def _is_pair(v) -> bool:
    return _is_list(v, _is_number, 2)


def _size(config: dict, key: str, default: int, least: int = 1) -> int:
    return _get(config, key, default, lambda n: type(n) is int and n >= least,
                f"an integer >= {least}")


def _number(config: dict, key: str, default: float) -> float:
    return float(_get(config, key, default, _is_number, "a number"))


def _bands_from_config(config: dict):
    if "bands" not in config:
        raise CliError(2, "config needs a 'bands' key: [[a1,b1],...]")
    try:
        return FiniteGapSet.from_json(config["bands"])
    except (FiniteGapError, TypeError) as exc:
        raise CliError(2, f"invalid band set: {exc}") from exc


def _jacobi_from_config(spec):
    """Build coefficients from 'free' | {jacobi: ...} | {torus: ...} | {path: ...}."""
    if spec == "free":
        return free_jacobi()
    if not isinstance(spec, dict):
        raise CliError(2, f"cannot interpret jacobi spec {spec!r}")
    if "path" in spec:
        path = Path(_get(spec, "path", None, lambda p: isinstance(p, str), "a file name"))
        if not path.exists():
            raise CliError(3, f"jacobi file {path} does not exist")
        spec = json.loads(path.read_text())
    elif "torus" in spec:
        t = spec["torus"]
        _check_keys(t, {"bands", "dirichlet", "n"}, "torus spec")
        e = _bands_from_config(t)
        dd = _dirichlet_from_config(e, t.get("dirichlet", []))
        return torus_jacobi(e, dd, _size(t, "n", 64)).params
    elif "head_a" not in spec:
        raise CliError(2, f"cannot interpret jacobi spec {spec!r}")
    try:
        return JacobiParams.from_json(spec)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(2, f"bad jacobi spec: {exc!r}") from exc


def _dirichlet_from_config(e, items) -> DirichletData:
    try:
        return dirichlet_data(e, [(d["gamma"], d["sheet"]) for d in items])
    except (FiniteGapError, KeyError, TypeError) as exc:
        raise CliError(2, f"invalid dirichlet data: {exc}") from exc


def _measure_from_config(e, spec: dict) -> SpectralMeasure:
    _check_keys(spec, {"base", "atoms"}, "measure spec")
    base = spec.get("base", "equilibrium")
    atoms = [(float(x), float(w)) for x, w in _get(
        spec, "atoms", [], lambda v: _is_list(v, _is_pair),
        "a list of [x, weight] number pairs")]
    atom_mass = sum(w for _, w in atoms)
    if atom_mass >= 1.0:
        raise CliError(2, "atom weights must total < 1")
    if base == "equilibrium":
        band = equilibrium_measure(e.equilibrium)
    elif base == "semicircle":
        band = semicircle_measure()
    elif base == "arcsine":
        band = arcsine_measure()
    else:
        raise CliError(2, f"unknown measure base {base!r}")
    if base in ("semicircle", "arcsine") and band.set.bands != e.bands:
        raise CliError(2, f"measure base {base!r} lives on [-2,2], not {e.bands}")
    scale = 1.0 - atom_mass
    return measure_from_theta_density(
        e, lambda j, th: band.theta_density(j, th) * scale, atoms)


# ---------------------------------------------------------------------------
# subcommands


def cmd_eqm(config: dict, args, out: Path) -> int:
    _check_keys(config, {"bands", "grid_points"}, "eqm config")
    e = _bands_from_config(config)
    gp = _size(config, "grid_points", 64)
    try:
        eq = e.equilibrium
    except AccuracyError as exc:
        raise CliError(1, f"equilibrium solve failed: {exc}") from exc
    payload = {"bands": e.to_json(), **eq.to_json(),
               "rational_period": rational_harmonic_period(eq.harmonic_measures)}
    rows = []
    for j in range(e.n_bands):
        a, b = e.bands[j]
        pad = (b - a) * 1e-6
        xs = np.linspace(a + pad, b - pad, gp)
        phi = potential(eq, xs.astype(complex))
        rows += zip(xs.tolist(), equilibrium_density(eq, xs).tolist(),
                    phi.tolist(), (eq.robin_constant - phi).tolist())
    _write_json(out, "equilibrium.json", payload, config)
    _write_csv(out, "eqm_grid.csv", ["x", "w", "phi", "green"],
               "%.17g,%.17g,%.17g,%.17g", rows, config)
    if not args.quiet:
        print(f"capacity {eq.capacity:.12g}, harmonic measures "
              f"{np.round(eq.harmonic_measures, 6)}")
    return 0


def cmd_torus(config: dict, args, out: Path) -> int:
    _check_keys(config, {"bands", "dirichlet", "n"}, "torus config")
    e = _bands_from_config(config)
    dd = _dirichlet_from_config(e, config.get("dirichlet", []))
    n = _size(config, "n", 64)
    tp = torus_jacobi(e, dd, n)
    a, b = tp.params.coeffs(n)
    payload = {"bands": e.to_json(), "dirichlet": dd.to_json(),
               "pole_weights": tp.herglotz.pole_weights.tolist(),
               "scale_c": tp.herglotz.c,
               "measure_mass": tp.measure.total_mass(),
               "n": n}
    _write_json(out, "torus.json", payload, config)
    _write_csv(out, "torus_coeffs.csv", ["n", "a_n", "b_n"], "%d,%.17g,%.17g",
               zip(range(1, n + 1), a.tolist(), b.tolist()), config)
    if not args.quiet:
        print(f"torus point on {e.bands}: a1..a4 = {np.round(a[:4], 8)}")
    return 0


def cmd_oprl(config: dict, args, out: Path) -> int:
    _check_keys(config, {"jacobi", "z", "n"}, "oprl config")
    J = _jacobi_from_config(config.get("jacobi", "free"))
    zs = np.array([complex(zspec[0], zspec[1]) if type(zspec) is list
                   else complex(float(zspec), 0.0) for zspec in _get(
                       config, "z", [3.0],
                       lambda v: _is_list(v, lambda z: _is_number(z) or _is_pair(z)),
                       "a list of numbers and [re, im] number pairs")])
    n = _size(config, "n", 32, least=0)
    vals = oprl_eval(J, n, zs)
    rows = [(z.real, z.imag, k, v.real, v.imag)
            for z, col in zip(zs.tolist(), vals.T.tolist()) for k, v in enumerate(col)]
    _write_csv(out, "oprl.csv", ["z_re", "z_im", "n", "p_re", "p_im"],
               "%.17g,%.17g,%d,%.17g,%.17g", rows, config)
    return 0


def _perturbation_from_config(spec: dict) -> PerturbationSpec:
    try:
        return PerturbationSpec.from_json(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(2, f"bad perturbation spec: {exc}") from exc


def cmd_perturb(config: dict, args, out: Path) -> int:
    _check_keys(config, {"base", "perturbation", "n"}, "perturb config")
    base = _jacobi_from_config(config.get("base", "free"))
    spec = _perturbation_from_config(config.get("perturbation", {}))
    n = _size(config, "n", 64)
    try:
        J = apply_perturbation(base, spec, n)
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc
    a, b = J.coeffs(n)
    a0, b0 = base.coeffs(n)
    da, db = spec.deltas(n)
    payload = {"perturbation": spec.to_json(), "n": n,
               "abs_delta_a_partial": float(np.abs(da).sum()),
               "abs_delta_b_partial": float(np.abs(db).sum())}
    _write_json(out, "perturb.json", payload, config)
    _write_csv(out, "perturb_coeffs.csv",
               ["n", "a_n", "b_n", "delta_a", "delta_b"],
               "%d,%.17g,%.17g,%.17g,%.17g",
               zip(range(1, n + 1), a.tolist(), b.tolist(), (a - a0).tolist(),
                   (b - b0).tolist()), config)
    return 0


def cmd_distance(config: dict, args, out: Path) -> int:
    _check_keys(config, {"bands", "jacobi", "m", "grid_per_gap"}, "distance config")
    e = _bands_from_config(config)
    J = _jacobi_from_config(config.get("jacobi", "free"))
    m = _size(config, "m", 1)
    _size(config, "grid_per_gap", 16)  # checked but not read: the search has no grid
    res = dist_to_torus(J, e, m)
    _write_json(out, "distance.json", {**res.to_json(), "bands": e.to_json()},
                config)
    if not args.quiet:
        print(f"d_{m}(J, torus) <= {res.value:.6g}")
    return 0


# the keys of each sumrule experiment, besides "experiment"
_SUMRULE_KEYS = {
    "lt_free": {"perturbation", "n_trunc"},
    "three_condition": {"bands", "measure", "which_two", "n_strip", "n_trunc"},
    "cesaro": {"bands", "jacobi", "M", "perturbation"},
    "oscillatory": {"bands", "k_vector", "k_list", "amplitude", "decay", "n"},
}


def cmd_sumrule(config: dict, args, out: Path) -> int:
    exp = config.get("experiment")
    if exp not in _SUMRULE_KEYS:
        raise CliError(2, f"unknown experiment {exp!r}")
    _check_keys(config, {"experiment", *_SUMRULE_KEYS[exp]}, f"sumrule {exp} config")
    seed = args.seed or 0
    rc = 0
    if exp == "lt_free":
        spec = _perturbation_from_config(config.get("perturbation", {}))
        res = lt_free_bound(spec, n_trunc=_size(config, "n_trunc", 2000))
        payload = {"experiment": exp, "result": res.to_json(), "seed": seed,
                   "verdict": bool(res.holds)}
        _write_json(out, "sumrule_lt_free.json", payload, config)
        if not res.holds:
            rc = 1
    elif exp == "three_condition":
        e = _bands_from_config(config)
        which_two = _get(config, "which_two", ["a", "b"], lambda w: w in (
            ["a", "b"], ["a", "c"], ["b", "a"], ["b", "c"], ["c", "a"], ["c", "b"]),
            "two of a, b, c")
        mu = _measure_from_config(e, config.get("measure", {}))
        rep = three_condition_experiment(
            e, mu, which_two=tuple(which_two),
            n_strip=_size(config, "n_strip", 256, 2),
            n_trunc=_size(config, "n_trunc", 1024, 4))
        _write_json(out, "sumrule_three_condition.json",
                    {**rep.to_json(), "experiment": exp}, config)
    elif exp == "cesaro":
        e = _bands_from_config(config)
        base = _jacobi_from_config(config.get("jacobi", "free"))
        M = _size(config, "M", 100)
        if "perturbation" in config:
            spec = _perturbation_from_config(config["perturbation"])
            base = apply_perturbation(base, spec, M + 64)
        avg, dms = cesaro_distance(base, e, M, return_sequence=True)
        payload = {"experiment": exp, "M": M, "cesaro_average": avg}
        _write_json(out, "sumrule_cesaro.json", payload, config)
        _write_csv(out, "cesaro_dm.csv", ["m", "d_m"], "%d,%.17g",
                   zip(range(1, M + 1), dms.tolist()), config)
    elif exp == "oscillatory":
        e = _bands_from_config(config)
        if e.ell == 0:
            raise CliError(2, "the oscillatory experiment needs a set with a gap")
        N = _size(config, "n", 1 << 14, 2)
        omega = e.equilibrium.harmonic_measures[:-1]  # independent frequencies
        k_vector = _get(config, "k_vector", [1] * e.ell,
                        lambda k: _is_list(k, _is_number, e.ell),
                        f"a list of {e.ell} numbers")
        k_list = _get(config, "k_list", [[k] * e.ell for k in (0, 1, 2)],
                      lambda ks: _is_list(ks, lambda k: _is_list(k, _is_number, e.ell)),
                      f"a list of lists of {e.ell} numbers")
        spec = oscillatory_spec(omega, k_vector, _number(config, "amplitude", 0.1),
                                _number(config, "decay", 1.0))
        rep = twisted_sum_report(spec, omega, [np.asarray(k) for k in k_list], N=N)
        payload = {"experiment": exp,
                   "per_k": {str(k): v for k, v in rep["per_k"].items()},
                   "sup_growth": rep["sup_growth"], "N": rep["N"]}
        _write_json(out, "sumrule_oscillatory.json", payload, config)
    return rc


def cmd_report(config: dict, args, out: Path) -> int:
    rows = []
    for path in sorted(out.glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        if doc.get("tool") != "finitegap":
            continue
        verdicts = doc.get("verdicts", {})
        if "verdict" in doc:
            verdicts = {**verdicts, "verdict": doc["verdict"]}
        if not verdicts:
            rows.append((path.name, "-", "-"))
        for key, val in sorted(verdicts.items()):
            rows.append((path.name, key, str(val)))
    _write_csv(out, "summary.csv", ["file", "verdict", "value"], "%s,%s,%s",
               rows, config)
    if not args.quiet:
        print(f"report: {len(rows)} rows")
    return 0


COMMANDS = {"eqm": cmd_eqm, "torus": cmd_torus, "oprl": cmd_oprl,
            "perturb": cmd_perturb, "sumrule": cmd_sumrule,
            "distance": cmd_distance, "report": cmd_report}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="finitegap",
                                 description="finite gap Jacobi matrix toolkit")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", help="path to a JSON config")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quiet", action="store_true")
    return ap


# argparse keeps no state between parse_args calls, so one parser serves
# every call of main in a process
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        config = _load_config(args)
        if not isinstance(config, dict):
            raise CliError(2, "config JSON must be an object")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](config, args, out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FiniteGapError, MeasureError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
