#!/usr/bin/env python3
"""Run the standard experiment battery and write JSON/CSV reports.

Covers: equilibrium data for a few sets, a torus coefficient table, the
critical Lieb-Thirring bound over a seeded random family, the three-condition
experiment on measure-driven examples, Cesaro decay of distance to the torus,
and twisted-sum checks for an oscillatory perturbation.

Usage:
    python scripts/run_experiments.py --out results [--seed 0] [--quick]
"""
import argparse
import json
from pathlib import Path

import numpy as np

import finitegap as fg
from finitegap.sumrules import (PerturbationSpec, RandomDecay,
                                lt_finite_gap_constant, oscillatory_spec,
                                run_experiments, twisted_sum_report)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="results")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true",
                    help="smaller truncations for a fast smoke run")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_trunc = 500 if args.quick else 2000
    n_family = 10 if args.quick else 100

    s5 = float(np.sqrt(5))
    sets = {
        "single": fg.make_band_set([-2, 2]),
        "symmetric": fg.make_band_set([-2, -1, 1, 2]),
        "period2": fg.make_band_set([-s5, -1, 1, s5]),
        "threeband": fg.make_band_set([-2, -0.5, 0.5, 1, 1.5, 2]),
    }

    print("== equilibrium data ==")
    for name, e in sets.items():
        eq = e.equilibrium
        doc = {"bands": e.to_json(), **eq.to_json(),
               "rational_period": fg.rational_harmonic_period(eq.harmonic_measures)}
        (out / f"eqm_{name}.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
        print(f"  {name}: capacity {eq.capacity:.10f}, "
              f"harmonic {np.round(eq.harmonic_measures, 6)}")

    print("== torus point (period-2 set) ==")
    e = sets["period2"]
    dd = fg.dirichlet_data(e, [(0.0, -1)])
    tp = fg.torus_jacobi(e, dd, 64)
    fg.jacobi.write_coeff_csv(tp.params, 64, out / "torus_period2.csv")
    resid = fg.reflectionless_residual(tp.herglotz)
    print(f"  reflectionless residual {resid:.2e}")

    print(f"== Lieb-Thirring bound over {n_family} seeded perturbations ==")
    jobs = {}
    for i in range(n_family):
        spec = PerturbationSpec(RandomDecay(args.seed + i, 1.5, 0.5),
                                "both" if i % 2 else "b")
        jobs[("lt", args.seed + i)] = (
            lambda s=spec: fg.lt_free_bound(s, n_trunc=n_trunc))
    results = run_experiments(jobs, workers=4)
    holds = sum(r.holds for r in results.values())
    margin = min(r.rhs - r.lhs for r in results.values())
    (out / "lt_family.json").write_text(json.dumps({
        "n_family": n_family, "n_trunc": n_trunc, "holds": holds,
        "min_margin": margin,
        "rows": {str(k): results[k].to_json() for k in results}},
        sort_keys=True) + "\n")
    print(f"  holds for {holds}/{n_family}, min margin {margin:.3e}")

    print("== empirical constant of the finite-gap LT bound ==")
    rep = lt_finite_gap_constant(sets["symmetric"],
                                 fg.dirichlet_data(sets["symmetric"], [(0.0, -1)]),
                                 n_samples=4 if args.quick else 10,
                                 seed=args.seed, n_trunc=n_trunc // 2)
    (out / "lt_constant.json").write_text(json.dumps(rep, sort_keys=True) + "\n")
    empirical = f"{rep['C_estimate']:.4f}" if rep["probed"] else "not probed"
    print(f"  C_0 = {rep['C_0']:.4f}, baseline = {rep['baseline']:.4f}, "
          f"empirical C = {empirical}")

    print("== three-condition experiment (arcsine + atom on [-2,2]) ==")
    e2 = sets["single"]
    mu = fg.measure_from_theta_density(
        e2, lambda j, th: np.full_like(th, 0.8 / np.pi), [(3.0, 0.2)])
    rep3 = fg.three_condition_experiment(e2, mu, n_strip=128 if args.quick else 512,
                                         n_trunc=512 if args.quick else 2048)
    (out / "three_condition.json").write_text(
        json.dumps(rep3.to_json(), sort_keys=True) + "\n")
    print(f"  verdicts: {rep3.verdicts}")

    print("== Cesaro decay toward the torus ==")
    class LogDecay:
        def delta(self, n):
            n = np.asarray(n, float)
            return (-1.0) ** n / np.log(n + 1.0)

        def to_json(self):
            return {"kind": "log_decay"}

    M = 100 if args.quick else 400
    J = fg.apply_perturbation(fg.free_jacobi(),
                              PerturbationSpec(LogDecay(), "b"), M + 40)
    avg, dms = fg.cesaro_distance(J, e2, M, return_sequence=True)
    with open(out / "cesaro_dm.csv", "w") as fh:
        fh.write("m,d_m\n")
        for i, v in enumerate(dms):
            fh.write(f"{i + 1},{v:.17g}\n")
    print(f"  Cesaro average at M={M}: {avg:.5f}")

    print("== twisted sums for an oscillatory perturbation ==")
    omega = sets["symmetric"].equilibrium.harmonic_measures[:-1]
    spec = oscillatory_spec(omega, [1], 0.2, 1.0, theta=1 / np.pi, target="a")
    rep4 = twisted_sum_report(spec, omega,
                              [np.array([k]) for k in range(-5, 6)],
                              N=1 << 13 if args.quick else 1 << 15)
    (out / "oscillatory.json").write_text(json.dumps(
        {"per_k": {str(k): v for k, v in rep4["per_k"].items()},
         "N": rep4["N"]}, sort_keys=True) + "\n")
    verdicts = {k: v["a"]["verdict"] for k, v in rep4["per_k"].items()}
    print(f"  twisted-sum verdicts: {verdicts}")

    print(f"done; reports in {out}/")


if __name__ == "__main__":
    main()
