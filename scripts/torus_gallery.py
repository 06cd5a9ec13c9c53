#!/usr/bin/env python3
"""Sweep Dirichlet data around a gap circle and tabulate the torus family.

Writes one CSV row per sample: angle, gamma, sheet, first coefficients, the
capacity-normalized product range, and the reflectionless residual.  Useful
for eyeballing continuity of the data -> coefficients map across gap edges.

Usage:
    python scripts/torus_gallery.py --out results [--bands=-2,-1,1,2] [--samples 24]
"""
import argparse
from pathlib import Path

import numpy as np

import finitegap as fg


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="results")
    ap.add_argument("--bands", default="-2,-1,1,2",
                    help="comma-separated endpoints of a one-gap set")
    ap.add_argument("--samples", type=int, default=24)
    ap.add_argument("--n", type=int, default=120)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    e = fg.make_band_set([float(x) for x in args.bands.split(",")])
    if e.ell != 1:
        raise SystemExit("this sweep wants exactly one gap")
    eq = e.equilibrium
    print(f"set {e.bands}: capacity {eq.capacity:.8f}, "
          f"harmonic {np.round(eq.harmonic_measures, 6)}")

    rows = []
    for k in range(args.samples):
        phi = 2 * np.pi * k / args.samples
        dd = fg.dirichlet_from_angles(e, [phi])
        tp = fg.torus_jacobi(e, dd, args.n)
        a, b = tp.params.coeffs(args.n)
        prods = np.exp(np.cumsum(np.log(a)) - np.arange(1, args.n + 1)
                       * np.log(eq.capacity))
        resid = fg.reflectionless_residual(tp.herglotz)
        rows.append((phi, dd.gammas[0], dd.sheets[0], a[0], a[1], b[0],
                     prods.min(), prods.max(), resid))
        print(f"  phi={phi:6.3f} gamma={dd.gammas[0]:+.4f} sheet={dd.sheets[0]:+d} "
              f"a1={a[0]:.6f} a2={a[1]:.6f} resid={resid:.1e}")

    with open(out / "torus_gallery.csv", "w") as fh:
        fh.write("phi,gamma,sheet,a1,a2,b1,prod_min,prod_max,reflectionless\n")
        for r in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in r) + "\n")
    print(f"wrote {out / 'torus_gallery.csv'}")


if __name__ == "__main__":
    main()
