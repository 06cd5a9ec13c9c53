"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""
import time

import numpy as np
import pytest

import finitegap as fg
from finitegap.sumrules import (L1Decay, PerturbationSpec, RandomDecay,
                                SingleSite, b_sum_diagnostics)

from conftest import random_band_set


E2 = fg.make_band_set([-2.0, 2.0])
S5 = float(np.sqrt(5.0))
P2 = fg.make_band_set([-S5, -1.0, 1.0, S5])


def report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


@pytest.fixture(scope="module")
def p2_torus():
    dd = fg.dirichlet_data(P2, [(0.0, -1)])
    return fg.torus_jacobi(P2, dd, 110)


@pytest.fixture(scope="module")
def regularity_data():
    """10 random Dirichlet data on 2 random one-gap sets, stripped to 500."""
    rng = np.random.default_rng(2024)
    out = []
    for _ in range(2):
        e = random_band_set(rng, 1)
        eq = fg.solve_equilibrium(e)
        for _ in range(5):
            dd = fg.random_dirichlet(e, rng)
            tp = fg.torus_jacobi(e, dd, 500)
            out.append((e, eq, dd, tp))
    return out


def test_criterion_01_potential_oracles():
    eq1 = fg.solve_equilibrium(E2)
    assert abs(eq1.capacity - 1.0) < 1e-8
    eq2 = fg.solve_equilibrium(fg.make_band_set([-2, -1, 1, 2]))
    assert abs(eq2.capacity - np.sqrt(3) / 2) < 1e-6
    assert np.abs(eq2.harmonic_measures - 0.5).max() < 1e-8

    rng = np.random.default_rng(99)
    worst, slowest = 0.0, 0.0
    for n_gaps in (0, 1, 2, 3):
        e = random_band_set(rng, n_gaps)
        t0 = time.perf_counter()
        eq = fg.solve_equilibrium(e)
        slowest = max(slowest, time.perf_counter() - t0)
        for j in range(e.n_bands):
            a, b = e.bands[j]
            xs = np.linspace(a, b, 1000 // e.n_bands + 2).astype(complex)
            worst = max(worst, np.abs(fg.potential(eq, xs)
                                      - eq.robin_constant).max())
    assert worst < 1e-6
    assert slowest < 1.0
    report(1, f"capacities/harmonic measures exact; Frostman dev {worst:.1e}; "
              f"slowest solve {slowest * 1e3:.0f} ms")


def test_criterion_02_green_oracle():
    eq = fg.solve_equilibrium(E2)
    expect = np.log((3 + np.sqrt(5)) / 2)
    got = fg.green(eq, 3.0)
    assert abs(got - expect) < 1e-6
    report(2, f"G(3) = {got:.9f} vs log((3+sqrt5)/2) = {expect:.9f}")


def test_criterion_03_stripping_oracle():
    Ja = fg.strip_coefficients(fg.arcsine_measure(), 5)
    assert np.abs(Ja.head_a - [np.sqrt(2), 1, 1, 1, 1]).max() < 1e-8
    assert np.abs(Ja.head_b).max() < 1e-8
    Js = fg.strip_coefficients(fg.semicircle_measure(), 20)
    assert np.abs(Js.head_a - 1).max() < 1e-8
    assert np.abs(Js.head_b).max() < 1e-8
    report(3, "arcsine -> (sqrt2,1,1,1,1)/b=0 and semicircle -> free, "
              "both within 1e-8")


def test_criterion_04_torus_periodicity(p2_torus):
    eq = fg.solve_equilibrium(P2)
    assert fg.rational_harmonic_period(eq.harmonic_measures) == 2
    a, b = p2_torus.params.coeffs(102)
    assert np.abs(b[:100]).max() < 1e-6
    hi, lo = (S5 + 1) / 2, (S5 - 1) / 2
    n = np.arange(5, 101)
    expect = np.where(n % 2 == 1, a[4], a[5])  # phase fixed by the data
    assert np.abs(a[n - 1] - expect).max() < 1e-6
    assert {round(float(a[4]), 6), round(float(a[5]), 6)} == \
        {round(hi, 6), round(lo, 6)}
    report(4, "period-2 coefficients alternate (sqrt5+-1)/2 with b = 0; "
              "rational harmonic period = 2")


def test_criterion_05_regularity(regularity_data):
    worst_geo, worst_ratio = 0.0, 1.0
    for e, eq, dd, tp in regularity_data:
        a, _ = tp.params.coeffs(500)
        loga = np.cumsum(np.log(a))
        geo = np.exp(loga[-1] / 500)
        worst_geo = max(worst_geo, abs(geo - eq.capacity))
        prods = np.exp(loga - np.arange(1, 501) * np.log(eq.capacity))
        worst_ratio = max(worst_ratio, prods.max(), 1 / prods.min())
        assert abs(geo - eq.capacity) < 1e-2
        assert prods.max() < 50 and prods.min() > 1 / 50
    report(5, f"10 random torus points: max |(a1..an)^(1/n) - C| = "
              f"{worst_geo:.1e} at n=500; products within [1/R, R], "
              f"R = {worst_ratio:.2f}")


def test_criterion_06_reflectionless(regularity_data, p2_torus):
    herglotz = [p2_torus.herglotz,
                fg.minimal_herglotz(E2, fg.DirichletData((), ()))]
    herglotz += [tp.herglotz for _, _, _, tp in regularity_data]
    worst = max(fg.reflectionless_residual(mh) for mh in herglotz)
    assert worst < 1e-8
    report(6, f"max |Re G00| over {len(herglotz)} torus points = {worst:.1e}")


def test_criterion_07_lieb_thirring():
    t0 = time.perf_counter()
    res = fg.lt_free_bound(PerturbationSpec(SingleSite(1, 3.0), "b"),
                           n_trunc=2000)
    assert len(res.eigenvalues) == 1
    assert abs(res.eigenvalues[0] - 10 / 3) < 1e-6
    assert abs(res.lhs - 8 / 3) < 1e-6
    assert abs(res.rhs - 3.0) < 1e-12
    assert res.holds
    for seed in range(100):
        spec = PerturbationSpec(RandomDecay(seed, 1.5, 0.5),
                                "both" if seed % 2 else "b")
        r = fg.lt_free_bound(spec, n_trunc=2000)
        assert r.holds, f"seed {seed}: lhs={r.lhs} > rhs={r.rhs}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(7, f"single-site eigenvalue 10/3, 8/3 <= 3; 100 random l1 "
              f"perturbations hold in {elapsed:.1f} s")


def test_criterion_08_szego_ratio(p2_torus):
    u = (3 + np.sqrt(5)) / 2
    val = fg.szego_ratio(fg.free_jacobi(), 3.0, 512)
    expect = u * u / (u * u - 1)
    assert abs(complex(val) - expect) < 1e-6

    # l1 tail beyond n=512 must sit inside the 1e-4 Cauchy budget:
    # sum_{n>512} 2*0.1*n^{-2.5} ~ 1e-5
    base = p2_torus.jacobi_params(1025)
    spec = PerturbationSpec(L1Decay(2.5, 0.1), "both")
    J = fg.apply_perturbation(base, spec, 1025)
    worst = 0.0
    for z in (3.0, -3.5, 2.5j, -1.0 + 2.0j, 4.0 - 1.0j):
        r1 = fg.szego_ratio(J, z, 512, reference=base)
        r2 = fg.szego_ratio(J, z, 1024, reference=base)
        worst = max(worst, abs(complex(r2) - complex(r1)))
    assert worst < 1e-4
    report(8, f"free ratio -> u^2/(u^2-1) within 1e-6; perturbed-torus "
              f"Cauchy gap |r_1024 - r_512| max {worst:.1e}")


def test_criterion_09_sum_rule_coherence():
    # Szego-class example: equilibrium (arcsine) density plus one atom at 3
    def theta_fn(j, th):
        return np.full_like(th, 0.8 / np.pi)

    mu = fg.measure_from_theta_density(E2, theta_fn, [(3.0, 0.2)])
    J = fg.strip_coefficients(mu, 1000, tol=1e-9)
    free = fg.free_jacobi()
    q500 = fg.a_product(J, 500, reference=free)
    q1000 = fg.a_product(J, 1000, reference=free)
    a_tail = abs(q1000 - q500)
    s500 = fg.b_sum(J, free, 500)
    s1000 = fg.b_sum(J, free, 1000)
    b_tail = abs(s1000 - s500)
    assert a_tail < 1e-3 and b_tail < 1e-3
    report(9, f"relative a-product tail {a_tail:.1e}, delta-b sum tail "
              f"{b_tail:.1e} at n = 1000 (both < 1e-3)")


def test_criterion_10_cesaro_decay(p2_torus):
    class LogDecay:
        def delta(self, n):
            n = np.asarray(n, float)
            return (-1.0) ** n / np.log(n + 1.0)

        def to_json(self):
            return {"kind": "log_decay"}

    J = fg.apply_perturbation(fg.free_jacobi(),
                              PerturbationSpec(LogDecay(), "b"), 440)
    c100 = fg.cesaro_distance(J, E2, 100)
    c400 = fg.cesaro_distance(J, E2, 400)
    assert c400 < c100 / 2

    ces = fg.cesaro_distance(p2_torus.params, P2, 5)
    assert ces < 1e-6
    report(10, f"Cesaro average {c400:.4f} at M=400 < half of {c100:.4f} at "
               f"M=100; torus point average {ces:.1e} < 1e-6")


def test_criterion_11_distance_floor_and_blindness(p2_torus):
    res = fg.dist_to_torus(p2_torus.params, P2, 3)
    assert res.value < 1e-4

    m = 6
    a, b = p2_torus.params.coeffs(80)
    b_pert = b.copy()
    b_pert[: m - 1] += 0.4
    cache = p2_torus.params.tail.cache
    J = fg.JacobiParams(a, b, fg.jacobi.ExtendTail(cache, 80))
    Jp = fg.JacobiParams(a, b_pert, fg.jacobi.ExtendTail(cache, 80))
    d_clean = fg.d_m(J, p2_torus.params, m)
    d_pert = fg.d_m(Jp, p2_torus.params, m)
    assert abs(d_clean - d_pert) < 1e-10
    r1 = fg.dist_to_torus(J, P2, m)
    r2 = fg.dist_to_torus(Jp, P2, m)
    assert abs(r1.value - r2.value) < 1e-10
    report(11, f"torus self-distance {res.value:.1e} < 1e-4; below-m "
               f"perturbation shifts d_m by {abs(r1.value - r2.value):.1e}")


def test_criterion_12_cross_form_consistency():
    eq = fg.solve_equilibrium(E2)
    rng = np.random.default_rng(17)

    # (2.6)-form vs dist^(1/2): term ratio is (|x| + 2)^(1/2) in [2, sqrt(8)]
    xs = np.concatenate([rng.uniform(2.001, 6, 500), rng.uniform(-6, -2.001, 500)])
    r_lt = np.sqrt(xs * xs - 4) / np.array(
        [fg.dist_to_set(E2, x) for x in xs]) ** 0.5
    assert r_lt.min() > 1.9 and r_lt.max() < 2.9  # recorded constants

    # Szego weights: (4-x^2)^(-1/2) vs dist(x, R\e)^(-1/2) on 1000 points
    xi = rng.uniform(-1.999, 1.999, 1000)
    ratio = np.sqrt(np.array([fg.dist_to_complement(E2, x) for x in xi])
                    / (4 - xi * xi))
    assert ratio.min() > 0.49 and ratio.max() < 0.7072

    # capacity-normalized a-product IS the plain product at C([-2,2]) = 1
    J = fg.JacobiParams(np.array([1.3, 0.8, 1.1]), np.zeros(3))
    plain = float(np.prod(J.coeffs(3)[0]))
    assert fg.a_product(J, 3, capacity=eq.capacity) == pytest.approx(plain,
                                                                     rel=1e-10)

    # Green's-function form (1.4) comparable to dist^(1/2) off e
    g_over_root = np.array([fg.green(eq, x) for x in xs]) / np.array(
        [fg.dist_to_set(E2, x) for x in xs]) ** 0.5
    assert g_over_root.min() > 0.5 and g_over_root.max() < 1.2
    report(12, f"two-sided constants: LT-form in [{r_lt.min():.2f}, "
               f"{r_lt.max():.2f}], weight ratio in [{ratio.min():.3f}, "
               f"{ratio.max():.4f}], G/dist^0.5 in [{g_over_root.min():.2f}, "
               f"{g_over_root.max():.2f}]")
