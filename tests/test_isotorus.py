from concurrent.futures import ThreadPoolExecutor
import math
from pathlib import Path
import sys

import numpy as np
from numpy.polynomial import polynomial as P
import pytest
from hypothesis import given, settings, strategies as st

import finitegap as fg
from finitegap.errors import AccuracyError, FiniteGapError
from finitegap.sumrules import L1Decay, PerturbationSpec, RandomDecay

import oracles
from conftest import random_band_set


E2 = fg.make_band_set([-2.0, 2.0])


# ---------------------------------------------------------------------------
# Dirichlet data


def test_dirichlet_validation(period2_set):
    with pytest.raises(FiniteGapError):
        fg.dirichlet_data(period2_set, [(5.0, 1)])  # outside the gap
    with pytest.raises(FiniteGapError):
        fg.dirichlet_data(period2_set, [(0.0, 2)])  # bad sheet
    with pytest.raises(FiniteGapError):
        fg.dirichlet_data(period2_set, [])  # wrong count


def test_dirichlet_json_round_trip(period2_set):
    dd = fg.dirichlet_data(period2_set, [(0.3, -1)])
    dd2 = fg.DirichletData.from_json(dd.to_json())
    assert dd2.gammas == dd.gammas and dd2.sheets == dd.sheets


def test_dirichlet_from_angles_hits_edges(period2_set):
    dd0 = fg.dirichlet_from_angles(period2_set, [0.0])
    assert dd0.gammas[0] == period2_set.gap(0)[0]
    ddpi = fg.dirichlet_from_angles(period2_set, [np.pi])
    assert ddpi.gammas[0] == period2_set.gap(0)[1]
    ddup = fg.dirichlet_from_angles(period2_set, [np.pi / 2])
    assert ddup.sheets[0] == 1
    dddn = fg.dirichlet_from_angles(period2_set, [3 * np.pi / 2])
    assert dddn.sheets[0] == -1


# ---------------------------------------------------------------------------
# minimal Herglotz functions


def _herglotz_bytes(build, e, dd):
    """(S_coeffs, c, pole_weights) as bytes, or the exception's type and text."""
    try:
        mh = build(e, dd)
    except Exception as exc:
        return type(exc), str(exc)
    return (mh.S_coeffs.tobytes(), np.float64(mh.c).tobytes(),
            mh.pole_weights.tobytes())


@pytest.mark.parametrize("ell", [0, 1, 2, 3, 4, 6, 8, 12, 16])
def test_minimal_herglotz_bit_identical_to_array_oracle(ell):
    # interior gammas on the drawn sheets and on all +1 sheets (a pole weight
    # in every gap), every gamma on a gap edge, and edges mixed with interior
    # points; unvalidated data with gammas inside the bands (R < 0) and with
    # one point too many must raise the oracle's errors
    for s in range(6):
        e = random_band_set(np.random.default_rng(1000 * ell + s), ell)
        dd = fg.random_dirichlet(e, np.random.default_rng(s))
        edges = fg.dirichlet_from_angles(e, np.arange(ell) % 2 * np.pi)
        mixed = fg.DirichletData(
            tuple(g if j % 2 else edges.gammas[j] for j, g in enumerate(dd.gammas)),
            dd.sheets)
        in_bands = fg.DirichletData(tuple(e.midpoints[:ell].tolist()), dd.sheets)
        too_many = fg.DirichletData(dd.gammas + (0.0,), dd.sheets + (1,))
        for d in (dd, fg.DirichletData(dd.gammas, (1,) * ell), edges, mixed,
                  in_bands, too_many):
            assert (_herglotz_bytes(fg.minimal_herglotz, e, d)
                    == _herglotz_bytes(oracles.minimal_herglotz_plain, e, d)), (ell, s, d)



def test_free_case_closed_form():
    mh = fg.minimal_herglotz(E2, fg.DirichletData((), ()))
    for z in (3.0, 1j, -2.5 + 0.1j):
        assert complex(mh.m(z)) == pytest.approx(complex(oracles.m_free(z)),
                                                 abs=1e-12)
    mu = fg.torus_measure(mh)
    assert complex(mh.m(3.0)) == pytest.approx(mu.m(3.0), abs=1e-10)


def test_free_measure_is_semicircle():
    mh = fg.minimal_herglotz(E2, fg.DirichletData((), ()))
    mu = fg.torus_measure(mh)
    for x in (-1.5, 0.0, 0.7):
        assert mu.density(x) == pytest.approx(np.sqrt(4 - x * x) / (2 * np.pi),
                                              rel=1e-10)
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_symmetric_measure_even_no_atoms(period2_set):
    dd = fg.dirichlet_data(period2_set, [(0.0, -1)])
    mh = fg.minimal_herglotz(period2_set, dd)
    mu = fg.torus_measure(mh)
    assert len(mu.point_masses) == 0
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-8)
    for t in (1.2, 1.6, 2.0):
        assert mu.density(t) == pytest.approx(mu.density(-t), rel=1e-10)


def test_all_minus_sheets_no_atoms():
    e = fg.make_band_set([-2, -0.5, 0.5, 1, 1.5, 2])
    dd = fg.dirichlet_data(e, [(0.0, -1), (1.2, -1)])
    mh = fg.minimal_herglotz(e, dd)
    mu = fg.torus_measure(mh)
    assert len(mu.point_masses) == 0
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-8)


def test_plus_sheet_gives_atom(period2_set):
    dd = fg.dirichlet_data(period2_set, [(0.0, +1)])
    mh = fg.minimal_herglotz(period2_set, dd)
    mu = fg.torus_measure(mh)
    assert len(mu.point_masses) == 1
    x0, w = mu.point_masses[0]
    assert x0 == 0.0
    # residue 2 c sqrt(|R(0)|); R(0) = 5 for this set
    assert w == pytest.approx(2 * mh.c * np.sqrt(5.0), abs=1e-12)
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-8)


def test_edge_dirichlet_degenerate(period2_set):
    beta = period2_set.gap(0)[0]  # = -1, a band edge
    for sheet in (-1, +1):
        dd = fg.dirichlet_data(period2_set, [(beta, sheet)])
        mh = fg.minimal_herglotz(period2_set, dd)
        mu = fg.torus_measure(mh)
        assert len(mu.point_masses) == 0  # edges never carry mass
        assert mu.total_mass() == pytest.approx(1.0, abs=1e-8)
        # S(gamma) = 0 is the degenerate condition
        assert abs(mh.S(beta)) < 1e-12


def test_m_herglotz_on_upper_half_plane(period2_set):
    rng = np.random.default_rng(12)
    dd = fg.dirichlet_data(period2_set, [(0.4, +1)])
    mh = fg.minimal_herglotz(period2_set, dd)
    for _ in range(300):
        z = complex(rng.uniform(-4, 4), 10 ** rng.uniform(-3, 1))
        assert complex(mh.m(z)).imag > 0


def test_m_matches_quadrature(period2_set):
    dd = fg.dirichlet_data(period2_set, [(0.7, -1)])
    mh = fg.minimal_herglotz(period2_set, dd)
    mu = fg.torus_measure(mh)
    for z in (3.0, 1j, -4.2 + 0.5j):
        assert complex(mh.m(z)) == pytest.approx(mu.m(z), abs=1e-9)


def test_m_asymptotic_normalization(period2_set):
    dd = fg.dirichlet_data(period2_set, [(0.4, +1)])
    mh = fg.minimal_herglotz(period2_set, dd)
    z = 1e5j
    assert abs(complex(z * mh.m(z)) - (-1.0)) < 1e-4


# ---------------------------------------------------------------------------
# torus Jacobi coefficients


def test_period2_coefficients(period2_torus):
    a, b = period2_torus.params.coeffs(100)
    s5 = np.sqrt(5.0)
    hi, lo = (s5 + 1) / 2, (s5 - 1) / 2
    assert np.abs(b).max() < 1e-8
    evens, odds = a[4:100:2], a[5:100:2]
    vals = {round(float(evens.mean()), 6), round(float(odds.mean()), 6)}
    assert vals == {round(hi, 6), round(lo, 6)}
    assert np.abs(evens - evens.mean()).max() < 1e-6
    assert np.abs(odds - odds.mean()).max() < 1e-6


def test_free_torus_point():
    tp = fg.torus_jacobi(E2, fg.DirichletData((), ()), 20)
    a, b = tp.params.coeffs(20)
    assert a == pytest.approx(np.ones(20), abs=1e-9)
    assert np.abs(b).max() < 1e-9


def test_periodicity_from_rational_harmonic(period2_set, period2_torus):
    eq = fg.solve_equilibrium(period2_set)
    p = fg.rational_harmonic_period(eq.harmonic_measures)
    assert p == 2
    a, b = period2_torus.params.coeffs(102)
    n = np.arange(5, 100)
    dev = np.abs(a[n + p - 1] - a[n - 1]) + np.abs(b[n + p - 1] - b[n - 1])
    assert dev.max() < 1e-6


def test_torus_regularity():
    e = fg.make_band_set([-1.9, -0.4, 0.6, 2.2])
    eq = fg.solve_equilibrium(e)
    dd = fg.dirichlet_data(e, [(0.1, +1)])
    tp = fg.torus_jacobi(e, dd, 300)
    a, _ = tp.params.coeffs(300)
    geo = np.exp(np.cumsum(np.log(a)) / np.arange(1, 301))
    assert abs(geo[-1] - eq.capacity) < 1e-2
    # capacity-normalized products stay in a fixed two-sided interval
    prods = np.exp(np.cumsum(np.log(a)) - np.arange(1, 301) * np.log(eq.capacity))
    assert prods.min() > 0.1 and prods.max() < 10.0


def test_szego_normalized_growth_bounded(period2_set, period2_torus):
    # |p_n(z)| e^{-n G(z)} stays in [delta, 1/delta]; delta recorded per point
    eq = fg.solve_equilibrium(period2_set)
    J = period2_torus.jacobi_params(501)
    for z in (3.0, -3.2, 1.5j):
        G = fg.green(eq, z)
        logp = fg.oprl_log_abs(J, 500, z)
        vals = logp - np.arange(501) * G
        delta = np.exp(-np.abs(vals).max())
        assert delta > 1e-3, f"z={z}: normalized growth left [delta, 1/delta]"


def test_jacobi_params_extension(period2_torus):
    J = period2_torus.jacobi_params(10)
    a, b = J.coeffs(40)  # forces tail extension through re-stripping
    s5 = np.sqrt(5.0)
    assert np.abs(np.sort(a[20:22]) - [(s5 - 1) / 2, (s5 + 1) / 2]).max() < 1e-6


def _stripping_cases():
    """Seeded (set, Dirichlet data) pairs for l = 0..4: interior points on
    random sheets, and every gamma on a gap edge."""
    rng = np.random.default_rng(31)
    cases = []
    for ell in range(5):
        for _ in range(2):
            e = random_band_set(rng, ell)
            cases.append((e, fg.random_dirichlet(e, rng)))
        cases.append((e, fg.dirichlet_from_angles(e, np.arange(ell) % 2 * np.pi)))
    return cases


def test_stripping_continued_fraction_reproduces_m():
    for e, dd in _stripping_cases():
        a, b = fg.torus_jacobi(e, dd, 80).params.coeffs(80)
        mh = fg.minimal_herglotz(e, dd)
        lo, hi = e.bands[0][0], e.bands[-1][1]
        for z in (hi + 1.0, lo - 0.8, (lo + hi) / 2 + 2j):
            got = oracles.continued_fraction_m(a, b, z)
            assert abs(got - complex(mh.m(z))) < 1e-12, (e.bands, dd, z)


def test_stripping_matches_lanczos_oracle():
    for e, dd in _stripping_cases():
        a, b = fg.torus_jacobi(e, dd, 128).params.coeffs(128)
        ar, br = oracles.torus_lanczos(fg.minimal_herglotz(e, dd), 128)
        assert max(np.abs(a - ar).max(), np.abs(b - br).max()) < 1e-8, (e.bands, dd)


def test_torus_point_near_gap_edge(period2_set):
    # a gamma 1e-10 (relative) from a band edge puts a boundary layer of width
    # ~1e-5 into the theta-density, too thin for its cosine coefficients;
    # exact stripping never builds the measure
    beta, alpha = period2_set.gap(0)
    for sheet in (-1, 1):
        near = fg.dirichlet_data(period2_set, [(beta + 1e-10 * (alpha - beta), sheet)])
        tp = fg.torus_jacobi(period2_set, near, 64)
        assert "measure" not in vars(tp)
        edge = fg.torus_jacobi(period2_set, fg.dirichlet_data(period2_set, [(beta, sheet)]), 64)
        a, b = tp.params.coeffs(64)
        a0, b0 = edge.params.coeffs(64)
        assert np.abs(a - a0).max() + np.abs(b - b0).max() < 1e-4
    with pytest.raises(AccuracyError):
        tp.measure


def test_stripping_tail_shared_between_threads(period2_set):
    # one torus tail extended from many threads must match a sequential run
    dd = fg.dirichlet_data(period2_set, [(0.3, +1)])
    ref_a, ref_b = fg.torus_jacobi(period2_set, dd, 400).params.coeffs(400)
    sizes = range(40, 401, 8)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            J = fg.torus_jacobi(period2_set, dd, 1).params
            with ThreadPoolExecutor(8) as pool:
                outs = list(pool.map(J.coeffs, sizes, timeout=120))
            for n, (a, b) in zip(sizes, outs):
                assert np.array_equal(a, ref_a[:n]) and np.array_equal(b, ref_b[:n])
    finally:
        sys.setswitchinterval(old)


def test_torus_tail_steps_only_what_is_read(period2_set, monkeypatch):
    # d_m reads m + 31 coefficients of a candidate built with m; stepping
    # on to 2m, as a re-strip's doubling would, is waste for large m
    calls = []
    step = fg.isotorus._StrippingTail.__call__
    monkeypatch.setattr(fg.isotorus._StrippingTail, "__call__",
                        lambda self, have, n: calls.append((have, n)) or step(self, have, n))
    J = fg.torus_jacobi(period2_set, fg.dirichlet_data(period2_set, [(0.3, +1)]),
                        100).params
    for n in (131, 120, 50):
        J.coeffs(n)
    assert calls == [(0, 100), (100, 131)]


def test_period2_stays_periodic_deep(period2_torus):
    a, b = period2_torus.params.coeffs(10_002)
    s5 = np.sqrt(5.0)
    assert np.abs(a[-2:] - a[-4:-2]).max() + np.abs(b[-2:] - b[-4:-2]).max() < 1e-10
    assert np.abs(np.sort(a[-2:]) - [(s5 - 1) / 2, (s5 + 1) / 2]).max() < 1e-10
    assert np.abs(b[-2:]).max() < 1e-10


# ---------------------------------------------------------------------------
# reflectionless residual


def test_reflectionless_free():
    mh = fg.minimal_herglotz(E2, fg.DirichletData((), ()))
    assert fg.reflectionless_residual(mh) < 1e-10


def test_reflectionless_two_band(period2_set):
    for entry in [(0.0, -1), (0.0, +1), (0.5, +1), (-0.8, -1)]:
        mh = fg.minimal_herglotz(period2_set, fg.dirichlet_data(period2_set, [entry]))
        assert fg.reflectionless_residual(mh) < 1e-8


def test_g00_real_in_gap(period2_set):
    # control: off the bands the same expression is genuinely real
    dd = fg.dirichlet_data(period2_set, [(0.5, -1)])
    mh = fg.minimal_herglotz(period2_set, dd)
    x = 0.1  # in the gap, away from gamma
    g = -1.0 / (complex(mh.m(x)) - complex(mh.m_second_sheet(x)))
    assert abs(g.real) > 1e-3
    assert abs(g.imag) < 1e-12


# ---------------------------------------------------------------------------
# d_m metric


def test_dm_identical_zero():
    J = fg.free_jacobi()
    assert fg.d_m(J, J, 1) == 0.0


def test_dm_constant_difference():
    eps = 1e-3
    J = fg.JacobiParams(np.ones(1), np.zeros(1),
                        fg.jacobi.PeriodicTail([1.0], [0.0]))
    Jp = fg.JacobiParams(np.array([1 + eps]), np.zeros(1),
                         fg.jacobi.PeriodicTail([1 + eps], [0.0]))
    expect = eps / (1 - np.exp(-1.0))
    assert fg.d_m(J, Jp, 3) == pytest.approx(expect, rel=1e-9)


def test_dm_decreasing_for_decaying_difference():
    delta = 0.5 / np.arange(1, 400) ** 1.2
    J = fg.JacobiParams(np.ones(399), np.zeros(399))
    Jp = fg.JacobiParams(np.ones(399), delta)
    vals = [fg.d_m(J, Jp, m) for m in (1, 4, 16, 64)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_dm_metric_axioms():
    rng = np.random.default_rng(21)
    for _ in range(20):
        heads = [fg.JacobiParams(1 + 0.3 * rng.uniform(-1, 1, 50),
                                 0.3 * rng.uniform(-1, 1, 50)) for _ in range(3)]
        J1, J2, J3 = heads
        m = int(rng.integers(1, 5))
        d12 = fg.d_m(J1, J2, m)
        d21 = fg.d_m(J2, J1, m)
        assert d12 == d21  # exact symmetry
        assert d12 <= fg.d_m(J1, J3, m) + fg.d_m(J3, J2, m) + 1e-12


def test_dm_kmax_reported():
    J = fg.free_jacobi()
    val, kmax = fg.isotorus._d_from(J, 1, J, 1)
    assert val == 0.0 and kmax >= 25


# ---------------------------------------------------------------------------
# dist_to_torus


def test_dist_gapless_is_free_distance():
    J = fg.JacobiParams(np.ones(3), np.array([0.5, 0.0, 0.0]))
    res = fg.dist_to_torus(J, E2, 1)
    assert res.value == pytest.approx(fg.d_m(J, fg.free_jacobi(), 1), abs=1e-14)


def test_dist_self_floor(period2_set, period2_torus):
    res = fg.dist_to_torus(period2_torus.params, period2_set, 3)
    assert res.value < 1e-4
    assert abs(res.dirichlet.gammas[0] - 0.0) < 1e-2


def test_dist_blind_below_m(period2_set, period2_torus):
    # perturb only indices < m; d_m to any torus candidate cannot see it
    m = 6
    a, b = period2_torus.params.coeffs(60)
    b_pert = b.copy()
    b_pert[:m - 1] += 0.3
    J = fg.JacobiParams(a, b, fg.jacobi.ExtendTail(
        period2_torus.params.tail.cache, 60))
    Jp = fg.JacobiParams(a, b_pert, fg.jacobi.ExtendTail(
        period2_torus.params.tail.cache, 60))
    assert abs(fg.d_m(J, Jp, m)) < 1e-10
    d1 = fg.d_m(J, period2_torus.params, m)
    d2 = fg.d_m(Jp, period2_torus.params, m)
    assert abs(d1 - d2) < 1e-10


def test_dist_free_from_two_band_torus(period2_set):
    # free coefficients are never close to the period-2 family
    J = fg.free_jacobi()
    for m in (1, 5):
        res = fg.dist_to_torus(J, period2_set, m)
        assert res.value > 0.3


def test_dist_two_gap_product_grid():
    e = fg.make_band_set([-2, -1, -0.3, 0.4, 1.1, 2])
    dd = fg.dirichlet_data(e, [(-0.6, -1), (0.7, +1)])
    tp = fg.torus_jacobi(e, dd, 48)
    res = fg.dist_to_torus(tp.params, e, 2)
    assert res.value < 1e-3
    assert res.value <= oracles.dist_to_torus_grid(tp.params, e, 2, 6)[0]
    # the witness is site-2 data: dd moved one site on
    want = fg.isotorus._move(e, dd, 1)
    assert np.abs(np.subtract(res.dirichlet.gammas, want.gammas)).max() < 0.05


E6 = fg.make_band_set([-2, -1, -0.3, 0.4, 1.1, 2])


def search_family(p2):
    """(J, set, m, Dirichlet data of J or None): 10 torus points on P2, 6 on
    the two-gap E6, and 18 P2 torus points perturbed by L1Decay(2, 0.3) or
    RandomDecay(s, 1.5, 0.5) at m = 2, 6, 12."""
    cases = []
    for e, count in ((p2, 10), (E6, 6)):
        for s in range(count):
            dd = fg.random_dirichlet(e, np.random.default_rng(s))
            cases.append((fg.torus_jacobi(e, dd, 48).params, e, 2, dd))
    seeds = iter(range(100, 118))
    for kind in (lambda s: L1Decay(2, 0.3), lambda s: RandomDecay(s, 1.5, 0.5)):
        for m in (2, 6, 12):
            for s in range(3):
                dd = fg.random_dirichlet(p2, np.random.default_rng(next(seeds)))
                J = fg.apply_perturbation(fg.torus_jacobi(p2, dd, 48).params,
                                          PerturbationSpec(kind(s), "both"), 64)
                cases.append((J, p2, m, None))
    return cases


def test_dist_search_family_against_powell_oracle(period2_set):
    # torus points are found to the d_m floor, perturbed points at least as
    # well as the grid + Powell route, in at most half its evaluations
    nfev = nfev_oracle = 0
    for J, e, m, dd in search_family(period2_set):
        res = fg.dist_to_torus(J, e, m)
        want, _, n_oracle = oracles.dist_to_torus_powell(J, e, m, grid_per_gap=8)
        if dd is not None:
            assert res.value <= 1e-12 and res.status == "floor", (dd, res)
        else:
            assert res.value <= want * (1 + 1e-6), (m, res, want)
        nfev += res.nfev
        nfev_oracle += n_oracle
    assert nfev <= nfev_oracle / 2, (nfev, nfev_oracle)


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("m, grid", [(2, 8), (2, 16), (40, 8), (200, 8)])
def test_dist_cold_start_finds_torus_point(seed, m, grid):
    # grid + Powell returned 8.1e-2 to 9.8e-2 on these; the site start is at
    # least as good as the product-grid route at grid 8 and 16
    dd = fg.random_dirichlet(E6, np.random.default_rng(seed))
    J = fg.torus_jacobi(E6, dd, 48).params
    res = fg.dist_to_torus(J, E6, m)
    assert res.value <= 1e-12
    assert res.value <= oracles.dist_to_torus_grid(J, E6, m, grid)[0]
    want = fg.isotorus._move(E6, dd, m - 1)
    assert res.dirichlet.sheets == want.sheets
    assert np.abs(np.subtract(res.dirichlet.gammas, want.gammas)).max() < 1e-8


@pytest.mark.parametrize("ell, set_seed, dd_seed, m", [(1, 1001, 1, 200),
                                                     (4, 4000, 0, 48)])
def test_witness_reproduces_the_value(ell, set_seed, dd_seed, m):
    # the reported data is the site-m point that the value is read from, so
    # the witness rebuilt from the JSON gives the value bit for bit
    e = random_band_set(np.random.default_rng(set_seed), ell)
    J = fg.torus_jacobi(e, fg.random_dirichlet(e, np.random.default_rng(dd_seed)),
                        48).params
    res = fg.dist_to_torus(J, e, m)
    dd = fg.DirichletData.from_json(res.to_json()["dirichlet"])
    W = fg.torus_jacobi(e, dd, 0).params
    assert fg.isotorus._d_from(J, m, W, 1)[0] == res.value


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_site_moves_round_trip(ell):
    # moves compose: k sites on and then j more is k + j sites on; k sites
    # on is the torus point whose coefficients are the original's from
    # index k + 1 on
    move = fg.isotorus._move
    for s in range(2):
        e = random_band_set(np.random.default_rng(1000 * ell + s), ell)
        shortest = min(e.gap(j)[1] - e.gap(j)[0] for j in range(ell))
        for dd in (fg.random_dirichlet(e, np.random.default_rng(s)),
                   fg.dirichlet_from_angles(e, np.arange(ell) % 2 * np.pi)):
            a, b = fg.torus_jacobi(e, dd, 240).params.coeffs(240)
            for k in (1, 7, 50, 200):
                on = move(e, dd, k)
                for j in (1, 7):
                    got, want = move(e, on, j), move(e, dd, k + j)
                    assert np.abs(np.subtract(got.gammas, want.gammas)).max() \
                        < 1e-9 * shortest, (ell, s, dd, k, j)
                    for i, g in enumerate(want.gammas):
                        if g not in e.gap(i):
                            assert got.sheets[i] == want.sheets[i], (ell, s, dd, k, j)
                ak, bk = fg.torus_jacobi(e, on, 40).params.coeffs(40)
                assert np.abs(ak - a[k:k + 40]).max() < 1e-9
                assert np.abs(bk - b[k:k + 40]).max() < 1e-9


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_site_start_is_the_moved_data(ell):
    # J's own coefficients at site m fix the data k = m - 1 sites on; for
    # l <= 2 the search ends at that one evaluation (from l = 3 on the block
    # of the site start, like that of the moved data, reaches 1e-12..1e-10,
    # around DM_TOL, so Levenberg-Marquardt runs from it, and the starts at
    # the sites before m follow only where its end stays at the stepper's
    # own floor above DM_TOL)
    for s in range(2):
        e = random_band_set(np.random.default_rng(1000 * ell + s), ell)
        shortest = min(e.gap(j)[1] - e.gap(j)[0] for j in range(ell))
        for dd in (fg.random_dirichlet(e, np.random.default_rng(s)),
                   fg.dirichlet_from_angles(e, np.arange(ell) % 2 * np.pi)):
            J = fg.torus_jacobi(e, dd, 48).params
            for m in (1, 2, 48, 200):
                a, b = J.coeffs(m + ell + 1)
                start = fg.isotorus._site_start(e, a[m - 1:], b[m - 1:])
                want = fg.isotorus._move(e, dd, m - 1)
                assert np.abs(np.subtract(start.gammas, want.gammas)).max() \
                    < 1e-9 * shortest, (ell, s, dd, m)
                for j, g in enumerate(want.gammas):
                    if g not in e.gap(j):
                        assert start.sheets[j] == want.sheets[j], (ell, s, dd, m)
                if ell <= 2:
                    res = fg.dist_to_torus(J, e, m)
                    assert (res.status, res.nfev, res.starts) == ("floor", 1, 1)
                    assert res.value < fg.isotorus.DM_TOL


def test_rejected_site_start_takes_the_grid_route(period2_set):
    # b_1 = 3 puts G's root right of the gap, which the strict read of
    # _move rejects; the site start clips it onto the gap's edge, and from
    # there the search reaches at least the grid + Powell oracle (2.5820 in
    # 24 evaluations, where the grid route made 50)
    J = fg.JacobiParams(np.ones(2), np.array([3.0, 0.0]))
    a, b = J.coeffs(3)
    assert oracles.site_start_strict(period2_set, a, b) is None
    assert fg.isotorus._site_start(period2_set, a, b).gammas == (1.0,)
    res = fg.dist_to_torus(J, period2_set, 1)
    want, _, n_oracle = oracles.dist_to_torus_powell(J, period2_set, 1, grid_per_gap=8)
    assert res.starts == 1 and res.nfev < n_oracle
    assert res.value <= want * (1 + 1e-6)


@pytest.mark.parametrize("ell, seed, edge", [(3, 3001, False), (4, 4000, True)])
def test_site_start_fit_before_the_grid(ell, seed, edge):
    # site starts whose block sits above DM_TOL: 1.4e-12, and 1.0e-6 for
    # edge data whose gamma is right to 2.4e-12 of the shortest gap; fitted
    # first, they end at the floor with no grid (the product-grid route had
    # 4096 and 65 536 points at grid 16)
    e = random_band_set(np.random.default_rng(seed), ell)
    dd = (fg.dirichlet_from_angles(e, np.arange(ell) % 2 * np.pi) if edge
          else fg.random_dirichlet(e, np.random.default_rng(1)))
    J = fg.torus_jacobi(e, dd, 48).params
    search = fg.isotorus._TorusSearch(J, e, 1)
    start = fg.isotorus._angles(e, fg.isotorus._site_start(e, *J.coeffs(ell + 2)))
    assert search.value(start) >= fg.isotorus.DM_TOL
    res = fg.dist_to_torus(J, e, 1)
    assert res.status == "floor" and res.nfev <= 20 and res.starts == 1, res
    assert res.value < fg.isotorus.DM_TOL


def test_dist_without_a_site_start_raises():
    # at m = 1 the one site start reads G's roots, and here both are complex
    J = fg.JacobiParams(np.array([1.7, 1.0, 1.2, 0.7]),
                        np.array([-0.4, -2.2, 2.95, 0.3]))
    assert fg.isotorus._site_start(E6, *J.coeffs(4)) is None
    with pytest.raises(AccuracyError, match="no site start at sites 1..1"):
        fg.dist_to_torus(J, E6, 1)


@pytest.mark.parametrize("ell, seed, dd_seed, m", [
    (4, 4000, 0, 2), (4, 4000, 0, 48), (4, 4000, 0, 200),
    (4, 4000, None, 2), (4, 4000, None, 48), (3, 3001, 1, 48), (3, 3001, 1, 200)])
def test_dist_stepper_floor_ends_in_few_evaluations(ell, seed, dd_seed, m):
    # torus points whose fits end at the stepper's own floor just above
    # DM_TOL (drawn data, and edge data where dd_seed is None): the grid-16
    # route then evaluated its whole grid, about 65 600 evaluations and
    # 20-24 s at l = 4 and about 4150 at l = 3; the site starts end at
    # 21-51 evaluations and 7e-13 to 1.8e-11
    e = random_band_set(np.random.default_rng(seed), ell)
    dd = (fg.dirichlet_from_angles(e, np.arange(ell) % 2 * np.pi) if dd_seed is None
          else fg.random_dirichlet(e, np.random.default_rng(dd_seed)))
    res = fg.dist_to_torus(fg.torus_jacobi(e, dd, 48).params, e, m)
    assert res.nfev <= 100 and res.value <= 1e-10, res


def discriminant_set(a, b):
    """Delta^-1([-2, 2]) for the periodic coefficients a, b: the band edges
    are the real roots of Delta -+ 2, Delta the trace of the monodromy of
    a_n p_(n+1) + b_n p_n + a_(n-1) p_(n-1) = z p_n over one period."""
    M = [[[1.0], [0.0]], [[0.0], [1.0]]]
    for n in range(len(a)):
        T = [[np.array([-b[n], 1.0]) / a[n], [-a[n - 1] / a[n]]], [[1.0], [0.0]]]
        M = [[P.polyadd(P.polymul(T[i][0], M[0][j]), P.polymul(T[i][1], M[1][j]))
              for j in range(2)] for i in range(2)]
    delta = P.polyadd(M[0][0], M[1][1])
    ends = np.concatenate([P.polyroots(P.polysub(delta, [s])) for s in (2.0, -2.0)])
    return fg.make_band_set(np.sort(ends.real))


def test_dist_site_start_from_the_site_before():
    # a period-4 set (l = 3) and a torus point perturbed on its first 300
    # coefficients: at m = 20 a root of G lies outside its gap, and the three
    # best grid-4 points all led to a wrong basin at 0.370; the clipped site
    # start and those from sites 19, 18 and 17, each moved on to m = 20,
    # find what the grid-8 route finds (8.297e-3 in 101 evaluations, where
    # grid 8 made 625)
    rng = np.random.default_rng(2)
    a = rng.uniform(0.6, 1.4, 4)
    e = discriminant_set(a, rng.uniform(-1, 1, 4))
    assert e.ell == 3
    tp = fg.torus_jacobi(e, fg.random_dirichlet(e, np.random.default_rng(7)), 300)
    a, b = tp.params.coeffs(300)
    k = np.arange(300)
    J = fg.JacobiParams(a + 0.3 * np.exp(-k / 6) * np.cos(k),
                        b + 0.3 * np.exp(-k / 6) * np.sin(1.7 * k),
                        fg.jacobi.ExtendTail(tp.params.tail.cache, 300))
    m = 20
    a, b = J.coeffs(m + e.ell + 1)
    assert oracles.site_start_strict(e, a[m - 1:], b[m - 1:]) is None
    res = fg.dist_to_torus(J, e, m)
    want, _, n_oracle = oracles.dist_to_torus_grid(J, e, m, 8)
    assert res.value <= 1.1 * want
    assert res.starts == e.ell + 1 and res.nfev < n_oracle


def perturbed_torus_point(ell, s):
    """(set, J): a random_band_set torus point with its first 400
    coefficients perturbed, a (1 + 0.15 e^{-k/6} cos k) and
    b + 0.3 e^{-k/6} sin 1.7k for k = 0..399."""
    e = random_band_set(np.random.default_rng(1000 * ell + s), ell)
    tp = fg.torus_jacobi(e, fg.random_dirichlet(e, np.random.default_rng(7 + s)), 400)
    a, b = tp.params.coeffs(400)
    k = np.arange(400)
    return e, fg.JacobiParams(a * (1 + 0.15 * np.exp(-k / 6) * np.cos(k)),
                              b + 0.3 * np.exp(-k / 6) * np.sin(1.7 * k),
                              fg.jacobi.ExtendTail(tp.params.tail.cache, 400))


@pytest.mark.parametrize("ell, ms", [(3, (10, 20, 40)), (4, (10,))],
                         ids=["l3", "l4_m10"])
def test_dist_search_family_against_grid_oracle(ell, ms):
    # off the torus, the site starts reach what the grid-8 route reaches
    # (l = 3: equal values; l = 4, m = 10, where grid 4 and grid 8
    # disagree: 1.0001x, equal, and 0.022 where grid 8 reads 0.033) in
    # 62-538 evaluations, where grid 8 makes 571-680 (l = 3) and about
    # 4200 (l = 4)
    for s in range(3):
        e, J = perturbed_torus_point(ell, s)
        for m in ms:
            res = fg.dist_to_torus(J, e, m)
            want, _, n_oracle = oracles.dist_to_torus_grid(J, e, m, 8)
            assert res.value <= 1.01 * want, (ell, s, m, res.value, want)
            assert res.nfev < n_oracle, (ell, s, m, res.nfev, n_oracle)


@pytest.mark.parametrize("ell, seed", [(3, 300), (4, 400)])
def test_dist_grid4_finds_many_gap_torus_points(ell, seed):
    # at grid 4 the three best grid starts missed 8 of these 12 (0.10-0.62);
    # the site starts find all of them
    for s in range(3):
        e = random_band_set(np.random.default_rng(seed + s), ell)
        J = fg.torus_jacobi(e, fg.random_dirichlet(e, np.random.default_rng(s)),
                            48).params
        for m in (1, 24):
            res = fg.dist_to_torus(J, e, m)
            assert res.value <= 1e-11, (ell, s, m, res)


def test_gap_points_reject_roots_off_the_gaps(period2_set):
    # the reader of _move and the site start: z^2 + 1 has no real root and
    # z - 3 lies right of P2's gap (-1, 1); a root within 1e-9 of the gap's
    # length outside it lands on the edge
    gap_points = fg.isotorus._gap_points
    S = [0.0, 0.0, 1.0]
    with pytest.raises(AccuracyError, match="off the real line"):
        gap_points(fg.make_band_set([-3, -2, -1, 1, 2, 3]), [1.0, 0.0, 1.0],
                   [0.0, 0.0, 0.0, 1.0])
    with pytest.raises(AccuracyError, match="outside gap 0"):
        gap_points(period2_set, [-3.0, 1.0], S)
    assert gap_points(period2_set, [-(1 + 1e-10), 1.0], S).gammas == (1.0,)
    with pytest.raises(AccuracyError, match="outside gap 0"):
        gap_points(period2_set, [-(1 + 1e-8), 1.0], S)


@pytest.mark.parametrize("m", [2, 200])
def test_search_evaluation_steps_one_block(monkeypatch, m):
    # the search runs at site m: one evaluation steps DM_BLOCK coefficients
    # whatever m is
    steps = 0
    step = fg.isotorus._StrippingTail._step

    def counted(self, index):
        nonlocal steps
        steps += 1
        return step(self, index)

    J = fg.torus_jacobi(E6, fg.random_dirichlet(E6, np.random.default_rng(2)),
                        48).params
    J.coeffs(m + fg.isotorus.DM_BLOCK)
    search = fg.isotorus._TorusSearch(J, E6, m)
    monkeypatch.setattr(fg.isotorus._StrippingTail, "_step", counted)
    search.residual(np.array([1.0, 4.0]))
    assert steps == fg.isotorus.DM_BLOCK == 32


def test_dist_gapless_uses_the_sets_own_point():
    # on [-1, 3] the torus is the single point a = 1, b = 1
    e = fg.make_band_set([-1.0, 3.0])
    J = fg.JacobiParams(np.ones(5), np.ones(5),
                        fg.jacobi.PeriodicTail([1.0], [1.0]))
    assert fg.dist_to_torus(J, e, 3).value < 1e-12
    assert fg.cesaro_distance(J, e, 5) < 1e-12


def test_dist_evaluation_counts(monkeypatch, period2_set, period2_torus):
    # the benchmark's distance command: a torus point, found at its site start
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import cli_configs
    from finitegap import cli
    config = dict(cli_configs(43, tiny=False))["distance"]
    res = fg.dist_to_torus(cli._jacobi_from_config(config["jacobi"]),
                           cli._bands_from_config(config), config["m"])
    assert res.status == "floor" and res.nfev == 1

    # a torus point's Cesaro average: each m after the first starts at the
    # previous witness and ends there
    results = []

    def recorded(*args, **kwargs):
        results.append(fg.isotorus.dist_to_torus(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(fg.sumrules, "dist_to_torus", recorded)
    assert fg.cesaro_distance(period2_torus.params, period2_set, 5) < 1e-6
    assert [r.starts for r in results] == [1] * 5
    assert all(r.status == "floor" for r in results)
    assert all(r.nfev == 1 for r in results[1:])


def test_dist_polish_cap_raises(monkeypatch, period2_set):
    # linearized steps cut to a thousandth never reach the L1 minimum;
    # _polish imports linprog from scipy.optimize when it runs
    import scipy.optimize
    linprog = scipy.optimize.linprog

    def short_steps(c, A_eq, **kwargs):
        lp = linprog(c, A_eq=A_eq, **kwargs)
        lp.x[:A_eq.shape[1] - 2 * A_eq.shape[0]] *= 1e-3
        return lp

    monkeypatch.setattr(scipy.optimize, "linprog", short_steps)
    dd = fg.random_dirichlet(period2_set, np.random.default_rng(100))
    J = fg.apply_perturbation(fg.torus_jacobi(period2_set, dd, 48).params,
                              PerturbationSpec(L1Decay(2, 0.3), "both"), 64)
    with pytest.raises(AccuracyError, match="did not converge in"):
        fg.dist_to_torus(J, period2_set, 2)


# ---------------------------------------------------------------------------
# the scalar stripping step against the array recursion


def _strip_both(mh, n):
    """(a bytes, b bytes, error message) of the library stepper and of the
    array-recursion oracle, each stepped one coefficient at a time up to n,
    so a breakdown keeps the coefficients made before it."""
    out = []
    for cls in (fg.isotorus._StrippingTail, oracles.StrippingTailPlain):
        step = cls(mh)
        a, b, err = [], [], None
        try:
            for have in range(n):
                ak, bk = step(have, have + 1)
                a += ak.tolist()
                b += bk.tolist()
        except AccuracyError as exc:
            err = str(exc)
        out.append((np.array(a).tobytes(), np.array(b).tobytes(), err))
    return out


@pytest.mark.parametrize("ell", [0, 1, 2, 4, 8, 12, 16])
def test_stripping_tail_bit_identical_to_array_oracle(ell):
    # interior gammas on the drawn sheets, on all +1 and on all -1 sheets,
    # and every gamma on a gap edge; many-gap sets break down early (ROADMAP
    # item 2), and then both raise the same error at the same step
    for s in range(2):
        e = random_band_set(np.random.default_rng(1000 * ell + s), ell)
        dd = fg.random_dirichlet(e, np.random.default_rng(s))
        cases = [dd, fg.DirichletData(dd.gammas, (1,) * ell),
                 fg.DirichletData(dd.gammas, (-1,) * ell),
                 fg.dirichlet_from_angles(e, np.arange(ell) % 2 * np.pi)]
        for dd in cases:
            mh = fg.minimal_herglotz(e, dd)
            got, want = _strip_both(mh, 400)
            assert got == want, (ell, s, dd)
            if got[2] is None:
                # and through the public torus point
                a, b = fg.torus_jacobi(e, dd, 400).params.coeffs(400)
                ar, br = oracles.stripping_tail_plain(mh, 400)
                assert a.tobytes() == ar.tobytes() and b.tobytes() == br.tobytes()


@pytest.mark.parametrize("ell, set_seed, dd_seed, step, msg", [
    (12, 12004, 4, 21, "stripping step 21: a^2 = -19.40439427657202"),
    (16, 16000, 0, 8, None),
])
def test_stripping_breakdown_matches_array_oracle(ell, set_seed, dd_seed, step, msg):
    e = random_band_set(np.random.default_rng(set_seed), ell)
    mh = fg.minimal_herglotz(e, fg.random_dirichlet(e, np.random.default_rng(dd_seed)))
    got, want = _strip_both(mh, 400)
    assert got == want
    assert got[2].startswith(f"stripping step {step}: ")
    assert len(got[0]) == (step - 1) * 8
    if msg is not None:
        assert got[2] == msg


def test_torus_breakdown_repeats_at_its_step():
    # a failed stretch leaves the stepper where the stored sequence ends, so
    # asking again fails at the same step with the same message
    e = random_band_set(np.random.default_rng(12004), 12)
    dd = fg.random_dirichlet(e, np.random.default_rng(4))
    J = fg.torus_jacobi(e, dd, 15).params
    for n in (30, 25):
        with pytest.raises(AccuracyError, match="^stripping step 21: "):
            J.coeffs(n)
    a, b = J.coeffs(15)
    got = _strip_both(fg.minimal_herglotz(e, dd), 15)[0]
    assert (a.tobytes(), b.tobytes()) == got[:2]


def test_torus_nonfinite_step_rewinds(period2_set):
    # a step with kappa = -inf (a = inf) fails in the stepper, which rewinds,
    # so the next read continues the sequence from where it ends
    dd = fg.dirichlet_data(period2_set, [(0.3, +1)])
    tp = fg.torus_jacobi(period2_set, dd, 10)
    stepper = tp._coeffs._extend
    e2, stepper.e2 = stepper.e2, -math.inf
    with pytest.raises(AccuracyError, match="^stripping step 11: "):
        tp.params.coeffs(12)
    stepper.e2 = e2
    a, b = tp.params.coeffs(40)
    want_a, want_b = fg.torus_jacobi(period2_set, dd, 40).params.coeffs(40)
    assert (a.tobytes(), b.tobytes()) == (want_a.tobytes(), want_b.tobytes())


def test_dist_to_torus_bit_identical_with_array_oracle(monkeypatch, period2_set,
                                                       period2_torus):
    # the period-2 searches of test_dist_self_floor and
    # test_dist_free_from_two_band_torus
    cases = [(period2_torus.params, 3), (fg.free_jacobi(), 1), (fg.free_jacobi(), 5)]
    got = [fg.dist_to_torus(J, period2_set, m) for J, m in cases]
    monkeypatch.setattr(fg.isotorus, "_StrippingTail", oracles.StrippingTailPlain)
    want = [fg.dist_to_torus(J, period2_set, m) for J, m in cases]
    for r, w in zip(got, want):
        assert r.value == w.value
        assert r.dirichlet == w.dirichlet
