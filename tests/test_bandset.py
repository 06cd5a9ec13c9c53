import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import finitegap as fg
from finitegap.errors import DomainError, FiniteGapError
from finitegap.quadrature import cos_series_resolved, inv_joukowski

import oracles
from conftest import random_band_set


# ---------------------------------------------------------------------------
# make_band_set


def test_single_interval():
    e = fg.make_band_set([-2, 2])
    assert e.ell == 0
    assert e.bands == ((-2.0, 2.0),)


def test_two_bands_ordering():
    e = fg.make_band_set([-2, -1, 1, 2])
    assert e.ell == 1
    assert e.bands == ((-2.0, -1.0), (1.0, 2.0))
    assert e.gap(0) == (-1.0, 1.0)


def test_touching_bands_rejected():
    with pytest.raises(FiniteGapError, match="touching"):
        fg.make_band_set([-2, -1, -1, 2])


def test_zero_length_band_rejected():
    with pytest.raises(FiniteGapError):
        fg.make_band_set([-2, -2, 1, 2])


def test_odd_count_rejected():
    with pytest.raises(FiniteGapError):
        fg.make_band_set([0, 1, 2])


def test_nonfinite_rejected():
    with pytest.raises(FiniteGapError):
        fg.make_band_set([0, np.inf])


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=8))
@settings(max_examples=200, deadline=None)
def test_make_band_set_validates_anything(pts):
    try:
        e = fg.make_band_set(pts)
    except FiniteGapError:
        return
    assert len(pts) % 2 == 0
    flat = e.endpoints
    assert np.all(np.diff(flat) > 0)


def test_R_sign_structure():
    e = fg.make_band_set([-2, -1, 0.5, 2])
    for j in range(e.n_bands):
        a, b = e.bands[j]
        xs = np.linspace(a, b, 41)[1:-1]
        assert np.all(e.R(xs) < 0)
    beta, alpha = e.gap(0)
    xs = np.linspace(beta, alpha, 21)[1:-1]
    assert np.all(e.R(xs) > 0)
    assert e.R(np.array(3.0)) > 0 and e.R(np.array(-3.0)) > 0


def test_R_coeffs_cached_and_read_only():
    e = fg.make_band_set([-2, -1, 0.5, 2])
    c = e.R_coeffs
    assert c is e.R_coeffs
    assert np.array_equal(c, np.polynomial.polynomial.polyfromroots(e.endpoints))
    with pytest.raises(ValueError):
        c[0] = 1.0


def test_equilibrium_cached_and_read_only(monkeypatch):
    calls = []
    solve = fg.bandset.solve_equilibrium

    def counted(e):
        calls.append(e)
        return solve(e)

    monkeypatch.setattr(fg.bandset, "solve_equilibrium", counted)
    e = fg.make_band_set([-2, -1, 0.5, 2])
    eq = e.equilibrium
    assert eq is e.equilibrium and calls == [e]
    assert eq.capacity == solve(e).capacity
    for x in (eq.gap_zeros, eq.harmonic_measures, *eq.band_coeffs):
        with pytest.raises(ValueError):
            x[0] = 1.0


def test_root_products_mpmath_oracle_many_gaps():
    # 50-digit products over the same float64 roots, up to l = 16 gaps
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(16)
    for ell in (0, 1, 3, 7, 12, 16):
        e = random_band_set(rng, ell)
        lo, hi = e.hull
        t = rng.uniform(lo - 1.0, hi + 1.0, 25)
        pts = list(e.endpoints)
        zeros = [rng.uniform(*e.gap(j)) for j in range(ell)]
        eq = fg.EquilibriumData(e, np.array(zeros), 0.0, 1.0, np.ones(ell + 1), (), 0)
        cases = [(e.R(t), pts), (eq.q_poly(t), zeros)]
        cases += [(e.rest_product(j, t), pts[:2 * j] + pts[2 * j + 2:])
                  for j in range(e.n_bands)]
        cases += [(e.gap_rest_product(j, t), pts[:2 * j + 1] + pts[2 * j + 3:])
                  for j in range(ell)]
        for got, roots in cases:
            want = oracles.root_product_mp(t, roots)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (ell, len(roots))


def test_json_round_trip():
    e = fg.make_band_set([-2, -1, 1, 2])
    assert fg.FiniteGapSet.from_json(e.to_json()) == e


# ---------------------------------------------------------------------------
# equilibrium data


def test_single_band_gapless(eq_single):
    assert len(eq_single.gap_zeros) == 0
    assert eq_single.capacity == pytest.approx(1.0, abs=1e-10)
    assert eq_single.robin_constant == pytest.approx(0.0, abs=1e-10)
    assert eq_single.harmonic_measures == pytest.approx([1.0], abs=1e-10)


def test_symmetric_two_band(eq_twoband):
    # symmetry forces the gap zero to the origin
    assert eq_twoband.gap_zeros == pytest.approx([0.0], abs=1e-12)
    assert eq_twoband.capacity == pytest.approx(np.sqrt(3) / 2, abs=1e-9)
    assert eq_twoband.harmonic_measures == pytest.approx([0.5, 0.5], abs=1e-10)


def test_three_band_against_frozen_energy_oracle():
    # frozen from oracles.energy_minimization at 500 cells/band, 5000 iterations
    e = fg.make_band_set([-2, -0.5, 0.5, 1, 1.5, 2])
    eq = fg.solve_equilibrium(e)
    oracle_zeros = [0.00687296, 1.26170236]
    oracle_hm = [0.50803222, 0.19795613, 0.29401166]
    assert eq.gap_zeros == pytest.approx(oracle_zeros, abs=1e-3)
    assert eq.harmonic_measures == pytest.approx(oracle_hm, abs=1e-3)


def test_live_energy_oracle_two_band():
    e = fg.make_band_set([-1.7, -0.3, 0.9, 2.4])
    eq = fg.solve_equilibrium(e)
    x, h, bi, rho, E, hm = oracles.energy_minimization([[-1.7, -0.3], [0.9, 2.4]],
                                                       cells_per_band=250,
                                                       iters=3000)
    assert np.abs(hm - eq.harmonic_measures).max() < 1e-3
    z = oracles.gap_zeros_from_discrete_density(
        np.array([[-1.7, -0.3], [0.9, 2.4]]), x, h, bi, rho)
    assert np.abs(z - eq.gap_zeros).max() < 1e-3
    assert abs(np.exp(-E) - eq.capacity) < 1e-3


def test_live_energy_oracle_random_three_band():
    rng = np.random.default_rng(31)
    e = random_band_set(rng, 2)
    eq = fg.solve_equilibrium(e)
    bands = [list(b) for b in e.bands]
    x, h, bi, rho, E, hm = oracles.energy_minimization(bands,
                                                       cells_per_band=250,
                                                       iters=3000)
    assert np.abs(hm - eq.harmonic_measures).max() < 1e-3


def test_density_closed_form_single_band(eq_single):
    # arcsine density 1/(pi sqrt(4-x^2))
    assert fg.equilibrium_density(eq_single, 0.0) == pytest.approx(1 / (2 * np.pi),
                                                                   abs=1e-12)
    for x in (-1.3, 0.4, 1.9):
        expect = 1.0 / (np.pi * np.sqrt(4 - x * x))
        assert fg.equilibrium_density(eq_single, x) == pytest.approx(expect, rel=1e-12)


def test_density_symmetry(eq_twoband):
    for t in (1.2, 1.5, 1.9):
        assert fg.equilibrium_density(eq_twoband, t) == pytest.approx(
            fg.equilibrium_density(eq_twoband, -t), rel=1e-12)


def test_density_domain_errors(eq_twoband):
    with pytest.raises(DomainError):
        fg.equilibrium_density(eq_twoband, 0.0)
    with pytest.raises(DomainError):
        fg.equilibrium_density(eq_twoband, 1.0)  # endpoint


@pytest.mark.parametrize("ell", [0, 1, 2, 4, 8])
def test_density_array_bit_identical_to_scalar_route(ell):
    # interior grids and points 1e-12 from every edge, shuffled across the
    # bands and shaped 2-D: each element equals the scalar route bit for bit
    e = random_band_set(np.random.default_rng(100 + ell), ell)
    eq = fg.solve_equilibrium(e)
    x = np.concatenate([np.r_[a + 1e-12, np.linspace(a, b, 19)[1:-1], b - 1e-12]
                        for a, b in e.bands])
    x = np.random.default_rng(ell).permutation(x).reshape(-1, 1)
    w = fg.equilibrium_density(eq, x)
    assert w.shape == x.shape
    want = np.array([[oracles.equilibrium_density_plain(eq, float(t))] for t in x[:, 0]])
    assert w.tobytes() == want.tobytes()
    got = np.array([[fg.equilibrium_density(eq, float(t))] for t in x[:, 0]])
    assert got.tobytes() == want.tobytes()


def test_density_array_domain_errors(eq_twoband):
    inside = [-1.5, 1.2, 1.9]
    for bad in (0.0, -2.0, -1.0, 1.0, 2.0, 3.0, -np.inf, np.inf, np.nan):
        with pytest.raises(DomainError, match=f"^{bad} is not interior"):
            fg.equilibrium_density(eq_twoband, np.array(inside + [bad]))
    w = fg.equilibrium_density(eq_twoband, 1.5)
    assert type(w) is float
    assert type(fg.equilibrium_density(eq_twoband, np.float64(1.5))) is float
    assert fg.equilibrium_density(eq_twoband, np.array(1.5)) == w
    assert fg.equilibrium_density(eq_twoband, np.empty(0)).shape == (0,)


def test_density_integrates_to_one(eq_twoband):
    # quadrature oracle: integrate w over both bands with the grid machinery
    grid = oracles.quadrature_grid(eq_twoband.set, 512)
    total = 0.0
    for j in range(2):
        q = np.abs(eq_twoband.q_poly(grid.band_nodes[j]))
        total += np.sum(grid.band_weights[j] * q) / np.pi
    assert total == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# potential / green


def test_potential_frostman(eq_single, eq_twoband):
    for eq in (eq_single, eq_twoband):
        for j in range(eq.set.n_bands):
            a, b = eq.set.bands[j]
            xs = np.linspace(a, b, 337)
            phi = fg.potential(eq, xs.astype(complex))
            assert np.abs(phi - eq.robin_constant).max() < 1e-6


def test_potential_asymptotics(eq_single):
    assert fg.potential(eq_single, 1e6) == pytest.approx(-np.log(1e6), abs=1e-5)


def test_potential_in_gap_below_robin(eq_twoband):
    assert fg.potential(eq_twoband, 0.0) < eq_twoband.robin_constant


def test_green_zero_on_set(eq_twoband):
    xs = np.concatenate([np.linspace(a, b, 101) for a, b in eq_twoband.set.bands])
    g = fg.green(eq_twoband, xs.astype(complex))
    assert np.abs(g).max() < 1e-8


def test_green_single_band_closed_form(eq_single):
    assert fg.green(eq_single, 3.0) == pytest.approx(np.log((3 + np.sqrt(5)) / 2),
                                                     abs=1e-10)
    zs = [3.0, -2.5, 1j, 0.3 + 0.2j, -4.0 + 1e-3j]
    for z in zs:
        assert fg.green(eq_single, z) == pytest.approx(
            float(oracles.green_single_band(z)), abs=1e-9)


def test_green_positive_off_set(eq_twoband):
    rng = np.random.default_rng(7)
    count = 0
    while count < 1000:
        z = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        if z.imag == 0 and fg.dist_to_set(eq_twoband.set, z.real) == 0:
            continue
        if abs(z.imag) < 1e-3 and fg.dist_to_set(eq_twoband.set, z.real) < 1e-3:
            continue
        assert fg.green(eq_twoband, z) > 0
        count += 1


def test_green_asymptotics(eq_twoband):
    expect = np.log(1e6) - np.log(eq_twoband.capacity)
    assert fg.green(eq_twoband, 1e6) == pytest.approx(expect, abs=1e-5)


def test_capacity_two_band_closed_form(eq_twoband):
    assert eq_twoband.capacity == pytest.approx(
        oracles.symmetric_two_band_capacity(1.0, 2.0), abs=1e-9)


def test_affine_covariance():
    rng = np.random.default_rng(3)
    base = fg.make_band_set([-2, -0.7, 0.3, 1.4])
    eq = fg.solve_equilibrium(base)
    for _ in range(3):
        s, t = rng.uniform(0.5, 2.0), rng.uniform(-1, 1)
        moved = fg.make_band_set([s * x + t for x in base.endpoints])
        eq2 = fg.solve_equilibrium(moved)
        assert eq2.capacity == pytest.approx(s * eq.capacity, rel=1e-8)
        assert eq2.harmonic_measures == pytest.approx(eq.harmonic_measures,
                                                      abs=1e-8)
        assert eq2.gap_zeros == pytest.approx(s * eq.gap_zeros + t, abs=1e-8)


def test_equilibrium_runtime():
    import time
    rng = np.random.default_rng(11)
    for n_gaps in (0, 1, 2, 3):
        e = random_band_set(rng, n_gaps)
        t0 = time.perf_counter()
        eq = fg.solve_equilibrium(e)
        assert time.perf_counter() - t0 < 1.0
        assert abs(eq.harmonic_measures.sum() - 1) < 1e-8


# ---------------------------------------------------------------------------
# distances, inverse Joukowski, rational periods


def test_dist_examples():
    e1 = fg.make_band_set([-2, 2])
    assert fg.dist_to_set(e1, 3.0) == 1.0
    assert fg.dist_to_complement(e1, 0.0) == 2.0
    e2 = fg.make_band_set([-2, -1, 1, 2])
    assert fg.dist_to_set(e2, 0.0) == 1.0
    assert fg.dist_to_complement(e2, 0.0) == 0.0
    assert fg.dist_to_set(e2, 1.5) == 0.0
    assert fg.dist_to_complement(e2, 1.5) == 0.5


def test_joukowski_examples():
    assert inv_joukowski(2.0 / 2) == pytest.approx(1.0)
    assert inv_joukowski(2.5 / 2) == pytest.approx(0.5)


@given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                          allow_nan=False, allow_infinity=False))
@example(complex(-2.0, -5e-324))  # x = -2.5 - 0j after halving
@settings(max_examples=200, deadline=None)
def test_joukowski_round_trip(z):
    x = z + 1 / z
    w = inv_joukowski(x / 2)
    assert abs(w) <= 1 + 1e-12
    # z and 1/z map to the same x; the inverse returns the one inside the disk
    assert min(abs(w - z), abs(w - 1 / z)) < 1e-6 * max(1.0, abs(z))


def test_rational_period_examples():
    assert fg.rational_harmonic_period([0.5, 0.5]) == 2
    assert fg.rational_harmonic_period([1.0]) == 1
    golden = (np.sqrt(5) - 1) / 2
    assert fg.rational_harmonic_period([1 - golden, golden],
                                       max_denominator=50) is None


@given(st.integers(2, 40), st.integers(1, 39))
@settings(max_examples=100, deadline=None)
def test_rational_period_exact_rationals(p, k):
    k = k % p
    if k == 0:
        k = 1
    if k == p:
        return
    omega = np.array([k / p, 1 - k / p])
    found = fg.rational_harmonic_period(omega, max_denominator=p)
    assert found is not None and found <= p
    assert np.abs(omega - np.round(omega * found) / found).max() < 1e-6


# ---------------------------------------------------------------------------
# quadrature grid


def test_quadrature_grid_invariants(eq_twoband):
    grid = oracles.quadrature_grid(eq_twoband.set, 128)
    for j in range(2):
        a, b = eq_twoband.set.bands[j]
        assert np.all(grid.band_nodes[j] > a) and np.all(grid.band_nodes[j] < b)
        assert np.all(grid.band_weights[j] > 0)
    beta, alpha = eq_twoband.set.gap(0)
    assert np.all(grid.gap_nodes[0] > beta) and np.all(grid.gap_nodes[0] < alpha)
    assert np.all(grid.gap_weights[0] > 0)


def test_gap_conditions_hold(eq_twoband):
    # int_gap Q/sqrt(R) = 0 is the defining property of the gap zeros
    grid = oracles.quadrature_grid(eq_twoband.set, 512)
    val = np.sum(grid.gap_weights[0] * eq_twoband.q_poly(grid.gap_nodes[0]))
    assert abs(val) < 1e-12
    # against the 30-digit oracle: seeded sets with
    # l = 1..8, a near-touching pair of bands and a very short band
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(8)
    sets = [random_band_set(rng, ell) for ell in range(1, 9)]
    sets += [fg.make_band_set([-2, -1, -0.999, 1, 1.5, 2]),
             fg.make_band_set([-2, -1, 0.3, 0.3001, 1, 2])]
    for e in sets:
        eq = fg.solve_equilibrium(e)
        for j in range(e.ell):
            signed, total = oracles.gap_integral_mp(e, eq.gap_zeros, j)
            assert abs(signed) <= 1e-12 * total, (e.bands, j)


def test_band_series_resolved_and_trimmed(eq_single, eq_twoband, period2_set):
    # band series come trimmed from adaptive_cos_coeffs, not as a full DCT grid
    for eq in (eq_single, eq_twoband, fg.solve_equilibrium(period2_set)):
        for c in eq.band_coeffs:
            assert cos_series_resolved(c) and len(c) < 256
