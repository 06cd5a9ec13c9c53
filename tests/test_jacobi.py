from concurrent.futures import ThreadPoolExecutor
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import finitegap as fg
from finitegap.errors import AccuracyError, MeasureError
from finitegap.jacobi import PeriodicTail, _rkpw, _stieltjes_rkpw
from finitegap.quadrature import cos_series_resolved
from finitegap.sumrules import PerturbationSpec, RandomDecay

import oracles


E2 = fg.make_band_set([-2.0, 2.0])


# ---------------------------------------------------------------------------
# JacobiParams plumbing


def test_free_coeffs():
    J = fg.free_jacobi()
    a, b = J.coeffs(5)
    assert np.all(a == 1) and np.all(b == 0)
    assert J.a(100) == 1.0 and J.b(100) == 0.0


def test_periodic_tail():
    J = fg.JacobiParams(np.array([2.0]), np.array([0.5]),
                        PeriodicTail([1.5, 0.5], [0.0, -1.0]))
    a, b = J.coeffs(6)
    assert list(a) == [2.0, 1.5, 0.5, 1.5, 0.5, 1.5]
    assert list(b) == [0.5, 0.0, -1.0, 0.0, -1.0, 0.0]


def test_index_below_one_rejected():
    # n <= 0 must not index the head from its end
    J = fg.JacobiParams(np.array([2.0, 1.5]), np.array([0.5, -0.5]))
    assert J.a(1) == 2.0 and J.b(2) == -0.5
    for n in (0, -1):
        with pytest.raises(ValueError):
            J.a(n)
        with pytest.raises(ValueError):
            J.b(n)


def test_positive_a_enforced():
    with pytest.raises(ValueError):
        fg.JacobiParams(np.array([0.0]), np.array([0.0]))


def test_json_round_trip():
    J = fg.JacobiParams(np.array([2.0, 1.0]), np.array([0.5, 0.0]),
                        PeriodicTail([1.5], [0.25]))
    J2 = fg.JacobiParams.from_json(J.to_json())
    a, b = J2.coeffs(5)
    assert list(a) == [2.0, 1.0, 1.5, 1.5, 1.5]
    assert list(b) == [0.5, 0.0, 0.25, 0.25, 0.25]


def test_csv_emitter(tmp_path):
    from finitegap.jacobi import write_coeff_csv
    path = tmp_path / "coeffs.csv"
    write_coeff_csv(fg.free_jacobi(), 3, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "n,a_n,b_n"
    assert lines[1].startswith("1,1,")


# ---------------------------------------------------------------------------
# orthonormal polynomials


def test_oprl_hand_recursion():
    # free: p_0 = 1, p_1 = z, p_2 = z^2 - 1
    p = fg.oprl_eval(fg.free_jacobi(), 2, 2.0)
    assert p == pytest.approx([1.0, 2.0, 3.0])


def test_oprl_n0():
    assert fg.oprl_eval(fg.free_jacobi(), 0, 17.0) == pytest.approx([1.0])


def test_oprl_free_band_bound():
    J = fg.free_jacobi()
    for k in (0.3, 1.0, 2.5):
        z = 2 * np.cos(k)
        p = fg.oprl_eval(J, 1000, z)
        assert np.abs(p).max() <= 1 / abs(np.sin(k)) + 1e-9
        # closed form sin((n+1)k)/sin k
        n = np.arange(1001)
        assert np.abs(p - np.sin((n + 1) * k) / np.sin(k)).max() < 1e-8


def test_oprl_scaled_matches_plain():
    J = fg.JacobiParams(np.array([1.3, 0.9]), np.array([0.2, -0.1]))
    for z in (3.0, -2.7 + 0.4j):
        p = fg.oprl_eval(J, 40, z)
        (pm, pc), ex = fg.oprl_scaled_last(J, 40, z)
        assert complex(pc) * 2.0**ex == pytest.approx(complex(p[40]), rel=1e-12)
        la = fg.oprl_log_abs(J, 40, z)
        assert la[40] == pytest.approx(np.log(abs(p[40])), rel=1e-12)


def test_oprl_eval_vectorized_over_z():
    J = fg.JacobiParams(np.array([1.3, 0.9, 1.1]), np.array([0.2, -0.1, 0.05]))
    a, b = J.coeffs(60)
    zs = np.array([3.0, -2.7 + 0.4j, 0.5, 1.5j, -2.0])
    p = fg.oprl_eval(J, 60, zs)
    assert p.shape == (61, len(zs))
    assert np.array_equal(p, np.stack([fg.oprl_eval(J, 60, z) for z in zs], axis=1))
    # real z run in float64, exactly as the plain recursion
    xs = zs.real[[0, 2, 4]]
    real = fg.oprl_eval(J, 60, xs)
    assert real.dtype == np.float64 and fg.oprl_eval(J, 60, 3.0).dtype == np.float64
    for col, x in zip(real.T, xs):
        assert np.array_equal(col, oracles.oprl_plain(a, b, 60, float(x)))
    # complex products and divisions round differently in numpy and Python
    for col, z in zip(p.T, zs):
        np.testing.assert_allclose(col, oracles.oprl_plain(a, b, 60, complex(z)),
                                   rtol=1e-13, atol=0)


def test_oprl_rescaling_both_directions():
    # z = 0, a = 1, 8, 1, 8, ...: odd p vanish and p_{2m} = (-1/8)^m, so the
    # pair shrinks past the smallest double; every value is a power of two
    J = fg.JacobiParams(np.tile([1.0, 8.0], 400), np.zeros(800))
    (pm, pc), ex = fg.oprl_scaled_last(J, 800, 0.0)
    assert pm == 0.0 and ex % 500 == 0 and pc == 2.0 ** (-1200 - ex)
    assert fg.oprl_log_abs(J, 800, 0.0)[800] == pytest.approx(-1200 * np.log(2), rel=1e-14)
    # |z| = 1e6 on the free matrix: about 20 bits of growth per step
    u = (1e6 + np.sqrt(1e12 - 4)) / 2
    n = np.arange(401)
    expect = (n + 1) * np.log(u) - np.log(u - 1 / u)
    assert np.abs(fg.oprl_log_abs(fg.free_jacobi(), 400, 1e6) - expect).max() < 1e-9


def test_oprl_scaled_no_overflow():
    # |p_n(3)| ~ ((3+sqrt(5))/2)^n overflows doubles near n = 750
    (pm, pc), ex = fg.oprl_scaled_last(fg.free_jacobi(), 1000, 3.0)
    u = (3 + np.sqrt(5)) / 2
    log_expect = 1001 * np.log(u) - np.log(u - 1 / u)
    assert np.log(abs(pc)) + ex * np.log(2) == pytest.approx(log_expect, abs=1e-9)


# ---------------------------------------------------------------------------
# truncation eigenvalues


def test_truncation_free_empty():
    evs = fg.truncation_eigenvalues_outside(fg.free_jacobi(), E2, 400)
    assert len(evs) == 0


def test_truncation_single_site():
    Jp = fg.JacobiParams(np.array([1.0]), np.array([3.0]))
    evs = fg.truncation_eigenvalues_outside(Jp, E2, 2000)
    assert len(evs) == 1
    assert evs[0] == pytest.approx(3 + 1 / 3, abs=1e-6)
    Jm = fg.JacobiParams(np.array([1.0]), np.array([-3.0]))
    evs = fg.truncation_eigenvalues_outside(Jm, E2, 2000)
    assert evs[0] == pytest.approx(-(3 + 1 / 3), abs=1e-6)


def test_truncation_monotone_stable():
    Jp = fg.JacobiParams(np.array([1.0, 1.4]), np.array([2.8, -0.3]))
    evs1 = fg.truncation_eigenvalues_outside(Jp, E2, 1000)
    evs2 = fg.truncation_eigenvalues_outside(Jp, E2, 2000)
    assert len(evs1) == len(evs2)
    assert np.abs(evs1 - evs2).max() < 1e-6


def _assert_matches_dense(J, e, N):
    """Same stable eigenvalues as the two-spectrum oracle, within 1e-12."""
    evs = fg.truncation_eigenvalues_outside(J, e, N)
    ref = oracles.truncation_eigenvalues_outside_dense(J, e, N)
    assert len(evs) == len(ref), (evs, ref)
    assert np.all(np.abs(evs - ref) <= 1e-12), (evs, ref)
    return len(evs)


def test_truncation_matches_dense_oracle_criterion7_specs():
    found = 0
    for seed in range(100):
        spec = PerturbationSpec(RandomDecay(seed, 1.5, 0.5),
                                "both" if seed % 2 else "b")
        J = fg.apply_perturbation(fg.free_jacobi(), spec, 2000)
        found += _assert_matches_dense(J, E2, 2000)
    assert found > 10  # the family does leave the hull


@pytest.mark.parametrize("ell, points", [(2, 10), (3, 5)])
def test_truncation_matches_dense_oracle_perturbed_torus(ell, points):
    from conftest import random_band_set
    e = random_band_set(np.random.default_rng(ell), ell)
    found = 0
    for seed in range(points):
        dd = fg.random_dirichlet(e, np.random.default_rng(100 + seed))
        base = fg.torus_jacobi(e, dd, 1000).params
        spec = PerturbationSpec(RandomDecay(seed, 1.8, 0.4),
                                "both" if seed % 2 else "b")
        found += _assert_matches_dense(base, e, 1000)
        found += _assert_matches_dense(fg.apply_perturbation(base, spec, 1000),
                                       e, 1000)
    assert found > points  # gap eigenvalues of the torus points and their perturbations


def test_truncation_matches_dense_oracle_atoms_and_small_N(period2_set):
    # atoms outside the hull: single site b_1 = +-3
    for b1 in (3.0, -3.0):
        J = fg.JacobiParams(np.array([1.0]), np.array([b1]))
        for N in (2, 3, 1001, 2000):  # N = 2, 3: the half truncation is 1 x 1
            assert _assert_matches_dense(J, E2, N) == (N > 3)
    # an atom inside the gap, stripped from a measure built like the
    # period2_atom benchmark measure
    eq = fg.solve_equilibrium(period2_set)
    mu = fg.measure_from_theta_density(
        period2_set, lambda j, th: 0.9 * eq.theta_density(j, th), [(0.3, 0.1)])
    J = fg.strip_coefficients(mu, 400)
    for N in (399, 400):  # even N adds the period-2 tail's own gap eigenvalue
        assert _assert_matches_dense(J, period2_set, N) == 1 + (N % 2 == 0)
        evs = fg.truncation_eigenvalues_outside(J, period2_set, N)
        assert np.abs(evs - 0.3).min() < 1e-10


def test_truncation_spectrum_entirely_above_hull():
    # b = 10, a = 1: every eigenvalue of every truncation lies in (8, 12)
    J = fg.JacobiParams(np.empty(0), np.empty(0), PeriodicTail([1.0], [10.0]))
    for N in (2, 3, 64, 301):
        _assert_matches_dense(J, E2, N)


@pytest.mark.parametrize("bands, b1", [([-2.0, 2.0], -2.0),
                                        ([-2.0, 2.0, 5.0, 6.0], 5.0)])
def test_truncation_eigenvalue_on_band_edge_not_reported(bands, b1):
    # a_1 = 1e-300 splits off site 1: a 1 x 1 block with eigenvalue exactly
    # b_1 = a_{j+1}, the closed end of the half-open search range; the rest
    # is free, with truncation eigenvalues inside (-2, 2)
    e = fg.make_band_set(bands)
    J = fg.JacobiParams(np.array([1e-300]), np.array([b1]))
    assert b1 in fg.jacobi._eigenvalues_off(J, e, 50, 0.0)
    assert len(fg.truncation_eigenvalues_outside(J, e, 50)) == 0
    assert len(oracles.truncation_eigenvalues_outside_dense(J, e, 50)) == 0


@pytest.mark.parametrize("offset, accepted", [(4e-7, True), (2e-6, False)])
def test_truncation_stable_partner_inside_band(offset, accepted):
    # split-off sites: b_1 = 2 - offset (inside the band) in both truncations,
    # b_N = 2 + offset (off e) only in the N x N one; the candidate's only
    # partner in the N/2 spectrum is b_1, 2 * offset away
    N = 2000
    a = np.ones(N)
    a[0] = a[N - 2] = 1e-300
    b = np.zeros(N)
    b[0], b[N - 1] = 2 - offset, 2 + offset
    J = fg.JacobiParams(a, b)
    evs = fg.truncation_eigenvalues_outside(J, E2, N)
    assert list(evs) == ([2 + offset] if accepted else [])
    assert _assert_matches_dense(J, E2, N) == int(accepted)


# ---------------------------------------------------------------------------
# spectral measures and m-functions


def test_semicircle_m_value():
    mu = fg.semicircle_measure()
    assert mu.m(3.0) == pytest.approx((-3 + np.sqrt(5)) / 2, abs=1e-12)
    assert mu.m(3.0) == pytest.approx(complex(oracles.m_free(3.0)), abs=1e-12)


def test_arcsine_m_value():
    mu = fg.arcsine_measure()
    assert mu.m(3.0) == pytest.approx(-1 / np.sqrt(5), abs=1e-12)


def test_point_mass_m():
    mu = fg.SpectralMeasure(E2, [np.array([0.5 / np.pi])], [(3.0, 0.5)])
    # band part mass 1/2 + atom 1/2; atom term = w/(x0 - z)
    z = 5.0
    expect = 0.5 * complex(oracles.m_arcsine(z)) + 0.5 / (3.0 - z)
    assert mu.m(z) == pytest.approx(expect, abs=1e-12)


def test_m_herglotz_positivity():
    rng = np.random.default_rng(5)
    mu = fg.semicircle_measure()
    for _ in range(1000):
        z = complex(rng.uniform(-4, 4), 10 ** rng.uniform(-4, 1))
        assert mu.m(z).imag > 0


def test_m_asymptotic_normalization():
    for mu in (fg.semicircle_measure(), fg.arcsine_measure()):
        z = 1e4j
        assert abs(z * mu.m(z) - (-1.0)) < 1e-4


def test_m_too_close_raises():
    mu = fg.semicircle_measure()
    with pytest.raises(AccuracyError):
        mu.m(1.0 + 1e-10j * 0)  # on the band
    with pytest.raises(AccuracyError):
        mu.m(2.0 + 1e-9)


def test_measure_validation():
    with pytest.raises(MeasureError):
        fg.SpectralMeasure(E2, [np.array([1.0 / np.pi])], [(1.0, 0.1)])  # atom on e
    with pytest.raises(MeasureError):
        fg.SpectralMeasure(E2, [np.array([0.5 / np.pi])], [(3.0, -0.5)])
    with pytest.raises(MeasureError):
        fg.SpectralMeasure(E2, [np.array([0.7 / np.pi])], [(3.0, 0.5)])  # mass 1.2


def test_measure_json_round_trip():
    mu = fg.SpectralMeasure(E2, [np.array([0.5 / np.pi])], [(3.0, 0.5)])
    mu2 = fg.SpectralMeasure.from_json(mu.to_json())
    assert mu2.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert mu2.m(4.0) == pytest.approx(mu.m(4.0), abs=1e-12)


def test_measure_density_eval():
    mu = fg.semicircle_measure()
    for x in (-1.0, 0.0, 1.7):
        assert mu.density(x) == pytest.approx(np.sqrt(4 - x * x) / (2 * np.pi),
                                              rel=1e-10)


# ---------------------------------------------------------------------------
# stripping


def test_strip_arcsine():
    J = fg.strip_coefficients(fg.arcsine_measure(), 5)
    assert J.head_a == pytest.approx([np.sqrt(2), 1, 1, 1, 1], abs=1e-8)
    assert np.abs(J.head_b).max() < 1e-8


def test_strip_semicircle():
    J = fg.strip_coefficients(fg.semicircle_measure(), 20)
    assert J.head_a == pytest.approx(np.ones(20), abs=1e-8)
    assert np.abs(J.head_b).max() < 1e-8
    # cross-check: m of the stripped coefficients' measure matches closed form
    # via the truncation's spectral data at small scale
    evs = fg.truncation_eigenvalues_outside(J, E2, 256)
    assert len(evs) == 0


def test_strip_symmetric_measure_b_zero():
    e = fg.make_band_set([-2, -1, 1, 2])
    eq = fg.solve_equilibrium(e)
    J = fg.strip_coefficients(fg.equilibrium_measure(eq), 30)
    assert np.abs(J.head_b).max() < 1e-10


def test_strip_round_trip_from_eigendata():
    # brute-force oracle: eigen-decompose a small truncation, rebuild the
    # coefficients from its spectral measure by the Lanczos oracle
    rng = np.random.default_rng(42)
    N = 20
    a = 1.0 + 0.3 * rng.uniform(-1, 1, N)
    b = 0.4 * rng.uniform(-1, 1, N)
    T = np.diag(b) + np.diag(a[:-1], 1) + np.diag(a[:-1], -1)
    lam, V = np.linalg.eigh(T)
    weights = V[0] ** 2
    a2, b2 = oracles.lanczos_coeffs(lam, weights, N - 1)
    assert np.abs(a2[:N - 2] - a[:N - 2]).max() < 1e-6
    assert np.abs(b2[:N - 1] - b[:N - 1]).max() < 1e-6


def test_strip_round_trip_by_rkpw_alone():
    # the production RKPW update builds the Jacobi matrix of the eigen-data
    # one node at a time, starting from the first node alone
    rng = np.random.default_rng(7)
    N = 20
    a = 1.0 + 0.3 * rng.uniform(-1, 1, N)
    b = 0.4 * rng.uniform(-1, 1, N)
    T = np.diag(b) + np.diag(a[:-1], 1) + np.diag(a[:-1], -1)
    lam, V = np.linalg.eigh(T)
    weights = V[0] ** 2
    b2, beta = [lam[0]], [weights[0]]
    for x, w in zip(lam[1:], weights[1:]):
        b2, beta = _rkpw(b2, beta, x, w)
    assert beta[0] == pytest.approx(1.0, abs=1e-14)
    assert np.abs(np.sqrt(beta[1:]) - a[:N - 1]).max() < 1e-12
    assert np.abs(np.array(b2) - b).max() < 1e-12


def test_strip_tail_extends():
    J = fg.strip_coefficients(fg.semicircle_measure(), 5)
    assert J.a(12) == pytest.approx(1.0, abs=1e-8)  # beyond head: re-strip
    a, b = J.coeffs(12)
    assert a == pytest.approx(np.ones(12), abs=1e-8)


def test_strip_deserialized_measure():
    # a coefficients-only measure (no exact density callable) still strips
    mu = fg.SpectralMeasure.from_json(fg.semicircle_measure().to_json())
    J = fg.strip_coefficients(mu, 8)
    assert np.abs(J.head_a - 1).max() < 1e-8
    assert np.abs(J.head_b).max() < 1e-8


def test_strip_measure_with_atom():
    mu = fg.SpectralMeasure(E2, [np.array([0.8 / np.pi])], [(3.0, 0.2)],
                            theta_fn=lambda j, th: np.full_like(th, 0.8 / np.pi))
    J = fg.strip_coefficients(mu, 30)
    # eigenvalue of the stripped operator must reproduce the atom
    evs = fg.truncation_eigenvalues_outside(J, E2, 500)
    assert len(evs) == 1
    assert evs[0] == pytest.approx(3.0, abs=1e-6)


def _assert_matches_lanczos(mu, N, tol=1e-12):
    a, b = fg.strip_coefficients(mu, N).coeffs(N)
    ar, br = oracles.lanczos_measure(mu, N)
    err = max(np.abs(a - ar).max(), np.abs(b - br).max())
    assert err <= tol, err


def _dead_band_measure():
    def theta_fn(j, th):
        x = 2 * np.cos(th)
        return np.where((x > 0.2) & (x < 0.8), 0.0, 2 * np.sin(th) ** 2 / np.pi)

    return fg.measure_from_theta_density(E2, theta_fn, strict=False, validate=False)


def _spread_series_measure(L=121):
    # a density that is exactly a cosine series of length L whose
    # coefficients do not decay, plus one atom
    c = np.full(L, 0.5 / (L - 1))
    c[0] = 1.0
    c *= 0.9 / (np.pi * c[0])
    return fg.SpectralMeasure(E2, [c], [(2.5, 0.1)])


def test_strip_arcsine_atom_matches_lanczos():
    mu = fg.measure_from_theta_density(
        E2, lambda j, th: np.full_like(th, 0.8 / np.pi), [(3.0, 0.2)])
    _assert_matches_lanczos(mu, 1000)


def test_strip_atoms_around_hull_and_in_gap_match_lanczos(eq_twoband):
    eq = eq_twoband
    mu = fg.measure_from_theta_density(
        eq.set, lambda j, th: 0.7 * eq.theta_density(j, th),
        [(-2.6, 0.1), (0.3, 0.05), (-0.5, 0.05), (3.1, 0.1)])
    _assert_matches_lanczos(mu, 300)


@pytest.mark.parametrize("bands, points", [
    ([-2, -1, -0.3, 0.4, 1.1, 2], [[(-0.6, 1), (0.8, -1)], [(-0.6, 1), (0.8, 1)]]),
    ([-2.5, -1.5, -1, -0.2, 0.3, 1, 1.4, 2.2],
     [[(-1.2, 1), (0.0, -1), (1.2, 1)], [(-1.2, 1), (0.0, 1), (1.2, -1)]]),
])
def test_strip_torus_measures_with_gap_atoms_match_lanczos(bands, points):
    e = fg.make_band_set(bands)
    for pts in points:
        mu = fg.torus_measure(fg.minimal_herglotz(e, fg.dirichlet_data(e, pts)))
        assert len(mu.point_masses) == sum(s > 0 for _, s in pts)
        _assert_matches_lanczos(mu, 400)


def test_strip_deserialized_measure_matches_lanczos(eq_twoband):
    eq = eq_twoband
    src = fg.measure_from_theta_density(
        eq.set, lambda j, th: 0.9 * eq.theta_density(j, th), [(0.2, 0.1)])
    mu = fg.SpectralMeasure.from_json(src.to_json())
    assert mu._theta_fn is None
    _assert_matches_lanczos(mu, 300)
    _assert_matches_lanczos(_spread_series_measure(), 300)


def test_strip_dead_band_matches_lanczos_on_same_nodes():
    # an unresolved series keeps the doubling verification, on the node
    # sequence max(256, 2N + 64) * 2^k
    mu = _dead_band_measure()
    assert not cos_series_resolved(mu.band_coeffs[0])
    for N, tol in ((96, 2e-3), (64, 1e-4)):
        n = max(256, 2 * N + 64)
        prev = None
        while True:
            cur = np.concatenate(oracles.lanczos_measure(mu, N, n))
            if prev is not None and np.abs(cur - prev).max() < tol:
                break
            prev = cur
            n *= 2
        a, b = fg.strip_coefficients(mu, N, tol=tol).coeffs(N)
        assert np.abs(np.concatenate([a, b]) - cur).max() <= 1e-12


def test_strip_exact_grid_is_sufficient(eq_twoband):
    # the size rule n = N + 1 + L + 8 against a grid twice as fine; a grid
    # below N + 1 + L/2 is not exact for a series that does not decay
    e = fg.make_band_set([-2, -1, -0.3, 0.4, 1.1, 2])
    measures = [
        fg.torus_measure(fg.minimal_herglotz(
            e, fg.dirichlet_data(e, [(-0.6, 1), (0.8, 1)]))),
        fg.measure_from_theta_density(
            E2, lambda j, th: np.full_like(th, 0.8 / np.pi), [(3.0, 0.2)]),
        fg.equilibrium_measure(eq_twoband),
        _spread_series_measure(),
    ]
    N = 150
    for mu in measures:
        L = max(len(c) for c in mu.band_coeffs)
        assert all(cos_series_resolved(c) for c in mu.band_coeffs)

        def strip(n):
            x, w = mu.discretize(n)
            return np.concatenate(_stieltjes_rkpw(x, w, len(mu.point_masses), N))

        n = N + 1 + L + 8
        assert np.array_equal(strip(n), np.concatenate(fg.strip_coefficients(mu, N).coeffs(N)))
        assert np.abs(strip(n) - strip(2 * n)).max() <= 1e-13
    # the last measure's series has L = 121 terms
    assert np.abs(strip(N + 1 + L // 2 - 1) - strip(2 * n)).max() > 1e-6


def test_strip_provider_shared_between_threads(monkeypatch):
    # one stripped tail extended from many threads: a single re-strip, and
    # every (a, b) pair equal to a sequential run bit for bit
    from finitegap import jacobi
    mu = fg.measure_from_theta_density(
        E2, lambda j, th: np.full_like(th, 0.8 / np.pi), [(3.0, 0.2)])
    N0 = 100
    ref_a, ref_b = fg.strip_coefficients(mu, N0).coeffs(2 * N0)
    sizes = range(N0 + 2, 2 * N0 + 1, 2)
    calls = []
    strip = jacobi._strip_arrays

    def counted(*args):
        calls.append(args[1])
        return strip(*args)

    monkeypatch.setattr(jacobi, "_strip_arrays", counted)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            calls.clear()
            J = fg.strip_coefficients(mu, N0)
            with ThreadPoolExecutor(8) as pool:
                outs = list(pool.map(J.coeffs, sizes, timeout=120))
            assert calls == [N0, 2 * N0]
            for n, (a, b) in zip(sizes, outs):
                assert np.array_equal(a, ref_a[:n]) and np.array_equal(b, ref_b[:n])
    finally:
        sys.setswitchinterval(old)


# ---------------------------------------------------------------------------
# G00 assembly


def test_g00_free_closed_form():
    z = 3.0
    mfree = complex(oracles.m_free(z))
    val = fg.g00(1.0, mfree, mfree)
    assert val == pytest.approx(-1 / np.sqrt(5), abs=1e-12)


def test_g00_m_minus_pole():
    z = 3.0 + 0.1j
    mp = complex(oracles.m_free(z))
    val = fg.g00(1.2, mp, complex(np.inf))
    assert val == pytest.approx(-1 / (1.44 * mp), abs=1e-12)


def test_g00_forms_agree():
    # (3.5b) and (3.5d) with matching free half-line data
    for z in (3.0, 2.4 + 1.1j, -5.0 + 0.3j):
        mfree = complex(oracles.m_free(z))
        v1 = fg.g00(1.0, mfree, mfree)
        v2 = fg.g00_shifted(z, 0.0, 1.0, mfree, 1.0, mfree)
        assert v1 == pytest.approx(v2, abs=1e-10)
        assert v1 == pytest.approx(complex(-1.0)
                                   / (np.sqrt(complex(z - 2)) * np.sqrt(complex(z + 2))),
                                   abs=1e-10)


def test_g00_pole_signal():
    assert np.isinf(fg.g00(1.0, 0.0, complex(np.inf)).real)


# ---------------------------------------------------------------------------
# transfer matrices


def test_transfer_free_interior():
    g = fg.transfer_growth(fg.free_jacobi(), 0.0, 10000)
    assert g <= 2.0


def test_transfer_free_outside_grows():
    g = fg.transfer_growth(fg.free_jacobi(), 3.0, 50)
    u = (3 + np.sqrt(5)) / 2
    assert g >= u**49 / 10


def test_transfer_l1_perturbation_bounded():
    rng = np.random.default_rng(9)
    delta = 0.2 * rng.uniform(-1, 1, 3000) / np.arange(1, 3001) ** 1.5
    J = fg.JacobiParams(1.0 + np.abs(delta), delta)
    l1 = float(np.sum(np.abs(delta) + np.abs(delta)))
    g_free = fg.transfer_growth(fg.free_jacobi(), 0.0, 3000)
    g = fg.transfer_growth(J, 0.0, 3000)
    assert g <= g_free * np.exp(4.0 * l1) + 1e-9
