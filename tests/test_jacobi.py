import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import finitegap as fg
from finitegap.errors import AccuracyError, MeasureError
from finitegap.jacobi import PeriodicTail, _lanczos_coeffs

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
    # coefficients from its spectral measure by the same Lanczos engine
    rng = np.random.default_rng(42)
    N = 20
    a = 1.0 + 0.3 * rng.uniform(-1, 1, N)
    b = 0.4 * rng.uniform(-1, 1, N)
    T = np.diag(b) + np.diag(a[:-1], 1) + np.diag(a[:-1], -1)
    lam, V = np.linalg.eigh(T)
    weights = V[0] ** 2
    a2, b2 = _lanczos_coeffs(lam, weights, N - 1)
    assert np.abs(a2[:N - 2] - a[:N - 2]).max() < 1e-6
    assert np.abs(b2[:N - 1] - b[:N - 1]).max() < 1e-6


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
