from concurrent.futures import ThreadPoolExecutor
import math
import sys
import tracemalloc
import warnings

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy.integrate import quad

import finitegap as fg
from finitegap.errors import AccuracyError, MeasureError
from finitegap import sumrules
from finitegap.sumrules import (L1Decay, Oscillatory, PerturbationSpec,
                                RandomDecay, SingleSite, SlowDecay,
                                b_sum_diagnostics, lt_finite_gap_constant,
                                run_experiments, series_diagnostics,
                                twisted_sum_report, zero_spec)

import oracles
from conftest import random_band_set


E2 = fg.make_band_set([-2.0, 2.0])


# ---------------------------------------------------------------------------
# perturbation generators


def test_zero_spec_unchanged():
    J = fg.apply_perturbation(fg.free_jacobi(), zero_spec(), 50)
    a, b = J.coeffs(50)
    assert np.all(a == 1) and np.all(b == 0)


def test_single_site_construction():
    spec = PerturbationSpec(SingleSite(1, 3.0), "b")
    J = fg.apply_perturbation(fg.free_jacobi(), spec, 10)
    a, b = J.coeffs(10)
    assert b[0] == 3.0 and np.all(b[1:] == 0) and np.all(a == 1)


def test_l1_abs_sum_zeta2():
    # partial sum + integral tail bound land within 1e-8 of zeta(2)
    spec = PerturbationSpec(L1Decay(2.0, 1.0), "b")
    K = 1 << 16
    _, db = spec.deltas(K)
    partial = float(np.abs(db).sum())
    total = partial + spec.kind.abs_tail_bound(K)
    assert total == pytest.approx(np.pi**2 / 6, abs=1e-8)
    assert partial <= np.pi**2 / 6 <= total


def test_nonpositive_a_rejected():
    spec = PerturbationSpec(SingleSite(2, -1.5), "a")
    with pytest.raises(ValueError, match="a_2"):
        fg.apply_perturbation(fg.free_jacobi(), spec, 10)


def test_random_decay_deterministic():
    s1 = RandomDecay(123, 1.5, 0.3)
    s2 = RandomDecay(123, 1.5, 0.3)
    assert np.array_equal(s1.delta(np.arange(1, 100)), s2.delta(np.arange(1, 100)))


@pytest.mark.parametrize("N", [1, 2, 1023, 1024, 1025, 2000, 200000])
def test_random_decay_delta_bitwise(N):
    # table sizes switch at powers of two; 200 000 is lt_free_bound's sum_to;
    # an amplitude of 0.3, unlike 0.5, makes the order of the products show
    n = np.arange(1, N + 1)
    for rate in (1.2, 1.5, 1.8, 2.0):
        for seed, amp in ((0, 0.5), (7, 0.3), (2**31 - 1, -0.3)):
            got = RandomDecay(seed, rate, amp).delta(n)
            want = oracles.random_decay_delta_dense(seed, rate, amp, n)
            assert got.tobytes() == want.tobytes(), (rate, seed)


@settings(max_examples=40, deadline=None)
@given(rate=st.floats(1.01, 3.0), N=st.integers(1, 5000),
       seed=st.integers(0, 2**32 - 1), amplitude=st.floats(-2.0, 2.0))
def test_random_decay_delta_bitwise_property(rate, N, seed, amplitude):
    n = np.arange(1, N + 1)
    got = RandomDecay(seed, rate, amplitude).delta(n)
    want = oracles.random_decay_delta_dense(seed, rate, amplitude, n)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [[5, 1, 3, 3], [4096, 2, 1025, 2, 7],
                               np.arange(3, 3000, 7)[::-1]])
def test_delta_gathers_arbitrary_indices(n):
    n = np.asarray(n)
    got = RandomDecay(11, 1.5, 0.5).delta(n)
    assert got.tobytes() == oracles.random_decay_delta_dense(
        11, 1.5, 0.5, n).tobytes()
    for kind in (L1Decay(1.5, 0.5), SlowDecay(0.75, -0.3)):
        want = oracles.power_delta_dense(kind.rate, kind.amplitude, n)
        assert kind.delta(n).tobytes() == want.tobytes()
    for index in (1, 2, 1025):
        want = np.where(n == index, -0.7, 0.0)
        assert SingleSite(index, -0.7).delta(n).tobytes() == want.tobytes()
    osc = Oscillatory(0.3, 0.4, 0.75, 0.2)
    want = oracles.oscillatory_delta_dense(0.3, 0.4, 0.75, 0.2, n)
    assert osc.delta(n).tobytes() == want.tobytes()


ALL_KINDS = (L1Decay(1.5, 0.5), L1Decay(2, -1.0), SlowDecay(0.75, -0.3),
             SlowDecay(1.0, 0.3), SingleSite(1, 3.0), SingleSite(7, -0.5),
             Oscillatory(0.3, 0.4, 0.75, 0.2), Oscillatory(0.25, 1.0, 1.0),
             RandomDecay(11, 1.5, 0.5), RandomDecay(2**31 - 1, 1.8, -0.3))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.to_json()["kind"])
def test_head_is_delta_on_the_run(kind):
    for N in (0, 1, 6, 7, 1023, 1024, 1025, 5000):
        head = kind.head(N)
        assert head.flags.writeable and head.shape == (N,)
        assert head.tobytes() == kind.delta(np.arange(1, N + 1)).tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.to_json()["kind"])
def test_delta_rejects_index_zero(kind):
    for n in (0, [3, 0, 1], [-2]):
        with pytest.raises(ValueError, match="1-based"):
            kind.delta(n)


class DeltaOnly:
    """A foreign kind that defines delta(n) and no head."""

    def delta(self, n):
        return 0.5 * np.asarray(n, float) ** -1.5

    def to_json(self):
        return {"kind": "delta_only"}


def test_delta_only_kind_falls_back_to_the_run():
    n = np.arange(1, 3001)
    d = oracles.power_delta_dense(1.5, 0.5, n)
    for target in ("a", "b", "both"):
        spec = PerturbationSpec(DeltaOnly(), target)
        ref = PerturbationSpec(L1Decay(1.5, 0.5), target)
        da, db = spec.deltas(3000)
        wa, wb = ref.deltas(3000)
        assert da.tobytes() == wa.tobytes() and db.tobytes() == wb.tobytes()
        got = fg.lt_free_bound(spec, n_trunc=400, sum_to=3000)
        assert got.rhs == oracles.lt_free_rhs_dense(d, target)
        want = fg.lt_free_bound(ref, n_trunc=400, sum_to=3000)
        assert got.eigenvalues == want.eigenvalues and got.lhs == want.lhs


def test_power_decay_delta_bitwise():
    # rate 1 raises to the power -1, which numpy takes as a reciprocal
    for N in (1, 1024, 1025, 200000):
        n = np.arange(1, N + 1)
        for kind in (L1Decay(1.2, 0.4), L1Decay(2.0, 1.0), L1Decay(2, 1.0),
                     L1Decay(2.5, 0.1), SlowDecay(0.6, 0.3), SlowDecay(1.0, 0.3),
                     SlowDecay(1, -0.7)):
            want = oracles.power_delta_dense(kind.rate, kind.amplitude, n)
            assert kind.delta(n).tobytes() == want.tobytes(), (N, kind.rate)


def test_spec_deltas_bitwise():
    n = np.arange(1, 2001)
    d = oracles.random_decay_delta_dense(5, 1.5, 0.5, n)
    zeros = np.zeros(2000)
    for target, (wa, wb) in (("a", (d, zeros)), ("b", (zeros, d)),
                             ("both", (d, d))):
        da, db = PerturbationSpec(RandomDecay(5, 1.5, 0.5), target).deltas(2000)
        assert da.tobytes() == wa.tobytes() and db.tobytes() == wb.tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.to_json()["kind"])
def test_spec_deltas_both_are_distinct_arrays(kind):
    da, db = PerturbationSpec(kind, "both").deltas(50)
    want = db.copy()
    da[0] = 9.0
    assert db.tobytes() == want.tobytes()


def test_single_site_delta_closed_form():
    for index, value in ((1, 3.0), (7, -0.5), (1025, 2)):
        kind = SingleSite(index, value)
        for n in ([7, 7, 1, 7], [1025, 3, 1025, 1], np.arange(1, 1100)[::-1],
                  [2, 2, 2]):
            n = np.asarray(n)
            want = kind.head(int(n.max()))[n - 1]
            assert kind.delta(n).tobytes() == want.tobytes()
    # a large index costs no head up to it
    tracemalloc.start()
    try:
        d = SingleSite(1, 1.0).delta([10**6, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.tolist() == [0.0, 1.0] and peak < 10**5


def test_power_tables_read_only_and_bounded():
    n = np.arange(1, 3000)
    L1Decay(1.5, 1.0).delta(n)
    w = sumrules._power_table(1.5, 4096)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[1] = 0.0
    for k in range(12):
        L1Decay(1.1 + 0.1 * k, 1.0).delta(n)
    info = sumrules._power_table.cache_info()
    assert info.maxsize == 8 and info.currsize <= 8


def test_delta_returns_fresh_writable_arrays():
    n = np.arange(1, 500)
    for kind in (RandomDecay(3, 1.5, 0.5), L1Decay(1.5, 0.5),
                 SlowDecay(0.8, 0.5)):
        first = kind.delta(n)
        keep = first.copy()
        assert first.flags.writeable
        first[:] = 99.0
        assert kind.delta(n).tobytes() == keep.tobytes()


def test_random_decay_cache_growth_keeps_values():
    r = RandomDecay(21, 1.5, 0.5)
    small = r.delta(np.arange(1, 100))
    large = r.delta(np.arange(1, 50001))
    assert r.delta(np.arange(1, 100)).tobytes() == small.tobytes()
    assert large[:99].tobytes() == small.tobytes()
    assert large.tobytes() == oracles.random_decay_delta_dense(
        21, 1.5, 0.5, np.arange(1, 50001)).tobytes()


def test_spec_json_round_trip():
    for spec in (PerturbationSpec(L1Decay(2.0, 0.5), "a"),
                 PerturbationSpec(Oscillatory(0.3, 0.1, 1.0), "both"),
                 PerturbationSpec(RandomDecay(7, 1.4, 0.2), "b")):
        spec2 = PerturbationSpec.from_json(spec.to_json())
        da, db = spec.deltas(50)
        da2, db2 = spec2.deltas(50)
        assert np.allclose(da, da2) and np.allclose(db, db2)


# ---------------------------------------------------------------------------
# computed tails: one cache per sequence, read by prefix


def _dead_band_strip(_):
    def theta_fn(j, th):
        x = 2 * np.cos(th)
        return np.where((x > 0.2) & (x < 0.8), 0.0, 2 * np.sin(th) ** 2 / np.pi)

    mu = fg.measure_from_theta_density(E2, theta_fn, strict=False, validate=False)
    return fg.strip_coefficients(mu, 64, tol=2e-3)


def _arcsine_atom_strip(_):
    mu = fg.measure_from_theta_density(
        E2, lambda j, th: np.full_like(th, 0.8 / np.pi), [(3.0, 0.2)])
    return fg.strip_coefficients(mu, 64)


def _torus(period2_set):
    return fg.torus_jacobi(period2_set, fg.dirichlet_data(period2_set, [(0.3, +1)]),
                           64).params


def _perturbed_torus(period2_set):
    spec = PerturbationSpec(RandomDecay(5, 1.5, 0.3), "both")
    return fg.apply_perturbation(_torus(period2_set), spec, 64)


@pytest.mark.parametrize("make", [_dead_band_strip, _arcsine_atom_strip, _torus,
                                  _perturbed_torus])
def test_computed_coefficients_never_change(make, period2_set):
    # a stripped tail used to be replaced whole on every re-strip, so the
    # dead band's b_150 moved by 5.7e-4 after a read of 600 coefficients
    J = make(period2_set)
    a, b = J.coeffs(150)
    keep = a.tobytes(), b.tobytes()
    a[:] = b[:] = 7.0  # the caller owns what coeffs returns
    a_long, b_long = J.coeffs(600)
    assert (a_long[:150].tobytes(), b_long[:150].tobytes()) == keep
    a, b = J.coeffs(150)
    assert (a.tobytes(), b.tobytes()) == keep
    assert J.a(150) == a[-1] and J.b(150) == b[-1]


class _CountedBase:
    """A base whose coeffs calls are recorded."""

    def __init__(self, J):
        self.J, self.calls = J, []

    def coeffs(self, n):
        self.calls.append(n)
        return self.J.coeffs(n)


def test_perturbed_tail_reads_base_once_per_growth(period2_set):
    base = _CountedBase(_torus(period2_set))
    J = fg.apply_perturbation(base, PerturbationSpec(L1Decay(2.0, 0.1), "b"), 16)
    assert base.calls == [16]
    for n in (17, 20, 32, 5, 16, 31):
        J.coeffs(n)
        J.b(n)
    assert base.calls == [16, 17, 20, 32]
    J.coeffs(40)
    assert base.calls == [16, 17, 20, 32, 40]


def test_perturbed_tail_invalid_coefficient_named():
    # a read fails only when it reaches the bad term: the tail reads its
    # base exactly as far as asked
    J = fg.apply_perturbation(fg.free_jacobi(),
                              PerturbationSpec(SingleSite(40, -2.0), "a"), 10)
    for n in (21, 22, 39):
        assert len(J.coeffs(n)[0]) == n
    with pytest.raises(ValueError, match="a_40 = -1.0"):
        J.coeffs(50)


def test_perturbed_tail_reads_breaking_torus_only_as_asked():
    # this torus point breaks down at step 21 (test_isotorus), so every read
    # of 20 coefficients must still succeed
    e = random_band_set(np.random.default_rng(12004), 12)
    dd = fg.random_dirichlet(e, np.random.default_rng(4))
    J = fg.apply_perturbation(fg.torus_jacobi(e, dd, 15).params, zero_spec(), 16)
    for n in (17, 18, 20):
        assert len(J.coeffs(n)[0]) == n
    with pytest.raises(AccuracyError, match="^stripping step 21: "):
        J.coeffs(21)


def test_perturbed_tail_shared_between_threads(period2_set):
    # one perturbed tail extended from many threads must match a sequential
    # run, and no two threads may grow it to the same length
    spec = PerturbationSpec(RandomDecay(9, 1.5, 0.3), "both")
    ref_a, ref_b = fg.apply_perturbation(_torus(period2_set), spec, 1).coeffs(400)
    sizes = range(40, 401, 8)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            base = _CountedBase(_torus(period2_set))
            J = fg.apply_perturbation(base, spec, 1)
            with ThreadPoolExecutor(8) as pool:
                outs = list(pool.map(J.coeffs, sizes, timeout=120))
            for n, (a, b) in zip(sizes, outs):
                assert np.array_equal(a, ref_a[:n]) and np.array_equal(b, ref_b[:n])
            assert base.calls == sorted(set(base.calls))
    finally:
        sys.setswitchinterval(old)


# ---------------------------------------------------------------------------
# Lieb-Thirring


def test_lt_sum_examples():
    assert fg.lt_sum([], E2, 0.5) == 0.0
    assert fg.lt_sum([10 / 3], E2, 0.5) == pytest.approx(np.sqrt(4 / 3), abs=1e-12)
    x = 10 / 3
    assert np.sqrt(x * x - 4) == pytest.approx(8 / 3, abs=1e-12)


def test_lt_sum_monotone_in_p():
    evs = [2.5, -2.2, 3.8]
    e = E2
    # every term has dist < 1... not all: dist(3.8) = 1.8 > 1; restrict
    evs = [2.5, -2.2]
    s1 = fg.lt_sum(evs, e, 0.5)
    s2 = fg.lt_sum(evs, e, 1.5)
    assert s2 < s1


def test_lt_c0_examples():
    assert fg.lt_c0(E2) == 0.0
    assert fg.lt_c0(fg.make_band_set([-2, -1, 1, 2])) == pytest.approx(1.0)
    assert fg.lt_c0(fg.make_band_set([-2, 0, 0.5, 2])) == pytest.approx(0.5)


def test_lt_free_bound_single_site():
    res = fg.lt_free_bound(PerturbationSpec(SingleSite(1, 3.0), "b"))
    assert res.lhs == pytest.approx(8 / 3, abs=1e-6)
    assert res.rhs == pytest.approx(3.0, abs=1e-12)
    assert res.holds


def test_lt_free_bound_unperturbed():
    res = fg.lt_free_bound(zero_spec(), n_trunc=400)
    assert res.lhs == 0.0 and res.rhs == 0.0 and res.holds


def test_lt_free_bound_random_family():
    # light version of acceptance criterion 7
    for seed in range(10):
        spec = PerturbationSpec(RandomDecay(seed, 1.6, 0.8),
                                "both" if seed % 2 else "b")
        res = fg.lt_free_bound(spec, n_trunc=800)
        assert res.holds, f"seed {seed}: lhs={res.lhs} rhs={res.rhs}"


def test_lt_free_bound_rhs_bitwise():
    # the criterion-7 specs, plus single-site and l^1 kinds on every target
    N = 200000
    n = np.arange(1, N + 1)
    cases = []
    for seed in range(0, 100, 9):
        d = oracles.random_decay_delta_dense(seed, 1.5, 0.5, n)
        for target in ("a", "b", "both"):
            spec = PerturbationSpec(RandomDecay(seed, 1.5, 0.5), target)
            cases.append((spec, d))
    for target in ("a", "b", "both"):
        cases.append((PerturbationSpec(SingleSite(1, 3.0), target),
                      np.where(n == 1, 3.0, 0.0)))
        cases.append((PerturbationSpec(L1Decay(1.5, 0.5), target),
                      oracles.power_delta_dense(1.5, 0.5, n)))
        cases.append((PerturbationSpec(SlowDecay(0.75, -0.3), target),
                      oracles.power_delta_dense(0.75, -0.3, n)))
        cases.append((PerturbationSpec(Oscillatory(0.3, 0.4, 0.75, 0.2), target),
                      oracles.oscillatory_delta_dense(0.3, 0.4, 0.75, 0.2, n)))
    for spec, d in cases:
        tail = getattr(spec.kind, "abs_tail_bound", lambda n0: 0.0)(N)
        want = oracles.lt_free_rhs_dense(d, spec.target, tail)
        got = fg.lt_free_bound(spec, n_trunc=400, sum_to=N).rhs
        assert got == want, spec.to_json()


def test_lt_free_bound_draw_sizes(monkeypatch):
    # the sum_to run is drawn once for the right side, the head once for J
    sizes = []
    default_rng = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def random(self, size):
            sizes.append(size)
            return self.rng.random(size)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    fg.lt_free_bound(PerturbationSpec(RandomDecay(4, 1.5, 0.5), "both"),
                     n_trunc=2000, sum_to=200000)
    assert sizes == [200000, 2000]


def test_lt_finite_gap_constant_reportable():
    e = fg.make_band_set([-2, -1, 1, 2])
    dd = fg.dirichlet_data(e, [(0.0, -1)])
    rep = lt_finite_gap_constant(e, dd, n_samples=3, n_trunc=500)
    assert rep["C_0"] == pytest.approx(1.0)
    assert rep["C_estimate"] >= 0.0
    assert len(rep["samples"]) == 3


def test_lt_finite_gap_constant_matches_dense_eigenvalues(monkeypatch):
    from finitegap import sumrules
    e = fg.make_band_set([-2, -1, 1, 2])
    dd = fg.dirichlet_data(e, [(0.0, -1)])
    for seed in (0, 1):
        rep = lt_finite_gap_constant(e, dd, n_samples=10, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(sumrules, "truncation_eigenvalues_outside",
                      oracles.truncation_eigenvalues_outside_dense)
            ref = lt_finite_gap_constant(e, dd, n_samples=10, seed=seed)
        assert ref["probed"]
        assert rep["C_estimate"] == pytest.approx(ref["C_estimate"], rel=1e-12)
        assert rep["baseline"] == pytest.approx(ref["baseline"], rel=1e-12)


def test_lt_finite_gap_constant_measures_against_baseline():
    # every lhs here stays below C_0 = 1, so measuring against C_0 reads C = 0
    e = fg.make_band_set([-2, -1, 1, 2])
    dd = fg.dirichlet_data(e, [(0.0, -1)])
    rep = lt_finite_gap_constant(e, dd, n_samples=4, n_trunc=250)
    lhs = [r["lhs"] for r in rep["samples"]]
    assert max(lhs) < rep["C_0"]
    assert rep["probed"] is True
    assert rep["C_estimate"] == pytest.approx(max(
        (r["lhs"] - rep["baseline"]) / r["denom"] for r in rep["samples"]))
    assert rep["C_estimate"] > 0.0


# ---------------------------------------------------------------------------
# Szego integrals


def test_szego_semicircle_frozen_oracle():
    # frozen from scipy.integrate.quad of dist^{-1/2} log f, f = semicircle
    mu = fg.semicircle_measure()
    val = fg.szego_integral(mu, E2, -0.5)
    assert val == pytest.approx(-10.73828992207242, abs=1e-6)


def test_szego_semicircle_live_oracle():
    mu = fg.semicircle_measure()
    for expo in (-0.5, 0.5):
        val = fg.szego_integral(mu, E2, expo)
        oracle, err = quad(
            lambda x: np.minimum(2 - x, x + 2) ** expo
            * np.log(np.sqrt(4 - x * x) / (2 * np.pi)), -2, 2,
            points=[0], limit=400)
        assert val == pytest.approx(oracle, abs=max(1e-7, 10 * err))


def test_szego_equilibrium_finite():
    e = fg.make_band_set([-2, -1, 1, 2])
    eq = fg.solve_equilibrium(e)
    mu = fg.equilibrium_measure(eq)
    val = fg.szego_integral(mu, e, -0.5)
    assert np.isfinite(val)


def test_szego_dead_band_sentinel():
    def theta_fn(j, th):
        x = 2 * np.cos(th)
        h = 2 * np.sin(th) ** 2 / np.pi
        return np.where((x > 0.3) & (x < 0.9), 0.0, h)

    mu = fg.measure_from_theta_density(E2, theta_fn, strict=False, validate=False)
    assert fg.szego_integral(mu, E2, -0.5) == -np.inf


def _counting(quad, counts):
    """quad with its integrand wrapped to add the sample count to counts."""
    def run(fn, a, b, **kw):
        def counted(x):
            counts.append(len(x))
            return fn(x)
        return quad(counted, a, b, **kw)
    return run


def test_szego_nested_levels_match_unnested(monkeypatch, eq_twoband, period2_set):
    from finitegap import quadrature, sumrules
    p2 = period2_set
    eq_p2 = fg.solve_equilibrium(p2)
    cases = [
        (fg.semicircle_measure(), E2),
        (fg.measure_from_theta_density(
            E2, lambda j, th: np.full_like(th, 0.8 / np.pi), [(3.0, 0.2)]), E2),
        (fg.measure_from_theta_density(
            p2, lambda j, th: 0.9 * eq_p2.theta_density(j, th), [(0.3, 0.1)]), p2),
        (fg.equilibrium_measure(eq_twoband), eq_twoband.set),
    ]
    for mu, e in cases:
        for expo in (-0.5, 0.5):
            nested, unnested = [], []
            monkeypatch.setattr(sumrules, "de_quad",
                                _counting(quadrature.de_quad, nested))
            val = fg.szego_integral(mu, e, expo)
            monkeypatch.setattr(sumrules, "de_quad",
                                _counting(oracles.de_quad_unnested, unnested))
            ref = fg.szego_integral(mu, e, expo)
            assert val == pytest.approx(ref, rel=1e-13, abs=0)
            assert sum(nested) < 0.75 * sum(unnested)


def test_de_quad_nested_levels():
    from finitegap.quadrature import de_quad, tanh_sinh_rule

    def f(x):
        return np.log(x) / np.sqrt(1 - x)

    val, level = de_quad(f, 0.0, 1.0)
    ref, ref_level = oracles.de_quad_unnested(f, 0.0, 1.0)
    assert level == ref_level
    assert val == pytest.approx(ref, rel=1e-14)
    assert val == pytest.approx(4 * np.log(2) - 4, rel=1e-9)
    # -inf only beyond the last level-4 node: first met on a new level-5 node
    cut = tanh_sinh_rule(4, 0.0, 1.0)[0].max()
    sentinel = de_quad(lambda x: np.where(x > cut, -np.inf, 1.0), 0.0, 1.0)
    assert sentinel == (-np.inf, 5)
    with pytest.raises(AccuracyError):
        de_quad(lambda x: np.sin(200 * x), 0.0, 1.0, max_level=5)


def test_szego_negative_density_rejected():
    mu = fg.measure_from_theta_density(
        E2, lambda j, th: np.cos(th), strict=False, validate=False)
    with pytest.raises(MeasureError):
        fg.szego_integral(mu, E2, -0.5)


# ---------------------------------------------------------------------------
# products, sums, ratios


def test_a_product_free():
    J = fg.free_jacobi()
    for n in (1, 10, 200):
        assert fg.a_product(J, n, capacity=1.0) == 1.0


def test_a_product_torus_self(period2_torus):
    assert fg.a_product(period2_torus.params, 50,
                        reference=period2_torus.params) == pytest.approx(1.0)


def test_capacity_upper_bound_for_perturbed_torus(period2_set, period2_torus):
    # limsup (a_1...a_n)^{1/n} <= C(e)(1 + 1e-2) for decaying perturbations
    eq = fg.solve_equilibrium(period2_set)
    for seed in range(3):
        spec = PerturbationSpec(RandomDecay(seed, 1.6, 0.2), "both")
        J = fg.apply_perturbation(period2_torus.params, spec, 400)
        a, _ = J.coeffs(400)
        geo = np.exp(np.cumsum(np.log(a)) / np.arange(1, 401))
        assert geo[100:].max() <= eq.capacity * (1 + 1e-2)


def test_a_product_l1_perturbed_converges(period2_torus):
    spec = PerturbationSpec(L1Decay(3.0, 0.05), "a")
    J = fg.apply_perturbation(period2_torus.params, spec, 80)
    base = period2_torus.params
    # limit equals exp(sum log(a_n/abase_n)), evaluated directly
    a1, _ = J.coeffs(1024)
    a0, _ = base.coeffs(1024)
    direct = float(np.exp(np.sum(np.log(a1) - np.log(a0))))
    assert fg.a_product(J, 1024, reference=base) == pytest.approx(direct, rel=1e-12)
    d = series_diagnostics(lambda K: fg.a_product(J, K, reference=base),
                           K0=128, tol=1e-6)
    assert d.converged and d.value == pytest.approx(direct, abs=1e-4)


def test_series_diagnostics_unconverged_tail():
    # the tail of an unconverged probe is the last doubling step, not 0
    d = series_diagnostics(lambda K: np.log(K), K0=4, tol=1e-3, max_doublings=5)
    assert not d.converged and d.n_terms == 128
    assert d.tail_estimate == pytest.approx(np.log(2.0), rel=1e-12)


def test_b_sum_zero():
    assert fg.b_sum(fg.free_jacobi(), fg.free_jacobi(), 100) == 0.0


def test_b_sum_zeta2():
    spec = PerturbationSpec(L1Decay(2.0, 1.0), "b")
    J = fg.apply_perturbation(fg.free_jacobi(), spec, 64)
    d = b_sum_diagnostics(J, fg.free_jacobi(), K0=1 << 10, tol=1e-6)
    # partial sums converge; compare against zeta(2) with the integral tail
    assert d.converged
    assert d.value == pytest.approx(np.pi**2 / 6, abs=1e-3)


def test_b_sum_oscillatory_cauchy():
    theta = 1 / np.sqrt(2)
    spec = PerturbationSpec(Oscillatory(theta, 1.0, 1.0), "b")
    J = fg.apply_perturbation(fg.free_jacobi(), spec, 64)
    d = b_sum_diagnostics(J, fg.free_jacobi(), K0=1 << 12, tol=1e-3)
    assert d.converged  # conditional convergence via summation by parts


def test_szego_ratio_identity(period2_torus):
    val = fg.szego_ratio(period2_torus.params, 3.0 + 0.5j, 64,
                         reference=period2_torus.params)
    assert val == pytest.approx(1.0 + 0j, abs=1e-14)


def test_szego_ratio_free_zero_gap():
    u = (3 + np.sqrt(5)) / 2
    val = fg.szego_ratio(fg.free_jacobi(), 3.0, 512)
    assert complex(val) == pytest.approx(u * u / (u * u - 1), abs=1e-6)


def test_szego_ratio_jost_expansion():
    # coefficient of 1/z in log(p_n/ptilde_n) equals -sum (b_j - btilde_j)
    spec = PerturbationSpec(L1Decay(2.5, 0.4), "b")
    J = fg.apply_perturbation(fg.free_jacobi(), spec, 600)
    ref = fg.free_jacobi()
    n = 500
    R = 1e3
    vals = []
    for z in (R, -R):
        g = complex(fg.szego_ratio(J, z, n, reference=ref))
        vals.append(np.log(g))
    c1 = (vals[0] - vals[1]) * R / 2  # odd part extracts the 1/z coefficient
    _, db = spec.deltas(n)
    assert c1.real == pytest.approx(-db.sum(), abs=1e-4)
    # consistency with (a_1...a_n)^{-1} leading factor: value at large |z|
    assert (vals[0] + vals[1]).real / 2 == pytest.approx(
        -np.log(fg.a_product(J, n, reference=ref)), abs=1e-6)


# ---------------------------------------------------------------------------
# oscillatory conditions


def test_oscillatory_gamma_validation():
    with pytest.raises(ValueError):
        Oscillatory(0.3, 1.0, 0.5)  # decay exactly 1/2 violates l^2


def test_oscillatory_spec_warns_on_resonance(eq_twoband):
    omega = eq_twoband.harmonic_measures[:1]
    # the k-vector prints as plain ints, not numpy scalars
    with pytest.warns(UserWarning, match=r"matches k.omega for k = \(-5,\);"):
        fg.oscillatory_spec(omega, [1], 0.1, 1.0)


def test_twisted_sums_irrational_theta(eq_twoband):
    omega = eq_twoband.harmonic_measures[:1]  # (0.5,)
    theta = 1 / np.pi  # far from multiples of 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = fg.oscillatory_spec(omega, [0], 0.5, 1.0, theta=theta, target="a")
    rep = twisted_sum_report(spec, omega, [np.array([k]) for k in range(-5, 6)],
                             N=1 << 15)
    for k, row in rep["per_k"].items():
        assert row["a"]["verdict"] == "converged", (k, row)


def test_twisted_sums_harmonic_divergence():
    spec = PerturbationSpec(Oscillatory(0.0, 1.0, 1.0), "a")
    rep = twisted_sum_report(spec, np.array([0.5]), [np.array([0])], N=1 << 15)
    row = rep["per_k"][(0,)]
    assert row["a"]["verdict"] == "diverged"


def test_twisted_sums_need_two_terms():
    # one term has no second half to measure a tail on: the harmonic series
    # read "converged" with tail 0 at N = 1; from N = 2 on it diverges
    spec = PerturbationSpec(Oscillatory(0.0, 1.0, 1.0), "a")
    for N in (0, 1):
        with pytest.raises(ValueError, match="N >= 2"):
            twisted_sum_report(spec, np.array([0.5]), [np.array([0])], N=N)
    rep = twisted_sum_report(spec, np.array([0.5]), [np.array([0])], N=2)
    assert rep["per_k"][(0,)]["a"]["verdict"] == "diverged"


def test_zero_amplitude_admissible():
    spec = PerturbationSpec(Oscillatory(0.3, 0.0, 1.0), "a")
    rep = twisted_sum_report(spec, np.array([0.5]), [np.array([1])], N=1 << 12)
    assert rep["per_k"][(1,)]["a"]["verdict"] == "converged"


# ---------------------------------------------------------------------------
# ks_l2


def test_ks_identity():
    d = fg.ks_l2(fg.free_jacobi(), fg.free_jacobi())
    assert d.value == 0.0 and d.converged


def test_ks_zeta2():
    spec = PerturbationSpec(SlowDecay(1.0, 1.0), "b")
    J = fg.apply_perturbation(fg.free_jacobi(), spec, 64)
    d = fg.ks_l2(J, fg.free_jacobi(), K0=1 << 12, tol=1e-4)
    assert d.converged
    assert d.value == pytest.approx(np.pi**2 / 6, abs=1e-3)


def test_ks_divergence_flagged():
    spec = PerturbationSpec(SlowDecay(0.6, 1.0), "b")  # exponent 2*0.6 > 1... use a
    # n^{-0.4} would violate the generator's own validation; emulate via random
    class Raw:
        def delta(self, n):
            return np.asarray(n, float) ** -0.4

        def to_json(self):
            return {"kind": "raw"}

    J = fg.apply_perturbation(fg.free_jacobi(), PerturbationSpec(Raw(), "b"), 64)
    d = fg.ks_l2(J, fg.free_jacobi(), K0=512, tol=1e-6, )
    assert not d.converged


# ---------------------------------------------------------------------------
# Cesaro averages


def test_cesaro_free_torus_point():
    assert fg.cesaro_distance(fg.free_jacobi(), E2, 20) == 0.0


def test_cesaro_work_is_linear_in_M(monkeypatch, period2_set, period2_torus):
    # each m starts at the last witness moved one stripping step on; moving
    # it m - 1 sites back and m - 1 on again took 16 321 steps at M = 100
    steps = 0
    step = fg.isotorus._StrippingTail._step

    def counted(self, index):
        nonlocal steps
        steps += 1
        return step(self, index)

    monkeypatch.setattr(fg.isotorus._StrippingTail, "_step", counted)
    M = 100
    assert fg.cesaro_distance(period2_torus.params, period2_set, M) < 1e-6
    assert steps <= 70 * M, steps


def test_cesaro_decay_slow_oscillation():
    # light version of acceptance criterion 10
    n = np.arange(1, 200)
    db = (-1.0) ** n / np.log(n + 1.0)
    J = fg.JacobiParams(np.ones(199), db)
    c50 = fg.cesaro_distance(J, E2, 50)
    c150 = fg.cesaro_distance(J, E2, 150)
    assert c150 < c50


def test_denisov_rakhmanov_illustration():
    # everywhere-positive band density plus 3 atoms: d_m(J, free) decays
    def theta_fn(j, th):
        x = 2 * np.cos(th)
        return 0.85 * (2 * np.sin(th) ** 2 / np.pi) * (1 + 0.2 * x / 2)

    mu = fg.measure_from_theta_density(
        E2, theta_fn, [(2.5, 0.05), (3.0, 0.05), (-2.6, 0.05)])
    J = fg.strip_coefficients(mu, 340, tol=1e-9)
    dms = np.array([fg.d_m(J, fg.free_jacobi(), m) for m in range(1, 301)])
    assert dms[299] < dms[0] / 5
    # decreasing trend over blocks
    blocks = dms.reshape(30, 10).mean(axis=1)
    assert blocks[-1] < blocks[0] / 3


# ---------------------------------------------------------------------------
# three-condition experiment


def test_three_condition_equilibrium(eq_twoband):
    mu = fg.equilibrium_measure(eq_twoband)
    rep = fg.three_condition_experiment(eq_twoband.set, mu, n_strip=128,
                                        n_trunc=512)
    assert rep.verdicts["a_finite"]
    assert rep.verdicts["b_finite"]
    assert rep.verdicts["c_bounded"]
    assert rep.verdicts["approach_to_torus"]
    assert rep.quantities["lt_half_sum"]["params"]["n_trunc"] == 512
    # the cumulative log-sum agrees with a_product at every n up to rounding
    J = fg.strip_coefficients(mu, 128, tol=1e-9)
    prods = [fg.a_product(J, n, capacity=eq_twoband.capacity)
             for n in range(1, 129)]
    lo, hi = rep.quantities["a_product_range"]["value"]
    assert lo == pytest.approx(min(prods), rel=1e-13)
    assert hi == pytest.approx(max(prods), rel=1e-13)


def test_three_condition_approach_is_measured(eq_twoband):
    # the equilibrium measure's coefficients are a torus point's, so both
    # searched deviations sit at the d_m floor
    rep = fg.three_condition_experiment(eq_twoband.set,
                                        fg.equilibrium_measure(eq_twoband),
                                        n_strip=128, n_trunc=512)
    q = rep.quantities["torus_deviation"]
    assert max(q["value"]) < 1e-10
    assert q["params"]["N_values"] == [64, 128]
    assert "grid_per_gap" not in q["params"]
    assert q["params"]["status"] == "floor" and q["params"]["nfev"] >= 1
    assert rep.verdicts["approach_to_torus"]


@pytest.mark.parametrize("atom", [0.3, -0.1])
def test_three_condition_approach_with_gap_atom(monkeypatch, period2_set, atom):
    # 0.9 equilibrium + 0.1 delta_atom on P2: the 8-point grid minimum read
    # 0.21-0.45 at both N here; the search finds the torus point at its site
    # start.  It steps 32 times for that evaluation and N/2 + 32 to read the
    # witness's site-N/2 point to N + 31 for both deviations; moving the
    # witness back to site 1 added N/2 - 1, building it twice took 605-765
    steps = 0
    step = fg.isotorus._StrippingTail._step

    def counted(self, index):
        nonlocal steps
        steps += 1
        return step(self, index)

    eq = period2_set.equilibrium
    mu = fg.measure_from_theta_density(
        period2_set, lambda j, th: 0.9 * eq.theta_density(j, th), [(atom, 0.1)])
    monkeypatch.setattr(fg.isotorus._StrippingTail, "_step", counted)
    rep = fg.three_condition_experiment(period2_set, mu, n_strip=96,
                                        n_trunc=384)
    q = rep.quantities["torus_deviation"]
    assert max(q["value"]) < 1e-12
    assert rep.verdicts["approach_to_torus"]
    assert q["params"]["nfev"] == 1
    assert steps <= 32 + (96 // 2 + 32) == 112


def test_three_condition_gapless_set_off_the_free_point():
    # on [-1, 3] the torus is the point a = 1, b = 1, not the free matrix
    eq = fg.make_band_set([-1.0, 3.0]).equilibrium
    rep = fg.three_condition_experiment(eq.set, fg.equilibrium_measure(eq),
                                        n_strip=64, n_trunc=256)
    assert max(rep.quantities["torus_deviation"]["value"]) < 1e-10
    assert rep.verdicts["approach_to_torus"]


def test_three_condition_torus_deviation_bit_identical_with_array_oracle(
        monkeypatch, eq_twoband):
    mu = fg.equilibrium_measure(eq_twoband)

    def deviation():
        rep = fg.three_condition_experiment(eq_twoband.set, mu, n_strip=128,
                                            n_trunc=512)
        return rep.quantities["torus_deviation"]["value"]

    got = deviation()
    monkeypatch.setattr(fg.isotorus, "_StrippingTail", oracles.StrippingTailPlain)
    want = deviation()
    assert len(got) == 2
    assert np.array(got).tobytes() == np.array(want).tobytes()


def _dead_band_measure(scale=1.0, atoms=()):
    # the semicircle with no mass on (0.2, 0.8), times scale, plus atoms
    def theta_fn(j, th):
        x = 2 * np.cos(th)
        h = scale * 2 * np.sin(th) ** 2 / np.pi
        return np.where((x > 0.2) & (x < 0.8), 0.0, h)

    return fg.measure_from_theta_density(E2, theta_fn, atoms, strict=False,
                                         validate=False)


class _Counted:
    """Records the N of every jacobi._strip_arrays call and of every
    truncation the experiment searches."""

    def __init__(self, monkeypatch):
        self.strips, self.truncations = [], []
        strip = fg.jacobi._strip_arrays
        trunc = sumrules.truncation_eigenvalues_outside

        def strip_arrays(mu, N, tol):
            self.strips.append(N)
            return strip(mu, N, tol)

        def truncation(J, e, N, hull=None):
            self.truncations.append(N)
            return trunc(J, e, N, hull=hull)

        monkeypatch.setattr(fg.jacobi, "_strip_arrays", strip_arrays)
        monkeypatch.setattr(sumrules, "truncation_eigenvalues_outside", truncation)


def test_three_condition_dead_band(monkeypatch):
    mu = _dead_band_measure()
    count = _Counted(monkeypatch)
    # the discontinuous density converges only like 1/M under discretization;
    # a loose strip tolerance is all the (a)/(c) status reporting needs
    rep = fg.three_condition_experiment(E2, mu, which_two=("a", "c"),
                                        n_strip=96, n_trunc=384,
                                        strip_tol=2e-3)
    assert not rep.verdicts["b_finite"]
    assert rep.verdicts["implied_third"] == "b_finite"
    assert rep.quantities["szego_integral"]["value"] == -np.inf
    # no component of R \ e meets the hull (-2, 2) and (b) fails: one strip,
    # to n_strip, bit for bit the strip on its own, and no truncation
    assert count.strips == [96] and count.truncations == []
    q = rep.quantities["lt_half_sum"]
    assert q["value"] == 0 and q["params"] == {
        "n_trunc": 384, "components_searched": 0, "tail": 0.0}
    a, _ = fg.strip_coefficients(mu, 96, tol=2e-3).coeffs(96)
    prods = np.exp(np.cumsum(np.log(a)))
    assert rep.quantities["a_product_range"]["value"] == [prods.min(), prods.max()]


@pytest.mark.parametrize("measure", ["semicircle", "arcsine", "dead_band"])
def test_no_truncation_eigenvalue_off_the_hull(measure):
    # zeros of p_N lie strictly inside the hull of the support (Szego,
    # Orthogonal Polynomials, Thm 3.3.1): with no atom and support [-2, 2],
    # no truncation of any size has an eigenvalue off e = [-2, 2].  J is that
    # of the measure discretized on 4096 nodes, itself supported in (-2, 2)
    mu = {"semicircle": fg.semicircle_measure, "arcsine": fg.arcsine_measure,
          "dead_band": _dead_band_measure}[measure]()
    x, w = mu.discretize(4096)
    J = fg.JacobiParams(*oracles.stieltjes_plain(x, w, 512))
    for N in (256, 512):
        assert len(oracles.truncation_eigenvalues_outside_dense(J, E2, N)) == 0


@pytest.mark.parametrize("measure", ["semicircle", "arcsine"])
def test_three_condition_searches_nothing_off_the_hull(monkeypatch, measure):
    mu = {"semicircle": fg.semicircle_measure, "arcsine": fg.arcsine_measure}[measure]()
    count = _Counted(monkeypatch)
    rep = fg.three_condition_experiment(E2, mu, n_strip=64, n_trunc=256)
    q = rep.quantities["lt_half_sum"]
    assert q["value"] == 0 and q["params"]["tail"] == 0
    assert q["params"]["components_searched"] == 0
    assert rep.verdicts["a_finite"] and rep.verdicts["approach_to_torus"]
    # (b) holds, so the one strip goes to n_strip + 31, as far as the
    # approach check's second deviation reads
    assert count.strips == [64 + 31] and count.truncations == []


def test_three_condition_searches_with_an_atom_past_the_edge(monkeypatch):
    mu = _dead_band_measure(0.9, [(2.5, 0.1)])
    count = _Counted(monkeypatch)
    rep = fg.three_condition_experiment(E2, mu, which_two=("a", "c"),
                                        n_strip=64, n_trunc=256, strip_tol=2e-3)
    q = rep.quantities["lt_half_sum"]
    # the hull [-2, 2.5] meets (2, inf) only
    assert q["params"]["components_searched"] == 1
    assert count.strips == [256] and count.truncations == [256, 128]
    # the eigenvalue at the atom, 0.5 from e
    assert q["value"] == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert rep.verdicts["a_finite"] and rep.verdicts["c_bounded"]


@pytest.mark.parametrize("support,edges,searched", [
    ([-2, 2], [-2.5, 2.5], 0),  # e wider than mu.set: no component meets its hull
    ([-2, 2], [-1.5, 1.5], 2),  # e narrower: both outer components do
    ([-2.5, 2.5], [-2, 2], 2),  # e's own hull would skip what mu's hull reaches
])
def test_three_condition_hull_is_that_of_mu(monkeypatch, support, edges, searched):
    e = fg.make_band_set(edges)
    mu = fg.measure_from_theta_density(
        fg.make_band_set(support), lambda j, th: 2 * np.sin(th) ** 2 / np.pi)
    # the eigenvalues of the 128 x 128 truncation off e, before any filter
    a, b = fg.strip_coefficients(mu, 128).coeffs(128)
    ev = np.linalg.eigvalsh(np.diag(b) + np.diag(a[:-1], 1) + np.diag(a[:-1], -1))
    assert (np.abs(ev) > edges[1]).any() == bool(searched)
    count = _Counted(monkeypatch)
    rep = fg.three_condition_experiment(e, mu, which_two=("a", "c"),
                                        n_strip=32, n_trunc=128)
    q = rep.quantities["lt_half_sum"]
    assert q["params"]["components_searched"] == searched
    assert len(count.truncations) == searched
    monkeypatch.undo()
    want, _ = oracles.three_condition_two_strip(e, mu, 32, 128, 1e-9, 1.0)
    assert q["value"] == pytest.approx(want, rel=1e-13, abs=0)


def _period2_atom(e, atom):
    # the period2_atom benchmark measure: 0.9 equilibrium + 0.1 delta_atom
    eq = e.equilibrium
    return fg.measure_from_theta_density(
        e, lambda j, th: 0.9 * eq.theta_density(j, th), [(atom, 0.1)])


@pytest.mark.parametrize("case", [
    "period2_atom", "arcsine+3", "arcsine-3", "dead_band+2.5",
    "e wider", "e narrower", "mu wider"])
def test_truncation_search_on_the_hull_bit_identical(period2_set, case):
    # searching only the components that meet the hull of supp mu finds the
    # eigenvalues that the search of every component finds, bit for bit,
    # and the two-spectrum oracle's within 1e-12
    if case == "period2_atom":
        e, mu, n_trunc = period2_set, _period2_atom(period2_set, 0.3), 384
    elif case.startswith("arcsine"):
        atom = float(case[len("arcsine"):])
        e, n_trunc = E2, 512
        mu = fg.measure_from_theta_density(
            E2, lambda j, th: np.full_like(th, 0.8 / np.pi), [(atom, 0.2)])
    elif case == "dead_band+2.5":
        e, mu, n_trunc = E2, _dead_band_measure(0.9, [(2.5, 0.1)]), 256
    else:
        support, edges = {"e wider": ([-2, 2], [-2.5, 2.5]),
                          "e narrower": ([-2, 2], [-1.5, 1.5]),
                          "mu wider": ([-2.5, 2.5], [-2, 2])}[case]
        e, n_trunc = fg.make_band_set(edges), 128
        mu = fg.measure_from_theta_density(
            fg.make_band_set(support), lambda j, th: 2 * np.sin(th) ** 2 / np.pi)
    support = [*mu.set.endpoints[[0, -1]], *(x for x, _ in mu.point_masses)]
    hull = (min(support), max(support))
    J = fg.strip_coefficients(mu, n_trunc, tol=2e-3 if case.startswith("dead") else 1e-9)
    found = 0
    for N in (n_trunc, n_trunc // 2):
        got = fg.truncation_eigenvalues_outside(J, e, N, hull=hull)
        want = fg.truncation_eigenvalues_outside(J, e, N)
        assert got.tobytes() == want.tobytes(), (N, got, want)
        ref = oracles.truncation_eigenvalues_outside_dense(J, e, N)
        assert len(got) == len(ref) and np.all(np.abs(got - ref) <= 1e-12), (got, ref)
        found += len(got)
    # the components that meet the hull, of the l + 2; the atoms' eigenvalues
    # are found, and without atoms the truncations' ones off e wander
    searched = {"e wider": 0, "e narrower": 2, "mu wider": 2}.get(case, 1)
    assert len(fg.jacobi.components_off(e, hull)) == searched
    assert (found > 0) == bool(mu.point_masses)


def test_three_condition_solves_each_sets_equilibrium_once(monkeypatch):
    calls = []
    solve = fg.bandset.solve_equilibrium

    def counted(e):
        calls.append(e)
        return solve(e)

    monkeypatch.setattr(fg.bandset, "solve_equilibrium", counted)
    e = fg.make_band_set([-2.0, 2.0])
    for mu in (fg.semicircle_measure(), fg.arcsine_measure()):
        rep = fg.three_condition_experiment(e, mu, n_strip=32, n_trunc=128)
        assert rep.quantities["a_product_range"]["params"]["capacity"] == 1.0
    assert calls == [e]


@pytest.mark.parametrize("example", ["arcsine_atom", "period2_atom"])
def test_three_condition_strips_once(monkeypatch, period2_set, example):
    # one strip to n_trunc serves the a-products, both truncations and the
    # approach check; the head moves only by the rounding of a longer exact
    # grid from the strip to n_strip and its tail re-strip to n_trunc
    e = E2 if example == "arcsine_atom" else period2_set
    eq = e.equilibrium
    if example == "arcsine_atom":
        mu = fg.measure_from_theta_density(
            E2, lambda j, th: np.full_like(th, 0.8 / np.pi), [(3.0, 0.2)])
        n_strip = 128
    else:
        mu = fg.measure_from_theta_density(
            e, lambda j, th: 0.9 * eq.theta_density(j, th), [(0.3, 0.1)])
        n_strip = 96
    count = _Counted(monkeypatch)
    rep = fg.three_condition_experiment(e, mu, n_strip=n_strip,
                                        n_trunc=4 * n_strip)
    assert count.strips == [4 * n_strip]
    assert count.truncations == [4 * n_strip, 2 * n_strip]
    q = rep.quantities
    # the hull meets one component: (2, inf) with the atom at 3, P2's gap
    # with the atom at 0.3
    assert q["lt_half_sum"]["params"]["components_searched"] == 1
    monkeypatch.undo()
    lt, prods = oracles.three_condition_two_strip(e, mu, n_strip, 4 * n_strip,
                                                  1e-9, eq.capacity)
    assert lt > 0
    assert q["lt_half_sum"]["value"] == pytest.approx(lt, rel=1e-13, abs=0)
    assert q["a_product_range"]["value"] == pytest.approx(prods, rel=1e-13, abs=0)


@pytest.mark.parametrize("atoms", [(), [(3.0, 0.2)]], ids=["hull", "search"])
@pytest.mark.parametrize("n_strip,n_trunc", [(1, 64), (32, 3), (32, 2)])
def test_three_condition_rejects_short_strips(atoms, n_strip, n_trunc):
    # checked up front on both routes of (a): the hull rule must not turn a
    # truncation that cannot be formed into an answer
    mu = fg.measure_from_theta_density(
        E2, lambda j, th: np.full_like(th, (1.0 - 0.2 * len(atoms)) / np.pi), atoms)
    with pytest.raises(ValueError, match="n_strip >= 2 and n_trunc >= 4"):
        fg.three_condition_experiment(E2, mu, n_strip=n_strip, n_trunc=n_trunc)


def test_run_experiments_concurrent():
    jobs = {
        ("lt", 0): lambda: fg.lt_free_bound(
            PerturbationSpec(RandomDecay(0, 1.6, 0.5), "b"), n_trunc=400),
        ("lt", 1): lambda: fg.lt_free_bound(
            PerturbationSpec(RandomDecay(1, 1.6, 0.5), "b"), n_trunc=400),
    }
    results = run_experiments(jobs, workers=2)
    assert all(r.holds for r in results.values())
    # determinism: rerunning a job gives the same numbers
    again = run_experiments(jobs, workers=1)
    assert again[("lt", 0)].lhs == results[("lt", 0)].lhs


def test_run_experiments_pool_matches_serial():
    jobs = {s: (lambda s=s: fg.lt_free_bound(
        PerturbationSpec(RandomDecay(s, 1.5, 0.5), "both" if s % 2 else "b"),
        n_trunc=400)) for s in range(40)}
    pooled = run_experiments(jobs, workers=2)
    serial = {k: job() for k, job in jobs.items()}
    for k in jobs:
        assert pooled[k].to_json() == serial[k].to_json()
        assert (np.array(pooled[k].eigenvalues).tobytes()
                == np.array(serial[k].eigenvalues).tobytes())


def test_run_experiments_shared_spec_matches_serial():
    # one RandomDecay spec read by both workers at once: kinds keep no state
    spec = PerturbationSpec(RandomDecay(17, 1.5, 0.5), "both")
    jobs = {i: (lambda: fg.lt_free_bound(spec, n_trunc=400)) for i in range(16)}
    serial = fg.lt_free_bound(spec, n_trunc=400)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two workers finely
    try:
        pooled = run_experiments(jobs, workers=2)
    finally:
        sys.setswitchinterval(interval)
    for res in pooled.values():
        assert res.to_json() == serial.to_json()
        assert (np.array(res.eigenvalues).tobytes()
                == np.array(serial.eigenvalues).tobytes())


def test_three_condition_semicircle_plus_atom():
    def theta_fn(j, th):
        return 0.8 * 2 * np.sin(th) ** 2 / np.pi

    mu = fg.measure_from_theta_density(E2, theta_fn, [(3.0, 0.2)])
    rep = fg.three_condition_experiment(E2, mu, n_strip=128, n_trunc=512)
    assert rep.verdicts["a_finite"] and rep.verdicts["b_finite"] \
        and rep.verdicts["c_bounded"]
    assert np.isfinite(rep.quantities["szego_integral"]["value"])
    # the report's JSON value carries truncation parameters
    doc = rep.to_json()
    assert doc["quantities"]["a_product_range"]["params"]["n"] == 128
