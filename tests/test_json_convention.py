"""Every to_json returns a plain JSON value and every from_json takes one."""
import json

import numpy as np
import pytest

import finitegap as fg
from finitegap.jacobi import FreeTail, JacobiParams, PeriodicTail, SpectralMeasure
from finitegap.sumrules import (L1Decay, Oscillatory, PerturbationSpec,
                                RandomDecay, SingleSite, SlowDecay,
                                SumDiagnostics)

E2 = fg.make_band_set([-2.0, 2.0])
P2 = fg.make_band_set([-np.sqrt(5.0), -1.0, 1.0, np.sqrt(5.0)])
KINDS = (L1Decay(1.5, 0.5), SlowDecay(0.75, -0.3), SingleSite(7, -0.5),
         Oscillatory(0.3, 0.4, 0.75, 0.2), RandomDecay(11, 1.5, 0.5))


def assert_plain(v):
    """v is a dict or list that json reproduces exactly without a default= hook
    (a tuple would come back as a list and fail)."""
    assert isinstance(v, (dict, list))
    assert json.loads(json.dumps(v)) == v


def jacobi_free_and_periodic():
    return (JacobiParams(np.array([2.0, 1.0]), np.array([0.5, 0.0]), FreeTail()),
            JacobiParams(np.array([2.0]), np.array([0.5]),
                         PeriodicTail([1.5, 0.7], [0.25, -0.1])))


def test_band_set_and_equilibrium():
    e = fg.make_band_set([-2.0, -0.5, 0.5, 1.0, 1.5, 2.0])
    assert_plain(e.to_json())
    assert fg.FiniteGapSet.from_json(e.to_json()) == e
    eq = fg.solve_equilibrium(e)
    assert_plain(eq.to_json())
    assert eq.to_json()["harmonic_measures"] == eq.harmonic_measures.tolist()


def test_dirichlet_and_torus_distance():
    dd = fg.dirichlet_data(P2, [(0.3, -1)])
    assert_plain(dd.to_json())
    assert fg.DirichletData.from_json(dd.to_json()) == dd
    tp = fg.torus_jacobi(P2, dd, 32)
    for J in (tp.params, fg.free_jacobi()):
        res = fg.dist_to_torus(J, P2, 1)
        doc = res.to_json()
        assert_plain(doc)
        assert doc["dirichlet"] == res.dirichlet.to_json()
        assert type(doc["nfev"]) is int and type(doc["starts"]) is int
        assert doc["status"] == ("floor" if J is tp.params else "converged")


@pytest.mark.parametrize("J", jacobi_free_and_periodic(), ids=["free", "periodic"])
def test_jacobi_params(J):
    assert_plain(J.to_json())
    J2 = JacobiParams.from_json(J.to_json())
    assert J2.to_json() == J.to_json()
    assert [x.tobytes() for x in J2.coeffs(9)] == [x.tobytes() for x in J.coeffs(9)]


def test_computed_tail_is_not_serializable():
    J = fg.apply_perturbation(fg.free_jacobi(),
                              PerturbationSpec(SingleSite(1, 0.5), "b"), 4)
    with pytest.raises(ValueError):
        J.to_json()


def test_spectral_measure():
    mu = fg.measure_from_theta_density(
        E2, lambda j, th: np.full_like(th, 0.8 / np.pi), [(3.0, 0.2)])
    assert_plain(mu.to_json())
    mu2 = SpectralMeasure.from_json(mu.to_json())
    assert mu2.to_json() == mu.to_json()
    assert mu2.set == mu.set


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.kind)
@pytest.mark.parametrize("target", ["a", "b", "both"])
def test_perturbation_spec(kind, target):
    spec = PerturbationSpec(kind, target)
    assert_plain(spec.to_json())
    spec2 = PerturbationSpec.from_json(spec.to_json())
    assert spec2.to_json() == spec.to_json()
    assert type(spec2.kind) is type(kind)
    for x, y in zip(spec2.deltas(300), spec.deltas(300)):
        assert x.tobytes() == y.tobytes()


def test_lt_bound_and_sum_diagnostics():
    res = fg.lt_free_bound(PerturbationSpec(SingleSite(1, 3.0), "b"), n_trunc=64)
    assert_plain(res.to_json())
    assert_plain(SumDiagnostics(1.5, 512, 1e-9, True).to_json())


def test_experiment_report():
    mu = fg.measure_from_theta_density(
        E2, lambda j, th: np.full_like(th, 0.8 / np.pi), [(3.0, 0.2)])
    rep = fg.three_condition_experiment(E2, mu, n_strip=32, n_trunc=128)
    doc = rep.to_json()
    assert_plain(doc)
    assert doc["inputs"]["bands"] == E2.to_json()
    assert doc["verdicts"] == rep.verdicts
