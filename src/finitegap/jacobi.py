"""Jacobi coefficient sequences, orthonormal polynomials and spectral measures.

Indexing follows the half-line convention (u_0 = 0): a Jacobi matrix acts as
(Ju)_n = a_n u_{n+1} + b_n u_n + a_{n-1} u_{n-1}, n >= 1, and the orthonormal
polynomials satisfy p_0 = 1, a_1 p_1 = z - b_1,
a_{n+1} p_{n+1} = (z - b_{n+1}) p_n - a_n p_{n-1}.

Spectral measures carry an absolutely continuous part on the bands, stored as
cosine-series coefficients of the theta-density h_j (so band masses and
Stieltjes transforms are spectral-accuracy sums), plus finitely many point
masses off the bands.  Singular continuous parts are not representable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import json
import math
import threading

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .bandset import FiniteGapSet, dist_to_set, make_band_set
from .errors import AccuracyError, DomainError, MeasureError
from .quadrature import (adaptive_cos_coeffs, cos_series_resolved, cosine_nodes,
                         eval_cos_series, inv_joukowski)


# ---------------------------------------------------------------------------
# coefficient sequences


class FreeTail:
    """a = 1, b = 0 beyond the head."""

    def range_coeffs(self, offset: int, count: int):
        return np.ones(count), np.zeros(count)

    def to_json(self):
        return {"kind": "free"}


class PeriodicTail:
    """Cycles the given period arrays immediately after the head."""

    def __init__(self, a, b):
        self.a = np.asarray(a, float)
        self.b = np.asarray(b, float)
        if len(self.a) != len(self.b) or len(self.a) == 0:
            raise ValueError("periodic tail needs equal, nonzero period arrays")
        if np.any(self.a <= 0):
            raise ValueError("tail a-coefficients must be positive")

    def range_coeffs(self, offset: int, count: int):
        idx = (offset + np.arange(count)) % len(self.a)
        return self.a[idx], self.b[idx]

    def to_json(self):
        return {"kind": "periodic", "a": list(self.a), "b": list(self.b)}


class ExtendTail:
    """Tail backed by a provider materializing absolute coefficients 1..N.

    Used for torus points (provider continues the exact stripping
    recursion), stripped measures (re-strips at larger N by Stieltjes plus
    RKPW, one exact-sized grid when the band series resolved) and perturbed
    operators (applies the perturbation to the base).  Providers shared
    between threads must publish each (a, b) pair atomically.  Not JSON
    serializable.
    """

    def __init__(self, provider, head_len: int):
        self.provider = provider
        self.head_len = head_len

    def range_coeffs(self, offset: int, count: int):
        a, b = self.provider(self.head_len + offset + count)
        lo = self.head_len + offset
        return a[lo:lo + count], b[lo:lo + count]

    def to_json(self):
        raise ValueError("computed tails cannot be serialized")


@dataclass(frozen=True, eq=False)
class JacobiParams:
    """Half-line Jacobi coefficients: explicit head plus a tail descriptor."""

    head_a: np.ndarray
    head_b: np.ndarray
    tail: object = field(default_factory=FreeTail)

    def __post_init__(self):
        ha = np.atleast_1d(np.asarray(self.head_a, float))
        hb = np.atleast_1d(np.asarray(self.head_b, float))
        if ha.shape != hb.shape:
            raise ValueError("head_a and head_b must have equal length")
        if not (np.all(np.isfinite(ha)) and np.all(np.isfinite(hb))):
            raise ValueError("coefficients must be finite")
        if np.any(ha <= 0):
            raise ValueError("a-coefficients must be positive")
        object.__setattr__(self, "head_a", ha)
        object.__setattr__(self, "head_b", hb)

    @property
    def head_len(self) -> int:
        return len(self.head_a)

    def coeffs(self, n: int):
        """Arrays (a_1..a_n, b_1..b_n)."""
        k = self.head_len
        if n <= k:
            return self.head_a[:n].copy(), self.head_b[:n].copy()
        ta, tb = self.tail.range_coeffs(0, n - k)
        a = np.concatenate([self.head_a, ta])
        b = np.concatenate([self.head_b, tb])
        if np.any(a <= 0) or not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
            raise ValueError("tail produced invalid coefficients")
        return a, b

    def a(self, n: int) -> float:
        return self._pair(n)[0]

    def b(self, n: int) -> float:
        return self._pair(n)[1]

    def _pair(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        if n <= self.head_len:
            return float(self.head_a[n - 1]), float(self.head_b[n - 1])
        ta, tb = self.tail.range_coeffs(n - self.head_len - 1, 1)
        return float(ta[0]), float(tb[0])

    def to_json(self) -> str:
        return json.dumps({"head_a": list(self.head_a), "head_b": list(self.head_b),
                           "tail": self.tail.to_json()})

    @classmethod
    def from_json(cls, text: str) -> "JacobiParams":
        d = json.loads(text)
        tail_d = d.get("tail", {"kind": "free"})
        if tail_d["kind"] == "free":
            tail = FreeTail()
        elif tail_d["kind"] == "periodic":
            tail = PeriodicTail(tail_d["a"], tail_d["b"])
        else:
            raise ValueError(f"unknown tail kind {tail_d['kind']!r}")
        return cls(np.asarray(d["head_a"], float), np.asarray(d["head_b"], float), tail)


def free_jacobi() -> JacobiParams:
    """The free matrix: a = 1, b = 0."""
    return JacobiParams(np.empty(0), np.empty(0), FreeTail())


def write_coeff_csv(J: JacobiParams, n: int, path):
    """CSV table (n, a_n, b_n), 17 significant digits."""
    a, b = J.coeffs(n)
    with open(path, "w") as fh:
        fh.write("n,a_n,b_n\n")
        for i in range(n):
            fh.write(f"{i + 1},{a[i]:.17g},{b[i]:.17g}\n")


# ---------------------------------------------------------------------------
# orthonormal polynomials and transfer matrices


def _oprl_scaled(J: JacobiParams, n: int, z):
    """Scaled values of p_{-1} = 0, p_0, ..., p_n at every entry of z.

    Returns (mant, exp2), each of shape (n + 2,) + shape(z), with
    p_{k-1}(z) = mant[k] * 2**exp2[k].  The pair (p_{k-1}, p_k) is rescaled
    by 2^-+500 when max(|p_{k-1}|, |p_k|) has left [2^-500, 2^500]; powers of
    two are exact, so the values are those of the plain recursion wherever
    that stays finite.  Real z runs in float64, complex z in complex128.
    """
    a, b = J.coeffs(max(n, 1))
    z = np.asarray(z, complex if np.iscomplexobj(z) else float)
    shape = z.shape
    # always 1-d: numpy's scalar and array complex products round differently
    z = z.ravel()
    zb = z - b[:n, None]
    # step k scales max(|p_{k-1}|, |p_k|) up or down by at most 2^drift[k]
    # (solve the recursion for p_{k+1}, or for p_{k-1}; ap[0] is a stand-in,
    # as p_{-1} = 0), so the range is checked only before the drift since
    # the last check passes 400 bits: the pair then stays within 2^-+900,
    # far from overflow and subnormals
    ak, ap = a[:n], np.roll(a[:n], 1)
    drift = np.log2(np.maximum(1.0, (np.abs(zb).max(axis=1, initial=0.0)
                                     + np.maximum(ak, ap)) / np.minimum(ak, ap))).tolist()
    mant = np.zeros((n + 2, z.size), z.dtype)
    exp2 = np.zeros((n + 2, z.size), int)
    mant[1] = 1.0
    pm, pc = mant[0], mant[1]
    budget = 0.0
    for k in range(n):
        budget += drift[k]
        if budget > 400:
            budget = drift[k]
            mx = np.maximum(np.abs(pm), np.abs(pc))
            shift = np.where(mx > 2.0**500, 500,
                             np.where((mx > 0) & (mx < 2.0**-500), -500, 0))
            if shift.any():
                scale = np.ldexp(1.0, -shift)
                pm, pc = pm * scale, pc * scale
                exp2[k + 2:] += shift
        pm, pc = pc, (zb[k] * pc - a[k - 1] * pm) / a[k]
        mant[k + 2] = pc
    return mant.reshape((n + 2,) + shape), exp2.reshape((n + 2,) + shape)


def oprl_eval(J: JacobiParams, n: int, z) -> np.ndarray:
    """Values p_0(z)..p_n(z), shape (n + 1,) + shape(z).

    Overflows to inf where |p_k| exceeds the double range; use
    oprl_log_abs/oprl_scaled_last there.
    """
    mant, exp2 = _oprl_scaled(J, n, z)
    return mant[1:] * np.ldexp(1.0, exp2[1:])


def oprl_scaled_last(J: JacobiParams, n: int, z):
    """(mantissa pair (p_{n-1}, p_n), base-2 exponent) with rescaling.

    p_n(z) = mant[1] * 2**exp2; safe for n ~ 1e3 far outside the hull.
    """
    mant, exp2 = _oprl_scaled(J, n, z)
    ex = int(exp2[n + 1])
    return (mant[n] * 2.0 ** (int(exp2[n]) - ex), mant[n + 1]), ex


def oprl_log_abs(J: JacobiParams, n: int, z) -> np.ndarray:
    """log|p_k(z)| for k = 0..n, computed with overflow-safe rescaling."""
    mant, exp2 = _oprl_scaled(J, n, z)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(mant[1:])) + exp2[1:] * math.log(2.0)


def transfer_growth(J: JacobiParams, lam: float, N: int) -> float:
    """max_{n<=N} ||T_n ... T_1|| (2-norm), with a_0 := 1 for the first step.

    Returns inf when the product overflows double range.
    """
    a, b = J.coeffs(N)
    P = np.eye(2)
    logmax = 0.0
    logscale = 0.0
    for k in range(N):
        am1 = a[k - 1] if k > 0 else 1.0
        T = np.array([[(lam - b[k]) / a[k], -am1 / a[k]], [1.0, 0.0]])
        P = T @ P
        # exact 2-norm of a 2x2 matrix
        fro2 = float(np.sum(P * P))
        det = abs(float(P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]))
        smax = math.sqrt((fro2 + math.sqrt(max(fro2 * fro2 - 4 * det * det, 0.0))) / 2)
        logmax = max(logmax, logscale + math.log(smax))
        if smax > 1e100:
            P /= smax
            logscale += math.log(smax)
    return math.exp(logmax) if logmax < 709 else math.inf


def truncation_matrix(J: JacobiParams, N: int):
    a, b = J.coeffs(N)
    return b, a[:N - 1]


def truncation_eigenvalues_outside(J: JacobiParams, e: FiniteGapSet, N: int,
                                   stability_tol: float = 1e-6) -> np.ndarray:
    """Eigenvalues of the N x N truncation lying off e, stability-filtered.

    Spurious gap eigenvalues of truncations wander as N changes; only
    eigenvalues that move by less than stability_tol between the N/2 and N
    truncations are reported.

    Only the few eigenvalues off e are computed: bisection with Sturm counts
    (LAPACK stebz) on each component of R \\ e, never the whole spectrum.
    The N/2 truncation is searched on the same components widened by
    stability_tol, which holds every eigenvalue within stability_tol of a
    candidate.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    out = [x for x in _eigenvalues_off(J, e, N, 0.0) if dist_to_set(e, x) > 0]
    if not out:
        return np.empty(0)
    ev_half = _eigenvalues_off(J, e, N // 2, stability_tol)
    stable = [x for x in out if np.abs(ev_half - x).min(initial=np.inf) < stability_tol]
    return np.array(sorted(stable))


def _eigenvalues_off(J: JacobiParams, e: FiniteGapSet, N: int, pad: float) -> np.ndarray:
    """Eigenvalues of the N x N truncation in the components of R \\ e, each
    widened by pad on both sides: (-inf, a_1 + pad], (b_j - pad, a_{j+1} + pad],
    (b_{l+1} - pad, inf].  The ends are half-open, as in stebz."""
    d, od = truncation_matrix(J, N)
    edges = [-math.inf, *e.endpoints, math.inf]
    return np.concatenate([
        eigh_tridiagonal(d, od, eigvals_only=True, select="v",
                         select_range=(lo - pad, hi + pad))
        for lo, hi in zip(edges[::2], edges[1::2])])


# ---------------------------------------------------------------------------
# spectral measures


class SpectralMeasure:
    """Probability measure: per-band a.c. part plus point masses off the bands.

    band_coeffs[j]: cosine coefficients of h_j(theta); the a.c. part of an
    integral is  sum_j int_0^pi g(mid_j + rad_j cos th) h_j(th) dth.
    An optional exact theta-density callable (j, theta) -> values is kept when
    the measure comes from a closed form; it is preferred for discretization.
    """

    def __init__(self, e: FiniteGapSet, band_coeffs, point_masses=(),
                 theta_fn=None, validate: bool = True, mass_tol: float = 1e-8):
        self.set = e
        self.band_coeffs = [np.asarray(c, float) for c in band_coeffs]
        pm = [(float(x), float(w)) for x, w in point_masses]
        self.point_masses = sorted(pm)
        self._theta_fn = theta_fn
        if len(self.band_coeffs) != e.n_bands:
            raise MeasureError("one coefficient array per band required")
        if validate:
            self._validate(mass_tol)

    def _validate(self, mass_tol):
        for x, w in self.point_masses:
            if w <= 0:
                raise MeasureError(f"point mass weight {w} at {x} must be positive")
            if dist_to_set(self.set, x) == 0:
                raise MeasureError(f"point mass at {x} lies on the essential spectrum")
        m = self.total_mass()
        if abs(m - 1.0) > mass_tol:
            raise MeasureError(f"total mass {m} is not 1 within {mass_tol:g}")

    def band_mass(self, j: int) -> float:
        return float(np.pi * self.band_coeffs[j][0])

    def total_mass(self) -> float:
        return sum(self.band_mass(j) for j in range(self.set.n_bands)) + \
            sum(w for _, w in self.point_masses)

    def theta_density(self, j: int, theta) -> np.ndarray:
        if self._theta_fn is not None:
            return np.asarray(self._theta_fn(j, np.asarray(theta, float)), float)
        return eval_cos_series(self.band_coeffs[j], theta)

    def density(self, x: float) -> float:
        """dmu_ac/dx at a band-interior point: h(theta)/(rad sin theta)."""
        j = self.set.band_index(x)
        if j is None:
            raise DomainError(f"{x} not inside a band")
        rad, mid = self.set.radii[j], self.set.midpoints[j]
        ct = np.clip((x - mid) / rad, -1.0, 1.0)
        st = math.sqrt(1.0 - ct * ct)
        if st == 0.0:
            raise DomainError(f"{x} is a band endpoint")
        theta = math.acos(ct)
        h = np.atleast_1d(self.theta_density(j, np.array([theta])))
        return float(h[0] / (rad * st))

    def discretize(self, nodes_per_band: int):
        """Midpoint-in-theta nodes/weights per band, then the exact point
        masses as the last entries."""
        theta = cosine_nodes(nodes_per_band)
        xs, ws = [], []
        for j in range(self.set.n_bands):
            xs.append(self.set.midpoints[j] + self.set.radii[j] * np.cos(theta))
            ws.append(self.theta_density(j, theta) * (np.pi / nodes_per_band))
        for x, w in self.point_masses:
            xs.append(np.array([x]))
            ws.append(np.array([w]))
        return np.concatenate(xs), np.concatenate(ws)

    def m(self, z) -> complex:
        """Stieltjes transform int dmu(x)/(x - z); see m_from_measure."""
        return m_from_measure(self, z)

    def normalized(self) -> "SpectralMeasure":
        m = self.total_mass()
        return SpectralMeasure(self.set, [c / m for c in self.band_coeffs],
                               [(x, w / m) for x, w in self.point_masses],
                               theta_fn=(None if self._theta_fn is None else
                                         lambda j, th: self._theta_fn(j, th) / m),
                               validate=False)

    def to_json(self) -> str:
        return json.dumps({
            "bands": [[a, b] for a, b in self.set.bands],
            "density_coeffs": [list(c) for c in self.band_coeffs],
            "point_masses": [[x, w] for x, w in self.point_masses],
        })

    @classmethod
    def from_json(cls, text: str) -> "SpectralMeasure":
        d = json.loads(text)
        e = make_band_set([x for pair in d["bands"] for x in pair])
        return cls(e, [np.asarray(c, float) for c in d["density_coeffs"]],
                   [(x, w) for x, w in d["point_masses"]])


def measure_from_theta_density(e: FiniteGapSet, theta_fn, point_masses=(),
                               strict: bool = True, n_max: int = 4096,
                               validate: bool = True) -> SpectralMeasure:
    """Build a measure from an exact per-band theta-density callable."""
    coeffs = [adaptive_cos_coeffs(lambda th, j=j: theta_fn(j, th),
                                  strict=strict, n_max=n_max)
              for j in range(e.n_bands)]
    return SpectralMeasure(e, coeffs, point_masses, theta_fn=theta_fn,
                           validate=validate)


def measure_from_band_density(e: FiniteGapSet, f, point_masses=(),
                              strict: bool = True,
                              validate: bool = True) -> SpectralMeasure:
    """Build a measure from a density f(x) given in closed form on the bands."""

    def theta_fn(j, theta):
        t = e.midpoints[j] + e.radii[j] * np.cos(theta)
        return f(t) * e.radii[j] * np.sin(theta)

    return measure_from_theta_density(e, theta_fn, point_masses, strict=strict,
                                      validate=validate)


def equilibrium_measure(eq) -> SpectralMeasure:
    """The equilibrium measure of a solved band set as a SpectralMeasure."""
    return SpectralMeasure(eq.set, [c.copy() for c in eq.band_coeffs],
                           theta_fn=eq.theta_density)


def semicircle_measure() -> SpectralMeasure:
    """Free spectral measure sqrt(4-x^2)/(2 pi) dx on [-2, 2]."""
    e = make_band_set([-2.0, 2.0])
    return measure_from_theta_density(e, lambda j, th: 2.0 * np.sin(th) ** 2 / np.pi)


def arcsine_measure() -> SpectralMeasure:
    """Equilibrium measure 1/(pi sqrt(4-x^2)) dx of [-2, 2]."""
    e = make_band_set([-2.0, 2.0])
    return measure_from_theta_density(e, lambda j, th: np.full_like(th, 1.0 / np.pi))


def m_from_measure(mu: SpectralMeasure, z, min_dist: float = 1e-8) -> complex:
    """m(z) = int dmu(x)/(x - z) for z off the support.

    Band parts are geometric series in the inverse Joukowski variable of each
    band; point masses are summed exactly.  Raises AccuracyError within
    min_dist of the support.
    """
    zv = complex(z)
    if zv.imag == 0:
        if dist_to_set(mu.set, zv.real) < min_dist:
            raise AccuracyError(f"z = {z} within {min_dist:g} of the bands")
    for x, _ in mu.point_masses:
        if abs(zv - x) < min_dist:
            raise AccuracyError(f"z = {z} within {min_dist:g} of the mass at {x}")
    e = mu.set
    total = 0j
    for j in range(e.n_bands):
        c = mu.band_coeffs[j]
        rad = e.radii[j]
        zeta = (zv - e.midpoints[j]) / rad
        u = complex(inv_joukowski(zeta))
        k = np.arange(1, len(c))
        series = c[0] + np.sum(c[1:] * u**k) if len(c) > 1 else c[0]
        total += (-2.0 * np.pi * u / (rad * (1.0 - u * u))) * series
    for x, w in mu.point_masses:
        total += w / (x - zv)
    return complex(total)


def g00(a0: float, m_plus: complex, m_minus: complex) -> complex:
    """Whole-line diagonal Green's function from half-line m-functions,
    <delta_0, (J-z)^{-1} delta_0> = -(a0^2 m_+ - 1/m_-)^{-1}.

    A vanishing denominator is a pole of G00: complex infinity is returned
    rather than raising.  A pole of m_- (pass complex infinity) drops the
    1/m_- term, leaving -1/(a0^2 m_+).
    """
    if m_minus == 0:
        return complex(0.0)
    inv_minus = 0.0 if not np.isfinite(m_minus) else 1.0 / m_minus
    den = a0 * a0 * m_plus - inv_minus
    if den == 0:
        return complex(math.inf, 0.0)
    return -1.0 / den


def g00_shifted(z: complex, b0: float, a0: float, m_plus: complex,
                a_minus1: float, m_minus_tilde: complex) -> complex:
    """Variant -(z - b0 + a0^2 m_+ + a_{-1}^2 mtilde_-)^{-1}."""
    den = z - b0 + a0 * a0 * m_plus + a_minus1 * a_minus1 * m_minus_tilde
    if den == 0:
        return complex(math.inf, 0.0)
    return -1.0 / den


# ---------------------------------------------------------------------------
# coefficient stripping (discretized Stieltjes plus one RKPW update per atom)


def _stieltjes(nodes: np.ndarray, weights: np.ndarray, N: int):
    """First N recursion coefficients of the discrete measure sum w_i delta_{x_i}.

    Normalized discretized Stieltjes: the three-term recursion run on the
    node vectors of p_0, p_1, ..., no reorthogonalization, O(N M).  Returns
    (a_1..a_N, b_1..b_N) for the normalized measure.
    """
    w = weights / weights.sum()
    M = len(nodes)
    if N + 1 > M:
        raise ValueError(f"need more nodes ({M}) than coefficients ({N})")
    a = np.zeros(N)
    b = np.zeros(N)
    p_prev = np.zeros(M)
    p = np.ones(M)
    for k in range(N):
        xp = nodes * p
        b[k] = (w * p) @ xp
        v = xp - b[k] * p - (a[k - 1] * p_prev if k else 0.0)
        nrm2 = (w * v) @ v
        if not nrm2 > 0:
            raise AccuracyError(f"Stieltjes broke down at step {k + 1}: "
                                "discretization too coarse")
        a[k] = math.sqrt(nrm2)
        p_prev, p = p, v / a[k]
    return a, b


def _rkpw(b, beta, x: float, w: float):
    """Add the node x with weight w to a discrete measure of n nodes.

    The measure is given by its Jacobi matrix: diagonal b_1..b_n and
    beta = (total mass, a_1^2, ..., a_{n-1}^2).  Returns the same lists for
    the n + 1 nodes; one O(n) sweep of plane rotations (Gragg & Harrod,
    Numer. Math. 44 (1984) 317-335, as in Gautschi's RKPW).
    """
    b = [float(v) for v in b] + [0.0]
    beta = [float(v) for v in beta] + [0.0]
    pn, gam, sig, t = w, 1.0, 0.0, 0.0
    for k in range(len(b)):
        rho = beta[k] + pn
        tmp = gam * rho
        tsig = sig
        if rho <= 0:
            gam, sig = 1.0, 0.0
        else:
            gam, sig = beta[k] / rho, pn / rho
        tk = sig * (b[k] - x) - gam * t
        b[k] -= tk - t
        t = tk
        pn = tsig * beta[k] if sig <= 0 else t * t / sig
        beta[k] = tmp
    return b, beta


def _stieltjes_rkpw(nodes: np.ndarray, weights: np.ndarray, n_atoms: int, N: int):
    """First N recursion coefficients of a discretized measure whose last
    n_atoms entries are point masses.

    Stieltjes on the other (band) nodes gives the Jacobi matrix of order
    N + 1, i.e. the (N + 1)-point Gauss rule of the band part; each atom is
    then added to that rule by one RKPW update.  The Gauss rule matches the
    band moments through degree 2N + 1, so a_1..a_N, b_1..b_N are those of
    the discretized measure.  Plain Stieltjes on all nodes breaks down once
    an atom sits off the bands.
    """
    m = len(nodes) - n_atoms
    a, b = _stieltjes(nodes[:m], weights[:m], N + 1)
    if not n_atoms:
        return a[:N], b[:N]
    beta = [weights[:m].sum()] + (a[:N] ** 2).tolist()
    for x, w in zip(nodes[m:], weights[m:]):
        b, beta = _rkpw(b, beta, x, w)
    return np.sqrt(beta[1:N + 1]), np.array(b[:N])


class _StripProvider:
    """Caching re-strip provider backing the tail of stripped parameters.

    The coefficient pair is published as one tuple under a lock, so threads
    sharing a tail never pair a new a with an old, shorter b, and only one of
    them re-strips.
    """

    def __init__(self, mu, tol):
        self.mu = mu
        self.tol = tol
        self._ab = (np.empty(0), np.empty(0))
        self._lock = threading.Lock()

    def __call__(self, n: int):
        with self._lock:
            a, b = self._ab
            if n > len(a):
                a, b = _strip_arrays(self.mu, max(n, 2 * len(a)), self.tol)
                self._ab = (a, b)
        return a[:n], b[:n]


def strip_coefficients(mu: SpectralMeasure, N: int, tol: float = 1e-10) -> JacobiParams:
    """First N recursion coefficients of mu via discretized orthogonalization.

    The measure is discretized to per-band midpoint theta grids plus exact
    point masses (SpectralMeasure.discretize); discretized Stieltjes on the
    band nodes gives N + 1 coefficients, and each point mass is folded in
    by one RKPW update; no moment matrices, no reorthogonalization.

    When every band's cosine series resolved (quadrature.cos_series_resolved),
    one grid of n = N + 1 + max(len(band_coeffs)) + 8 nodes per band is
    exact: the midpoint rule in theta integrates cosine polynomials of degree
    < 2n exactly, so all inner products the first N + 1 coefficients need are
    exact for the stored density; tol is not read.  Otherwise the grid, from
    max(256, 2N + 64) up to 2^17 nodes per band, is doubled until a_n, b_n
    (n <= N) change by less than tol.  The cached tail re-strips at larger
    N, never extrapolates.
    """
    provider = _StripProvider(mu, tol)
    a, b = provider(N)
    return JacobiParams(a.copy(), b.copy(), ExtendTail(provider, N))


def _strip_arrays(mu: SpectralMeasure, N: int, tol: float):
    n_atoms = len(mu.point_masses)
    if all(cos_series_resolved(c) for c in mu.band_coeffs):
        n = N + 1 + max(len(c) for c in mu.band_coeffs) + 8
        x, w = mu.discretize(n)
        return _stieltjes_rkpw(x, w, n_atoms, N)
    n = max(256, 2 * N + 64)
    prev = None
    while n <= 1 << 17:
        x, w = mu.discretize(n)
        a, b = _stieltjes_rkpw(x, w, n_atoms, N)
        state = np.concatenate([a, b])
        if prev is not None and np.abs(state - prev).max() < tol:
            return a, b
        prev = state
        n *= 2
    raise AccuracyError(f"stripping did not converge below {tol:g} by "
                        f"{1 << 17} nodes per band")
