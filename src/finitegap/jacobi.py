"""Jacobi coefficient sequences, orthonormal polynomials and spectral measures.

Indexing follows the half-line convention (u_0 = 0): a Jacobi matrix acts as
(Ju)_n = a_n u_{n+1} + b_n u_n + a_{n-1} u_{n-1}, n >= 1, and the orthonormal
polynomials satisfy p_0 = 1, a_1 p_1 = z - b_1,
a_{n+1} p_{n+1} = (z - b_{n+1}) p_n - a_n p_{n-1}.

Spectral measures carry an absolutely continuous part on the bands, stored as
cosine-series coefficients of the theta-density h_j (so band masses and
Stieltjes transforms are spectral-accuracy sums), plus finitely many point
masses off the bands.  Singular continuous parts are not representable.

A JacobiParams is an explicit head plus a tail read by prefix.  Every computed
tail (a re-strip, a torus point, a perturbation) is stored in one _Extension,
which only appends, so a coefficient once read never changes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import math
import threading

import numpy as np

from .bandset import FiniteGapSet, dist_to_set, make_band_set
from .errors import AccuracyError, DomainError, MeasureError
from .quadrature import (adaptive_cos_coeffs, cos_series_resolved, cosine_nodes,
                         eval_cos_series, inv_joukowski)


# ---------------------------------------------------------------------------
# coefficient sequences


class _Extension:
    """The one store of a computed sequence a_n, b_n (n >= 1); it only appends,
    so a coefficient once read never changes.  A read past the end calls
    extend(have, n) for a and b at have + 1..m (m = n; a re-strip, which
    starts over, takes max(n, 2 have)).  Each stretch is checked once; the
    pair is one tuple of read-only arrays, set under the lock."""

    def __init__(self, extend):
        self._extend = extend
        self._ab = (np.empty(0), np.empty(0))
        self._lock = threading.Lock()

    def __call__(self, n: int):
        with self._lock:
            a, b = self._ab
            have = len(a)
            if n > have:
                ea, eb = self._extend(have, n)
                ok = (ea > 0) & np.isfinite(ea) & np.isfinite(eb)
                if not ok.all():
                    i = int(np.argmin(ok))
                    raise ValueError(f"a_{have + i + 1} = {ea[i]}, b_{have + i + 1} "
                                     f"= {eb[i]}: need a > 0, both finite")
                a, b = np.concatenate([a, ea]), np.concatenate([b, eb])
                a.flags.writeable = b.flags.writeable = False
                self._ab = (a, b)
        return a[:n], b[:n]


class FreeTail:
    """a = 1, b = 0 beyond the head."""

    def coeffs(self, count: int):
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
        if not (np.all(self.a > 0) and np.isfinite([self.a, self.b]).all()):
            raise ValueError("tail a-coefficients must be positive, all finite")

    def coeffs(self, count: int):
        idx = np.arange(count) % len(self.a)
        return self.a[idx], self.b[idx]

    def to_json(self):
        return {"kind": "periodic", "a": self.a.tolist(), "b": self.b.tolist()}


class ExtendTail:
    """View of a computed sequence (an _Extension) past its first head_len
    terms; views with different heads may share one.  Not JSON serializable."""

    def __init__(self, cache: _Extension, head_len: int):
        self.cache = cache
        self.head_len = head_len

    def coeffs(self, count: int):
        a, b = self.cache(self.head_len + count)
        return a[self.head_len:], b[self.head_len:]

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
        """Fresh arrays (a_1..a_n, b_1..b_n); each tail checks its own terms."""
        k = self.head_len
        if n <= k:
            return self.head_a[:n].copy(), self.head_b[:n].copy()
        ta, tb = self.tail.coeffs(n - k)
        return np.concatenate([self.head_a, ta]), np.concatenate([self.head_b, tb])

    def a(self, n: int) -> float:
        return self._pair(n)[0]

    def b(self, n: int) -> float:
        return self._pair(n)[1]

    def _pair(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        a, b = self.coeffs(n)
        return float(a[-1]), float(b[-1])

    def to_json(self) -> dict:
        return {"head_a": self.head_a.tolist(), "head_b": self.head_b.tolist(),
                "tail": self.tail.to_json()}

    @classmethod
    def from_json(cls, d: dict) -> "JacobiParams":
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
# orthonormal polynomials


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


# how far a truncation eigenvalue off e may move between the N/2 and N
# truncations and still count as stable
STABILITY_TOL = 1e-6


def truncation_eigenvalues_outside(J: JacobiParams, e: FiniteGapSet, N: int,
                                   hull: tuple[float, float] | None = None) -> np.ndarray:
    """Eigenvalues of the N x N truncation lying off e, stability-filtered.

    Spurious gap eigenvalues of truncations wander as N changes; only
    eigenvalues that move by less than STABILITY_TOL between the N/2 and N
    truncations are reported.

    Only the few eigenvalues off e are computed: bisection with Sturm counts
    (LAPACK stebz) on each component of R \\ e, never the whole spectrum.
    The N/2 truncation is searched on the same components widened by
    STABILITY_TOL, which holds every eigenvalue within STABILITY_TOL of a
    candidate.

    hull = (lo, hi) says that the spectral measure of J is supported in
    [lo, hi].  The zeros of p_N then lie strictly inside (lo, hi) (Szego,
    Orthogonal Polynomials, Thm 3.3.1), so only the components that meet
    (lo, hi) are searched, at N and at N/2.  Each searched component keeps
    its whole interval, so every eigenvalue found is the one the search of
    all components finds, bit for bit.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    comps = components_off(e, hull)
    out = [x for x in _eigenvalues_off(J, comps, N, 0.0) if dist_to_set(e, x) > 0]
    if not out:
        return np.empty(0)
    ev_half = _eigenvalues_off(J, comps, N // 2, STABILITY_TOL)
    stable = [x for x in out if np.abs(ev_half - x).min(initial=np.inf) < STABILITY_TOL]
    return np.array(sorted(stable))


def components_off(e: FiniteGapSet, hull: tuple[float, float] | None = None) -> list:
    """The components of R \\ e as (lo, hi) pairs, (-inf, a_1], (b_j, a_{j+1}]
    and (b_{l+1}, inf); with hull = (lo, hi), only those meeting (lo, hi),
    the ones truncation_eigenvalues_outside(..., hull=hull) searches."""
    edges = [-math.inf, *e.endpoints, math.inf]
    comps = list(zip(edges[::2], edges[1::2]))
    if hull is None:
        return comps
    lo, hi = hull
    return [(c0, c1) for c0, c1 in comps if c0 < hi and c1 > lo]


def _eigenvalues_off(J: JacobiParams, comps: list, N: int, pad: float) -> np.ndarray:
    """Eigenvalues of the N x N truncation in the components comps of R \\ e,
    each widened by pad on both sides: (lo - pad, hi + pad], half-open as in
    stebz."""
    from scipy.linalg import eigh_tridiagonal

    a, b = J.coeffs(N)
    return np.concatenate([np.empty(0), *(
        eigh_tridiagonal(b, a[:N - 1], eigvals_only=True, select="v",
                         select_range=(lo - pad, hi + pad))
        for lo, hi in comps)])


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
                 theta_fn=None, validate: bool = True):
        self.set = e
        self.band_coeffs = [np.asarray(c, float) for c in band_coeffs]
        pm = [(float(x), float(w)) for x, w in point_masses]
        self.point_masses = sorted(pm)
        self._theta_fn = theta_fn
        if len(self.band_coeffs) != e.n_bands:
            raise MeasureError("one coefficient array per band required")
        if validate:
            self._validate()

    def _validate(self):
        for x, w in self.point_masses:
            if w <= 0:
                raise MeasureError(f"point mass weight {w} at {x} must be positive")
            if dist_to_set(self.set, x) == 0:
                raise MeasureError(f"point mass at {x} lies on the essential spectrum")
        m = self.total_mass()
        if abs(m - 1.0) > 1e-8:
            raise MeasureError(f"total mass {m} is not 1 within 1e-08")

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
        """m(z) = int dmu(x)/(x - z) for z off the support.

        Band parts are geometric series in the inverse Joukowski variable of
        each band; point masses are summed exactly.  Raises AccuracyError
        within min_dist = 1e-8 of the support.
        """
        min_dist = 1e-8
        zv = complex(z)
        if zv.imag == 0:
            if dist_to_set(self.set, zv.real) < min_dist:
                raise AccuracyError(f"z = {z} within {min_dist:g} of the bands")
        for x, _ in self.point_masses:
            if abs(zv - x) < min_dist:
                raise AccuracyError(f"z = {z} within {min_dist:g} of the mass at {x}")
        e = self.set
        total = 0j
        for j in range(e.n_bands):
            c = self.band_coeffs[j]
            rad = e.radii[j]
            zeta = (zv - e.midpoints[j]) / rad
            u = complex(inv_joukowski(zeta))
            k = np.arange(1, len(c))
            series = c[0] + np.sum(c[1:] * u**k) if len(c) > 1 else c[0]
            total += (-2.0 * np.pi * u / (rad * (1.0 - u * u))) * series
        for x, w in self.point_masses:
            total += w / (x - zv)
        return complex(total)

    def to_json(self) -> dict:
        return {"bands": self.set.to_json(),
                "density_coeffs": [c.tolist() for c in self.band_coeffs],
                "point_masses": [[x, w] for x, w in self.point_masses]}

    @classmethod
    def from_json(cls, d: dict) -> "SpectralMeasure":
        return cls(FiniteGapSet.from_json(d["bands"]),
                   [np.asarray(c, float) for c in d["density_coeffs"]],
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


# ---------------------------------------------------------------------------
# coefficient stripping (discretized Stieltjes plus one RKPW update per atom)


class _Stieltjes:
    """Normalized discretized Stieltjes on the discrete measure
    sum w_i delta_{x_i}, as a pass that can be resumed.

    The three-term recursion runs with level-1 BLAS on sqrt(w)-scaled
    vectors q_k = sqrt(w) p_k, so every inner product is one ddot; three
    buffers rotate between the steps, no reorthogonalization, O(n M) for n
    coefficients.  It runs on the support: nodes of weight zero add nothing
    to an inner product and are dropped.  coeffs(n) runs only the steps no
    earlier read ran, so a prefix equals the same prefix of a longer run bit
    for bit.  Coefficients are those of the normalized measure; mass is the
    total weight.

    Raises ValueError when the grid has no more nodes than the N coefficients
    it is made for, MeasureError on a negative or non-finite weight (a
    truncated cosine series can dip below zero), and AccuracyError when fewer
    than N + 1 nodes carry positive weight (checked again for a longer read):
    with K such nodes a_K vanishes in exact arithmetic, and past it the
    recursion runs on rounding noise.
    """

    def __init__(self, nodes: np.ndarray, weights: np.ndarray, N: int):
        M = len(nodes)
        if N + 1 > M:
            raise ValueError(f"need more nodes ({M}) than coefficients ({N})")
        bad = ~np.isfinite(weights) | (weights < 0)
        if bad.any():
            i = int(np.argmax(bad))
            raise MeasureError(f"discretized weight {weights[i]} at node {nodes[i]} "
                               "is negative or not finite")
        keep = weights > 0
        self.support = int(np.count_nonzero(keep))
        self._check(N)
        self.mass = weights.sum()
        q = np.sqrt(weights / self.mass)
        if self.support < M:
            nodes, q = nodes[keep], q[keep]
        self.nodes = nodes
        self.q, self.q_prev, self.v = q, np.zeros(len(q)), np.empty(len(q))
        self.a, self.b = [], []

    def _check(self, N: int):
        if self.support < N + 1:
            raise AccuracyError(f"Stieltjes broke down at step {max(self.support, 1)}: "
                                f"{self.support} nodes carry positive weight, "
                                f"{N + 1} needed")

    def coeffs(self, n: int):
        """(a_1..a_n, b_1..b_n), stepping on from where the last read stopped."""
        a, b = self.a, self.b
        if n > len(a):
            from scipy.linalg.blas import daxpy, ddot, dscal

            self._check(n)
            nodes, q, q_prev, v = self.nodes, self.q, self.q_prev, self.v
            for k in range(len(a), n):
                np.multiply(nodes, q, out=v)
                bk = ddot(q, v)
                daxpy(q, v, a=-bk)
                if k:
                    daxpy(q_prev, v, a=-a[k - 1])
                nrm2 = ddot(v, v)
                if not nrm2 > 0:
                    raise AccuracyError(f"Stieltjes broke down at step {k + 1}: "
                                        "discretization too coarse")
                a.append(math.sqrt(nrm2))
                b.append(bk)
                dscal(1.0 / a[k], v)
                q_prev, q, v = q, v, q_prev
            self.q, self.q_prev, self.v = q, q_prev, v
        return np.array(a[:n]), np.array(b[:n])


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


class _StripPass:
    """Coefficients of a discretized measure whose last n_atoms entries are
    point masses, as a pass that can be resumed.

    Stieltjes on the other (band) nodes gives the Jacobi matrix of order
    n + 1, i.e. the (n + 1)-point Gauss rule of the band part; each atom is
    then added to that rule by one RKPW update.  The Gauss rule matches the
    band moments through degree 2n + 1, so a_1..a_n, b_1..b_n are those of
    the discretized measure.  Plain Stieltjes on all nodes breaks down once
    an atom sits off the bands.  An RKPW sweep is causal in k, so folding
    the atoms into a prefix gives that prefix of the coefficients.  With no
    atoms the n band coefficients are the answer.
    """

    def __init__(self, nodes: np.ndarray, weights: np.ndarray, n_atoms: int, N: int):
        m = len(nodes) - n_atoms
        self.bands = _Stieltjes(nodes[:m], weights[:m], N + 1)
        self.atoms = list(zip(nodes[m:], weights[m:]))

    def coeffs(self, n: int):
        if not self.atoms:
            return self.bands.coeffs(n)
        a, b = self.bands.coeffs(n + 1)
        beta = [self.bands.mass] + (a[:n] ** 2).tolist()
        for x, w in self.atoms:
            b, beta = _rkpw(b, beta, x, w)
        return np.sqrt(beta[1:n + 1]), np.array(b[:n])


def strip_coefficients(mu: SpectralMeasure, N: int, tol: float = 1e-10) -> JacobiParams:
    """First N recursion coefficients of mu via discretized orthogonalization.

    The measure is discretized to per-band midpoint theta grids plus exact
    point masses (SpectralMeasure.discretize); discretized Stieltjes on the
    band nodes of positive weight (level-1 BLAS on sqrt(w)-scaled vectors)
    gives N + 1 coefficients, and each point mass is folded in by one RKPW
    update; no moment matrices, no reorthogonalization.

    When every band's cosine series resolved (quadrature.cos_series_resolved),
    one grid of n = N + 1 + max(len(band_coeffs)) + 8 nodes per band is
    exact: the midpoint rule in theta integrates cosine polynomials of degree
    < 2n exactly, so all inner products the first N + 1 coefficients need are
    exact for the stored density; tol is not read.  Otherwise the grid, from
    max(256, 2N + 64) up to 2^17 nodes per band, is doubled until a_n, b_n
    (n <= N) change by less than tol.  Two consecutive passes are compared in
    lockstep on the prefixes up to 8, 16, 32, ..., N; a comparison ends at
    the first prefix that differs by tol or more, and a pass resumes where it
    stopped when the next comparison reads further, so only the last two
    passes run to N.  The cached tail re-strips at doubled N and appends the
    new coefficients, never extrapolates.
    """
    cache = _Extension(lambda have, n: [
        x[have:] for x in _strip_arrays(mu, max(n, 2 * have), tol)])
    a, b = cache(N)
    return JacobiParams(a, b, ExtendTail(cache, N))


def _strip_arrays(mu: SpectralMeasure, N: int, tol: float):
    n_atoms = len(mu.point_masses)
    if all(cos_series_resolved(c) for c in mu.band_coeffs):
        n = N + 1 + max(len(c) for c in mu.band_coeffs) + 8
        x, w = mu.discretize(n)
        return _StripPass(x, w, n_atoms, N).coeffs(N)
    n_max = 1 << 17
    n = max(256, 2 * N + 64)
    if 2 * n > n_max:
        raise AccuracyError(f"stripping {N} coefficients needs more than {n_max} "
                            f"nodes per band: its first two grids have {n} and {2 * n}")
    prev = _StripPass(*mu.discretize(n), n_atoms, N)
    while 2 * n <= n_max:
        n *= 2
        cur = _StripPass(*mu.discretize(n), n_atoms, N)
        c = min(8, N)
        while True:
            (pa, pb), (ca, cb) = prev.coeffs(c), cur.coeffs(c)
            if not np.abs(np.concatenate([ca - pa, cb - pb])).max() < tol:
                break
            if c == N:
                return ca, cb
            c = min(2 * c, N)
        prev = cur
    raise AccuracyError(f"stripping did not converge below {tol:g} by "
                        f"{n_max} nodes per band")
