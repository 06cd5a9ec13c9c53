"""Finite gap sets and their logarithmic potential theory.

A finite gap set e = [a_1,b_1] u ... u [a_{l+1}, b_{l+1}] carries a unique
equilibrium (minimal logarithmic energy) probability measure whose density is

    w(x) = |Q(x)| / (pi sqrt(|R(x)|)),   R(x) = prod_j (x - a_j)(x - b_j),

with Q monic of degree l and one zero per gap, fixed by the l conditions
int_gap_j Q(t)/sqrt(R(t)) dt = 0.  The zeros are obtained from a single dense
l x l solve; everything downstream (potential, Green's function, capacity,
harmonic measures) is evaluated spectrally from per-band cosine expansions.

Gap rule: with t = mid + rad cos(theta) on gap j the condition becomes
int_0^pi Q(t) w_j(theta) dtheta = 0, where w_j = 1/sqrt(|R|/((t-b_j)(a_{j+1}-t)))
is smooth in theta.  Once w_j is resolved to n_w cosine coefficients, each
integrand tau^k w_j (k <= l) is a cosine polynomial of degree < n_w + l, and
the midpoint rule on n_w + l + 8 theta nodes, exact for cosine polynomials of
degree < twice its size, integrates it exactly: no grid doubling is needed.

Branch convention for sqrt(R): the single-valued branch on C \\ e that is real
and positive on (b_{l+1}, inf).  Continuity then forces the boundary value
from above on the j-th band interior to be i*(-1)^(l+1-j)*sqrt(|R|), and the
value on the j-th gap to be (-1)^(l+1-j)*sqrt(|R|); sign-sensitive code below
relies on this.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .errors import AccuracyError, DomainError, FiniteGapError
from .quadrature import adaptive_cos_coeffs, cosine_nodes, inv_joukowski


@dataclass(frozen=True)
class FiniteGapSet:
    """Ordered union of l+1 disjoint closed bands with positive length."""

    bands: tuple[tuple[float, float], ...]

    @property
    def ell(self) -> int:
        return len(self.bands) - 1

    @property
    def n_bands(self) -> int:
        return len(self.bands)

    @cached_property
    def endpoints(self) -> np.ndarray:
        return np.array([x for band in self.bands for x in band])

    @cached_property
    def R_coeffs(self) -> np.ndarray:
        """Monomial coefficients of R, low to high; read-only, shared by the
        torus points of this set."""
        coeffs = np.polynomial.polynomial.polyfromroots(self.endpoints)
        coeffs.setflags(write=False)
        return coeffs

    @cached_property
    def equilibrium(self) -> "EquilibriumData":
        """solve_equilibrium(self), solved on first access and kept: every
        caller holding this set shares one solve and its read-only arrays."""
        return solve_equilibrium(self)

    @cached_property
    def midpoints(self) -> np.ndarray:
        return np.array([(a + b) / 2 for a, b in self.bands])

    @cached_property
    def radii(self) -> np.ndarray:
        return np.array([(b - a) / 2 for a, b in self.bands])

    @property
    def hull(self) -> tuple[float, float]:
        return self.bands[0][0], self.bands[-1][1]

    def gap(self, j: int) -> tuple[float, float]:
        """The j-th open gap (b_j, a_{j+1}), j = 0..l-1."""
        return self.bands[j][1], self.bands[j + 1][0]

    @cached_property
    def _band_rest_roots(self) -> tuple:
        return tuple(np.delete(self.endpoints, [2 * j, 2 * j + 1])
                     for j in range(self.n_bands))

    @cached_property
    def _gap_rest_roots(self) -> tuple:
        return tuple(np.delete(self.endpoints, [2 * j + 1, 2 * j + 2])
                     for j in range(self.ell))

    def R(self, x):
        """prod_j (x - a_j)(x - b_j); negative on band interiors."""
        return root_product(x, self.endpoints)

    def rest_product(self, j: int, t):
        """R(t) with band j's own two linear factors removed.

        Has constant sign on band j; callers take abs for sqrt(|R|) work.
        """
        return root_product(t, self._band_rest_roots[j])

    def gap_rest_product(self, j: int, t):
        """R(t) with gap j's two bounding factors removed."""
        return root_product(t, self._gap_rest_roots[j])

    def sqrt_R(self, z):
        """Single-valued branch of sqrt(R) on C \\ e, positive on (b_{l+1}, inf).

        Real z evaluate as limits from the upper half plane (x + i0).
        """
        z = np.asarray(z, complex)
        acc = np.zeros_like(z)
        for r in self.endpoints:
            acc = acc + np.log(z - r)
        return np.exp(0.5 * acc)

    def band_index(self, x: float):
        for j, (a, b) in enumerate(self.bands):
            if a <= x <= b:
                return j
        return None

    def to_json(self) -> list:
        return [[a, b] for a, b in self.bands]

    @classmethod
    def from_json(cls, pairs) -> "FiniteGapSet":
        return make_band_set([x for pair in pairs for x in pair])


def root_product(t, roots):
    """prod_r (t - r) over roots, multiplied left to right; 1 for no roots."""
    t = np.asarray(t)
    out = np.ones_like(t)
    for r in roots:
        out = out * (t - r)
    return out


def make_band_set(endpoints) -> FiniteGapSet:
    """Validate 2(l+1) endpoints into a FiniteGapSet.

    Rejects odd counts, non-finite values and any violation of the strict
    interlacing a_1 < b_1 < a_2 < ... < b_{l+1}.
    """
    pts = [float(x) for x in endpoints]
    if len(pts) == 0 or len(pts) % 2 != 0:
        raise FiniteGapError(f"need an even, positive number of endpoints, got {len(pts)}")
    if not all(math.isfinite(x) for x in pts):
        raise FiniteGapError("endpoints must be finite")
    for i in range(len(pts) - 1):
        if not pts[i] < pts[i + 1]:
            kind = "zero-length band" if i % 2 == 0 else "touching/overlapping bands"
            raise FiniteGapError(
                f"{kind}: endpoint[{i}]={pts[i]!r} must be < endpoint[{i+1}]={pts[i+1]!r}")
    bands = tuple((pts[2 * i], pts[2 * i + 1]) for i in range(len(pts) // 2))
    return FiniteGapSet(bands)


@dataclass(frozen=True)
class EquilibriumData:
    """Solved equilibrium measure of a finite gap set.

    band_coeffs[j] are the cosine coefficients of the theta-density
    h_j(theta) = w(mid_j + rad_j cos theta) * rad_j * sin(theta), so the mass
    of band j is pi*band_coeffs[j][0].  node_counts is the size of the largest
    gap rule of the solve (0 for a single band).
    """

    set: FiniteGapSet
    gap_zeros: np.ndarray
    robin_constant: float
    capacity: float
    harmonic_measures: np.ndarray
    band_coeffs: tuple
    node_counts: int

    def q_poly(self, t):
        """The monic degree-l polynomial Q with one zero per gap."""
        return root_product(np.asarray(t, float), self.gap_zeros)

    def theta_density(self, j: int, theta) -> np.ndarray:
        """h_j(theta) = |Q| / (pi sqrt(|P_j|)); smooth in cos(theta)."""
        return _eq_theta_density(self.set, self.gap_zeros, j, theta)

    def to_json(self) -> dict:
        return {"gap_zeros": self.gap_zeros.tolist(),
                "robin_constant": self.robin_constant,
                "capacity": self.capacity,
                "harmonic_measures": self.harmonic_measures.tolist(),
                "node_counts": self.node_counts}


def _gap_condition_solve(e: FiniteGapSet, n_max: int):
    """Q's zeros from the l gap conditions on the exact gap rules (see the
    module docstring), and the largest rule size.  Works in the hull-scaled
    variable tau for conditioning; returns the zeros in the original variable.
    """
    ell = e.ell
    lo, hi = e.hull
    c0, s0 = (lo + hi) / 2, (hi - lo) / 2
    sums = np.empty((ell, ell + 1))
    n_rule = 0
    for j in range(ell):
        beta, alpha = e.gap(j)
        mid, rad = (beta + alpha) / 2, (alpha - beta) / 2

        def weight(theta):
            return 1.0 / np.sqrt(np.abs(e.gap_rest_product(j, mid + rad * np.cos(theta))))

        n = len(adaptive_cos_coeffs(weight, n_max=n_max)) + ell + 8
        theta = cosine_nodes(n)
        tau = (mid + rad * np.cos(theta) - c0) / s0
        sums[j] = weight(theta) @ tau[:, None] ** np.arange(ell + 1) / n
        n_rule = max(n_rule, n)
    try:
        coef = np.linalg.solve(sums[:, :ell], -sums[:, ell])
    except np.linalg.LinAlgError as exc:  # cannot occur for valid sets
        raise AccuracyError(f"gap-condition system singular: {exc}") from exc
    roots = np.roots(np.concatenate([[1.0], coef[::-1]]))
    if np.abs(roots.imag).max(initial=0.0) > 1e-8:
        raise AccuracyError(f"complex gap zeros {roots}; numerical failure")
    zeros = np.sort(roots.real) * s0 + c0
    for j, z in enumerate(zeros):
        beta, alpha = e.gap(j)
        if not beta < z < alpha:
            raise AccuracyError(
                f"gap zero {z} fell outside gap {j} = ({beta}, {alpha})")
    return zeros, n_rule


def solve_equilibrium(e: FiniteGapSet) -> EquilibriumData:
    """Equilibrium measure, Robin constant, capacity and harmonic measures.

    One solve, no grid doubling: each gap weight is resolved once to a cosine
    series of L terms, and the gap conditions are summed on L + l + 8
    midpoint nodes, which integrate those cosine polynomials exactly;
    node_counts is the largest such rule (0 for a single band).  Band
    theta-densities are resolved by adaptive_cos_coeffs.  Every series is
    capped at 16384 nodes; an unresolved one raises AccuracyError.
    Postconditions asserted here: total mass within 1e-8 of 1 and
    Robin-constant spread over band midpoints below 1e-8.  The returned
    arrays are read-only; FiniteGapSet.equilibrium keeps one solve per set.
    """
    n_max = 16384
    zeros, n_rule = _gap_condition_solve(e, n_max)
    coeffs = tuple(adaptive_cos_coeffs(lambda th, j=j: _eq_theta_density(e, zeros, j, th),
                                       n_max=n_max) for j in range(e.n_bands))
    omega = np.array([np.pi * c[0] for c in coeffs])
    total = omega.sum()
    if abs(total - 1.0) > 1e-8:
        raise AccuracyError(f"equilibrium mass {total} deviates from 1")

    data = EquilibriumData(e, zeros, 0.0, 1.0, omega, coeffs, n_rule)
    phis = np.array([potential(data, complex(m)) for m in e.midpoints])
    if phis.max() - phis.min() > 1e-8:
        raise AccuracyError(
            f"Robin constant spread {phis.max() - phis.min():.2e} over band midpoints")
    robin = float(phis.mean())
    for x in (zeros, omega, *coeffs):
        x.setflags(write=False)
    return EquilibriumData(e, zeros, robin, float(np.exp(-robin)), omega,
                           coeffs, n_rule)


def _eq_theta_density(e: FiniteGapSet, zeros: np.ndarray, j: int, theta):
    """|Q| / (pi sqrt(|P_j|)) at t = mid_j + rad_j cos(theta), Q monic with these zeros."""
    t = e.midpoints[j] + e.radii[j] * np.cos(np.asarray(theta, float))
    return np.abs(root_product(t, zeros)) / (np.pi * np.sqrt(np.abs(e.rest_product(j, t))))


def equilibrium_density(eq: EquilibriumData, x) -> float | np.ndarray:
    """w(x) = |Q(x)| / (pi sqrt(|R(x)|)) for x strictly inside a band.

    x is a float or an array; a float gives a float.  The points are grouped
    by band, and each element takes the same operations in the same order,
    (x - a_j)(b_j - x)|rest_product_j(x)| and then |Q(x)| / (pi sqrt(that)),
    so an array gives the scalar values bit for bit.  DomainError if any
    element is outside every band interior (endpoints included).
    """
    e = eq.set
    xs = np.asarray(x, float)
    flat = xs.reshape(-1)
    # endpoints[slot - 1] < x <= endpoints[slot]; interior of band j iff
    # slot == 2j + 1 and x < b_j (a nan sorts past the end, an even slot)
    slot = np.searchsorted(e.endpoints, flat)
    bad = (slot % 2 == 0) | (flat == e.endpoints.take(slot, mode="clip"))
    if bad.any():
        raise DomainError(f"{flat[np.argmax(bad)]} is not interior to any band "
                          f"of {e.bands}")
    out = np.empty_like(flat)
    for j, (a, b) in enumerate(e.bands):
        idx = np.flatnonzero(slot == 2 * j + 1)
        if len(idx):
            t = flat[idx]
            rr = (t - a) * (b - t) * np.abs(e.rest_product(j, t))
            out[idx] = np.abs(eq.q_poly(t)) / (np.pi * np.sqrt(rr))
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def potential(eq: EquilibriumData, z) -> float | np.ndarray:
    """Logarithmic potential Phi(z) = int log|z-x|^{-1} w(x) dx.

    Evaluated from the cosine expansions; spectrally accurate everywhere,
    including on the bands (where Phi = Robin constant by Frostman).
    """
    z = np.asarray(z, complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    e = eq.set
    tot = np.zeros(z.shape, float)
    for j in range(e.n_bands):
        c = eq.band_coeffs[j]
        zeta = (z - e.midpoints[j]) / e.radii[j]
        u = inv_joukowski(zeta)
        absu = np.abs(u)
        omega = np.pi * c[0]
        term = omega * np.log(e.radii[j]) + omega * (-np.log(2.0) - np.log(absu))
        if len(c) > 1:
            k = np.arange(1, len(c))
            term = term - np.pi * ((u[..., None] ** k).real * (c[1:] / k)).sum(axis=-1)
        tot -= term
    return float(tot[0]) if scalar else tot


def green(eq: EquilibriumData, z) -> float | np.ndarray:
    """Green's function G = E - Phi: zero on e, positive off e,
    G(z) - log|z| -> -log C at infinity."""
    return eq.robin_constant - potential(eq, z)


def dist_to_set(e: FiniteGapSet, x: float) -> float:
    """Euclidean distance from x to e."""
    best = math.inf
    for a, b in e.bands:
        if a <= x <= b:
            return 0.0
        best = min(best, abs(x - a), abs(x - b))
    return best


def dist_to_complement(e: FiniteGapSet, x: float) -> float:
    """Euclidean distance from x to R \\ e."""
    j = e.band_index(x)
    if j is None:
        return 0.0
    a, b = e.bands[j]
    return min(x - a, b - x)


def rational_harmonic_period(omega, tol: float = 1e-6, max_denominator: int = 128):
    """Smallest p <= max_denominator with every omega_j within tol of k_j/p.

    Returns None when no such p exists; p = 1 only for the gapless case.
    """
    omega = np.asarray(omega, float)
    for p in range(1, max_denominator + 1):
        k = np.round(omega * p)
        if np.all(k >= 1) and np.abs(omega - k / p).max() < tol:
            return p
    return None
