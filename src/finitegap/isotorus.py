"""Isospectral torus points from Dirichlet data via minimal Herglotz functions.

Dirichlet data is one point per gap on the two-sheeted circle: a position
gamma_j in the closed gap and a sheet sign sigma_j (ignored when gamma sits at
a gap edge, where the sheets are glued).  The associated m-function is

    m(z) = c (sqrt(R(z)) - S(z)) / prod_j (z - gamma_j)

with S a real polynomial of degree l+1 whose two leading coefficients match
the expansion of sqrt(R) at infinity and whose values at the gamma_j kill the
pole on the sheet opposite sigma_j; c > 0 is fixed by m(z) = -1/z + O(z^-2).
sigma_j = +1 keeps the pole on the principal sheet and produces a point mass
of the measure; sigma_j = -1 and edge positions produce none.

The sqrt(R) branch is the single-valued one of FiniteGapSet.sqrt_R (positive
on (b_{l+1}, inf)); its value on gap j is (-1)^(l+1-j) sqrt(|R|), which the
pole conditions below use explicitly.

Jacobi coefficients come from stripping m exactly: a _StrippingTail stepper,
whose coefficients jacobi._Extension stores once per torus point, takes one
O(l^2) step per coefficient with no quadrature.  The step runs on Python
floats, because its vectors are too short for numpy calls to pay, and its
coefficients are bit-identical to the same recursion on numpy arrays.  The
spectral measure (torus_measure) is built only when it is asked for.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np
from numpy.polynomial import polynomial as P

from .bandset import FiniteGapSet, root_product
from .errors import AccuracyError, FiniteGapError
from .jacobi import JacobiParams, ExtendTail, PeriodicTail, SpectralMeasure, \
    _Extension, measure_from_theta_density


@dataclass(frozen=True)
class DirichletData:
    """Per-gap pole position and sheet sign; coordinates on the torus."""

    gammas: tuple[float, ...]
    sheets: tuple[int, ...]

    def __len__(self):
        return len(self.gammas)

    def to_json(self) -> list:
        return [{"gamma": g, "sheet": s} for g, s in zip(self.gammas, self.sheets)]

    @classmethod
    def from_json(cls, items) -> "DirichletData":
        return cls(tuple(float(d["gamma"]) for d in items),
                   tuple(int(d["sheet"]) for d in items))


def dirichlet_data(e: FiniteGapSet, entries) -> DirichletData:
    """Validate (gamma, sheet) pairs against the gaps of e.

    Positions within 1e-12 of a gap edge (relative to the gap length) are
    snapped onto the edge, where the sheet sign is irrelevant.
    """
    entries = list(entries)
    if len(entries) != e.ell:
        raise FiniteGapError(f"need {e.ell} gap points, got {len(entries)}")
    gammas, sheets = [], []
    for j, (g, s) in enumerate(entries):
        beta, alpha = e.gap(j)
        g = float(g)
        if abs(g - beta) < 1e-12 * (alpha - beta):
            g = beta
        elif abs(g - alpha) < 1e-12 * (alpha - beta):
            g = alpha
        if not beta <= g <= alpha:
            raise FiniteGapError(f"gamma {g} outside closed gap {j} = [{beta}, {alpha}]")
        if s not in (-1, 1):
            raise FiniteGapError(f"sheet must be +-1, got {s}")
        gammas.append(g)
        sheets.append(int(s))
    return DirichletData(tuple(gammas), tuple(sheets))


def dirichlet_from_angles(e: FiniteGapSet, phis) -> DirichletData:
    """Parametrize each gap circle by an angle.

    phi = 0 maps to the left gap edge (beta_j), phi = pi to the right edge;
    the upper semicircle carries sheet +1, the lower sheet -1.
    """
    entries = []
    for j, phi in enumerate(phis):
        beta, alpha = e.gap(j)
        mid, rad = (beta + alpha) / 2, (alpha - beta) / 2
        g = mid - rad * math.cos(phi)
        s = +1 if math.sin(phi) >= 0 else -1
        entries.append((g, s))
    return dirichlet_data(e, entries)


def random_dirichlet(e: FiniteGapSet, rng) -> DirichletData:
    """Seeded Dirichlet data, each gamma 5%..95% of the way across its gap."""
    entries = []
    for j in range(e.ell):
        beta, alpha = e.gap(j)
        u = rng.uniform(0.05, 0.95)
        entries.append((beta + u * (alpha - beta), int(rng.choice([-1, 1]))))
    return dirichlet_data(e, entries)


@dataclass(frozen=True, eq=False)
class MinimalHerglotz:
    """Solved degree-(l+1) minimal Herglotz function for (e, dirichlet).

    S_coeffs are low-to-high; pole_weights[j] > 0 exactly when sigma_j = +1
    with gamma_j interior to its gap.
    """

    set: FiniteGapSet
    dirichlet: DirichletData
    S_coeffs: np.ndarray
    c: float
    pole_weights: np.ndarray

    def S(self, z):
        return np.polynomial.polynomial.polyval(z, self.S_coeffs)

    def _denominator(self, z):
        return root_product(z, self.dirichlet.gammas)

    def m(self, z):
        """Principal-sheet value; real z evaluates as x + i0."""
        z = np.asarray(z, complex)
        return self.c * (self.set.sqrt_R(z) - self.S(z)) / self._denominator(z)

    def m_second_sheet(self, z):
        z = np.asarray(z, complex)
        return self.c * (-self.set.sqrt_R(z) - self.S(z)) / self._denominator(z)


def minimal_herglotz(e: FiniteGapSet, dd: DirichletData) -> MinimalHerglotz:
    """Solve the (l+2) linear conditions for S and the scale c.

    Conditions: S matches the two leading asymptotic coefficients of sqrt(R);
    at each interior gamma_j, S(gamma_j) = -sigma_j * sqrtR(gamma_j) (branch
    value on the gap); at a degenerate (edge) gamma_j, S(gamma_j) = 0.

    The per-gap values (R(gamma_j), the pole-weight products) are Python
    floats in root_product's order; the powers of the gamma array, the
    Vandermonde matrix and its solve stay in numpy, so every number is the
    one the all-numpy route gives, bit for bit.
    """
    if len(dd) != e.ell:
        raise FiniteGapError(f"Dirichlet data has {len(dd)} points, set has {e.ell} gaps")
    ell = e.ell
    roots = e.endpoints
    s1 = float(roots.sum())
    s2 = (s1 * s1 - float(np.sum(roots**2))) / 2
    e1 = -s1 / 2
    e2 = (s2 - e1 * e1) / 2

    gl = [float(g) for g in dd.gammas]
    ends = roots.tolist()
    rho = [0.0] * ell
    tau = [0.0] * ell
    interior = [g not in e.gap(j) for j, g in enumerate(gl)]
    for j, g in enumerate(gl):
        if interior[j]:
            Rg = 1.0
            for r in ends:
                Rg *= g - r
            # branch value on gap j (0-based): (-1)^(l - j) sqrt(R)
            rho[j] = (-1.0) ** (ell - j) * math.sqrt(Rg)
            tau[j] = -dd.sheets[j] * rho[j]
    if ell > 0:
        gammas = np.array(gl)
        rhs = np.array(tau) - gammas ** (ell + 1) - e1 * gammas**ell
        try:
            s_low = np.linalg.solve(np.vander(gammas, ell, increasing=True), rhs)
        except np.linalg.LinAlgError as exc:
            raise AccuracyError(f"degenerate Dirichlet data: {exc}") from exc
        kappa = e2 - float(s_low[ell - 1])
    else:
        s_low = np.empty(0)
        kappa = e2
    if kappa == 0:
        raise AccuracyError("normalization failed: kappa = 0")
    c = -1.0 / kappa
    if c <= 0:
        raise AccuracyError(f"scale c = {c} not positive; construction bug")
    S = np.concatenate([s_low, [e1, 1.0]])

    weights = [0.0] * ell
    for j, g in enumerate(gl):
        if interior[j] and dd.sheets[j] == +1:
            others = 1.0
            for i, gi in enumerate(gl):
                if i != j:
                    others *= g - gi
            w = -2.0 * c * rho[j] / others
            if w <= 0:
                raise AccuracyError(f"nonpositive pole weight {w}; construction bug")
            weights[j] = w
    return MinimalHerglotz(e, dd, S, c, np.array(weights))


def torus_measure(mh: MinimalHerglotz) -> SpectralMeasure:
    """Spectral measure of a minimal Herglotz function.

    Band density f(x) = Im m(x+i0)/pi, stored through the theta-density

        h_j(theta) = (c/pi) rad_j^2 sin^2(theta) sqrt(|P_j|) / |prod (x-gamma_i)|,

    with a gap factor cancelled analytically against sin^2 when gamma_i sits
    on an edge of band j (so h stays smooth in cos theta).  Point masses are
    the pole residues.
    """
    e = mh.set
    dd = mh.dirichlet

    # per band: the constant factor, the powers of (1 - cos) and (1 + cos)
    # left in sin^2 after cancelling edge gammas, and the off-edge gammas
    factors = []
    for j, (a, b) in enumerate(e.bands):
        rad = e.radii[j]
        num = mh.c / np.pi * rad * rad
        for g in dd.gammas:
            if g == a or g == b:
                num /= rad
        factors.append((num, 1 - dd.gammas.count(b), 1 - dd.gammas.count(a),
                        [g for g in dd.gammas if g != a and g != b]))

    def theta_fn(j, theta):
        ct = np.cos(np.asarray(theta, float))
        t = e.midpoints[j] + e.radii[j] * ct
        num, pow_minus, pow_plus, off_edge = factors[j]
        h = num * (1.0 - ct) ** pow_minus * (1.0 + ct) ** pow_plus
        return h * np.sqrt(np.abs(e.rest_product(j, t))) / np.abs(root_product(t, off_edge))

    masses = [(g, w) for g, w in zip(dd.gammas, mh.pole_weights) if w > 0]
    # a gamma close to (but not on) a band edge puts a boundary layer of width
    # sqrt(dist/rad) into h; allow a deep coefficient budget for that case
    return measure_from_theta_density(e, theta_fn, masses, n_max=16384)


class _StrippingTail:
    """Stepper for the coefficients of m = c (sqrt(R) - S)/G, G = prod (z - gamma_j).

    With kappa = -1/c, R - S^2 = 2 kappa G H exactly for a monic H of degree
    l, so -1/m = (sqrt(R) + S)/(2H) = z - b_1 + a_1^2 m_1, where m_1 has the
    same form with S' = 2(z - b_1)H - S, G' = H, kappa' = e_2 - s'_{l-1} and
    a_1^2 = -kappa'/2.  The stepper holds only the state (S, G, kappa) after
    `have` steps; its _Extension stores the coefficients.  H's leading
    coefficient and the top two of S are reset to their exact values (1; 1,
    e_1) on every step: left to rounding they drift until the recursion
    breaks down.

    A step runs on Python floats in lists of at most l + 2 entries, where
    numpy's per-call overhead would cost more than the arithmetic.  Its one
    numpy call is np.convolve for S^2, which fixes the summation order the
    coefficients depend on; every other operation is one that the
    elementwise array step makes, in the same order, so the coefficients are
    bit for bit those of the array recursion (kept in tests/oracles.py).
    """

    def __init__(self, mh: MinimalHerglotz):
        ell = mh.set.ell
        # the quotient by the monic G reads only coefficients l..2l of R - S^2
        self.R = mh.set.R_coeffs[ell:2 * ell + 1].tolist()
        self.S = mh.S_coeffs.tolist()
        self.G = P.polyfromroots(mh.dirichlet.gammas).tolist()
        self.kappa = -1.0 / float(mh.c)
        self.e1 = self.S[ell]
        self.e2 = self.kappa + (self.S[ell - 1] if ell else 0.0)

    def _step(self, index: int):
        S, G = self.S, self.G
        ell = len(G) - 1
        # H = (R - S^2)/(2 kappa G): the top two coefficients cancel exactly,
        # the rest is divided by the monic G from the top; each quotient
        # coefficient takes its updates in the order the division makes them
        k2 = 2 * self.kappa
        H = [(r - s) / k2 for r, s in zip(self.R, np.convolve(S, S)[ell:].tolist())]
        for k in range(ell - 1, -1, -1):
            h = H[k]
            for j in range(ell, k, -1):
                h -= H[j] * G[k + ell - j]
            H[k] = h
        H[ell] = 1.0
        b = (H[ell - 1] if ell else 0.0) - self.e1
        S = [2 * (hp - b * h) - s for hp, h, s in zip([0.0] + H, H[:ell], S)]
        S += [self.e1, 1.0]
        kappa = self.e2 - (S[ell - 1] if ell else 0.0)
        a2 = -kappa / 2
        # the cache's checks, made here: every failed step is an AccuracyError
        if not (0 < a2 < math.inf and math.isfinite(b)):
            raise AccuracyError(f"stripping step {index}: a^2 = {a2}")
        self.S, self.G, self.kappa = S, H, kappa
        return math.sqrt(a2), b

    def __call__(self, have: int, n: int):
        state = self.S, self.G, self.kappa
        try:
            a, b = zip(*[self._step(i) for i in range(have + 1, n + 1)])
        except BaseException:
            # the caller keeps no part of a failed stretch: rewind to have
            self.S, self.G, self.kappa = state
            raise
        return np.array(a), np.array(b)


class TorusPoint:
    """A point of the isospectral torus with lazily extendable coefficients."""

    def __init__(self, e: FiniteGapSet, dd: DirichletData, n: int = 64):
        self.set = e
        self.dirichlet = dd
        self.herglotz = minimal_herglotz(e, dd)
        self._coeffs = _Extension(_StrippingTail(self.herglotz))
        self.params = self.jacobi_params(n)

    @cached_property
    def measure(self) -> SpectralMeasure:
        """The spectral measure, built on first access (adaptive quadrature)."""
        return torus_measure(self.herglotz)

    def jacobi_params(self, n: int) -> JacobiParams:
        """Coefficients (a_1..a_n, b_1..b_n) as a JacobiParams with this head.

        Heads share one sequence that continues the stripping recursion;
        nothing is extrapolated.
        """
        a, b = self._coeffs(n)
        return JacobiParams(a, b, ExtendTail(self._coeffs, n))


def torus_jacobi(e: FiniteGapSet, dd: DirichletData, n: int) -> TorusPoint:
    """Torus point with its first n Jacobi coefficients computed."""
    return TorusPoint(e, dd, n=n)


def _gap_points(e: FiniteGapSet, G, S, slack: float = 1e-9) -> DirichletData:
    """The Dirichlet data of m = c (sqrt(R) - S)/G, G and S low to high.

    gamma_j is G's root in gap j; its sheet solves S(gamma_j) = -sigma_j
    rho_j, sign(rho_j) = (-1)^(l - j).  A root within slack times its gap's
    length outside the closed gap is clipped into it; a root that is not
    real, or lies farther out, raises AccuracyError.
    """
    roots = np.roots(np.asarray(G, float)[::-1])
    if roots.imag.any():
        raise AccuracyError(f"Dirichlet data: G has roots off the real line, {roots}")
    entries = []
    for j, g in enumerate(np.sort(roots.real).tolist()):
        beta, alpha = e.gap(j)
        pad = slack * (alpha - beta)
        if not beta - pad <= g <= alpha + pad:
            raise AccuracyError(f"Dirichlet data: root {g} of G outside gap {j} "
                                f"= [{beta}, {alpha}]")
        g = min(max(g, beta), alpha)
        side = P.polyval(g, S) * (-1) ** (e.ell - j)
        entries.append((g, -1 if side > 0 else 1))
    return dirichlet_data(e, entries)


def _move(e: FiniteGapSet, dd: DirichletData, k: int) -> DirichletData:
    """The Dirichlet data k >= 0 sites on along the torus, read by
    _gap_points from the stepper's G and S after k exact steps."""
    if k == 0:
        return dd
    step = _StrippingTail(minimal_herglotz(e, dd))
    step(0, k)
    return _gap_points(e, step.G, step.S)


def _site_start(e: FiniteGapSet, a, b, k: int = 0) -> DirichletData | None:
    """k sites on from the torus point whose m-function agrees with J's
    through the z^-(l+1) term of sqrt(R), at the site of J's a, b.

    The moments mu_i = <delta_1, T^i delta_1>, i <= 2l + 1, are exact on the
    (l+2) x (l+2) section T.  With sqrt(R) = z^(l+1) sum_k f_k z^-k and
    u = G/c, the z^-q coefficients of u m = sqrt(R) - S, q = 1..l+1, are
    -sum_i mu_(i+q-1) u_i = f_(l+1+q): one Hankel solve.  Then G = u/u_l
    and S_p = f_(l+1-p) + sum_(i>p) u_i mu_(i-1-p).  G's real roots are
    clipped into their gaps, however far out they lie, since the result is
    only a start.  None when the solve is singular, a root is not real or
    the move fails.
    """
    ell = e.ell
    n = ell + 2
    T = np.diag(b[:n]) + np.diag(a[:n - 1], 1) + np.diag(a[:n - 1], -1)
    v = np.zeros(n)
    v[0] = 1.0
    mu = []
    for _ in range(ell + 1):
        w = T @ v
        mu += [float(v @ v), float(v @ w)]
        v = w
    # the power-series square root of R(z) / z^(2l+2), branch f_0 = 1
    rho = e.R_coeffs[::-1].tolist()
    f = [1.0]
    for q in range(1, 2 * ell + 3):
        f.append((rho[q] - sum(f[i] * f[q - i] for i in range(1, q))) / 2)
    H = np.array([[-mu[i + q] for i in range(ell + 1)] for q in range(ell + 1)])
    try:
        u = np.linalg.solve(H, f[ell + 2:])
    except np.linalg.LinAlgError:
        return None
    if not (np.isfinite(u).all() and u[ell] != 0):
        return None
    S = [f[ell + 1 - p] + sum(u[i] * mu[i - 1 - p] for i in range(p + 1, ell + 1))
         for p in range(ell + 2)]
    try:
        return _move(e, _gap_points(e, u / u[ell], S, math.inf), k)
    except AccuracyError:
        return None


def reflectionless_residual(mh: MinimalHerglotz) -> float:
    """max |Re G_00| over band-interior grids, G_00 = -1/(a0^2 (m - mhat)).

    m - mhat = 2c sqrt(R)/prod(z - gamma) is purely imaginary on the bands, so
    the whole-line reflectionless extension has Re G_00 = 0 there; the
    returned residual measures how well the construction achieves it, on
    200 points per band, less those within 1e-6 of a band end or a gamma.
    """
    e = mh.set
    worst = 0.0
    for j in range(e.n_bands):
        a, b = e.bands[j]
        xs = np.linspace(a + 1e-6, b - 1e-6, 200)
        keep = np.ones(len(xs), bool)
        for g in mh.dirichlet.gammas:
            keep &= np.abs(xs - g) > 1e-6
        xs = xs[keep]
        diff = mh.m(xs) - mh.m_second_sheet(xs)
        G00 = -1.0 / diff  # a0 = 1; any a0 only rescales the residual
        worst = max(worst, float(np.abs(G00.real).max()))
    return worst


# ---------------------------------------------------------------------------
# the d_m metric and distance to the torus

# d_m stops once the bound on its geometric tail is below DM_TOL, so no d_m
# is resolved below it: the torus search ends at the first start under it
DM_TOL = 1e-12
# d_m reads coefficients in blocks of k = 0..DM_BLOCK-1; the search fits the
# first block
DM_BLOCK = 32
# step tolerance of the torus search, in gap positions
DD_TOL = 1e-6
# relative forward-difference step of the search's Jacobians
_FD_STEP = math.sqrt(np.finfo(float).eps)


def d_m(J: JacobiParams, Jp: JacobiParams, m: int) -> float:
    """d_m(J, J') = sum_{k>=0} e^{-k} (|a_{m+k} - a'_{m+k}| + |b_{m+k} - b'_{m+k}|).

    Truncated at k_max once the geometric tail bound (sup of coefficient
    differences seen so far) * e^{-k_max}/(1 - 1/e) drops below DM_TOL.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _d_from(J, m, Jp, m)[0]


def _d_from(J: JacobiParams, m: int, W: JacobiParams, w: int) -> tuple[float, int]:
    """(d_m of J against W read from its index w, k_max): the sum of
    e^{-k} (|a_{m+k} - a^W_{w+k}| + |b_{m+k} - b^W_{w+k}|), truncated as d_m."""
    total = 0.0
    sup = 0.0
    k = 0
    geom_tail = 1.0 / (1.0 - math.exp(-1.0))
    while True:
        a1, b1 = J.coeffs(m + k + DM_BLOCK - 1)
        a2, b2 = W.coeffs(w + k + DM_BLOCK - 1)
        lo, lo_w = m + k - 1, w + k - 1
        diff = np.abs(a1[lo:] - a2[lo_w:]) + np.abs(b1[lo:] - b2[lo_w:])
        total += float(np.exp(-(k + np.arange(len(diff)))) @ diff)
        sup = max(sup, float(diff.max(initial=0.0)))
        k += len(diff)
        bound = max(sup, 1e-30) * math.exp(-k) * geom_tail
        if bound < DM_TOL:
            break
        if k > 10000:
            raise AccuracyError("d_m tail bound did not close; unbounded coefficients?")
    return total, k


@dataclass(frozen=True)
class TorusDistance:
    """Result of dist_to_torus: an upper bound on the infimum plus the witness.

    The witness is site-m data: dirichlet, whose torus point is point, so
    point's coefficient k faces J's coefficient m - 1 + k (point is not
    part of to_json).  nfev counts the objective evaluations of the search,
    starts the starts it ran from; status is "floor" when a start reached
    d_m below DM_TOL and "converged" when the L1 polish stopped above it.
    """

    value: float
    dirichlet: DirichletData
    m: int
    nfev: int
    starts: int
    status: str
    point: JacobiParams = field(repr=False, compare=False)

    def deviation(self, J: JacobiParams, n: int) -> float:
        """d_n(J, witness) for n >= m, read from the site-m point."""
        if n < self.m:
            raise ValueError(f"n = {n} is below the search site m = {self.m}")
        return _d_from(J, n, self.point, n - self.m + 1)[0]

    def to_json(self) -> dict:
        return {"value": self.value, "dirichlet": self.dirichlet.to_json(),
                "m": self.m, "dd_tol": DD_TOL, "nfev": self.nfev,
                "starts": self.starts, "status": self.status}


class _TorusSearch:
    """The first d_m block of J against the torus, searched at site m.

    Stripping maps the torus onto itself, so the angles give site-m data.
    J's coefficients m..m+DM_BLOCK-1 are read once.  One evaluation steps a
    bare stepper to exactly those coefficients and keeps the unweighted
    residuals (a - a^T, then b - b^T); the weights are e^{-k}.  Evaluations
    and finite-difference Jacobians are memoized on the angles, so a point
    that two stages visit is evaluated once, and nfev counts the distinct
    points.
    """

    def __init__(self, J: JacobiParams, e: FiniteGapSet, m: int):
        self.e = e
        a, b = J.coeffs(m + DM_BLOCK - 1)
        self.target = np.concatenate([a[m - 1:m + DM_BLOCK - 1],
                                      b[m - 1:m + DM_BLOCK - 1]])
        w = np.exp(-np.arange(DM_BLOCK, dtype=float))
        self.weights = np.concatenate([w, w])
        self._residuals = {}
        self._jacobians = {}

    @property
    def nfev(self) -> int:
        return len(self._residuals)

    def residual(self, phis: np.ndarray) -> np.ndarray:
        key = phis.tobytes()
        r = self._residuals.get(key)
        if r is None:
            mh = minimal_herglotz(self.e, dirichlet_from_angles(self.e, phis))
            r = self.target - np.concatenate(_StrippingTail(mh)(0, DM_BLOCK))
            self._residuals[key] = r
        return r

    def value(self, phis: np.ndarray) -> float:
        """The first block of d_m, sum_k e^{-k} (|a_k - a^T_k| + |b_k - b^T_k|)."""
        return float(self.weights @ np.abs(self.residual(phis)))

    def jacobian(self, phis: np.ndarray) -> np.ndarray:
        """Forward differences of the residuals, one evaluation per angle."""
        key = phis.tobytes()
        jac = self._jacobians.get(key)
        if jac is None:
            r = self.residual(phis)
            jac = np.empty((len(r), len(phis)))
            for j in range(len(phis)):
                shifted = phis.copy()
                shifted[j] += _FD_STEP * max(1.0, abs(phis[j]))
                jac[:, j] = (self.residual(shifted) - r) / (shifted[j] - phis[j])
            self._jacobians[key] = jac
        return jac


def _angles(e: FiniteGapSet, dd: DirichletData) -> np.ndarray:
    """The gap-circle angles of dirichlet_from_angles that give dd."""
    angles = []
    for j, (g, s) in enumerate(zip(dd.gammas, dd.sheets)):
        beta, alpha = e.gap(j)
        cos_phi = ((beta + alpha) / 2 - g) / ((alpha - beta) / 2)
        phi = math.acos(min(1.0, max(-1.0, cos_phi)))
        angles.append(phi if s > 0 else 2 * math.pi - phi)
    return np.array(angles)


def _fit(search: _TorusSearch, x0: np.ndarray, tol: float) -> np.ndarray:
    """x0 when its block is below DM_TOL, else the Levenberg-Marquardt end from x0."""
    return x0 if search.value(x0) < DM_TOL else _least_squares(search, x0, tol)


def _least_squares(search: _TorusSearch, x0: np.ndarray, tol: float) -> np.ndarray:
    """Levenberg-Marquardt on the e^{-k/2}-weighted residuals from x0.

    MINPACK tests its step against tol * |x|, so xtol = tol / |x0| makes
    the step tolerance tol in angle up to how far x moves.
    """
    from scipy.optimize import least_squares

    sqrt_w = np.sqrt(search.weights)
    res = least_squares(lambda x: sqrt_w * search.residual(x), x0,
                        jac=lambda x: sqrt_w[:, None] * search.jacobian(x),
                        method="lm", x_scale=1.0,
                        xtol=tol / max(1.0, float(np.linalg.norm(x0))),
                        max_nfev=50 * (len(x0) + 1))
    return res.x


def _polish(search: _TorusSearch, x: np.ndarray, tol: float) -> np.ndarray:
    """Minimize the first d_m block itself (an L1 sum) by sequential linearization.

    Each step solves min_d sum_k w_k |r_k + (J d)_k| exactly as a linear
    program (r + J d = u - v with u, v >= 0, |d_j| <= pi) and halves the step
    until the block decreases.  The polish ends when the step it took, or
    the last one it tried, is shorter than tol in angle; it raises
    AccuracyError after 50 (l + 1) evaluations.
    """
    from scipy.optimize import linprog

    ell = len(x)
    cap = search.nfev + 50 * (ell + 1)
    k = len(search.weights)
    cost = np.concatenate([np.zeros(ell), search.weights, search.weights])
    bounds = [(-math.pi, math.pi)] * ell + [(0, None)] * (2 * k)
    eye = np.eye(k)
    f = search.value(x)
    while True:
        lp = linprog(cost, A_eq=np.hstack([search.jacobian(x), -eye, eye]),
                     b_eq=-search.residual(x), bounds=bounds, method="highs")
        if lp.status != 0:
            raise AccuracyError(f"torus search: linearized L1 step failed: {lp.message}")
        step = lp.x[:ell]
        size = float(np.abs(step).max())
        while True:
            trial = x + step
            f_trial = search.value(trial)
            if search.nfev > cap:
                raise AccuracyError(f"torus search: L1 polish did not converge "
                                    f"in {cap} evaluations")
            if f_trial < f:
                x, f = trial, f_trial
                break
            step, size = step / 2, size / 2
            if size < tol:
                return x
        if size < tol:
            return x


def dist_to_torus(J: JacobiParams, e: FiniteGapSet, m: int,
                  initial: DirichletData | None = None) -> TorusDistance:
    """Approximate inf over torus points of d_m(J, .) by a least-squares search.

    The torus is searched at site m in the gap-circle angles of
    dirichlet_from_angles; initial and the witness are site-m data too.  With
    initial, it is the one start.  Otherwise the starts are the site starts
    at sites m, m - 1, ..., max(1, m - l): the torus point that J's own
    coefficients at that site fix, moved on to site m (_site_start); a site
    whose start does not exist is passed over, and AccuracyError is raised
    when none exists.  From a start whose block is not below DM_TOL,
    Levenberg-Marquardt fits the e^{-k/2}-weighted first block of d_m; the
    search ends at the first start or fit whose block is below DM_TOL.  When
    no fit reaches it, the best end point is polished on the block itself
    (an L1 sum) by exact linearized steps.  DD_TOL is the step tolerance of
    both stages in gap positions.  The value is d_m at the witness and an
    upper bound on the true infimum; the search's evaluations, starts and
    status travel with the result.  For a gapless set [a_1, b_1] the torus is
    one period-1 point, a = (b_1 - a_1)/4, b = (a_1 + b_1)/2, and d_m is
    returned directly.
    """
    if e.ell == 0:
        (lo, hi), = e.bands
        point = JacobiParams(np.empty(0), np.empty(0),
                             PeriodicTail([(hi - lo) / 4], [(lo + hi) / 2]))
        val = d_m(J, point, m)
        return TorusDistance(val, DirichletData((), ()), m, 1, 1,
                             "floor" if val < DM_TOL else "converged", point)

    search = _TorusSearch(J, e, m)
    tol = DD_TOL / max((e.gap(j)[1] - e.gap(j)[0]) / 2 for j in range(e.ell))
    if initial is not None:
        ends = [_fit(search, _angles(e, initial), tol)]
    else:
        a, b = J.coeffs(m + e.ell + 1)
        ends = []
        for k in range(min(e.ell, m - 1) + 1):
            site = _site_start(e, a[m - 1 - k:], b[m - 1 - k:], k)
            if site is not None:
                ends.append(_fit(search, _angles(e, site), tol))
                if search.value(ends[-1]) < DM_TOL:
                    break
        if not ends:
            raise AccuracyError(f"torus search: no site start at sites "
                                f"{max(1, m - e.ell)}..{m}")
    x = ends[-1]
    if search.value(x) < DM_TOL:
        status = "floor"
    else:
        x = _polish(search, min(ends, key=search.value), tol)
        status = "converged"

    site_dd = dirichlet_from_angles(e, x)
    point = torus_jacobi(e, site_dd, 0).params
    value = _d_from(J, m, point, 1)[0]
    return TorusDistance(value, site_dd, m, search.nfev, len(ends), status, point)
