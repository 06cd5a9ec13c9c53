"""Independent oracles used by the tests.

These deliberately avoid the library's own computational routes: the energy
oracle minimizes the discretized logarithmic energy directly by projected
gradient descent, the closed forms below come from classical formulas
(Joukowski map, symmetric two-band substitution u = x^2), and recursion
coefficients of measures come from Lanczos with full reorthogonalization
(the library strips by Stieltjes plus RKPW updates) and from the plain
numpy Stieltjes loop (the library runs it on level-1 BLAS), the doubling
strip from whole passes on every node (the library compares passes in
lockstep on prefixes and steps only the support), gap-condition
integrals come from 30-digit tanh-sinh (the library solves them on a float
midpoint rule), and truncation eigenvalues off e come from the two whole
tridiagonal spectra (the library bisects only on R \\ e, and only where the
hull of the support reaches), the three-condition (a) and (c) quantities
from two strips (the library strips once), and perturbation
deltas and the Lieb-Thirring right side come from the plain formulas (the
library slices shared power tables, draws into one buffer and sums |delta|
once).  The fixed-size cosine-substitution grid checks integrals against
1/sqrt(|R|) on bands and gaps (the library resolves them adaptively).  Torus
coefficients and the minimal Herglotz function come from numpy array
arithmetic (the library makes the same operations on Python floats, bit for
bit), the equilibrium density from the one-point route (the library groups
an array of points by band), CSV rows from a per-cell type dispatch (the
library formats each row with one template), and the distance to the torus
from grid + Powell on d_m of full torus points (the library fits d_m's first
block by least squares and polishes it in L1) and from the product grid of
starts (the library starts only from J's own coefficients at sites m down to
m - l).
"""
from dataclasses import dataclass
import functools
import math

import numpy as np


def simplex_project(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1
    idx = np.arange(1, len(v) + 1)
    rho = idx[u - css / idx > 0][-1]
    lam = css[rho - 1] / rho
    return np.maximum(v - lam, 0)


def energy_minimization(bands, cells_per_band=300, iters=4000):
    """Equilibrium data by brute-force energy descent on a cosine-graded grid.

    Returns (cell centers, widths, band index, masses, energy, harmonic
    measures).  Accuracy is grid-limited, roughly 1e-4 on harmonic measures.
    """
    bands = np.asarray(bands, float)
    centers, widths, band_idx = [], [], []
    for j, (a, b) in enumerate(bands):
        mid, rad = (a + b) / 2, (b - a) / 2
        edges = mid + rad * np.cos(np.linspace(np.pi, 0, cells_per_band + 1))
        centers.append((edges[:-1] + edges[1:]) / 2)
        widths.append(np.diff(edges))
        band_idx.append(np.full(cells_per_band, j))
    x = np.concatenate(centers)
    h = np.concatenate(widths)
    bi = np.concatenate(band_idx)
    D = np.abs(x[:, None] - x[None, :])
    with np.errstate(divide="ignore"):
        K = -np.log(D)
    # self energy of uniform mass on a width-h cell: -log h + 3/2
    np.fill_diagonal(K, -np.log(h) + 1.5)
    rho = simplex_project(h / h.sum())
    L = 2 * np.linalg.eigvalsh(K)[-1]
    y = rho.copy()
    t = 1.0
    for _ in range(iters):
        g = 2 * (K @ y)
        rho_new = simplex_project(y - g / L)
        t_new = (1 + np.sqrt(1 + 4 * t * t)) / 2
        y = rho_new + (t - 1) / t_new * (rho_new - rho)
        rho, t = rho_new, t_new
    E = float(rho @ K @ rho)
    hm = np.array([rho[bi == j].sum() for j in range(len(bands))])
    return x, h, bi, rho, E, hm


def gap_zeros_from_discrete_density(bands, x, h, bi, rho):
    """Recover Q's gap zeros from a discrete density by monic least squares.

    Uses the sign pattern of Q on bands (positive on the rightmost band,
    alternating per gap) to undo the absolute value in |Q|/(pi sqrt|R|).
    """
    bands = np.asarray(bands, float)
    roots = bands.ravel()
    ell = len(bands) - 1
    dens = rho / h
    R = np.ones_like(x)
    for r in roots:
        R = R * (x - r)
    vals = np.pi * np.sqrt(np.abs(R)) * dens
    sign = np.where((len(bands) - 1 - bi) % 2 == 0, 1.0, -1.0)
    y = sign * vals
    mask = np.ones(len(x), bool)
    for a, b in bands:
        mask &= ~(np.minimum(np.abs(x - a), np.abs(x - b)) < 0.02 * (b - a))
    A = np.vander(x[mask], ell, increasing=True)
    c, *_ = np.linalg.lstsq(A, y[mask] - x[mask] ** ell, rcond=None)
    return np.sort(np.roots(np.concatenate([c, [1.0]])[::-1]).real)


def symmetric_two_band_capacity(a, b):
    """cap([-b,-a] u [a,b]) = sqrt(b^2 - a^2)/2, via u = x^2."""
    return np.sqrt(b * b - a * a) / 2


def green_single_band(z, a=-2.0, b=2.0):
    """G(z) for one band via the Joukowski map."""
    mid, rad = (a + b) / 2, (b - a) / 2
    zeta = (np.asarray(z, complex) - mid) / rad
    u = zeta + np.sqrt(zeta - 1) * np.sqrt(zeta + 1)
    return np.log(np.abs(u))


def m_free(z):
    """Half-line free m-function (-z + sqrt(z^2-4))/2, Im > 0 convention."""
    z = np.asarray(z, complex)
    s = np.sqrt(z - 2) * np.sqrt(z + 2)
    return (-z + s) / 2


def m_arcsine(z):
    """Stieltjes transform of the arcsine measure: -1/sqrt(z^2-4)."""
    z = np.asarray(z, complex)
    return -1.0 / (np.sqrt(z - 2) * np.sqrt(z + 2))


def root_product_mp(t, roots, dps=50):
    """prod_r (t - r) at each t, in dps-digit arithmetic on the float inputs."""
    import mpmath
    with mpmath.workdps(dps):
        out = []
        for x in np.atleast_1d(t):
            p = mpmath.mpf(1)
            for r in roots:
                p *= mpmath.mpf(float(x)) - mpmath.mpf(float(r))
            out.append(float(p))
    return np.array(out)


def gap_integral_mp(e, zeros, j, dps=30):
    """(int_gap Q/sqrt|R|, int_gap |Q|/sqrt|R|) over gap j of e, Q the monic
    polynomial with these zeros, by dps-digit tanh-sinh quadrature.

    t = mid + rad cos(phi) absorbs the two edge factors of R exactly
    (dt / sqrt((t - beta)(alpha - t)) = dphi).  The phi interval is cut at
    the zeros inside the gap, so Q keeps one sign on each piece and the
    second integral is the sum of the pieces' absolute values.
    """
    import mpmath
    with mpmath.workdps(dps):
        pts = [mpmath.mpf(float(x)) for x in e.endpoints]
        qz = [mpmath.mpf(float(z)) for z in zeros]
        beta, alpha = pts[2 * j + 1], pts[2 * j + 2]
        rest = pts[:2 * j + 1] + pts[2 * j + 3:]
        mid, rad = (beta + alpha) / 2, (alpha - beta) / 2

        def f(phi):
            t = mid + rad * mpmath.cos(phi)
            return mpmath.fprod(t - z for z in qz) / mpmath.sqrt(
                abs(mpmath.fprod(t - x for x in rest)))

        cuts = [mpmath.mpf(0)] + sorted(mpmath.acos((z - mid) / rad)
                                        for z in qz if beta < z < alpha) + [mpmath.pi]
        pieces = [mpmath.quad(f, cuts[i:i + 2]) for i in range(len(cuts) - 1)]
        return float(sum(pieces)), float(sum(abs(p) for p in pieces))


def oprl_plain(a, b, n, z):
    """p_0(z)..p_n(z) by the unscaled three-term recursion in Python scalars."""
    p = [1.0, (z - b[0]) / a[0]]
    for k in range(1, n):
        p.append(((z - b[k]) * p[k] - a[k - 1] * p[k - 1]) / a[k])
    return np.array(p[:n + 1])


def continued_fraction_m(a, b, z):
    """m(z) = 1/(b_1 - z - a_1^2/(b_2 - z - ...)), cut after len(a) levels."""
    t = 0j
    for ak, bk in zip(a[::-1], b[::-1]):
        t = 1.0 / (bk - z - ak * ak * t)
    return t


def lanczos_coeffs(nodes, weights, N):
    """First N recursion coefficients of the discrete measure sum w_i delta_{x_i}.

    Lanczos with full reorthogonalization in the weighted inner product;
    stable for N well below the node count.  Returns (a_1..a_N, b_1..b_N)
    for the normalized measure.
    """
    w = weights / weights.sum()
    M = len(nodes)
    if N + 1 > M:
        raise ValueError(f"need more nodes ({M}) than coefficients ({N})")
    Q = np.empty((N + 1, M))
    Q[0] = 1.0 / np.sqrt(w.sum())
    a = np.zeros(N)
    b = np.zeros(N)
    for k in range(N):
        v = nodes * Q[k]
        b[k] = w @ (v * Q[k])
        v = v - b[k] * Q[k]
        if k > 0:
            v = v - a[k - 1] * Q[k - 1]
        ov = Q[:k + 1] @ (w * v)
        v = v - Q[:k + 1].T @ ov
        nrm2 = w @ (v * v)
        if nrm2 <= 0:
            raise ValueError(f"Lanczos broke down at step {k + 1}")
        a[k] = np.sqrt(nrm2)
        Q[k + 1] = v / a[k]
    return a, b


def stieltjes_plain(nodes, weights, N):
    """First N recursion coefficients of the discrete measure sum w_i delta_{x_i}.

    Normalized discretized Stieltjes as a plain numpy loop on the node
    vectors of p_0, p_1, ... (the library runs the same recursion with
    level-1 BLAS on sqrt(w)-scaled vectors in three rotating buffers).
    Returns (a_1..a_N, b_1..b_N) for the normalized measure.
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
            raise ValueError(f"Stieltjes broke down at step {k + 1}")
        a[k] = np.sqrt(nrm2)
        p_prev, p = p, v / a[k]
    return a, b


def stieltjes_rkpw_plain(nodes, weights, n_atoms, N):
    """First N recursion coefficients of a discretized measure whose last
    n_atoms entries are point masses: stieltjes_plain on every band node
    (zero weights included) to N + 1, then one RKPW update per atom."""
    from finitegap.jacobi import _rkpw
    m = len(nodes) - n_atoms
    a, b = stieltjes_plain(nodes[:m], weights[:m], N + 1)
    if not n_atoms:
        return a[:N], b[:N]
    beta = [weights[:m].sum()] + (a[:N] ** 2).tolist()
    for x, w in zip(nodes[m:], weights[m:]):
        b, beta = _rkpw(b, beta, x, w)
    return np.sqrt(beta[1:N + 1]), np.array(b[:N])


def strip_doubling_plain(mu, N, tol):
    """The grid-doubling strip of a measure whose band series is unresolved,
    as whole passes: from max(256, 2N + 64) nodes per band up to 2^17, each
    pass runs to N on every node and is compared with the previous one on
    all of a_1..a_N, b_1..b_N (the library compares consecutive passes in
    lockstep on prefixes, on the support only).  Returns (a, b, nodes per
    band of the accepted pass)."""
    from finitegap.errors import AccuracyError
    n_atoms = len(mu.point_masses)
    n = max(256, 2 * N + 64)
    prev = None
    while n <= 1 << 17:
        x, w = mu.discretize(n)
        a, b = stieltjes_rkpw_plain(x, w, n_atoms, N)
        state = np.concatenate([a, b])
        if prev is not None and np.abs(state - prev).max() < tol:
            return a, b, n
        prev = state
        n *= 2
    raise AccuracyError(f"stripping did not converge below {tol:g} by "
                        f"{1 << 17} nodes per band")


def lanczos_measure(mu, N, nodes_per_band=None):
    """Lanczos on mu.discretize at 2N + 64 nodes per band (or the given count)."""
    x, w = mu.discretize(nodes_per_band or 2 * N + 64)
    return lanczos_coeffs(x, w, N)


def torus_lanczos(mh, N, tol=1e-12):
    """First N coefficients of a minimal Herglotz function by Lanczos on
    discretizations of its spectral measure, the grid doubled from 2N + 64
    nodes per band until the coefficients change by less than tol (a route
    that shares no code with either stripping recursion of the library).
    Raises RuntimeError if they have not settled by 2^17 nodes per band."""
    import finitegap as fg
    mu = fg.torus_measure(mh)
    n = 2 * N + 64
    prev = np.concatenate(lanczos_measure(mu, N, n))
    while 2 * n <= 1 << 17:
        n *= 2
        a, b = lanczos_measure(mu, N, n)
        cur = np.concatenate([a, b])
        if np.abs(cur - prev).max() < tol:
            return a, b
        prev = cur
    raise RuntimeError(f"torus Lanczos did not settle to {tol:g} "
                       f"by {n} nodes per band")


class StrippingTailPlain:
    """The torus stripping recursion of isotorus._StrippingTail as numpy
    array arithmetic on whole coefficient vectors: R from polyfromroots per
    point, the full (R - S^2)/(2 kappa) and every update of the division
    (the library does the same operations on Python floats, reading only
    what the quotient needs).  Same stepper interface: built from a
    MinimalHerglotz, called with (have, n) for the coefficients have + 1..n,
    holding only the state (S, G, kappa)."""

    def __init__(self, mh):
        ell = mh.set.ell
        self.R = np.polynomial.polynomial.polyfromroots(mh.set.endpoints)
        self.S = np.array(mh.S_coeffs, float)
        self.G = np.polynomial.polynomial.polyfromroots(mh.dirichlet.gammas)
        self.kappa = -1.0 / mh.c
        self.e1 = self.S[ell]
        self.e2 = self.kappa + (self.S[ell - 1] if ell else 0.0)

    def _step(self, index):
        from finitegap.errors import AccuracyError
        ell = len(self.G) - 1
        rem = (self.R - np.convolve(self.S, self.S))[:2 * ell + 1] / (2 * self.kappa)
        H = np.empty(ell + 1)
        for k in range(ell, -1, -1):
            H[k] = rem[k + ell]
            rem[k:k + ell + 1] -= H[k] * self.G
        H[ell] = 1.0
        b = (H[ell - 1] if ell else 0.0) - self.e1
        S = 2 * (np.concatenate([[0.0], H]) - b * np.append(H, 0.0)) - self.S
        S[ell:] = self.e1, 1.0
        kappa = self.e2 - (S[ell - 1] if ell else 0.0)
        if not kappa < 0:
            raise AccuracyError(f"stripping step {index}: a^2 = {-kappa / 2}")
        self.S, self.G, self.kappa = S, H, kappa
        return math.sqrt(-kappa / 2), b

    def __call__(self, have, n):
        a, b = zip(*[self._step(i) for i in range(have + 1, n + 1)])
        return np.array(a), np.array(b)


def stripping_tail_plain(mh, n):
    """First n torus coefficients (a, b) of mh by the array recursion."""
    return StrippingTailPlain(mh)(0, n)


def dist_to_torus_powell(J, e, m, grid_per_gap=16, dd_tol=1e-6):
    """The grid + Powell route to inf_T d_m(J, T): a product grid over the gap
    circles, then Powell's method on the circle angles with d_m of a full
    torus point as the objective (the library fits the first d_m block by
    least squares and polishes it as an L1 sum).
    Returns (value, DirichletData, objective evaluations)."""
    import itertools
    from scipy.optimize import minimize
    import finitegap as fg
    nfev = 0

    def objective(phis):
        nonlocal nfev
        nfev += 1
        dd = fg.dirichlet_from_angles(e, phis)
        return fg.d_m(J, fg.torus_jacobi(e, dd, m).params, m)

    best_val, best_phis = math.inf, None
    angles = 2 * np.pi * np.arange(grid_per_gap) / grid_per_gap
    for phis in itertools.product(angles, repeat=e.ell):
        phis = np.array(phis)
        val = objective(phis)
        if val < best_val:
            best_val, best_phis = val, phis
    phis = np.array(best_phis, float)
    max_rad = max((e.gap(j)[1] - e.gap(j)[0]) / 2 for j in range(e.ell))
    res = minimize(objective, phis, method="Powell",
                   options={"xtol": dd_tol / max_rad, "ftol": 1e-14,
                            "maxfev": 1000 * e.ell})
    if res.fun < best_val:
        best_val = float(res.fun)
        phis = np.asarray(res.x, float).reshape(e.ell)
    return best_val, fg.dirichlet_from_angles(e, phis), nfev


def site_start_strict(e, a, b, k=0):
    """isotorus._site_start with _move's strict read of G's roots (a root
    more than 1e-9 of its gap's length outside the gap rejects the start),
    as the site start read them before it clipped every real root in."""
    from unittest import mock
    from finitegap import isotorus as it
    gap_points = it._gap_points
    with mock.patch.object(it, "_gap_points",
                           lambda e, G, S, slack=None: gap_points(e, G, S)):
        return it._site_start(e, a, b, k)


@functools.lru_cache(maxsize=4)
def _grid_blocks(e, grid_per_gap):
    """The product grid of grid_per_gap angles per gap circle, each point
    with the first DM_BLOCK coefficients (a, then b) of its torus point.
    They depend on neither J nor the site, so searches on one set share
    them."""
    import itertools
    import finitegap as fg
    from finitegap import isotorus as it
    angles = 2 * np.pi * np.arange(grid_per_gap) / grid_per_gap
    points = [np.array(p) for p in itertools.product(angles, repeat=e.ell)]
    return [(x, np.concatenate(it._StrippingTail(fg.minimal_herglotz(
        e, fg.dirichlet_from_angles(e, x)))(0, it.DM_BLOCK))) for x in points]


def dist_to_torus_grid(J, e, m, grid_per_gap):
    """The product-grid route to inf_T d_m(J, T) that the site starts of
    isotorus.dist_to_torus replaced: the site start at m with the strict
    read of G's roots (or, where it does not exist, the one at m - 1 moved
    one site on), fitted by Levenberg-Marquardt; if the fit's block stays
    at DM_TOL or above, the best points of a grid of grid_per_gap angles per
    gap circle (grid_per_gap^l points) fill up three starts, each fitted,
    and the best end is polished (the library's fit and polish).
    Returns (value, site-m DirichletData, objective evaluations)."""
    import finitegap as fg
    from finitegap import isotorus as it
    search = it._TorusSearch(J, e, m)
    tol = it.DD_TOL / max((e.gap(j)[1] - e.gap(j)[0]) / 2 for j in range(e.ell))
    a, b = J.coeffs(m + e.ell + 1)
    site = site_start_strict(e, a[m - 1:], b[m - 1:])
    if site is None and m > 1:
        site = site_start_strict(e, a[m - 2:], b[m - 2:], 1)
    ends = [] if site is None else [it._fit(search, it._angles(e, site), tol)]
    if not ends or search.value(ends[0]) >= it.DM_TOL:
        grid = _grid_blocks(e, grid_per_gap)
        for x, block in grid:
            # the residual search.residual(x) makes, bit for bit, and counted
            search._residuals.setdefault(x.tobytes(), search.target - block)
        for x0 in sorted([x for x, _ in grid], key=search.value)[:3 - len(ends)]:
            ends.append(it._fit(search, x0, tol))
            if search.value(ends[-1]) < it.DM_TOL:
                break
    x = ends[-1]
    if search.value(x) >= it.DM_TOL:
        x = it._polish(search, min(ends, key=search.value), tol)
    dd = fg.dirichlet_from_angles(e, x)
    return it._d_from(J, m, fg.torus_jacobi(e, dd, 0).params, 1)[0], dd, search.nfev


def minimal_herglotz_plain(e, dd):
    """isotorus.minimal_herglotz on numpy arrays throughout: R(gamma_j) and
    the pole-weight products by root_product on 0-d arrays (the library
    makes the same operations on Python floats, bit for bit).

    Conditions: S matches the two leading asymptotic coefficients of sqrt(R);
    at each interior gamma_j, S(gamma_j) = -sigma_j * sqrtR(gamma_j) (branch
    value on the gap); at a degenerate (edge) gamma_j, S(gamma_j) = 0.
    """
    from finitegap.bandset import root_product
    from finitegap.errors import AccuracyError, FiniteGapError
    from finitegap.isotorus import MinimalHerglotz
    if len(dd) != e.ell:
        raise FiniteGapError(f"Dirichlet data has {len(dd)} points, set has {e.ell} gaps")
    ell = e.ell
    roots = e.endpoints
    s1 = roots.sum()
    s2 = (s1 * s1 - np.sum(roots**2)) / 2
    r1, r2 = -s1, s2
    e1 = r1 / 2
    e2 = (r2 - e1 * e1) / 2

    gammas = np.asarray(dd.gammas, float)
    if ell > 0:
        rho = np.empty(ell)
        tau = np.empty(ell)
        for j in range(ell):
            beta, alpha = e.gap(j)
            g = gammas[j]
            if g == beta or g == alpha:
                rho[j] = 0.0
                tau[j] = 0.0
            else:
                Rg = float(e.R(g))
                # branch value on gap j (0-based): (-1)^(l - j) sqrt(R)
                rho[j] = (-1.0) ** (ell - j) * math.sqrt(Rg)
                tau[j] = -dd.sheets[j] * rho[j]
        V = np.vander(gammas, ell, increasing=True)
        rhs = tau - gammas ** (ell + 1) - e1 * gammas**ell
        try:
            s_low = np.linalg.solve(V, rhs)
        except np.linalg.LinAlgError as exc:
            raise AccuracyError(f"degenerate Dirichlet data: {exc}") from exc
        kappa = e2 - s_low[ell - 1]
    else:
        rho = np.empty(0)
        s_low = np.empty(0)
        kappa = e2
    if kappa == 0:
        raise AccuracyError("normalization failed: kappa = 0")
    c = -1.0 / kappa
    if c <= 0:
        raise AccuracyError(f"scale c = {c} not positive; construction bug")
    S = np.concatenate([s_low, [e1, 1.0]])

    weights = np.zeros(ell)
    for j in range(ell):
        beta, alpha = e.gap(j)
        g = gammas[j]
        if g != beta and g != alpha and dd.sheets[j] == +1:
            others = root_product(g, np.delete(gammas, j))
            w = -2.0 * c * rho[j] / others
            if w <= 0:
                raise AccuracyError(f"nonpositive pole weight {w}; construction bug")
            weights[j] = w
    return MinimalHerglotz(e, dd, S, c, weights)


def equilibrium_density_plain(eq, x):
    """w(x) at one float x by the scalar route: the band by a linear search,
    then (x - a)(b - x)|rest_product| and |Q(x)| / (pi sqrt(that)) on 0-d
    arrays (the library groups an array of points by band)."""
    from finitegap.errors import DomainError
    e = eq.set
    j = e.band_index(x)
    if j is None or x == e.bands[j][0] or x == e.bands[j][1]:
        raise DomainError(f"{x} is not interior to any band of {e.bands}")
    a, b = e.bands[j]
    rr = (x - a) * (b - x) * np.abs(e.rest_product(j, np.asarray(x)))
    return float(np.abs(eq.q_poly(np.asarray(x, float))) / (np.pi * np.sqrt(rr)))

def write_csv_plain(out, name, header, template, rows, config):
    """The CLI's CSV writer with a per-cell type dispatch: strings as they
    are, integers by str, anything else by f"{x:.17g}"; template is not read
    (the library formats each row with the caller's %-template)."""
    from finitegap import __version__
    from finitegap.cli import _config_hash
    lines = [f"# finitegap {__version__} config={_config_hash(config)}",
             ",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else
                              str(v) if isinstance(v, (int, np.integer)) else
                              f"{v:.17g}" for v in row))
    (out / name).write_text("\n".join(lines) + "\n")



def truncation_eigenvalues_outside_dense(J, e, N, stability_tol=1e-6):
    """Stability-filtered eigenvalues of the N x N truncation off e, from the
    whole N and N/2 spectra (divide and conquer): the candidates are every
    eigenvalue at positive distance from e, kept when some N/2 eigenvalue lies
    within stability_tol."""
    from scipy.linalg import eigh_tridiagonal
    import finitegap as fg
    a, b = J.coeffs(N)
    ev_full = eigh_tridiagonal(b, a[:N - 1], eigvals_only=True)
    out = [x for x in ev_full if fg.dist_to_set(e, x) > 0]
    if not out:
        return np.empty(0)
    a2, b2 = J.coeffs(N // 2)
    ev_half = eigh_tridiagonal(b2, a2[:N // 2 - 1], eigvals_only=True)
    return np.array(sorted(x for x in out
                           if np.abs(ev_half - x).min() < stability_tol))


def three_condition_two_strip(e, mu, n_strip, n_trunc, strip_tol, capacity):
    """(lt_half_sum, a_product_range) of the three-condition experiment by two
    strips: mu stripped to n_strip, then its tail re-stripped to n_trunc by the
    truncations' read, which search every component of R \\ e by whole
    spectra (the library strips once to the length its verdicts read)."""
    import finitegap as fg
    J = fg.strip_coefficients(mu, n_strip, tol=strip_tol)
    lt = fg.lt_sum(truncation_eigenvalues_outside_dense(J, e, n_trunc), e, 0.5)
    a, _ = J.coeffs(n_strip)
    prods = np.exp(np.cumsum(np.log(a)) - np.arange(1, n_strip + 1) * math.log(capacity))
    return lt, [float(prods.min()), float(prods.max())]


def de_quad_unnested(fn, a, b, tol=1e-10, max_level=11):
    """Doubling tanh-sinh quadrature that evaluates fn on every node of every
    level (the library reuses each level's nodes in the next).  Same levels,
    -inf sentinel and (value, level) result as quadrature.de_quad."""
    from finitegap.quadrature import tanh_sinh_rule
    prev = None
    for level in range(4, max_level + 1):
        x, w = tanh_sinh_rule(level, a, b)
        vals = fn(x)
        if np.any(np.isneginf(vals)):
            return -np.inf, level
        val = float(np.sum(w * vals))
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            return val, level
        prev = val
    raise RuntimeError("tanh-sinh quadrature did not converge")


def power_delta_dense(rate, amplitude, n):
    """amplitude * n^(-rate), as one fresh power of the float indices."""
    return amplitude * np.asarray(n, float) ** (-rate)


def oscillatory_delta_dense(theta, amplitude, decay, phase, n):
    """amplitude * cos(2 pi theta n + phase) / n^decay on the float indices."""
    n = np.asarray(n, float)
    return amplitude * np.cos(2 * np.pi * theta * n + phase) / n ** decay


def random_decay_delta_dense(seed, rate, amplitude, n):
    """amplitude * U_n * n^(-rate) with U_1..U_max(n) drawn by uniform(-1, 1)
    from default_rng(seed), multiplied in that order."""
    n = np.asarray(n)
    u = np.random.default_rng(seed).uniform(-1, 1, int(n.max()))
    return amplitude * u[n - 1] * n.astype(float) ** (-rate)


def lt_free_rhs_dense(d, target, tail=0.0):
    """sum|delta b_n| + 4 sum|delta a_n| over the deltas d of one target, with
    zeros on the untargeted side, plus the tail bound times 1, 4 or 5."""
    zeros = np.zeros(len(d))
    da = d if target in ("a", "both") else zeros
    db = d if target in ("b", "both") else zeros
    rhs = float(np.abs(db).sum() + 4.0 * np.abs(da).sum())
    return rhs + {"b": 1.0, "a": 4.0, "both": 5.0}[target] * tail


@dataclass(frozen=True)
class QuadratureGrid:
    """Cosine-substitution nodes/weights for integrals against 1/sqrt(|R|).

    band integrals: int_band g / sqrt(|R|) dt ~= sum_i band_weights[j][i] * g(band_nodes[j][i])
    gap integrals:  int_gap  g / sqrt(R)  dt ~= sum_i gap_weights[j][i] * g(gap_nodes[j][i])
    """

    set: object
    band_nodes: tuple
    band_weights: tuple
    gap_nodes: tuple
    gap_weights: tuple
    node_count: int


def quadrature_grid(e, n=256):
    """The n-point midpoint rule in theta on every band and gap of e."""
    ct = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    bn, bw, gn, gw = [], [], [], []
    for j in range(e.n_bands):
        t = e.midpoints[j] + e.radii[j] * ct
        bn.append(t)
        bw.append((np.pi / n) / np.sqrt(np.abs(e.rest_product(j, t))))
    for j in range(e.ell):
        beta, alpha = e.gap(j)
        mid, rad = (beta + alpha) / 2, (alpha - beta) / 2
        t = mid + rad * ct
        gn.append(t)
        gw.append((np.pi / n) / np.sqrt(np.abs(e.gap_rest_product(j, t))))
    return QuadratureGrid(e, tuple(bn), tuple(bw), tuple(gn), tuple(gw), n)
