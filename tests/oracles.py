"""Independent oracles used by the tests.

These deliberately avoid the library's own computational routes: the energy
oracle minimizes the discretized logarithmic energy directly by projected
gradient descent, the closed forms below come from classical formulas
(Joukowski map, symmetric two-band substitution u = x^2), and recursion
coefficients of measures come from Lanczos with full reorthogonalization
(the library strips by Stieltjes plus RKPW updates), gap-condition
integrals come from 30-digit tanh-sinh (the library solves them on a float
midpoint rule), and truncation eigenvalues off e come from the two whole
tridiagonal spectra (the library bisects only on R \\ e).
"""
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


def single_band_capacity(a, b):
    """cap([a,b]) = (b-a)/4."""
    return (b - a) / 4


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


def free_pn(z, n):
    """p_n for the free matrix: (u^{n+1} - u^{-(n+1)})/(u - 1/u), z = u + 1/u."""
    z = complex(z)
    u = (z + np.sqrt(complex(z * z - 4))) / 2
    if abs(u) < 1:
        u = 1 / u
    return (u ** (n + 1) - u ** -(n + 1)) / (u - 1 / u)


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
