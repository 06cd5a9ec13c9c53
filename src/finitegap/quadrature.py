"""Chebyshev-grid and tanh-sinh quadrature helpers.

Everything on a band [a, b] is pulled back through x = mid + rad*cos(theta).
Smooth even densities in theta are represented by cosine-series coefficients
c_k (h(theta) = sum_k c_k cos(k theta)); the midpoint rule on the theta grid
is then spectrally accurate, and the DCT-II of the samples returns c_k.
"""
from __future__ import annotations

import numpy as np
from scipy.fft import dct

from .errors import AccuracyError


def cosine_nodes(n: int) -> np.ndarray:
    """Midpoint theta grid on (0, pi); never touches the endpoints."""
    return np.pi * (np.arange(n) + 0.5) / n


def cos_coeffs(samples: np.ndarray) -> np.ndarray:
    """Cosine-series coefficients from samples on cosine_nodes(len(samples)).

    Returns c with h(theta) ~= sum_k c[k] cos(k*theta); c[0] is the mean of h,
    so integral of h over (0, pi) equals pi*c[0].
    """
    n = len(samples)
    c = dct(samples, type=2) / n
    c[0] *= 0.5
    return c


def eval_cos_series(c: np.ndarray, theta) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, float))
    k = np.arange(len(c))
    return np.cos(theta[:, None] * k[None, :]) @ c


# Starting grid and tail tolerance of adaptive_cos_coeffs; cos_series_resolved
# reads the same values, so the two judge a series alike.
_N0 = 256
_REL_TOL = 1e-13


def adaptive_cos_coeffs(fn, n_max: int = 4096, strict: bool = True) -> np.ndarray:
    """Sample fn(theta) on doubling grids until the coefficient tail is negligible.

    The tail criterion is the chebfun one: on the grid of n = _N0 * 2^k
    points, the top quarter of coefficients must fall below _REL_TOL times
    the largest coefficient.  A series still unresolved at n_max
    (strict=False) is returned untrimmed.
    """
    n = _N0
    while True:
        c = cos_coeffs(fn(cosine_nodes(n)))
        scale = np.abs(c).max()
        if scale == 0.0:
            return c[:1]
        tail = _top_quarter(c, n)
        if tail <= _REL_TOL * scale:
            return _trim(c)
        if n >= n_max:
            if strict:
                raise AccuracyError(
                    f"cosine coefficients did not decay below {_REL_TOL:g} "
                    f"by n={n_max} (tail {tail / scale:.2e})")
            return c
        n *= 2


def cos_series_resolved(c: np.ndarray) -> bool:
    """Whether adaptive_cos_coeffs's tail criterion holds for the series c.

    c is read as sampled on the smallest of that function's grids
    (_N0 * 2^k) that holds it.  A series returned unresolved fills its grid
    untrimmed and fails by construction; a trimmed series passes unless it
    needed a finer grid than the smallest one that holds it.
    """
    n = _N0
    while n < len(c):
        n *= 2
    return _top_quarter(c, n) <= _REL_TOL * np.abs(c).max()


def _top_quarter(c: np.ndarray, n: int) -> float:
    """Largest magnitude among the top quarter of n coefficients (c zero-padded)."""
    return np.abs(c[(3 * n) // 4:]).max(initial=0.0)


def _trim(c: np.ndarray) -> np.ndarray:
    scale = np.abs(c).max()
    keep = np.nonzero(np.abs(c) > 1e-2 * _REL_TOL * scale)[0]
    return c[: keep[-1] + 1] if len(keep) else c[:1]


def inv_joukowski(zeta) -> np.ndarray:
    """u with zeta = (u + 1/u)/2 and |u| <= 1.

    Maps C \\ [-1,1] into the open unit disk; on [-1,1] itself |u| = 1.
    Computed as 1/(zeta + s) with s = sqrt(zeta-1)sqrt(zeta+1) ~ zeta at
    infinity: algebraically equal to zeta - s but free of the cancellation
    that form suffers for large |zeta|.  Adding 0.0 turns an imaginary part
    of -0 into +0 (real zeta means zeta + i0); otherwise zeta - 1 keeps the
    -0, zeta + 1 drops it, and the two square roots land on opposite sides
    of the cut.
    """
    zeta = np.asarray(zeta, complex) + 0.0
    s = np.sqrt(zeta - 1) * np.sqrt(zeta + 1)
    return 1.0 / (zeta + s)


def tanh_sinh_rule(level: int, a: float, b: float, odd: bool = False):
    """Tanh-sinh nodes/weights on (a, b); nodes stay strictly interior.

    Steps t = k h, h = 2^-level, |t| <= 6.  With odd=True only the odd-k
    nodes: the even ones are exactly the nodes of level - 1.
    """
    h = 2.0 ** (-level)
    n = int(np.ceil(6.0 / h))
    k = np.arange(-n + 1, n, 2) if odd else np.arange(-n, n + 1)
    t = k * h
    u = 0.5 * np.pi * np.sinh(t)
    x = np.tanh(u)
    w = h * 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    keep = (1.0 - np.abs(x)) > 1e-17
    x, w = x[keep], w[keep]
    mid, rad = (a + b) / 2, (b - a) / 2
    return mid + rad * x, rad * w


def de_quad(fn, a: float, b: float, tol: float = 1e-10, max_level: int = 11):
    """Doubling tanh-sinh quadrature; handles endpoint log/algebraic singularities.

    Levels are nested: the nodes of level L are the even-k nodes of level
    L + 1, at half the weight, so each level after the first evaluates fn
    only on its odd-k nodes and adds them to half the previous value.

    Returns (value, level). Raises AccuracyError if the doubling never settles.
    Infinite values from fn propagate (used for the -inf Szego sentinel).
    """
    delta = np.inf
    val = None
    for level in range(4, max_level + 1):
        x, w = tanh_sinh_rule(level, a, b, odd=val is not None)
        vals = fn(x)
        if np.any(np.isneginf(vals)):
            return -np.inf, level
        if val is None:
            val = float(np.sum(w * vals))
            continue
        prev, val = val, val / 2 + float(np.sum(w * vals))
        delta = abs(val - prev)
        if delta <= tol * max(1.0, abs(val)):
            return val, level
    raise AccuracyError(f"tanh-sinh quadrature did not converge (last delta "
                        f"{delta:.2e}, tol {tol:g})")
