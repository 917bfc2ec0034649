"""Special functions behind the radial wavelet family.

Two-variable Hermite polynomials H_{m,n}(x, y), Laguerre polynomials
L_n(x) and their series sum_n w_n L_n(x).  On the diagonal they are tied
together by

    (-1)^n H_{n,n}(eta, conj(eta)) = n! L_n(|eta|^2),

which the test suite exercises as an invariant.  The orthonormal Hermite
functions h_k(x) and the separable contraction built on them are the one
home of the Gaussian-Hermite algebra: every radial wavelet is a finite sum
sum_ab M_ab h_2a(x) h_2b(y) (``wavelets.separable_coeffs`` gives M).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import EntwaveError

# Individual series terms of H_{m,n} reach ~max(m,n)! in magnitude; beyond
# this total order they can leave double-precision range.
HERMITE_ORDER_CAP = 120

# Default cap on polynomial orders carried by wavelet descriptors.
DEFAULT_ORDER_CAP = 32


class OrderOverflowError(EntwaveError, ValueError):
    """Polynomial order too large for double-precision evaluation."""


def _check_order(m: int, n: int) -> None:
    if m < 0 or n < 0:
        raise ValueError(f"polynomial orders must be non-negative, got ({m}, {n})")
    if m + n > HERMITE_ORDER_CAP:
        raise OrderOverflowError(
            f"order m+n={m + n} exceeds the factorial-safe cutoff {HERMITE_ORDER_CAP}"
        )


def hermite2(m: int, n: int, x, y):
    """Two-variable Hermite polynomial H_{m,n}(x, y).

    Evaluated by the exact finite series

        H_{m,n}(x, y) = sum_k (-1)^k m! n! x^(m-k) y^(n-k) / (k! (m-k)! (n-k)!)

    with integer coefficients C(m,k) C(n,k) k!, so no truncation error is
    introduced.  ``x`` and ``y`` may be scalars or broadcastable arrays.
    """
    _check_order(m, n)
    xa = np.asarray(x, dtype=complex)
    ya = np.asarray(y, dtype=complex)
    acc = np.zeros(np.broadcast(xa, ya).shape, dtype=complex)
    for k in range(min(m, n) + 1):
        coef = math.comb(m, k) * math.comb(n, k) * math.factorial(k)
        if k % 2:
            coef = -coef
        acc += float(coef) * xa ** (m - k) * ya ** (n - k)
    return acc[()]


def laguerre(n: int, x):
    """Laguerre polynomial L_n(x), the one-hot case of :func:`laguerre_series`."""
    _check_order(n, 0)
    return laguerre_series([0] * n + [1], x)


def laguerre_series(weights, x):
    """sum_n w_n L_n(x), in one pass of the stable three-term recurrence

        (k+1) L_{k+1}(x) = (2k+1-x) L_k(x) - k L_{k-1}(x),  L_{-1} = 0, L_0 = 1.

    Terms are added in increasing n and zero weights are skipped.  ``x``
    may be a scalar or an array.
    """
    xa = np.asarray(x, dtype=float)
    prev, cur, total = np.zeros_like(xa), np.ones_like(xa), np.zeros_like(xa)
    for n, w in enumerate(weights):
        if n:
            prev, cur = cur, ((2 * n - 1 - xa) * cur - (n - 1) * prev) / n
        if w:
            total += w * cur
    return total[()]


@functools.cache
def gauss_laguerre(n: int) -> tuple:
    """Nodes and weights of the n-node Gauss-Laguerre rule, read-only: every caller shares them."""
    nodes, weights = np.polynomial.laguerre.laggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def hermite_functions(x: np.ndarray, count: int) -> np.ndarray:
    """Orthonormal Hermite functions h_0 .. h_{count-1} at ``x``, shape (count, *x.shape).

    h_{k+1} = sqrt(2/(k+1)) x h_k - sqrt(k/(k+1)) h_{k-1}, h_0 = pi^{-1/4} e^{-x^2/2}.
    """
    h = np.empty((count, *x.shape))
    h[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if count > 1:
        h[1] = math.sqrt(2.0) * x * h[0]
    for k in range(1, count - 1):
        h[k + 1] = math.sqrt(2.0 / (k + 1)) * x * h[k] - math.sqrt(k / (k + 1)) * h[k - 1]
    return h


def axis_hermite(dst, src: np.ndarray, mu: float, terms: int) -> np.ndarray:
    """X[a, i, k] = h_2a((dst_i - src_k)/mu) for a < terms, shape (terms, len(dst), len(src))."""
    lag = (np.asarray(dst, dtype=float)[:, None] - src[None, :]) / mu
    return hermite_functions(lag, 2 * terms - 1)[::2]


def separable_correlate(values, m: np.ndarray, mu: float, src_axes, dst_axes) -> np.ndarray:
    """out[i, j] = sum_kl values[k, l] psi((x'_i - x_k)/mu + i (y'_j - y_l)/mu).

    psi(x + iy) = sum_ab m[a, b] h_2a(x) h_2b(y).  ``values`` sits on the
    axes (x, y) = ``src_axes``, ``out`` on (x', y') = ``dst_axes``; the sum
    is sum_ab M_ab X_a V Y_b^T (:func:`axis_hermite`).
    """
    x = axis_hermite(dst_axes[0], src_axes[0], mu, len(m))
    y = axis_hermite(dst_axes[1], src_axes[1], mu, len(m))
    xv = np.tensordot(m, x, axes=(0, 0)) @ values  # sum_a M_ab X_a V, shape (b, i, l)
    return np.tensordot(xv, y, axes=([0, 2], [0, 2]))
