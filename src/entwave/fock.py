"""Truncated two-mode Fock-space realization of the plane representation.

States of two bosonic modes enter the transforms only through their
plane representation g(eta) = <eta|g>, where <eta| is the common
eigenbra of relative position and total momentum.  The basis overlaps
exp(-t/2) (-1)^n H_{m,n}(conj(eta), eta) / sqrt(m! n!), t = |eta|^2, are
Laguerre functions on each diagonal d = n - m >= 0 (m <-> n, eta -> conj(eta)
and no sign for m > n):

    <eta|m,n> = exp(-t/2) (-1)^d eta^d l_m^(d)(t),   l_k^(d) = sqrt(k!/(k+d)!) L_k^(d).

The conjugate-basis overlap is the pure phase
<xi|eta> = (1/2) exp[(conj(xi) eta - xi conj(eta)) / 2].  The eigenkets
themselves are non-normalizable and are never materialized; every
operation here consumes overlaps only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ccwt import _separable_correlate
from .errors import ConvergenceError
from .grid import ComplexPlaneGrid, Field, integrate
from .specfun import HERMITE_ORDER_CAP, _check_order

_SERIES_ORDER_CAP = 60

# Recurrence constants of _laguerre_rows, indexed [k, d] and [d] for k, d <= HERMITE_ORDER_CAP.
_K, _D = np.indices((HERMITE_ORDER_CAP + 1,) * 2)
_DOWN, _UP = np.sqrt(_K * (_K + _D)), 1.0 / np.sqrt((_K + 1) * (_K + 1 + _D))
_INV_ROOT_FACT = np.array([1 / math.sqrt(math.factorial(d)) for d in range(HERMITE_ORDER_CAP + 1)])

#: Points per block of :func:`_fock_series`; bounds its (order, points) scratch.
_BLOCK_POINTS = 1 << 16


def _fock_series(coeffs, eta) -> np.ndarray:
    """g(eta) = sum_{mn} c_{mn} <eta|m,n>, by Horner over diagonals: no plane per basis state."""
    c = np.asarray(coeffs, dtype=complex)
    rows, cols = np.nonzero(c)
    _check_order(0, int(np.max(rows + cols, initial=0)))
    c = c[: np.max(rows, initial=-1) + 1, : np.max(cols, initial=-1) + 1]
    x = np.ravel(eta).astype(complex)
    m, n = np.indices(c.shape)
    upper = np.triu(c) * (-1.0) ** (m + n)
    lower = np.tril(c, -1).T
    out = np.empty_like(x)
    for lo in range(0, x.size, _BLOCK_POINTS):
        block = x[lo:lo + _BLOCK_POINTS]
        out[lo:lo + _BLOCK_POINTS] = (_diagonal_horner(upper, block)
                                      + _diagonal_horner(lower, block.conj()))
    out = out.reshape(np.shape(eta))
    return complex(out) if np.ndim(eta) == 0 else out


def _diagonal_horner(a, x):
    """sum_{k, d>=0} a[k, k+d] exp(-t/2) x^d l_k^(d)(t), t = |x|^2, by Horner in x."""
    t = x.real**2 + x.imag**2
    gauss = np.exp(-0.5 * t)
    acc = np.zeros_like(x)
    ell = np.empty((min(a.shape), t.size))
    for d in range(a.shape[1] - 1, -1, -1):
        acc *= x
        s = np.trim_zeros(np.diagonal(a, d), "b")
        if not s.size:
            continue
        re, im = np.stack([s.real, s.imag]) @ _laguerre_rows(t, gauss, d, ell[: s.size])
        acc += re + 1j * im
    return acc


def _laguerre_rows(t, gauss, d, out):
    """Fill out[k] = exp(-t/2) l_k^(d)(t) for k < len(out), the one radial recurrence

        sqrt((k+1)(k+1+d)) l_{k+1} = (2k+1+d-t) l_k - sqrt(k(k+d)) l_{k-1},  l_0 = 1/sqrt(d!).

    ``d`` is one diagonal or an integer array of them broadcasting against ``t``.
    """
    np.multiply(gauss, _INV_ROOT_FACT[d], out=out[0])
    for k in range(len(out) - 1):
        nxt = out[k + 1]
        np.subtract(2 * k + 1 + d, t, out=nxt)
        nxt *= out[k]
        if k:
            nxt -= _DOWN[k, d] * out[k - 1]
        nxt *= _UP[k, d]
    return out


def _basis_table(eta, cutoff: int) -> np.ndarray:
    """B[m, n, p] = <eta_p|m,n> for 0 <= m, n <= cutoff, every diagonal at once."""
    _check_order(cutoff, cutoff)
    x = np.ravel(eta).astype(complex)
    t = x.real**2 + x.imag**2
    size = cutoff + 1
    radial = _laguerre_rows(t, np.exp(-0.5 * t), np.arange(size)[:, None],
                            np.empty((size, size, x.size)))
    table = np.empty((size, size, x.size), dtype=complex)
    upper, lower = np.ones_like(x), np.ones_like(x)  # (-x)^d and conj(x)^d
    for d in range(size):
        k = np.arange(size - d)
        table[k, k + d] = upper * radial[: size - d, d]
        table[k + d, k] = lower * radial[: size - d, d]
        upper, lower = -x * upper, x.conj() * lower
    return table


def number_state_eta(m: int, n: int, eta):
    """Plane representation <eta|m,n> of a two-mode number state."""
    return _fock_series(TwoModeFockState.number(m, n).coeffs, eta)


def coherent_state_eta(z1: complex, z2: complex, eta, *, tol: float = 1e-10):
    """Plane representation <eta|z1,z2>, its series truncated below ``tol``."""
    return _fock_series(TwoModeFockState.coherent(z1, z2, tol=tol).coeffs, eta)


def _coherent_order(a1: float, a2: float, tol: float) -> int:
    a = max(a1, a2, 1e-6)
    for order in range(8, _SERIES_ORDER_CAP + 1):
        if a**order / math.sqrt(math.factorial(order)) < 0.01 * tol:
            return order
    raise ConvergenceError(
        f"coherent amplitudes ({a1:.3g}, {a2:.3g}) too large for the "
        f"series cap {_SERIES_ORDER_CAP}"
    )


def xi_eta_overlap(xi, eta):
    """Overlap <xi|eta> = (1/2) exp[(conj(xi) eta - xi conj(eta)) / 2]."""
    xa = np.asarray(xi, dtype=complex)
    ea = np.asarray(eta, dtype=complex)
    out = 0.5 * np.exp(0.5 * (np.conj(xa) * ea - xa * np.conj(ea)))
    return complex(out) if out.ndim == 0 else out


def xi_eta_overlap_fock(xi: complex, eta: complex, cutoff: int = 40,
                        averaging: int = 16):
    """<xi|eta> resummed through the truncated number basis.

    Computes the square partial sums S_N = sum_{m,n<=N} <xi|m,n><m,n|eta>.
    Because <xi| and |eta> are non-normalizable, the raw partial sums only
    oscillate around the closed form (at xi = eta = 0 they alternate
    between 1 and 0); ``averaging`` iterated means of the partial-sum
    sequence give the convergent resummation.  ``averaging=0`` returns the
    raw truncated sum S_cutoff.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    if not 0 <= averaging <= cutoff:
        raise ValueError("averaging passes must lie in [0, cutoff]")
    basis = _basis_table([xi, eta], cutoff)
    signs = (-1.0) ** np.arange(cutoff + 1)  # <xi|m,n> is (-1)^n times the eta-basis value
    terms = signs * basis[..., 0] * basis[..., 1].conj()
    partial = np.cumsum(np.cumsum(terms, axis=0), axis=1).diagonal()
    for _ in range(averaging):
        partial = 0.5 * (partial[1:] + partial[:-1])
    return complex(partial[-1])


def u2_matrix_element(w, g: Field, mu: float, kappa: complex) -> complex:
    """Matrix element <psi| U2(mu, kappa) |g> through the plane representation.

    Identical quadrature to the forward transform at a single translation:
    (1/mu) int d2eta/pi psi*((eta - kappa)/mu) g(eta), the separable
    contraction onto the one node kappa (the radial wavelet is real).
    """
    if mu <= 0:
        raise ValueError(f"scale must be positive, got {mu}")
    grid = g.grid
    total = _separable_correlate(g.values * grid.trapezoid_mask(), w, mu, (grid.x, grid.y),
                                 ([np.real(kappa)], [np.imag(kappa)]))
    return complex(total[0, 0] * grid.cell_area() / (np.pi * mu))


def completeness_gram(cutoff: int, grid: ComplexPlaneGrid) -> np.ndarray:
    """Gram matrix int d2eta/pi <m,n|eta><eta|m',n'> over all m,n <= cutoff.

    Approximates the identity when the grid resolves and contains the
    sampled states; states are ordered lexicographically by (m, n).
    """
    basis = _basis_table(grid.nodes(), cutoff).reshape((cutoff + 1) ** 2, -1)
    weights = grid.trapezoid_mask().ravel() * (grid.cell_area() / np.pi)
    return (basis.conj() * weights) @ basis.T


@dataclass(frozen=True)
class TwoModeFockState:
    """Truncated coefficient matrix c_{mn} in the two-mode number basis."""

    cutoff: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be non-negative, got {self.cutoff}")
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.cutoff + 1, self.cutoff + 1):
            raise ValueError(
                f"coefficient matrix shape {c.shape} does not match cutoff {self.cutoff}"
            )
        if not np.all(np.isfinite(c.view(float))):
            raise ValueError("coefficients contain non-finite values")
        norm = np.sum(np.abs(c) ** 2)
        if norm > 1.0 + 1e-9:
            raise ValueError(f"squared norm {norm:.12f} exceeds 1 beyond truncation slack")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def number(cls, m: int, n: int, cutoff: int | None = None) -> "TwoModeFockState":
        if cutoff is None:
            cutoff = max(m, n)
        elif cutoff >= 0:
            _check_order(cutoff, cutoff)  # an explicit cutoff, before its matrix is allocated
        if not (0 <= m <= cutoff and 0 <= n <= cutoff):
            raise ValueError(f"number-state indices ({m}, {n}) must lie in [0, {cutoff}]")
        _check_order(m, n)
        c = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
        c[m, n] = 1.0
        return cls(cutoff, c)

    @classmethod
    def coherent(cls, z1: complex, z2: complex, cutoff: int | None = None,
                 tol: float = 1e-10) -> "TwoModeFockState":
        """c_mn = z1^m z2^n exp(-(|z1|^2+|z2|^2)/2) / sqrt(m! n!) for m, n <= cutoff.

        With no ``cutoff``, the first one whose dropped tail is below ``tol``.
        """
        z1, z2 = complex(z1), complex(z2)
        if not np.isfinite([z1, z2]).all():
            raise ValueError(f"coherent amplitudes must be finite, got ({z1}, {z2})")
        chosen = cutoff is None
        if chosen:
            cutoff = _coherent_order(abs(z1), abs(z2), tol)
        elif cutoff >= 0:
            _check_order(cutoff, cutoff)
        amps = [[z**k / math.sqrt(math.factorial(k)) for k in range(cutoff + 1)] for z in (z1, z2)]
        state = cls(cutoff, math.exp(-0.5 * (abs(z1) ** 2 + abs(z2) ** 2)) * np.outer(*amps))
        # |<eta|m,n>| <= 1 everywhere, so the last row and column bound the dropped tail
        edge = np.abs(state.coeffs[-1]).sum() + np.abs(state.coeffs[:, -1]).sum()
        if chosen and edge > tol:
            raise ConvergenceError(f"coherent-state series tail {edge:.2e} above "
                                   f"tolerance {tol:.1e}")
        return state

    def eta_field(self, grid: ComplexPlaneGrid) -> Field:
        """Sample g(eta) = sum_{mn} c_{mn} <eta|m,n> on a grid."""
        return Field(grid, _fock_series(self.coeffs, grid.nodes()))


def parse_state_descriptor(text: str) -> TwoModeFockState:
    """The state of a ``number:m,n`` or ``coherent:re1,im1,re2,im2`` descriptor."""
    kind, _, rest = text.strip().partition(":")
    parts = [p.strip() for p in rest.split(",")] if rest else []
    if kind == "number":
        if len(parts) != 2:
            raise ValueError(f"number state needs 'number:m,n', got {text!r}")
        try:
            m, n = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad number-state indices in {text!r}")
        if m < 0 or n < 0:
            raise ValueError(f"number-state indices must be non-negative in {text!r}")
        return TwoModeFockState.number(m, n)
    if kind == "coherent":
        if len(parts) != 4:
            raise ValueError(
                f"coherent state needs 'coherent:re1,im1,re2,im2', got {text!r}"
            )
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"bad coherent-state amplitudes in {text!r}")
        return TwoModeFockState.coherent(complex(vals[0], vals[1]), complex(vals[2], vals[3]))
    raise ValueError(f"unknown state kind {kind!r} in {text!r}")


def state_field(descriptor: str, grid: ComplexPlaneGrid) -> Field:
    """Sample the plane representation of a described state on a grid."""
    return parse_state_descriptor(descriptor).eta_field(grid)


def unit_norm_field(descriptor: str, grid: ComplexPlaneGrid) -> Field:
    """State field renormalized to exactly unit plane-quadrature norm."""
    f = state_field(descriptor, grid)
    norm = integrate(Field(f.grid, np.abs(f.values) ** 2), "d2_over_pi").real
    if norm <= 0:
        raise ValueError(f"state {descriptor!r} has vanishing norm on this grid")
    return Field(f.grid, f.values / math.sqrt(norm))
