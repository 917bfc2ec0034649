"""Mother wavelets on the complex plane.

The admissible radial family is

    psi(eta) = exp(-|eta|^2/2) sum_n n! K_n L_n(|eta|^2),

admissible iff sum_n (-1)^n n! K_n = 0.  Each exp(-t/2) L_n(t) is an
eigenfunction of the radial 2-D Fourier transform with eigenvalue (-1)^n,
so the symplectic Fourier transform is the same series with K_n replaced
by (-1)^n K_n, and the normalization constant C'_psi is the integral of a
polynomial against exp(-u), which a Gauss-Laguerre rule gives exactly.
The two-term member with K = (1/2, 1/2) is the entangled Mexican hat wavelet
(EMHW), psi(eta) = exp(-|eta|^2/2)(1 - |eta|^2/2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryDecayError, NonAdmissibleError
from .grid import ComplexPlaneGrid, Field, integrate
from .specfun import DEFAULT_ORDER_CAP, gauss_laguerre, laguerre_series

#: Tolerance on the closed-form admissibility defect of coefficient wavelets,
#: relative to the series norm sqrt(sum_n (n! K_n)^2), so rescaling cannot change it.
COEFF_ADMISSIBILITY_TOL = 1e-12
#: Boundary decay required of fields entering the symplectic Fourier transform.
FOURIER_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class MotherWavelet:
    """Laguerre-Gaussian wavelet, described by its series coefficients K_n alone.

    Two wavelets with equal K_n are equal; the EMHW is K = (1/2, 1/2).  The
    constructor takes 1 to DEFAULT_ORDER_CAP + 1 finite K_n whose energy
    sum_n (n! K_n)^2 is positive and finite, so a zero wavelet, or one whose
    energy overflows, is refused before any transform sees it.
    """

    coeffs: tuple

    def __post_init__(self):
        if isinstance(self.coeffs, str):  # its characters would read as K_n
            raise ValueError(f"wavelet coefficients K_n must be numbers, got text {self.coeffs!r}")
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("Laguerre-Gaussian wavelet needs coefficients")
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"wavelet coefficients K_n must be finite, got {coeffs}")
        if len(coeffs) - 1 > DEFAULT_ORDER_CAP:
            raise ValueError(
                f"series order {len(coeffs) - 1} exceeds cap {DEFAULT_ORDER_CAP}"
            )
        object.__setattr__(self, "coeffs", coeffs)
        if not 0 < _series_norm(self) < math.inf:
            raise ValueError(f"wavelet energy sum_n (n! K_n)^2 must be positive and "
                             f"finite, got K = {coeffs}")

    @classmethod
    def from_spec(cls, kind: str, coeffs=()) -> "MotherWavelet":
        """Wavelet from a case-insensitive kind name.

        ``emhw`` names K = (1/2, 1/2) and accepts no other ``coeffs``;
        ``lg`` takes ``coeffs``, a sequence of K_n.
        """
        kind = kind.lower()
        if kind == "emhw":
            if tuple(map(float, coeffs)) not in ((), (0.5, 0.5)):
                raise ValueError("emhw has fixed coefficients (1/2, 1/2)")
            return cls((0.5, 0.5))
        if kind != "lg":
            raise ValueError(f"unknown wavelet kind {kind!r}; choose emhw or lg")
        return cls(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def scaled(self, a: float) -> "MotherWavelet":
        """Wavelet with every coefficient multiplied by ``a``."""
        return MotherWavelet(tuple(a * c for c in self.coeffs))

    def normalized(self) -> "MotherWavelet":
        """Rescale so the plane energy int d2eta/pi |psi|^2 equals 1.

        Uses the Laguerre orthogonality closed form sum_n (n! K_n)^2 for
        the energy.  ``emhw()`` keeps its literal coefficients; call this
        explicitly when a unit-energy convention is wanted.
        """
        return self.scaled(1.0 / _series_norm(self))


def _series_norm(w: MotherWavelet) -> float:
    """sqrt(sum_n (n! K_n)^2), the square root of the plane energy of psi; inf on overflow."""
    try:
        return math.sqrt(sum((math.factorial(n) * c) ** 2 for n, c in enumerate(w.coeffs)))
    except OverflowError:
        return math.inf


def emhw() -> MotherWavelet:
    """The entangled Mexican hat wavelet."""
    return MotherWavelet.from_spec("emhw")


def laguerre_gaussian(coeffs) -> MotherWavelet:
    """Laguerre-Gaussian wavelet with series coefficients K_n."""
    return MotherWavelet(coeffs)


def mexican_hat(x):
    """1D Mexican hat wavelet (1 - x^2) exp(-x^2 / 2)."""
    xa = np.asarray(x, dtype=float)
    return ((1.0 - xa**2) * np.exp(-0.5 * xa**2))[()]


def eval_wavelet(w: MotherWavelet, eta):
    """Evaluate psi(eta); real-valued for the radial family."""
    t = np.abs(np.asarray(eta, dtype=complex)) ** 2
    weights = [math.factorial(n) * c for n, c in enumerate(w.coeffs)]
    return (np.exp(-0.5 * t) * laguerre_series(weights, t))[()]


def _fourier_series(w: MotherWavelet, u):
    """p(u) = sum_n (-1)^n n! K_n L_n(u), the transform's radial series in u = |xi|^2."""
    return laguerre_series([(-1) ** n * math.factorial(n) * c
                            for n, c in enumerate(w.coeffs)], u)


def fourier_closed(w: MotherWavelet, xi):
    """Closed-form symplectic Fourier transform psi(xi); radial in |xi|.

    psi(xi) = exp(-|xi|^2/2) sum_n (-1)^n n! K_n L_n(|xi|^2): the wavelet's
    own series with K_n -> (-1)^n K_n, since exp(-t/2) L_n(t) is a radial
    Fourier eigenfunction with eigenvalue (-1)^n.
    """
    t = np.abs(np.asarray(xi, dtype=complex)) ** 2
    return (np.exp(-0.5 * t) * _fourier_series(w, t))[()]


def separable_coeffs(w: MotherWavelet) -> np.ndarray:
    """M with psi(x + iy) = sum_{a,b} M[a, b] h_{2a}(x) h_{2b}(y), the wavelet's Cartesian form.

    From L_n(x^2 + y^2) = (-1)^n / (4^n n!) sum_m C(n, m) H_{2m}(x) H_{2n-2m}(y)
    and e^{-x^2/2} H_k(x) = sqrt(2^k k! sqrt(pi)) h_k(x).  The orthonormal
    Hermite functions (``specfun.hermite_functions``) stay bounded at every
    order; an expansion in monomials x^{2a} e^{-x^2/2} cancels
    catastrophically instead (errors near 1e-3 at order 32).
    """
    m = np.zeros((w.order, w.order))
    for n, k_n in enumerate(w.coeffs):
        for a in range(n + 1):
            b = n - a
            root = math.sqrt(math.factorial(2 * a) * math.factorial(2 * b))
            m[a, b] = k_n * (-1) ** n * math.sqrt(math.pi) * 2.0 ** -n * math.comb(n, a) * root
    return m


def symplectic_fourier(w_samples: Field, xi_grid: ComplexPlaneGrid) -> Field:
    """Quadrature symplectic Fourier transform of a sampled field.

    psi(xi) = int d2eta/(2 pi) exp[(conj(xi) eta - xi conj(eta)) / 2] psi(eta),
    evaluated on every node of ``xi_grid`` by trapezoid quadrature over the
    input grid.  The phase kernel separates along the two axes, so the
    double sum is assembled from two matrix products.
    """
    bmax = w_samples.boundary_max()
    if bmax > FOURIER_BOUNDARY_TOL:
        raise BoundaryDecayError(
            f"boundary magnitude {bmax:.3e} exceeds {FOURIER_BOUNDARY_TOL:.1e}; "
            "widen the sampling grid"
        )
    g = w_samples.grid
    weighted = w_samples.values * g.trapezoid_mask()
    # exp[i (xi1 eta2 - xi2 eta1)] = exp(i xi1 y) * exp(-i xi2 x)
    phase_y = np.exp(1j * np.outer(g.y, xi_grid.x))        # (ny, nxi_x)
    phase_x = np.exp(-1j * np.outer(g.x, xi_grid.y))       # (nx, nxi_y)
    partial = weighted @ phase_y                            # (nx, nxi_x)
    vals = (partial.T @ phase_x) * (g.cell_area() / (2.0 * np.pi))
    return Field(xi_grid, vals)


def admissibility_defect(w) -> complex:
    """The admissibility integral int d2eta/(2 pi) psi(eta).

    For coefficient wavelets this is the closed form sum_n (-1)^n n! K_n
    (the radial Laplace transform of L_n at 1/2 equals 2 (-1)^n); for a
    sampled :class:`Field` it is computed by plane quadrature.
    """
    if isinstance(w, Field):
        return integrate(w, "d2_over_2pi")
    total = sum((-1) ** n * math.factorial(n) * c for n, c in enumerate(w.coeffs))
    return complex(total)


def is_admissible(w: MotherWavelet) -> bool:
    """|defect| <= COEFF_ADMISSIBILITY_TOL * sqrt(sum_n (n! K_n)^2): immune to rescaling K_n."""
    return abs(admissibility_defect(w)) <= COEFF_ADMISSIBILITY_TOL * _series_norm(w)


def require_admissible(w: MotherWavelet) -> None:
    if not is_admissible(w):
        defect = admissibility_defect(w).real
        raise NonAdmissibleError(f"wavelet is not admissible: defect {defect:.6g} "
                                 f"exceeds {COEFF_ADMISSIBILITY_TOL:.1e} of its norm")


def c_psi_prime(w: MotherWavelet) -> float:
    """Normalization constant C'_psi = 4 int_0^inf d|xi|/|xi| |psi(xi)|^2.

    With u = |xi|^2 and psi(xi) = exp(-u/2) p(u) (see :func:`fourier_closed`),
    C'_psi = 2 int_0^inf exp(-u) p(u)^2/u du.  Admissibility is p(0) = 0, so
    for N coefficients p^2/u is a polynomial of degree 2N - 3, and the
    N-node Gauss-Laguerre rule, exact through degree 2N - 1 (Golub & Welsch,
    Math. Comp. 23, 1969), gives the integral exactly; ValueError if it is not a normal float.
    The sum is taken for p / 2^e, 2^e > max |n! K_n|, an exact scaling that keeps p^2 finite.
    """
    require_admissible(w)
    e = max(0, math.frexp(max(abs(math.factorial(n) * c) for n, c in enumerate(w.coeffs)))[1])
    u, weights = gauss_laguerre(w.order)
    with np.errstate(over="ignore", invalid="ignore"):
        c = 2.0 * float(np.sum(weights * _fourier_series(w.scaled(2.0 ** -e), u) ** 2 / u))
        c = float(np.ldexp(c, 2 * e))
    if not sys.float_info.min <= c < math.inf:
        raise ValueError(f"C'_psi = {c:g} is not a finite normal float; rescale K = {w.coeffs}")
    return c
