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

from .errors import BoundaryDecayError, FileFormatError, NonAdmissibleError
from .grid import ComplexPlaneGrid, Field, integrate
from .specfun import DEFAULT_ORDER_CAP, laguerre_series

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
        ``lg`` takes ``coeffs``, a sequence of K_n or their comma-separated text.
        """
        if isinstance(coeffs, str):
            try:
                coeffs = tuple(float(c) for c in coeffs.split(",") if c.strip())
            except ValueError:
                raise ValueError(f"bad coefficient list {coeffs!r}")
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
    """
    require_admissible(w)
    u, weights = np.polynomial.laguerre.laggauss(w.order)
    with np.errstate(over="ignore", invalid="ignore"):
        c = 2.0 * float(np.sum(weights * _fourier_series(w, u) ** 2 / u))
    if not sys.float_info.min <= c < math.inf:
        raise ValueError(f"C'_psi = {c:g} is not a finite normal float; rescale K = {w.coeffs}")
    return c


def wavelet_to_text(w: MotherWavelet) -> str:
    """Serialize as the plain-text key=value block."""
    return "kind=lg\ncoeffs=" + ",".join(repr(c) for c in w.coeffs) + "\n"


def _read_key_values(lines, source: str) -> dict:
    """Values of the ``key=value`` lines; blank lines and ``#`` comments are skipped.

    A later key overrides an earlier one.  A line without ``=`` raises
    FileFormatError naming ``source`` and the line number.
    """
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            key, sep, value = line.partition("=")
            if not sep:
                raise FileFormatError(f"{source}:{lineno}: expected key=value")
            out[key.strip()] = value.strip()
    return out


def wavelet_from_text(text: str) -> MotherWavelet:
    """Parse the key=value block produced by :func:`wavelet_to_text`."""
    values = _read_key_values(text.splitlines(), "wavelet text")
    unknown = [key for key in values if key not in ("kind", "coeffs")]
    if unknown:
        raise ValueError(f"unknown wavelet key {unknown[0]!r}")
    if "kind" not in values:
        raise ValueError("wavelet text is missing 'kind='")
    return MotherWavelet.from_spec(values["kind"], values.get("coeffs", ""))
