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

import enum
import math
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


class WaveletKind(str, enum.Enum):
    LAGUERRE_GAUSSIAN = "lg"
    EMHW = "emhw"


@dataclass(frozen=True)
class MotherWavelet:
    """Analytic wavelet descriptor; sampled on demand.

    ``coeffs`` holds the Laguerre-series coefficients K_n.  The named EMHW
    carries its literal coefficients (1/2, 1/2) so that every closed form
    of the two-term family applies to it unchanged.
    """

    kind: WaveletKind
    coeffs: tuple = ()

    def __post_init__(self):
        try:
            kind = WaveletKind(self.kind)
        except ValueError:
            raise ValueError(f"unknown wavelet kind {self.kind!r}; choose emhw or lg")
        object.__setattr__(self, "kind", kind)
        coeffs = tuple(float(c) for c in self.coeffs)
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"wavelet coefficients K_n must be finite, got {coeffs}")
        if kind is WaveletKind.EMHW:
            if coeffs and coeffs != (0.5, 0.5):
                raise ValueError("emhw has fixed coefficients (1/2, 1/2)")
            coeffs = (0.5, 0.5)
        elif not coeffs:
            raise ValueError("Laguerre-Gaussian wavelet needs coefficients")
        elif len(coeffs) - 1 > DEFAULT_ORDER_CAP:
            raise ValueError(
                f"series order {len(coeffs) - 1} exceeds cap {DEFAULT_ORDER_CAP}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_spec(cls, kind: str, coeffs=()) -> "MotherWavelet":
        """Wavelet from a case-insensitive kind name, ``emhw`` or ``lg``.

        ``coeffs`` is a sequence of K_n or their comma-separated text.
        """
        if isinstance(coeffs, str):
            try:
                coeffs = tuple(float(c) for c in coeffs.split(",") if c.strip())
            except ValueError:
                raise ValueError(f"bad coefficient list {coeffs!r}")
        return cls(kind.lower(), coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def scaled(self, a: float) -> "MotherWavelet":
        """Wavelet with every coefficient multiplied by ``a``."""
        return MotherWavelet(WaveletKind.LAGUERRE_GAUSSIAN,
                             tuple(a * c for c in self.coeffs))

    def normalized(self) -> "MotherWavelet":
        """Rescale so the plane energy int d2eta/pi |psi|^2 equals 1.

        Uses the Laguerre orthogonality closed form sum_n (n! K_n)^2 for
        the energy.  The named wavelets keep their literal coefficients;
        call this explicitly when a unit-energy convention is wanted.
        """
        norm = _series_norm(self)
        if norm <= 0:
            raise ValueError("cannot normalize a zero wavelet")
        return self.scaled(1.0 / norm)


def _series_norm(w: MotherWavelet) -> float:
    """sqrt(sum_n (n! K_n)^2), the square root of the plane energy of psi."""
    return math.sqrt(sum((math.factorial(n) * c) ** 2 for n, c in enumerate(w.coeffs)))


def emhw() -> MotherWavelet:
    """The entangled Mexican hat wavelet."""
    return MotherWavelet(WaveletKind.EMHW)


def laguerre_gaussian(coeffs) -> MotherWavelet:
    """Laguerre-Gaussian wavelet with series coefficients K_n."""
    return MotherWavelet(WaveletKind.LAGUERRE_GAUSSIAN, tuple(coeffs))


def mexican_hat(x):
    """1D Mexican hat wavelet (1 - x^2) exp(-x^2 / 2)."""
    xa = np.asarray(x, dtype=float)
    out = (1.0 - xa**2) * np.exp(-0.5 * xa**2)
    return float(out) if np.ndim(x) == 0 else out


def eval_wavelet(w: MotherWavelet, eta):
    """Evaluate psi(eta); real-valued for the radial family."""
    t = np.abs(np.asarray(eta, dtype=complex)) ** 2
    weights = [math.factorial(n) * c for n, c in enumerate(w.coeffs)]
    out = np.exp(-0.5 * t) * laguerre_series(weights, t)
    return complex(out) if np.ndim(eta) == 0 else out.astype(complex)


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
    out = np.exp(-0.5 * t) * _fourier_series(w, t)
    return complex(out) if np.ndim(xi) == 0 else out.astype(complex)


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


def is_admissible(w: MotherWavelet, tol: float = COEFF_ADMISSIBILITY_TOL) -> bool:
    """|defect| <= tol * sqrt(sum_n (n! K_n)^2): rescaling the K_n cannot change the answer."""
    return abs(admissibility_defect(w)) <= tol * _series_norm(w)


def require_admissible(w: MotherWavelet, tol: float = COEFF_ADMISSIBILITY_TOL) -> None:
    if not is_admissible(w, tol):
        defect = admissibility_defect(w).real
        raise NonAdmissibleError(f"wavelet is not admissible: defect {defect:.6g} "
                                 f"exceeds {tol:.1e} of its norm")


def c_psi_prime(w: MotherWavelet) -> float:
    """Normalization constant C'_psi = 4 int_0^inf d|xi|/|xi| |psi(xi)|^2.

    With u = |xi|^2 and psi(xi) = exp(-u/2) p(u) (see :func:`fourier_closed`),
    C'_psi = 2 int_0^inf exp(-u) p(u)^2/u du.  Admissibility is p(0) = 0, so
    for N coefficients p^2/u is a polynomial of degree 2N - 3, and the
    N-node Gauss-Laguerre rule, exact through degree 2N - 1 (Golub & Welsch,
    Math. Comp. 23, 1969), gives the integral exactly.  A zero wavelet is
    admissible but has C'_psi = 0, which raises ValueError.
    """
    require_admissible(w)
    u, weights = np.polynomial.laguerre.laggauss(w.order)
    value = 2.0 * float(np.sum(weights * _fourier_series(w, u) ** 2 / u))
    if not value > 0:
        raise ValueError(f"C'_psi is {value!r}, not positive: the wavelet is zero")
    return value


def wavelet_to_text(w: MotherWavelet) -> str:
    """Serialize as the plain-text key=value block."""
    lines = [f"kind={w.kind.value}"]
    if w.coeffs:
        lines.append("coeffs=" + ",".join(repr(c) for c in w.coeffs))
    return "\n".join(lines) + "\n"


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
