"""Mother wavelets on the complex plane.

The admissible radial family is

    psi(eta) = exp(-|eta|^2/2) sum_n n! K_n L_n(|eta|^2),

admissible iff sum_n (-1)^n n! K_n = 0.  Its symplectic Fourier transform
has the closed form exp(-|xi|^2/2) sum_n K_n H_{n,n}(|xi|, |xi|).  The
two-term member with K = (1/2, 1/2) is the entangled Mexican hat wavelet
(EMHW), psi(eta) = exp(-|eta|^2/2)(1 - |eta|^2/2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryDecayError, DivergentIntegralError, NonAdmissibleError
from .grid import ComplexPlaneGrid, Field
from .specfun import DEFAULT_ORDER_CAP, hermite2, laguerre

#: Tolerance on the closed-form admissibility defect of coefficient wavelets.
COEFF_ADMISSIBILITY_TOL = 1e-12
#: Tolerance when the defect is recomputed by plane quadrature.
QUADRATURE_ADMISSIBILITY_TOL = 1e-8
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
        energy = sum((math.factorial(n) * c) ** 2 for n, c in enumerate(self.coeffs))
        if energy <= 0:
            raise ValueError("cannot normalize a zero wavelet")
        return self.scaled(1.0 / math.sqrt(energy))


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
    if w.kind is WaveletKind.EMHW:
        out = np.exp(-0.5 * t) * (1.0 - 0.5 * t)
    else:
        series = np.zeros_like(t)
        for n, c in enumerate(w.coeffs):
            if c:
                series += math.factorial(n) * c * laguerre(n, t)
        out = np.exp(-0.5 * t) * series
    return complex(out) if np.ndim(eta) == 0 else out.astype(complex)


def fourier_closed(w: MotherWavelet, xi):
    """Closed-form symplectic Fourier transform psi(xi); radial in |xi|."""
    r = np.abs(np.asarray(xi, dtype=complex))
    if w.kind is WaveletKind.EMHW:
        out = 0.5 * r**2 * np.exp(-0.5 * r**2)
    else:
        series = np.zeros_like(r)
        for n, c in enumerate(w.coeffs):
            if c:
                series += c * hermite2(n, n, r, r).real
        out = np.exp(-0.5 * r**2) * series
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
        from .grid import integrate

        return integrate(w, "d2_over_2pi")
    total = sum((-1) ** n * math.factorial(n) * c for n, c in enumerate(w.coeffs))
    return complex(total)


def is_admissible(w: MotherWavelet, tol: float = COEFF_ADMISSIBILITY_TOL) -> bool:
    return abs(admissibility_defect(w)) <= tol


def require_admissible(w: MotherWavelet, tol: float = COEFF_ADMISSIBILITY_TOL) -> None:
    defect = admissibility_defect(w)
    if abs(defect) > tol:
        raise NonAdmissibleError(
            f"wavelet is not admissible: defect {defect.real:.6g} exceeds {tol:.1e}"
        )


def c_psi_prime(w: MotherWavelet, *, r_min: float = 1e-6, r_max: float = 12.0,
                tol: float = 1e-9, max_nodes: int = 1 << 20) -> float:
    """Normalization constant C'_psi = 4 int_0^inf d|xi|/|xi| |psi(xi)|^2.

    Adaptive log-spaced radial trapezoid on the closed-form profile with
    Richardson refinement; admissibility makes the integrand ~ r^3 near
    the origin and the Gaussian envelope cuts it beyond r ~ 12.
    """
    require_admissible(w)

    def quad(n: int) -> float:
        r = np.geomspace(r_min, r_max, n)
        vals = 4.0 * np.abs(fourier_closed(w, r)) ** 2  # integrand of d(ln r)
        h = math.log(r_max / r_min) / (n - 1)
        return float(np.trapezoid(vals, dx=h))

    n = 512
    prev = quad(n)
    while n <= max_nodes:
        n *= 2
        cur = quad(n)
        if abs(cur - prev) <= tol * max(abs(cur), 1.0):
            refined = cur + (cur - prev) / 3.0
            if refined <= 0:
                raise DivergentIntegralError("radial integral did not stay positive")
            return refined
        prev = cur
    raise DivergentIntegralError(
        f"radial quadrature did not converge below {tol:.1e} at {max_nodes} nodes"
    )


def wavelet_to_text(w: MotherWavelet) -> str:
    """Serialize as the plain-text key=value block."""
    lines = [f"kind={w.kind.value}"]
    if w.coeffs:
        lines.append("coeffs=" + ",".join(repr(c) for c in w.coeffs))
    return "\n".join(lines) + "\n"


def wavelet_from_text(text: str) -> MotherWavelet:
    """Parse the key=value block produced by :func:`wavelet_to_text`."""
    kind = None
    coeffs = ""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "kind":
            kind = value
        elif key == "coeffs":
            coeffs = value
        else:
            raise ValueError(f"unknown wavelet key {key!r}")
    if kind is None:
        raise ValueError("wavelet text is missing 'kind='")
    return MotherWavelet.from_spec(kind, coeffs)
