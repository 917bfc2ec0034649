"""Theorem-verification harness.

Checks the Parseval pairing, the isometry of energy, the parameter-space
reproducing kernel, the state-independence of the normalization constant,
and the two closed-form integral identities that back the derivations.
All improper integrals are truncated, never transformed; convergence is
demonstrated by range-doubling rather than asserted.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .ccwt import RunConfig, _forward_planes, _is_fft_engine
# The suites reduce planes in their tasks instead; the engines stay here, where
# callers such as perfbench's tracer test look them up.
from .ccwt import forward, forward_fast  # noqa: F401
from .fock import unit_norm_field
from .grid import (ComplexPlaneGrid, Field, ScaleGrid, integrate, scale_weights, _atomic_write,
                   _trap_mask_1d)
from .specfun import axis_hermite, gauss_laguerre, hermite2, laguerre
from .wavelets import MotherWavelet, c_psi_prime, separable_coeffs

_REL_FLOOR = 1e-12


@dataclass(frozen=True)
class ParsevalReport:
    """Paired values of a (mu, kappa)-space identity and its plane side."""

    lhs: complex
    rhs: complex
    rel_error: float
    mu_range: tuple
    grid_summary: str

    @classmethod
    def build(cls, lhs: complex, rhs: complex, scales: ScaleGrid,
              grid: ComplexPlaneGrid) -> "ParsevalReport":
        rel = abs(lhs - rhs) / max(abs(rhs), _REL_FLOOR)
        summary = (
            f"{grid.nx}x{grid.ny} grid on "
            f"[{grid.x_min:g},{grid.x_min + (grid.nx - 1) * grid.dx:g}]^2, "
            f"{len(scales)} scales"
        )
        return cls(complex(lhs), complex(rhs), float(rel),
                   (scales.mu_min, scales.mu_max), summary)


def _pairing_reports(fields, pairs, w: MotherWavelet, scales: ScaleGrid,
                     engine: str) -> list:
    """Parseval reports for each index pair (i, j) of ``fields``.

    Every field goes through one forward call, which checks that they
    share a grid, transforms two real fields as one and reduces each
    scale's planes to the pairing sums in the scale's task, so no plane
    leaves its task and no (S, n, n) coefficient cube is held; on the
    matrix path the sums are Gram forms in the band, with no plane made.
    """
    fast = _is_fft_engine(engine)
    grid = fields[0].grid
    per_scale = np.array(_forward_planes(fields, w, scales, fast, lambda s, sums: sums, pairs),
                         dtype=complex).T
    weights = scale_weights(scales, 3)
    c_prime = c_psi_prime(w)
    reports = []
    for (i, j), row in zip(pairs, per_scale):
        g1, g2 = fields[i], fields[j]
        lhs = complex(np.sum(weights * row))
        overlap = integrate(Field(grid, np.conj(g2.values) * g1.values), "d2_over_pi")
        reports.append(ParsevalReport.build(lhs, c_prime * overlap, scales, grid))
    return reports


def parseval_pairing(g1: Field, g2: Field, w: MotherWavelet, scales: ScaleGrid,
                     *, engine: str = "fft") -> ParsevalReport:
    """Parseval pairing of two fields.

    lhs = int dmu/mu^3 int d2kappa/pi W_psi g1 conj(W_psi g2) over the
    truncated grids; rhs = C'_psi int d2eta/pi conj(g2) g1.
    """
    fields = [g1] if g2 is g1 else [g1, g2]
    return _pairing_reports(fields, [(0, len(fields) - 1)], w, scales, engine)[0]


def energy_isometry(g: Field, w: MotherWavelet, scales: ScaleGrid,
                    *, engine: str = "fft") -> ParsevalReport:
    """Isometry of energy: the g1 = g2 specialization of the pairing."""
    return parseval_pairing(g, g, w, scales, engine=engine)


def _axis_gram(m_terms: int, pos: float, pos_prime: float, nodes, mu: float) -> np.ndarray:
    """G[a, c] = sum_i w_i h_2a((pos' - x_i)/mu) h_2c((pos - x_i)/mu), trapezoid w_i."""
    h, h_prime = axis_hermite([pos, pos_prime], nodes, mu, m_terms).transpose(1, 0, 2)
    return (h_prime * _trap_mask_1d(nodes.size)) @ h.T


def reproducing_kernel(eta: complex, eta_prime: complex, w: MotherWavelet,
                       scales: ScaleGrid, kappa_grid: ComplexPlaneGrid) -> complex:
    """Parameter-space kernel of the mother wavelet.

    K(eta, eta') = (1/C'_psi) int dmu/mu^5 int d2kappa/pi
                   psi((eta' - kappa)/mu) psi*((eta - kappa)/mu)
    over the truncated scale range and translation grid.  The coincident
    value diverges as the resolved scale floor shrinks; pass scale grids
    whose mu_min tracks the kappa spacing to regularize it.

    The radial wavelet is sum_ab M[a, b] h_2a(x) h_2b(y) and the trapezoid
    mask is a product wx_i wy_j, so each scale's sum over the kappa nodes
    is sum(M * (X M Y^T)) with X, Y the per-axis Gram matrices of
    :func:`_axis_gram`: the same Riemann sum, in O(n order^2) per scale.
    """
    m = separable_coeffs(w)
    weights = scale_weights(scales, 5)
    total = 0.0
    for s, mu in enumerate(scales.mu_values):
        x = _axis_gram(len(m), eta.real, eta_prime.real, kappa_grid.x, mu)
        y = _axis_gram(len(m), eta.imag, eta_prime.imag, kappa_grid.y, mu)
        total += weights[s] * np.sum(m * (x @ m @ y.T))
    measure = kappa_grid.cell_area() / np.pi
    return complex(total * measure / c_psi_prime(w))


def constant_scan(states, w: MotherWavelet, scales: ScaleGrid, grid: ComplexPlaneGrid,
                  *, engine: str = "fft") -> list:
    """Isometry values for a list of state descriptors.

    Every descriptor is resolved to a unit-norm field, so each value
    estimates C'_psi independently of the state.
    """
    if not states:
        raise ValueError("constant scan needs at least one state descriptor")
    fields = [unit_norm_field(descriptor, grid) for descriptor in states]
    reports = _pairing_reports(fields, [(k, k) for k in range(len(fields))],
                               w, scales, engine)
    return [rep.lhs.real for rep in reports]


def oracle_gaussian_integral(zeta: complex, xi: complex, eta_c: complex) -> complex:
    """Closed form of int d2z/pi exp(zeta |z|^2 + xi z + eta conj(z)).

    Equals -(1/zeta) exp(-xi eta / zeta) for Re(zeta) < 0.
    """
    zeta = complex(zeta)
    if zeta.real >= 0:
        raise ValueError(f"need Re(zeta) < 0, got {zeta}")
    return -(1.0 / zeta) * np.exp(-complex(xi) * complex(eta_c) / zeta)


def oracle_gaussian_integral_quadrature(zeta: complex, xi: complex, eta_c: complex,
                                        n: int = 384) -> complex:
    """Plane-quadrature check of :func:`oracle_gaussian_integral`.

    The trapezoid sum over an n x n grid of z = x + iy.  The grid extent
    solves |zeta| R^2 - (|xi|+|eta|) R = 40 so the integrand is below e^-40
    at the boundary.  The exponent splits as
    [zeta x^2 + (xi + eta) x] + [zeta y^2 + i (xi - eta) y] and the mask
    is wx (x) wy, so the plane sum is the product of two axis sums: the
    same Riemann sum, still independent of the closed form.
    """
    zeta = complex(zeta)
    if zeta.real >= 0:
        raise ValueError(f"need Re(zeta) < 0, got {zeta}")
    a = -zeta.real
    lin = abs(xi) + abs(eta_c)
    extent = (lin + math.sqrt(lin * lin + 160.0 * a)) / (2.0 * a)
    grid = ComplexPlaneGrid.centered(n, extent)
    x, y = grid.x, grid.y
    sum_x = _trap_mask_1d(grid.nx) @ np.exp(zeta * x * x + (xi + eta_c) * x)
    sum_y = _trap_mask_1d(grid.ny) @ np.exp(zeta * y * y + 1j * (xi - eta_c) * y)
    return complex(sum_x * sum_y * grid.cell_area() / np.pi)


def oracle_scale_integral(x: float, y: float) -> float:
    """Closed form of int_0^inf u (1 - u x^2/2)(1 - u y^2/2) e^{-u(x^2+y^2)/2} du.

    Equals -4 (x^4 - 4 x^2 y^2 + y^4) / (x^2 + y^2)^4 for x^2 + y^2 > 0.
    """
    s = x * x + y * y
    if s <= 0:
        raise ValueError("need x^2 + y^2 > 0")
    return -4.0 * (x**4 - 4.0 * x * x * y * y + y**4) / s**4


def oracle_scale_integral_quadrature(x: float, y: float) -> float:
    """Gauss-Laguerre quadrature check of :func:`oracle_scale_integral`.

    With u = 2t/s the integrand is (4/s^2) t (1 - t x^2/s)(1 - t y^2/s) e^-t,
    a cubic in t times e^-t, so the 4-node rule integrates it exactly.
    """
    s = x * x + y * y
    if s <= 0:
        raise ValueError("need x^2 + y^2 > 0")
    t, weights = gauss_laguerre(4)
    return float(weights @ (t * (1 - t * x * x / s) * (1 - t * y * y / s))) * 4.0 / (s * s)


# ---------------------------------------------------------------------------
# Named suites
# ---------------------------------------------------------------------------


# The suites' gates and grids are the values of the acceptance criteria they
# mirror, fixed so that no config can loosen a gate.  The theorem rows stack
# three truncations (eta grid, kappa grid, mu range), hence 5%; the scale
# ranges keep the tails inside it (checked by the mu-doubling row).
# Criterion 4, the Parseval theorem and the isometry of energy.
THEOREM_TOL = 0.05
DOUBLING_TOL = 0.01
ORTHO_TOL = 0.02
# Criterion 6, the state independence of C'_psi.
SCAN_STATES = ("number:0,0", "number:1,1", "coherent:0.5,0,0.3,0")
SCAN_SCALES = ScaleGrid.log_spaced(72, 0.125, 16.0)
WINDOW_LO, WINDOW_HI = 0.475, 0.525
RATIO_MAX = 1.05
# Criterion 7, the reproducing kernel: a coarse kappa grid and the fine one
# at half its spacing.
KERNEL_GRIDS = (ComplexPlaneGrid.centered(257, 8.0), ComplexPlaneGrid.centered(513, 8.0))
KERNEL_MU_MAX = 4.0
KERNEL_SCALE_COUNT = 80
KERNEL_SEPARATION = 3.0
KERNEL_SEP_FRAC = 0.01
KERNEL_GROWTH_MIN = 3.0
# Criterion 8, the oracle identities.
ORACLE_DRAWS = 50
ORACLE_TOL = 1e-6
IDENTITY_MAX_ORDER = 10
IDENTITY_TOL = 1e-10


def _kernel_scales(grid: ComplexPlaneGrid) -> ScaleGrid:
    # mu_min at the grid spacing, the resolvable floor, regularizes the coincident divergence
    return ScaleGrid.log_spaced(KERNEL_SCALE_COUNT, grid.dx, KERNEL_MU_MAX)


@dataclass
class VerifySettings(RunConfig):
    """The transform under test, as :class:`RunConfig`, plus the oracle seed.

    ``mu_max`` defaults to 16, so the Parseval rows meet their 5% gate.
    """

    mu_max: float = 16.0
    seed: int = 20240801
    # Not a field: the constants suite's scale count, read by perfbench.
    scan_scale_count = len(SCAN_SCALES)

    def __post_init__(self):
        super().__post_init__()
        self.doubled_scales()  # the one suite input built from the settings

    def doubled_scales(self) -> ScaleGrid:
        """The scale range doubled at both ends, for the mu-doubling row."""
        return ScaleGrid.log_spaced(self.scale_count, self.mu_min / 2, self.mu_max * 2)


@dataclass(frozen=True)
class CaseResult:
    """One verification row: the judged metric sits in ``rel_error``."""

    case: str
    lhs: complex
    rhs: complex
    rel_error: float
    passed: bool

    def __post_init__(self):
        # numpy scalars would print their type name in the CSV report
        object.__setattr__(self, "rel_error", float(self.rel_error))


SUITE_NAMES = ("parseval", "kernel", "constants", "oracles", "all")


def _suite_parseval(s: VerifySettings) -> list:
    w = s.wavelet()
    grid = s.grid()
    scales = s.scales()
    vac = unit_norm_field("number:0,0", grid)
    one_one = unit_norm_field("number:1,1", grid)
    rep, cross, rep11 = _pairing_reports([vac, one_one], [(0, 0), (0, 1), (1, 1)],
                                         w, scales, s.engine)
    rows = [CaseResult("parseval_vacuum", rep.lhs, rep.rhs, rep.rel_error,
                       rep.rel_error <= THEOREM_TOL)]

    rep2 = parseval_pairing(vac, vac, w, s.doubled_scales(), engine=s.engine)
    change = abs(rep2.lhs - rep.lhs) / max(abs(rep.lhs), _REL_FLOOR)
    rows.append(CaseResult("parseval_mu_doubling", rep2.lhs, rep.lhs, change,
                           change <= DOUBLING_TOL))
    rows.append(CaseResult("parseval_orthogonal_states", cross.lhs, 0.0,
                           abs(cross.lhs), abs(cross.lhs) <= ORTHO_TOL))
    rows.append(CaseResult("isometry_number_1_1", rep11.lhs, rep11.rhs,
                           rep11.rel_error, rep11.rel_error <= THEOREM_TOL))
    return rows


def _suite_constants(s: VerifySettings) -> list:
    w = s.wavelet()
    values = constant_scan(SCAN_STATES, w, SCAN_SCALES, s.grid(), engine=s.engine)
    target = c_psi_prime(w)
    rows = []
    for descriptor, value in zip(SCAN_STATES, values):
        rel = abs(value - target) / max(abs(target), _REL_FLOOR)
        ok = WINDOW_LO <= value <= WINDOW_HI
        rows.append(CaseResult(f"constant[{descriptor}]", value, target, rel, ok))
    ratio = max(values) / min(values)
    rows.append(CaseResult("constant_max_min_ratio", ratio, 1.0, ratio - 1.0,
                           ratio <= RATIO_MAX))
    return rows


def _suite_kernel(s: VerifySettings) -> list:
    w = s.wavelet()
    coarse, fine = KERNEL_GRIDS
    k_coarse = reproducing_kernel(0.0, 0.0, w, _kernel_scales(coarse), coarse)
    k_fine = reproducing_kernel(0.0, 0.0, w, _kernel_scales(fine), fine)
    k_sep = reproducing_kernel(0.0, KERNEL_SEPARATION, w, _kernel_scales(coarse), coarse)
    rows = [
        CaseResult("kernel_separation_fraction", k_sep, k_coarse,
                   abs(k_sep) / abs(k_coarse),
                   abs(k_sep) <= KERNEL_SEP_FRAC * abs(k_coarse)),
        CaseResult("kernel_coincident_growth", k_fine, k_coarse,
                   abs(k_fine) / abs(k_coarse),
                   abs(k_fine) >= KERNEL_GROWTH_MIN * abs(k_coarse)),
    ]
    return rows


def _suite_oracles(s: VerifySettings) -> list:
    rng = np.random.default_rng(s.seed)
    rows = []
    for n in range(IDENTITY_MAX_ORDER + 1):
        worst = (0.0, 0.0, 0.0)
        for _ in range(20):
            eta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 2.1
            lhs = (-1) ** n * hermite2(n, n, eta, np.conj(eta))
            rhs = math.factorial(n) * laguerre(n, abs(eta) ** 2)
            rel = abs(lhs - rhs) / max(abs(rhs), _REL_FLOOR)
            if rel >= worst[2]:
                worst = (lhs, rhs, rel)
        rows.append(CaseResult(f"hermite_laguerre_diag[n={n}]", worst[0], worst[1],
                               worst[2], worst[2] <= IDENTITY_TOL))
    for k in range(ORACLE_DRAWS):
        zeta = complex(rng.uniform(-2.0, -0.8), rng.uniform(-0.4, 0.4))
        xi = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        eta_c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        closed = oracle_gaussian_integral(zeta, xi, eta_c)
        numeric = oracle_gaussian_integral_quadrature(zeta, xi, eta_c)
        err = abs(numeric - closed) / max(abs(closed), 1.0)
        rows.append(CaseResult(f"gaussian_integral[{k}]", numeric, closed, err,
                               err <= ORACLE_TOL))
    for k in range(ORACLE_DRAWS):
        x = rng.uniform(0.3, 2.5)
        y = rng.uniform(0.3, 2.5)
        closed = oracle_scale_integral(x, y)
        numeric = oracle_scale_integral_quadrature(x, y)
        err = abs(numeric - closed) / max(abs(closed), 1.0)
        rows.append(CaseResult(f"scale_integral[{k}]", numeric, closed, err,
                               err <= ORACLE_TOL))
    return rows


_SUITES = {
    "parseval": _suite_parseval,
    "constants": _suite_constants,
    "kernel": _suite_kernel,
    "oracles": _suite_oracles,
}


def run_suite(name: str, settings: VerifySettings | None = None) -> list:
    """Run a named suite; ``all`` chains every suite in a fixed order."""
    if settings is None:
        settings = VerifySettings()
    if name == "all":
        rows = []
        for key in ("oracles", "parseval", "constants", "kernel"):
            rows.extend(_SUITES[key](settings))
        return rows
    try:
        suite = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return suite(settings)


def format_table(rows) -> str:
    """Fixed-width report table, one line per case."""
    width = max(len(r.case) for r in rows) if rows else 4
    lines = [f"{'case':<{width}}  {'lhs':>24}  {'rhs':>24}  {'metric':>12}  result"]
    for r in rows:
        lhs = complex(r.lhs)
        rhs = complex(r.rhs)
        lines.append(
            f"{r.case:<{width}}  {lhs.real:>11.6g}{lhs.imag:>+11.4g}j  "
            f"{rhs.real:>11.6g}{rhs.imag:>+11.4g}j  "
            f"{r.rel_error:>12.4e}  {'PASS' if r.passed else 'FAIL'}"
        )
    return "\n".join(lines)


def write_report_csv(rows, path: str) -> None:
    """CSV report: case,lhs_re,lhs_im,rhs_re,rhs_im,rel_error.

    Case names such as ``constant[number:1,1]`` hold commas, so they are
    quoted; the numbers are written as ``repr`` of each float.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["case", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "rel_error"])
    for r in rows:
        lhs = complex(r.lhs)
        rhs = complex(r.rhs)
        writer.writerow([r.case] + [repr(v) for v in
                                    (lhs.real, lhs.imag, rhs.real, rhs.imag, r.rel_error)])
    _atomic_write(path, [out.getvalue().encode()])
