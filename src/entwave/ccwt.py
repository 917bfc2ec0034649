"""Forward and inverse transforms.

The forward transform W(mu, kappa) = (1/mu) int d2eta/pi g(eta)
psi*((eta - kappa)/mu) is, per scale, a 2D cross-correlation of the field
with the dilated wavelet.  Two engines compute the identical Riemann sum
on the field's grid: ``forward`` contracts the sampled lag kernel directly
(BLAS row blocks), ``forward_fast`` uses zero-padded FFTs.  The FFT path
builds each scale's kernel spectrum from 1D DFTs of orthonormal Hermite
functions, since every radial wavelet is a short sum of products
h_2a(x) h_2b(y), and inverse-transforms only the retained n x n block.
The inverse integrates dmu/mu^4 of per-scale correlations with the
(unconjugated) wavelet; on the coefficients' own grid it sums the
per-scale products in the Fourier domain and takes one inverse FFT.  A 1D
transform pair over the real line is included as a baseline, with
per-scale translation grids sized to the dilated wavelet.
"""

from __future__ import annotations

import math
import os
import struct
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.fft import fft, ifft, next_fast_len

from .errors import BoundaryDecayError, FileFormatError
from .grid import (
    ComplexPlaneGrid,
    Field,
    ScaleGrid,
    log_trapezoid_weights,
    scale_weights,
    _atomic_write,
    _parse_ewg1_header,
    _EWG1_HEADER,
    EWG1_MAGIC,
)
from .wavelets import MotherWavelet, _require_radial, eval_wavelet, require_admissible

#: Largest boundary magnitude accepted for fields entering the transforms.
TRANSFORM_BOUNDARY_TOL = 1e-8

EWC1_MAGIC = b"EWC1"


@dataclass(frozen=True)
class CCWTCoefficients:
    """W(mu, kappa) planes over a shared translation grid."""

    scales: ScaleGrid
    kappa_grid: ComplexPlaneGrid
    values: np.ndarray  # (n_scales, nx, ny) complex

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        expected = (len(self.scales), self.kappa_grid.nx, self.kappa_grid.ny)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape}, expected {expected}")
        if not np.all(np.isfinite(vals.view(float))):
            raise ValueError("coefficients contain non-finite values")
        object.__setattr__(self, "values", vals)

    def plane(self, index: int) -> Field:
        return Field(self.kappa_grid, self.values[index])


def worker_count(n_tasks: int) -> int:
    """Thread budget for per-scale work, capped by ENTWAVE_THREADS."""
    cap = os.environ.get("ENTWAVE_THREADS")
    limit = os.cpu_count() or 1
    if cap is not None:
        try:
            limit = max(1, int(cap))
        except ValueError:
            raise ValueError(f"ENTWAVE_THREADS must be an integer, got {cap!r}")
    return max(1, min(limit, n_tasks))


def _imap_scales(fn, n_scales: int):
    """Yield fn(0), fn(1), ... in scale order, computed on worker threads.

    At most two scales per worker are in flight, so the caller holds a
    bounded number of results; consuming them in order keeps every
    reduction independent of the schedule and of ENTWAVE_THREADS.
    """
    workers = worker_count(n_scales)
    if workers == 1:
        yield from map(fn, range(n_scales))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for s in range(n_scales):
            pending.append(pool.submit(fn, s))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _check_transform_input(g: Field, w: MotherWavelet) -> None:
    require_admissible(w)
    bmax = g.boundary_max()
    if bmax > TRANSFORM_BOUNDARY_TOL:
        raise BoundaryDecayError(
            f"field boundary magnitude {bmax:.3e} exceeds "
            f"{TRANSFORM_BOUNDARY_TOL:.1e}; widen the grid"
        )


def _lag_kernel(w: MotherWavelet, mu: float, grid: ComplexPlaneGrid) -> np.ndarray:
    """Dilated wavelet sampled analytically on the (2nx-1, 2ny-1) lag grid."""
    lx = np.arange(-(grid.nx - 1), grid.nx) * grid.dx
    ly = np.arange(-(grid.ny - 1), grid.ny) * grid.dy
    lag = (lx[:, None] + 1j * ly[None, :]) / mu
    return eval_wavelet(w, lag).real  # radial family is real-valued


def _toeplitz_rows(kernel: np.ndarray, ny: int) -> np.ndarray:
    """View T[d, b, j] = kernel[d, b - j + ny - 1] without copying."""
    s0, s1 = kernel.strides
    base = kernel[:, ny - 1:]
    return as_strided(base, shape=(kernel.shape[0], ny, ny), strides=(s0, s1, -s1))


def _correlate_direct(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """out[i, j] = sum_{a, b} values[a, b] kernel[a - i + nx - 1, b - j + ny - 1].

    Row-shift loop: for each row lag the inner sum is a Toeplitz matrix
    product, evaluated in real arithmetic (the kernel is real).
    """
    nx, ny = values.shape
    toe = _toeplitz_rows(kernel, ny)
    re = np.ascontiguousarray(values.real)
    im = np.ascontiguousarray(values.imag)
    out_re = np.zeros((nx, ny))
    out_im = np.zeros((nx, ny))
    for d in range(-(nx - 1), nx):
        i_lo = max(0, -d)
        i_hi = min(nx - 1, nx - 1 - d)
        rows = slice(i_lo + d, i_hi + d + 1)
        block = np.ascontiguousarray(toe[d + nx - 1])
        out_re[i_lo:i_hi + 1] += re[rows] @ block
        out_im[i_lo:i_hi + 1] += im[rows] @ block
    return out_re + 1j * out_im


# ---------------------------------------------------------------------------
# FFT engine: separable Hermite spectrum of the lag kernel
# ---------------------------------------------------------------------------


def _separable_coeffs(w: MotherWavelet) -> np.ndarray:
    """M with psi(x + iy) = sum_{a,b} M[a, b] h_{2a}(x) h_{2b}(y).

    From L_n(x^2 + y^2) = (-1)^n / (4^n n!) sum_m C(n, m) H_{2m}(x) H_{2n-2m}(y)
    and e^{-x^2/2} H_k(x) = sqrt(2^k k! sqrt(pi)) h_k(x).  The orthonormal
    Hermite functions stay bounded at every order; an expansion in
    monomials x^{2a} e^{-x^2/2} cancels catastrophically instead (errors
    near 1e-3 at order 32).
    """
    _require_radial(w, "the FFT engine")
    m = np.zeros((w.order, w.order))
    for n, k_n in enumerate(w.coeffs):
        for a in range(n + 1):
            b = n - a
            root = math.sqrt(math.factorial(2 * a) * math.factorial(2 * b))
            m[a, b] = k_n * (-1) ** n * math.sqrt(math.pi) * 2.0 ** -n * math.comb(n, a) * root
    return m


def _hermite_functions(x: np.ndarray, count: int) -> np.ndarray:
    """Orthonormal Hermite functions h_0 .. h_{count-1} at ``x``, shape (count, len(x)).

    h_{k+1} = sqrt(2/(k+1)) x h_k - sqrt(k/(k+1)) h_{k-1}, h_0 = pi^{-1/4} e^{-x^2/2}.
    """
    h = np.empty((count, x.size))
    h[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if count > 1:
        h[1] = math.sqrt(2.0) * x * h[0]
    for k in range(1, count - 1):
        h[k + 1] = math.sqrt(2.0 / (k + 1)) * x * h[k] - math.sqrt(k / (k + 1)) * h[k - 1]
    return h


def _axis_spectra(terms: int, n: int, step: float, p: int) -> np.ndarray:
    """Length-p DFTs of h_0, h_2, ..., h_{2 terms - 2} sampled at lags l * step.

    Lag l sits at index l mod p, as in the zero-padded circular product;
    the samples are even in l, so each DFT is real.
    """
    h = _hermite_functions(np.arange(n) * step, 2 * terms - 1)[::2]
    seq = np.zeros((terms, p))
    seq[:, :n] = h
    seq[:, p - n + 1:] = h[:, :0:-1]
    return fft(seq, axis=1).real


def _kernel_spectrum(m: np.ndarray, mu: float, grid: ComplexPlaneGrid,
                     shape: tuple) -> np.ndarray:
    """Real (px, py) DFT of the padded lag kernel sum_ab m[a, b] h_2a(x/mu) h_2b(y/mu)."""
    px, py = shape
    u = _axis_spectra(len(m), grid.nx, grid.dx / mu, px)
    v = _axis_spectra(len(m), grid.ny, grid.dy / mu, py)
    return (u.T @ m) @ v


def _padded_shape(grid: ComplexPlaneGrid) -> tuple:
    # With P >= 2n - 1 per axis the circular product holds the full linear
    # correlation, and its leading n x n block is the one retained.
    return next_fast_len(2 * grid.nx - 1), next_fast_len(2 * grid.ny - 1)


def _padded_fft2(values: np.ndarray, shape: tuple) -> np.ndarray:
    """fft2 of ``values`` zero-padded to ``shape``, skipping the all-zero rows."""
    px, py = shape
    return fft(fft(values, n=py, axis=1), n=px, axis=0, overwrite_x=True)


def _cropped_ifft2(spectrum: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """Leading (nx, ny) block of ifft2(spectrum); overwrites ``spectrum``.

    Transforms along y first, so only the ny columns kept go through the
    transform along x.
    """
    rows = ifft(spectrum, axis=1, overwrite_x=True)[:, :ny]
    return ifft(rows, axis=0, overwrite_x=True)[:nx]


def _forward_planes(g: Field, w: MotherWavelet, scales: ScaleGrid, fast: bool):
    """Iterator over the forward planes W(mu_s, .) in scale order.

    The field is checked and, for the FFT engine, transformed up front;
    the planes are computed by ``_imap_scales``, so a caller that reduces
    them one at a time never holds the (S, nx, ny) cube.
    """
    _check_transform_input(g, w)
    grid = g.grid
    masked = g.values * grid.trapezoid_mask()
    mu = scales.mu_values
    if fast:
        shape = _padded_shape(grid)
        f_values = _padded_fft2(masked, shape)
        m = _separable_coeffs(w)

        def one_scale(s: int) -> np.ndarray:
            measure = grid.cell_area() / (np.pi * mu[s])
            khat = _kernel_spectrum(m * measure, mu[s], grid, shape)
            return _cropped_ifft2(f_values * khat, grid.nx, grid.ny)

    else:

        def one_scale(s: int) -> np.ndarray:
            kernel = _lag_kernel(w, mu[s], grid)
            plane = _correlate_direct(masked, kernel)
            return plane * (grid.cell_area() / (np.pi * mu[s]))

    return _imap_scales(one_scale, len(mu))


def _forward_engine(g: Field, w: MotherWavelet, scales: ScaleGrid,
                    fast: bool) -> CCWTCoefficients:
    planes = _forward_planes(g, w, scales, fast)
    out = np.empty((len(scales), g.grid.nx, g.grid.ny), dtype=complex)
    for s, plane in enumerate(planes):
        out[s] = plane
    return CCWTCoefficients(scales, g.grid, out)


def forward(g: Field, w: MotherWavelet, scales: ScaleGrid) -> CCWTCoefficients:
    """Forward transform by direct quadrature on the field's grid.

    W(mu, kappa) = (1/mu) int d2eta/pi g(eta) psi*((eta - kappa)/mu) for
    every kappa node; the translation grid is the field's grid.
    """
    return _forward_engine(g, w, scales, fast=False)


def forward_fast(g: Field, w: MotherWavelet, scales: ScaleGrid) -> CCWTCoefficients:
    """Forward transform via zero-padded FFT cross-correlation per scale.

    Contract identical to :func:`forward`; the two engines evaluate the
    same quadrature sum and agree to rounding.  The kernel's spectrum is
    built from 1D Hermite-function spectra, never sampled on the lag grid.
    """
    return _forward_engine(g, w, scales, fast=True)


def inverse(coeffs: CCWTCoefficients, w: MotherWavelet, c_prime: float,
            out_grid: ComplexPlaneGrid | None = None) -> Field:
    """Inverse transform onto ``out_grid`` (defaults to the kappa grid).

    g(eta) = (1/C'_psi) int_0^inf dmu/mu^3 int d2kappa/(pi mu)
             W(mu, kappa) psi((eta - kappa)/mu)
    over the truncated scale range and the translation grid.  On the
    kappa grid's own layout the scale sum is taken in the Fourier domain,
    so one inverse FFT serves every scale.
    """
    if not np.isfinite(c_prime) or c_prime <= 0:
        raise ValueError(f"c_prime must be positive and finite, got {c_prime}")
    kgrid = coeffs.kappa_grid
    if out_grid is None:
        out_grid = kgrid
    mu = coeffs.scales.mu_values
    weights = scale_weights(coeffs.scales, 4)
    mask = kgrid.trapezoid_mask()
    shared = out_grid.same_layout(kgrid)
    if shared:
        shape = _padded_shape(kgrid)
        m = _separable_coeffs(w)

        def one_scale(s: int) -> np.ndarray:
            khat = _kernel_spectrum(m * weights[s], mu[s], kgrid, shape)
            spectrum = _padded_fft2(coeffs.values[s] * mask, shape)
            spectrum *= khat
            return spectrum

    else:
        kappa = kgrid.nodes().ravel()
        eta_rows = out_grid.nodes()

        def one_scale(s: int) -> np.ndarray:
            wm = (coeffs.values[s] * mask).ravel()
            plane = np.empty((out_grid.nx, out_grid.ny), dtype=complex)
            for i in range(out_grid.nx):
                shifted = (eta_rows[i][:, None] - kappa[None, :]) / mu[s]
                plane[i] = eval_wavelet(w, shifted) @ wm
            plane *= weights[s]
            return plane

    parts = _imap_scales(one_scale, len(mu))
    total = next(parts)
    for part in parts:
        total += part
    if shared:
        total = _cropped_ifft2(total, out_grid.nx, out_grid.ny)
    return Field(out_grid, total * (kgrid.cell_area() / (np.pi * c_prime)))


# ---------------------------------------------------------------------------
# 1D baseline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signal1D:
    """Uniformly sampled signal on the real line."""

    samples: np.ndarray
    x0: float
    dx: float

    def __post_init__(self):
        vals = np.asarray(self.samples, dtype=complex)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("signal needs a 1D array of at least 2 samples")
        if self.dx <= 0:
            raise ValueError("sample spacing must be positive")
        if not np.all(np.isfinite(vals.view(float))):
            raise ValueError("signal contains non-finite values")
        object.__setattr__(self, "samples", vals)

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(len(self.samples))


def _trap_mask_1d(n: int) -> np.ndarray:
    m = np.ones(n)
    m[0] = m[-1] = 0.5
    return m


def cwt1d(f: Signal1D, psi, mu: float, s: float) -> complex:
    """1D wavelet coefficient (1/sqrt(mu)) int f(x) psi*((x - s)/mu) dx."""
    if mu <= 0:
        raise ValueError(f"scale must be positive, got {mu}")
    kernel = np.conj(psi((f.x - s) / mu))
    total = np.sum(_trap_mask_1d(len(f.samples)) * f.samples * kernel)
    return complex(total * f.dx / math.sqrt(mu))


@dataclass(frozen=True)
class Cwt1dCoefficients:
    """W(mu, s) rows on per-scale translation grids."""

    scales: ScaleGrid
    s_starts: tuple
    s_steps: tuple
    rows: tuple  # per-scale 1D complex arrays

    def row_positions(self, index: int) -> np.ndarray:
        return self.s_starts[index] + self.s_steps[index] * np.arange(
            len(self.rows[index])
        )


def cwt1d_grid(f: Signal1D, psi, scales: ScaleGrid, *, halfwidth: float = 7.0,
               oversample: float = 6.0) -> Cwt1dCoefficients:
    """Forward 1D transform on translation grids sized per scale.

    At scale mu the dilated wavelet spans ~ halfwidth * mu beyond the
    signal; the translation step grows with mu once the correlation is
    wavelet-smoothness limited.
    """
    starts = []
    steps = []
    rows = []
    x_lo = f.x0
    x_hi = f.x0 + f.dx * (len(f.samples) - 1)
    mask = _trap_mask_1d(len(f.samples)) * f.dx
    for mu in scales.mu_values:
        pad = halfwidth * mu
        ds = max(f.dx, mu / oversample)
        n_s = int(math.ceil((x_hi - x_lo + 2 * pad) / ds)) + 1
        s_vals = (x_lo - pad) + ds * np.arange(n_s)
        kernel = np.conj(psi((f.x[None, :] - s_vals[:, None]) / mu))
        rows.append((kernel @ (mask * f.samples)) / math.sqrt(mu))
        starts.append(x_lo - pad)
        steps.append(ds)
    return Cwt1dCoefficients(scales, tuple(starts), tuple(steps), tuple(rows))


def icwt1d(coeffs: Cwt1dCoefficients, psi, c_psi: float, x_grid) -> Signal1D:
    """Inverse 1D transform onto ``x_grid`` = (x0, dx, n).

    f(x) = (1/C_psi) int_0^inf dmu/mu^2 int W(mu, s) psi((x - s)/mu)
           ds/sqrt(mu)
    over the truncated scale and translation windows.
    """
    if not np.isfinite(c_psi) or c_psi <= 0:
        raise ValueError(f"c_psi must be positive and finite, got {c_psi}")
    x0, dx, n = x_grid
    x = x0 + dx * np.arange(n)
    mu = coeffs.scales.mu_values
    weights = log_trapezoid_weights(mu, 2.0) / np.sqrt(mu)
    out = np.zeros(n, dtype=complex)
    for s_idx in range(len(mu)):
        row = coeffs.rows[s_idx]
        s_vals = coeffs.row_positions(s_idx)
        kernel = psi((x[:, None] - s_vals[None, :]) / mu[s_idx])
        w_row = _trap_mask_1d(len(row)) * coeffs.s_steps[s_idx] * row
        out += weights[s_idx] * (kernel @ w_row)
    return Signal1D(out / c_psi, x0, dx)


# ---------------------------------------------------------------------------
# EWC1 coefficient files
# ---------------------------------------------------------------------------


def write_coefficients_ewc1(coeffs: CCWTCoefficients, path: str) -> None:
    """Write coefficients in the EWC1 binary format."""
    g = coeffs.kappa_grid
    mu = coeffs.scales.mu_values
    _atomic_write(
        path,
        EWC1_MAGIC,
        struct.pack("<I", len(mu)),
        mu.astype("<f8"),
        _EWG1_HEADER.pack(EWG1_MAGIC, g.nx, g.ny, g.x_min, g.y_min, g.dx, g.dy),
        np.ascontiguousarray(coeffs.values, dtype="<c16"),
    )


def read_coefficients_ewc1(path: str) -> CCWTCoefficients:
    """Read coefficients from the EWC1 binary format."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if len(head) < 8:
            raise FileFormatError(f"{path}: truncated EWC1 header")
        if head[:4] != EWC1_MAGIC:
            raise FileFormatError(
                f"{path}: bad magic {head[:4]!r}, expected {EWC1_MAGIC!r}"
            )
        (n_scales,) = struct.unpack_from("<I", head, 4)
        offset = 8 + 8 * n_scales
        if size < offset:
            raise FileFormatError(f"{path}: truncated scale table")
        mu = np.frombuffer(fh.read(8 * n_scales), dtype="<f8").astype(float)
        try:
            scales = ScaleGrid(mu)
        except ValueError as exc:
            raise FileFormatError(f"{path}: invalid scale table ({exc})")
        grid, end = _parse_ewg1_header(fh.read(_EWG1_HEADER.size), 0, path)
        offset += end
        count = n_scales * grid.nx * grid.ny
        if size - offset < count * 16:
            raise FileFormatError(
                f"{path}: truncated planes ({size - offset} of {count * 16} bytes)"
            )
        vals = np.fromfile(fh, dtype="<c16", count=count)
    try:
        return CCWTCoefficients(scales, grid, vals.reshape(n_scales, grid.nx, grid.ny))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}")
