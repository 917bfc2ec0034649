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
per-scale products in the Fourier domain and takes one inverse FFT, and
onto any other grid each scale is the separable contraction
sum_ab M_ab X_a V Y_b^T over per-axis Hermite matrices.  Both directions
work one scale plane at a time on the process's one worker pool: one
``_forward_planes`` call serves a list of fields with one table of axis
spectra and one kernel per scale, two real fields sharing one complex
transform, and its planes can be streamed into an EWC1 file as they are
produced; the inverse reads each plane inside its per-scale task, so
neither needs the (S, nx, ny) cube.  A 1D transform pair over the real
line is included as a baseline, with per-scale translation grids sized
to the dilated wavelet.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
import os
import struct
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from numpy.fft import fft, ifft, rfft

from .errors import BoundaryDecayError, FileFormatError
from .grid import (
    ComplexPlaneGrid,
    Field,
    ScaleGrid,
    scale_weights,
    _atomic_write,
    _parse_ewg1_header,
    _EWG1_HEADER,
    _trap_mask_1d,
    EWG1_MAGIC,
)
from .wavelets import MotherWavelet, c_psi_prime, eval_wavelet, is_admissible, require_admissible

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
        _require_finite(vals)
        object.__setattr__(self, "values", vals)


def _require_finite(values: np.ndarray) -> np.ndarray:
    """``values`` (contiguous complex) unchanged, or ValueError on inf/NaN."""
    if not np.all(np.isfinite(values.view(float))):
        raise ValueError("coefficients contain non-finite values")
    return values


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


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of ``workers`` threads, made on first use and anew after a fork."""
    return ThreadPoolExecutor(max_workers=workers)


os.register_at_fork(after_in_child=_pool.cache_clear)


def _imap_scales(fn, n_scales: int):
    """Yield fn(0), fn(1), ... in scale order, computed on worker threads.

    At most two scales per worker are in flight, so the caller holds a
    bounded number of results; consuming them in order keeps every
    reduction independent of the schedule and of ENTWAVE_THREADS.  Tasks
    run in a copy of the caller's context; closing early cancels those not started.
    """
    workers = worker_count(n_scales)
    if workers == 1:
        yield from map(fn, range(n_scales))
        return
    pool = _pool(workers)
    pending = deque()
    try:
        for s in range(n_scales):
            pending.append(pool.submit(contextvars.copy_context().run, fn, s))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


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
    return eval_wavelet(w, lag)


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
    m = np.zeros((w.order, w.order))
    for n, k_n in enumerate(w.coeffs):
        for a in range(n + 1):
            b = n - a
            root = math.sqrt(math.factorial(2 * a) * math.factorial(2 * b))
            m[a, b] = k_n * (-1) ** n * math.sqrt(math.pi) * 2.0 ** -n * math.comb(n, a) * root
    return m


def _hermite_functions(x: np.ndarray, count: int) -> np.ndarray:
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


def _axis_hermite(dst, src: np.ndarray, mu: float, terms: int) -> np.ndarray:
    """X[a, i, k] = h_2a((dst_i - src_k)/mu) for a < terms, shape (terms, len(dst), len(src))."""
    lag = (np.asarray(dst, dtype=float)[:, None] - src[None, :]) / mu
    return _hermite_functions(lag, 2 * terms - 1)[::2]


def _separable_correlate(values, w: MotherWavelet, mu: float, src_axes, dst_axes) -> np.ndarray:
    """out[i, j] = sum_kl values[k, l] psi((x'_i - x_k)/mu + i (y'_j - y_l)/mu).

    ``values`` sits on the axes (x, y) = ``src_axes``, ``out`` on (x', y') =
    ``dst_axes``; the sum is sum_ab M_ab X_a V Y_b^T (:func:`_axis_hermite`).
    """
    m = _separable_coeffs(w)
    x = _axis_hermite(dst_axes[0], src_axes[0], mu, len(m))
    y = _axis_hermite(dst_axes[1], src_axes[1], mu, len(m))
    xv = np.tensordot(m, x, axes=(0, 0)) @ values  # sum_a M_ab X_a V, shape (b, i, l)
    return np.tensordot(xv, y, axes=([0, 2], [0, 2]))


def _axis_spectra(terms: int, n: int, steps, p: int) -> np.ndarray:
    """Length-p DFTs of h_0, h_2, ..., h_{2 terms - 2} at lags l * step, for every step.

    Shape (*steps.shape, terms, p), from one recurrence and one ``rfft``.
    Lag l sits at index l mod p, as in the zero-padded circular product;
    the samples are even in l, so each DFT is real.
    """
    lags = np.multiply.outer(steps, np.arange(n))
    h = np.moveaxis(_hermite_functions(lags, 2 * terms - 1)[::2], 0, -2)
    seq = np.zeros((*h.shape[:-1], p))
    seq[..., :n] = h
    seq[..., p - n + 1:] = h[..., :0:-1]
    # The DFT of a real even sequence is real and even: bins past p // 2
    # mirror those below it.
    half = rfft(seq, axis=-1).real
    return np.concatenate([half, half[..., (p - 1) // 2:0:-1]], axis=-1)


def _kernel_spectrum(m: np.ndarray, mu: np.ndarray, grid: ComplexPlaneGrid, shape: tuple):
    """``kernel(s, c)``: real (px, py) DFT of the padded lag kernel of ``c * m`` at mu[s].

    Every scale's axis tables are made here, once; one serves both axes when they match.
    """
    px, py = shape
    u = _axis_spectra(len(m), grid.nx, grid.dx / mu, px)
    v = (u if (grid.nx, grid.dx) == (grid.ny, grid.dy)
         else _axis_spectra(len(m), grid.ny, grid.dy / mu, py))
    return lambda s, c: (u[s].T @ (m * c)) @ v[s]


def _next_fast_len(target: int) -> int:
    """Smallest n >= target with no prime factor above 11, a fast pocketfft length."""
    n = target
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _padded_shape(grid: ComplexPlaneGrid) -> tuple:
    # With P >= 2n - 1 per axis the circular product holds the full linear
    # correlation, and its leading n x n block is the one retained.
    return _next_fast_len(2 * grid.nx - 1), _next_fast_len(2 * grid.ny - 1)


def _padded_fft2(values: np.ndarray, shape: tuple) -> np.ndarray:
    """fft2 of ``values`` zero-padded to ``shape``, skipping the all-zero rows.

    Both passes run in place in the one padded buffer; padding with
    ``n=`` would allocate a new array per pass.
    """
    nx, ny = values.shape
    buf = np.zeros(shape, dtype=complex)
    buf[:nx, :ny] = values
    fft(buf[:nx], axis=1, out=buf[:nx])
    return fft(buf, axis=0, out=buf)


def _cropped_ifft2(spectrum: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """Leading (nx, ny) block of ifft2(spectrum); overwrites ``spectrum``.

    Transforms along y first, so only the ny columns kept go through the
    transform along x.  The block is returned as its own contiguous
    array: a view would keep the whole (px, py) buffer alive.
    """
    ifft(spectrum, axis=1, out=spectrum)
    rows = spectrum[:, :ny]
    return ifft(rows, axis=0, out=rows)[:nx].copy()


def _forward_planes(fields, w: MotherWavelet, scales: ScaleGrid, fast: bool):
    """Per scale in order, the list of forward planes W(mu_s, .) of ``fields``.

    The fields must share one grid, and each is checked up front.  The
    kernel is real, so W(a + ib) = W(a) + i W(b) for real fields a and b:
    the real fields are paired up in order, and each pair is one complex
    input whose plane's 2 Re and 2 Im are the two planes.  The pair is
    packed at half amplitude, an exact scaling, so the packed field passes
    the boundary check whenever both fields do.  Complex fields and a
    leftover real field, such as a lone one, go in alone.  For the FFT
    engine the inputs and the axis spectra are transformed up front.  One
    ``_imap_scales`` task per scale builds the kernel once, applies it to
    every input and unpacks the pairs, and a caller that reduces the
    planes a scale at a time never holds an (S, nx, ny) cube.
    """
    grid = fields[0].grid
    if not all(grid.same_layout(g.grid) for g in fields[1:]):
        raise ValueError("fields must share a grid")
    for g in fields:
        _check_transform_input(g, w)
    real = [i for i, g in enumerate(fields) if not g.values.imag.any()]
    pairs = list(zip(real[0::2], real[1::2]))
    alone = [i for i in range(len(fields)) if i not in real[:2 * len(pairs)]]
    inputs = [0.5 * (fields[i].values.real + 1j * fields[j].values.real) for i, j in pairs]
    inputs += [fields[i].values for i in alone]
    masked = [v * grid.trapezoid_mask() for v in inputs]
    mu = scales.mu_values
    measure = grid.cell_area() / (np.pi * mu)
    if fast:
        shape = _padded_shape(grid)
        f_values = [_padded_fft2(v, shape) for v in masked]
        kernel = _kernel_spectrum(_separable_coeffs(w), mu, grid, shape)

        def transform(s: int) -> list:
            khat = kernel(s, measure[s])
            return [_cropped_ifft2(f * khat, grid.nx, grid.ny) for f in f_values]

    else:

        def transform(s: int) -> list:
            kernel = _lag_kernel(w, mu[s], grid)
            return [_correlate_direct(v, kernel) * measure[s] for v in masked]

    def one_scale(s: int) -> list:
        planes = transform(s)
        out = [None] * len(fields)
        for (i, j), plane in zip(pairs, planes):
            out[i], out[j] = 2 * plane.real, 2 * plane.imag
        for i, plane in zip(alone, planes[len(pairs):]):
            out[i] = plane
        return out

    return _imap_scales(one_scale, len(mu))


def _forward_engine(g: Field, w: MotherWavelet, scales: ScaleGrid,
                    fast: bool) -> CCWTCoefficients:
    planes = _forward_planes([g], w, scales, fast)
    out = np.empty((len(scales), g.grid.nx, g.grid.ny), dtype=complex)
    for s, (plane,) in enumerate(planes):
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


def _is_fft_engine(engine: str) -> bool:
    """True for ``fft``, False for ``direct``; any other name is an error."""
    if engine not in ("direct", "fft"):
        raise ValueError(f"unknown engine {engine!r}; choose direct or fft")
    return engine == "fft"


@dataclass
class RunConfig:
    """Run parameters of a transform: grid, scale range, engine and wavelet.

    The ``ccwt`` and ``fock`` commands read it as is; the verify suites
    extend it with their own settings.
    """

    grid_n: int = 256
    grid_extent: float = 8.0
    scale_count: int = 64
    mu_min: float = 0.25
    mu_max: float = 4.0
    engine: str = "fft"
    wavelet_kind: str = "emhw"
    wavelet_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        # Build everything up front, C'_psi too, so bad parameters fail before work starts.
        self.grid()
        self.scales()
        w = self.wavelet()
        if is_admissible(w):
            c_psi_prime(w)
        _is_fft_engine(self.engine)

    def grid(self) -> ComplexPlaneGrid:
        return ComplexPlaneGrid.centered(self.grid_n, self.grid_extent)

    def scales(self) -> ScaleGrid:
        return ScaleGrid.log_spaced(self.scale_count, self.mu_min, self.mu_max)

    def wavelet(self) -> MotherWavelet:
        return MotherWavelet.from_spec(self.wavelet_kind, self.wavelet_coeffs)


def inverse(coeffs: CCWTCoefficients, w: MotherWavelet, c_prime: float,
            out_grid: ComplexPlaneGrid | None = None) -> Field:
    """Inverse transform onto ``out_grid`` (defaults to the kappa grid).

    g(eta) = (1/C'_psi) int_0^inf dmu/mu^3 int d2kappa/(pi mu)
             W(mu, kappa) psi((eta - kappa)/mu)
    over the truncated scale range and the translation grid.  On the
    kappa grid's own layout the scale sum is taken in the Fourier domain,
    so one inverse FFT serves every scale; onto any other grid each scale
    is a separable contraction (:func:`_separable_correlate`).
    """
    return _inverse_planes(coeffs.values.__getitem__, coeffs.scales, coeffs.kappa_grid,
                           w, c_prime, out_grid)


def _inverse_planes(plane, scales: ScaleGrid, kgrid: ComplexPlaneGrid, w: MotherWavelet,
                    c_prime: float, out_grid: ComplexPlaneGrid | None = None) -> Field:
    """The scale reduction of :func:`inverse`; ``plane(s)`` gives W(mu_s, .).

    ``plane`` is called inside the per-scale task, in scale order, so a
    getter that reads the plane from a file keeps only the planes in
    flight in memory.
    """
    if not np.isfinite(c_prime) or c_prime <= 0:
        raise ValueError(f"c_prime must be positive and finite, got {c_prime}")
    if out_grid is None:
        out_grid = kgrid
    mu = scales.mu_values
    weights = scale_weights(scales, 4)
    mask = kgrid.trapezoid_mask()
    shared = out_grid.same_layout(kgrid)
    if shared:
        shape = _padded_shape(kgrid)
        kernel = _kernel_spectrum(_separable_coeffs(w), mu, kgrid, shape)

        def one_scale(s: int) -> np.ndarray:
            # The kernel spectrum is made after the padded FFT, so the two
            # largest temporaries are never alive at once.
            spectrum = _padded_fft2(plane(s) * mask, shape)
            spectrum *= kernel(s, weights[s])
            return spectrum

    else:
        axes = (kgrid.x, kgrid.y), (out_grid.x, out_grid.y)

        def one_scale(s: int) -> np.ndarray:
            return _separable_correlate(plane(s) * mask, w, mu[s], *axes) * weights[s]

    parts = _imap_scales(one_scale, len(mu))
    total = next(parts)
    for part in parts:
        total += part
        del part  # otherwise held while the next scale is awaited
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
    weights = scale_weights(coeffs.scales, 2) / np.sqrt(mu)
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


def _write_ewc1(path: str, scales: ScaleGrid, grid: ComplexPlaneGrid, planes) -> None:
    """Write an EWC1 file whose planes come from the iterable ``planes``.

    Each plane is checked and written as it arrives, so a generator such
    as :func:`_forward_planes` is never held whole.  A non-finite plane
    raises ValueError and leaves no file behind.
    """
    mu = scales.mu_values
    header = [
        EWC1_MAGIC,
        struct.pack("<I", len(mu)),
        mu.astype("<f8"),
        _EWG1_HEADER.pack(EWG1_MAGIC, grid.nx, grid.ny, grid.x_min, grid.y_min,
                          grid.dx, grid.dy),
    ]
    body = (_require_finite(np.ascontiguousarray(p, dtype="<c16")) for p in planes)
    _atomic_write(path, itertools.chain(header, body))


def write_coefficients_ewc1(coeffs: CCWTCoefficients, path: str) -> None:
    """Write coefficients in the EWC1 binary format."""
    _write_ewc1(path, coeffs.scales, coeffs.kappa_grid, coeffs.values)


@contextlib.contextmanager
def _ewc1_planes(path: str):
    """Open an EWC1 file as ``(scales, grid, plane)``; ``plane(s)`` reads plane s.

    The file size is checked against the header first, so a truncated
    file fails before any plane is read.  Each plane is read with
    ``os.preadv`` at its own offset, so worker threads can read planes
    concurrently, and is checked for finiteness as it is read.  Reading
    into an array, not a bytes object per plane, keeps the allocator from
    returning and re-faulting the pages every scale.  Only the planes
    asked for are ever in memory (a memory map would count every page
    touched toward the resident set).
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if len(head) < 8:
            raise FileFormatError(f"{path}: truncated EWC1 header")
        if head[:4] != EWC1_MAGIC:
            raise FileFormatError(f"{path}: bad magic {head[:4]!r}, expected {EWC1_MAGIC!r}")
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
        nbytes = grid.nx * grid.ny * 16
        if size - offset < n_scales * nbytes:
            raise FileFormatError(
                f"{path}: truncated planes ({size - offset} of {n_scales * nbytes} bytes)"
            )

        def plane(s: int) -> np.ndarray:
            values = np.empty((grid.nx, grid.ny), dtype="<c16")
            if os.preadv(fh.fileno(), [values], offset + s * nbytes) < nbytes:
                raise FileFormatError(f"{path}: truncated plane {s}")
            try:
                return _require_finite(values)
            except ValueError as exc:
                raise FileFormatError(f"{path}: {exc}")

        yield scales, grid, plane


def read_coefficients_ewc1(path: str) -> CCWTCoefficients:
    """Read coefficients from the EWC1 binary format."""
    with _ewc1_planes(path) as (scales, grid, plane):
        values = np.empty((len(scales), grid.nx, grid.ny), dtype=complex)
        for s in range(len(scales)):
            values[s] = plane(s)
    return CCWTCoefficients(scales, grid, values)
