"""Forward and inverse transforms.

The forward transform W(mu, kappa) = (1/mu) int d2eta/pi g(eta)
psi*((eta - kappa)/mu) is, per scale, a 2D cross-correlation of the field
with the dilated wavelet.  ``forward`` contracts the sampled lag kernel
directly (BLAS row blocks), the literal Riemann sum on the field's grid;
``forward_fast`` drops the kernel's lags past its support, where each term
of the kernel is below 2^-60 of its peak, and its frequencies past
t*/mu, where each term's spectrum is.  Every radial wavelet is a short sum
of products h_2a(x) h_2b(y) of Hermite functions, each its own Fourier
transform, so a kernel's spectrum is made from 1D transforms.  Per scale,
both spectral paths take the band of an input's length-P DFT, multiply it
by the kernel's spectrum there and take the product back to the grid; the
scales go in runs that share P, each run one operator (:func:`_runs`).  On
the FFT path a run is the scales of one padded shape, each padded only as
far as its wavelet reaches, and its FFTs skip what is known to be zero; the
widest scales, whose kernels the grid cuts, are matrix DFTs over the band,
R_x^T (K o (R_x V R_y^T)) R_y, and their pairings Gram forms, with no plane
made; an FFT-path run of narrow bands pairs its scales as Gram forms too,
its padded spectra folded into the same cos/sin rows.  A lone real field's
planes are real, so two scales share one complex transform back.  The
inverse integrates dmu/mu^4 of per-scale correlations with the
(unconjugated) wavelet: on the coefficients' own grid it sums each run's
parts in its band and takes the sum back once per run, and onto any other
grid each scale is a separable contraction over per-axis Hermite
matrices.  Both directions go one run at a time, one ``_map_scales`` call
per run, whose worker loops take its scales one at a time in scratch made
once per run; no task outlives its call, and no (S, nx, ny) cube or (px,
py) real kernel spectrum is held.
A 1D transform pair over the real line is included as a baseline, with
per-scale translation grids sized to the dilated wavelet.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
import os
import struct
import threading
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
    _plane_writer,
    _read_planes,
    _require_finite,
    _trap_mask_1d,
)
from .specfun import hermite_functions, separable_correlate
from .wavelets import (MotherWavelet, c_psi_prime, eval_wavelet, is_admissible,
                       require_admissible, separable_coeffs)

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
        object.__setattr__(self, "values", _require_finite(vals, "coefficients"))


def worker_count(n_tasks: int) -> int:
    """Thread budget for per-scale work: the CPUs this process may run on, or ENTWAVE_THREADS.

    ENTWAVE_THREADS must be a positive integer.
    """
    cap = os.environ.get("ENTWAVE_THREADS")
    if hasattr(os, "sched_getaffinity"):
        limit = len(os.sched_getaffinity(0))
    else:
        limit = os.cpu_count() or 1
    if cap is not None:
        try:
            limit = int(cap)
        except ValueError:
            limit = 0
        if limit < 1:
            raise ValueError(f"ENTWAVE_THREADS must be a positive integer, got {cap!r}")
    return max(1, min(limit, n_tasks))


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of ``workers`` threads, made on first use and anew after a fork.

    :func:`_map_scales` asks for one thread fewer than the whole thread
    budget, the calling thread being one, however few loops a call runs,
    so every call shares one pool.
    """
    return ThreadPoolExecutor(max_workers=workers)


os.register_at_fork(after_in_child=_pool.cache_clear)


def _map_scales(worker, n: int, in_order=None) -> list:
    """[task(0), ..., task(n - 1)], or with ``in_order`` [in_order(0, task(0)), ...].

    ``worker_count(n)`` loops share the scales: one on the calling thread,
    the rest on the pool in copies of the caller's context.  Each calls
    ``worker()`` once, which makes its scratch and returns its ``task``,
    then runs the task on the lowest scale not yet taken until none is
    left; it calls ``in_order(s, task(s))`` only after scale s - 1's call
    has returned.  When a task raises, no loop takes another scale and
    waiting loops stop; loops not started are cancelled, and the first
    error is raised once every started loop has returned, so no task
    outlives its call.
    """
    results = [None] * n
    turn = threading.Condition()
    taken = ordered = 0
    error = None

    def loop() -> None:
        nonlocal taken, ordered, error
        try:
            task = worker()
            while True:
                with turn:
                    if error is not None or taken == n:
                        return
                    s, taken = taken, taken + 1
                value = task(s)
                if in_order is not None:
                    with turn:
                        turn.wait_for(lambda: ordered == s or error is not None)
                        if error is not None:
                            return
                    value = in_order(s, value)
                    with turn:
                        ordered += 1
                        turn.notify_all()
                results[s] = value
        except BaseException as exc:  # raised by the calling thread below
            with turn:
                if error is None:
                    error = exc
                turn.notify_all()

    workers = worker_count(n)
    pool = _pool(worker_count(math.inf) - 1) if workers > 1 else None
    futures = [pool.submit(contextvars.copy_context().run, loop) for _ in range(workers - 1)]
    try:
        loop()
    finally:
        for future in futures:
            if not future.cancel():
                future.result()
    if error is not None:
        raise error
    return results


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


def _axis_spectra(terms: int, n: int, steps, p: int) -> np.ndarray:
    """Length-p DFTs of h_0, h_2, ..., h_{2 terms - 2} at lags l * step, for every step.

    Shape (*steps.shape, terms, p), from one recurrence and one ``rfft``.
    Lag l sits at index l mod p, as in the zero-padded circular product;
    only lags below min(n, p - n + 1) are kept, so that no kept lag wraps
    onto the n nodes retained.  The samples are even in l, so each DFT is
    real.
    """
    kept = min(n, p - n + 1)
    lags = np.multiply.outer(steps, np.arange(kept))
    h = np.moveaxis(hermite_functions(lags, 2 * terms - 1)[::2], 0, -2)
    seq = np.zeros((*h.shape[:-1], p))
    seq[..., :kept] = h
    seq[..., p - kept + 1:] = h[..., :0:-1]
    # The DFT of a real even sequence is real and even: bins past p // 2
    # mirror those below it.
    half = rfft(seq, axis=-1).real
    return np.concatenate([half, half[..., (p - 1) // 2:0:-1]], axis=-1)


#: Values in one block of rows, so a real kernel block is 0.5 MiB and a complex
#: product block 1 MiB: 32 rows at P = 2048, all 192 rows in one block at P = 192.
_BLOCK = 1 << 16
# Every block is a whole number of these rows.  BLAS works in tiles of rows, so
# a kernel block that starts on a tile gives each row the bits it has in the
# whole (px, py) product, wherever BLAS picks the same kernel for both calls.
_KERNEL_TILE = 8


def _row_block(shape: tuple) -> tuple:
    """The shape of a block of a (px, py) array's rows: about ``_BLOCK`` values in whole tiles."""
    px, py = shape
    rows = max(_KERNEL_TILE, _BLOCK // py // _KERNEL_TILE * _KERNEL_TILE)
    return min(rows, px), py


def _band_spans(p: int, band, tile: int = 1) -> list:
    """The bins |j| <= band of a length-p axis as [lo, hi) spans; the whole axis for band None.

    The upper span starts on a multiple of ``tile``; when it would reach
    the lower one, the spans merge into the whole axis.
    """
    if band is None:
        return [(0, p)]
    upper = (p - band) // tile * tile
    return [(0, p)] if upper <= band + 1 else [(0, band + 1), (upper, p)]


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


@functools.cache
def _support_radius(terms: int) -> float:
    """t*: past it each of h_0, h_2, ..., h_{2 terms - 2} is below 2^-60 of its peak.

    Found on a 1/256 grid and rounded up to it: 9.67 for two terms (EMHW),
    10.46 for four and 16.56 for 33.
    """
    step = 1 / 256
    x = np.arange(0.0, 2 * math.sqrt(4 * terms) + 12, step)
    h = np.abs(hermite_functions(x, 2 * terms - 1)[::2])
    above = (h >= 2.0 ** -60 * h.max(axis=1, keepdims=True)).any(axis=0)
    return float(x[np.flatnonzero(above)[-1]] + step)


def _padded_lengths(n: int) -> list:
    """An axis's ladder of padded lengths: fast lengths n/4 apart, up to the full one for 2n - 1."""
    return sorted({_next_fast_len(n + math.ceil(k * (n - 1) / 4)) for k in range(1, 5)})


def _padded_shapes(grid: ComplexPlaneGrid, terms: int, mu: np.ndarray) -> list:
    """The padded (px, py) of each scale, from its kernel's reach.

    Past t* mu (:func:`_support_radius`) every term of the lag kernel is
    below 2^-60 of its peak, so on an axis of n nodes and step h any
    length P >= n + t* mu / h keeps the n nodes retained free of
    wrap-around.  Each scale takes the shortest such length of the axis's
    ladder (:func:`_padded_lengths`), whose top is the full length; mu
    ascends, so equal shapes form runs.  Each of a run's k scales saves
    work in proportion to the area it drops per input, and the run costs
    about three transforms of its shape per input: one more whole
    transform (the field's in the forward, the run's sum's in the
    inverse), which the other workers wait out at the run's start or
    end, and the scale in flight there, which it waits out.  So from the
    top down a run keeps its smaller shape only when k (A_above - A) >
    3 A, A being a shape's area; otherwise it joins the run above.  The
    shapes depend only on the grid, the term count and the scales, so a
    field's planes have the same bits whatever else is transformed with
    it.
    """
    reach = _support_radius(terms) * mu

    def lengths(n: int, step: float) -> list:
        ladder = np.array(_padded_lengths(n))
        return ladder[np.minimum(np.searchsorted(ladder - n, reach / step), len(ladder) - 1)]

    need = list(zip(lengths(grid.nx, grid.dx).tolist(), lengths(grid.ny, grid.dy).tolist()))
    shapes = []
    for shape, run in itertools.groupby(reversed(need)):
        k = len(list(run))
        if shapes and k * (math.prod(shapes[-1]) - math.prod(shape)) <= 3 * math.prod(shape):
            shape = shapes[-1]
        shapes += [shape] * k
    return shapes[::-1]


# ---------------------------------------------------------------------------
# Matrix path: grid-cut scales as matrix DFTs over the kernel's band
# ---------------------------------------------------------------------------


def _band_lengths(n: int, step: float, t: float, mu_lo: float, mu_hi: float) -> tuple:
    """``(P, J)`` on an axis of n nodes: the shortest DFT length that holds the kernel of
    mu_hi unwrapped, P >= n + t* mu_hi / step, and the band J of mu_lo at that length.

    A matrix-path run (:func:`_band_runs`) shares the P of its widest scale,
    and each of its scales' bands is that scale's J at it.  Only the band's
    B = 2J + 1 bins are transformed, by matrix products, so P need not be a
    fast length.
    """
    p = n + math.ceil(t * mu_hi / step)
    return p, math.floor(t * p * step / (2 * math.pi * mu_lo))


def _matrix_start(grid: ComplexPlaneGrid, terms: int, mu: np.ndarray, shapes: list) -> int:
    """The first scale of the matrix path (:class:`_BandRun`), len(mu) if none takes it.

    A scale's kernel is cut by the grid on an axis when t* mu / h >=
    min(n, P - n + 1) - 1 at its padded length P (:func:`_padded_shapes`):
    the FFT path can then neither band it nor shorten its padding.  Such a
    scale qualifies when its band at its own :func:`_band_lengths` is at
    most a quarter of each axis, 2J + 1 <= n / 4: there a plane costs at
    most about half of the FFT path's on one thread, and OpenBLAS runs the
    workers' products one at a time, while their FFTs run side by side
    (BENCH_36).  The matrix path takes the widest scales, down to the
    first that does not qualify, so the FFT path's runs stay whole and its
    scales keep their padded shapes; :func:`_band_runs` groups them.  The
    rule depends only on the grid, the term count and the scales.
    """
    t = _support_radius(terms)
    axes = (grid.nx, grid.dx), (grid.ny, grid.dy)

    def qualifies(m: float, shape: tuple) -> bool:
        cut = any(t * m / h >= min(n, p - n + 1) - 1 for (n, h), p in zip(axes, shape))
        return cut and all(2 * _band_lengths(n, h, t, m, m)[1] + 1 <= n / 4 for n, h in axes)

    first = len(mu)
    while first and qualifies(float(mu[first - 1]), shapes[first - 1]):
        first -= 1
    return first


def _band_runs(grid: ComplexPlaneGrid, terms: int, mu: np.ndarray, first: int) -> list:
    """The matrix path's scales, mu[first:], in runs that share one DFT length per axis.

    A run starts at its widest scale, at that scale's own
    :func:`_band_lengths` P, and takes in the next narrower scale while, on
    each axis, that scale's band at P holds at most a quarter of the axis,
    as :func:`_matrix_start` asks of its own band, and at most twice its
    band at its own length.  A band DFT and a back-projection cost about
    the same, so past that a scale would spend more on its wider band than
    its run saves.  Runs are listed in scale order and depend only on the
    grid, the term count and the scales.
    """
    t = _support_radius(terms)
    axes = (grid.nx, grid.dx), (grid.ny, grid.dy)

    def joins(m: float, top: float) -> bool:
        for n, h in axes:
            band = 2 * _band_lengths(n, h, t, m, top)[1] + 1
            if band > n / 4 or band > 2 * (2 * _band_lengths(n, h, t, m, m)[1] + 1):
                return False
        return True

    runs, s = [], len(mu) - 1
    while s >= first:
        run = [s]
        while run[0] > first and joins(float(mu[run[0] - 1]), float(mu[s])):
            run.insert(0, run[0] - 1)
        runs.insert(0, run)
        s = run[0] - 1
    return runs


#: The multiply-adds of the Gram forms' BLAS products that take as long as one point
#: through the planes' pocketfft transforms of a few hundred points, on one thread: about
#: 110-125 on each of verify's 320^2, 384^2 and 512^2 runs (:meth:`_FFTRun.grams`).
_GRAM_MACS_PER_POINT = 120
#: The most multiply-adds in one product inside the scale workers.  OpenBLAS (0.3.31,
#: 2 CPUs) keeps a real product of 2^19 on the calling thread and hands one of 2^20 to
#: its own threads, which serialize concurrent callers and spin after each call; so the
#: scale workers' products stay on their own threads.
_GEMM_MACS = 1 << 19


def _real_matmul(r: np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``r @ z`` for a real r and a real or complex z, in row blocks.

    A complex z goes in as real products on its float view.  Each block of
    r's rows holds at most ``_GEMM_MACS`` multiply-adds.
    """
    z = np.ascontiguousarray(z)
    if out is None:
        out = np.empty((r.shape[0], z.shape[1]), dtype=z.dtype)
    flat, flat_z = (out.view(float), z.view(float)) if np.iscomplexobj(z) else (out, z)
    rows = max(1, _GEMM_MACS // flat_z.size)
    for i in range(0, len(r), rows):
        np.matmul(r[i:i + rows], flat_z, out=flat[i:i + rows])
    return out


def _back_project(rx: np.ndarray, ry: np.ndarray, f: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """rx^T (ry^T f)^T: the (n_x, n_y) plane of the transposed band spectrum ``f``.

    With P >= n + t* mu / h on each axis no kept lag wraps onto the n
    nodes, so a band spectrum times a kernel's, back-projected, is the
    zero-padded circular product of the FFT path restricted to the
    kernel's band: exact up to the same 2^-60 band cut.
    """
    return _real_matmul(rx.T, _real_matmul(ry.T, f).T, out)


def _one_call(bx: int, by: int) -> bool:
    """Whether each product of a complex (B_y, B_x) spectrum's Gram form is one BLAS call."""
    return 2 * bx * by * max(bx, by) <= _GEMM_MACS


def _gram_form(gx: np.ndarray, gy: np.ndarray, f: np.ndarray) -> np.ndarray:
    """gy f gx, the Gram form of a transposed band spectrum ``f``.

    With W = R_x^T f^T R_y and G = R D R^T, D the trapezoid weights, the
    weighted sum over the grid of W_p conj(W_q) is sum(gy f_p gx conj(f_q)):
    a pairing of two planes without either plane.
    """
    return _real_matmul(gx, _real_matmul(gy, f).T).T


def _folded_bins(band: int) -> np.ndarray:
    """|j| of each row of :func:`_cos_sin_rows`: 0, then 1, 1, 2, 2, ..., band, band."""
    return np.arange(1, 2 * band + 2) // 2


def _cos_sin_rows(n: int, p: int, band: int) -> np.ndarray:
    """R (B x n, B = 2 band + 1): the bins |j| <= band of a length-p DFT on n nodes, in real rows.

    A kernel's spectrum is real and even in each frequency, so a sum over the
    bins |j| <= J is one over cosines and sines: R holds cos(2 pi j a / p)
    for j = 0, then cos and sin in turn for j = 1..J (:func:`_folded_bins`),
    so a narrower band is R's leading rows, and bins j and -j give twice
    the weight of bin j.  Each phase is reduced mod p in integers and read
    from a table of the p roots of unity.
    """
    j = _folded_bins(band)
    roots = np.exp(2j * np.pi / p * np.arange(p))
    phase = np.multiply.outer(j, np.arange(n)) % p
    sines = (np.arange(len(j)) % 2 == 0) & (j > 0)
    return np.where(sines[:, None], roots.imag[phase], roots.real[phase])


def _gram(r: np.ndarray) -> np.ndarray:
    """G = R D R^T of rows R (:func:`_cos_sin_rows`), D the trapezoid weights."""
    return _real_matmul(r * _trap_mask_1d(r.shape[1]), r.T)


def _band_kernel(m: np.ndarray, u: np.ndarray, v: np.ndarray, c: float) -> np.ndarray:
    """v^T (c M^T) u, (B_y, B_x): a kernel over the band of the tables u and v in |j| rows."""
    return _real_matmul(v.T @ (m.T * c), u)


def _fold(f: np.ndarray, band: int) -> np.ndarray:
    """The bins |j| <= band of a DFT along f's first axis, in the rows of :func:`_cos_sin_rows`.

    Row 0 is bin 0; for j = 1..band the cos row is (F_j + F_-j) / 2 and
    the sin row i (F_j - F_-j) / 2, the sums over cosines and sines.
    """
    out = np.empty((2 * band + 1, *f.shape[1:]), dtype=complex)
    pos, neg = f[1:band + 1], f[:-band - 1:-1]
    out[0] = f[0]
    np.multiply(np.add(pos, neg, out=out[1::2]), 0.5, out=out[1::2])
    np.multiply(np.subtract(pos, neg, out=out[2::2]), 0.5j, out=out[2::2])
    return out


def _gram_planes(run, measure, grams: tuple):
    """A worker's ``prepare(unit)`` for pairings in the band, with no plane made.

    ``apply(f, k)`` gives the unit's one scale's product of f's leading bins
    and its kernel (``run.kernel``), stacked over its Gram form
    (:func:`_gram_form`) in the leading bins of ``grams``.
    """
    def prepare(unit: tuple):
        (i,) = unit
        k = run.kernel(i, measure[run.scales[i]])
        by, bx = k.shape
        gx, gy = grams[0][:bx, :bx], grams[1][:by, :by]

        def apply(f: np.ndarray, slot: int) -> np.ndarray:
            x = f[:by, :bx] * k
            return np.stack([x, _gram_form(gx, gy, x)])

        return apply

    return prepare


def _trapezoid_dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum_ij w_i w_j a_ij b_ij for real planes, w the trapezoid weights (1/2 at either end).

    einsum's own loops make no plane-sized temporary, and no BLAS call, whose
    threads would compete with the scale workers that run this.
    """
    rows = np.einsum("ij,ij->i", a, b)
    rows -= 0.5 * (a[:, 0] * b[:, 0] + a[:, -1] * b[:, -1])
    return rows.sum() - 0.5 * (rows[0] + rows[-1])


def _plane_pairing(grid: ComplexPlaneGrid):
    """``pairing(p, q)``: sum(mask p conj(q)) over two planes of ``grid``.

    mask is the trapezoid weights times d2kappa/pi.  Two real planes go
    through :func:`_trapezoid_dot`.  Otherwise the sum has the bits of a
    whole-cube reduction, in one complex plane that each thread makes once:
    mask p conj(q) is made as conj(conj(mask p) q), the same bits, as
    rounding is symmetric in sign.
    """
    area = grid.cell_area() / np.pi
    mask = grid.trapezoid_mask() * area
    scratch = threading.local()

    def pairing(p: np.ndarray, q: np.ndarray) -> complex:
        if not (np.iscomplexobj(p) or np.iscomplexobj(q)):
            return area * _trapezoid_dot(p, q)
        if not hasattr(scratch, "plane"):
            scratch.plane = np.empty(mask.shape, dtype=complex)
        a = np.multiply(mask, p, out=scratch.plane)
        np.multiply(np.conjugate(a, out=a), q, out=a)
        return np.sum(np.conjugate(a, out=a))

    return pairing


def _padded_fft2(values: np.ndarray, mask, out: np.ndarray, columns=((0, None),)) -> np.ndarray:
    """fft2 of ``values * mask`` zero-padded to the shape of ``out``, computed in ``out``.

    Both passes run in place in the one padded complex buffer, skipping the
    all-zero rows; padding with ``n=`` would allocate a new array per pass.
    Only the ``columns`` spans go through the transform along x; the other
    columns are left transformed along y alone.
    """
    nx, ny = values.shape
    out[nx:] = 0
    out[:nx, ny:] = 0
    np.multiply(values, mask, out=out[:nx, :ny])
    fft(out[:nx], axis=1, out=out[:nx])
    for lo, hi in columns:
        fft(out[:, lo:hi], axis=0, out=out[:, lo:hi])
    return out


def _cropped_ifft2(spectrum: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """Leading (nx, ny) block of ifft2(spectrum), a view of ``spectrum``, which it overwrites.

    Transforms along y first, so only the ny columns kept go through the
    transform along x.
    """
    ifft(spectrum, axis=1, out=spectrum)
    rows = spectrum[:, :ny]
    return ifft(rows, axis=0, out=rows)[:nx]


# ---------------------------------------------------------------------------
# Run operators: one per run of scales, for both paths and both directions
# ---------------------------------------------------------------------------


class _FFTRun:
    """A run of the FFT path: scales of one padded ``shape`` (px, py), transformed by FFTs.

    Both run operators index a run's scales by position i, and the factors
    and plane getters given them by scale.  K_i, scale i's real spectrum,
    is the DFT of the padded lag kernel of ``c * m``, (U_i^T c M) V_i, from
    the run's axis tables (:func:`_axis_spectra`), made with the run, on the
    calling thread; one serves both axes when they match.

    Each term h_2a is its own Fourier transform up to a sign, so past |k| =
    t*/mu (:func:`_support_radius`) every term's spectrum is below 2^-60 of
    its peak, as its samples are past t* mu.  On an axis of n nodes, step h
    and length P that is the bins |j| > J, J = floor(t* P h / (2 pi mu)).
    A scale is banded on that axis when 2J + 1 < P and its kernel is not cut
    by the grid, t* mu / h < min(n, P - n + 1) - 1; its table is then set to
    zero past J, so K is exactly zero outside the box of its bands, and no
    product, FFT or sum is made past it.  ``bands[i]`` is (Jx, Jy), None on
    an axis not banded.

    A run whose scales are all banded may pair them in the band instead
    (:meth:`grams`): each input's padded spectrum is folded once into the
    cos/sin rows of :func:`_cos_sin_rows` at the run's lengths, and each
    scale's kernel is its tables' bins |j| <= J in those rows, so its
    pairings are the Gram forms of :class:`_BandRun`'s, with no plane made.
    """

    def __init__(self, grid: ComplexPlaneGrid, m: np.ndarray, mu: np.ndarray, scales: list,
                 shape: tuple):
        self.grid, self.m, self.scales, self.shape = grid, m, scales, shape
        t = _support_radius(len(m))

        def banded(n: int, steps, p: int) -> tuple:
            table = _axis_spectra(len(m), n, steps, p)
            # in floats: a band past every int, as of a vanishing scale, is no band
            half = np.floor(t * p * steps / (2 * np.pi))
            fits = (2 * half + 1 < p) & (t / steps < min(n, p - n + 1) - 1)
            bands = [int(j) if ok else None for j, ok in zip(half, fits)]
            for k, j in enumerate(bands):
                if j is not None:
                    table[k, :, j + 1:p - j] = 0
            return table, bands

        self.u, bands_x = banded(grid.nx, grid.dx / mu[scales], shape[0])
        square = (grid.nx, grid.dx) == (grid.ny, grid.dy)
        self.v, bands_y = ((self.u, bands_x) if square
                           else banded(grid.ny, grid.dy / mu[scales], shape[1]))
        self.bands = list(zip(bands_x, bands_y))

    def blocks(self, i: int, c: float, block: np.ndarray, spans: list):
        """``(r, K_i[r:r + len(b)])`` over the row spans ``spans``, each made in ``block``.

        ``block`` (:func:`_row_block`) is overwritten by the next, so no (px, py)
        real array is held.  Each is whole tiles of 8 rows under ``_GEMM_MACS``.
        """
        left = _real_matmul(self.u[i].T, self.m * c)
        size = min(len(block), max(_KERNEL_TILE, _GEMM_MACS // self.v[i].size // _KERNEL_TILE
                                   * _KERNEL_TILE))
        for lo, hi in spans:
            for r in range(lo, hi, size):
                rows = min(hi - r, size)
                yield r, np.matmul(left[r:r + rows], self.v[i], out=block[:rows])

    def _spans(self, axis: int, unit) -> list:
        # the bins of the widest band of the unit's scales on an axis; rows from whole tiles
        band = [self.bands[i][axis] for i in unit]
        return _band_spans(self.shape[axis], None if None in band else max(band),
                           _KERNEL_TILE if axis == 0 else 1)

    def transform(self, values: np.ndarray, grams=None) -> np.ndarray:
        """The forward's padded spectrum of ``values``, along x on the run's widest band only.

        With ``grams`` (:meth:`grams`) its bins |j| <= J of the widest band
        are folded (:func:`_fold`) into cos/sin rows, (B_y, B_x), as a band
        transform of :class:`_BandRun` is, and the padded spectrum is not kept.
        """
        out, columns = np.empty(self.shape, dtype=complex), self._spans(1, range(len(self.scales)))
        f = _padded_fft2(values, self.grid.trapezoid_mask(), out, columns)
        if grams is None:
            return f
        jx, jy = self.bands[0]
        return _fold(_fold(f, jx).T, jy)

    def kernel(self, i: int, c: float) -> np.ndarray:
        """K_i / (P_x P_y) over scale i's band, (B_y, B_x), in the rows of :func:`_cos_sin_rows`."""
        ju, jv = (_folded_bins(j) for j in self.bands[i])
        return _band_kernel(self.m, self.u[i][:, ju] * np.where(ju, 2.0, 1.0),
                            self.v[i][:, jv] * np.where(jv, 2.0, 1.0), c / math.prod(self.shape))

    def grams(self):
        """(G_x, G_y) of :func:`_gram` over the widest band if the run pairs in the band, else None.

        The run pairs in the band when every scale is banded on both axes
        and, summed over its scales, the Gram forms cost less than the
        planes, per input: a scale's Gram form is 2 B_x B_y (B_x + B_y) real
        multiply-adds, and its plane B_x P_y + n_y P_x points through 1D
        FFTs (B_x rows back along y, n_y columns back along x), each point
        worth ``_GRAM_MACS_PER_POINT`` multiply-adds.  Each input's spectrum
        is the one padded FFT either way, folded for the band.  The rule
        depends only on the grid, the term count and the scales.
        """
        if any(None in band for band in self.bands):
            return None
        (px, py), ny = self.shape, self.grid.ny
        widths = [(2 * jx + 1, 2 * jy + 1) for jx, jy in self.bands]
        macs = sum(2 * bx * by * (bx + by) for bx, by in widths)
        points = sum(bx * py + ny * px for bx, _ in widths)
        if macs >= _GRAM_MACS_PER_POINT * points:
            return None
        def gram(axis: int) -> np.ndarray:
            n = (self.grid.nx, self.grid.ny)[axis]
            return _gram(_cos_sin_rows(n, self.shape[axis], self.bands[0][axis]))

        gx = gram(0)
        return gx, (gx if self.v is self.u else gram(1))

    def planes(self, held: int, measure):
        """A worker's ``prepare(unit)``, whose ``apply(f, k)`` makes the unit's plane of spectrum f.

        A scale pair's K_i + i K_(i+1) makes the real and imaginary parts of
        one plane, in the k-th of the worker's ``held`` (px, ny) half planes:
        each row block of f K over the band, transformed back along y, keeps
        its leading ny columns, and those go back along x.
        """
        nx, ny = self.grid.nx, self.grid.ny
        halves = [np.empty((self.shape[0], ny), dtype=complex) for _ in range(held)]
        block = np.empty(_row_block(self.shape))
        product = np.empty(block.shape, dtype=complex)

        def prepare(unit: tuple):
            spans, i = self._spans(0, unit), unit[0]
            c = [measure[self.scales[k]] for k in unit]

            def apply(f: np.ndarray, k: int) -> np.ndarray:
                half = halves[k]
                half[spans[0][1]:spans[-1][0]] = 0
                if len(unit) == 1:
                    made = ((r, np.multiply(f[r:r + len(b)], b, out=product[:len(b)]))
                            for r, b in self.blocks(i, c[0], block, spans))
                else:
                    # K_i + i K_(i+1), made in the real and imaginary parts of the product block
                    made = ((r, np.multiply(f[r:r + len(b)], product[:len(b)],
                                            out=product[:len(b)]))
                            for (r, b), _ in zip(self.blocks(i, c[0], product.real, spans),
                                                 self.blocks(i + 1, c[1], product.imag, spans)))
                for r, part in made:
                    ifft(part, axis=1, out=part)
                    half[r:r + len(part)] = part[:, :ny]
                return ifft(half, axis=0, out=half)[:nx]

            return apply

        return prepare

    def parts(self, plane, weights):
        """The inverse's ``worker()``, whose ``part(i)`` is scale i's padded spectrum times K_i.

        Only the box of K_i's band is transformed along x, made and multiplied.
        """
        mask = self.grid.trapezoid_mask()

        def worker():
            spectrum, block = np.empty(self.shape, dtype=complex), np.empty(_row_block(self.shape))

            def part(i: int) -> np.ndarray:
                f = _padded_fft2(plane(self.scales[i]), mask, spectrum, self._spans(1, (i,)))
                for r, k in self.blocks(i, weights[self.scales[i]], block, self._spans(0, (i,))):
                    f[r:r + len(k)] *= k
                return f

            return part

        return worker

    def add(self, total: np.ndarray, i: int, part: np.ndarray) -> None:
        for lo, hi in self._spans(0, (i,)):
            np.add(total[lo:hi], part[lo:hi], out=total[lo:hi])

    def back(self, total: np.ndarray) -> np.ndarray:
        return _cropped_ifft2(total, self.grid.nx, self.grid.ny)


class _BandRun:
    """A run of the matrix path: scales of one DFT length per axis, transformed by matrices.

    The scales ascend (:func:`_band_runs`).  On each axis the run shares P,
    :func:`_band_lengths` of its widest scale, and each scale's band is its
    J at P, the narrowest scale's the widest.  The kernel's spectrum is real
    and even in each frequency, so the sum over the bins |j| <= J is one over
    the cosines and sines of R (B x n, B = 2J + 1; :func:`_cos_sin_rows`),
    and a scale's band is R's leading B_i = 2 J_i + 1 rows.  rx_in and
    ry_in carry the trapezoid weights.  ``bands[i]`` is (B_x, B_y), and
    ``shape`` is (B_y, B_x) of scale 0, the widest band: that of a
    transposed band spectrum.

    At P >= n + t* mu / h the kernel's samples are whole, so their length-P
    DFT is, by Poisson's formula, the samples of the continuous transform:
    each h_2a is its own Fourier transform up to (-1)^a, and at step s = h /
    mu bin j is sqrt(2 pi) / s (-1)^a h_2a(2 pi j / (P s)), to within 2^-60
    of the peak.  So the band's spectra are sampled in closed form, at a
    cost that does not grow with P.
    """

    def __init__(self, grid: ComplexPlaneGrid, m: np.ndarray, mu: np.ndarray, scales: list):
        self.grid, self.m, self.scales = grid, m, scales
        mu = mu[scales]
        t = _support_radius(len(m))
        sign = (-1.0) ** np.arange(len(m))

        def axis(n: int, step: float) -> tuple:
            p, band = _band_lengths(n, step, t, mu[0], mu[-1])
            j = _folded_bins(band)
            r = _cos_sin_rows(n, p, band)
            s = step / mu
            freqs = np.multiply.outer(2 * np.pi / (p * s), j)
            table = hermite_functions(freqs, 2 * len(m) - 1)[::2] * sign[:, None, None]
            table *= (math.sqrt(2 * np.pi) / s)[:, None] * np.where(j, 2.0, 1.0)
            bands = [2 * _band_lengths(n, step, t, one, mu[-1])[1] + 1 for one in mu]
            return r * _trap_mask_1d(n), r, table.transpose(1, 0, 2), p, bands

        self.rx_in, self.rx, self.u, self.px, bands_x = axis(grid.nx, grid.dx)
        square = (grid.nx, grid.dx) == (grid.ny, grid.dy)
        self.ry_in, self.ry, self.v, self.py, bands_y = (
            (self.rx_in, self.rx, self.u, self.px, bands_x) if square
            else axis(grid.ny, grid.dy))
        self.bands = list(zip(bands_x, bands_y))
        self.shape = bands_y[0], bands_x[0]

    def kernel(self, i: int, c: float, band=None) -> np.ndarray:
        """(U^T c M V) / (P_x P_y): scale i's kernel over ``band``, its own by default."""
        bx, by = band or self.bands[i]
        return _band_kernel(self.m, self.u[i][:, :bx], self.v[i][:, :by],
                            c / (self.px * self.py))

    def transform(self, values: np.ndarray, grams=None, i: int = 0) -> np.ndarray:
        """ry_in (rx_in V)^T, (B_y, B_x), over scale i's band, the run's widest by default.

        Its bins are the cos/sin rows of :func:`_cos_sin_rows` with or without ``grams``.
        """
        bx, by = self.bands[i]
        return _real_matmul(self.ry_in[:by], _real_matmul(self.rx_in[:bx], values).T)

    def grams(self) -> tuple:
        """(G_x, G_y) of :func:`_gram`, whose leading bins give a scale's Gram forms."""
        gx = _gram(self.rx)
        return gx, (gx if self.ry is self.rx else _gram(self.ry))

    def planes(self, held: int, measure):
        """A worker's ``prepare(unit)``, whose ``apply(f, k)`` makes the unit's plane of spectrum f.

        f's leading bins times the unit's kernel go back (:func:`_back_project`)
        into the k-th of the worker's ``held`` (nx, ny) planes, or a real one
        into its own.
        """
        nx, ny = self.grid.nx, self.grid.ny
        outs = [np.empty((nx, ny), dtype=complex) for _ in range(held)]

        def prepare(unit: tuple):
            i = unit[0]
            bx, by = self.bands[i]
            k = self.kernel(i, measure[self.scales[i]])
            if len(unit) == 2:
                k = k + 1j * self.kernel(i + 1, measure[self.scales[i + 1]], self.bands[i])

            def apply(f: np.ndarray, slot: int) -> np.ndarray:
                x = f[:by, :bx] * k
                return _back_project(self.rx[:bx], self.ry[:by], x,
                                     outs[slot] if np.iscomplexobj(x) else None)

            return apply

        return prepare

    def parts(self, plane, weights):
        """The inverse's ``worker()``: ``part(i)`` is scale i's band transform times its kernel."""
        def part(i: int) -> np.ndarray:
            f = self.transform(plane(self.scales[i]), i=i)
            f *= self.kernel(i, weights[self.scales[i]])
            return f

        return lambda: part

    def add(self, total: np.ndarray, i: int, part: np.ndarray) -> None:
        total[:part.shape[0], :part.shape[1]] += part

    def back(self, total: np.ndarray) -> np.ndarray:
        return _back_project(self.rx, self.ry, total)


def _runs(grid: ComplexPlaneGrid, m: np.ndarray, mu: np.ndarray):
    """The scales' run operators in scale order, each made when the caller reaches it.

    One :class:`_FFTRun` per padded shape (:func:`_padded_shapes`), then
    the matrix path's :class:`_BandRun` runs (:func:`_matrix_start`,
    :func:`_band_runs`), if any.  Each offers ``scales``, ``shape``, the
    shape of a run's spectrum, and for the forward ``transform``,
    ``grams`` and ``planes``, for the inverse ``parts``, ``add`` and
    ``back``, so one worker per direction serves both paths.
    """
    shapes = _padded_shapes(grid, len(m), mu)
    first = _matrix_start(grid, len(m), mu, shapes)
    for shape, run in itertools.groupby(range(first), key=shapes.__getitem__):
        yield _FFTRun(grid, m, mu, list(run), shape)
    for run in _band_runs(grid, len(m), mu, first):
        yield _BandRun(grid, m, mu, run)


def _forward_planes(fields, w: MotherWavelet, scales: ScaleGrid, fast: bool, reduce,
                    pairs=None) -> list:
    """The list over scales of ``reduce(s, planes)``, the planes being W(mu_s, .) of ``fields``.

    The fields must share one grid, and each is checked up front.  The
    kernel is real, so W(a + ib) = W(a) + i W(b): the real fields are
    paired up in order, each pair one complex input at half amplitude (an
    exact scaling, so it passes the boundary check whenever both fields
    do) whose plane's 2 Re and 2 Im are the two planes.  Complex fields
    and a leftover real field go in alone.  For the FFT engine the scales
    go in the runs of :func:`_runs`, one ``_map_scales`` call per run, and
    before each run the calling thread transforms every input once with the
    run's operator, by one padded FFT or one band transform.  One worker
    serves both paths: for each scale it has the operator multiply each
    input's spectrum by the kernel over its band and take the product back
    to the grid.  The leftover real field's planes are real, so two scales
    of a run share one complex inverse FFT or back-projection and are
    handed to ``reduce`` as its real and imaginary parts; a run's odd last
    scale goes alone.  Each task calls ``reduce`` on its scales' planes, so
    a caller never holds an (S, nx, ny) cube; a plane not unpacked from a
    pair is a view of its worker's scratch, valid only until ``reduce``
    returns.

    With ``pairs``, index pairs (i, j) of ``fields``, ``reduce(s, sums)``
    gets instead the sums of mask W_i conj(W_j) over the grid, mask the
    trapezoid weights times d2kappa/pi (:func:`_plane_pairing`), a packed
    field's taken on its part of the pair's plane and scaled by 2.  A run
    whose operator has Gram matrices then makes no plane: every run of the
    matrix path, and an FFT-path run whose Gram forms cost less than its
    planes (:meth:`_FFTRun.grams`), its inputs' spectra folded into the
    band.  Each sum is a Gram form in the band (:func:`_gram_form`), the
    run's G made once, and the leftover real field's band spectrum is
    taken real and its scales go one at a time, since the Gram form of a
    complex spectrum costs as much as two real ones.  A run whose Gram
    products are each one BLAS call runs on the calling thread alone
    (:func:`_one_call`).
    """
    grid = fields[0].grid
    if not all(grid.same_layout(g.grid) for g in fields[1:]):
        raise ValueError("fields must share a grid")
    for g in fields:
        _check_transform_input(g, w)
    mu = scales.mu_values
    # the widest lag over the narrowest scale, squared, must be a float: past that the
    # direct engine's kernel samples are NaN and the FFT engine's tables all zero
    reach = math.hypot((grid.nx - 1) * grid.dx, (grid.ny - 1) * grid.dy) / float(mu[0])
    if not math.isfinite(reach * reach):
        raise ValueError(f"scale {mu[0]:g} is too small to sample the wavelet on the grid")
    real = [i for i, g in enumerate(fields) if not g.values.imag.any()]
    packed = list(zip(real[0::2], real[1::2]))
    # the inputs that go in alone: the complex fields, then the leftover real field
    lone = real[2 * len(packed):]
    alone = [i for i in range(len(fields)) if i not in real] + lone

    def inputs():
        """Each input's values, made anew on each call so that none is held between them."""
        for i, j in packed:
            yield 0.5 * (fields[i].values.real + 1j * fields[j].values.real)
        for i in alone:
            yield fields[i].values

    measure = grid.cell_area() / (np.pi * mu)
    area = grid.cell_area() / np.pi
    on_planes = None if pairs is None else _plane_pairing(grid)

    # a packed field's plane is twice a part of its pair's, paired as that part's view
    twice = {i: 2.0 for pair in packed for i in pair}

    def in_band(p: np.ndarray, q: np.ndarray) -> complex:
        # p and q each stack a band spectrum over its Gram form; einsum's own loops
        # keep the sum off BLAS's threads
        return area * np.einsum("ij,ij->", np.conjugate(q[0]), p[1])

    def reduced(s: int, made, pairing) -> object:
        """``reduce`` of the planes of ``fields``, from the iterable of each input's plane."""
        planes = [None] * len(fields)
        for k, plane in enumerate(made):
            if k < len(packed):
                i, j = packed[k]
                planes[i], planes[j] = ((plane.real, plane.imag) if pairs
                                        else (2 * plane.real, 2 * plane.imag))
            else:
                planes[alone[k - len(packed)]] = plane
        if pairs is None:
            return reduce(s, planes)
        return reduce(s, [twice.get(i, 1.0) * twice.get(j, 1.0) * pairing(planes[i], planes[j])
                          for i, j in pairs])

    if not fast:
        mask = grid.trapezoid_mask()
        masked = [v * mask for v in inputs()]

        def one_scale(s: int) -> object:
            kernel = _lag_kernel(w, mu[s], grid)
            return reduced(s, (_correlate_direct(v, kernel) * measure[s] for v in masked),
                           on_planes)

        return _map_scales(lambda: one_scale, len(mu))

    # A worker's planes: one for each input that goes in alone, of which the pairs
    # share the first complex field's, as each is unpacked before the next is made,
    # or have one of their own; the leftover real field's, the last, holds its two
    # scales while they are made.  Paired in place, every input keeps its own.
    shared = 0 if pairs else len(packed)
    held = max(len(packed) + len(alone) - len(lone) - shared, bool(packed)) + len(lone)

    def worker(run, units: list, spectra: list, grams):
        """The task of one unit, a scale or a scale pair of the leftover real field."""
        prepare = _gram_planes(run, measure, grams) if grams else run.planes(held, measure)
        pairing = in_band if grams else on_planes

        def planes(i: int, last):
            # each input's plane at scale i, the leftover real field's, if any, in last
            apply = prepare((i,)) if len(spectra) > len(lone) else None
            for k, f in enumerate(spectra[:len(spectra) - len(lone)]):
                yield apply(f, max(0, k - shared))
            yield from last

        def one_unit(u: int) -> list:
            unit = units[u]
            parts = [()] * len(unit)
            if lone:
                z = prepare(unit)(spectra[-1], held - 1)
                parts = [(z.real,), (z.imag,)]
            return [reduced(run.scales[i], planes(i, last), pairing)
                    for i, last in zip(unit, parts)]

        return one_unit

    values = []
    for run in _runs(grid, separable_coeffs(w), mu):
        grams = None if pairs is None else run.grams()
        spectra = [run.transform(v, grams) for v in inputs()]
        if grams is not None and lone:
            # a real field's band spectrum is real: its Gram forms take real products
            spectra[-1] = np.ascontiguousarray(spectra[-1].real)
        # the run's scales one at a time, or two at a time for the leftover real field
        step = 2 if lone and grams is None else 1
        units = [tuple(range(len(run.scales)))[i:i + step] for i in range(0, len(run.scales), step)]
        task = functools.partial(worker, run, units, spectra, grams)
        if grams is not None and _one_call(*map(len, grams)):
            # each Gram form's products are single BLAS calls, which OpenBLAS runs one
            # caller at a time: a second worker only waits, so the run takes one
            one_unit = task()
            made = [one_unit(u) for u in range(len(units))]
        else:
            made = _map_scales(task, len(units))
        values += itertools.chain.from_iterable(made)
        del spectra  # freed before the next run's are made
    return values


def _forward_engine(g: Field, w: MotherWavelet, scales: ScaleGrid,
                    fast: bool) -> CCWTCoefficients:
    out = np.empty((len(scales), g.grid.nx, g.grid.ny), dtype=complex)

    def store(s: int, planes: list) -> None:
        out[s] = planes[0]

    _forward_planes([g], w, scales, fast, store)
    return CCWTCoefficients(scales, g.grid, out)


def forward(g: Field, w: MotherWavelet, scales: ScaleGrid) -> CCWTCoefficients:
    """Forward transform by direct quadrature on the field's grid.

    W(mu, kappa) = (1/mu) int d2eta/pi g(eta) psi*((eta - kappa)/mu) for
    every kappa node; the translation grid is the field's grid.
    """
    return _forward_engine(g, w, scales, fast=False)


def forward_fast(g: Field, w: MotherWavelet, scales: ScaleGrid) -> CCWTCoefficients:
    """Forward transform via zero-padded FFT cross-correlation per scale.

    Contract identical to :func:`forward`, whose quadrature sum it
    evaluates but for the kernel's lags past its support, t* mu
    (:func:`_support_radius`), where each term of the kernel is below
    2^-60 of its peak; each scale is padded only to that reach, and the
    two engines agree to rounding.  The kernel's spectrum is built from
    1D Hermite-function spectra, never sampled on the lag grid, and drops
    its frequencies past t*/mu, where each term's spectrum is below 2^-60
    of its peak in turn.  The widest scales, whose kernels the grid cuts,
    are matrix DFTs over that band instead (:func:`_matrix_start`).  A
    real field's planes are exactly real: its scales share inverse
    transforms two at a time, as the real and imaginary parts of one.
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
        # Build everything up front, C'_psi and the thread cap too, so bad parameters
        # fail before any input is read or work starts.
        worker_count(1)
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
    over the truncated scale range and the translation grid.  Each scale's
    part is added, in scale order, into one sum on the output grid.  On
    the kappa grid's own layout the scales of one padded shape are summed
    in the Fourier domain first, so one inverse FFT serves each such run,
    and the widest scales are matrix DFTs, summed in the band and
    back-projected once per run of one length (:func:`_band_runs`); onto any
    other grid each scale is a separable contraction
    (:func:`specfun.separable_correlate`).
    """
    return _inverse_planes(coeffs.values.__getitem__, coeffs.scales, coeffs.kappa_grid,
                           w, c_prime, out_grid)


def _inverse_planes(plane, scales: ScaleGrid, kgrid: ComplexPlaneGrid, w: MotherWavelet,
                    c_prime: float, out_grid: ComplexPlaneGrid | None = None) -> Field:
    """The scale reduction of :func:`inverse`; ``plane(s)`` gives W(mu_s, .).

    ``plane`` is called inside the per-scale task, so a getter that reads
    the plane from a file keeps only the planes in flight in memory.  Every
    part goes, in scale order, into one sum on the output grid, made by the
    first part.  On the kappa grid's layout the scales go in the runs of
    :func:`_runs`, one ``_map_scales`` call per run, whose one worker and
    one scale-order sum serve both paths through the run's operator.  A
    scale's part is its plane's spectrum over its kernel's band times the
    kernel, added into the run's sum on that band only: on the FFT path a
    padded spectrum of the run's shape, transformed along x only on its
    band's columns and added on its band's rows, each worker making its
    spectrum and kernel block once, so a run holds exactly workers + 1
    spectra; on the matrix path a band transform, added into the run's
    band sum.  Each run's sum is taken back to the grid once, by one
    inverse FFT or one back-projection.  Onto any other grid a part is its
    scale's separable contraction.
    """
    if not np.isfinite(c_prime) or c_prime <= 0:
        raise ValueError(f"c_prime must be positive and finite, got {c_prime}")
    if out_grid is None:
        out_grid = kgrid
    mu = scales.mu_values
    weights = scale_weights(scales, 4)
    m = separable_coeffs(w)
    total = None

    def add(part: np.ndarray) -> None:
        # into the one sum on the output grid, which the first part makes
        nonlocal total
        total = part.copy() if total is None else np.add(total, part, out=total)

    if out_grid.same_layout(kgrid):
        for run in _runs(kgrid, m, mu):
            # the run's parts, summed in scale order, go back to the grid once
            run_sum = np.zeros(run.shape, dtype=complex)
            _map_scales(run.parts(plane, weights), len(run.scales),
                        functools.partial(run.add, run_sum))
            add(run.back(run_sum))
            del run_sum  # freed before the next run's is made

    else:
        axes = (kgrid.x, kgrid.y), (out_grid.x, out_grid.y)
        mask = kgrid.trapezoid_mask()

        def one_scale(s: int) -> np.ndarray:
            return separable_correlate(plane(s) * mask, m, mu[s], *axes) * weights[s]

        _map_scales(lambda: one_scale, len(mu), lambda s, part: add(part))
    total *= kgrid.cell_area() / (np.pi * c_prime)
    return Field(out_grid, total)


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
        object.__setattr__(self, "samples", _require_finite(vals, "signal"))

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(len(self.samples))


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


def _ewc1_writer(path: str, scales: ScaleGrid, grid: ComplexPlaneGrid):
    """:func:`grid._plane_writer` of an EWC1 file at ``path``.

    The file is the magic, a u32 scale count and the ``<f8`` scale table,
    then an EWG1 body of one plane per scale.
    """
    mu = scales.mu_values
    prefix = EWC1_MAGIC + struct.pack("<I", len(mu)) + mu.astype("<f8").tobytes()
    return _plane_writer(path, prefix, grid, len(mu))


def write_coefficients_ewc1(coeffs: CCWTCoefficients, path: str) -> None:
    """Write coefficients in the EWC1 binary format."""
    with _ewc1_writer(path, coeffs.scales, coeffs.kappa_grid) as write:
        for s, plane in enumerate(coeffs.values):
            write(s, plane)


@contextlib.contextmanager
def _ewc1_planes(path: str):
    """Open an EWC1 file as ``(scales, grid, plane)``; ``plane(s)`` reads plane s.

    The EWG1 body after the scale table is read by :func:`grid._read_planes`.
    """
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) < 8:
            raise FileFormatError(f"{path}: truncated EWC1 header")
        if head[:4] != EWC1_MAGIC:
            raise FileFormatError(f"{path}: bad magic {head[:4]!r}, expected {EWC1_MAGIC!r}")
        (n_scales,) = struct.unpack_from("<I", head, 4)
        offset = 8 + 8 * n_scales
        if os.fstat(fh.fileno()).st_size < offset:
            raise FileFormatError(f"{path}: truncated scale table")
        mu = np.frombuffer(fh.read(8 * n_scales), dtype="<f8").astype(float)
        try:
            scales = ScaleGrid(mu)
        except ValueError as exc:
            raise FileFormatError(f"{path}: invalid scale table ({exc})")
        yield (scales, *_read_planes(fh, offset, n_scales, path))


def read_coefficients_ewc1(path: str) -> CCWTCoefficients:
    """Read coefficients from the EWC1 binary format."""
    with _ewc1_planes(path) as (scales, grid, plane):
        values = np.empty((len(scales), grid.nx, grid.ny), dtype=complex)
        for s in range(len(scales)):
            values[s] = plane(s)
    return CCWTCoefficients(scales, grid, values)
