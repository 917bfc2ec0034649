import itertools
import math
import multiprocessing
import struct
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft
from click.testing import CliRunner
from hypothesis import assume, example, given, settings, strategies as st

from entwave import ccwt
from entwave.ccwt import (
    CCWTCoefficients,
    Signal1D,
    _axis_spectra,
    _cropped_ifft2,
    _ewc1_planes,
    _forward_planes,
    _inverse_planes,
    _map_scales,
    _next_fast_len,
    _padded_fft2,
    _padded_lengths,
    _padded_shapes,
    cwt1d_grid,
    forward,
    forward_fast,
    icwt1d,
    inverse,
    read_coefficients_ewc1,
    worker_count,
    write_coefficients_ewc1,
)
from entwave.cli import main
from entwave.errors import BoundaryDecayError, FileFormatError, NonAdmissibleError
from entwave.grid import (ComplexPlaneGrid, Field, ScaleGrid, read_field_ewg1, sample,
                          scale_weights, write_field_ewg1)
from entwave.specfun import DEFAULT_ORDER_CAP, hermite_functions
from entwave.wavelets import (
    c_psi_prime,
    emhw,
    eval_wavelet,
    laguerre_gaussian,
    mexican_hat,
    separable_coeffs,
)


def gaussian_field(grid):
    return sample(lambda e: np.exp(-0.5 * np.abs(e) ** 2), grid)


def smooth_random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    nodes = grid.nodes()
    poly = (
        rng.standard_normal()
        + rng.standard_normal() * nodes / 2
        + rng.standard_normal() * np.conj(nodes) / 2
        + 0.25j * rng.standard_normal() * np.abs(nodes) ** 2
    )
    return Field(grid, poly * np.exp(-0.5 * np.abs(nodes) ** 2))


def literal_forward_value(g, w, mu, kappa):
    grid = g.grid
    kernel = np.conj(eval_wavelet(w, (grid.nodes() - kappa) / mu))
    total = np.sum(grid.trapezoid_mask() * g.values * kernel)
    return complex(total * grid.cell_area() / (np.pi * mu))


def test_forward_emhw_autovalue():
    # int_0^inf e^{-t}(1 - t/2)^2 dt = 1/2 under d2eta/pi -> dt
    grid = ComplexPlaneGrid.centered(129, 8.0)  # odd: kappa = 0 is a node
    g = sample(lambda e: eval_wavelet(emhw(), e), grid)
    coeffs = forward(g, emhw(), ScaleGrid(np.array([0.5, 1.0, 2.0])))
    assert coeffs.values[1, 64, 64] == pytest.approx(0.5, abs=1e-10)


def test_forward_vacuum_value():
    # int_0^inf e^{-t}(1 - t/2) dt = 1/2
    grid = ComplexPlaneGrid.centered(129, 8.0)
    g = gaussian_field(grid)
    coeffs = forward_fast(g, emhw(), ScaleGrid(np.array([1.0, 2.0])))
    assert coeffs.values[0, 64, 64] == pytest.approx(0.5, abs=1e-10)


def test_forward_translation_covariance():
    grid = ComplexPlaneGrid.centered(96, 10.0)
    scales = ScaleGrid(np.array([0.7, 1.4]))
    shift_nodes = (12, 7)
    kappa0 = shift_nodes[0] * grid.dx + 1j * shift_nodes[1] * grid.dy
    g = sample(lambda e: np.exp(-0.7 * np.abs(e) ** 2), grid)
    g_shift = sample(lambda e: np.exp(-0.7 * np.abs(e - kappa0) ** 2), grid)
    w_base = forward_fast(g, emhw(), scales)
    w_shift = forward_fast(g_shift, emhw(), scales)
    di, dj = shift_nodes
    a = w_shift.values[:, di:, dj:]
    b = w_base.values[:, : a.shape[1], : a.shape[2]]
    assert np.abs(a - b).max() <= 1e-10


def test_engines_agree_small():
    grid = ComplexPlaneGrid.centered(48, 7.5)
    scales = ScaleGrid.log_spaced(6, 0.5, 2.0)
    # second wavelet: 0! (1/2) - 1! (1/4) + 2! (-1/8) = 0, admissible
    for w in [emhw(), laguerre_gaussian([0.5, 0.25, -0.125]).normalized()]:
        g = smooth_random_field(grid, seed=3)
        wd = forward(g, w, scales)
        wf = forward_fast(g, w, scales)
        scale = np.abs(wd.values).max()
        assert np.abs(wd.values - wf.values).max() <= 1e-10 * scale


def test_direct_engine_matches_literal_sum():
    grid = ComplexPlaneGrid.centered(24, 7.5)
    g = smooth_random_field(grid, seed=5)
    scales = ScaleGrid(np.array([0.8, 1.6]))
    coeffs = forward(g, emhw(), scales)
    nodes = grid.nodes()
    for s, mu in enumerate(scales.mu_values):
        for (i, j) in [(0, 0), (5, 17), (12, 12), (23, 4)]:
            ref = literal_forward_value(g, emhw(), mu, nodes[i, j])
            assert coeffs.values[s, i, j] == pytest.approx(ref, abs=1e-13)


def random_admissible_lg(order, seed):
    # random n! K_n for n >= 1; K_0 then makes sum (-1)^n n! K_n vanish
    scaled = np.random.default_rng(seed).uniform(-1.0, 1.0, size=order - 1)
    k0 = -sum((-1) ** n * v for n, v in enumerate(scaled, start=1))
    return laguerre_gaussian(
        [k0] + [v / math.factorial(n) for n, v in enumerate(scaled, start=1)]
    ).normalized()


def single_term_lg(n):
    # psi = e^{-t/2} (L_n(t) - (-1)^n): one Laguerre term made admissible by K_0
    coeffs = [0.0] * (n + 1)
    coeffs[0] = -((-1) ** n)
    coeffs[n] = 1.0 / math.factorial(n)
    return laguerre_gaussian(coeffs).normalized()


@pytest.mark.parametrize("grid", [
    ComplexPlaneGrid(40, 56, -8.0, -10.0, 16.0 / 39, 20.0 / 55),
    ComplexPlaneGrid.centered(45, 8.0),
], ids=["rect", "odd"])
@pytest.mark.parametrize("w", [
    emhw(), random_admissible_lg(4, seed=11), single_term_lg(16),
    single_term_lg(DEFAULT_ORDER_CAP),
], ids=["emhw", "lg4", "lg16", "lg32"])
def test_engines_agree_rectangular_grid(grid, w):
    # guards the FFT engine's separable spectrum against instability at high order
    nodes = grid.nodes()
    g = Field(grid, np.exp(-0.6 * np.abs(nodes) ** 2) * (1 + 0.3j * nodes))
    scales = ScaleGrid.log_spaced(4, 0.5, 2.0)
    wd = forward(g, w, scales)
    wf = forward_fast(g, w, scales)
    assert np.abs(wd.values - wf.values).max() <= 1e-10 * np.abs(wd.values).max()
    for (s, i, j) in [(0, 3, grid.ny - 6), (3, 20, 20)]:
        ref = literal_forward_value(g, w, scales.mu_values[s], nodes[i, j])
        assert wd.values[s, i, j] == pytest.approx(ref, abs=1e-13)


def test_forward_zero_field():
    grid = ComplexPlaneGrid.centered(32, 6.0)
    zero = Field(grid, np.zeros((32, 32), dtype=complex))
    coeffs = forward_fast(zero, emhw(), ScaleGrid(np.array([1.0, 2.0])))
    assert np.abs(coeffs.values).max() <= 1e-16


def test_forward_delta_like_field():
    # one nonzero interior node: W(mu,kappa) = v psi*((eta0-kappa)/mu) h^2/(pi mu)
    grid = ComplexPlaneGrid.centered(33, 4.0)
    vals = np.zeros((33, 33), dtype=complex)
    vals[16, 16] = 2.0 - 1.0j
    g = Field(grid, vals)
    coeffs = forward(g, emhw(), ScaleGrid(np.array([1.0, 2.0])))
    eta0 = grid.nodes()[16, 16]
    expected = (
        vals[16, 16]
        * eval_wavelet(emhw(), (eta0 - grid.nodes()) / 1.0)
        * grid.cell_area()
        / np.pi
    )
    assert np.abs(coeffs.values[0] - expected).max() <= 1e-14


def test_forward_boundary_guard():
    grid = ComplexPlaneGrid.centered(32, 2.0)
    g = gaussian_field(grid)  # e^{-2} at the boundary
    with pytest.raises(BoundaryDecayError):
        forward_fast(g, emhw(), ScaleGrid(np.array([1.0, 2.0])))


def test_forward_requires_admissible():
    grid = ComplexPlaneGrid.centered(32, 8.0)
    with pytest.raises(NonAdmissibleError):
        forward_fast(gaussian_field(grid), laguerre_gaussian([1.0]),
                     ScaleGrid(np.array([1.0, 2.0])))


def test_scale_covariance():
    # W_{g_lam}(lam mu, lam kappa) = lam W_g(mu, kappa) to 1% on interior scales
    lam = 2.0
    grid = ComplexPlaneGrid.centered(97, 14.0)
    g = gaussian_field(grid)
    g_lam = sample(lambda e: np.exp(-0.5 * np.abs(e / lam) ** 2), grid)
    scales = ScaleGrid(np.geomspace(0.5, 2.0, 5))
    scales_lam = ScaleGrid(np.geomspace(0.5 * lam, 2.0 * lam, 5))
    w_base = forward_fast(g, emhw(), scales)
    w_lam = forward_fast(g_lam, emhw(), scales_lam)
    for s in range(len(scales)):
        for (i, j) in [(48, 48), (52, 44), (40, 56)]:
            # node at index i maps to 2x at index 2i - 48 (grid spacing 0.25)
            ii, jj = 2 * i - 48, 2 * j - 48
            lhs = w_lam.values[s, ii, jj]
            rhs = lam * w_base.values[s, i, j]
            assert abs(lhs - rhs) <= 0.01 * abs(rhs)


def test_inverse_zero_coefficients():
    grid = ComplexPlaneGrid.centered(32, 6.0)
    scales = ScaleGrid(np.array([0.5, 1.0, 2.0]))
    zeros = CCWTCoefficients(scales, grid, np.zeros((3, 32, 32), dtype=complex))
    out = inverse(zeros, emhw(), 0.5)
    assert np.abs(out.values).max() == 0.0


def test_inverse_linearity():
    grid = ComplexPlaneGrid.centered(32, 6.0)
    scales = ScaleGrid(np.array([0.5, 1.0, 2.0]))
    rng = np.random.default_rng(11)
    v1 = rng.standard_normal((3, 32, 32)) + 1j * rng.standard_normal((3, 32, 32))
    v2 = rng.standard_normal((3, 32, 32)) + 1j * rng.standard_normal((3, 32, 32))
    c1 = CCWTCoefficients(scales, grid, v1)
    c2 = CCWTCoefficients(scales, grid, v2)
    a, b = 1.3 - 0.2j, -0.7 + 0.9j
    mixed = CCWTCoefficients(scales, grid, a * v1 + b * v2)
    lhs = inverse(mixed, emhw(), 0.5).values
    rhs = a * inverse(c1, emhw(), 0.5).values + b * inverse(c2, emhw(), 0.5).values
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_inverse_rejects_bad_constant():
    grid = ComplexPlaneGrid.centered(16, 4.0)
    scales = ScaleGrid(np.array([1.0, 2.0]))
    zeros = CCWTCoefficients(scales, grid, np.zeros((2, 16, 16), dtype=complex))
    with pytest.raises(ValueError):
        inverse(zeros, emhw(), 0.0)
    with pytest.raises(ValueError):
        inverse(zeros, emhw(), -1.0)


def off_centre_field(grid):
    # neither radial nor symmetric under x <-> y, so an axis swap changes it
    return sample(lambda e: (1 + 0.3 * e) * np.exp(-0.5 * np.abs(e - (1.2 - 0.7j)) ** 2), grid)


def test_inverse_on_distinct_grid_matches_literal():
    scales = ScaleGrid.log_spaced(8, 0.5, 4.0)
    square = ComplexPlaneGrid.centered(48, 8.0)
    rect = ComplexPlaneGrid(44, 52, -8.0, -9.0, 17.0 / 43, 17.0 / 51)
    cases = [
        (gaussian_field(square), ComplexPlaneGrid.centered(5, 1.0), [(2, 3)]),
        # rectangular kappa and out grids, offset from each other
        (off_centre_field(rect), ComplexPlaneGrid(40, 56, -2.5, -4.0, 6.0 / 39, 8.5 / 55),
         [(0, 0), (3, 50), (39, 7), (21, 33), (39, 55)]),
    ]
    for g, out_grid, points in cases:
        kgrid = g.grid
        coeffs = forward_fast(g, emhw(), scales)
        rec = inverse(coeffs, emhw(), 0.5, out_grid)
        mask = kgrid.trapezoid_mask() * kgrid.cell_area() / np.pi
        for i, j in points:
            # literal evaluation of the truncated inversion integral at one point
            eta = out_grid.nodes()[i, j]
            total = 0.0
            for s, mu in enumerate(scales.mu_values):
                total += scale_weights(scales, 4)[s] * np.sum(
                    mask * coeffs.values[s] * eval_wavelet(emhw(), (eta - kgrid.nodes()) / mu)
                )
            assert rec.values[i, j] == pytest.approx(total / 0.5, rel=1e-12)


def test_inverse_on_shared_grid_matches_literal(monkeypatch):
    # the Fourier-domain branch recycles its padded spectra: 11 scales on 2 workers
    # reuse buffers that held earlier scales, so padding left unzeroed would show
    monkeypatch.setenv("ENTWAVE_THREADS", "2")
    scales = ScaleGrid.log_spaced(11, 0.5, 4.0)
    grid = ComplexPlaneGrid(30, 26, -6.0, -5.0, 12.0 / 29, 10.5 / 25)
    values = np.stack([windowed_noise(grid, seed) for seed in range(len(scales))])
    coeffs = CCWTCoefficients(scales, grid, values)
    w = random_admissible_lg(3, seed=5)
    rec = inverse(coeffs, w, 0.5)
    mask = grid.trapezoid_mask() * grid.cell_area() / np.pi
    weights = scale_weights(scales, 4)
    for i, j in [(0, 0), (29, 25), (14, 13), (3, 22), (27, 1)]:
        eta = grid.nodes()[i, j]
        total = sum(weights[s] * np.sum(mask * values[s] * eval_wavelet(w, (eta - grid.nodes()) / mu))
                    for s, mu in enumerate(scales.mu_values))
        assert rec.values[i, j] == pytest.approx(total / 0.5, rel=1e-12)


def _within(seconds, fn):
    """fn() on a thread of its own; TimeoutError if it is not done in ``seconds``."""
    watcher = ThreadPoolExecutor(max_workers=1)
    try:
        return watcher.submit(fn).result(timeout=seconds)
    finally:
        watcher.shutdown(wait=False)


def test_pool_survives_a_plane_that_fails_to_read(tmp_path, monkeypatch):
    # a NaN in one plane fails that scale's task while others are in flight;
    # no worker may be left waiting for scratch that the failed call never gives back
    grid = ComplexPlaneGrid.centered(32, 8.0)
    g = smooth_random_field(grid, seed=4)
    scales = ScaleGrid.log_spaced(12, 0.5, 4.0)
    c_prime = c_psi_prime(emhw())
    path = tmp_path / "nan.ewc"
    write_coefficients_ewc1(forward_fast(g, emhw(), scales), str(path))
    data = bytearray(path.read_bytes())
    plane_bytes = grid.nx * grid.ny * 16
    first_plane = len(data) - len(scales) * plane_bytes
    nan_at = first_plane + 5 * plane_bytes + 8  # the imaginary part of plane 5's first value
    data[nan_at:nan_at + 8] = struct.pack("<d", math.nan)
    path.write_bytes(bytes(data))

    def round_trip():
        return inverse(forward_fast(g, emhw(), scales), emhw(), c_prime).values

    monkeypatch.setenv("ENTWAVE_THREADS", "1")
    serial = round_trip()
    monkeypatch.setenv("ENTWAVE_THREADS", "2")
    for _ in range(3):
        with _ewc1_planes(str(path)) as (file_scales, kgrid, plane):
            with pytest.raises(FileFormatError, match="plane 5"):
                _inverse_planes(plane, file_scales, kgrid, emhw(), c_prime)
        result = CliRunner().invoke(main, ["ccwt", "inverse", str(path),
                                           "--output", str(tmp_path / "out.ewg")])
        assert result.exit_code == 2 and "plane 5" in result.output
    assert np.array_equal(_within(60, round_trip), serial)


def test_a_busy_pool_does_not_stall_the_transforms(monkeypatch):
    # something else holds the pool's one thread: the calling thread's own loop
    # takes every scale, and the loop queued on the pool is cancelled
    grid = ComplexPlaneGrid.centered(64, 8.0)
    g = smooth_random_field(grid, seed=5)
    scales = ScaleGrid.log_spaced(16, 0.5, 4.0)

    def round_trip():
        return inverse(forward_fast(g, emhw(), scales), emhw(), 0.5).values

    monkeypatch.setenv("ENTWAVE_THREADS", "1")
    serial = round_trip()
    monkeypatch.setenv("ENTWAVE_THREADS", "2")
    busy, release = ThreadPoolExecutor(max_workers=1), threading.Event()
    held = busy.submit(release.wait, 120)
    monkeypatch.setattr(ccwt, "_pool", lambda workers: busy)
    try:
        assert np.array_equal(_within(60, round_trip), serial)
    finally:
        release.set()
        held.result(timeout=30)
        busy.shutdown()


def test_every_call_shares_one_pool_of_the_thread_budget(monkeypatch):
    # a call with fewer tasks than the budget runs fewer loops, on the same pool:
    # a 3-scale forward, a 64-scale one and a lone real field whose runs have
    # fewer scale pairs than the budget make one pool of 7 threads between them
    monkeypatch.setenv("ENTWAVE_THREADS", "8")
    grid = ComplexPlaneGrid.centered(256, 8.0)
    g = smooth_random_field(grid, seed=6)
    scales = ScaleGrid.log_spaced(64, 0.125, 32.0)
    shapes = _padded_shapes(grid, 2, scales.mu_values)
    pairs = [math.ceil(len(list(run)) / 2) for _, run in itertools.groupby(shapes)]
    assert len(pairs) >= 2 and min(pairs) < 7
    pools = []

    class SpyPool(ccwt.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(self)
            super().__init__(max_workers)

    monkeypatch.setattr(ccwt, "ThreadPoolExecutor", SpyPool)
    ccwt._pool.cache_clear()
    try:
        forward_fast(g, emhw(), ScaleGrid.log_spaced(3, 0.5, 4.0))
        forward_fast(g, emhw(), scales)
        forward_fast(Field(grid, g.values.real), emhw(), scales)
        assert [pool._max_workers for pool in pools] == [7]
    finally:
        ccwt._pool.cache_clear()
        for pool in pools:
            pool.shutdown()


def test_inverse_holds_one_spectrum_per_worker_and_the_sum(monkeypatch):
    # plane 0 comes late, so later scales finish first: each then waits for its
    # turn in its run's sum in its worker's one spectrum, and no spectrum is made for it
    monkeypatch.setenv("ENTWAVE_THREADS", "3")
    grid = ComplexPlaneGrid.centered(128, 8.0)
    scales = ScaleGrid.log_spaced(24, 0.5, 4.0)
    cube = np.stack([windowed_noise(grid, seed=s) for s in range(len(scales))])
    shapes = _padded_shapes(grid, 2, scales.mu_values)
    # the smaller scales take smaller shapes; the budget is of the call's largest
    assert len(set(shapes)) > 1
    shape = shapes[-1]
    assert shape == (256, 256)

    def plane(s):
        if s == 0:
            time.sleep(0.3)
        return cube[s]

    spectrum, kernel_block = shape[0] * shape[1] * 16, 2**16 * 8
    # the run's sum, the sum on the grid (the output plane), which the first run's
    # sum makes once it is back on the grid, a spectrum and a kernel block per
    # worker, small arrays
    budget = spectrum + grid.nx * grid.ny * 16 + 3 * (spectrum + kernel_block) + 2**20
    tracemalloc.start()
    try:
        _inverse_planes(plane, scales, grid, emhw(), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget, (peak / spectrum, budget / spectrum)


def test_recycled_scratch_under_thread_contention(monkeypatch):
    # more workers than cores, switching threads as often as the interpreter can: a
    # buffer lent to two tasks at once would change the planes or the reconstruction
    grid = ComplexPlaneGrid.centered(64, 8.0)
    g = smooth_random_field(grid, seed=6)
    scales = ScaleGrid.log_spaced(40, 0.5, 4.0)

    def round_trip():
        coeffs = forward_fast(g, emhw(), scales)
        return coeffs.values, inverse(coeffs, emhw(), 0.5).values

    # the scales take two padded shapes, so the runs' field spectra take turns too
    assert len(set(_padded_shapes(grid, 2, scales.mu_values))) == 2
    monkeypatch.setenv("ENTWAVE_THREADS", "1")
    serial = round_trip()
    monkeypatch.setenv("ENTWAVE_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _within(60, round_trip)
    finally:
        sys.setswitchinterval(interval)
    for got, expected in zip(threaded, serial):
        assert np.array_equal(got, expected)


def test_round_trip_2d_quick():
    grid = ComplexPlaneGrid.centered(96, 16.0)
    g = gaussian_field(grid)
    scales = ScaleGrid.log_spaced(48, 0.25, 12.0)
    rec = inverse(forward_fast(g, emhw(), scales), emhw(), c_psi_prime(emhw()))
    err = np.sqrt(
        np.sum(np.abs(rec.values - g.values) ** 2) / np.sum(np.abs(g.values) ** 2)
    )
    assert err <= 0.12


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("ENTWAVE_THREADS", "1")
    assert worker_count(8) == 1
    monkeypatch.setenv("ENTWAVE_THREADS", "3")
    assert worker_count(8) == 3
    assert worker_count(2) == 2
    for bad in ("zap", "0", "-2", "1.5", ""):
        monkeypatch.setenv("ENTWAVE_THREADS", bad)
        with pytest.raises(ValueError, match="ENTWAVE_THREADS must be a positive integer"):
            worker_count(4)


@pytest.mark.skipif(not hasattr(ccwt.os, "sched_getaffinity"), reason="no CPU affinity mask")
def test_worker_count_follows_the_cpu_affinity_mask(monkeypatch):
    # under taskset -c 0 the process may run on one CPU, whatever os.cpu_count() says
    monkeypatch.delenv("ENTWAVE_THREADS", raising=False)
    monkeypatch.setattr(ccwt.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(ccwt.os, "cpu_count", lambda: 8)
    assert worker_count(64) == 1
    monkeypatch.setattr(ccwt.os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert worker_count(64) == 3
    assert worker_count(2) == 2


def copied(s, planes):
    """A reduce that keeps the planes: a complex one is a view of its task's scratch."""
    return [plane.copy() for plane in planes]


@pytest.mark.parametrize("fast", [False, True])
def test_multi_field_planes_match_single_field_calls(fast):
    grid = ComplexPlaneGrid(24, 30, -8.0, -9.0, 16.0 / 23, 17.0 / 29)
    fields = [gaussian_field(grid), off_centre_field(grid), smooth_random_field(grid, seed=3)]
    scales = ScaleGrid.log_spaced(5, 0.5, 4.0)
    together = _forward_planes(fields, emhw(), scales, fast, copied)
    assert [len(planes) for planes in together] == [3] * len(scales)
    for k, g in enumerate(fields):
        alone = [plane for (plane,) in _forward_planes([g], emhw(), scales, fast, copied)]
        for s in range(len(scales)):
            assert np.array_equal(together[s][k], alone[s])


@pytest.mark.parametrize("fast", [False, True])
def test_forward_planes_packs_real_pairs(fast):
    # W(a + ib) = W(a) + i W(b): fields 0 and 2 share one input, field 3 is
    # the leftover real field and goes in alone like the complex field 1
    grid = ComplexPlaneGrid.centered(24, 8.0)
    real = [gaussian_field(grid), Field(grid, off_centre_field(grid).values.real),
            Field(grid, smooth_random_field(grid, seed=3).values.real)]
    fields = [real[0], off_centre_field(grid), real[1], real[2]]
    scales = ScaleGrid.log_spaced(4, 0.5, 4.0)
    together = _forward_planes(fields, emhw(), scales, fast, copied)
    for k, g in enumerate(fields):
        alone = [plane for (plane,) in _forward_planes([g], emhw(), scales, fast, copied)]
        for s in range(len(scales)):
            if k in (0, 2):
                assert together[s][k].dtype == float
                assert np.allclose(together[s][k], alone[s], rtol=0, atol=1e-15)
            else:
                assert np.array_equal(together[s][k], alone[s])


def test_forward_planes_rejects_fields_on_different_grids():
    # same shape, different extents: the first field's grid used to be
    # applied to both without a word
    scales = ScaleGrid.log_spaced(3, 0.5, 2.0)
    fields = [gaussian_field(ComplexPlaneGrid.centered(32, 8.0)),
              gaussian_field(ComplexPlaneGrid.centered(32, 10.0))]
    for fast in (False, True):
        with pytest.raises(ValueError, match="fields must share a grid"):
            _forward_planes(fields, emhw(), scales, fast, copied)


def test_threaded_forward_deterministic(monkeypatch):
    grid = ComplexPlaneGrid.centered(64, 8.0)
    g = smooth_random_field(grid, seed=8)
    scales = ScaleGrid.log_spaced(8, 0.5, 4.0)
    c_prime = c_psi_prime(emhw())
    monkeypatch.setenv("ENTWAVE_THREADS", "1")
    serial = forward_fast(g, emhw(), scales)
    serial_rec = inverse(serial, emhw(), c_prime)
    monkeypatch.setenv("ENTWAVE_THREADS", "4")
    threaded = forward_fast(g, emhw(), scales)
    assert np.array_equal(serial.values, threaded.values)
    assert np.array_equal(serial_rec.values, inverse(serial, emhw(), c_prime).values)


def test_no_task_outlives_a_call_that_raises(monkeypatch):
    # The pool's loop takes scale 0 and is held there; the calling thread's loop
    # takes scale 1, which raises, as a plane that ccwt forward finds non-finite
    # does.  The raise releases task 0, which takes a moment more to return.  The
    # call must raise task 1's error only once task 0 has returned, no scale may
    # start twice, and no more than one per worker may start after the raise.
    monkeypatch.setenv("ENTWAVE_THREADS", "2")
    caller = threading.get_ident()
    zero, raised = threading.Event(), threading.Event()
    started, returned, late = [], [], []

    def task(s):
        if raised.is_set():
            late.append(s)
        started.append(s)
        try:
            if s == 0:
                zero.set()
            if s == 1:
                raised.set()
                raise RuntimeError("task 1 failed")
            raised.wait(timeout=30)
            time.sleep(0.2)
            return s
        finally:
            returned.append(s)

    def worker():
        if threading.get_ident() == caller:
            assert zero.wait(timeout=30)
        return task

    with pytest.raises(RuntimeError, match="task 1 failed"):
        _map_scales(worker, 40)
    assert sorted(returned) == sorted(started)
    assert len(set(started)) == len(started)
    assert len(late) <= ccwt.worker_count(40)


@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
def test_forked_child_runs_forward_fast_on_its_own_pool(monkeypatch):
    # the parent's pool has live threads; a fork-started child must not wait on their copies
    monkeypatch.setenv("ENTWAVE_THREADS", "2")
    g = smooth_random_field(ComplexPlaneGrid.centered(32, 8.0), seed=2)
    scales = ScaleGrid.log_spaced(6, 0.5, 4.0)
    expected = forward_fast(g, emhw(), scales).values

    def child():
        assert np.array_equal(forward_fast(g, emhw(), scales).values, expected)

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    process.join(timeout=60)
    if process.is_alive():
        process.kill()
        process.join()
        pytest.fail("forked child hung in forward_fast")
    assert process.exitcode == 0


def test_axis_table_over_steps_equals_single_step_calls():
    steps = np.array([0.37, 0.05, 1.3, 4.0, 0.11])
    for terms, n, p in [(1, 5, 9), (2, 2, 3), (4, 96, 192), (17, 33, 66)]:
        table = _axis_spectra(terms, n, steps, p)
        assert table.shape == (len(steps), terms, p)
        assert np.array_equal(table, np.stack([_axis_spectra(terms, n, s, p) for s in steps]))


@pytest.mark.parametrize("grid", [
    ComplexPlaneGrid(40, 40, -8.0, -9.0, 16.0 / 39, 18.0 / 39),
    ComplexPlaneGrid(36, 44, -8.0, -9.0, 16.0 / 35, 18.0 / 43),
], ids=["same-size-other-step", "other-size"])
def test_fast_engine_makes_a_y_table_unless_the_axes_match(grid, monkeypatch):
    tables = []

    def axis_spectra(terms, n, steps, p):
        tables.append((n, steps, p))
        return axis_spectra.original(terms, n, steps, p)

    axis_spectra.original = ccwt._axis_spectra
    monkeypatch.setattr(ccwt, "_axis_spectra", axis_spectra)
    w = random_admissible_lg(4, seed=11)
    nodes = grid.nodes()
    g = Field(grid, np.exp(-0.6 * np.abs(nodes) ** 2) * (1 + 0.3j * nodes))
    scales = ScaleGrid.log_spaced(5, 0.5, 2.0)
    wf = forward_fast(g, w, scales)
    wd = forward(g, w, scales)
    assert np.abs(wd.values - wf.values).max() <= 1e-10 * np.abs(wd.values).max()
    # one table per axis and run of equal shapes, each on its own size and step
    runs = [shape for shape, _ in itertools.groupby(_padded_shapes(grid, 4, scales.mu_values))]
    assert runs[-1] == (_next_fast_len(2 * grid.nx - 1), _next_fast_len(2 * grid.ny - 1))
    assert [(n, p) for n, _, p in tables] == [
        axis for px, py in runs for axis in ((grid.nx, px), (grid.ny, py))]
    assert np.array_equal(np.concatenate([steps for _, steps, _ in tables[1::2]]),
                          grid.dy / scales.mu_values)
    # on a square grid with one step the x table serves both axes
    tables.clear()
    square = ComplexPlaneGrid.centered(40, 8.0)
    forward_fast(gaussian_field(square), w, scales)
    assert len(tables) == len(set(_padded_shapes(square, 4, scales.mu_values)))


def whole_kernel_blocks(grid, mu):
    """``_FFTRun.blocks`` as the kernel was applied before row blocks: one whole product.

    Each scale's (px, py) product is made from tables zeroed past the bands that
    its run gives, over every row, whatever the spans asked for, in the block
    given: a scale pair's two kernels go into the real and imaginary parts of its
    product.
    """
    def axis_table(terms, n, step, p, band):
        t = _axis_spectra(terms, n, step, p)
        if band is not None:
            t[:, band + 1:p - band] = 0
        return t

    def blocks(run, i, c, block, spans):
        s, (px, py), (jx, jy) = run.scales[i], run.shape, run.bands[i]
        u = axis_table(len(run.m), grid.nx, grid.dx / mu[s], px, jx)
        v = axis_table(len(run.m), grid.ny, grid.dy / mu[s], py, jy)
        return [(0, np.matmul(u.T @ (run.m * c), v, out=block[:px]))]

    return blocks


@pytest.mark.parametrize("w", [emhw(), random_admissible_lg(32, seed=3)], ids=["emhw", "lg32"])
def test_kernel_row_blocks_give_the_bits_of_the_whole_product(w, monkeypatch):
    # 24-row blocks take the 75 padded rows in three whole blocks and a ragged
    # one of 3 rows, for the kernel and for the forward's product alike; a banded
    # scale takes its rows in two spans, the upper one from a whole tile
    grid = ComplexPlaneGrid(38, 29, -6.0, -5.0, 12.0 / 37, 10.5 / 28)
    scales = ScaleGrid.log_spaced(8, 0.5, 4.0)
    m = separable_coeffs(w)
    shapes = _padded_shapes(grid, len(m), scales.mu_values)
    assert shapes[-1] == (75, 60)
    runs = list(ccwt._runs(grid, m, scales.mu_values))
    assert all(isinstance(run, ccwt._FFTRun) for run in runs)
    bands = [band for run in runs for band in run.bands]
    # the EMHW's scale 3 is banded along x: rows 0-30 and 40-74
    banded = [s for s, (jx, _) in enumerate(bands) if jx is not None]
    assert banded == ([3] if len(m) == 2 else [])
    if banded:
        assert shapes[3] == (75, 60)
        assert ccwt._band_spans(75, bands[3][0], ccwt._KERNEL_TILE) == [(0, 31), (40, 75)]
    g = Field(grid, windowed_noise(grid, seed=1))
    # a real pair, a lone complex field and a leftover real field: the pair's half
    # plane serves the complex field next, and the real field's scales go in pairs
    fields = [Field(grid, windowed_noise(grid, seed).real) for seed in (2, 3)] + [g]
    fields.append(Field(grid, windowed_noise(grid, seed=4).real))
    cube = np.stack([windowed_noise(grid, seed=10 + s) for s in range(len(scales))])
    coeffs = CCWTCoefficients(scales, grid, cube)

    def transforms():
        return (forward_fast(g, w, scales).values,
                np.array(_forward_planes(fields, w, scales, True, copied)),
                inverse(coeffs, w, 0.5).values)

    monkeypatch.setattr(ccwt, "_BLOCK", 24 * 60)
    blocked = transforms()
    # the reference: the whole product, transformed along y, then along x on ny columns
    monkeypatch.setattr(ccwt._FFTRun, "blocks", whole_kernel_blocks(grid, scales.mu_values))
    monkeypatch.setattr(ccwt, "_BLOCK", 80 * 60)  # 80 rows, whole tiles, hold all 75
    for got, expected in zip(blocked, transforms()):
        assert np.array_equal(got, expected)


def test_kernel_blocks_hold_no_whole_kernel_spectrum(monkeypatch):
    # at 512^2 the padded shape is 1024^2: a complex spectrum is 16 MiB, and a
    # whole real kernel spectrum 8 MiB.  The forward holds the field's spectrum,
    # one (px, ny) half plane, a kernel block and a block of the product; the
    # inverse its one run's sum and one scale's spectrum, and then its sum on
    # the grid, made from the run's sum once that is back on the grid, beside it.
    # Nothing else is bigger than a block.
    monkeypatch.setenv("ENTWAVE_THREADS", "1")
    grid = ComplexPlaneGrid.centered(512, 8.0)
    g = smooth_random_field(grid, seed=2)
    scales = ScaleGrid.log_spaced(4, 0.5, 4.0)
    coeffs = forward_fast(g, emhw(), scales)
    px, py = _padded_shapes(grid, 2, scales.mu_values)[-1]
    # a 1 MiB product block, a 0.5 MiB kernel block and small arrays: axis tables, FFT plans
    forward_budget = px * py * 16 + px * grid.ny * 16 + 5 * 2**19
    inverse_budget = 2 * px * py * 16 + grid.nx * grid.ny * 16 + 2 * 2**20
    tracemalloc.start()
    try:
        _forward_planes([g], emhw(), scales, True, lambda s, planes: None)
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        inverse(coeffs, emhw(), 0.5)
        inverse_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forward_peak < forward_budget, (forward_peak, forward_budget)
    assert inverse_peak < inverse_budget, (inverse_peak, inverse_budget)


# Group law: the transforms intertwine the grid's symmetries exactly


def windowed_noise(grid, seed):
    """Random complex values under a Gaussian window, below 1e-9 on the boundary ring."""
    rng = np.random.default_rng(seed)
    hx, hy = (grid.nx - 1) * grid.dx / 2, (grid.ny - 1) * grid.dy / 2
    u = (grid.x - grid.x_min - hx) / hx
    v = (grid.y - grid.y_min - hy) / hy
    window = np.exp(-24.5 * (u[:, None] ** 2 + v[None, :] ** 2))
    shape = (grid.nx, grid.ny)
    return window * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _assert_same(got, expected):
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def _assert_intertwined(act, grids, out_grids, w, scales, seed):
    """Both engines and both inverse branches commute with ``act``.

    ``act`` maps an array on ``grids[0]`` (its last two axes) to one on
    ``grids[1]``, and one on ``out_grids[0]`` to one on ``out_grids[1]``.
    """
    values = windowed_noise(grids[0], seed)
    g, g_act = Field(grids[0], values), Field(grids[1], act(values))
    for engine in (forward, forward_fast):
        _assert_same(engine(g_act, w, scales).values, act(engine(g, w, scales).values))
    coeffs = forward_fast(g, w, scales)
    moved = CCWTCoefficients(scales, grids[1], act(coeffs.values))
    _assert_same(inverse(moved, w, 1.0).values, act(inverse(coeffs, w, 1.0).values))
    _assert_same(inverse(moved, w, 1.0, out_grids[1]).values,
                 act(inverse(coeffs, w, 1.0, out_grids[0]).values))


_SQUARE_ACTIONS = {
    "rot90": lambda v: np.rot90(v, axes=(-2, -1)),
    "reflect_x": lambda v: v[..., ::-1, :],
    "conjugate": np.conj,  # the wavelet is real
}

_GROUP_WAVELETS = st.one_of(st.just(emhw()),
                            st.builds(random_admissible_lg, st.integers(2, 6), st.integers(0, 2**16)))


def _scales_from(step, lo, span):
    """Three log-spaced scales from ``lo`` grid steps up, so every one is at least the step."""
    return ScaleGrid.log_spaced(3, lo * step, lo * span * step)


@pytest.mark.parametrize("action", list(_SQUARE_ACTIONS))
@settings(max_examples=15, deadline=None)
@given(n=st.integers(12, 32), extent=st.floats(4.0, 9.0), out_n=st.integers(5, 20),
       out_extent=st.floats(1.0, 6.0), w=_GROUP_WAVELETS, lo=st.floats(1.0, 2.0),
       span=st.floats(1.5, 8.0), seed=st.integers(0, 2**32 - 1))
def test_square_grid_symmetries_commute_with_every_transform(action, n, extent, out_n,
                                                              out_extent, w, lo, span, seed):
    # the centred square grids map onto themselves under a quarter turn, x -> -x and conjugation
    grid = ComplexPlaneGrid.centered(n, extent)
    out = ComplexPlaneGrid.centered(out_n, out_extent)
    _assert_intertwined(_SQUARE_ACTIONS[action], (grid, grid), (out, out), w,
                        _scales_from(grid.dx, lo, span), seed)


def _transposed(grid):
    return ComplexPlaneGrid(grid.ny, grid.nx, grid.y_min, grid.x_min, grid.dy, grid.dx)


# Axis lengths, half-widths and centre of a rectangular grid
_RECT = dict(nx=st.integers(12, 40), ny=st.integers(12, 40), hx=st.floats(4.0, 9.0),
             hy=st.floats(4.0, 9.0), origin=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
_SCALE_SPAN = dict(lo=st.floats(1.0, 2.0), span=st.floats(1.5, 8.0))


def _rect_grids(nx, ny, hx, hy, origin):
    """The grid drawn from ``_RECT`` and an off-grid output grid that overlaps it."""
    dx, dy = 2 * hx / (nx - 1), 2 * hy / (ny - 1)
    grid = ComplexPlaneGrid(nx, ny, origin[0] - hx, origin[1] - hy, dx, dy)
    return grid, ComplexPlaneGrid(ny - 3, nx + 2, -hy / 2, origin[0], 0.8 * dy, 0.6 * dx)


@settings(max_examples=20, deadline=None)
@example(nx=40, ny=56, hx=8.0, hy=10.0, origin=(0.0, -1.0), w=random_admissible_lg(4, seed=11),
         lo=1.0, span=4.0, seed=7)
@given(**_RECT, **_SCALE_SPAN, w=_GROUP_WAVELETS, seed=st.integers(0, 2**32 - 1))
def test_transposition_commutes_with_every_transform(nx, ny, hx, hy, origin, w, lo, span, seed):
    # x <-> y swaps the axis tables, so this runs the FFT engine's separate y table
    assume(nx != ny)
    grid, out = _rect_grids(nx, ny, hx, hy, origin)
    _assert_intertwined(lambda v: np.swapaxes(v, -2, -1), (grid, _transposed(grid)),
                        (out, _transposed(out)), w, _scales_from(max(grid.dx, grid.dy), lo, span),
                        seed)


def _dilated(grid, c):
    return ComplexPlaneGrid(grid.nx, grid.ny, c * grid.x_min, c * grid.y_min,
                            c * grid.dx, c * grid.dy)


@settings(max_examples=25, deadline=None)
@given(**_RECT, **_SCALE_SPAN, c=st.floats(0.25, 4.0), w=_GROUP_WAVELETS,
       seed=st.integers(0, 2**32 - 1))
def test_dilation_scales_every_transform(nx, ny, hx, hy, origin, c, w, lo, span, seed):
    # the same values on a grid, out grid and scales all dilated by c:
    # W(c mu, c kappa) = c W(mu, kappa), and c W inverts to the same values
    grid, out = _rect_grids(nx, ny, hx, hy, origin)
    scales = _scales_from(max(grid.dx, grid.dy), lo, span)
    wide = ScaleGrid(c * scales.mu_values)
    g = Field(grid, windowed_noise(grid, seed))
    g_wide = Field(_dilated(grid, c), g.values)
    for engine in (forward, forward_fast):
        _assert_same(engine(g_wide, w, wide).values, c * engine(g, w, scales).values)
    coeffs = forward_fast(g, w, scales)
    dilated = CCWTCoefficients(wide, g_wide.grid, c * coeffs.values)
    _assert_same(inverse(dilated, w, 1.0).values, inverse(coeffs, w, 1.0).values)
    _assert_same(inverse(dilated, w, 1.0, _dilated(out, c)).values,
                 inverse(coeffs, w, 1.0, out).values)


_FACTORS = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0)


@settings(max_examples=25, deadline=None)
@given(**_RECT, **_SCALE_SPAN, a=_FACTORS, b=_FACTORS, w=_GROUP_WAVELETS,
       seed=st.integers(0, 2**32 - 2))
def test_every_transform_is_linear(nx, ny, hx, hy, origin, a, b, w, lo, span, seed):
    # the first field is real, so the engines also meet a lone real input
    grid, out = _rect_grids(nx, ny, hx, hy, origin)
    scales = _scales_from(max(grid.dx, grid.dy), lo, span)
    v1, v2 = windowed_noise(grid, seed).real, windowed_noise(grid, seed + 1)
    mixed = Field(grid, a * v1 + b * v2)
    for engine in (forward, forward_fast):
        w1, w2 = (engine(Field(grid, v), w, scales).values for v in (v1, v2))
        _assert_same(engine(mixed, w, scales).values, a * w1 + b * w2)
    c1, c2 = (forward_fast(Field(grid, v), w, scales).values for v in (v1, v2))
    for out_grid in (None, out):
        r1, r2 = (inverse(CCWTCoefficients(scales, grid, c), w, 1.0, out_grid).values
                  for c in (c1, c2))
        both = CCWTCoefficients(scales, grid, a * c1 + b * c2)
        _assert_same(inverse(both, w, 1.0, out_grid).values, a * r1 + b * r2)


def _banded(values, axis):
    """``values`` with 4 nodes at either end of grid axis ``axis`` set to zero."""
    out = np.array(values)
    index = [slice(None)] * out.ndim
    for band in (slice(None, 4), slice(-4, None)):
        index[axis - 2] = band
        out[tuple(index)] = 0
    return out


def _along(values, axis, index):
    return values[(..., index, slice(None)) if axis == 0 else (..., index)]


@settings(max_examples=25, deadline=None)
@given(**_RECT, **_SCALE_SPAN, axis=st.sampled_from((0, 1)), w=_GROUP_WAVELETS,
       seed=st.integers(0, 2**32 - 1))
def test_three_node_shift_commutes_with_every_transform(nx, ny, hx, hy, origin, axis, w,
                                                        lo, span, seed):
    # values that vanish on a 4-node band at both ends of an axis, moved 3 nodes along it
    # with zero fill, lose nothing, and keep every trapezoid weight
    grid, out = _rect_grids(nx, ny, hx, hy, origin)
    scales = _scales_from(max(grid.dx, grid.dy), lo, span)
    shift = lambda v: np.roll(v, 3, axis=axis - 2)  # noqa: E731
    kept, moved = slice(None, -3), slice(3, None)
    values = _banded(windowed_noise(grid, seed), axis)
    for engine in (forward, forward_fast):
        plain = engine(Field(grid, values), w, scales).values
        shifted = engine(Field(grid, shift(values)), w, scales).values
        _assert_same(_along(shifted, axis, moved), _along(plain, axis, kept))
    coeffs = _banded(forward_fast(Field(grid, values), w, scales).values, axis)
    plain, shifted = (inverse(CCWTCoefficients(scales, grid, c), w, 1.0).values
                      for c in (coeffs, shift(coeffs)))
    _assert_same(_along(shifted, axis, moved), _along(plain, axis, kept))
    # off the grid, the output grid moves with the coefficients
    step = (3 * grid.dx, 0.0) if axis == 0 else (0.0, 3 * grid.dy)
    out_moved = ComplexPlaneGrid(out.nx, out.ny, out.x_min + step[0], out.y_min + step[1],
                                 out.dx, out.dy)
    _assert_same(inverse(CCWTCoefficients(scales, grid, shift(coeffs)), w, 1.0, out_moved).values,
                 inverse(CCWTCoefficients(scales, grid, coeffs), w, 1.0, out).values)


# 1D baseline


def test_cwt1d_zero_signal():
    sig = Signal1D(np.zeros(64), -4.0, 0.125)
    coeffs = cwt1d_grid(sig, mexican_hat, ScaleGrid(np.array([1.0, 2.0])))
    assert all(np.all(row == 0.0) for row in coeffs.rows)


def test_cwt1d_rejects_nonpositive_scale():
    # a non-positive scale never reaches the transform: the scale grid refuses it
    sig = Signal1D(np.zeros(16), -1.0, 0.125)
    for bad in ([0.0, 1.0], [-1.0, 1.0]):
        with pytest.raises(ValueError, match="positive"):
            cwt1d_grid(sig, mexican_hat, ScaleGrid(np.array(bad)))


def test_cwt1d_autocorrelation_peak():
    s0 = 0.75
    x = np.linspace(-10, 10, 801)
    sig = Signal1D(mexican_hat(x - s0), -10.0, x[1] - x[0])
    # oversample 40 makes the translation step the sample step, 0.025
    coeffs = cwt1d_grid(sig, mexican_hat, ScaleGrid(np.array([1.0])), oversample=40.0)
    peak = coeffs.row_positions(0)[int(np.argmax(np.abs(coeffs.rows[0])))]
    assert peak == pytest.approx(s0, abs=coeffs.s_steps[0])


def test_cwt1d_constant_signal():
    # the zero-mean wavelet annihilates a constant away from the signal's ends
    x = np.linspace(-20, 20, 1601)
    sig = Signal1D(np.full(len(x), 2.0 + 0.0j), -20.0, x[1] - x[0])
    coeffs = cwt1d_grid(sig, mexican_hat, ScaleGrid(np.array([1.0])))
    inside = np.abs(coeffs.row_positions(0)) <= 10.0
    assert inside.sum() > 100
    assert np.abs(coeffs.rows[0][inside]).max() <= 1e-10


def test_icwt1d_zero_and_scaling():
    x = np.linspace(-8, 8, 257)
    sig = Signal1D(np.exp(-0.5 * x**2), -8.0, x[1] - x[0])
    scales = ScaleGrid.log_spaced(24, 0.5, 8.0)
    coeffs = cwt1d_grid(sig, mexican_hat, scales)
    zero = type(coeffs)(
        coeffs.scales,
        coeffs.s_starts,
        coeffs.s_steps,
        tuple(np.zeros_like(r) for r in coeffs.rows),
    )
    assert np.abs(icwt1d(zero, mexican_hat, np.pi, (-8.0, x[1] - x[0], 257)).samples).max() == 0
    doubled = type(coeffs)(
        coeffs.scales,
        coeffs.s_starts,
        coeffs.s_steps,
        tuple(2.0 * r for r in coeffs.rows),
    )
    f1 = icwt1d(coeffs, mexican_hat, np.pi, (-8.0, x[1] - x[0], 257))
    f2 = icwt1d(doubled, mexican_hat, np.pi, (-8.0, x[1] - x[0], 257))
    assert np.allclose(f2.samples, 2.0 * f1.samples, rtol=1e-13, atol=0)


def test_round_trip_1d_quick():
    x = np.linspace(-8, 8, 513)
    sig = Signal1D(np.exp(-0.5 * x**2), -8.0, x[1] - x[0])
    scales = ScaleGrid.log_spaced(96, 0.25, 256.0)
    coeffs = cwt1d_grid(sig, mexican_hat, scales)
    rec = icwt1d(coeffs, mexican_hat, np.pi, (-8.0, x[1] - x[0], 513))
    err = np.sqrt(
        np.sum(np.abs(rec.samples - sig.samples) ** 2) / np.sum(np.abs(sig.samples) ** 2)
    )
    assert err <= 0.05


def test_ewc1_round_trip(tmp_path):
    grid = ComplexPlaneGrid.centered(24, 7.5)
    g = smooth_random_field(grid, seed=2)
    coeffs = forward_fast(g, emhw(), ScaleGrid.log_spaced(5, 0.5, 2.0))
    path = str(tmp_path / "c.ewc")
    write_coefficients_ewc1(coeffs, path)
    back = read_coefficients_ewc1(path)
    assert np.array_equal(back.scales.mu_values, coeffs.scales.mu_values)
    assert back.kappa_grid == coeffs.kappa_grid
    assert np.array_equal(back.values, coeffs.values)


def test_ewc1_errors(tmp_path):
    bad = tmp_path / "bad.ewc"
    bad.write_bytes(b"EWXX" + b"\x00" * 16)
    with pytest.raises(FileFormatError):
        read_coefficients_ewc1(str(bad))
    grid = ComplexPlaneGrid.centered(16, 8.0)
    g = gaussian_field(grid)
    coeffs = forward_fast(g, emhw(), ScaleGrid(np.array([1.0, 2.0])))
    path = tmp_path / "c.ewc"
    write_coefficients_ewc1(coeffs, str(path))
    data = path.read_bytes()
    # inside the magic, the scale count, the scale table, the grid header, the planes
    for cut in (3, 6, 12, 30, len(data) - 10):
        bad.write_bytes(data[:cut])
        with pytest.raises(FileFormatError):
            read_coefficients_ewc1(str(bad))


def test_ewc1_is_a_scale_table_and_an_ewg1_body(tmp_path):
    grid = ComplexPlaneGrid.centered(12, 8.0)
    coeffs = forward_fast(gaussian_field(grid), emhw(), ScaleGrid.log_spaced(3, 0.5, 2.0))
    path, plane0, ref = (tmp_path / name for name in ("c.ewc", "p.ewg", "ref.ewg"))
    write_coefficients_ewc1(coeffs, str(path))
    write_field_ewg1(Field(grid, coeffs.values[0]), str(ref))
    # after the magic, the scale count and the scale table: an EWG1 file cut to one plane
    body = path.read_bytes()[8 + 8 * 3:]
    plane0.write_bytes(body[:len(body) - 2 * grid.nx * grid.ny * 16])
    assert plane0.read_bytes() == ref.read_bytes()
    back = read_field_ewg1(str(plane0))
    assert back.grid == grid and np.array_equal(back.values, coeffs.values[0])
    # both readers ignore bytes after the last plane
    for name, read, values in ((path, read_coefficients_ewc1, coeffs.values),
                               (plane0, read_field_ewg1, coeffs.values[0])):
        name.write_bytes(name.read_bytes() + b"trailing bytes")
        assert np.array_equal(read(str(name)).values, values)


# The scipy.fft forms of the FFT kernels, kept as references for the numpy.fft ones.


def _scipy_axis_spectra(terms, n, step, p):
    kept = min(n, p - n + 1)
    h = hermite_functions(np.arange(kept) * step, 2 * terms - 1)[::2]
    seq = np.zeros((terms, p))
    seq[:, :kept] = h
    seq[:, p - kept + 1:] = h[:, :0:-1]
    return scipy.fft.fft(seq, axis=1).real


def _scipy_padded_fft2(values, shape):
    px, py = shape
    return scipy.fft.fft(scipy.fft.fft(values, n=py, axis=1), n=px, axis=0, overwrite_x=True)


def _scipy_cropped_ifft2(spectrum, nx, ny):
    rows = scipy.fft.ifft(spectrum, axis=1, overwrite_x=True)[:, :ny]
    return scipy.fft.ifft(rows, axis=0, overwrite_x=True)[:nx].copy()


def test_next_fast_len_matches_scipy():
    for n in range(1, 4097):
        assert _next_fast_len(n) == scipy.fft.next_fast_len(n), n


def _assert_close(new, ref):
    assert new.shape == ref.shape
    assert np.max(np.abs(new - ref)) <= 1e-15 * np.max(np.abs(ref))


def _assert_literal_inverse(grid, w, scales, planes, rec):
    """``rec``, the shared-grid inverse of ``planes`` at C'_psi = 1, against the literal
    truncated sum at three nodes."""
    mask = grid.trapezoid_mask() * grid.cell_area() / np.pi
    weights = scale_weights(scales, 4)
    nodes = grid.nodes()
    for i, j in [(0, 0), (grid.nx // 2, grid.ny // 2), (grid.nx - 2, 1)]:
        kernels = (eval_wavelet(w, (nodes[i, j] - nodes) / m) for m in scales.mu_values)
        total = sum(weights[s] * np.sum(mask * planes[s] * k) for s, k in enumerate(kernels))
        assert abs(rec[i, j] - total) <= 1e-12 * np.abs(rec).max()


@pytest.mark.parametrize("nx, ny", [(64, 64), (256, 256), (48, 80), (33, 17), (2, 5)])
def test_fft_kernels_match_scipy_references(nx, ny):
    rng = np.random.default_rng(nx * 1000 + ny)
    grid = ComplexPlaneGrid(nx, ny, -4.0, -4.0, 0.1, 0.1)
    ladders = _padded_lengths(nx), _padded_lengths(ny)
    # a scale wider than the grid takes the top of each ladder, the full length
    full = _padded_shapes(grid, 1, np.array([100.0]))[-1]
    assert full == (_next_fast_len(2 * nx - 1), _next_fast_len(2 * ny - 1))
    assert full == (ladders[0][-1], ladders[1][-1])
    for terms in (1, 4, 17):
        for n, ladder in zip((nx, ny), ladders):
            for p in ladder:
                _assert_close(_axis_spectra(terms, n, 0.37, p),
                              _scipy_axis_spectra(terms, n, 0.37, p))
    for shape in ((ladders[0][0], ladders[1][0]), full):
        values = rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny))
        # a recycled buffer: whatever its padding held before is zeroed
        padded = _padded_fft2(values, 1.0, np.full(shape, np.nan, dtype=complex))
        _assert_close(padded, _scipy_padded_fft2(values, shape))
        spectrum = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        cropped = _cropped_ifft2(spectrum.copy(), nx, ny)
        _assert_close(cropped, _scipy_cropped_ifft2(spectrum, nx, ny))


# Per-scale padding: each scale pads to its kernel's reach


def _full_length_axis_spectra(terms, n, steps, p):
    """The axis table as it was when every scale padded to the full length: all n lags kept."""
    lags = np.multiply.outer(steps, np.arange(n))
    h = np.moveaxis(hermite_functions(lags, 2 * terms - 1)[::2], 0, -2)
    seq = np.zeros((*h.shape[:-1], p))
    seq[..., :n] = h
    seq[..., p - n + 1:] = h[..., :0:-1]
    half = np.fft.rfft(seq, axis=-1).real
    return np.concatenate([half, half[..., (p - 1) // 2:0:-1]], axis=-1)


@settings(max_examples=30, deadline=None)
@given(terms=st.integers(1, DEFAULT_ORDER_CAP + 1), n=st.integers(2, 300), extra=st.integers(0, 40),
       steps=st.lists(st.floats(1e-3, 4.0), min_size=1, max_size=5))
def test_axis_table_at_full_length_keeps_every_lag(terms, n, extra, steps):
    # at p >= 2n - 1 no lag is dropped: the table has the bits it had before any was
    p = 2 * n - 1 + extra
    steps = np.array(steps)
    assert np.array_equal(_axis_spectra(terms, n, steps, p),
                          _full_length_axis_spectra(terms, n, steps, p))


def test_support_radius_bounds_every_term():
    # past t* each h_2a of the wavelet's order is below 2^-60 of its peak, and t* is tight
    for terms, expected in [(1, 9.12), (2, 9.66), (4, 10.46), (33, 16.56)]:
        t = ccwt._support_radius(terms)
        assert t == pytest.approx(expected, abs=0.01)
        x = np.linspace(0.0, 40.0, 16001)
        h = np.abs(hermite_functions(x, 2 * terms - 1)[::2])
        peak = h.max(axis=1, keepdims=True)
        assert np.all(h[:, x >= t] < 2.0 ** -60 * peak)
        assert np.any(h[:, x >= t - 0.05] >= 2.0 ** -60 * peak)


def test_padded_shapes_hold_each_kernel_and_merge_short_runs():
    grid = ComplexPlaneGrid.centered(256, 32.0)
    mu = ScaleGrid.log_spaced(96, 0.25, 32.0).mu_values
    shapes = _padded_shapes(grid, 2, mu)
    t = ccwt._support_radius(2)
    full = _next_fast_len(511)
    for m, (px, py) in zip(mu, shapes):
        assert px == py and px in _padded_lengths(256)
        assert px == full or px - 256 >= t * m / grid.dx
    # ascending runs, each from the ladder
    assert shapes == sorted(shapes)
    assert [shape for shape, _ in itertools.groupby(shapes)] == [(320, 320), (384, 384),
                                                                (512, 512)]
    # a run whose scales save less than about three transforms of its shape joins the run above
    lone = ScaleGrid.log_spaced(3, 4.0, 32.0).mu_values
    assert _padded_shapes(grid, 2, lone[:1]) == [(448, 448)]
    assert _padded_shapes(grid, 2, lone) == [(512, 512)] * 3


@settings(max_examples=10, deadline=None)
@example(nx=112, ny=96, square=False, hx=8.0, hy=6.0, w=random_admissible_lg(32, seed=3),
         lo=1.0, over=1.2, count=96, seed=3)
@given(nx=st.integers(64, 80), ny=st.integers(64, 80), square=st.booleans(),
       hx=st.floats(4.0, 9.0), hy=st.floats(4.0, 9.0),
       w=st.builds(random_admissible_lg, st.integers(2, 8), st.integers(0, 2**16)),
       lo=st.floats(0.8, 1.25), over=st.floats(1.0, 2.0), count=st.integers(96, 128),
       seed=st.integers(0, 2**32 - 1))
def test_per_scale_padding_matches_the_references(nx, ny, square, hx, hy, w, lo, over, count,
                                                  seed):
    # scales from about the grid step to past its width take three or more padded shapes
    if square:
        ny, hy = nx, hx
    grid = ComplexPlaneGrid(nx, ny, -hx, -hy, 2 * hx / (nx - 1), 2 * hy / (ny - 1))
    width = max((nx - 1) * grid.dx, (ny - 1) * grid.dy)
    scales = ScaleGrid.log_spaced(count, lo * min(grid.dx, grid.dy), over * width)
    mu = scales.mu_values
    shapes = _padded_shapes(grid, len(separable_coeffs(w)), mu)
    assume(len(set(shapes)) >= 3)
    # the matrix path's scales transform no padded spectrum
    padded = sorted(set(shapes[:ccwt._matrix_start(grid, len(separable_coeffs(w)), mu, shapes)]))
    g = Field(grid, windowed_noise(grid, seed))
    results = {}
    for threads in ("1", "2", "4"):
        made = []

        def padded_fft2(values, mask, out, *rest):
            made.append(out.shape)
            return _padded_fft2(values, mask, out, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("ENTWAVE_THREADS", threads)
            mp.setattr(ccwt, "_padded_fft2", padded_fft2)
            coeffs = forward_fast(g, w, scales)
            # the field's spectrum is made once per run of the FFT path, in run order
            assert made == padded
            results[threads] = coeffs.values, inverse(coeffs, w, 1.0).values
    for threads in ("2", "4"):
        for got, expected in zip(results[threads], results["1"]):
            assert np.array_equal(got, expected)
    fast, rec = results["1"]
    # the direct engine, at the first and last scale of every run: the last fits tightest
    runs = [list(run) for _, run in itertools.groupby(range(len(mu)), key=shapes.__getitem__)]
    for s in sorted({s for run in runs for s in (run[0], run[-1])}):
        direct = forward(g, w, ScaleGrid(mu[s:s + 1])).values[0]
        assert np.abs(fast[s] - direct).max() <= 1e-12 * np.abs(fast).max()
    _assert_literal_inverse(grid, w, scales, fast, rec)


# Kernel bands and scale pairs: the FFT engine transforms no spectrum it knows is zero


def _scale_kinds(grid, terms, mu):
    """{'banded', 'unbanded', 'cut', 'matrix'}: how each scale's kernel sits on the x axis.

    'matrix' is a scale of the matrix path, and 'cut' a grid-cut one of the FFT path.
    """
    shapes = _padded_shapes(grid, terms, mu)
    t = ccwt._support_radius(terms)
    kinds = set()
    first = ccwt._matrix_start(grid, terms, mu, shapes)
    for s, (m, (px, _)) in enumerate(zip(mu, shapes)):
        if s >= first:
            kinds.add("matrix")
        elif t * m / grid.dx >= min(grid.nx, px - grid.nx + 1) - 1:
            kinds.add("cut")
        elif 2 * math.floor(t * px * grid.dx / (2 * np.pi * m)) + 1 >= px:
            kinds.add("unbanded")
        else:
            kinds.add("banded")
    return kinds


@settings(max_examples=12, deadline=None)
@example(nx=48, ny=40, square=False, hx=6.0, hy=5.0, w=emhw(), lo=0.9, over=1.3, count=40, seed=7)
@given(nx=st.integers(40, 56), ny=st.integers(40, 56), square=st.booleans(),
       hx=st.floats(4.0, 8.0), hy=st.floats(4.0, 8.0),
       w=st.one_of(st.just(emhw()),
                   st.builds(random_admissible_lg, st.integers(2, 8), st.integers(0, 2**16))),
       lo=st.floats(0.8, 1.25), over=st.floats(1.0, 1.5), count=st.integers(24, 48),
       seed=st.integers(0, 2**32 - 1))
def test_banded_and_paired_scales_match_the_references(nx, ny, square, hx, hy, w, lo, over,
                                                       count, seed):
    # scales from about the grid step to past its width: banded, unbanded and grid-cut
    # kernels in one call, for a complex field and a lone real field together
    if square:
        ny, hy = nx, hx
    grid = ComplexPlaneGrid(nx, ny, -hx, -hy, 2 * hx / (nx - 1), 2 * hy / (ny - 1))
    width = max((nx - 1) * grid.dx, (ny - 1) * grid.dy)
    scales = ScaleGrid.log_spaced(count, lo * min(grid.dx, grid.dy), over * width)
    mu = scales.mu_values
    assume(_scale_kinds(grid, len(separable_coeffs(w)), mu) == {"banded", "unbanded", "cut"})
    values = windowed_noise(grid, seed)
    g, real = Field(grid, values), Field(grid, values.real)
    results = {}
    for threads in ("1", "2", "4"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("ENTWAVE_THREADS", threads)
            planes = np.array(_forward_planes([g, real], w, scales, True, copied))
            coeffs = CCWTCoefficients(scales, grid, planes[:, 0])
            results[threads] = planes, inverse(coeffs, w, 1.0).values
    for threads in ("2", "4"):
        for got, expected in zip(results[threads], results["1"]):
            assert np.array_equal(got, expected)
    planes, rec = results["1"]
    # a lone real field's planes are exactly real, and its two scales of a pair
    # agree with the planes it has when packed with another real field
    lone = _forward_planes([real], w, scales, True, copied)
    assert all(plane.dtype == float for (plane,) in lone)
    assert np.array_equal(planes[:, 1], np.array([plane for (plane,) in lone]))
    packed = np.array([p[0] for p in _forward_planes([real, Field(grid, values.imag)], w, scales,
                                                     True, copied)])
    assert np.abs(planes[:, 1] - packed).max() <= 1e-15 * np.abs(packed).max()
    for k, field in enumerate((g, real)):
        direct = forward(field, w, scales).values
        assert np.abs(planes[:, k] - direct).max() <= 1e-12 * np.abs(direct).max()
    _assert_literal_inverse(grid, w, scales, planes[:, 0], rec)


# The matrix path: grid-cut scales as matrix DFTs over the kernel's band


def _check_matrix_path(grid, w, scales, values):
    """A complex field and a lone real field in one call, whose widest scales take the matrix path.

    The planes are checked against the direct engine at the last scale of the FFT
    path, if any, and the first and last of the matrix path, the shared-grid
    inverse against the literal truncated sum, and both bit for bit across thread
    counts.  Returns the first scale of the matrix path.
    """
    mu = scales.mu_values
    terms = len(separable_coeffs(w))
    first = ccwt._matrix_start(grid, terms, mu, _padded_shapes(grid, terms, mu))
    g, real = Field(grid, values), Field(grid, values.real)
    results = {}
    for threads in ("1", "2", "4"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("ENTWAVE_THREADS", threads)
            planes = np.array(_forward_planes([g, real], w, scales, True, copied))
            coeffs = CCWTCoefficients(scales, grid, planes[:, 0])
            results[threads] = planes, inverse(coeffs, w, 1.0).values
    for threads in ("2", "4"):
        for got, expected in zip(results[threads], results["1"]):
            assert np.array_equal(got, expected)
    planes, rec = results["1"]
    # the lone real field's planes are exactly real, whatever goes in beside it
    lone = _forward_planes([real], w, scales, True, copied)
    assert all(plane.dtype == float for (plane,) in lone)
    assert np.array_equal(planes[:, 1], np.array([plane for (plane,) in lone]))
    for s in sorted({max(first - 1, 0), first, len(mu) - 1}):
        (direct,) = _forward_planes([g, real], w, ScaleGrid(mu[s:s + 1]), False, copied)
        for k, plane in enumerate(direct):
            assert np.abs(planes[s, k] - plane).max() <= 1e-12 * np.abs(plane).max()
    _assert_literal_inverse(grid, w, scales, planes[:, 0], rec)
    return first


def test_matrix_path_matches_the_references_at_256():
    # verify's default grid and scales: the widest 35 take the matrix path in runs of
    # 3, 5, 7, 9 and 11 scales, odd counts, so the lone real field's scales there go
    # in 15 pairs and a leftover per run
    grid = ComplexPlaneGrid.centered(256, 8.0)
    scales = ScaleGrid.log_spaced(64, 0.25, 16.0)
    assert _check_matrix_path(grid, emhw(), scales, windowed_noise(grid, seed=5)) == 64 - 35


def test_matrix_path_takes_every_scale_at_192():
    # every scale from 3 to 12 is cut by the grid and has a band of at most a quarter
    # of each axis, so the matrix path takes every run, here three of one scale each:
    # the inverse makes no padded spectrum, and its back-projections alone make its
    # sum on the grid
    grid = ComplexPlaneGrid.centered(192, 8.0)
    scales = ScaleGrid.log_spaced(3, 3.0, 12.0)
    assert _check_matrix_path(grid, emhw(), scales, windowed_noise(grid, seed=8)) == 0


def test_one_worker_takes_every_input_kind_on_every_path():
    # one call takes a packed real pair, a complex field and a leftover real field,
    # over two FFT-path runs, with unbanded, banded and grid-cut scales, and a
    # matrix-path run; with and without pairs, the same one worker per run
    grid = ComplexPlaneGrid(144, 136, -6.0, -6.0, 12.0 / 143, 12.0 / 135)
    scales = ScaleGrid.log_spaced(8, 0.1, 16.0)
    mu, w = scales.mu_values, emhw()
    runs = list(ccwt._runs(grid, separable_coeffs(w), mu))
    assert [(type(run), run.scales) for run in runs] == [
        (ccwt._FFTRun, [0, 1]), (ccwt._FFTRun, [2, 3, 4, 5, 6]), (ccwt._BandRun, [7])]
    # scales 0-1 are unbanded, 2-3 banded, 4-6 cut by the grid, and 7 on the matrix path
    assert runs[0].bands + runs[1].bands == [(None, None)] * 2 + [(87, 88), (42, 42)] + [
        (None, None)] * 3
    fields = [Field(grid, windowed_noise(grid, seed).real) for seed in (1, 2)]
    fields += [Field(grid, windowed_noise(grid, seed=3)),
               Field(grid, windowed_noise(grid, seed=4).real)]
    planes = _forward_planes(fields, w, scales, True, copied)
    for s in (1, 3, 4, 7):
        (direct,) = _forward_planes(fields, w, ScaleGrid(mu[s:s + 1]), False, copied)
        for plane, expected in zip(planes[s], direct):
            assert np.abs(plane - expected).max() <= 1e-10 * np.abs(expected).max()
    pairs = [(i, j) for i in range(4) for j in range(4)]
    sums = _forward_planes(fields, w, scales, True, lambda s, sums: sums, pairs)
    pairing = ccwt._plane_pairing(grid)
    mask = grid.trapezoid_mask() * grid.cell_area() / np.pi
    # on planes on the FFT path, to rounding as a plane may go in as a view, and as
    # a Gram form in the band on the matrix path
    for s in range(len(mu)):
        for (i, j), got in zip(pairs, sums[s]):
            p, q = planes[s][i], planes[s][j]
            assert abs(got - pairing(p, q)) <= 1e-13 * np.sum(mask * np.abs(p) * np.abs(q))


@settings(max_examples=4, deadline=None)
@example(nx=150, ny=128, hx=7.0, hy=5.0, w=emhw(), lo=1.0, over=1.5, count=40, seed=1)
@given(nx=st.integers(120, 160), ny=st.integers(120, 160), hx=st.floats(4.0, 8.0),
       hy=st.floats(4.0, 8.0),
       w=st.one_of(st.just(emhw()),
                   st.builds(random_admissible_lg, st.integers(2, 4), st.integers(0, 2**16))),
       lo=st.floats(0.8, 1.25), over=st.floats(1.0, 2.0), count=st.integers(24, 48),
       seed=st.integers(0, 2**32 - 1))
def test_matrix_path_matches_the_references_on_rectangular_grids(nx, ny, hx, hy, w, lo, over,
                                                                 count, seed):
    # scales from about the grid step to past its width, on grids of other sizes and steps
    assume(nx != ny)
    grid = ComplexPlaneGrid(nx, ny, -hx, -hy, 2 * hx / (nx - 1), 2 * hy / (ny - 1))
    width = max((nx - 1) * grid.dx, (ny - 1) * grid.dy)
    scales = ScaleGrid.log_spaced(count, lo * min(grid.dx, grid.dy), over * width)
    kinds = _scale_kinds(grid, len(separable_coeffs(w)), scales.mu_values)
    assume("matrix" in kinds and len(kinds) > 1)
    _check_matrix_path(grid, w, scales, windowed_noise(grid, seed))


@pytest.mark.parametrize("grid, scales, w, expected", [
    # the CLI round trip's grid, and verify's default one: (P, scales) per run
    (ComplexPlaneGrid.centered(256, 32.0), ScaleGrid.log_spaced(96, 0.25, 32.0), emhw(),
     [(567, 4), (678, 6), (924, 9), (1489, 12)]),
    (ComplexPlaneGrid.centered(256, 8.0), ScaleGrid.log_spaced(64, 0.25, 16.0), emhw(),
     [(555, 3), (671, 5), (915, 7), (1449, 9), (2721, 11)]),
    (ComplexPlaneGrid(220, 192, -7.0, -5.0, 14.0 / 219, 10.0 / 191),
     ScaleGrid.log_spaced(40, 10.0 / 191, 42.0), random_admissible_lg(4, seed=2), None),
], ids=["cli-256", "verify-256", "rectangular"])
def test_band_runs_share_the_length_of_their_widest_scale(grid, scales, w, expected):
    mu = scales.mu_values
    m = separable_coeffs(w)
    t = ccwt._support_radius(len(m))
    first = ccwt._matrix_start(grid, len(m), mu, _padded_shapes(grid, len(m), mu))
    runs = list(ccwt._runs(grid, m, mu))
    band_runs = [run.scales for run in runs if isinstance(run, ccwt._BandRun)]
    # the matrix path's runs come last and take its scales in order
    assert all(isinstance(run, ccwt._BandRun) for run in runs[-len(band_runs):])
    assert list(itertools.chain(*band_runs)) == list(range(first, len(mu))) != []
    lengths = []
    for run in band_runs:
        top = mu[run[-1]]
        for n, h in ((grid.nx, grid.dx), (grid.ny, grid.dy)):
            # the run's length on this axis is its widest scale's own
            p = ccwt._band_lengths(n, h, t, top, top)[0]
            for s in [run[0] - 1] + run:
                band, own = (2 * ccwt._band_lengths(n, h, t, mu[s], top)[1] + 1,
                             2 * ccwt._band_lengths(n, h, t, mu[s], mu[s])[1] + 1)
                assert ccwt._band_lengths(n, h, t, mu[s], top)[0] == p
                if s >= run[0]:
                    assert band <= n / 4 and band <= 2 * own
        # the scale below a run, if on the matrix path, fits neither axis's limits
        if run[0] > first:
            assert not all(
                2 * ccwt._band_lengths(n, h, t, mu[run[0] - 1], top)[1] + 1
                <= min(n / 4, 2 * (2 * ccwt._band_lengths(n, h, t, mu[run[0] - 1],
                                                           mu[run[0] - 1])[1] + 1))
                for n, h in ((grid.nx, grid.dx), (grid.ny, grid.dy)))
        lengths.append((ccwt._band_lengths(grid.nx, grid.dx, t, top, top)[0], len(run)))
    if expected is not None:
        assert lengths == expected
    else:
        assert len(lengths) > 1


def _pairings_match_planes(grid, w, scales, seed):
    """A packed real pair, a complex field and a leftover real field in one call: each
    pairing sum against the weighted sum over the planes themselves."""
    fields = [Field(grid, windowed_noise(grid, seed + k).real) for k in range(2)]
    fields += [Field(grid, windowed_noise(grid, seed + 2)),
               Field(grid, windowed_noise(grid, seed + 3).real)]
    pairs = [(i, j) for i in range(4) for j in range(4)]
    sums = _forward_planes(fields, w, scales, True, lambda s, sums: sums, pairs)
    planes = _forward_planes(fields, w, scales, True, copied)
    mask = grid.trapezoid_mask() * grid.cell_area() / np.pi
    for s in range(len(scales)):
        for (i, j), got in zip(pairs, sums[s]):
            p, q = planes[s][i], planes[s][j]
            expected = np.sum(mask * p * np.conj(q))
            assert abs(got - expected) <= 1e-13 * np.sum(mask * np.abs(p) * np.abs(q))


@settings(max_examples=6, deadline=None)
@example(nx=200, ny=216, square=False, hx=7.0, hy=6.0, w=random_admissible_lg(8, seed=4),
         lo=2.0, over=3.0, seed=2)
# an FFT-path run of 440^2 and one of 441 x 432 whose scales pair as Gram forms, each
# after a run that pairs on planes
@example(nx=218, ny=218, square=True, hx=7.2, hy=7.2, w=emhw(), lo=2.1, over=3.2, seed=5)
@example(nx=221, ny=214, square=False, hx=6.1, hy=6.1, w=emhw(), lo=2.1, over=3.0, seed=6)
@given(nx=st.integers(196, 224), ny=st.integers(196, 224), square=st.booleans(),
       hx=st.floats(5.0, 8.0), hy=st.floats(5.0, 8.0),
       w=st.one_of(st.just(emhw()),
                   st.builds(random_admissible_lg, st.integers(2, 8), st.integers(0, 2**16))),
       lo=st.floats(2.0, 6.0), over=st.floats(2.0, 4.0), seed=st.integers(0, 2**16))
def test_band_gram_pairings_match_plane_pairings(nx, ny, square, hx, hy, w, lo, over, seed):
    # over FFT-path scales and the matrix path's runs: each pairing sum, taken on planes
    # or, on the matrix path and on FFT-path runs of narrow bands, as a Gram form in the
    # band, against the weighted sum over the planes
    if square:
        ny, hy = nx, hx
    grid = ComplexPlaneGrid(nx, ny, -hx, -hy, 2 * hx / (nx - 1), 2 * hy / (ny - 1))
    width = max((nx - 1) * grid.dx, (ny - 1) * grid.dy)
    scales = ScaleGrid.log_spaced(16, lo * min(grid.dx, grid.dy), over * width)
    kinds = _scale_kinds(grid, len(separable_coeffs(w)), scales.mu_values)
    assume("matrix" in kinds and len(kinds) > 1)
    _pairings_match_planes(grid, w, scales, seed)


@pytest.mark.parametrize("first", [1, 0], ids=["all-banded", "one-unbanded"])
def test_fft_runs_pair_in_the_band_only_when_every_scale_is_banded(monkeypatch, first):
    # at 192^2 over [-8, 8]^2 the scales 0.45 and 0.8 share one 288^2 run whose bands are
    # narrow, so each scale's pairings are Gram forms, one per input; the unbanded scale
    # 0.25 below them joins the run and keeps all three scales on planes
    grid = ComplexPlaneGrid.centered(192, 8.0)
    scales = ScaleGrid(ScaleGrid.log_spaced(3, 0.25, 0.8).mu_values[first:])
    (run,) = ccwt._runs(grid, separable_coeffs(emhw()), scales.mu_values)
    assert isinstance(run, ccwt._FFTRun) and run.shape == (288, 288)
    assert [None in band for band in run.bands] == [True, False, False][first:]
    assert (run.grams() is None) == (first == 0)
    formed = []
    gram_form = ccwt._gram_form

    def counted_gram_form(*args):
        formed.append(args[2].shape)
        return gram_form(*args)

    monkeypatch.setattr(ccwt, "_gram_form", counted_gram_form)
    _pairings_match_planes(grid, emhw(), scales, seed=11)
    assert len(formed) == (3 * len(scales) if first else 0)


def test_kernel_blocks_stay_under_the_blas_cap(monkeypatch):
    # A 33-term wavelet's kernel blocks hold more multiply-adds than OpenBLAS keeps on
    # the calling thread; each block's product goes in whole tiles of 8 rows under the cap
    products = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(a, b, out=None):
            products.append(a.shape[0] * a.shape[1] * b.shape[1])
            return np.matmul(a, b, out=out)

    w = laguerre_gaussian([n and 1 / math.factorial(n) for n in range(33)])
    monkeypatch.setattr(ccwt, "np", CountingNumpy())
    for n in (96, 250):
        grid = ComplexPlaneGrid.centered(n, 12.0)
        scales = ScaleGrid.log_spaced(4, 0.25, 12.0)
        coeffs = forward_fast(Field(grid, windowed_noise(grid, seed=n)), w, scales)
        inverse(coeffs, w, 1.0)
    assert products and max(products) <= ccwt._GEMM_MACS
