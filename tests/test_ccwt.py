import math
import multiprocessing
import threading

import numpy as np
import pytest
import scipy.fft

from entwave import ccwt
from entwave.ccwt import (
    CCWTCoefficients,
    Signal1D,
    _axis_spectra,
    _cropped_ifft2,
    _forward_planes,
    _hermite_functions,
    _imap_scales,
    _next_fast_len,
    _padded_fft2,
    _padded_shape,
    cwt1d,
    cwt1d_grid,
    forward,
    forward_fast,
    icwt1d,
    inverse,
    read_coefficients_ewc1,
    worker_count,
    write_coefficients_ewc1,
)
from entwave.errors import BoundaryDecayError, FileFormatError, NonAdmissibleError
from entwave.grid import ComplexPlaneGrid, Field, ScaleGrid, sample
from entwave.specfun import DEFAULT_ORDER_CAP
from entwave.wavelets import (
    c_psi_prime,
    emhw,
    eval_wavelet,
    laguerre_gaussian,
    mexican_hat,
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
    from entwave.grid import scale_weights

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
    monkeypatch.setenv("ENTWAVE_THREADS", "zap")
    with pytest.raises(ValueError):
        worker_count(4)


@pytest.mark.parametrize("fast", [False, True])
def test_multi_field_planes_match_single_field_calls(fast):
    grid = ComplexPlaneGrid(24, 30, -8.0, -9.0, 16.0 / 23, 17.0 / 29)
    fields = [gaussian_field(grid), off_centre_field(grid), smooth_random_field(grid, seed=3)]
    scales = ScaleGrid.log_spaced(5, 0.5, 4.0)
    together = list(_forward_planes(fields, emhw(), scales, fast))
    assert [len(planes) for planes in together] == [3] * len(scales)
    for k, g in enumerate(fields):
        alone = [plane for (plane,) in _forward_planes([g], emhw(), scales, fast)]
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
    together = list(_forward_planes(fields, emhw(), scales, fast))
    for k, g in enumerate(fields):
        alone = [plane for (plane,) in _forward_planes([g], emhw(), scales, fast)]
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
            _forward_planes(fields, emhw(), scales, fast)


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


def test_closing_a_plane_stream_cancels_the_tasks_not_started(monkeypatch):
    # A consumer that stops after one plane, as _write_ewc1 does on a
    # non-finite one, must not wait for the tasks in flight or leave the
    # queued ones to run: of 2 x workers tasks submitted, only those the
    # two workers had taken (0, 1 and at most 2) ever start.
    monkeypatch.setenv("ENTWAVE_THREADS", "2")
    release, started = threading.Event(), []

    def task(s):
        started.append(s)
        if s:
            release.wait(timeout=30)
        return s

    stream = _imap_scales(task, 40)
    assert next(stream) == 0
    stream.close()
    release.set()
    # once both workers meet here, every task queued before has run or been cancelled
    barrier = threading.Barrier(2)
    for done in [ccwt._pool(2).submit(barrier.wait, 30) for _ in range(2)]:
        done.result(timeout=30)
    assert set(started) <= {0, 1, 2}
    assert len(started) <= 2 * ccwt.worker_count(40)


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
    # one table per axis, each on its own size and step
    px, py = _padded_shape(grid)
    assert [(n, p) for n, _, p in tables] == [(grid.nx, px), (grid.ny, py)]
    assert np.array_equal(tables[1][1], grid.dy / scales.mu_values)
    # on a square grid with one step the x table serves both axes
    tables.clear()
    forward_fast(gaussian_field(ComplexPlaneGrid.centered(40, 8.0)), w, scales)
    assert len(tables) == 1


# 1D baseline


def test_cwt1d_zero_signal():
    sig = Signal1D(np.zeros(64), -4.0, 0.125)
    assert cwt1d(sig, mexican_hat, 1.0, 0.3) == 0.0


def test_cwt1d_rejects_nonpositive_scale():
    sig = Signal1D(np.zeros(16), -1.0, 0.125)
    with pytest.raises(ValueError):
        cwt1d(sig, mexican_hat, 0.0, 0.0)


def test_cwt1d_autocorrelation_peak():
    s0 = 0.75
    x = np.linspace(-10, 10, 801)
    sig = Signal1D(mexican_hat(x - s0), -10.0, x[1] - x[0])
    shifts = np.linspace(-2, 3, 81)
    vals = [abs(cwt1d(sig, mexican_hat, 1.0, s)) for s in shifts]
    assert shifts[int(np.argmax(vals))] == pytest.approx(s0, abs=0.0626)


def test_cwt1d_constant_signal():
    x = np.linspace(-20, 20, 1601)
    sig = Signal1D(np.full(len(x), 2.0 + 0.0j), -20.0, x[1] - x[0])
    assert abs(cwt1d(sig, mexican_hat, 1.0, 0.0)) <= 1e-10


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
    bad = str(tmp_path / "bad.ewc")
    open(bad, "wb").write(b"EWXX" + b"\x00" * 16)
    with pytest.raises(FileFormatError):
        read_coefficients_ewc1(bad)
    grid = ComplexPlaneGrid.centered(16, 8.0)
    g = gaussian_field(grid)
    coeffs = forward_fast(g, emhw(), ScaleGrid(np.array([1.0, 2.0])))
    path = str(tmp_path / "c.ewc")
    write_coefficients_ewc1(coeffs, path)
    data = open(path, "rb").read()
    # inside the magic, the scale count, the scale table, the grid header, the planes
    for cut in (3, 6, 12, 30, len(data) - 10):
        open(bad, "wb").write(data[:cut])
        with pytest.raises(FileFormatError):
            read_coefficients_ewc1(bad)


# The scipy.fft forms of the FFT kernels, kept as references for the numpy.fft ones.


def _scipy_axis_spectra(terms, n, step, p):
    h = _hermite_functions(np.arange(n) * step, 2 * terms - 1)[::2]
    seq = np.zeros((terms, p))
    seq[:, :n] = h
    seq[:, p - n + 1:] = h[:, :0:-1]
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


@pytest.mark.parametrize("nx, ny", [(64, 64), (256, 256), (48, 80), (33, 17), (2, 5)])
def test_fft_kernels_match_scipy_references(nx, ny):
    rng = np.random.default_rng(nx * 1000 + ny)
    shape = _padded_shape(ComplexPlaneGrid(nx, ny, -4.0, -4.0, 0.1, 0.1))
    for terms in (1, 4, 17):
        for n, p in zip((nx, ny), shape):
            _assert_close(_axis_spectra(terms, n, 0.37, p), _scipy_axis_spectra(terms, n, 0.37, p))
    values = rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny))
    _assert_close(_padded_fft2(values, shape), _scipy_padded_fft2(values, shape))
    spectrum = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cropped = _cropped_ifft2(spectrum.copy(), nx, ny)
    _assert_close(cropped, _scipy_cropped_ifft2(spectrum, nx, ny))
    assert cropped.flags.c_contiguous
