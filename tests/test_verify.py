import csv
import math
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entwave import ccwt, verify
from entwave.ccwt import TRANSFORM_BOUNDARY_TOL, forward, forward_fast
from entwave.errors import BoundaryDecayError
from entwave.fock import unit_norm_field
from entwave.grid import ComplexPlaneGrid, Field, ScaleGrid, scale_weights
from entwave.verify import (
    CaseResult,
    ParsevalReport,
    VerifySettings,
    constant_scan,
    energy_isometry,
    format_table,
    oracle_gaussian_integral,
    oracle_gaussian_integral_quadrature,
    oracle_scale_integral,
    oracle_scale_integral_quadrature,
    parseval_pairing,
    reproducing_kernel,
    run_suite,
    write_report_csv,
)
from entwave.wavelets import c_psi_prime, emhw, eval_wavelet, laguerre_gaussian

GRID = ComplexPlaneGrid.centered(128, 8.0)
SCALES = ScaleGrid.log_spaced(32, 0.25, 16.0)


@pytest.fixture(scope="module")
def vacuum():
    return unit_norm_field("number:0,0", GRID)


@pytest.fixture(scope="module")
def one_one():
    return unit_norm_field("number:1,1", GRID)


def test_report_rel_error_definition():
    rep = ParsevalReport.build(0.48, 0.5, SCALES, GRID)
    assert rep.rel_error == pytest.approx(0.02 / 0.5)
    assert rep.mu_range == (SCALES.mu_min, SCALES.mu_max)
    assert "128x128" in rep.grid_summary


def test_parseval_vacuum(vacuum):
    rep = parseval_pairing(vacuum, vacuum, emhw(), SCALES)
    assert rep.rhs == pytest.approx(0.5, abs=1e-6)
    assert rep.rel_error <= 0.05
    assert rep.lhs.real == pytest.approx(0.5, rel=0.05)


def test_parseval_orthogonal_states(vacuum, one_one):
    rep = parseval_pairing(vacuum, one_one, emhw(), SCALES)
    assert abs(rep.lhs) <= 0.02


def test_parseval_number_1_1(one_one):
    rep = energy_isometry(one_one, emhw(), SCALES)
    assert rep.lhs.real == pytest.approx(0.5, rel=0.05)


def test_parseval_sesquilinearity(vacuum, one_one):
    small_scales = ScaleGrid.log_spaced(8, 0.5, 4.0)
    a = 1.7 - 0.3j
    b = -0.4 + 1.1j
    base = parseval_pairing(vacuum, one_one, emhw(), small_scales)
    left = parseval_pairing(
        Field(GRID, a * vacuum.values), one_one, emhw(), small_scales
    )
    right = parseval_pairing(
        vacuum, Field(GRID, b * one_one.values), emhw(), small_scales
    )
    assert left.lhs == pytest.approx(a * base.lhs, rel=1e-12)
    assert right.lhs == pytest.approx(np.conj(b) * base.lhs, rel=1e-12)


def test_isometry_quadratic_scaling(vacuum):
    small_scales = ScaleGrid.log_spaced(8, 0.5, 4.0)
    base = energy_isometry(vacuum, emhw(), small_scales)
    scaled = energy_isometry(Field(GRID, 2.0 * vacuum.values), emhw(), small_scales)
    assert scaled.lhs == pytest.approx(4.0 * base.lhs, rel=1e-12)


def test_isometry_zero_field():
    zero = Field(GRID, np.zeros((GRID.nx, GRID.ny), dtype=complex))
    rep = energy_isometry(zero, emhw(), ScaleGrid.log_spaced(8, 0.5, 4.0))
    assert abs(rep.lhs) <= 1e-16


def test_parseval_requires_shared_grid(vacuum):
    other = unit_norm_field("number:0,0", ComplexPlaneGrid.centered(64, 8.0))
    with pytest.raises(ValueError):
        parseval_pairing(vacuum, other, emhw(), SCALES)


def test_mu_range_doubling_stability(vacuum):
    base = parseval_pairing(vacuum, vacuum, emhw(), SCALES)
    doubled = parseval_pairing(
        vacuum, vacuum, emhw(), ScaleGrid.log_spaced(32, 0.125, 32.0)
    )
    assert abs(doubled.lhs - base.lhs) / abs(base.lhs) < 0.01


def cube_pairing(c1, c2, scales):
    # the pairing reduced from whole (S, n, n) coefficient cubes
    grid = c1.kappa_grid
    mask = grid.trapezoid_mask() * (grid.cell_area() / np.pi)
    per_scale = np.array([np.sum(mask * c1.values[s] * np.conj(c2.values[s]))
                          for s in range(len(scales))])
    return complex(np.sum(scale_weights(scales, 3) * per_scale))


@pytest.mark.parametrize("engine, run", [("fft", forward_fast), ("direct", forward)])
def test_streamed_pairing_equals_cube_formula(engine, run):
    grid = ComplexPlaneGrid.centered(32, 8.0)
    scales = ScaleGrid.log_spaced(6, 0.5, 4.0)
    g1 = unit_norm_field("number:0,0", grid)
    g2 = unit_norm_field("coherent:0.5,0,0.3,0", grid)
    c1, c2 = run(g1, emhw(), scales), run(g2, emhw(), scales)
    # a real and a complex field are transformed alone: bit-identical
    assert parseval_pairing(g1, g2, emhw(), scales, engine=engine).lhs == \
        cube_pairing(c1, c2, scales)
    assert energy_isometry(g2, emhw(), scales, engine=engine).lhs == \
        cube_pairing(c2, c2, scales)
    # two real fields share one complex transform: equal to rounding
    g3 = unit_norm_field("number:1,1", grid)
    c3 = run(g3, emhw(), scales)
    for a, b, ca, cb in [(g1, g3, c1, c3), (g3, g1, c3, c1)]:
        cube = cube_pairing(ca, cb, scales)
        packed = parseval_pairing(a, b, emhw(), scales, engine=engine).lhs
        assert abs(packed - cube) <= 1e-14 * abs(cube)


def test_packed_pairing_keeps_boundary_check():
    # Each field is checked on its own, whether or not it shares a transform.
    grid = ComplexPlaneGrid.centered(32, 8.0)
    scales = ScaleGrid.log_spaced(3, 0.5, 2.0)
    corner = np.zeros((grid.nx, grid.ny))
    corner[0, 0] = TRANSFORM_BOUNDARY_TOL
    vac = unit_norm_field("number:0,0", grid).values.real
    # both pass, though |a + ib| = 1.27 tol at the corner
    a, b = Field(grid, vac + 0.9 * corner), Field(grid, vac - 0.9 * corner)
    parseval_pairing(a, b, emhw(), scales)
    bad = Field(grid, vac + 1.5 * corner)
    zero = Field(grid, np.zeros_like(vac))
    for f, g in [(bad, zero), (zero, bad)]:
        with pytest.raises(BoundaryDecayError):
            parseval_pairing(f, g, emhw(), scales)


def test_constant_scan_needs_a_state():
    scales = ScaleGrid.log_spaced(3, 0.5, 2.0)
    with pytest.raises(ValueError, match="at least one state"):
        constant_scan([], emhw(), scales, ComplexPlaneGrid.centered(16, 8.0))


def test_unknown_engine_rejected():
    # any name but "fft" used to pick the direct engine without a word
    grid = ComplexPlaneGrid.centered(16, 8.0)
    scales = ScaleGrid.log_spaced(3, 0.5, 2.0)
    g = unit_norm_field("number:0,0", grid)
    calls = [
        lambda: parseval_pairing(g, g, emhw(), scales, engine="bogus"),
        lambda: energy_isometry(g, emhw(), scales, engine="FFT"),
        lambda: constant_scan(["number:0,0"], emhw(), scales, grid, engine="bogus"),
        lambda: VerifySettings(engine="FFT"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown engine"):
            call()


SMALL_SUITE = VerifySettings(grid_n=64, scale_count=12)


def test_parseval_suite_rows_thread_independent(monkeypatch):
    monkeypatch.setenv("ENTWAVE_THREADS", "1")
    serial = run_suite("parseval", SMALL_SUITE)
    monkeypatch.setenv("ENTWAVE_THREADS", "4")
    assert run_suite("parseval", SMALL_SUITE) == serial


def test_parseval_suite_transforms_each_field_once(monkeypatch):
    # vacuum and |1,1> share one transform on the scale grid, then the
    # vacuum alone on the doubled grid
    original = verify._forward_planes
    calls = []

    def spy(fields, w, scales, fast, reduce, pairs):
        calls.append(len(scales))
        return original(fields, w, scales, fast, reduce, pairs)

    monkeypatch.setattr(verify, "_forward_planes", spy)
    run_suite("parseval", SMALL_SUITE)
    assert calls == [12, 12]


def test_constant_scan_makes_one_transform_call_on_one_pool(monkeypatch):
    # the three fields share one call; inside it the real (vacuum, |1,1>) pair
    # is packed into one input, so the coherent state makes the second and last
    # padded FFT.  Each run builds its table of kernel spectra once, on the
    # calling thread, and the worker pool belongs to the process: two scans make
    # at most one pool between them, of one thread fewer than the workers, as
    # the calling thread is one.  The pairing sums are taken in the scale tasks.
    monkeypatch.setenv("ENTWAVE_THREADS", "2")
    original = verify._forward_planes
    calls, pools, tables, threads, ffts, reducers = [], [], [], set(), [], set()

    def spy(fields, w, scales, fast, reduce, pairs):
        calls.append(len(fields))

        def reduce_on_thread(s, sums):
            reducers.add(threading.get_ident())
            return reduce(s, sums)

        return original(fields, w, scales, fast, reduce_on_thread, pairs)

    class SpyPool(ccwt.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    def axis_spectra(*args):
        tables.append(threading.get_ident())
        return axis_spectra.original(*args)

    def blocks(*args):
        threads.add(threading.get_ident())
        return blocks.original(*args)

    def padded_fft2(*args):
        ffts.append(args[0].shape)
        return padded_fft2.original(*args)

    axis_spectra.original, blocks.original = ccwt._axis_spectra, ccwt._FFTRun.blocks
    padded_fft2.original = ccwt._padded_fft2
    monkeypatch.setattr(verify, "_forward_planes", spy)
    monkeypatch.setattr(ccwt, "ThreadPoolExecutor", SpyPool)
    monkeypatch.setattr(ccwt, "_axis_spectra", axis_spectra)
    monkeypatch.setattr(ccwt._FFTRun, "blocks", blocks)
    monkeypatch.setattr(ccwt, "_padded_fft2", padded_fft2)
    scales = ScaleGrid.log_spaced(8, 0.25, 8.0)
    ccwt._pool.cache_clear()
    for _ in range(2):
        constant_scan(verify.SCAN_STATES, emhw(), scales,
                      ComplexPlaneGrid.centered(64, 8.0))
    assert calls == [3, 3]
    # the packed pair and the coherent state, each transformed once per padded shape
    runs = len(set(ccwt._padded_shapes(ComplexPlaneGrid.centered(64, 8.0), 2, scales.mu_values)))
    assert ffts == [(64, 64)] * 4 * runs
    assert pools == [ccwt.worker_count(len(scales)) - 1] == [1]
    # the grid is square: one table serves both axes of a run
    assert tables == [threading.get_ident()] * 2 * runs
    assert 1 <= len(threads) <= 2
    assert 1 <= len(reducers) <= ccwt.worker_count(len(scales))


def test_pairing_reports_make_no_plane_in_gram_form_runs(monkeypatch):
    # verify's default grid and scales: the widest 35 scales take the matrix path, and
    # the 11 scales of the 384^2 FFT-path run and the 10 of the 512^2 one have narrow
    # bands; on both paths each of those 56 scales' pairings is a Gram form in the band,
    # one per scale for the packed (vacuum, |1,1>) input, and no scale is
    # back-projected to a plane
    settings = VerifySettings()
    grid, scales = settings.grid(), settings.scales()
    projected, formed = [], []
    gram_form = ccwt._gram_form

    def counted_gram_form(*args):
        formed.append(args[2].shape)
        return gram_form(*args)

    monkeypatch.setattr(ccwt, "_back_project", lambda *args: projected.append(args))
    monkeypatch.setattr(ccwt, "_gram_form", counted_gram_form)
    fields = [unit_norm_field(d, grid) for d in ("number:0,0", "number:1,1")]
    reports = verify._pairing_reports(fields, [(0, 0), (0, 1), (1, 1)], emhw(), scales, "fft")
    assert projected == []
    assert len(formed) == 35 + 11 + 10
    assert all(abs(rep.rel_error) <= verify.THEOREM_TOL for rep in (reports[0], reports[2]))


def literal_kernel(eta, eta_prime, w, scales, grid):
    # the Riemann sum node by node, with the wavelet evaluated at every kappa
    nodes = grid.nodes()
    mask = grid.trapezoid_mask() * (grid.cell_area() / np.pi)
    weights = scale_weights(scales, 5)
    total = 0.0 + 0.0j
    for s, mu in enumerate(scales.mu_values):
        vals = eval_wavelet(w, (eta_prime - nodes) / mu) * np.conj(
            eval_wavelet(w, (eta - nodes) / mu)
        )
        total += weights[s] * np.sum(mask * vals)
    return complex(total / c_psi_prime(w))


@st.composite
def admissible_lg(draw):
    # random n! K_n for 1 <= n <= order; K_0 then makes sum (-1)^n n! K_n vanish
    order = draw(st.integers(1, 8))
    scaled = draw(st.lists(st.floats(-1.0, 1.0), min_size=order, max_size=order))
    assume(max(abs(v) for v in scaled) > 1e-3)
    k0 = -sum((-1) ** n * v for n, v in enumerate(scaled, start=1))
    return laguerre_gaussian(
        [k0] + [v / math.factorial(n) for n, v in enumerate(scaled, start=1)]
    )


KERNEL_GRIDS = [
    ComplexPlaneGrid.centered(48, 6.0),
    ComplexPlaneGrid(40, 56, -8.0, -10.0, 16.0 / 39, 20.0 / 55),
    ComplexPlaneGrid.centered(45, 7.0),
]


@settings(max_examples=40, deadline=None)
@given(w=st.one_of(st.just(emhw()), admissible_lg()),
       grid=st.sampled_from(KERNEL_GRIDS),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_kernel_matches_literal_sum(w, grid, fractions):
    def point(u, v):
        return complex(grid.x_min + u * (grid.nx - 1) * grid.dx,
                       grid.y_min + v * (grid.ny - 1) * grid.dy)

    eta, eta_p = point(*fractions[:2]), point(*fractions[2:])
    scales = ScaleGrid.log_spaced(12, grid.dx, 4.0)
    gate = 1e-12 * abs(literal_kernel(eta, eta, w, scales, grid))
    for a, b in [(eta, eta_p), (eta, eta), (eta_p, eta)]:
        assert abs(reproducing_kernel(a, b, w, scales, grid)
                   - literal_kernel(a, b, w, scales, grid)) <= gate


def test_kernel_conjugate_symmetry():
    grid = ComplexPlaneGrid.centered(65, 8.0)
    scales = ScaleGrid.log_spaced(24, grid.dx, 4.0)
    eta, eta_p = 0.5 + 0.25j, -0.75 + 1.0j
    k1 = reproducing_kernel(eta, eta_p, emhw(), scales, grid)
    k2 = reproducing_kernel(eta_p, eta, emhw(), scales, grid)
    assert k1 == pytest.approx(np.conj(k2), abs=1e-12 * abs(k1))


def test_kernel_dichotomy_quick():
    coarse = ComplexPlaneGrid.centered(129, 8.0)
    fine = ComplexPlaneGrid.centered(257, 8.0)
    k_coarse = reproducing_kernel(
        0.0, 0.0, emhw(), ScaleGrid.log_spaced(48, coarse.dx, 4.0), coarse
    )
    k_fine = reproducing_kernel(
        0.0, 0.0, emhw(), ScaleGrid.log_spaced(48, fine.dx, 4.0), fine
    )
    k_sep = reproducing_kernel(
        0.0, 3.0, emhw(), ScaleGrid.log_spaced(48, coarse.dx, 4.0), coarse
    )
    assert abs(k_fine) >= 3.0 * abs(k_coarse)
    assert abs(k_sep) <= 0.01 * abs(k_coarse)


def test_constant_scan_matches_isometry():
    states = verify.SCAN_STATES
    scales = ScaleGrid.log_spaced(16, 0.25, 8.0)
    scan = constant_scan(states, emhw(), scales, GRID)
    assert len(scan) == len(states)
    for state, value in zip(states, scan):
        rep = energy_isometry(unit_norm_field(state, GRID), emhw(), scales)
        assert value == pytest.approx(rep.lhs.real, rel=1e-12)


def test_oracle_gaussian_integral_values():
    assert oracle_gaussian_integral(-1.0, 0.0, 0.0) == pytest.approx(1.0)
    assert oracle_gaussian_integral(-1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-12)
    assert oracle_gaussian_integral(-2.0, 1j, 1j) == pytest.approx(
        0.5 * math.exp(-0.5), rel=1e-12
    )
    with pytest.raises(ValueError):
        oracle_gaussian_integral(0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        oracle_gaussian_integral_quadrature(1.0, 0.0, 0.0)


def literal_gaussian_quadrature(zeta, xi, eta_c, n=384):
    # the trapezoid sum over every node of the n x n plane
    a = -zeta.real
    lin = abs(xi) + abs(eta_c)
    grid = ComplexPlaneGrid.centered(n, (lin + math.sqrt(lin * lin + 160.0 * a)) / (2.0 * a))
    z = grid.nodes()
    vals = np.exp(zeta * np.abs(z) ** 2 + xi * z + eta_c * np.conj(z))
    return complex(np.sum(grid.trapezoid_mask() * vals) * grid.cell_area() / np.pi)


def test_oracle_gaussian_integral_quadrature_agreement():
    # the oracle suite's ranges; the separable sum is the literal plane sum
    rng = np.random.default_rng(30)
    for _ in range(50):
        zeta = complex(rng.uniform(-2.0, -0.8), rng.uniform(-0.4, 0.4))
        xi = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        eta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        closed = oracle_gaussian_integral(zeta, xi, eta)
        numeric = oracle_gaussian_integral_quadrature(zeta, xi, eta)
        scale = max(abs(closed), 1.0)
        assert abs(numeric - closed) <= 1e-6 * scale
        assert abs(numeric - literal_gaussian_quadrature(zeta, xi, eta)) <= 1e-14 * scale


def test_oracle_scale_integral_values():
    assert oracle_scale_integral(1.0, 0.0) == pytest.approx(-4.0)
    assert oracle_scale_integral(1.0, 1.0) == pytest.approx(0.5)
    assert oracle_scale_integral(math.sqrt(2), math.sqrt(2)) == pytest.approx(0.125)
    with pytest.raises(ValueError):
        oracle_scale_integral(0.0, 0.0)
    with pytest.raises(ValueError):
        oracle_scale_integral_quadrature(0.0, 0.0)


def test_oracle_scale_integral_quadrature_agreement():
    rng = np.random.default_rng(31)
    for _ in range(10):
        x, y = rng.uniform(0.3, 2.5, size=2)
        closed = oracle_scale_integral(x, y)
        numeric = oracle_scale_integral_quadrature(x, y)
        assert abs(numeric - closed) / max(abs(closed), 1.0) <= 1e-6


@settings(max_examples=60, deadline=None)
@given(x=st.floats(0.3, 2.5), y=st.floats(0.3, 2.5))
def test_oracle_scale_integral_quadrature_matches_mpmath(x, y):
    # Error relative to max(|value|, 1), as the oracle suite measures it.
    with mpmath.workdps(30):
        xm, ym = mpmath.mpf(x), mpmath.mpf(y)
        exact = float(mpmath.quad(
            lambda u: u * (1 - u * xm**2 / 2) * (1 - u * ym**2 / 2)
            * mpmath.exp(-u * (xm**2 + ym**2) / 2), [0, mpmath.inf]))
    assert abs(oracle_scale_integral_quadrature(x, y) - exact) <= 1e-14 * max(abs(exact), 1.0)


def test_run_suite_unknown():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_suite_oracles_passes():
    rows = run_suite("oracles", VerifySettings())
    assert all(r.passed for r in rows)
    table = format_table(rows)
    assert "PASS" in table and "FAIL" not in table


def test_report_csv_schema(tmp_path):
    rows = [CaseResult("demo", 1.0 + 2.0j, 1.0, 0.1, True),
            CaseResult("constant[number:1,1]", 0.5, 0.5, 0.0, True)]
    path = str(tmp_path / "r.csv")
    write_report_csv(rows, path)
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[0] == "case,lhs_re,lhs_im,rhs_re,rhs_im,rel_error"
    assert lines[1].startswith("demo,1.0,2.0,1.0,0.0,0.1")
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert [len(row) for row in parsed] == [6, 6, 6]
    assert parsed[2] == ["constant[number:1,1]", "0.5", "0.0", "0.5", "0.0", "0.0"]


def test_settings_wavelet_choices():
    assert VerifySettings().wavelet() == emhw()
    s = VerifySettings(wavelet_kind="lg", wavelet_coeffs=(0.5, 0.5))
    assert s.wavelet().coeffs == (0.5, 0.5)
    with pytest.raises(ValueError):
        VerifySettings(wavelet_kind="mexican_hat_1d").wavelet()


def test_suite_number_fields_are_exactly_real():
    # the parseval and constants suites hand these to the forward stream, which packs
    # two exactly real fields into one complex input
    grid = VerifySettings().grid()
    for descriptor in ("number:0,0", "number:1,1"):
        assert not unit_norm_field(descriptor, grid).values.imag.any()


@pytest.mark.parametrize("layout", ["contiguous", "real-of-complex"])
def test_trapezoid_dot_is_the_masked_sum(layout):
    rng = np.random.default_rng(5)
    grid = ComplexPlaneGrid(40, 56, -3.0, -4.0, 0.15, 0.15)
    planes = rng.normal(size=(40, 56)) + 1j * rng.normal(size=(40, 56))
    p, q = {"contiguous": [planes.real.copy(), planes.imag.copy()],
            "real-of-complex": [planes.real, planes.imag]}[layout]
    mask = grid.trapezoid_mask()
    for a, b in ((p, q), (p, p), (q, p)):
        expected = np.sum(mask * a * b)
        assert abs(ccwt._trapezoid_dot(a, b) - expected) <= 1e-13 * np.sum(mask * abs(a * b))
