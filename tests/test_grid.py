import dataclasses
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import entwave
import entwave.grid as grid_module
from entwave.ccwt import RunConfig, Signal1D
from entwave.errors import FileFormatError
from entwave.grid import (
    ComplexPlaneGrid,
    Field,
    ScaleGrid,
    integrate,
    read_field_csv,
    read_field_ewg1,
    sample,
    scale_weights,
    write_field_csv,
    write_field_ewg1,
)
from entwave.fock import TwoModeFockState
from entwave.wavelets import emhw, eval_wavelet


def test_centered_grid_symmetric():
    g = ComplexPlaneGrid.centered(256, 8.0)
    assert g.x_min == pytest.approx(-(g.nx - 1) * g.dx / 2)
    assert g.x[0] == -8.0
    assert g.x[-1] == pytest.approx(8.0)


@pytest.mark.parametrize("name", ["x_min", "y_min", "dx", "dy"])
def test_same_layout_tolerances(name):
    # origins within 1e-12 absolutely, steps within 1e-12 of the other's step
    grid = ComplexPlaneGrid(256, 200, -8.0, -6.0, 16 / 255, 12 / 199)
    value = getattr(grid, name)
    scale = value if name.startswith("d") else 1.0
    for offset, same in [(0.0, True), (0.5e-12, True), (-0.5e-12, True), (2e-12, False),
                         (-2e-12, False)]:
        other = dataclasses.replace(grid, **{name: value + offset * scale})
        assert grid.same_layout(other) is same
        assert other.same_layout(grid) is same
    assert grid.same_layout(dataclasses.replace(grid, nx=255)) is False
    assert grid.same_layout(dataclasses.replace(grid, ny=201)) is False


def test_grid_validation():
    with pytest.raises(ValueError):
        ComplexPlaneGrid(1, 4, 0.0, 0.0, 0.1, 0.1)
    for n in (1, 0, -3):  # checked before the spacing 2 extent / (n - 1) is taken
        with pytest.raises(ValueError, match="at least 2 nodes per axis"):
            ComplexPlaneGrid.centered(n, 8.0)
    with pytest.raises(ValueError):
        ComplexPlaneGrid(4, 4, 0.0, 0.0, -0.1, 0.1)
    for bad in (math.nan, math.inf, -math.inf):
        for field_index in range(4):
            params = [0.0, 0.0, 0.1, 0.1]
            params[field_index] = bad
            with pytest.raises(ValueError):
                ComplexPlaneGrid(4, 4, *params)


def test_csv_nonfinite_node_coordinate_is_a_file_format_error(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("x,y,re,im\n0,0,1,0\n0,1,1,0\ninf,0,1,0\ninf,1,1,0\n")
    with pytest.raises(FileFormatError, match="finite"):
        read_field_csv(str(path))


def test_sample_constant():
    g = ComplexPlaneGrid.centered(16, 2.0)
    f = sample(lambda e: np.ones_like(e), g)
    assert np.all(f.values == 1.0)


def test_sample_gaussian_boundary_decay():
    g = ComplexPlaneGrid.centered(256, 8.0)
    f = sample(lambda e: np.exp(-0.5 * np.abs(e) ** 2), g)
    assert f.boundary_max() <= np.exp(-8)


def test_sample_matches_eval_wavelet():
    g = ComplexPlaneGrid.centered(64, 6.0)
    w = emhw()
    f = sample(lambda e: eval_wavelet(w, e), g)
    assert np.array_equal(f.values, eval_wavelet(w, g.nodes()))


def test_sample_rejects_nonfinite():
    g = ComplexPlaneGrid.centered(17, 2.0)  # odd: contains the origin
    with np.errstate(divide="ignore"), pytest.raises(ValueError):
        sample(lambda e: 1.0 / np.abs(e) ** 2, g)


def test_finite_check_accepts_any_strides():
    rng = np.random.default_rng(7)
    grid = ComplexPlaneGrid.centered(6, 2.0)
    v, x, c = (rng.normal(size=s) + 1j * rng.normal(size=s) for s in ((6, 6), (12,), (3, 3)))
    assert Field(grid, v).values is v  # a contiguous array is checked in place
    cases = [(lambda a: Field(grid, a).values, v, np.transpose),
             (lambda a: Field(grid, a).values, v, lambda b: b[:, ::-1]),
             (lambda a: Signal1D(a, 0.0, 0.5).samples, x, lambda b: b[::2]),
             (lambda a: TwoModeFockState(2, a).coeffs, 0.1 * c, np.transpose)]
    for build, base, view in cases:
        assert np.array_equal(build(view(base)), view(base))
        for bad in (complex(np.nan, 1), complex(1, np.nan), complex(-np.inf, 1), complex(1, np.inf)):
            poisoned = base.copy()
            poisoned.flat[0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                build(view(poisoned))


def test_integrate_gaussian_unit():
    f = sample(lambda e: np.exp(-np.abs(e) ** 2), ComplexPlaneGrid.centered(256, 8.0))
    assert abs(integrate(f, "d2_over_pi") - 1.0) <= 1e-8


def test_integrate_emhw_zero_mean():
    f = sample(lambda e: eval_wavelet(emhw(), e), ComplexPlaneGrid.centered(256, 8.0))
    assert abs(integrate(f, "d2_over_2pi")) <= 1e-8


def test_integrate_plain_unit_square():
    g = ComplexPlaneGrid.centered(41, 1.0)
    f = sample(lambda e: np.ones_like(e), g)
    assert integrate(f, "plain") == pytest.approx(4.0, rel=1e-13)


def test_integrate_unknown_measure():
    f = sample(lambda e: np.ones_like(e), ComplexPlaneGrid.centered(8, 1.0))
    with pytest.raises(ValueError):
        integrate(f, "d2")


def test_gamma_closed_forms():
    # radial Gaussian-times-polynomial against Gamma values
    g = ComplexPlaneGrid.centered(256, 8.0)
    for power, expected in [(0, 1.0), (2, 1.0), (4, 2.0), (6, 6.0)]:
        f = sample(lambda e, p=power: np.abs(e) ** p * np.exp(-np.abs(e) ** 2), g)
        assert abs(integrate(f, "d2_over_pi") - expected) <= 1e-7


def test_refinement_improves_quadrature():
    # sharp Gaussian: 32^2 on extent 8 underresolves it, 64^2 nails it
    exact = 1.0 / 8.0
    errs = []
    for n in (32, 64):
        f = sample(lambda e: np.exp(-8 * np.abs(e) ** 2),
                   ComplexPlaneGrid.centered(n, 8.0))
        errs.append(abs(integrate(f, "d2_over_pi") - exact))
    assert errs[0] / errs[1] >= 3.0


def test_scale_grid_validation():
    with pytest.raises(ValueError):
        ScaleGrid(np.array([]))
    with pytest.raises(ValueError):
        ScaleGrid(np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        ScaleGrid(np.array([1.0, 2.0, 3.0]))  # linear, not log spaced
    for bad in ([0.25, np.inf], [np.nan], [0.25, np.nan, 1.0], [np.inf]):
        with pytest.raises(ValueError, match="finite"):
            ScaleGrid(np.array(bad))
    for lo, hi in ((0.25, np.inf), (np.nan, 4.0), (0.25, np.nan)):
        with pytest.raises(ValueError):
            ScaleGrid.log_spaced(8, lo, hi)
    sg = ScaleGrid.log_spaced(64, 0.25, 4.0)
    ratios = sg.mu_values[1:] / sg.mu_values[:-1]
    assert ratios.max() - ratios.min() <= 1e-12 * ratios.max()
    assert RunConfig().scales().mu_min == pytest.approx(0.25)
    assert RunConfig().scales().mu_max == pytest.approx(4.0)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_scale_weights_constant_log_integrand(p):
    # f = mu^(p-1) makes the integrand d(ln mu): integral = ln(mu_max/mu_min)
    sg = ScaleGrid.log_spaced(33, 1.0, math.e)
    w = scale_weights(sg, p)
    val = float(np.sum(w * sg.mu_values ** (p - 1)))
    assert abs(val - 1.0) <= 1e-10


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_scale_weights_linear_integrand(p):
    # f = mu^p: integral is mu_max - mu_min; trapezoid in log mu at 200 nodes
    sg = ScaleGrid.log_spaced(200, 1.0, 1.5)
    w = scale_weights(sg, p)
    val = float(np.sum(w * sg.mu_values**p))
    assert abs(val - 0.5) <= 1e-6


def test_scale_weights_guards():
    with pytest.raises(ValueError):
        scale_weights(ScaleGrid.log_spaced(8, 1, 2), 6)
    with pytest.raises(ValueError, match="at least 2 scale nodes"):
        scale_weights(ScaleGrid(np.array([1.0])), 2)  # an EWC1 file can hold one scale
    with pytest.raises(ValueError):
        ScaleGrid.log_spaced(1, 1.0, 2.0)


def _random_field(n=12, extent=3.0, seed=0):
    rng = np.random.default_rng(seed)
    g = ComplexPlaneGrid.centered(n, extent)
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return Field(g, vals)


def test_ewg1_round_trip(tmp_path):
    f = _random_field()
    path = str(tmp_path / "f.ewg")
    write_field_ewg1(f, path)
    back = read_field_ewg1(path)
    assert back.grid == f.grid
    assert np.array_equal(back.values, f.values)


def test_ewg1_truncated(tmp_path):
    f = _random_field()
    path = str(tmp_path / "f.ewg")
    write_field_ewg1(f, path)
    data = open(path, "rb").read()
    bad = str(tmp_path / "bad.ewg")
    open(bad, "wb").write(data[:-8])
    with pytest.raises(FileFormatError):
        read_field_ewg1(bad)


def test_ewg1_bad_magic(tmp_path):
    path = str(tmp_path / "x.ewg")
    open(path, "wb").write(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FileFormatError):
        read_field_ewg1(path)


def test_csv_round_trip(tmp_path):
    f = _random_field(seed=4)
    path = str(tmp_path / "f.csv")
    write_field_csv(f, path)
    back = read_field_csv(path)
    assert back.grid.nx == f.grid.nx and back.grid.ny == f.grid.ny
    assert np.allclose(back.grid.dx, f.grid.dx, rtol=0, atol=1e-15)
    assert np.array_equal(back.values, f.values)  # repr round-trips floats


def _per_node_csv(f):
    """The original one-node-at-a-time CSV formatter, kept as the byte reference."""
    g = f.grid
    lines = ["x,y,re,im"]
    for i in range(g.nx):
        for j in range(g.ny):
            v = f.values[i, j]
            lines.append(
                f"{float(g.x[i])!r},{float(g.y[j])!r},{float(v.real)!r},{float(v.imag)!r}"
            )
    return ("\n".join(lines) + "\n").encode()


def test_csv_writer_matches_per_node_reference(tmp_path):
    grid = ComplexPlaneGrid(5, 3, -1.5, -0.1, 0.7, 0.1)  # rectangular, inexact nodes
    rng = np.random.default_rng(9)
    re = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-20, 20, (5, 3))
    im = rng.standard_normal((5, 3))
    re[0, :] = [-0.0, 5e-324, -2.2e-310]  # signed zero and subnormals
    im[1, :] = [1e300, -1e300, 0.0]
    im[4, 2] = -0.0
    values = np.empty((5, 3), dtype=complex)
    values.real, values.imag = re, im
    f = Field(grid, values)
    path = tmp_path / "f.csv"
    write_field_csv(f, str(path))
    data = path.read_bytes()
    assert data == _per_node_csv(f)
    assert b",-0.0," in data and b"5e-324" in data and b"-1e+300" in data


def test_csv_duplicate_node_rejected(tmp_path):
    # four rows, so the node count matches, but (0, 0) twice and (1, 0) absent
    path = str(tmp_path / "f.csv")
    open(path, "w").write("x,y,re,im\n0,0,1,0\n0,0,2,0\n0,1,3,0\n1,1,4,0\n")
    with pytest.raises(FileFormatError):
        read_field_csv(path)


def test_csv_bad_header(tmp_path):
    path = str(tmp_path / "f.csv")
    open(path, "w").write("a,b,c\n1,2,3\n")
    with pytest.raises(FileFormatError):
        read_field_csv(path)


def test_plane_writer_takes_planes_in_any_order_and_never_after_it_closes(tmp_path):
    grid = ComplexPlaneGrid(3, 4, -1.0, -2.0, 0.5, 0.25)
    planes = np.arange(3 * 12).reshape(3, 3, 4) * (1 + 0.5j)
    path = str(tmp_path / "p.ewg")
    with grid_module._plane_writer(path, b"head", grid, 3) as write:
        for s in (2, 0, 1):
            write(s, planes[s])
    with open(path, "rb") as fh:
        assert fh.read(4) == b"head"
        _, plane = grid_module._read_planes(fh, 4, 3, path)
        assert all(np.array_equal(plane(s), planes[s]) for s in range(3))
    # a write after the close raises, and the next file opened, which likely
    # has the closed descriptor's number, gets nothing
    with open(tmp_path / "other", "wb"):
        with pytest.raises(ValueError, match="after the file was closed"):
            write(0, planes[0])
    assert (tmp_path / "other").read_bytes() == b""
    # a non-finite plane, or one never written, leaves no file
    bad = planes[1].copy()
    bad[2, 3] = np.nan
    for s, message in [(1, "non-finite values in plane 1"), (None, "1 of 3 planes never written")]:
        with pytest.raises(ValueError, match=message):
            with grid_module._plane_writer(str(tmp_path / "q.ewg"), b"", grid, 3) as write:
                write(0, planes[0])
                write(2, planes[2])
                if s is not None:
                    write(s, bad)
    assert sorted(os.listdir(tmp_path)) == ["other", "p.ewg"]


_CSV_READ_SCRIPT = """
import resource, sys
from entwave.grid import read_field_csv
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
read_field_csv(sys.argv[1])
print(before * 1024, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
"""

# Runs _CSV_READ_SCRIPT as a grandchild, which does not inherit this process's peak.
_GRANDCHILD_SCRIPT = """
import subprocess, sys
subprocess.run([sys.executable, "-c", *sys.argv[1:]], check=True)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in kB on Linux")
def test_csv_read_peak_bounded(tmp_path):
    # 87 MB of text for a 16.8 MB field, about 30 MB of which is the interpreter and
    # numpy.  The read holds the parsed (N, 4) rows and the field; past those, it
    # grows by less than one N-long coordinate column.
    grid = ComplexPlaneGrid.centered(1024, 32.0)
    nodes = grid.nodes()
    path = tmp_path / "f.csv"
    write_field_csv(Field(grid, np.exp(-0.5 * np.abs(nodes) ** 2) * (1 + 0.3j * nodes)), str(path))
    src = os.path.dirname(os.path.dirname(os.path.abspath(entwave.__file__)))
    proc = subprocess.run([sys.executable, "-c", _GRANDCHILD_SCRIPT, _CSV_READ_SCRIPT, str(path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    before, peak = map(int, proc.stdout.split()[-2:])
    assert peak < 110e6, peak
    nodes_count = grid.nx * grid.ny
    rows, field, column = 32 * nodes_count, 16 * nodes_count, 8 * nodes_count
    assert peak - before < rows + field + column, (peak - before, rows + field + column)


def test_csv_blocks_keep_every_error(tmp_path, monkeypatch):
    # with three-line blocks every check below meets a row past the first block
    monkeypatch.setattr(grid_module, "_CSV_BLOCK_ROWS", 3)
    rows = [f"{x},{y},{x + y},{x - y}" for x in (0.0, 0.5, 1.0) for y in (0.0, 0.25, 0.5)]
    path = tmp_path / "f.csv"
    path.write_text("x,y,re,im\n" + "\n".join(rows) + "\n")
    f = read_field_csv(str(path))
    assert (f.grid.nx, f.grid.ny, f.grid.dx, f.grid.dy) == (3, 3, 0.5, 0.25)
    assert f.values[2, 1] == 1.25 + 0.75j
    cases = {
        "malformed": rows[:7] + ["1.0,0.25,x,0"] + rows[8:],
        "4 columns": rows[:6] + [r + ",0" for r in rows[6:]],
        "more than once": rows[:8] + [rows[0]],
        "not uniform": rows[:6] + [r.replace("1.0,", "1.1,", 1) for r in rows[6:]],
        "finite": rows[:8] + ["nan,0.5,0,0"],
        "full rectangular": rows[:8],
    }
    for message, lines in cases.items():
        path.write_text("x,y,re,im\n" + "\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=message):
            read_field_csv(str(path))
    # a cut inside the last row, and a bad byte past the first block
    text = "x,y,re,im\n" + "\n".join(rows)
    path.write_text(text[:-3])
    with pytest.raises(FileFormatError):
        read_field_csv(str(path))
    path.write_bytes(("x,y,re,im\n" + "\n".join(rows[:7])).encode() + b"\n\xff,0,0,0\n")
    with pytest.raises(FileFormatError, match="malformed"):
        read_field_csv(str(path))


def test_csv_that_is_not_utf8_is_a_file_format_error(tmp_path):
    # a bad byte in the header's read buffer used to escape as a bare UnicodeDecodeError
    path = tmp_path / "f.csv"
    for text in (b"x,y,re,im\n\xff,0,1,0\n", b"x,y,\xfere,im\n0,0,1,0\n"):
        path.write_bytes(text)
        with pytest.raises(FileFormatError, match=str(path)):
            read_field_csv(str(path))


def test_field_shape_and_finiteness():
    g = ComplexPlaneGrid.centered(8, 1.0)
    with pytest.raises(ValueError):
        Field(g, np.zeros((4, 4)))
    bad = np.zeros((8, 8), dtype=complex)
    bad[3, 3] = np.nan
    with pytest.raises(ValueError):
        Field(g, bad)


_UMASK_WRITE_SCRIPT = """
import os, sys
os.umask(int(sys.argv[1], 8))
from entwave.grid import ComplexPlaneGrid, Field, write_field_ewg1
write_field_ewg1(Field(ComplexPlaneGrid.centered(4, 1.0), [[0j] * 4] * 4), sys.argv[2])
"""


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("umask, mode", [("022", 0o644), ("077", 0o600)])
def test_output_mode_follows_umask(tmp_path, umask, mode):
    src = os.path.dirname(os.path.dirname(os.path.abspath(entwave.__file__)))
    path = tmp_path / "f.ewg"
    subprocess.run([sys.executable, "-c", _UMASK_WRITE_SCRIPT, umask, str(path)], check=True,
                   env={**os.environ, "PYTHONPATH": src})
    assert stat.S_IMODE(os.stat(path).st_mode) == mode
    assert os.listdir(tmp_path) == ["f.ewg"]
