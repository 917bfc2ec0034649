"""Uniform complex-plane grids, sampled fields, and quadrature.

Node (i, j) of a grid maps to eta = (x_min + i dx) + 1j (y_min + j dy);
field arrays are indexed ``values[i, j]`` and stored row-major in files.
All 2D integrals use the trapezoid rule; scale integrals int dmu/mu^p are
done by the trapezoid rule in log(mu).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import FileFormatError, OutputError

_MEASURES = {"d2_over_pi": 1.0 / np.pi, "d2_over_2pi": 0.5 / np.pi, "plain": 1.0}

EWG1_MAGIC = b"EWG1"
_EWG1_HEADER = struct.Struct("<4sII4d")


def _require_finite(values: np.ndarray, what: str) -> np.ndarray:
    """Complex ``values`` of any strides unchanged, or ValueError naming ``what`` on inf/NaN."""
    if not np.all(np.isfinite(np.ascontiguousarray(values).view(float))):
        raise ValueError(f"non-finite values in {what}")
    return values


def _trap_mask_1d(n: int) -> np.ndarray:
    m = np.ones(n)
    m[0] = m[-1] = 0.5
    return m


@dataclass(frozen=True)
class ComplexPlaneGrid:
    """Uniform rectangular sampling of the complex plane."""

    nx: int
    ny: int
    x_min: float
    y_min: float
    dx: float
    dy: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        if not np.all(np.isfinite([self.x_min, self.y_min, self.dx, self.dy])):
            raise ValueError("grid origin and spacing must be finite")
        if self.dx <= 0 or self.dy <= 0:
            raise ValueError("grid spacing must be positive")

    @classmethod
    def centered(cls, n: int, extent: float) -> "ComplexPlaneGrid":
        """Square grid symmetric about the origin covering [-extent, extent]^2."""
        if n < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        d = 2.0 * extent / (n - 1)
        return cls(nx=n, ny=n, x_min=-extent, y_min=-extent, dx=d, dy=d)

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.nx)

    @property
    def y(self) -> np.ndarray:
        return self.y_min + self.dy * np.arange(self.ny)

    def nodes(self) -> np.ndarray:
        """Complex node coordinates, shape (nx, ny)."""
        return self.x[:, None] + 1j * self.y[None, :]

    def trapezoid_mask(self) -> np.ndarray:
        """Trapezoid quadrature weights (1/2 on edges, 1/4 at corners)."""
        return _trap_mask_1d(self.nx)[:, None] * _trap_mask_1d(self.ny)[None, :]

    def cell_area(self) -> float:
        return self.dx * self.dy

    def same_layout(self, other: "ComplexPlaneGrid") -> bool:
        """Same node counts as ``other``, origins within 1e-12 and steps within 1e-12 relative."""
        return (
            self.nx == other.nx
            and self.ny == other.ny
            and abs(self.x_min - other.x_min) <= 1e-12
            and abs(self.y_min - other.y_min) <= 1e-12
            and abs(self.dx - other.dx) <= 1e-12 * abs(other.dx)
            and abs(self.dy - other.dy) <= 1e-12 * abs(other.dy)
        )


@dataclass(frozen=True)
class Field:
    """Complex-valued samples on a :class:`ComplexPlaneGrid`."""

    grid: ComplexPlaneGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"values shape {vals.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )
        object.__setattr__(self, "values", _require_finite(vals, "field"))

    def boundary_max(self) -> float:
        """Largest magnitude on the outermost node ring."""
        v = self.values
        return float(max(np.abs(edge).max() for edge in (v[0], v[-1], v[:, 0], v[:, -1])))


@dataclass(frozen=True)
class ScaleGrid:
    """Strictly increasing, log-spaced dilation values."""

    mu_values: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu_values, dtype=float)
        if mu.size == 0:
            raise ValueError("scale grid is empty")
        if not np.all(np.isfinite(mu) & (mu > 0)):
            raise ValueError("scales must be positive and finite")
        if mu.size > 1:
            if np.any(np.diff(mu) <= 0):
                raise ValueError("scales must be strictly increasing")
            ratios = mu[1:] / mu[:-1]
            if np.max(ratios) - np.min(ratios) > 1e-12 * np.max(ratios):
                raise ValueError("scales must be log-spaced (constant ratio)")
        object.__setattr__(self, "mu_values", mu)

    @classmethod
    def log_spaced(cls, count: int, mu_min: float, mu_max: float) -> "ScaleGrid":
        if count < 2:
            raise ValueError("scale grid needs at least 2 nodes")
        if not 0 < mu_min < mu_max < np.inf:
            raise ValueError("require 0 < mu_min < mu_max < inf")
        return cls(np.geomspace(mu_min, mu_max, count))

    @property
    def mu_min(self) -> float:
        return float(self.mu_values[0])

    @property
    def mu_max(self) -> float:
        return float(self.mu_values[-1])

    def __len__(self) -> int:
        return len(self.mu_values)


def sample(f, grid: ComplexPlaneGrid) -> Field:
    """Sample a function of a complex variable on every grid node."""
    return Field(grid, f(grid.nodes()))


def integrate(f: Field, measure: str = "d2_over_pi") -> complex:
    """Trapezoid quadrature of a field under the chosen plane measure."""
    try:
        scale = _MEASURES[measure]
    except KeyError:
        raise ValueError(f"unknown measure {measure!r}; choose from {sorted(_MEASURES)}")
    total = np.sum(f.grid.trapezoid_mask() * f.values)
    return complex(total * f.grid.cell_area() * scale)


def scale_weights(scales: ScaleGrid, power: int) -> np.ndarray:
    """Trapezoid weights in log(mu) for int_{mu_min}^{mu_max} dmu/mu^power f(mu).

    Returns w such that sum_i w_i f(mu_i) approximates the integral.  The
    supported powers are the ones appearing in the transform formulas
    (Parseval dmu/mu^3, inversion dmu/mu^4, parameter-space kernel
    dmu/mu^5, the 1D inversion dmu/mu^2, and the scale form of the
    normalization constant dmu/mu).
    """
    if power not in (1, 2, 3, 4, 5):
        raise ValueError(f"unsupported power {power}; expected one of 1, 2, 3, 4, 5")
    mu = scales.mu_values
    if mu.size < 2:
        raise ValueError("need at least 2 scale nodes")
    w = np.empty_like(mu)
    lm = np.log(mu)
    w[1:-1] = 0.5 * (lm[2:] - lm[:-2])
    w[0] = 0.5 * (lm[1] - lm[0])
    w[-1] = 0.5 * (lm[-1] - lm[-2])
    return w * mu ** (1.0 - power)


@contextlib.contextmanager
def _atomic_fd(path: str):
    """A descriptor on a new temp file beside ``path``, renamed to ``path`` if the block succeeds.

    Write-temp-then-rename keeps interrupted runs from leaving partial
    files: when the block raises, the temp file is removed.  Either way
    the descriptor is closed first.  The temp file is created with mode
    0666 less the umask, as ``open`` would create ``path``.  Any OSError
    raises OutputError naming ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".entwave-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            try:
                yield fd
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _atomic_write(path: str, buffers) -> None:
    """Write the iterable of bytes-like ``buffers`` to ``path``, in order, through a temp file.

    Contiguous arrays are written in place, without a bytes copy.
    ``buffers`` is consumed lazily, so a generator is written as it is
    produced and never held whole.
    """
    with _atomic_fd(path) as fd, open(fd, "wb", closefd=False) as fh:
        for buf in buffers:
            fh.write(buf)


def _pwrite_all(fd: int, data, offset: int) -> None:
    """Write all of the bytes-like ``data`` at ``offset``; one ``pwrite`` may write less."""
    view = memoryview(data).cast("B")
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


@contextlib.contextmanager
def _plane_writer(path: str, prefix: bytes, grid: ComplexPlaneGrid, count: int):
    """``write(s, plane)`` puts plane s of ``count`` at its offset in a file at ``path``.

    The file is ``prefix``, the EWG1 header of ``grid``, then the planes;
    only this writer and :func:`_read_planes` know the EWG1 layout.  Any
    thread may write any plane, in any order, so a plane can be written in
    the task that makes it.  Each is checked first: a non-finite plane
    raises ValueError.  The file goes through :func:`_atomic_fd`, and the
    block must write every plane.  The descriptor is used under a lock and
    let go under it before it is closed: a ``write`` after that raises and
    touches no descriptor, closed or reused.
    """
    header = _EWG1_HEADER.pack(EWG1_MAGIC, grid.nx, grid.ny, grid.x_min, grid.y_min,
                               grid.dx, grid.dy)
    start = len(prefix) + len(header)
    nbytes = grid.nx * grid.ny * 16
    lock = threading.Lock()
    missing = set(range(count))
    live = None  # the descriptor while the block runs

    def write(s: int, plane) -> None:
        data = _require_finite(np.ascontiguousarray(plane, dtype="<c16"), f"plane {s}")
        with lock:
            if live is None:
                raise ValueError(f"{path}: plane {s} came after the file was closed")
            _pwrite_all(live, data, start + s * nbytes)
            missing.discard(s)

    with _atomic_fd(path) as fd:
        _pwrite_all(fd, prefix + header, 0)
        live = fd
        try:
            yield write
        finally:
            with lock:
                live = None
        if missing:
            raise ValueError(f"{path}: {len(missing)} of {count} planes never written")


def _read_planes(fh, offset: int, count: int, path: str):
    """``(grid, plane)`` of the EWG1 header at ``offset`` in ``fh`` and its ``count`` planes.

    The file size is checked first, so a truncated file fails before any
    plane is read; bytes after the last plane are ignored.  ``plane(s)``
    reads plane s into a new array with ``os.preadv`` at its own offset, so
    threads can read planes concurrently and only those asked for are in
    memory (a memory map would count every page touched toward the resident
    set), and checks it for finiteness.
    """
    fd = fh.fileno()
    head = os.pread(fd, _EWG1_HEADER.size, offset)
    if len(head) < _EWG1_HEADER.size:
        raise FileFormatError(f"{path}: truncated EWG1 header")
    magic, nx, ny, *origin_and_steps = _EWG1_HEADER.unpack(head)
    if magic != EWG1_MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}, expected {EWG1_MAGIC!r}")
    try:
        grid = ComplexPlaneGrid(nx, ny, *origin_and_steps)
    except ValueError as exc:
        raise FileFormatError(f"{path}: invalid grid header ({exc})")
    offset += _EWG1_HEADER.size
    nbytes = nx * ny * 16
    available = os.fstat(fd).st_size - offset
    if available < count * nbytes:
        raise FileFormatError(f"{path}: truncated planes ({available} of {count * nbytes} bytes)")

    def plane(s: int) -> np.ndarray:
        values = np.empty((nx, ny), dtype="<c16")
        if os.preadv(fd, [values], offset + s * nbytes) < nbytes:
            raise FileFormatError(f"{path}: truncated plane {s}")
        try:
            return _require_finite(values, f"plane {s}")
        except ValueError as exc:
            raise FileFormatError(f"{path}: {exc}")

    return grid, plane


def write_field_ewg1(f: Field, path: str) -> None:
    """Write a field in the EWG1 binary format."""
    with _plane_writer(path, b"", f.grid, 1) as write:
        write(0, f.values)


def read_field_ewg1(path: str) -> Field:
    """Read a field from the EWG1 binary format."""
    with open(path, "rb") as fh:
        grid, plane = _read_planes(fh, 0, 1, path)
        return Field(grid, plane(0))


def write_field_csv(f: Field, path: str) -> None:
    """Write a field as CSV rows ``x,y,re,im``, one node per row (x outer)."""
    ys = [repr(y) for y in f.grid.y.tolist()]

    def chunks():
        yield b"x,y,re,im\n"
        # One row at a time: a whole field as Python floats would outweigh its array.
        for x, row in zip(f.grid.x.tolist(), f.values):
            x = repr(x)
            lines = [f"{x},{y},{a!r},{b!r}\n"
                     for y, a, b in zip(ys, row.real.tolist(), row.imag.tolist())]
            yield "".join(lines).encode()

    _atomic_write(path, chunks())


#: Lines parsed per ``np.loadtxt`` call, and rows converted per step, by :func:`read_field_csv`.
_CSV_BLOCK_ROWS = 1 << 15


def read_field_csv(path: str) -> Field:
    """Read a field from the ``x,y,re,im`` CSV layout.

    The rows are parsed a block at a time into one (N, 4) array, sized by
    the file's line ends, and go into the field a block at a time, so the
    read makes no other array of N complex values or N node indices.
    """
    with open(path, "rb") as fh:
        line_ends = sum(chunk.count(b"\n") + chunk.count(b"\r")
                        for chunk in iter(lambda: fh.read(1 << 20), b""))
    rows = np.empty((line_ends + 1, 4))
    count = 0
    with open(path, "r", encoding="utf-8") as fh:
        try:  # a UnicodeDecodeError is a ValueError, in the header as in the rows
            header = fh.readline().strip()
            if header != "x,y,re,im":
                raise FileFormatError(f"{path}: expected header 'x,y,re,im', got {header!r}")
            while line := fh.readline():
                lines = itertools.chain([line], itertools.islice(fh, _CSV_BLOCK_ROWS - 1))
                block = np.loadtxt(lines, delimiter=",", ndmin=2)
                if block.size and block.shape[1] != 4:
                    raise FileFormatError(f"{path}: expected 4 columns")
                rows[count:count + len(block)] = block
                count += len(block)
        except ValueError as exc:
            raise FileFormatError(f"{path}: malformed CSV ({exc})")
    rows = rows[:count]
    if count == 0:
        raise FileFormatError(f"{path}: expected 4 columns")
    if not np.all(np.isfinite(rows[:, :2])):
        raise FileFormatError(f"{path}: node coordinates must be finite")
    # Each block's coordinates are merged into the axes: np.unique of a whole
    # column would copy all N of its values.
    xs = ys = np.empty(0)
    for r in range(0, count, _CSV_BLOCK_ROWS):
        xs = np.union1d(xs, rows[r:r + _CSV_BLOCK_ROWS, 0])
        ys = np.union1d(ys, rows[r:r + _CSV_BLOCK_ROWS, 1])
    nx, ny = len(xs), len(ys)
    if nx * ny != count:
        raise FileFormatError(f"{path}: nodes do not form a full rectangular grid")
    for axis in (xs, ys):
        if len(axis) < 2:
            raise FileFormatError(f"{path}: need at least 2 nodes per axis")
        steps = np.diff(axis)
        if np.max(steps) - np.min(steps) > 1e-9 * np.max(steps):
            raise FileFormatError(f"{path}: grid spacing is not uniform")
    grid = ComplexPlaneGrid(nx, ny, float(xs[0]), float(ys[0]),
                            float(xs[1] - xs[0]), float(ys[1] - ys[0]))
    vals = np.empty((nx, ny), dtype=complex)
    flat = vals.reshape(-1)
    listed = np.zeros(count, dtype=bool)
    for r in range(0, count, _CSV_BLOCK_ROWS):
        part = rows[r:r + _CSV_BLOCK_ROWS]
        node = np.searchsorted(xs, part[:, 0]) * ny + np.searchsorted(ys, part[:, 1])
        listed[node] = True
        flat[node] = part[:, 2] + 1j * part[:, 3]
    # nx * ny rows list every node unless one is listed twice
    if not listed.all():
        raise FileFormatError(f"{path}: a grid node is listed more than once")
    try:
        return Field(grid, vals)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}")
