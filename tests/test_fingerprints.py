"""Output fingerprints: every path's outputs, measured against a committed record.

``tests/fingerprints.txt`` holds, for a fixed corpus made in process, one
line per output.  A plane's line is its L2 norm, its peak |W| and its
values at two fixed nodes; a line of values (a scale's pairing sums, a
verify report row's lhs and rhs) is their real and imaginary parts.
Every figure is written at 17 significant digits.  The test recomputes
the corpus and requires each figure within 1e-13 of its own size: the
norm and the peak relative to themselves, a plane's node values relative
to its peak, and a value's parts relative to its modulus.

Run this file as a script to print the table of figures that moved, and
with ``--write`` to rewrite the record once a change means to move them:

    PYTHONPATH=src python tests/test_fingerprints.py [--write]
"""
import sys
from pathlib import Path

import numpy as np

from entwave.ccwt import (CCWTCoefficients, _forward_planes, forward, forward_fast,
                          inverse)
from entwave.fock import state_field
from entwave.grid import ComplexPlaneGrid, ScaleGrid
from entwave.verify import run_suite
from entwave.wavelets import MotherWavelet, emhw

RECORD = Path(__file__).with_name("fingerprints.txt")
REL = 1e-13
# an order-4 Laguerre-Gaussian wavelet: a four-term kernel
LG4 = MotherWavelet.from_spec("lg", (0.4, 0.5, 0.2, 0.05))


def _plane(values: np.ndarray) -> tuple:
    nx, ny = values.shape
    nodes = [values[nx // 2, ny // 2], values[nx // 3, 2 * ny // 3]]
    return ("plane", [float(np.linalg.norm(values)), float(np.abs(values).max()),
                      *[float(part) for z in nodes for part in (z.real, z.imag)]])


def _values(*values) -> tuple:
    return ("values", [part for z in map(complex, values) for part in (z.real, z.imag)])


def _fields(grid: ComplexPlaneGrid, *descriptors: str) -> list:
    return [state_field(d, grid) for d in descriptors]


def corpus() -> dict:
    """name -> (kind, figures) for every output of the corpus, in a fixed order."""
    out = {}

    def planes(name: str, cube) -> None:
        for s, plane in enumerate(cube):
            out[f"{name}/s{s:02d}"] = _plane(np.asarray(plane))

    def forward_mix(name, fields, w, scales) -> list:
        # each field's planes, every input kind in one call
        made = _forward_planes(fields, w, scales, True, lambda s, made: [p.copy() for p in made])
        cubes = list(zip(*made))
        for k, cube in enumerate(cubes):
            planes(f"{name}/field{k}", cube)
        return cubes

    # FFT path at 64^2: two padded shapes, banded scales 3 and 4, unbanded the rest.
    # A packed real pair, a lone complex field and a leftover real field, whose
    # scales go in pairs.
    grid = ComplexPlaneGrid.centered(64, 8.0)
    scales = ScaleGrid.log_spaced(10, 0.25, 8.0)
    mix = _fields(grid, "number:0,0", "number:1,1", "coherent:0.5,0,0.3,0", "number:2,2")
    cubes = forward_mix("fft64", mix, emhw(), scales)
    coeffs = CCWTCoefficients(scales, grid, np.array(cubes[2]))
    out["fft64/inverse"] = _plane(inverse(coeffs, emhw(), 0.5).values)
    # the off-grid inverse: each scale a separable contraction onto another grid
    other = ComplexPlaneGrid.centered(40, 6.0)
    out["fft64/inverse-off-grid"] = _plane(inverse(coeffs, emhw(), 0.5, other).values)
    # a four-term kernel at 96^2, in several padded shapes
    grid96 = ComplexPlaneGrid.centered(96, 12.0)
    scales96 = ScaleGrid.log_spaced(6, 0.25, 12.0)
    lg4 = forward_fast(state_field("coherent:0.5,0,0.3,0", grid96), LG4, scales96)
    planes("lg4-96/forward", lg4.values)
    out["lg4-96/inverse"] = _plane(inverse(lg4, LG4, 1.0).values)
    # 192^2: an FFT run, then matrix-path runs of one and two scales, for a lone
    # complex field and a leftover real field, with their pairing sums
    grid192 = ComplexPlaneGrid.centered(192, 8.0)
    scales192 = ScaleGrid.log_spaced(16, 0.5, 24.0)
    both = _fields(grid192, "coherent:0.5,0,0.3,0", "number:1,1")
    cubes = forward_mix("mixed192", both, emhw(), scales192)
    coeffs = CCWTCoefficients(scales192, grid192, np.array(cubes[0]))
    out["mixed192/inverse"] = _plane(inverse(coeffs, emhw(), 0.5).values)
    sums = _forward_planes(both, emhw(), scales192, True, lambda s, sums: sums,
                           [(0, 0), (0, 1), (1, 1)])
    for s, row in enumerate(sums):
        out[f"mixed192/pairings/s{s:02d}"] = _values(*row)
    # every scale on the matrix path, a packed real pair
    scales_matrix = ScaleGrid.log_spaced(6, 3.0, 12.0)
    pair = _fields(grid192, "number:0,0", "number:1,1")
    cubes = forward_mix("matrix192", pair, emhw(), scales_matrix)
    coeffs = CCWTCoefficients(scales_matrix, grid192, np.array(cubes[1]))
    out["matrix192/inverse"] = _plane(inverse(coeffs, emhw(), 0.5).values)
    # the direct engine
    grid24 = ComplexPlaneGrid.centered(24, 7.5)
    direct = forward(state_field("coherent:0.5,0,0.3,0", grid24), emhw(),
                     ScaleGrid.log_spaced(4, 0.5, 4.0))
    planes("direct24/forward", direct.values)
    # Fock sampling: the Cartesian form, and a lone number state's Laguerre form
    for descriptor in ("coherent:0.5,-0.2,0.3,0.1", "number:2,1"):
        out[f"fock64/{descriptor}"] = _plane(state_field(descriptor, grid).values)
    for row in run_suite("all"):
        out[f"verify/{row.case}"] = _values(row.lhs, row.rhs)
    return out


def read_record() -> dict:
    record = {}
    for line in RECORD.read_text().splitlines():
        if line and not line.startswith("#"):
            name, kind, *figures = line.split()
            record[name] = (kind, [float(f) for f in figures])
    return record


def write_record(entries: dict) -> None:
    lines = ["# name kind figures: see tests/test_fingerprints.py"]
    lines += [" ".join([name, kind, *(f"{f:.17g}" for f in figures)])
              for name, (kind, figures) in entries.items()]
    RECORD.write_text("\n".join(lines) + "\n")


def sizes(kind: str, figures: list) -> list:
    """The size each figure's move is measured against."""
    if kind == "plane":
        return [abs(figures[0])] + [abs(figures[1])] * (len(figures) - 1)
    moduli = [abs(complex(re, im)) for re, im in zip(figures[::2], figures[1::2])]
    return [size for size in moduli for _ in range(2)]


def moves(record: dict, entries: dict) -> list:
    """``(name, index, recorded, now, move)`` for each figure that differs, move relative."""
    found = []
    for name, (kind, figures) in entries.items():
        _, recorded = record[name]
        for k, (old, new, size) in enumerate(zip(recorded, figures, sizes(kind, recorded))):
            if new != old:
                found.append((name, k, old, new, abs(new - old) / size if size else np.inf))
    return found


def test_outputs_match_their_fingerprints():
    record = read_record()
    entries = corpus()
    assert list(entries) == list(record), "the corpus and the record list other outputs"
    assert [kind for kind, _ in entries.values()] == [kind for kind, _ in record.values()]
    moved = [m for m in moves(record, entries) if not m[-1] <= REL]
    assert not moved, moved[:10]


if __name__ == "__main__":
    entries = corpus()
    if RECORD.exists():
        record = read_record()
        if list(record) != list(entries):
            print("the corpus lists other outputs than the record")
        else:
            found = moves(record, entries)
            print(f"{len(found)} of {sum(len(f) for _, f in entries.values())} figures moved")
            for name, k, old, new, move in found:
                print(f"{name:48s} {k}  {old:.17g}  {new:.17g}  {move:.2e}")
    if "--write" in sys.argv[1:]:
        write_record(entries)
        print(f"wrote {RECORD}")
