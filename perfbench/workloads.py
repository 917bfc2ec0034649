"""The benchmark's three workloads.

Each workload makes its inputs from (seed, pass index), runs one pass as a
closed loop of ops (the next op starts when the previous one returns), and
gates every op on the correctness of its output.  The program is driven
only through its public functions and the in-process CLI; the calls go
through module attributes so that a :class:`tracing.Tracer` installed
around a pass sees them.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import csv
import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from click.testing import CliRunner
from scipy.fft import next_fast_len

from entwave import ccwt, cli, fock, grid, wavelets


class OpLog:
    """Timings and failures of the ops run so far, traced when a tracer is set."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds: list[float] = []
        self.failed = 0
        self.pass_id = "0"
        self._index = 0

    def start_pass(self, pass_id: str) -> None:
        self.pass_id, self._index = pass_id, 0

    def run(self, name: str, fn, ok):
        """Time ``fn()``; the op fails if it raises or ``ok(value)`` is false.

        Returns ``(value, passed)``; ``value`` is None when ``fn`` raised.
        """
        op_id = f"{self.pass_id}:{self._index}"
        self._index += 1
        value, passed = None, False
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                value = fn()
            else:
                with self.tracer.op(op_id), self.tracer.span(name):
                    value = fn()
            passed = bool(ok(value))
        except Exception:
            traceback.print_exc()
        self.seconds.append(time.perf_counter() - t0)
        if not passed:
            self.failed += 1
            print(f"perfbench: op {op_id} ({name}) failed", file=sys.stderr)
        return value, passed


def run_cli(ops: OpLog, name: str, args: list, gate=None):
    """One in-process ``entwave`` command; it fails on a non-zero exit or a false gate."""

    def ok(result):
        if result.exit_code != 0:
            print(f"perfbench: entwave {' '.join(args)} exited {result.exit_code}:\n"
                  f"{result.output}", file=sys.stderr)
            return False
        return gate is None or gate(result.output)

    return ops.run(name, lambda: CliRunner().invoke(cli.main, [str(a) for a in args]), ok)


def _digest_files(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _cube_bytes(scales: int, n: int) -> int:
    return scales * n * n * 16


def _padded_plane_bytes(n: int) -> int:
    return next_fast_len(2 * n - 1) ** 2 * 16


def parse_rel_l2(output: str) -> float:
    for line in output.splitlines():
        if line.startswith("reconstruction rel_l2:"):
            return float(line.split(":", 1)[1])
    raise ValueError("no reconstruction report in the output")


class CliRoundtrip:
    """fock sample (CSV) -> ccwt forward -> ccwt inverse --reference."""

    name = "cli-roundtrip"
    PASS_SECONDS = 5.0  # nominal pass time on the reference machine
    GRID_N, EXTENT = 256, 32.0
    SCALES, MU_MIN, MU_MAX = 96, 0.25, 32.0
    REL_GATE = 0.05  # criterion 5's round-trip bound

    def __init__(self, work: Path):
        self.csv = work / "field.csv"
        self.ewc = work / "coeffs.ewc"
        self.rec = work / "recon.ewg"

    def inputs(self, seed: int, index: int) -> str:
        """A coherent-state descriptor with |z1|, |z2| <= 0.5."""
        rng = np.random.default_rng([seed, index])
        z = 0.5 * np.sqrt(rng.uniform(size=2)) * np.exp(2j * np.pi * rng.uniform(size=2))
        return "coherent:" + ",".join(f"{v:.6f}" for v in (z[0].real, z[0].imag,
                                                           z[1].real, z[1].imag))

    def check(self, seed: int) -> dict:
        return {}

    def warmup_inputs(self, state: str) -> str:
        return state

    def run_pass(self, state: str, ops: OpLog) -> float:
        for path in (self.csv, self.ewc, self.rec):
            path.unlink(missing_ok=True)
        run_cli(ops, "cli.fock_sample",
                ["fock", "sample", state, "--grid-n", self.GRID_N, "--grid-extent", self.EXTENT,
                 "--format", "csv", "--output", self.csv])
        run_cli(ops, "cli.ccwt_forward",
                ["ccwt", "forward", self.csv, "--scales", self.SCALES, "--mu-min", self.MU_MIN,
                 "--mu-max", self.MU_MAX, "--engine", "fft", "--output", self.ewc])
        result, _ = run_cli(ops, "cli.ccwt_inverse",
                            ["ccwt", "inverse", self.ewc, "--output", self.rec,
                             "--reference", self.csv],
                            gate=lambda out: parse_rel_l2(out) <= self.REL_GATE)
        try:
            return parse_rel_l2(result.output)
        except (AttributeError, ValueError):  # the command raised or printed no report
            return math.nan

    def output_digest(self) -> str:
        return _digest_files(self.csv, self.ewc, self.rec)

    def working_set(self) -> dict:
        return {"coefficient_cube_bytes": _cube_bytes(self.SCALES, self.GRID_N),
                "padded_plane_bytes": _padded_plane_bytes(self.GRID_N)}


class VerifyAll:
    """entwave verify all, at the program's default settings."""

    name = "verify-all"
    PASS_SECONDS = 12.0  # nominal pass time on the reference machine

    def __init__(self, work: Path):
        self.report = work / "report.csv"
        self._output = ""

    def inputs(self, seed: int, index: int) -> None:
        """None: the suites' own default draws, the same for every seed.

        A seeded oracle draw would fail on some seeds because of a known
        program defect (README.md, "Correctness gates").
        """
        return None

    def check(self, seed: int) -> dict:
        return {}

    def warmup_inputs(self, inputs: None) -> None:
        return inputs

    def run_pass(self, inputs: None, ops: OpLog) -> float:
        self.report.unlink(missing_ok=True)
        result, _ = run_cli(ops, "cli.verify", ["verify", "all", "--output", self.report],
                            gate=_all_rows_pass)
        self._output = result.output if result is not None else ""
        if not self.report.is_file():
            return math.nan
        with open(self.report, newline="") as fh:
            rows = {row["case"]: row for row in csv.DictReader(fh)}
        return float(rows["parseval_vacuum"]["rel_error"])

    def output_digest(self) -> str:
        return hashlib.sha256(self._output.encode()).hexdigest() + _digest_files(self.report)

    def working_set(self) -> dict:
        from entwave.verify import VerifySettings

        s = VerifySettings()
        return {"coefficient_cube_bytes": _cube_bytes(int(max(s.scale_count, s.scan_scale_count)),
                                                      s.grid_n),
                "padded_plane_bytes": _padded_plane_bytes(s.grid_n)}


def _all_rows_pass(output: str) -> bool:
    verdicts = [line.split()[-1] for line in output.splitlines()
                if line.endswith(("PASS", "FAIL"))]
    return bool(verdicts) and all(v == "PASS" for v in verdicts)


@dataclass(frozen=True)
class FockOp:
    cutoff: int
    coeffs: np.ndarray  # unit-norm (cutoff+1, cutoff+1) complex
    wavelet_coeffs: tuple  # admissible K_n, before normalization


class FockStates:
    """Dense random Fock states through eta_field -> forward_fast -> inverse."""

    name = "fock-states"
    PASS_SECONDS = 20.0  # nominal pass time on the reference machine
    OPS_PER_PASS = 100
    GRID_N, EXTENT = 96, 12.0
    SCALES, MU_MIN, MU_MAX = 24, 0.25, 12.0
    ENGINE_TOL = 1e-10  # criterion 9
    COHERENT_TOL = 1e-10
    GRAM_TOL = 1e-6  # criterion 10

    def __init__(self, work: Path):
        self.grid = grid.ComplexPlaneGrid.centered(self.GRID_N, self.EXTENT)
        self.scales = grid.ScaleGrid.log_spaced(self.SCALES, self.MU_MIN, self.MU_MAX)
        self._hash = hashlib.sha256()

    def inputs(self, seed: int, index: int) -> list:
        rng = np.random.default_rng([seed, index])
        # Every pass holds the same mix of cutoffs (4..10) and wavelet orders
        # (3, 4), in seeded order, so that passes do comparable work.
        cutoffs = rng.permutation(4 + np.arange(self.OPS_PER_PASS) % 7)
        orders = rng.permutation(3 + np.arange(self.OPS_PER_PASS) % 2)
        ops = []
        for cutoff, order in zip(cutoffs.tolist(), orders.tolist()):
            c = rng.normal(size=(cutoff + 1,) * 2) + 1j * rng.normal(size=(cutoff + 1,) * 2)
            c /= np.linalg.norm(c)
            # Random n! K_n for n >= 1; K_0 then makes sum (-1)^n n! K_n vanish.
            scaled = rng.uniform(-1.0, 1.0, size=order - 1)
            k0 = -sum((-1) ** n * v for n, v in enumerate(scaled, start=1))
            k = (k0,) + tuple(v / math.factorial(n) for n, v in enumerate(scaled, start=1))
            ops.append(FockOp(cutoff, c, k))
        return ops

    def _wavelet(self, op: FockOp):
        return wavelets.laguerre_gaussian(op.wavelet_coeffs).normalized()

    def _one(self, op: FockOp) -> float:
        w = self._wavelet(op)
        field = fock.TwoModeFockState(op.cutoff, op.coeffs).eta_field(self.grid)
        coefficients = ccwt.forward_fast(field, w, self.scales)
        rec = ccwt.inverse(coefficients, w, wavelets.c_psi_prime(w))
        self._hash.update(rec.values.tobytes())
        return float(np.linalg.norm(rec.values - field.values) / np.linalg.norm(field.values))

    def warmup_inputs(self, inputs: list) -> list:
        """A tenth of the pass: enough to warm every code path of an op."""
        return inputs[:self.OPS_PER_PASS // 10]

    def run_pass(self, inputs: list, ops: OpLog) -> float:
        self._hash = hashlib.sha256()
        rels = []
        for op in inputs:
            rel, passed = ops.run("op.fock_state", lambda: self._one(op), math.isfinite)
            if passed:
                rels.append(rel)
        return max(rels, default=math.nan)

    def check(self, seed: int) -> dict:
        """Once-per-run accuracy gates: name -> (measured error, bound)."""
        op = self.inputs(seed, 0)[0]
        w = self._wavelet(op)
        field = fock.TwoModeFockState(op.cutoff, op.coeffs).eta_field(self.grid)
        direct = ccwt.forward(field, w, self.scales).values
        fast = ccwt.forward_fast(field, w, self.scales).values
        engines = float(np.abs(direct - fast).max() / np.abs(direct).max())
        coherent = fock.TwoModeFockState.coherent(0.5, 0.3).eta_field(self.grid).values
        closed = fock.coherent_state_eta(0.5, 0.3, self.grid.nodes())
        gram = fock.completeness_gram(3, grid.ComplexPlaneGrid.centered(256, 8.0))  # crit. 10
        return {
            "engines_agree": (engines, self.ENGINE_TOL),
            "coherent_eta_field": (float(np.abs(coherent - closed).max()), self.COHERENT_TOL),
            "completeness_gram": (float(np.abs(gram - np.eye(16)).max()), self.GRAM_TOL),
        }

    def output_digest(self) -> str:
        return self._hash.hexdigest()

    def working_set(self) -> dict:
        return {"coefficient_cube_bytes": _cube_bytes(self.SCALES, self.GRID_N),
                "padded_plane_bytes": _padded_plane_bytes(self.GRID_N)}


WORKLOADS = {w.name: w for w in (CliRoundtrip, VerifyAll, FockStates)}
