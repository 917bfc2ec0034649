import contextlib
import dataclasses
import errno
import glob
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import threading
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import entwave
from entwave import ccwt, cli, fock, grid as gridmod, verify
from entwave.ccwt import (RunConfig, forward, forward_fast, inverse, read_coefficients_ewc1,
                          write_coefficients_ewc1)
from entwave.cli import load_settings, main, read_config
from entwave.errors import FileFormatError
from entwave.grid import (ComplexPlaneGrid, ScaleGrid, read_field_csv, read_field_ewg1, sample,
                          write_field_ewg1)
from entwave.verify import VerifySettings
from entwave.wavelets import c_psi_prime, emhw, laguerre_gaussian


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.output


def test_wavelet_info_emhw(runner):
    # with no flags the wavelet is RunConfig's default
    for flags in (["--kind", "emhw"], []):
        out = run_ok(runner, ["wavelet", "info", *flags])
        assert out.startswith("kind: emhw\ncoeffs: 0.5,0.5\n")
        cpsi = float(re.search(r"c_psi_prime: ([\d.eE+-]+)", out).group(1))
        assert abs(cpsi - 0.5) <= 1e-3
        assert "admissibility_defect: 0" in out


def test_wavelet_info_lg_equivalent(runner):
    out_emhw = run_ok(runner, ["wavelet", "info", "--kind", "emhw"])
    out_lg = run_ok(runner, ["wavelet", "info", "--kind", "lg", "--coeffs", "0.5,0.5"])
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("kind")]
    assert strip(out_emhw) == strip(out_lg)


def test_wavelet_info_nonadmissible(runner):
    out = run_ok(runner, ["wavelet", "info", "--kind", "lg", "--coeffs", "1,0"])
    assert "NonAdmissible" in out
    assert "admissibility_defect: 1" in out


def test_wavelet_info_order_32(runner):
    # K_n = 1/n! for n = 1..32 is admissible: sum_n (-1)^n n! K_n = 0.
    coeffs = [0.0] + [1.0 / math.factorial(n) for n in range(1, 33)]
    out = run_ok(runner, ["wavelet", "info", "--kind", "lg",
                          "--coeffs", ",".join(map(repr, coeffs))])
    assert f"c_psi_prime: {c_psi_prime(laguerre_gaussian(coeffs)):.12g}\n" in out


def test_wavelet_info_parse_failure(runner):
    result = runner.invoke(main, ["wavelet", "info", "--kind", "blob"])
    assert result.exit_code == 3


def test_fock_sample_vacuum(runner, tmp_path):
    path = str(tmp_path / "vac.ewg")
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "65",
                    "--grid-extent", "8", "--output", path])
    field = read_field_ewg1(path)
    expected = sample(lambda e: np.exp(-0.5 * np.abs(e) ** 2),
                      ComplexPlaneGrid.centered(65, 8.0))
    assert np.abs(field.values - expected.values).max() <= 1e-12


def test_fock_sample_coherent_vacuum_matches_number(runner, tmp_path):
    p1 = str(tmp_path / "n.ewg")
    p2 = str(tmp_path / "c.ewg")
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "33",
                    "--output", p1])
    run_ok(runner, ["fock", "sample", "coherent:0,0,0,0", "--grid-n", "33",
                    "--output", p2])
    f1 = read_field_ewg1(p1)
    f2 = read_field_ewg1(p2)
    assert np.abs(f1.values - f2.values).max() <= 1e-12


def test_fock_sample_number11_origin(runner, tmp_path):
    path = str(tmp_path / "n11.ewg")
    run_ok(runner, ["fock", "sample", "number:1,1", "--grid-n", "65",
                    "--grid-extent", "8", "--output", path])
    field = read_field_ewg1(path)
    assert field.values[32, 32] == pytest.approx(1.0)


def test_fock_sample_bad_state(runner, tmp_path):
    out_path = tmp_path / "x.ewg"
    # a NaN amplitude used to be reported as too large for the series cap
    for state, message in [("wigner:1", "unknown state kind"),
                           ("coherent:nan,0,0,0", "coherent amplitudes must be finite")]:
        result = runner.invoke(main, ["fock", "sample", state, "--output", str(out_path)])
        assert result.exit_code == 3, result.output
        assert message in result.output
    assert not out_path.exists()


@pytest.mark.parametrize("coeffs", ["0,0", "1e200,1e200"], ids=["zero", "overflow"])
@pytest.mark.parametrize("command", ["forward", "inverse", "info"])
def test_zero_or_overflowing_wavelet_exits_3_up_front(runner, tmp_path, command, coeffs):
    # the input file is never opened: the wavelet is refused with the other settings
    out_path = tmp_path / "out"
    args = {"forward": ["ccwt", "forward", str(tmp_path / "field.csv")],
            "inverse": ["ccwt", "inverse", str(tmp_path / "coeffs.ewc")],
            "info": ["wavelet", "info"]}[command] + ["--kind", "lg", "--coeffs", coeffs]
    if command != "info":
        args += ["--output", str(out_path)]
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "wavelet energy sum_n (n! K_n)^2 must be positive and finite" in result.output
    assert not out_path.exists()


# admissible wavelets of finite energy whose C'_psi is subnormal, or above the largest float
_SUBNORMAL_C_PSI = "1e-160,1e-160"
_OVERFLOWING_C_PSI = ",".join(["-7e153"] + ["0"] * 31 + [repr(7e153 / math.factorial(32))])


@pytest.mark.parametrize("coeffs", [_SUBNORMAL_C_PSI, _OVERFLOWING_C_PSI],
                         ids=["subnormal", "overflow"])
@pytest.mark.parametrize("command", ["forward", "info"])
def test_out_of_range_c_psi_prime_exits_3_up_front(runner, tmp_path, command, coeffs):
    # refused with the other settings: the input file does not exist and is never opened
    out_path = tmp_path / "out"
    args = {"forward": ["ccwt", "forward", str(tmp_path / "field.csv"),
                        "--output", str(out_path)],
            "info": ["wavelet", "info"]}[command] + ["--kind", "lg", f"--coeffs={coeffs}"]
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "is not a finite normal float" in result.output
    assert "kind:" not in result.output
    assert not out_path.exists()


def test_ccwt_engines_agree_via_files(runner, tmp_path):
    vac = str(tmp_path / "vac.ewg")
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "48",
                    "--grid-extent", "8", "--output", vac])
    out_fft = str(tmp_path / "fft.ewc")
    out_dir = str(tmp_path / "dir.ewc")
    common = [vac, "--scales", "6", "--mu-min", "0.5", "--mu-max", "2"]
    run_ok(runner, ["ccwt", "forward"] + common + ["--engine", "fft",
                    "--output", out_fft])
    run_ok(runner, ["ccwt", "forward"] + common + ["--engine", "direct",
                    "--output", out_dir])
    a = read_coefficients_ewc1(out_fft)
    b = read_coefficients_ewc1(out_dir)
    assert np.abs(a.values - b.values).max() <= 1e-10 * np.abs(b.values).max()


def test_ccwt_round_trip_report(runner, tmp_path):
    vac = str(tmp_path / "vac.ewg")
    coeff = str(tmp_path / "c.ewc")
    rec = str(tmp_path / "rec.ewg")
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "96",
                    "--grid-extent", "16", "--output", vac])
    run_ok(runner, ["ccwt", "forward", vac, "--scales", "48", "--mu-min", "0.25",
                    "--mu-max", "12", "--output", coeff])
    out = run_ok(runner, ["ccwt", "inverse", coeff, "--output", rec,
                          "--reference", vac])
    rel = float(re.search(r"reconstruction rel_l2: ([\d.eE+-]+)", out).group(1))
    assert rel <= 0.12


def test_ccwt_truncated_input(runner, tmp_path):
    bad = str(tmp_path / "bad.ewc")
    Path(bad).write_bytes(b"EWC1\x04\x00\x00\x00short")
    result = runner.invoke(main, ["ccwt", "inverse", bad,
                                  "--output", str(tmp_path / "o.ewg")])
    assert result.exit_code == 2


def test_ccwt_missing_input(runner, tmp_path):
    result = runner.invoke(main, ["ccwt", "forward", str(tmp_path / "nope.ewg"),
                                  "--output", str(tmp_path / "o.ewc")])
    assert result.exit_code == 2


@pytest.mark.parametrize("cap", ["zap", "0", "-1"])
def test_bad_thread_cap_exits_3_before_any_input_is_read(runner, tmp_path, monkeypatch, cap):
    # the cap is checked when the settings are built, so no command opens its input,
    # runs a suite or writes an output under a cap that is not a positive integer
    field = tmp_path / "field.ewg"
    write_field_ewg1(sample(lambda e: np.exp(-0.5 * np.abs(e) ** 2),
                            ComplexPlaneGrid.centered(16, 8.0)), str(field))
    reads, suites = [], []
    monkeypatch.setattr(cli, "_read_field_any", reads.append)
    monkeypatch.setattr(verify, "_SUITES", {name: (lambda settings, name=name: suites.append(name))
                                            for name in verify._SUITES})
    monkeypatch.setenv("ENTWAVE_THREADS", cap)
    out = str(tmp_path / "out")
    for args in (["ccwt", "forward", str(tmp_path / "missing.csv"), "--output", out],
                 ["ccwt", "forward", str(field), "--output", out],
                 ["ccwt", "inverse", str(tmp_path / "missing.ewc"), "--output", out],
                 ["verify", "oracles"],
                 ["fock", "sample", "number:0,0", "--grid-n", "16", "--output", out],
                 ["wavelet", "info"]):
        _assert_exits_cleanly(runner.invoke(main, args), 3,
                              f"ENTWAVE_THREADS must be a positive integer, got {cap!r}")
    assert reads == [] and suites == []
    assert list(tmp_path.iterdir()) == [field]


def _tree(root):
    """Every path under ``root`` with the bytes of each file, None for a directory."""
    return {path: None if path.is_dir() else path.read_bytes() for path in root.rglob("*")}


def _assert_exits_cleanly(result, code, message):
    """Exit ``code`` with one ``entwave:`` line holding ``message``; no traceback, no temp name."""
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"entwave: {message}" in result.output
    assert ".entwave-" not in result.output and "Traceback" not in result.output


def test_overflowing_coherent_amplitude_exits_3_and_writes_nothing(runner, tmp_path):
    # a**order overflows the float range at order 8: the series cannot converge
    out = str(tmp_path / "big.ewg")
    result = runner.invoke(main, ["fock", "sample", "coherent:1e200,0,0,0", "--grid-n", "64",
                                  "--grid-extent", "8", "--output", out])
    _assert_exits_cleanly(result, 3, "coherent amplitudes")
    _assert_no_output(out)


def test_vanishing_scales_agree_across_engines_or_exit_3(runner, tmp_path):
    # at mu_min = 1e-150 the FFT engine's smallest scales are unbanded, so both engines'
    # planes (peaks near 1e149 and 1e74) agree, with no RuntimeWarning; at 1e-300 the
    # widest lag over mu squares past the float range, so both exit 3 and write nothing
    field = str(tmp_path / "field.ewg")
    run_ok(runner, ["fock", "sample", "coherent:0.5,0,0.3,0", "--grid-n", "32",
                    "--grid-extent", "16", "--output", field])
    tiny = ["ccwt", "forward", field, "--scales", "3", "--mu-max", "1", "--mu-min"]
    planes = []
    for engine in ("fft", "direct"):
        out = str(tmp_path / f"{engine}.ewc")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_ok(runner, [*tiny, "1e-150", "--engine", engine, "--output", out])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        planes.append(read_coefficients_ewc1(out).values)
        out = str(tmp_path / f"{engine}-1e-300.ewc")
        result = runner.invoke(main, [*tiny, "1e-300", "--engine", engine, "--output", out])
        _assert_exits_cleanly(result, 3, "scale 1e-300 is too small")
        _assert_no_output(out)
    fast, direct = planes
    for a, b in zip(fast, direct):
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()
    assert np.abs(direct[0]).max() > 1e148


def test_io_errors_exit_with_their_codes_and_name_the_user_path(runner, tmp_path):
    # an output in a missing directory or at a directory exits 3, an input that
    # is a directory exits 2; each message names the user's path, and the
    # directory is left as it was
    field, adir = str(tmp_path / "f.ewg"), tmp_path / "adir"
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "8", "--output", field])
    adir.mkdir()
    missing = str(tmp_path / "missing" / "x.ewg")
    sample = ["fock", "sample", "number:0,0", "--grid-n", "8"]
    cases = [
        ([*sample, "--output", missing], 3, f"cannot write {missing}: No such file"),
        ([*sample, "--output", str(adir)], 3, f"cannot write {adir}: Is a directory"),
        ([*sample, "--format", "csv", "--output", str(adir)], 3, f"cannot write {adir}: "),
        (["ccwt", "forward", field, "--scales", "4", "--output", str(adir)], 3,
         f"cannot write {adir}: "),
        (["verify", "constants", "--output", missing], 3, f"cannot write {missing}: "),
        (["ccwt", "forward", str(adir), "--output", str(tmp_path / "c.ewc")], 2,
         f"cannot read {adir}: Is a directory"),
        (["ccwt", "inverse", str(adir), "--output", str(tmp_path / "r.ewg")], 2,
         f"cannot read {adir}: Is a directory"),
    ]
    before = _tree(tmp_path)
    for args, code, message in cases:
        _assert_exits_cleanly(runner.invoke(main, args), code, message)
        assert _tree(tmp_path) == before, args


def test_a_failed_write_exits_3_and_leaves_no_file(runner, tmp_path, monkeypatch):
    # the header is written; a plane's write, in the scale task for ccwt forward,
    # finds the disk full
    field = str(tmp_path / "f.ewg")
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "16", "--output", field])
    pwrite = os.pwrite

    def full_disk(fd, data, offset):
        if offset:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", full_disk)
    monkeypatch.setenv("ENTWAVE_THREADS", "2")
    before = _tree(tmp_path)
    for args in (["ccwt", "forward", field, "--scales", "6"],
                 ["fock", "sample", "number:0,0", "--grid-n", "16"]):
        out_path = str(tmp_path / "out")
        result = runner.invoke(main, [*args, "--output", out_path])
        _assert_exits_cleanly(result, 3, f"cannot write {out_path}: No space left on device")
        assert _tree(tmp_path) == before, args


def test_a_failed_allocation_exits_3_without_a_traceback(runner, tmp_path, monkeypatch):
    def no_memory(*args):
        raise MemoryError("Unable to allocate 1.31 TiB for an array")

    monkeypatch.setattr(fock, "state_field", no_memory)
    out_path = str(tmp_path / "x.ewg")
    result = runner.invoke(main, ["fock", "sample", "number:0,0", "--output", out_path])
    _assert_exits_cleanly(result, 3, "out of memory: Unable to allocate 1.31 TiB for an array\n")
    _assert_no_output(out_path)


def test_fock_sample_order_above_cap(runner, tmp_path):
    out_path = tmp_path / "x.ewg"
    for state in ("number:121,0", "number:5000,5000"):
        result = runner.invoke(main, ["fock", "sample", state, "--output", str(out_path)])
        assert result.exit_code == 3, result.output
        assert "exceeds the factorial-safe cutoff 120" in result.output
    assert not out_path.exists()


def test_ccwt_precondition_violation(runner, tmp_path):
    vac = str(tmp_path / "vac.ewg")
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "32",
                    "--grid-extent", "8", "--output", vac])
    result = runner.invoke(main, ["ccwt", "forward", vac, "--mu-min", "-1",
                                  "--output", str(tmp_path / "o.ewc")])
    assert result.exit_code == 3
    # non-admissible wavelet is a precondition violation too
    result = runner.invoke(main, ["ccwt", "forward", vac, "--kind", "lg",
                                  "--coeffs", "1,0",
                                  "--output", str(tmp_path / "o.ewc")])
    assert result.exit_code == 3


def test_verify_unknown_suite(runner):
    result = runner.invoke(main, ["verify", "everything"])
    assert result.exit_code == 3
    assert "usage" in result.output.lower()


def test_verify_oracles_suite(runner, tmp_path):
    csv = str(tmp_path / "report.csv")
    cfg = str(tmp_path / "cfg")
    Path(cfg).write_text("seed=20240801\n")
    out = run_ok(runner, ["verify", "oracles", "--config", cfg, "--output", csv])
    assert "FAIL" not in out
    lines = Path(csv).read_text().splitlines()
    assert lines[0] == "case,lhs_re,lhs_im,rhs_re,rhs_im,rel_error"
    assert len(lines) == 1 + 11 + 50 + 50
    for line in lines[1:]:
        for value in line.split(",")[1:]:
            float(value)


def test_verify_tolerance_failure_exit(runner, tmp_path):
    csv = str(tmp_path / "report.csv")
    cfg = str(tmp_path / "cfg")
    # mu_max = 4 truncates the scale integral beyond the 5% Parseval gate; the
    # failing rows still reach the report
    Path(cfg).write_text("grid_n=64\nscale_count=12\nmu_max=4\n")
    result = runner.invoke(main, ["verify", "parseval", "--config", cfg,
                                  "--output", csv])
    assert result.exit_code == 1, result.output
    rows = {line.split()[0]: line.split()[-1] for line in result.output.splitlines()[1:-1]}
    assert rows == dict.fromkeys(["parseval_vacuum", "parseval_mu_doubling",
                                  "parseval_orthogonal_states", "isometry_number_1_1"], "FAIL")
    assert os.path.exists(csv)


def test_verify_rejects_a_gate_in_the_config(runner, tmp_path):
    # seed 40 fails one Hermite/Laguerre row; a looser gate used to make it pass
    csv = tmp_path / "report.csv"
    cfg = _unknown_key_config(tmp_path, "seed=40\nidentity_tol=1e-9\n")
    result = runner.invoke(main, ["verify", "oracles", "--config", cfg,
                                  "--output", str(csv)])
    _assert_unknown_key_rejected(result, "identity_tol", "seed")
    assert not csv.exists()


def test_outputs_deterministic(runner, tmp_path):
    p1 = str(tmp_path / "a.ewg")
    p2 = str(tmp_path / "b.ewg")
    args = ["fock", "sample", "coherent:0.5,0,0.3,0", "--grid-n", "32",
            "--grid-extent", "8"]
    run_ok(runner, args + ["--output", p1])
    run_ok(runner, args + ["--output", p2])
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    assert not glob.glob(str(tmp_path / ".entwave-*"))


def test_config_flag_precedence(runner, tmp_path):
    vac = str(tmp_path / "vac.ewg")
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "32",
                    "--grid-extent", "8", "--output", vac])
    cfg = str(tmp_path / "cfg")
    Path(cfg).write_text("mu_min=0.5\nscales=4\n")
    out_path = str(tmp_path / "c.ewc")
    run_ok(runner, ["ccwt", "forward", vac, "--config", cfg, "--mu-min", "0.3",
                    "--output", out_path])
    coeffs = read_coefficients_ewc1(out_path)
    assert coeffs.scales.mu_min == pytest.approx(0.3)
    assert len(coeffs.scales) == 4


def _unknown_key_config(tmp_path, text):
    cfg = str(tmp_path / "cfg")
    Path(cfg).write_text(text)
    return cfg


def _assert_unknown_key_rejected(result, key, valid_key):
    assert result.exit_code == 3, result.output
    assert repr(key) in result.output
    assert valid_key in result.output


def test_ccwt_forward_rejects_unknown_config_key(runner, tmp_path):
    vac = str(tmp_path / "vac.ewg")
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "32",
                    "--grid-extent", "8", "--output", vac])
    out_path = tmp_path / "c.ewc"
    cfg = _unknown_key_config(tmp_path, "scales=4\nmu_minimum=0.5\n")
    result = runner.invoke(main, ["ccwt", "forward", vac, "--config", cfg,
                                  "--output", str(out_path)])
    _assert_unknown_key_rejected(result, "mu_minimum", "mu_min")
    assert not out_path.exists()


def test_ccwt_inverse_rejects_unknown_config_key(runner, tmp_path):
    vac = str(tmp_path / "vac.ewg")
    coeff = str(tmp_path / "c.ewc")
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "32",
                    "--grid-extent", "8", "--output", vac])
    run_ok(runner, ["ccwt", "forward", vac, "--scales", "4", "--output", coeff])
    out_path = tmp_path / "rec.ewg"
    cfg = _unknown_key_config(tmp_path, "wavelet=lg\n")
    result = runner.invoke(main, ["ccwt", "inverse", coeff, "--config", cfg,
                                  "--output", str(out_path)])
    _assert_unknown_key_rejected(result, "wavelet", "wavelet_kind")
    assert not out_path.exists()


def _forward_vacuum(runner, tmp_path, *flags):
    vac = str(tmp_path / "vac.ewg")
    coeff = str(tmp_path / "c.ewc")
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "32",
                    "--grid-extent", "8", "--output", vac])
    run_ok(runner, ["ccwt", "forward", vac, "--scales", "4", "--output", coeff, *flags])
    return vac, coeff


@pytest.mark.parametrize("text, key", [
    ("engine=bogus\n", "engine"),
    ("wavelet_kind=emhw\ngrid_n=7\n", "grid_n"),
], ids=["engine", "grid_n"])
def test_ccwt_inverse_rejects_forward_only_config_key(runner, tmp_path, text, key):
    # valid for ccwt forward, but the inverse never reads them
    _, coeff = _forward_vacuum(runner, tmp_path)
    out_path = tmp_path / "rec.ewg"
    cfg = _unknown_key_config(tmp_path, text)
    result = runner.invoke(main, ["ccwt", "inverse", coeff, "--config", cfg,
                                  "--output", str(out_path)])
    _assert_unknown_key_rejected(result, key, "wavelet_coeffs")
    assert not out_path.exists()


def test_ccwt_inverse_accepts_wavelet_config(runner, tmp_path):
    _, coeff = _forward_vacuum(runner, tmp_path, "--kind", "lg", "--coeffs", "0.25,0.25")
    by_flags = tmp_path / "flags.ewg"
    by_config = tmp_path / "config.ewg"
    run_ok(runner, ["ccwt", "inverse", coeff, "--kind", "lg", "--coeffs", "0.25,0.25",
                    "--output", str(by_flags)])
    cfg = _unknown_key_config(tmp_path, "wavelet_kind=lg\nwavelet_coeffs=0.25,0.25\n")
    run_ok(runner, ["ccwt", "inverse", coeff, "--config", cfg, "--output", str(by_config)])
    assert by_config.read_bytes() == by_flags.read_bytes()


def test_verify_rejects_unknown_config_key(runner, tmp_path):
    csv = tmp_path / "report.csv"
    # a misspelt tolerance used to run at the default tolerance and exit 0
    cfg = _unknown_key_config(tmp_path, "seed=2\ntheorem_tolerance=1e-9\n")
    result = runner.invoke(main, ["verify", "constants", "--config", cfg,
                                  "--output", str(csv)])
    _assert_unknown_key_rejected(result, "theorem_tolerance", "seed")
    assert not csv.exists()


def test_verify_rejects_unknown_engine(runner, tmp_path):
    # engine=FFT used to run the direct engine without a word
    csv = tmp_path / "report.csv"
    cfg = _unknown_key_config(tmp_path, "grid_n=32\nscale_count=4\nengine=FFT\n")
    result = runner.invoke(main, ["verify", "parseval", "--config", cfg,
                                  "--output", str(csv)])
    assert result.exit_code == 3, result.output
    assert "unknown engine 'FFT'" in result.output
    assert not csv.exists()


def test_ccwt_forward_rejects_unknown_engine_config(runner, tmp_path):
    # the same schema as verify validates it, so both commands exit 3
    vac = str(tmp_path / "vac.ewg")
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "32",
                    "--grid-extent", "8", "--output", vac])
    out_path = tmp_path / "c.ewc"
    cfg = _unknown_key_config(tmp_path, "scales=4\nengine=FFT\n")
    result = runner.invoke(main, ["ccwt", "forward", vac, "--config", cfg,
                                  "--output", str(out_path)])
    assert result.exit_code == 3, result.output
    assert "unknown engine 'FFT'" in result.output
    assert not out_path.exists()


def test_command_config_key_sets():
    # one run-settings schema; each command keeps its own keys
    run_keys = [f.name for f in dataclasses.fields(RunConfig)]
    assert run_keys == ["grid_n", "grid_extent", "scale_count", "mu_min", "mu_max", "engine",
                        "wavelet_kind", "wavelet_coeffs"]
    assert cli._FORWARD_KEYS == [*run_keys[2:], "scales"]
    assert cli._INVERSE_KEYS == ["wavelet_kind", "wavelet_coeffs"]
    # verify takes the transform under test and the oracle seed; its gates are fixed
    verify_keys = [f.name for f in dataclasses.fields(VerifySettings)]
    assert verify_keys == run_keys + ["seed"]
    assert (RunConfig().mu_max, VerifySettings().mu_max) == (4.0, 16.0)


def test_config_line_without_equals_names_path_and_line(runner, tmp_path):
    cfg = _unknown_key_config(tmp_path, "# comment\n\noracle_draws=2\noracle_tol 1e-6\n")
    with pytest.raises(FileFormatError, match=re.escape(f"{cfg}:4: expected key=value")):
        read_config(cfg)
    result = runner.invoke(main, ["verify", "oracles", "--config", cfg])
    assert result.exit_code == 2, result.output
    assert f"{cfg}:4: expected key=value" in result.output


@pytest.mark.parametrize("command, bad", [
    ("forward", "mu_min=abc"),
    ("inverse", "wavelet_coeffs=a,b"),
    ("verify", "grid_n=abc"),
])
def test_config_kind_case_and_bad_value(runner, tmp_path, command, bad):
    vac, coeff = _forward_vacuum(runner, tmp_path)
    out_path = str(tmp_path / "out")
    args, extra = {
        "forward": (["ccwt", "forward", vac, "--output", out_path], "scales=4\n"),
        "inverse": (["ccwt", "inverse", coeff, "--output", out_path], ""),
        "verify": (["verify", "oracles", "--output", out_path], ""),
    }[command]
    cfg = _unknown_key_config(tmp_path, extra + "wavelet_kind=EMHW\n")
    run_ok(runner, args + ["--config", cfg])
    cfg = _unknown_key_config(tmp_path, bad + "\n")
    result = runner.invoke(main, args + ["--config", cfg])
    key, _, value = bad.partition("=")
    assert result.exit_code == 3, result.output
    assert f"{key} has bad value {value!r}" in result.output


@pytest.mark.parametrize("command, flags, line, message", [
    ("forward", ["--engine", "FFT"], "engine=FFT", "unknown engine 'FFT'; choose direct or fft"),
    ("forward", ["--scales", "abc"], "scale_count=abc", "scale_count has bad value 'abc'"),
    ("forward", ["--mu-min", "x"], "mu_min=x", "mu_min has bad value 'x'"),
    ("forward", ["--kind", "lg", "--coeffs", "a,b"], "wavelet_coeffs=a,b",
     "wavelet_coeffs has bad value 'a,b'"),
    ("inverse", ["--kind", "lg", "--coeffs", "a,b"], "wavelet_coeffs=a,b",
     "wavelet_coeffs has bad value 'a,b'"),
    ("fock", ["--grid-n", "x"], None, "grid_n has bad value 'x'"),
    ("info", ["--kind", "lg", "--coeffs", "a,b"], None, "wavelet_coeffs has bad value 'a,b'"),
], ids=["engine", "scales", "mu_min", "forward_coeffs", "inverse_coeffs", "grid_n", "info"])
def test_bad_setting_flag_exits_3_like_its_config_line(runner, tmp_path, command, flags, line,
                                                       message):
    # a flag is cast and checked by the same loader as its config line; wavelet info
    # reads --coeffs as ccwt forward does
    field, coeff = _small_coefficients(runner, tmp_path)
    out_path = str(tmp_path / "out")
    args = {"forward": ["ccwt", "forward", field, "--output", out_path],
            "inverse": ["ccwt", "inverse", coeff, "--output", out_path],
            "fock": ["fock", "sample", "number:0,0", "--output", out_path],
            "info": ["wavelet", "info"]}[command]
    results = [runner.invoke(main, args + flags)]
    if line is not None:
        cfg = _unknown_key_config(tmp_path, line + "\n")
        results.append(runner.invoke(main, args + ["--config", cfg]))
    for result in results:
        assert result.exit_code == 3, result.output
        assert result.output == f"entwave: {message}\n"
        _assert_no_output(out_path)


def _setting_values():
    """Random valid values of the settings fields, any subset of them, and a wavelet."""
    hints = typing.get_type_hints(VerifySettings)
    generic = {int: st.integers(2, 4096), float: st.floats(1e-3, 1e3)}
    fields = {name: generic[hint] for name, hint in hints.items() if hint in generic}
    # the scale range must increase
    fields.update(mu_min=st.floats(1e-3, 0.2), mu_max=st.floats(20.0, 64.0),
                  engine=st.sampled_from(["direct", "fft"]))
    wavelet = st.one_of(
        st.tuples(st.sampled_from(["emhw", "EMHW"]), st.sampled_from([(), (0.5, 0.5)])),
        st.tuples(st.sampled_from(["lg", "Lg"]),
                  st.lists(st.floats(-10, 10), min_size=1, max_size=6).map(tuple)),
    )
    return st.tuples(st.fixed_dictionaries({}, optional=fields), wavelet)


def _as_text(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


@pytest.mark.parametrize("cls", [RunConfig, VerifySettings])
@settings(max_examples=60, deadline=None)
@given(drawn=_setting_values())
# admissible, but its energy and C'_psi are subnormal
@example(drawn=({}, ("lg", (5.207194176108839e-160, 5.207194176108839e-160))))
def test_loader_round_trips_config_text(cls, drawn):
    values, (kind, coeffs) = drawn
    hints = typing.get_type_hints(cls)
    values = {key: value for key, value in values.items() if key in hints}
    values.update(wavelet_kind=kind, wavelet_coeffs=coeffs)
    text = "".join(f"{key}={_as_text(value)}\n" for key, value in values.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg")
        with open(path, "w") as fh:
            fh.write(text)
        energy = sum((math.factorial(n) * c) ** 2 for n, c in enumerate(coeffs))
        try:
            expected = cls(**values)
        except ValueError as exc:
            # zero K_n, or K_n so small that the energy underflows, make no wavelet, or
            # an admissible one whose C'_psi is not a normal float; the settings refuse
            # them with the same error whichever way they are built.  C'_psi is at least
            # 0.14 x the energy for up to six K_n, so only an energy below 1.6e-307 can
            # make it subnormal
            assert kind.lower() == "lg" and energy < 1e-300, values
            assert re.search("must be positive and finite|is not a finite normal float",
                             str(exc)), exc
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                load_settings(cls, read_config(path))
        else:
            assert kind.lower() != "lg" or energy > 0, values
            assert load_settings(cls, read_config(path)) == expected


def test_csv_field_output(runner, tmp_path):
    path = str(tmp_path / "f.csv")
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "17",
                    "--grid-extent", "6", "--output", path, "--format", "csv"])
    assert Path(path).read_text().split("\n", 1)[0] == "x,y,re,im"


def test_field_writers_are_looked_up_when_the_command_runs(runner, tmp_path, monkeypatch):
    # a wrapper put on the grid module's attribute, as a tracer puts one, sees every write
    seen = []

    def wrap(name):
        original = getattr(gridmod, name)

        def recording(field, path):
            seen.append((name, os.path.basename(path)))
            return original(field, path)

        monkeypatch.setattr(gridmod, name, recording)

    wrap("write_field_csv")
    wrap("write_field_ewg1")
    field, coeff = str(tmp_path / "f.csv"), str(tmp_path / "c.ewc")
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "16", "--grid-extent", "8",
                    "--format", "csv", "--output", field])
    run_ok(runner, ["ccwt", "forward", field, "--scales", "3", "--output", coeff])
    run_ok(runner, ["ccwt", "inverse", coeff, "--format", "csv", "--output", tmp_path / "r.csv"])
    run_ok(runner, ["ccwt", "inverse", coeff, "--output", tmp_path / "r.ewg"])
    assert seen == [("write_field_csv", "f.csv"), ("write_field_csv", "r.csv"),
                    ("write_field_ewg1", "r.ewg")]


@pytest.mark.parametrize("text, key", [
    ("grid_n=7\ngrid_extent=99\nscales=4\n", "grid_n"),
    ("grid_extent=99\nscales=4\n", "grid_extent"),
], ids=["grid_n", "grid_extent"])
def test_ccwt_forward_rejects_grid_config_key(runner, tmp_path, text, key):
    # the grid comes from the input file; these keys used to be silent no-ops
    vac = str(tmp_path / "vac.ewg")
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "32",
                    "--grid-extent", "8", "--output", vac])
    out_path = tmp_path / "c.ewc"
    cfg = _unknown_key_config(tmp_path, text)
    result = runner.invoke(main, ["ccwt", "forward", vac, "--config", cfg,
                                  "--output", str(out_path)])
    _assert_unknown_key_rejected(result, key, "mu_min")
    assert "valid keys: engine, mu_max, mu_min, scale_count, scales" in result.output
    assert not out_path.exists()


def test_verify_bad_scan_state_fails_before_any_suite(runner, tmp_path, monkeypatch):
    called = []
    spies = {name: (lambda settings, name=name: called.append(name) or [])
             for name in verify._SUITES}
    monkeypatch.setattr(verify, "_SUITES", spies)
    csv = tmp_path / "report.csv"
    # the suites' gates and grids are fixed, so a config naming one is refused
    removed = ["theorem_tol", "doubling_tol", "ortho_tol", "oracle_tol", "identity_tol",
               "window_lo", "window_hi", "ratio_max", "scan_states", "scan_mu_min",
               "scan_mu_max", "scan_scale_count", "kernel_grid_n", "kernel_grid_extent",
               "kernel_mu_max", "kernel_scale_count", "kernel_separation", "kernel_sep_frac",
               "kernel_growth_min", "oracle_draws", "identity_max_order"]
    bad = {f"{key}=1": f"unknown config key {key!r}" for key in removed}
    bad.update({"scan_states=number:0,0": "unknown config key 'scan_states'",
                "grid_n=1": "grid needs at least 2 nodes per axis",
                # the mu-doubling grid would reach mu_max * 2 = inf
                "mu_max=1e308": "require 0 < mu_min < mu_max < inf"})
    for line, message in bad.items():
        cfg = _unknown_key_config(tmp_path, line + "\n")
        result = runner.invoke(main, ["verify", "all", "--config", cfg, "--output", str(csv)])
        assert result.exit_code == 3, (line, result.output)
        assert message in result.output, line
        assert called == [] and not csv.exists()


def test_fock_sample_one_node_grid_exits_3(runner, tmp_path):
    out = tmp_path / "g.ewg"
    result = runner.invoke(main, ["fock", "sample", "number:0,0", "--grid-n", "1",
                                  "--output", str(out)])
    assert result.exit_code == 3, result.output
    assert "grid needs at least 2 nodes per axis" in result.output
    assert not out.exists()


def test_text_input_that_is_not_utf8_exits_2(runner, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed=\xff\xfe\n")
    with pytest.raises(FileFormatError, match=str(cfg)):
        read_config(str(cfg))
    result = runner.invoke(main, ["verify", "oracles", "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert str(cfg) in result.output
    field = tmp_path / "f.csv"
    field.write_bytes(b"x,y,re,im\n\xff,0,1,0\n")
    out = tmp_path / "c.ewc"
    result = runner.invoke(main, ["ccwt", "forward", str(field), "--output", str(out)])
    assert result.exit_code == 2, result.output
    assert str(field) in result.output and not out.exists()


def _small_coefficients(runner, tmp_path):
    field = str(tmp_path / "f.ewg")
    coeff = str(tmp_path / "c.ewc")
    run_ok(runner, ["fock", "sample", "coherent:0.3,0.1,0,0.2", "--grid-n", "16",
                    "--grid-extent", "8", "--output", field])
    run_ok(runner, ["ccwt", "forward", field, "--scales", "3", "--output", coeff])
    return field, coeff


def _assert_no_output(path):
    assert not os.path.exists(path)
    assert not glob.glob(os.path.join(os.path.dirname(path), ".entwave-*"))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_truncated_ewc1_is_a_file_format_error(data):
    # An EWC1 file and the EWG1 field it came from share one plane reader:
    # cut anywhere, or with an inf or NaN in any value, each is refused.
    with tempfile.TemporaryDirectory() as tmp:
        runner = CliRunner()
        field, coeff = _small_coefficients(runner, Path(tmp))
        path, read, command = data.draw(st.sampled_from(
            [(coeff, read_coefficients_ewc1, "inverse"), (field, read_field_ewg1, "forward")]))
        whole = Path(path).read_bytes()
        cut = data.draw(st.integers(0, len(whole) - 1), label="cut")
        # the planes end the file: 16 x 16 values each, 3 for the coefficients, 1 for the field
        back = data.draw(st.integers(1, 2 * 256 * (3 if path == coeff else 1)), label="double")
        poison = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        poisoned = bytearray(whole)
        poisoned[len(whole) - 8 * back:len(whole) - 8 * (back - 1)] = struct.pack("<d", poison)
        for bad_bytes, message in ((whole[:cut], None), (bytes(poisoned), "non-finite")):
            bad = os.path.join(tmp, "bad")
            with open(bad, "wb") as fh:
                fh.write(bad_bytes)
            with pytest.raises(FileFormatError, match=message):
                read(bad)
            out_path = os.path.join(tmp, "out")
            result = runner.invoke(main, ["ccwt", command, bad, "--output", out_path])
            assert result.exit_code == 2, result.output
            assert message is None or message in result.output and bad in result.output
            _assert_no_output(out_path)


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("role", ["input", "reference"])
def test_cut_ewg1_magic_is_a_truncated_header(runner, tmp_path, role, size):
    # a cut of the magic is a cut EWG1 file, not a malformed CSV one
    field, coeff = _small_coefficients(runner, tmp_path)
    bad = tmp_path / "cut.ewg"
    bad.write_bytes(Path(field).read_bytes()[:size])
    out_path = str(tmp_path / "out")
    args = {"input": ["ccwt", "forward", str(bad)],
            "reference": ["ccwt", "inverse", coeff, "--reference", str(bad)]}[role]
    result = runner.invoke(main, args + ["--output", out_path])
    assert result.exit_code == 2, result.output
    assert f"entwave: {bad}: truncated EWG1 header\n" in result.output
    _assert_no_output(out_path)
    assert "wrote" not in result.output


def test_inverse_reads_and_checks_the_reference_before_any_work(runner, tmp_path):
    # a missing reference, or one on another grid, fails before the inverse runs or writes
    _, coeff = _small_coefficients(runner, tmp_path)
    other = str(tmp_path / "other.ewg")
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "17", "--grid-extent", "8",
                    "--output", other])
    missing = str(tmp_path / "missing.ewg")
    out_path = str(tmp_path / "out")
    for reference, code, message in (
            (missing, 2, f"entwave: cannot read {missing}: No such file or directory\n"),
            (other, 3, "entwave: reference grid does not match the reconstruction grid\n")):
        result = runner.invoke(main, ["ccwt", "inverse", coeff, "--reference", reference,
                                      "--output", out_path])
        assert result.exit_code == code, result.output
        assert result.output == message
        _assert_no_output(out_path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_ccwt_inverse_non_finite_last_plane(runner, tmp_path, value):
    _, coeff = _small_coefficients(runner, tmp_path)
    data = bytearray(Path(coeff).read_bytes())
    data[-16:] = np.array([complex(1.0, value)], dtype="<c16").tobytes()
    Path(coeff).write_bytes(bytes(data))
    for threads in ("1", "4"):
        out_path = str(tmp_path / "rec.ewg")
        result = runner.invoke(main, ["ccwt", "inverse", coeff, "--output", out_path],
                               env={"ENTWAVE_THREADS": threads})
        assert result.exit_code == 2, result.output
        assert "non-finite" in result.output
        _assert_no_output(out_path)


def test_non_finite_plane_in_mid_stream_leaves_no_file(runner, tmp_path, monkeypatch):
    # Plane 3 of 40 is NaN.  Its task fails while task 4 runs; task 4, held
    # until task 3 has raised, still writes its plane before the call returns
    # and the file is closed, so no task outlives the failed call.
    monkeypatch.setenv("ENTWAVE_THREADS", "2")
    field = str(tmp_path / "f.ewg")
    run_ok(runner, ["fock", "sample", "coherent:0.3,0.1,0,0.2", "--grid-n", "48",
                    "--grid-extent", "8", "--output", field])
    args = ["ccwt", "forward", field, "--scales", "40", "--mu-min", "0.3", "--mu-max", "6"]
    started, raised, closed, written = (threading.Event(), threading.Event(),
                                        threading.Event(), [])
    axis_spectra, blocks = ccwt._axis_spectra, ccwt._FFTRun.blocks
    plane_writer = ccwt._plane_writer

    def nan_axis_spectra(*args):
        table = axis_spectra(*args)
        table[3] = np.nan
        return table

    def held_blocks(run, i, c, block, spans):
        if run.scales[i] == 3:
            started.wait(30)
        elif run.scales[i] == 4:
            started.set()
            raised.wait(30)
        return blocks(run, i, c, block, spans)

    @contextlib.contextmanager
    def watched_plane_writer(*args):
        try:
            with plane_writer(*args) as write:
                def watched(s, plane):
                    try:
                        write(s, plane)
                    except ValueError:
                        if s == 3:
                            raised.set()
                        raise
                    written.append((s, closed.is_set()))

                yield watched
        finally:
            closed.set()

    before = _tree(tmp_path)
    out_path = str(tmp_path / "c.ewc")
    monkeypatch.setattr(ccwt, "_axis_spectra", nan_axis_spectra)
    monkeypatch.setattr(ccwt._FFTRun, "blocks", held_blocks)
    monkeypatch.setattr(ccwt, "_plane_writer", watched_plane_writer)
    result = runner.invoke(main, [*args, "--output", out_path])
    assert result.exit_code == 3, result.output
    assert "non-finite values in plane 3" in result.output
    assert (4, False) in written, written
    _assert_no_output(out_path)
    assert _tree(tmp_path) == before
    monkeypatch.undo()
    monkeypatch.setenv("ENTWAVE_THREADS", "2")
    run_ok(runner, [*args, "--output", out_path])
    monkeypatch.setenv("ENTWAVE_THREADS", "1")
    run_ok(runner, [*args, "--output", tmp_path / "serial.ewc"])
    assert Path(out_path).read_bytes() == (tmp_path / "serial.ewc").read_bytes()


@pytest.mark.parametrize("threads", ["1", "4"])
@pytest.mark.parametrize("engine", ["fft", "direct"])
def test_streamed_cli_matches_cube_functions(runner, tmp_path, monkeypatch, engine, threads):
    monkeypatch.setenv("ENTWAVE_THREADS", threads)
    field_path = str(tmp_path / "f.csv")
    run_ok(runner, ["fock", "sample", "coherent:0.4,-0.1,0.2,0.3", "--grid-n", "24",
                    "--grid-extent", "9", "--format", "csv", "--output", field_path])
    coeff, rec = str(tmp_path / "c.ewc"), str(tmp_path / "rec.ewg")
    run_ok(runner, ["ccwt", "forward", field_path, "--scales", "5", "--mu-min", "0.4",
                    "--mu-max", "3", "--engine", engine, "--output", coeff])
    run_ok(runner, ["ccwt", "inverse", coeff, "--output", rec])

    w, scales = emhw(), ScaleGrid.log_spaced(5, 0.4, 3.0)
    run = forward_fast if engine == "fft" else forward
    cube = run(read_field_csv(field_path), w, scales)
    ref_coeff, ref_rec = str(tmp_path / "ref.ewc"), str(tmp_path / "ref.ewg")
    write_coefficients_ewc1(cube, ref_coeff)
    write_field_ewg1(inverse(cube, w, c_psi_prime(w)), ref_rec)
    assert Path(coeff).read_bytes() == Path(ref_coeff).read_bytes()
    assert Path(rec).read_bytes() == Path(ref_rec).read_bytes()


_PEAK_RSS_SCRIPT = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "entwave.cli", *sys.argv[1:]], check=True,
               stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024)
"""


def _peak_rss_bytes(tmp_path, *args):
    """Peak resident set of one ``entwave`` command, in bytes (Linux kB units).

    The command runs as a grandchild: a process forked from this large
    test process would inherit its peak through fork and exec.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(entwave.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_SCRIPT, *map(str, args)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in kB on Linux")
def test_cli_round_trip_peak_below_cube(tmp_path):
    n, count = 256, 192
    cube_bytes = count * n * n * 16  # 201 MB
    field, coeff = tmp_path / "f.ewg", tmp_path / "c.ewc"
    _peak_rss_bytes(tmp_path, "fock", "sample", "number:0,0", "--grid-n", n,
                    "--grid-extent", 32, "--output", field)
    forward_peak = _peak_rss_bytes(tmp_path, "ccwt", "forward", field, "--scales", count,
                                   "--mu-min", 0.25, "--mu-max", 32, "--output", coeff)
    assert os.path.getsize(coeff) > cube_bytes
    inverse_peak = _peak_rss_bytes(tmp_path, "ccwt", "inverse", coeff,
                                   "--output", tmp_path / "rec.ewg")
    assert forward_peak < cube_bytes, forward_peak
    assert inverse_peak < cube_bytes, inverse_peak


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in kB on Linux")
def test_fock_sample_peak_bounded(tmp_path):
    # The 1024^2 field is 16.8 MB; an (order, points) scratch over the whole grid takes 20x that.
    peak = _peak_rss_bytes(tmp_path, "fock", "sample", "coherent:0.4,0.1,-0.2,0.3", "--grid-n",
                           1024, "--grid-extent", 32, "--output", tmp_path / "f.ewg")
    assert peak < 200e6, peak


def test_cli_imports_no_scipy():
    code = ("import sys; from entwave.cli import main; "
            "main(['wavelet', 'info'], standalone_mode=False); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(entwave.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert "c_psi_prime: 0.5" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"


def test_nonfinite_wavelet_coefficients_fail_before_any_transform(runner, tmp_path,
                                                                  monkeypatch):
    field, coeff = _small_coefficients(runner, tmp_path)
    calls = []
    for name in ("_forward_planes", "_inverse_planes"):
        monkeypatch.setattr(ccwt, name, lambda *args, name=name: calls.append(name))
    out_path = str(tmp_path / "out")
    for command in (["wavelet", "info"], ["ccwt", "forward", field, "--output", out_path],
                    ["ccwt", "inverse", coeff, "--output", out_path]):
        for coeffs in ("nan,0.5", "nan,nan", "0.5,inf"):
            result = runner.invoke(main, [*command, "--kind", "lg", "--coeffs", coeffs])
            assert result.exit_code == 3, result.output
            assert "must be finite" in result.output
    assert calls == []
    _assert_no_output(out_path)


@pytest.mark.parametrize("flag, value", [("--mu-max", "inf"), ("--mu-min", "nan")])
def test_ccwt_forward_rejects_nonfinite_scale_range(runner, tmp_path, flag, value):
    field, _ = _small_coefficients(runner, tmp_path)
    out_path = str(tmp_path / "bad.ewc")
    result = runner.invoke(main, ["ccwt", "forward", field, flag, value, "--output", out_path])
    assert result.exit_code == 3, result.output
    _assert_no_output(out_path)


def _poke_nan(path, offset):
    data = bytearray(Path(path).read_bytes())
    data[offset:offset + 8] = struct.pack("<d", math.nan)
    Path(path).write_bytes(bytes(data))


def test_ccwt_inverse_nan_scale_is_a_file_format_error(runner, tmp_path):
    _, coeff = _small_coefficients(runner, tmp_path)
    _poke_nan(coeff, 8 + 8)  # second entry of the scale table after magic and count
    out_path = str(tmp_path / "rec.ewg")
    result = runner.invoke(main, ["ccwt", "inverse", coeff, "--output", out_path])
    assert result.exit_code == 2, result.output
    assert "invalid scale table" in result.output
    _assert_no_output(out_path)


@pytest.mark.parametrize("offset", [12, 28])  # x_min and dx in the EWG1 header
def test_ewg1_nan_header_is_a_file_format_error(runner, tmp_path, offset):
    field, _ = _small_coefficients(runner, tmp_path)
    _poke_nan(field, offset)
    out_path = str(tmp_path / "bad.ewc")
    result = runner.invoke(main, ["ccwt", "forward", field, "--output", out_path])
    assert result.exit_code == 2, result.output
    assert "invalid grid header" in result.output
    _assert_no_output(out_path)
