import glob
import os
import re

import numpy as np
import pytest
from click.testing import CliRunner

from entwave.ccwt import read_coefficients_ewc1
from entwave.cli import main
from entwave.grid import ComplexPlaneGrid, read_field_ewg1, sample


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.output


def test_wavelet_info_emhw(runner):
    out = run_ok(runner, ["wavelet", "info", "--kind", "emhw"])
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
    result = runner.invoke(main, ["fock", "sample", "wigner:1",
                                  "--output", str(tmp_path / "x.ewg")])
    assert result.exit_code == 3


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
    open(bad, "wb").write(b"EWC1\x04\x00\x00\x00short")
    result = runner.invoke(main, ["ccwt", "inverse", bad,
                                  "--output", str(tmp_path / "o.ewg")])
    assert result.exit_code == 2


def test_ccwt_missing_input(runner, tmp_path):
    result = runner.invoke(main, ["ccwt", "forward", str(tmp_path / "nope.ewg"),
                                  "--output", str(tmp_path / "o.ewc")])
    assert result.exit_code == 2


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
    open(cfg, "w").write("oracle_draws=4\n")
    out = run_ok(runner, ["verify", "oracles", "--config", cfg, "--output", csv])
    assert "FAIL" not in out
    lines = open(csv).read().splitlines()
    assert lines[0] == "case,lhs_re,lhs_im,rhs_re,rhs_im,rel_error"
    assert len(lines) == 1 + 11 + 4 + 4


def test_verify_tolerance_failure_exit(runner, tmp_path):
    csv = str(tmp_path / "report.csv")
    cfg = str(tmp_path / "cfg")
    # impossible tolerance forces rows to fail; the report is still written
    open(cfg, "w").write("oracle_draws=2\nidentity_tol=1e-30\noracle_tol=1e-30\n")
    result = runner.invoke(main, ["verify", "oracles", "--config", cfg,
                                  "--output", csv])
    assert result.exit_code == 1
    assert os.path.exists(csv)


def test_outputs_deterministic(runner, tmp_path):
    p1 = str(tmp_path / "a.ewg")
    p2 = str(tmp_path / "b.ewg")
    args = ["fock", "sample", "coherent:0.5,0,0.3,0", "--grid-n", "32",
            "--grid-extent", "8"]
    run_ok(runner, args + ["--output", p1])
    run_ok(runner, args + ["--output", p2])
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert not glob.glob(str(tmp_path / ".entwave-*"))


def test_config_flag_precedence(runner, tmp_path):
    vac = str(tmp_path / "vac.ewg")
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "32",
                    "--grid-extent", "8", "--output", vac])
    cfg = str(tmp_path / "cfg")
    open(cfg, "w").write("mu_min=0.5\nscales=4\n")
    out_path = str(tmp_path / "c.ewc")
    run_ok(runner, ["ccwt", "forward", vac, "--config", cfg, "--mu-min", "0.3",
                    "--output", out_path])
    coeffs = read_coefficients_ewc1(out_path)
    assert coeffs.scales.mu_min == pytest.approx(0.3)
    assert len(coeffs.scales) == 4


def _unknown_key_config(tmp_path, text):
    cfg = str(tmp_path / "cfg")
    open(cfg, "w").write(text)
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
    cfg = _unknown_key_config(tmp_path, "oracle_draws=2\ntheorem_tolerance=1e-9\n")
    result = runner.invoke(main, ["verify", "constants", "--config", cfg,
                                  "--output", str(csv)])
    _assert_unknown_key_rejected(result, "theorem_tolerance", "theorem_tol")
    assert not csv.exists()


def test_csv_field_output(runner, tmp_path):
    path = str(tmp_path / "f.csv")
    run_ok(runner, ["fock", "sample", "number:0,0", "--grid-n", "17",
                    "--grid-extent", "6", "--output", path, "--format", "csv"])
    assert open(path).readline().strip() == "x,y,re,im"
