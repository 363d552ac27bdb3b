import argparse
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from mehtalab import cli, estimation, mehta, regression, spectral, spherefield, symspace
from mehtalab.cli import (COMMON_OPTIONS, _criterion_seed, _flag, _resolve, build_parser, main, render_report,
                          run_report)
from mehtalab.symspace import read_matrices

DIAG_FIXTURE = "2\n1 0\n0 2\n"
README = Path(__file__).resolve().parent.parent / "README.md"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_json(capsys, argv):
    """Exit code and artifact of a run; the artifact must be strict (RFC 8259) JSON."""
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out, parse_constant=_reject_constant)


def _forbid(monkeypatch, *targets):
    """Make each named estimator fail the test if a run calls it."""
    def no_run(*args, **kwargs):
        raise AssertionError("an estimator ran")

    for target in targets:
        monkeypatch.setattr(target, no_run)


def _parsers():
    """Subcommand -> its subparser."""
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _runs():
    """(subcommand, mode flag, mode, options it reads, options only other modes read) of every run."""
    for command, p in _parsers().items():
        reads = p.get_default("reads")
        for mode, options in reads.items():
            yield command, p.get_default("mode_flag"), mode, options, set().union(*reads.values()) - set(options)


def _mode_argv(flag, mode):
    """The command-line words that select a mode."""
    return [] if mode in (None, False) else [f"--{flag}"] if mode is True else [f"--{flag}", mode]


class TestBasicCommands:
    def test_mehta_quadrature(self, capsys):
        rc, payload = run_json(capsys, ["mehta", "--m", "2", "--method", "quadrature"])
        assert rc == 0
        assert payload["pass"] is True
        assert payload["estimate"] == pytest.approx(7.089815, abs=1e-5)
        assert payload["reference"] == pytest.approx(7.089815, abs=1e-5)
        assert payload["config"]["command"] == "mehta"
        assert "n_samples" not in payload["config"]  # quadrature reads no n

    @pytest.mark.parametrize("m", ["4", "40"])
    def test_mehta_quadrature_outside_its_gates(self, monkeypatch, capsys, m):
        # the library runs at every m, but the CLI has a gate only for m <= 3
        _forbid(monkeypatch, "mehtalab.mehta.mehta_quadrature")
        rc = main(["mehta", "--method", "quadrature", "--m", m])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: --method quadrature supports m in {{1, 2, 3}}, got m={m}"]

    def test_mehta_closed_and_ratio(self, capsys):
        rc, payload = run_json(capsys, ["mehta", "--m", "3", "--method", "closed"])
        assert rc == 0 and payload["estimate"] == pytest.approx(26.657298, abs=1e-5)
        rc, payload = run_json(capsys, ["mehta", "--m", "1", "--method", "ratio"])
        assert rc == 0 and payload["estimate"] == pytest.approx(2.828427, abs=1e-5)

    def test_mehta_mc(self, capsys):
        rc, payload = run_json(capsys, ["mehta", "--m", "2", "--method", "mc", "--n", "20000", "--seed", "7"])
        assert rc == 0
        assert payload["pass"] is True

    def test_critpoints_fixture(self, tmp_path, capsys):
        path = tmp_path / "diag.txt"
        path.write_text(DIAG_FIXTURE)
        rc, payload = run_json(capsys, ["critpoints", str(path)])
        assert rc == 0
        assert payload["count"] == 4
        vals = sorted(p["value"] for p in payload["critical_points"])
        assert np.allclose(vals, [1.0, 1.0, 2.0, 2.0], atol=1e-9)
        for p in payload["critical_points"]:
            assert set(p) == {"point", "value", "gradient_norm", "morse_index"}

    def test_critpoints_huge_entries(self, tmp_path, capsys):
        # squaring 1e200 overflows; the degeneracy tolerance must not
        path = tmp_path / "huge.txt"
        path.write_text("2\n1e200 0\n0 -1e200\n")
        rc, payload = run_json(capsys, ["critpoints", str(path)])
        assert rc == 0
        assert payload["count"] == 4
        assert sorted(p["value"] for p in payload["critical_points"]) == [-1e200] * 2 + [1e200] * 2

    def test_eig(self, tmp_path, capsys):
        path = tmp_path / "diag.txt"
        path.write_text("3\n3 0 0\n0 1 0\n0 0 2\n")
        rc, payload = run_json(capsys, ["eig", str(path)])
        assert rc == 0
        assert np.allclose(payload["eigenvalues"], [1.0, 2.0, 3.0])
        # the echo holds exactly the options eig reads; every artifact is timed
        assert payload["config"] == {"command": "eig", "out": None}
        assert payload["wall_time_s"] >= 0.0

    def test_sample_roundtrip(self, tmp_path):
        out = tmp_path / "mats.txt"
        rc = main(["sample", "--m", "3", "--n", "4", "--seed", "3", "--out", str(out)])
        assert rc == 0
        mats = read_matrices(out)
        assert len(mats) == 4
        assert all(m.m == 3 for m in mats)

    def test_check_covariance(self, capsys):
        rc, payload = run_json(
            capsys, ["check-covariance", "--m", "3", "--v", "0.5", "--n", "20000", "--seed", "5"]
        )
        assert rc == 0
        assert payload["pass"] is True
        assert payload["result"]["n_moments"] == 21  # the distinct pairs of p = 6 coordinates

    def test_detmoment_modes(self, capsys):
        rc, payload = run_json(
            capsys, ["detmoment", "--m", "1", "--v", "0.5", "--n", "20000", "--seed", "11"]
        )
        assert rc == 0 and payload["op"] == "detmoment-integrated"
        rc, payload = run_json(
            capsys,
            ["detmoment", "--m", "1", "--v", "0.5", "--c", "0.0", "--mode", "pointwise",
             "--n", "20000", "--seed", "12"],
        )
        assert rc == 0 and payload["op"] == "detmoment-pointwise"

    def test_kacrice_interval(self, capsys):
        rc, payload = run_json(
            capsys, ["kacrice", "--m", "1", "--a", "-1", "--b", "1", "--n", "20000", "--seed", "13"]
        )
        assert rc == 0
        assert payload["comparison"]["pass"] is True

    def test_kacrice_curve_echo(self, capsys):
        # the curve reads its point count and no interval ends
        rc, payload = run_json(capsys, ["kacrice", "--curve", "--curve-points", "5", "--m", "1", "--n", "2000"])
        assert rc == 0 and len(payload["curve"]) == 5
        assert payload["config"]["curve_points"] == 5
        assert not {"a", "b"} & set(payload["config"])

    def test_kacrice_curve_levels_equal_density_calls(self, capsys):
        # one pass serves every level; each level keeps the bits of its own kacrice_density call
        n = estimation.BLOCK + 500
        rc, payload = run_json(capsys, ["kacrice", "--curve", "--curve-points", "3", "--m", "2", "--v", "0.5",
                                        "--n", str(n), "--seed", "21", "--workers", "2"])
        assert rc == 0 and len(payload["curve"]) == 3
        for point in payload["curve"]:
            res = mehta.kacrice_density(2, point["t"], 0.5, n, seed=21, workers=1)
            assert (point["rho"], point["stderr"]) == (res.estimate, res.std_error)

    def test_kacrice_past_float_range_exits_2_before_dense_draws(self, monkeypatch, capsys):
        # the Kac-Rice pass runs first and raises; the dense (m + 1)-dimensional sampler is never reached
        _forbid(monkeypatch, "mehtalab.mehta.sample_goe_batch", "mehtalab.mehta.map_goe_slabs",
                "mehtalab.spectral.map_goe_slabs")
        rc = main(["kacrice", "--m", "300", "--v", "1", "--n", "2000"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "m=300, v=1 " in err and "float range" in err

    def test_kacrice_full_line(self, capsys):
        # the unbounded ends are null, in the comparison and in the echo
        rc, payload = run_json(capsys, ["kacrice", "--m", "1", "--a=-inf", "--b=inf", "--n", "2000"])
        assert rc == 0
        assert payload["comparison"]["interval"] == [None, None]
        assert payload["config"]["a"] is None and payload["config"]["b"] is None
        assert payload["comparison"]["empirical"]["estimate"] == 4.0

    def test_regress_demo(self, capsys):
        rc, payload = run_json(
            capsys, ["regress-demo", "--m", "2", "--v", "1.0", "--n", "20000", "--seed", "14"]
        )
        assert rc == 0
        assert set(payload["regression"]) >= {"R", "Delta", "offset"}
        op = np.array(payload["regression"]["R"])
        assert op.shape == (3, 3)
        assert payload["pass"] is True


class TestCsvOutputs:
    def test_correlation_csv(self, tmp_path, capsys):
        out = tmp_path / "rho.csv"
        rc = main(["correlation", "--m", "1", "--v", "0.5", "--n", "2000", "--seed", "5",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,rho,stderr"
        assert len(lines) > 10
        err = capsys.readouterr().err
        assert "config" in err

    def test_kacrice_curve_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(["kacrice", "--m", "1", "--curve", "--curve-points", "5", "--n", "2000",
                   "--seed", "6", "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,rho,stderr"
        assert len(lines) == 6

    def test_reproduce_table_csv(self, tmp_path):
        out = tmp_path / "zm.csv"
        rc = main(["mehta", "--method", "reproduce", "--m", "2", "--n", "20000",
                   "--seed", "8", "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,estimate,std_error,reference,z_score,pass"
        assert len(lines) == 3  # one row per integral, Z_2 and Z_3


class TestExitCodes:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_bad_flag(self):
        assert main(["mehta", "--method", "sorcery"]) == 2

    def test_invalid_parameter_value(self, capsys):
        rc = main(["check-covariance", "--v", "-1.0", "--n", "100"])
        assert rc == 2
        assert "admissibility" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize("command", [["mehta", "--method", "mc"], ["correlation"]])
    def test_workers_below_one(self, capsys, command, workers):
        rc = main(command + ["--n", "2000", "--workers", workers])
        assert rc == 2
        err = [line for line in capsys.readouterr().err.splitlines()
               if not line.startswith("config:")]
        assert err == [f"error: workers must be at least 1, got {workers}"]

    @pytest.mark.parametrize("seed, env", [("-1", None), ("18446744073709551616", None), ("-1", "MEHTA_SEED")])
    def test_seed_outside_the_key_range(self, capsys, monkeypatch, seed, env):
        # a seed is one 64-bit Philox key word
        argv = ["mehta", "--method", "mc", "--n", "2000"]
        if env:
            monkeypatch.setenv(env, seed)
        else:
            argv += ["--seed", seed]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: --seed must be an integer in [0, 2^64), got {seed}"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag, extra", [("--bin-width", []),
                                             ("--bandwidth", ["--estimator", "kernel"])])
    def test_nonfinite_width(self, capsys, flag, extra, value):
        rc = main(["correlation", "--n", "2000"] + extra + [flag, value])
        assert rc == 2
        err = [line for line in capsys.readouterr().err.splitlines()
               if not line.startswith("config:")]
        name = flag[2:].replace("-", "_")
        assert err == [f"error: {name} must be a positive finite number"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--v", "nan", "v must be a positive finite number (admissibility requires v > 0), got v=nan"),
        ("--v", "inf", "v must be a positive finite number (admissibility requires v > 0), got v=inf"),
        ("--m", "0", "m must be a positive integer"),
    ])
    def test_bad_correlation_ensemble(self, capsys, flag, value, message):
        rc = main(["correlation", "--n", "2000", flag, value])
        assert rc == 2
        err = [line for line in capsys.readouterr().err.splitlines()
               if not line.startswith("config:")]
        assert err == [f"error: {message}"]

    @pytest.mark.parametrize("method", ["closed", "ratio"])
    def test_overflowing_m(self, capsys, method):
        # at m = 340 the ratio's float product overflows, past it math.gamma does
        for m in ("340", "400"):
            rc = main(["mehta", "--method", method, "--m", m])
            out, err = capsys.readouterr()
            assert rc == 2 and out == ""
            assert len(err.splitlines()) == 1
            assert err.startswith("error: parameter out of range")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("off", ["1e308", "-1e308"])
    def test_eigenvalue_outside_the_float_range(self, tmp_path, capsys, off):
        # a valid file whose top eigenvalue, 2e308, is past the float range: one line and exit 2, no NaN or Infinity
        path = tmp_path / "big.txt"
        path.write_text(f"2\n1e308 {off}\n{off} 1e308\n")
        rc = main(["eig", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: parameter out of range, the result overflows a float "
                                    "(an eigenvalue is outside the float range)"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows", [["1e308 1e308", "1e308 1e308"],
                                      ["1.7e308 0 0", "0 -1.7e308 0", "0 0 1e307"]])
    def test_critpoints_outside_the_float_range(self, tmp_path, capsys, rows):
        # critpoints agrees with eig: an eigenvalue (2e308) past the float range is one line and exit 2, with no
        # warning before it; a gap (1.8e308) past it, between finite eigenvalues, is not, as the finder searches at
        # the matrix's own scale
        path = tmp_path / "big.txt"
        path.write_text("\n".join([str(len(rows)), *rows]) + "\n")
        rc_eig = main(["eig", str(path)])
        eig_out = capsys.readouterr().out
        rc = main(["critpoints", str(path)])
        out, err = capsys.readouterr()
        assert rc == rc_eig
        if rc:
            assert out == ""
            assert err.splitlines() == ["error: parameter out of range, the result overflows a float "
                                        "(matrix 0 has a critical value outside the float range)"]
        else:
            values = [p["value"] for p in json.loads(out)["critical_points"]]
            np.testing.assert_allclose(values, np.repeat(json.loads(eig_out)["eigenvalues"], 2), rtol=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [["check-covariance", "--m", "2", "--v", "1e200", "--n", "2000"],
                                      ["regress-demo", "--m", "2", "--v", "1e200", "--n", "2000"],
                                      ["correlation", "--estimator", "kernel", "--v", "1e300", "--n", "1000"]])
    def test_spread_outside_the_float_range(self, capsys, argv):
        # infinite standard errors read every z-score as 0, a pass: one line and exit 2, with no warning before it
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: parameter out of range, the result overflows a float "
                                    "(a sum of squared deviations leaves the float range)"]

    def test_histogram_grid_outside_the_float_index_range(self, capsys):
        # 0.2-wide bins over a spectrum of width 1e150 are past any float index, not an allocation to attempt
        rc = main(["correlation", "--v", "1e300", "--n", "1000"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: bin_width 0.2 is below the grid step 1.38614e+135 at v=1e+300"]

    def test_overflowing_detmoment_reference(self, monkeypatch, capsys):
        # the reference (2v)^((m+1)/2) ratio(m) is computed before any draw
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before computing the reference")

        monkeypatch.setattr(mehta, "sample_goe_batch", no_draw)
        rc = main(["detmoment", "--m", "340", "--n", "4"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: parameter out of range, the result overflows a float "
                                    "(mehta_ratio(340) overflows a float)"]

    def test_overflowing_reproduce_reference(self, monkeypatch, capsys):
        # Z_40 overflows a float: reproduce exits 2 with one line before any draw, and no numpy
        # overflow warning from the product of the ratios
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before computing the references")

        monkeypatch.setattr(mehta, "sample_goe_tridiagonal", no_draw)
        rc = main(["mehta", "--method", "reproduce", "--m", "39", "--n", "2000"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: parameter out of range, the result overflows a float (math range error)"]

    @pytest.mark.parametrize("argv", [["kacrice", "--m", "0"], ["kacrice", "--m", "-1"],
                                      ["kacrice", "--curve", "--m", "0"], ["kacrice", "--curve", "--m", "-2"]])
    def test_inadmissible_kacrice_m(self, capsys, argv):
        rc = main(argv + ["--n", "2000"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: m must be a positive integer"]

    def test_malformed_env_value(self, monkeypatch, capsys):
        monkeypatch.setenv("MEHTA_N", "abc")
        assert main(["mehta", "--method", "mc"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid MEHTA_N='abc': invalid literal for int() with base 10: 'abc'"]

    def test_env_value_outside_choices(self, monkeypatch, capsys):
        # a MEHTA_* value meets the option's choices, as its flag does
        monkeypatch.setenv("MEHTA_FORMAT", "xml")
        assert main(["mehta", "--method", "reproduce", "--m", "2", "--n", "2000"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: invalid MEHTA_FORMAT='xml': invalid choice (choose from json, csv)"]

    @pytest.mark.parametrize("argv, message", [
        (["check-covariance", "--v", "inf"], "v must be a positive finite number"),
        (["check-covariance", "--u", "inf"], "u must be a finite number"),
        (["sample", "--v", "inf"], "v must be a positive finite number"),
        (["detmoment", "--v", "inf"], "v must be a positive finite number"),
        (["kacrice", "--v", "inf"], "v must be a positive finite number"),
        (["regress-demo", "--v", "inf"], "v must be a positive finite number"),
        (["detmoment", "--mode", "pointwise", "--c", "nan"], "c must be a finite number"),
        (["detmoment", "--mode", "pointwise", "--c", "inf"], "c must be a finite number"),
    ])
    def test_nonfinite_ensemble_parameter(self, capsys, argv, message):
        rc = main(argv + ["--n", "2000"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {message}")

    def test_missing_file(self, capsys):
        rc = main(["eig", "/nonexistent/matrix.txt"])
        assert rc == 1

    @pytest.mark.parametrize("command", ["eig", "critpoints"])
    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_nonfinite_matrix_entry(self, tmp_path, capsys, command, entry):
        # a NaN gap never exceeds the symmetry tolerance, so the entry is refused first
        path = tmp_path / "bad.txt"
        path.write_text(f"2\n1 {entry}\n{entry} 2\n")
        rc = main([command, str(path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == "error: row 0 has a non-finite entry\n"

    @pytest.mark.parametrize("argv, flag, value", [
        (["kacrice", "--curve", "--curve-points", "0"], "curve-points", "0"),
        (["kacrice", "--curve", "--curve-points", "-3"], "curve-points", "-3"),
        (["sample", "--n", "0"], "n", "0"),
        (["sample", "--n", "-1"], "n", "-1"),
        (["report", "--n", "0"], "n", "0"),
    ])
    def test_nonpositive_count(self, tmp_path, capsys, argv, flag, value):
        out_file = tmp_path / "out.txt"
        rc = main(argv + ["--out", str(out_file)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == "" and not out_file.exists()
        assert err.splitlines() == [f"error: --{flag} must be a positive integer, got {value}"]

    @pytest.mark.parametrize("argv, message", [
        (["eig", "m.txt", "--seed", "1"], "eig does not take --seed 1"),
        (["render", "r.json", "--out", "x"], "render does not take --out x"),
        (["sample", "--workers", "2"], "sample does not take --workers 2"),
        (["report", "--m", "3"], "report does not take --m 3"),
        (["mehta", "--method", "mc", "--format", "csv", "--n", "2000"],
         "mehta --method mc does not take --format"),
        (["kacrice", "--format", "csv", "--m", "3", "--n", "400000"],
         "kacrice without --curve does not take --format"),
        # no grid point within 8h of an eigenvalue would read every density value 0
        (["correlation", "--estimator", "kernel", "--bandwidth", "1e-9", "--n", "1000"],
         "bandwidth 1e-09 is below the grid step 0.00312132"),
        (["mehta", "--method", "closed", "--format", "csv"], "mehta --method closed does not take --format"),
    ])
    def test_rejected(self, monkeypatch, capsys, argv, message):
        # a run with no CSV form is refused before any estimator is called
        _forbid(monkeypatch, *(f"mehtalab.mehta.{name}" for name in
                               ("mehta_closed_form", "mehta_mc", "kacrice_vs_empirical", "kacrice_intervals")))
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("command, mode_argv, option", [
        (command, _mode_argv(flag, mode), option)
        for command, flag, mode, _, unread in _runs() for option in sorted(unread)
    ])
    def test_unread_option(self, monkeypatch, capsys, command, mode_argv, option):
        # an option another mode reads is refused, before any estimator is called
        _forbid(monkeypatch, "mehtalab.spectral.one_point_correlation", *(f"mehtalab.mehta.{name}" for name in (
            "mehta_closed_form", "mehta_ratio", "mehta_quadrature", "mehta_mc", "reproduce_zm",
            "detmoment_identity_check", "exp_det_pointwise_check", "kacrice_density", "kacrice_vs_empirical")))
        default = next(default for name, _, default, *_ in COMMON_OPTIONS if name == option)
        flag = _flag(option)
        rc = main([command, *mode_argv, f"{flag}={0.5 if default is None else default}"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {command} ") and err.endswith(f" does not take {flag}\n")

    def test_accepted_pairs(self):
        # each mode of a subcommand with a mode flag accepts the flag and the options it reads
        assert sum(len(options) + 1 for _, flag, _, options, _ in _runs() if flag) == 73
        assert {name for name, _, _, env, _ in COMMON_OPTIONS if env} == {
            "m", "v", "u", "c", "a", "b", "n", "seed", "workers", "out", "format"}

    @pytest.mark.parametrize("argv", [
        ["check-covariance"],
        ["mehta", "--method", "mc"],
        ["mehta", "--method", "reproduce"],
        ["detmoment"],
        ["detmoment", "--mode", "pointwise"],
        ["kacrice"],
        ["kacrice", "--curve"],
        ["regress-demo"],
    ])
    def test_one_draw(self, capsys, argv):
        # one draw has no standard error, so no estimator reports a verdict on it
        rc = main(argv + ["--n", "1"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: n_samples must be at least 2: one draw has no standard error"]

    def test_pointwise_m_past_the_exact_density(self, monkeypatch, capsys):
        # the reference is computed before any draw: the density of GOE(701) is exact, and the ratio overflows
        def no_run(*args, **kwargs):
            raise AssertionError("an estimator ran")

        monkeypatch.setattr(mehta, "exp_abs_det_mc", no_run)
        rc = main(["detmoment", "--mode", "pointwise", "--m", "700"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: parameter out of range, the result overflows a float "
                                    "(the pointwise reference at m=700, v=1, c=0 leaves the float range)"]

    def test_out_of_memory_exits_2(self, monkeypatch, capsys):
        # `correlation --bin-width 1e-9` asks numpy for 186 GiB of histogram edges. The estimator
        # is stood in for: on a host that overcommits memory the real allocation fills pages
        # instead of failing fast
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 186. GiB for an array with shape (24995000001,) "
                              "and data type float64")

        monkeypatch.setattr(spectral, "one_point_correlation", no_memory)
        rc = main(["correlation", "--m", "2", "--n", "1000", "--bin-width", "1e-9"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: parameter out of range, the run needs more memory than is available "
                                    "(Unable to allocate 186. GiB for an array with shape (24995000001,) "
                                    "and data type float64)"]

    @pytest.mark.parametrize("argv, names, forbidden", [
        (["detmoment", "--mode", "pointwise", "--m", "1", "--n", "2000", "--c", "1e160"], "m=1, v=1, c=1e+160",
         ["mehtalab.mehta.sample_goe_batch", "mehtalab.mehta.map_goe_slabs"]),
        (["kacrice", "--curve", "--m", "3", "--v", "1e300", "--n", "2000", "--curve-points", "3"], "m=3, v=1e+300",
         []),
        # c^2 / 4v past exp's range while c^2 is finite
        (["detmoment", "--mode", "pointwise", "--m", "1", "--n", "2000", "--c", "60"], "m=1, v=1, c=60",
         ["mehtalab.mehta.sample_goe_batch", "mehtalab.mehta.map_goe_slabs"]),
    ])
    def test_float_range_exits_2(self, monkeypatch, capsys, argv, names, forbidden):
        # one line naming the parameters, no numpy warning and no NaN artifact; the pointwise
        # reference fails before any draw
        _forbid(monkeypatch, *forbidden)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert names in err and "float range" in err


def test_lab_loads_no_scipy():
    # numpy is the lab's one runtime dependency: importing the CLI, the Pfaffian quadrature, the exact density and
    # both density estimators load no scipy module, so none of them can lean on one; the tests use scipy as a reference
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, numpy as np, mehtalab.cli; from mehtalab import mehta, spectral; "
            "mehta.mehta_quadrature(3); spectral.weyl_rhs_quadrature(lambda l: np.abs(np.prod(l - 1.0, axis=1)), 2, 1.0); "
            "spectral.goe_density(3, 1.0, np.linspace(-40.0, 40.0, 9)); "
            "[spectral.one_point_correlation(2, 0.5, 2000, estimator=e, workers=1) for e in ('histogram', 'kernel')]; "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert run.stdout == "[]\n"


@pytest.mark.parametrize("module", ["estimation", "symspace", "spectral", "regression", "spherefield", "mehta"])
def test_exports_resolve(module):
    # a stale __all__ entry would break the star import
    mod = importlib.import_module(f"mehtalab.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), name
    exec(f"from mehtalab.{module} import *", {})


class TestEnvOverrides:
    def test_seed_env(self, monkeypatch, capsys):
        monkeypatch.setenv("MEHTA_SEED", "777")
        rc, payload = run_json(capsys, ["mehta", "--m", "1", "--method", "mc", "--n", "1000"])
        assert rc == 0
        assert payload["config"]["seed"] == 777
        assert payload["seed"] == 777

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("MEHTA_N", "12345")
        rc, payload = run_json(capsys, ["mehta", "--m", "1", "--method", "mc", "--n", "99"])
        assert rc == 0
        assert payload["config"]["n_samples"] == 99

    def test_env_applies_without_flag(self, monkeypatch, capsys):
        monkeypatch.setenv("MEHTA_N", "1234")
        rc, payload = run_json(capsys, ["mehta", "--m", "1", "--method", "mc"])
        assert rc == 0
        assert payload["config"]["n_samples"] == 1234

    def test_env_of_unread_option_ignored(self, tmp_path, monkeypatch, capsys):
        # a run neither parses nor echoes a variable for an option it does not read
        report, matrix = tmp_path / "r.json", tmp_path / "m.txt"
        report.write_text(json.dumps({"criteria": []}))
        matrix.write_text(DIAG_FIXTURE)
        monkeypatch.setenv("MEHTA_N", "abc")
        assert main(["render", str(report)]) == 0
        capsys.readouterr()
        assert run_json(capsys, ["eig", str(matrix)])[0] == 0
        monkeypatch.delenv("MEHTA_N")
        monkeypatch.setenv("MEHTA_C", "5")
        rc, payload = run_json(capsys, ["detmoment", "--n", "2000"])
        assert rc == 0 and "c" not in payload["config"]

    @pytest.mark.parametrize("name, argv", [
        ("MEHTA_BIN_WIDTH", ["correlation"]),
        ("MEHTA_BANDWIDTH", ["correlation", "--estimator", "kernel"]),
        ("MEHTA_CURVE_POINTS", ["kacrice", "--curve", "--m", "1"]),
    ])
    def test_no_variable(self, monkeypatch, capsys, name, argv):
        # these options take no MEHTA_* variable, so a malformed one changes nothing
        def artifact():
            rc, payload = run_json(capsys, argv + ["--n", "2000"])
            return rc, {k: v for k, v in payload.items() if k != "wall_time_s"}

        plain = artifact()
        monkeypatch.setenv(name, "abc")
        assert artifact() == plain


class TestReportAndRender:
    def test_report_small_passes(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["report", "--seed", "21", "--n", "2000", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["all_pass"] is True
        names = [r["name"] for r in payload["criteria"]]
        assert any("covariance-audit" in n for n in names)
        assert any("mehta-quadrature" in n for n in names)
        assert any("critical-points-exact" in n for n in names)
        assert any("kacrice" in n for n in names)
        assert any("reproduce-zm" in n for n in names)
        assert any("regression-suite" in n for n in names)

    def test_one_worker_report_starts_no_thread(self, monkeypatch):
        # one worker computes every block on the calling thread
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(estimation, "ThreadPoolExecutor", no_thread)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert main(["report", "--n", "2000", "--workers", "1"]) == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rows_do_not_share_draws(self, seed):
        # criteria that draw the same variates on one key would repeat or
        # rescale each other's z-score
        names = ("detmoment-integrated m=1 v=0.5", "detmoment-integrated m=2 v=0.5",
                 "detmoment-integrated m=1 v=2.0", "reproduce-zm m=2")
        z = {r["name"]: r["z"] for r in run_report(2000, seed, 1)["criteria"]}
        values = [z[name] for name in names]
        assert len(set(values)) == len(names), values

    def test_regression_rows_get_their_own_seeds(self, monkeypatch):
        # on the report seed, m = 3 would redraw the GOE(4, 0.5) matrices of a
        # covariance audit and m = 2 the GOE(3, 1) draws of the kacrice m=2 rows
        seeds = []
        real = regression.conditional_hessian_moments

        def spy(m, v, n, seed, workers, method):
            seeds.append(seed)
            return real(m, v, n, seed=seed, workers=workers, method=method)

        monkeypatch.setattr(regression, "conditional_hessian_moments", spy)
        run_report(2000, 5, 1)
        assert seeds == [_criterion_seed(5, 100), _criterion_seed(5, 101)]
        assert 5 not in seeds

    def test_every_pass_draws_on_its_own_key(self, monkeypatch):
        # two passes on one (seed, stream) draw the same variates, so their rows
        # would repeat or rescale one experiment; the rows' wall times tile the run
        keys = []
        real = estimation.map_chunks

        def spy(fn, n, seed, workers=None, stream=0, block=estimation.BLOCK):
            keys.append((seed, stream))
            return real(fn, n, seed, workers, stream, block)

        for module in (estimation, mehta, spectral, symspace, cli):
            monkeypatch.setattr(module, "map_chunks", spy)
        t0 = time.perf_counter()
        rows = run_report(2000, 4, 1)["criteria"]
        elapsed = time.perf_counter() - t0
        assert len(keys) >= 17
        assert len(set(keys)) == len(keys), sorted(keys)
        wall = [r["wall_time_s"] for r in rows]
        assert min(wall) >= 0.0
        assert sum(wall) <= elapsed

    def test_finder_rows_equal_across_workers(self):
        # each finder block draws from its own generator, so the pool changes no bit
        def finder_rows(workers):
            rows = run_report(2000, 6, workers)["criteria"]
            return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows
                    if r["name"].startswith("critical-points-exact")]

        assert finder_rows(1) == finder_rows(2)

    def test_finder_error_in_a_later_block_fails_its_row(self, monkeypatch, capsys):
        # a search that fails in the second block of the m=1 row fails that row, not the run, and
        # names the matrix by its index in the row: 60 in the first block, then 3
        calls, real = [], spherefield.find_critical_points_batch

        def second_block_fails(mats, rng):
            calls.append(len(mats))
            if len(calls) == 2:
                raise spherefield.IncompleteSearchError(2, 4, sample_index=3)
            return real(mats, rng=rng)

        monkeypatch.setattr(spherefield, "find_critical_points_batch", second_block_fails)
        monkeypatch.setattr(cli, "_FINDER_BLOCK", 60)
        rc, payload = run_json(capsys, ["report", "--n", "2000", "--workers", "1"])
        rows = {r["name"]: r for r in payload["criteria"] if r["name"].startswith("critical-points-exact")}
        assert rc == 1 and calls[:2] == [60, 40]
        assert rows["critical-points-exact m=1"]["pass"] is False
        assert rows["critical-points-exact m=1"]["detail"] == {
            "error": "critical point search found 2 of 4 points (sample 63)"}
        assert all(rows[f"critical-points-exact m={m}"]["pass"] for m in (2, 3))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failure_in_row_order_is_named(self, monkeypatch, workers):
        # of each finder row's blocks 0-3 (30, 30, 30 and 10 matrices) the second fails at its matrix 7
        # and the last at its matrix 4: the row names matrix 37, on the pool too, where the last block
        # may finish first; map_chunks gives block b counter word b, which the stand-in reads
        real = spherefield.find_critical_points_batch

        def stand_in(mats, rng):
            block = int(rng.bit_generator.state["state"]["counter"][2])
            if block == 1:
                raise spherefield.DegenerateMatrixError(1e-12, 1e-8, 7)
            if block == 3:
                raise spherefield.IncompleteSearchError(0, 4, sample_index=4)
            return real(mats, rng=rng)

        monkeypatch.setattr(spherefield, "find_critical_points_batch", stand_in)
        monkeypatch.setattr(cli, "_FINDER_BLOCK", 30)
        rows = [r for r in run_report(2000, 3, workers)["criteria"] if r["name"].startswith("critical-points-exact")]
        assert [(r["pass"], r["estimate"]) for r in rows] == [(False, None)] * 3
        assert {r["detail"]["error"] for r in rows} == {
            "matrix 37 has eigenvalue gap 1.000e-12, below degeneracy tolerance 1.000e-08"}

    def test_finder_row_reads_morse_indices_in_value_order(self, monkeypatch):
        # a finder that counts eigenvalues above each value, not below, reports every index once per pair:
        # the right multiset in the wrong places, which the row must not pass
        real = spherefield.find_critical_points_batch

        def reversed_morse(mats, rng):
            batch = real(mats, rng=rng)
            batch.morse_indices = batch.morse_indices[:, ::-1].copy()
            return batch

        assert cli._finder_check(4, estimation.substream(5), 256).morse_ok
        monkeypatch.setattr(spherefield, "find_critical_points_batch", reversed_morse)
        check = cli._finder_check(4, estimation.substream(5), 256)
        assert check.max_value_deviation <= 1e-8 and not check.morse_ok

    def test_render_pass_and_fail(self, tmp_path, capsys):
        report = {
            "criteria": [
                {"name": "alpha", "estimate": 1.0, "reference": 1.0, "z": 0.1, "pass": True},
            ],
        }
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(report))
        assert main(["render", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

        report["criteria"].append(
            {"name": "beta", "estimate": 9.0, "reference": 2.0, "z": 5.0, "pass": False}
        )
        path.write_text(json.dumps(report))
        assert main(["render", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_render_empty_report(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"criteria": []}))
        assert main(["render", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("criterion")

    def test_render_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"not\": \"a report\"}")
        assert main(["render", str(path)]) == 2
        path.write_text("{{{{")
        assert main(["render", str(path)]) == 2

    @pytest.mark.parametrize("report", [
        [1, 2],
        {"criteria": [1]},
        {"criteria": [{"name": 1, "pass": True}]},
        {"criteria": [{"name": "alpha", "z": [1.0], "pass": True}]},
    ])
    def test_render_malformed_shape(self, tmp_path, capsys, report):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        assert main(["render", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: malformed report: ")

    def test_render_report_function(self):
        text, ok = render_report({"criteria": []})
        assert ok is True
        with pytest.raises(ValueError):
            render_report({})


class TestDeterminism:
    def test_repeat_run_identical_modulo_wall_time(self, tmp_path):
        out = tmp_path / "rep.json"
        main(["report", "--seed", "42", "--workers", "4", "--n", "1000", "--out", str(out)])
        first = out.read_bytes()
        main(["report", "--seed", "42", "--workers", "4", "--n", "1000", "--out", str(out)])
        second = out.read_bytes()
        pattern = re.compile(rb'"wall_time_s": [-0-9.e+]+')
        assert pattern.sub(b"T", first) == pattern.sub(b"T", second)

    def test_different_seed_differs(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        main(["mehta", "--method", "mc", "--m", "2", "--n", "5000", "--seed", "1", "--out", str(out1)])
        main(["mehta", "--method", "mc", "--m", "2", "--n", "5000", "--seed", "2", "--out", str(out2)])
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["estimate"] != b["estimate"]


def _readme_section(title):
    text = README.read_text()
    start = text.index(f"## {title}\n")
    return text[start:text.index("\n## ", start + 1)]


def _accepted_options():
    """Subcommand -> the flags and (upper-cased) positionals it accepts."""
    return {
        name: {a.option_strings[-1] if a.option_strings else a.dest.upper()
               for a in p._actions if not isinstance(a, argparse._HelpAction)}
        for name, p in _parsers().items()
    }


class TestReadme:
    def test_examples_parse(self):
        # every example passes only options its run reads; nothing is run
        lines = [line.split("#")[0] for line in _readme_section("Command line").splitlines()
                 if line.startswith("mehtalab ")]
        assert len(lines) >= 10
        for line in lines:
            args, unread = build_parser().parse_known_args(shlex.split(line)[1:])
            assert not unread, line
            _resolve(args)

    def test_option_table_matches_parser(self):
        # one row per run; a row without its mode flag is the default mode
        rows = re.findall(r"^\| `([^`]+)` \| `([^`]*)` \|$", _readme_section("Command line"), re.M)
        parsers, documented, accepted = _parsers(), {}, {}
        for label, opts in rows:
            command, *mode_words = label.split()
            p = parsers[command]
            if mode_words:
                assert mode_words[0] == f"--{p.get_default('mode_flag')}", label
            if len(mode_words) == 2:
                modes = mode_words[1].split("\\|")
            else:  # a switch, or the default mode
                modes = [True] if mode_words else [next(iter(p.get_default("reads")))]
            for mode in modes:
                documented[command, mode] = {o for o in opts.split() if o.startswith("--")}
            accepted.setdefault(command, set()).update(opts.split(), mode_words[:1])
        assert documented == {(command, mode): {_flag(o) for o in options}
                              for command, _, mode, options, _ in _runs()}
        assert accepted == _accepted_options()
