import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mehtalab import estimation, mehta, regression, spectral, symspace
from mehtalab.cli import _criterion_seed, build_parser, main, render_report, run_report
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


class TestBasicCommands:
    def test_mehta_quadrature(self, capsys):
        rc, payload = run_json(capsys, ["mehta", "--m", "2", "--method", "quadrature"])
        assert rc == 0
        assert payload["pass"] is True
        assert payload["estimate"] == pytest.approx(7.089815, abs=1e-5)
        assert payload["reference"] == pytest.approx(7.089815, abs=1e-5)
        assert payload["config"]["command"] == "mehta"
        assert payload["config"]["n_samples"] == 100000  # default echoed

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
        assert payload["result"]["n_moments"] == 36

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

    @pytest.mark.parametrize("argv", [["kacrice", "--m", "0"], ["kacrice", "--m", "-1"],
                                      ["kacrice", "--curve", "--m", "0"]])
    def test_inadmissible_kacrice_m(self, capsys, argv):
        rc = main(argv + ["--n", "2000"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: m must be a positive integer"]

    def test_malformed_env_value(self, monkeypatch, capsys):
        monkeypatch.setenv("MEHTA_N", "abc")
        assert main(["mehta"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid MEHTA_N='abc': invalid literal for int() with base 10: 'abc'"]

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
         "--format csv: mehta-mc has no CSV form"),
        (["kacrice", "--format", "csv", "--m", "3", "--n", "400000"],
         "--format csv: kacrice-interval has no CSV form"),
        # no grid point within 8h of an eigenvalue would read every density value 0
        (["correlation", "--estimator", "kernel", "--bandwidth", "1e-9", "--n", "1000"],
         "bandwidth 1e-09 is below the grid step 0.00312132"),
        (["mehta", "--method", "closed", "--format", "csv"], "--format csv: mehta-closed has no CSV form"),
    ])
    def test_rejected(self, monkeypatch, capsys, argv, message):
        # a run with no CSV form is refused before any estimator is called
        def no_run(*args, **kwargs):
            raise AssertionError("an estimator ran")

        for name in ("mehta_closed_form", "mehta_mc", "kacrice_vs_empirical", "kacrice_intervals"):
            monkeypatch.setattr(mehta, name, no_run)
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

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
        # the reference is computed before any draw
        def no_run(*args, **kwargs):
            raise AssertionError("an estimator ran")

        monkeypatch.setattr(mehta, "exp_abs_det_mc", no_run)
        m = spectral.GOE_DENSITY_MAX_M
        rc = main(["detmoment", "--mode", "pointwise", "--m", str(m)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: the exact GOE density needs 1 <= m <= {m}, got dimension {m + 1}"]


def test_import_leaves_out_scipy_integrate():
    # only the ordered-region quadrature needs scipy.integrate, and imports it itself
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, mehtalab.cli; print('scipy.integrate' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert run.stdout == "False\n"


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

        def spy(fn, n, seed, workers=1, stream=0):
            keys.append((seed, stream))
            return real(fn, n, seed, workers, stream)

        for module in (estimation, mehta, regression, spectral, symspace):
            monkeypatch.setattr(module, "map_chunks", spy)
        t0 = time.perf_counter()
        rows = run_report(2000, 4, 1)["criteria"]
        elapsed = time.perf_counter() - t0
        assert len(keys) >= 17
        assert len(set(keys)) == len(keys), sorted(keys)
        wall = [r["wall_time_s"] for r in rows]
        assert min(wall) >= 0.0
        assert sum(wall) <= elapsed

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


def _accepted_options(parser):
    """Subcommand -> the flags and (upper-cased) positionals it accepts."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {a.option_strings[-1] if a.option_strings else a.dest.upper()
               for a in p._actions if not isinstance(a, argparse._HelpAction)}
        for name, p in sub.choices.items()
    }


class TestReadme:
    def test_examples_parse(self):
        lines = [line.split("#")[0] for line in _readme_section("Command line").splitlines()
                 if line.startswith("mehtalab ")]
        assert len(lines) >= 10
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])

    def test_option_table_matches_parser(self):
        rows = re.findall(r"^\| `([a-z-]+)` \| `([^`]*)` \|$", _readme_section("Command line"), re.M)
        assert {name: set(opts.split()) for name, opts in rows} == _accepted_options(build_parser())
