import json
import re

import numpy as np
import pytest

from mehtalab.cli import main, render_report
from mehtalab.symspace import read_matrices

DIAG_FIXTURE = "2\n1 0\n0 2\n"


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


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

    def test_eig(self, tmp_path, capsys):
        path = tmp_path / "diag.txt"
        path.write_text("3\n3 0 0\n0 1 0\n0 0 2\n")
        rc, payload = run_json(capsys, ["eig", str(path)])
        assert rc == 0
        assert np.allclose(payload["eigenvalues"], [1.0, 2.0, 3.0])

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

    @pytest.mark.parametrize("method", ["closed", "ratio"])
    def test_overflowing_m(self, capsys, method):
        rc = main(["mehta", "--method", method, "--m", "400"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: parameter out of range")

    def test_missing_file(self, capsys):
        rc = main(["eig", "/nonexistent/matrix.txt"])
        assert rc == 1


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
