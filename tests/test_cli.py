import csv
import json
import math

import pytest

from spatialar.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCov:
    def test_eval(self, capsys):
        code, out, _ = run_cli(capsys, "cov", "eval", "--alpha", "0.25",
                               "--beta", "0.25", "--k", "1", "--l", "-1")
        assert code == 0
        assert float(out) == pytest.approx(0.0829038, abs=1e-7)

    def test_eval_method_choice(self, capsys):
        code, out, _ = run_cli(capsys, "cov", "eval", "--alpha", "0.3",
                               "--beta", "-0.4", "--k", "2", "--l", "2",
                               "--method", "f4")
        assert code == 0
        assert float(out) == pytest.approx(0.1506247, abs=1e-6)

    def test_nonstationary_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "cov", "eval", "--alpha", "0.7",
                               "--beta", "0.5", "--k", "0", "--l", "0")
        assert code == 1
        assert "error" in err

    def test_table(self, capsys, tmp_path):
        out_file = tmp_path / "table.csv"
        code, _, _ = run_cli(capsys, "cov", "table", "--alpha", "0.2",
                             "--beta", "0.3", "--kmax", "2", "--lmax", "2",
                             "--out", str(out_file))
        assert code == 0
        rows = list(csv.DictReader(out_file.open()))
        assert len(rows) == 25
        centre = [r for r in rows if r["k"] == "0" and r["l"] == "0"][0]
        assert float(centre["R"]) > 1.0


class TestSimEstimate:
    def test_field_roundtrip(self, capsys, tmp_path):
        field_csv = tmp_path / "field.csv"
        code, _, _ = run_cli(capsys, "sim", "field", "--alpha", "0.4",
                             "--beta", "0.3", "--k", "12", "--l", "12",
                             "--seed", "42", "--rep", "0",
                             "--out", str(field_csv))
        assert code == 0
        code, out, _ = run_cli(capsys, "estimate", "--in", str(field_csv),
                               "--k", "12", "--l", "12")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["alpha_hat"] - 0.4) < 0.5
        assert payload["A"] is not None  # innovations present in the CSV
        assert payload["detB"] > 0

    def test_same_seed_same_field(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (f1, f2):
            run_cli(capsys, "sim", "field", "--alpha", "0.4", "--beta", "0.3",
                    "--k", "6", "--l", "6", "--seed", "7", "--rep", "3",
                    "--out", str(path))
        assert f1.read_bytes() == f2.read_bytes()


# an unknown kind (the removed kinds included), a margin that is not an
# integer, a negative margin, and a margin on boundary_cholesky
MALFORMED_METHODS = ["bogus", "truncated_series", "full_cholesky:3",
                     "boundary_series:x", "boundary_series:-1", "boundary_cholesky:5"]


@pytest.mark.parametrize("method", MALFORMED_METHODS)
def test_sim_field_malformed_method_is_a_usage_error(capsys, method):
    code, out, err = run_cli(capsys, "sim", "field", "--alpha", "0.4", "--beta", "0.3",
                             "--k", "4", "--l", "4", "--dist", "rademacher",
                             "--method", method)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


class TestLimitsAndVerify:
    def test_describe(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "describe", "--alpha", "1",
                               "--beta", "0", "--gamma-c", "2", "--delta-c", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "boundary"
        assert payload["omega"] == pytest.approx(2.0)
        assert payload["covariance"][0][0] == pytest.approx(4.3094011, abs=1e-6)

    def test_describe_design_file(self, capsys, tmp_path):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({
            "alpha": 0.5, "beta": 0.5, "gamma": {"kind": "const", "c": 1.0},
            "delta": {"kind": "const", "c": 1.0}}))
        code, out, _ = run_cli(capsys, "limits", "describe",
                               "--design", str(design))
        assert code == 0
        assert json.loads(out)["case"] == "interior"

    @pytest.mark.parametrize("args, ladder", [
        (("--alpha", "0.5", "--beta", "0.5"), [(64, 64), (128, 128), (256, 256)]),
        (("--alpha", "1", "--beta", "0", "--gamma-c", "2"), [(16, 32), (32, 77), (64, 182)]),
    ], ids=["interior", "boundary"])
    def test_describe_default_ladder(self, capsys, args, ladder):
        code, out, _ = run_cli(capsys, "limits", "describe", *args)
        assert code == 0
        assert [(r["m"], r["s"]) for r in json.loads(out)["ladder"]] == ladder

    @pytest.mark.parametrize("overrides", [
        {"gamma": "x"}, {"gamma": [1]}, {"gamma": {"kind": "bogus"}},
        {"alpha": "x"}, {"case": "bogus"},
        # a boolean is not read as the boundary point (1, 0)
        {"alpha": True, "beta": False}, {"beta": False}])
    def test_malformed_design_file_is_a_usage_error(self, capsys, tmp_path, overrides):
        design = tmp_path / "design.json"
        design.write_text(json.dumps(
            {"alpha": 1.0, "beta": 0.0, "gamma": 2.0, "delta": 1.0, **overrides}))
        code, out, err = run_cli(capsys, "limits", "describe", "--design", str(design))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_never_stationary_design_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "limits", "describe", "--alpha", "1", "--beta", "0")
        assert code == 1
        assert "non-stationary at every index" in err

    def test_verify_covlim(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "covlim", "--alpha", "0.5",
                               "--beta", "0.5")
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("tol, code", [(None, 0), ("1e-15", 2)])
    def test_verify_cov(self, capsys, tol, code):
        # the default tolerance 1e-8 is met; the four evaluators agree only
        # to about 1e-13 after rounding, so 1e-15 is not
        args = ["verify", "cov"] + (["--tol", tol] if tol else [])
        got, out, _ = run_cli(capsys, *args)
        assert got == code
        assert out.startswith("four-way covariance check over ")

    def test_verify_cov_extreme_tolerance(self, capsys):
        # the oracle's tail target is floored at 1e-16, so a tolerance far
        # below rounding runs as fast as 1e-14 and fails
        got, out, _ = run_cli(capsys, "verify", "cov", "--tol", "1e-300")
        assert got == 2
        assert out.startswith("four-way covariance check over ")

    @pytest.mark.parametrize("tol", ["0", "-1e-8", "nan"])
    def test_verify_cov_bad_tolerance(self, capsys, tol):
        got, out, err = run_cli(capsys, "verify", "cov", f"--tol={tol}")
        assert got == 1 and out == ""
        assert err.startswith("error: truncation tolerance must be positive and finite")

    def test_verify_prop1_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "prop1", "--alpha", "1",
                               "--beta", "0", "--gamma-c", "2")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["limits", "describe", "--alpha", "0.5", "--beta", "0.5", "--ladder", "64"],
        ["limits", "describe", "--alpha", "0.5", "--beta", "0.5", "--ladder", "a:b"],
        ["limits", "describe", "--alpha", "0.5", "--beta", "0.5", "--ladder", "64:64:1"],
        ["limits", "describe", "--alpha", "0.5", "--beta", "0.5", "--ladder", "0:64"],
        ["sim", "field", "--alpha", "0.3", "--beta", "0.3", "--k", "0", "--l", "0"],
        ["sim", "field", "--alpha", "0.3", "--beta", "0.3", "--k", "-1", "--l", "3"],
        ["verify", "score", "--alpha", "0.5", "--beta", "0.5", "--s", "0", "--reps", "3"],
        ["verify", "detb", "--alpha", "0.5", "--beta", "0.5", "--s", "0", "--reps", "3"],
        ["verify", "detb", "--alpha", "0.5", "--beta", "0.5", "--s", "1", "--reps", "3"],
        ["verify", "covlim", "--alpha", "0.5", "--beta", "0.5", "--n-probe", "0"],
    ], ids=["ladder_one_value", "ladder_not_integers", "ladder_three_values",
            "ladder_m_zero", "sim_window_empty", "sim_window_negative_k",
            "score_s_zero", "detb_s_zero", "detb_s_one", "covlim_no_probe"])
    def test_bad_input_is_a_one_line_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("what", ["detb", "score"])
    def test_verify_bad_worker_count_exits_1(self, capsys, monkeypatch, what):
        def no_run(*args, **kwargs):
            raise AssertionError("replications ran with a bad worker count")
        monkeypatch.setattr("spatialar.harness._run_reps", no_run)
        code, out, err = run_cli(capsys, "verify", what, "--alpha", "0.5",
                                 "--beta", "0.5", "--workers", "-1")
        assert code == 1 and out == ""
        assert err == "error: workers must be at least 1, got -1\n"


class TestExperiment:
    @staticmethod
    def write_config(tmp_path, **overrides):
        cfg = {
            "design": {"alpha": 0.5, "beta": 0.5,
                       "gamma": {"kind": "const", "c": 1.0},
                       "delta": {"kind": "const", "c": 1.0},
                       "case": "interior"},
            "ladder": [[16, 16]],
            "reps": 100,
            "dist": "gaussian",
            "method": "boundary_cholesky",
            "seed": 3,
            "tolerances": {"cov_rel_tol": 0.3, "zero_var_ceiling": 0.05},
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_run_reproducible(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, out_dir=str(tmp_path / "o1"))
        code1, _, _ = run_cli(capsys, "experiment", "run", "--config", str(cfg))
        cfg2 = self.write_config(tmp_path, out_dir=str(tmp_path / "o2"))
        code2, _, _ = run_cli(capsys, "experiment", "run", "--config", str(cfg2),
                              "--workers", "2")
        r1 = (tmp_path / "o1" / "report.json").read_text()
        r2 = (tmp_path / "o2" / "report.json").read_text()
        assert r1.replace("o1", "odir") == r2.replace("o2", "odir")
        assert code1 == code2

    def test_failing_tolerance_exits_2_with_report(self, capsys, tmp_path):
        # at this desk size the interior variances sit far above the limit,
        # so a tight tolerance must fail while still writing the report
        cfg = self.write_config(
            tmp_path, out_dir=str(tmp_path / "out"),
            tolerances={"cov_rel_tol": 0.01, "zero_var_ceiling": 1e-6})
        code, _, _ = run_cli(capsys, "experiment", "run", "--config", str(cfg))
        assert code == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["pass"] is False

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_worker_count_exits_1(self, capsys, tmp_path, monkeypatch, workers):
        def no_run(*args, **kwargs):
            raise AssertionError("replications ran with a bad worker count")
        monkeypatch.setattr("spatialar.harness._run_reps", no_run)
        cfg = self.write_config(tmp_path, out_dir=str(tmp_path / "out"))
        code, out, err = run_cli(capsys, "experiment", "run", "--config", str(cfg),
                                 "--workers", workers)
        assert code == 1 and out == ""
        assert err == f"error: workers must be at least 1, got {workers}\n"
        assert not (tmp_path / "out").exists()

    def test_malformed_config_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"design": {"alpha": 0.5}}))
        code, _, err = run_cli(capsys, "experiment", "run", "--config", str(path))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("method", MALFORMED_METHODS + [5])
    def test_malformed_method_exits_1(self, capsys, tmp_path, method):
        cfg = self.write_config(tmp_path, method=method, out_dir=str(tmp_path / "out"))
        code, _, err = run_cli(capsys, "experiment", "run", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [
        {"tolerances": 5},
        {"out_dir": 5},
        {"design": {"alpha": 0.5, "beta": 0.5, "gamma": "x", "delta": 1.0}},
        {"design": {"alpha": 0.5, "beta": 0.5, "gamma": [1], "delta": 1.0}},
        # fractional or boolean values are rejected, not truncated or read as 0/1
        {"ladder": [[16.9, 16.7]]},
        {"reps": 150.9},
        {"seed": 3.5},
        {"seed": True},
        {"design": {"alpha": 0.5, "beta": 0.5, "gamma": True, "delta": 1.0}},
        {"design": {"alpha": 0.5, "beta": 0.5,
                    "gamma": {"kind": "const", "c": True}, "delta": 1.0}},
        {"design": {"alpha": 0.5, "beta": 0.5,
                    "gamma": {"kind": "power", "c": 1.0, "p": False}, "delta": 1.0}},
        {"tolerances": {"cov_rel_tol": True, "zero_var_ceiling": 0.05}},
        {"tolerances": {"cov_rel_tol": 0.3, "zero_var_ceiling": False}},
        {"design": {"alpha": True, "beta": False, "gamma": 2.0, "delta": 1.0}},
        # boundary_cholesky is exact in law only for Gaussian innovations
        {"dist": "rademacher"},
    ], ids=["tolerances", "out_dir", "schedule_string", "schedule_list",
            "ladder_fraction", "reps_fraction", "seed_fraction", "seed_bool",
            "schedule_bool", "schedule_c_bool", "schedule_p_bool",
            "cov_rel_tol_bool", "zero_var_ceiling_bool", "boundary_bool",
            "cholesky_rademacher"])
    def test_malformed_field_exits_1_before_running(self, capsys, tmp_path,
                                                    monkeypatch, overrides):
        def no_run(*args, **kwargs):
            raise AssertionError("a malformed config ran replications")
        monkeypatch.setattr("spatialar.harness._run_reps", no_run)
        cfg = self.write_config(
            tmp_path, **{"out_dir": str(tmp_path / "out"), **overrides})
        code, out, err = run_cli(capsys, "experiment", "run", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "experiment", "run", "--config",
                             str(tmp_path / "none.json"))
        assert code == 1
