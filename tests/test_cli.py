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

    def test_never_stationary_design_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "limits", "describe", "--alpha", "1", "--beta", "0")
        assert code == 1
        assert "non-stationary at every index" in err

    def test_verify_covlim(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "covlim", "--alpha", "0.5",
                               "--beta", "0.5")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_verify_prop1_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "prop1", "--alpha", "1",
                               "--beta", "0", "--gamma-c", "2")
        assert code == 0


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

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "experiment", "run", "--config",
                             str(tmp_path / "none.json"))
        assert code == 1
