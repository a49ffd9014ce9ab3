import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spatialar import (FieldSimulator, InnovationDist, ModelParams, RngStream,
                       SimMethod, TriangleWindow)
from spatialar.cli import main

ROOT = Path(__file__).resolve().parents[1]


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

    def test_eval_f4_at_a_large_same_sign_lag(self, capsys):
        # the F4 prefactor C(|k|+|l|, |k|) a^|k| b^|l| underflows to 0 here;
        # formed as a float it overflowed and ended in a traceback
        code, out, _ = run_cli(capsys, "cov", "eval", "--alpha", "0.2", "--beta", "0.2",
                               "--k", "100000", "--l", "100000", "--method", "f4")
        assert code == 0
        assert float(out) == 0.0

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
        with out_file.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        centre = [r for r in rows if r["k"] == "0" and r["l"] == "0"][0]
        assert float(centre["R"]) > 1.0

    @pytest.mark.parametrize("option", ["--kmax", "--lmax"])
    def test_table_rejects_a_negative_size(self, capsys, tmp_path, option):
        # a negative bound used to write a header-only CSV and exit 0
        out_file = tmp_path / "table.csv"
        sizes = {"--kmax": "2", "--lmax": "2", option: "-1"}
        code, out, err = run_cli(capsys, "cov", "table", "--alpha", "0.25",
                                 "--beta", "0.25", *(a for kv in sizes.items() for a in kv),
                                 "--out", str(out_file))
        assert code == 1
        assert out == ""
        assert err == f"error: {option} must be at least 0, got -1\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("method", ["closed", "f4", "binrep", "oracle"])
    def test_table_equals_per_lag_eval(self, capsys, method):
        # the table is one call on the lag box; each of its rows prints what
        # cov eval prints at that lag, and binrep takes the mixed lags from
        # the closed form
        params = ["--alpha", "0.45", "--beta", "-0.3"]

        def eval_at(k, l, how):
            code, out, _ = run_cli(capsys, "cov", "eval", *params, "--k", k, "--l", l,
                                   "--method", how)
            assert code == 0
            return out.strip()
        code, out, _ = run_cli(capsys, "cov", "table", *params, "--kmax", "2",
                               "--lmax", "3", "--method", method)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 5 * 7
        for row in rows:
            assert row["R"] == eval_at(row["k"], row["l"], method)
            if method == "binrep" and int(row["k"]) * int(row["l"]) < 0:
                assert row["R"] == eval_at(row["k"], row["l"], "closed")


def sim_field(capsys, path, *extra, window=("12", "12")):
    """``sim field`` at (0.4, 0.3) on window (k, l), seed 42, into ``path``."""
    return run_cli(capsys, "sim", "field", "--alpha", "0.4", "--beta", "0.3",
                   "--k", window[0], "--l", window[1], "--seed", "42",
                   "--rep", "0", "--out", str(path), *extra)


class TestSimEstimate:
    @pytest.mark.parametrize("dist", ["gaussian", "rademacher", "uniform"])
    def test_field_roundtrip(self, capsys, tmp_path, dist):
        # without --method every law samples at its own default depth; for
        # gaussian that is depth 0, the bytes of boundary_cholesky
        field_csv = tmp_path / "field.csv"
        code, _, err = sim_field(capsys, field_csv, "--dist", dist)
        assert code == 0, err
        if dist == "gaussian":
            cholesky_csv = tmp_path / "cholesky.csv"
            sim_field(capsys, cholesky_csv, "--method", "boundary_cholesky")
            assert field_csv.read_bytes() == cholesky_csv.read_bytes()
        code, out, _ = run_cli(capsys, "estimate", "--in", str(field_csv))
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["alpha_hat"] - 0.4) < 0.5
        assert payload["A"] is not None  # innovations present in the CSV
        assert payload["detB"] > 0

    @pytest.mark.parametrize("case", ["value_not_numeric", "hull_point_missing",
                                      "point_repeated", "point_below_layer_0",
                                      "one_row_at_origin"])
    def test_bad_estimate_input_is_a_one_line_usage_error(self, capsys, tmp_path,
                                                          case):
        field_csv = tmp_path / "field.csv"
        sim_field(capsys, field_csv, window=("3", "3"))
        lines = field_csv.read_text().splitlines()
        assert lines[1].startswith("-3,3,")
        if case == "value_not_numeric":
            i, j, _, eps = lines[5].split(",")
            lines[5] = ",".join([i, j, "abc", eps])
        elif case == "hull_point_missing":
            del lines[1]
        elif case == "point_repeated":
            lines.append(lines[5])
        elif case == "point_below_layer_0":
            lines.append("-3,2,0.5,")
        else:
            lines = [lines[0], "0,0,1.5,"]
        field_csv.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "estimate", "--in", str(field_csv))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        expected = {"value_not_numeric": "abc", "hull_point_missing": "(-3, 3)",
                    "point_repeated": "repeats point (1, -1)",
                    "point_below_layer_0": "point (-3, 2) below layer 0",
                    "one_row_at_origin": "k + l >= 1, got k = 0, l = 0"}[case]
        assert expected in err
        if case != "one_row_at_origin":
            assert str(field_csv) in err

    @pytest.mark.parametrize("column, point", [("value", (0, 0)), ("innovation", (1, 1))],
                             ids=["value_at_0_0", "innovation_at_1_1"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_estimate_input_is_a_one_line_usage_error(self, capsys, tmp_path,
                                                                 column, point, text):
        field_csv = tmp_path / "field.csv"
        sim_field(capsys, field_csv, window=("3", "3"))
        rows = list(csv.DictReader(field_csv.read_text().splitlines()))
        row = next(r for r in rows if (int(r["i"]), int(r["j"])) == point)
        row[column] = text
        with field_csv.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        code, out, err = run_cli(capsys, "estimate", "--in", str(field_csv))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{field_csv} has {column} {text} at point {point}" in err

    # sha256 of the estimate's JSON line for the field of ``sim_field`` at
    # seed 42, as it read when the window was passed as --k K --l L
    ESTIMATE_DIGESTS = {
        ("12", "12", "gaussian"): "76d13c7cfd7885dd1b794917c04786b1e4747cba5eeeec5803c0935a339005fc",
        ("12", "12", "rademacher"): "8ba44727bd44e75cdacd2b0e53116c5fbd86825772c0cd1aa8b642ea6d03ebd1",
        ("12", "12", "uniform"): "eadd5e7b26f150d451ecd93226eca6c473da3d89097dfcac8dc43a994fa56f20",
        ("5", "9", "gaussian"): "f582a92b2389f5791068eb67cdde13131251c23342f04721841439d433e5585e",
        ("5", "9", "rademacher"): "7ff1db5eb54a0d0e04afa3b3eeed73def688e0649a8cae8e9bfda51b4fd4ccb6",
        ("5", "9", "uniform"): "8268a884d59d83653f38ef4e3b764edb4fe26e75d1981ef547baa6ad0e3d6788",
        ("3", "3", "gaussian"): "450dfa548916e6ec38ef2aad9bfcded1b7e26e2b82e4311f026f3ee9d05ce851",
    }

    @pytest.mark.parametrize("k, l, dist", sorted(ESTIMATE_DIGESTS))
    def test_estimate_runs_on_the_window_of_the_file(self, capsys, tmp_path, k, l, dist):
        # the window comes from the rows, so a 3 x 3 field gives the 3 x 3
        # estimate; it cannot be read on a sub-triangle by mistake
        field_csv = tmp_path / "field.csv"
        sim_field(capsys, field_csv, "--dist", dist, window=(k, l))
        code, out, err = run_cli(capsys, "estimate", "--in", str(field_csv))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == self.ESTIMATE_DIGESTS[k, l, dist]

    def test_field_csv_rows_enumerate_hull(self, capsys):
        # header, then the hull layer by layer in increasing i: layer 0 has
        # no innovation, layer d >= 1 carries the sampler's eps of layer d
        window = TriangleWindow(2, 1)
        code, out, _ = run_cli(capsys, "sim", "field", "--alpha", "0.4", "--beta", "0.3",
                               "--k", "2", "--l", "1", "--seed", "42")
        assert code == 0
        header, *rows = list(csv.reader(out.splitlines()))
        assert header == ["i", "j", "value", "innovation"]
        assert len(rows) == (window.s + 1) * (window.s + 2) // 2
        fld = FieldSimulator(ModelParams(0.4, 0.3), window, SimMethod.parse("boundary_series"),
                             InnovationDist("gaussian")).sample(RngStream(42, 0))
        assert rows[0][:2] == ["-1", "1"] and float(rows[0][2]) == fld.value(-1, 1)
        assert [(int(i), int(j)) for i, j, _, _ in rows] == [
            (i, d - i) for d in range(window.s + 1)
            for i in range(window.layer_start(d), window.layer_start(d) + window.layer_len(d))]
        assert [float(r[2]) for r in rows] == np.concatenate(fld.values).tolist()
        layer0 = window.layer_len(0)
        assert all(r[3] == "" for r in rows[:layer0])
        assert rows[layer0][:2] == ["0", "1"]
        assert [float(r[3]) for r in rows[layer0:]] == np.concatenate(fld.innovations).tolist()

    @pytest.mark.parametrize("option, name", [("--seed", "master_seed"), ("--rep", "rep")])
    def test_negative_seed_or_rep_exits_1_before_sampling(self, capsys, tmp_path,
                                                           monkeypatch, option, name):
        def no_sampler(*args, **kwargs):
            raise AssertionError("a sampler was built with a negative seed")
        monkeypatch.setattr("spatialar.cli.FieldSimulator", no_sampler)
        path = tmp_path / "field.csv"
        code, out, err = run_cli(capsys, "sim", "field", "--alpha", "0.4", "--beta", "0.3",
                                 "--k", "3", "--l", "3", option, "-1", "--out", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {name} must be a nonnegative integer\n"
        assert not path.exists()

    def test_same_seed_same_field(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (f1, f2):
            run_cli(capsys, "sim", "field", "--alpha", "0.4", "--beta", "0.3",
                    "--k", "6", "--l", "6", "--seed", "7", "--rep", "3",
                    "--out", str(path))
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("option", ["--seed", "--rep"])
    def test_values_2_to_the_64_apart_give_different_fields(self, capsys, tmp_path, option):
        # a seed or id is used as it is, not reduced modulo 2^64
        paths = [tmp_path / "0.csv", tmp_path / "2_64.csv"]
        for value, path in zip(("0", str(2**64)), paths):
            code, _, err = run_cli(capsys, "sim", "field", "--alpha", "0.4", "--beta", "0.3",
                                   "--k", "3", "--l", "3", option, value, "--out", str(path))
            assert code == 0, err
        assert paths[0].read_bytes() != paths[1].read_bytes()


@pytest.mark.parametrize("argv, out_name", [
    (["sim", "field", "--alpha", "0.4", "--beta", "0.3", "--k", "5", "--l", "4",
      "--seed", "9", "--dist", "uniform"], "field.csv"),
    (["cov", "table", "--alpha", "0.4", "--beta", "-0.3", "--kmax", "3", "--lmax", "2"],
     "table.csv"),
], ids=["sim_field", "cov_table"])
def test_stdout_bytes_equal_the_out_file(capsys, tmp_path, argv, out_name):
    # one CSV writer, "\n"-terminated, for stdout and --out alike
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / out_name
    code, printed, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and printed == f"wrote {path}\n"
    assert path.read_bytes() == out.encode()
    assert b"\r" not in path.read_bytes()


def test_closed_stdout_exits_141_quietly():
    # a reader that stops after one line is not a usage error
    proc = subprocess.Popen(
        [sys.executable, "-m", "spatialar.cli", "sim", "field", "--alpha", "0.4",
         "--beta", "0.3", "--k", "60", "--l", "60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.stdout.readline() == b"i,j,value,innovation\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["cov", "eval", "--alpha", "0.25", "--beta", "0.25", "--k", "1", "--l", "1", "--bogus"],
    ["verify", "detb", "--alpha", "0.5", "--beta", "0.5", "--s", "x"],
    ["sim", "field", "--alpha", "0.4", "--beta", "0.3", "--k", "3"],
    ["estimate", "--in", "field.csv", "--k", "3", "--l", "3"],
], ids=["unknown_flag", "bad_integer", "missing_required", "removed_window_flags"])
def test_argparse_errors_exit_1_with_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: spatialar") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["estimate", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: spatialar")


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
    def test_verify_one_rep_exits_1_without_warnings(self, capsys, what):
        # one replication has no sample variance: the suites reject it
        # before any replication runs, rather than report NaN
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "verify", what, "--alpha", "0.5",
                                     "--beta", "0.5", "--s", "8", "--reps", "1")
        assert code == 1 and out == "" and caught == []
        assert err == "error: reps must be at least 2, got 1\n"

    @pytest.mark.parametrize("what", ["detb", "score"])
    def test_verify_bad_worker_count_exits_1(self, capsys, monkeypatch, what):
        def no_run(*args, **kwargs):
            raise AssertionError("replications ran with a bad worker count")
        monkeypatch.setattr("spatialar.harness._run_reps", no_run)
        code, out, err = run_cli(capsys, "verify", what, "--alpha", "0.5",
                                 "--beta", "0.5", "--workers", "-1")
        assert code == 1 and out == ""
        assert err == "error: workers must be at least 1, got -1\n"


    @pytest.mark.parametrize("what", ["detb", "score"])
    def test_verify_negative_seed_exits_1(self, capsys, monkeypatch, what):
        def no_run(*args, **kwargs):
            raise AssertionError("replications ran with a negative seed")
        monkeypatch.setattr("spatialar.harness._run_reps", no_run)
        code, out, err = run_cli(capsys, "verify", what, "--alpha", "0.5",
                                 "--beta", "0.5", "--seed", "-1")
        assert code == 1 and out == ""
        assert err == "error: master_seed must be a nonnegative integer\n"


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

    @pytest.mark.parametrize("dist, method", [("gaussian", "boundary_cholesky"),
                                              ("rademacher", "boundary_series")])
    def test_config_without_method_samples_at_the_law_default(self, capsys, tmp_path,
                                                              monkeypatch, dist, method):
        # a Gaussian config without a method writes the bytes of one with
        # boundary_cholesky; any other law runs at its certified series depth
        monkeypatch.chdir(tmp_path)  # out_dir is part of report.json
        reports = []
        for with_method in (False, True):
            cfg = self.write_config(tmp_path, dist=dist, method=method, out_dir="out")
            if not with_method:
                text = json.loads(cfg.read_text())
                del text["method"]
                cfg.write_text(json.dumps(text))
            code, _, err = run_cli(capsys, "experiment", "run", "--config", str(cfg))
            assert code in (0, 2), err
            reports.append((tmp_path / "out" / "report.json").read_bytes())
        assert json.loads(reports[0])["config"]["method"] == method
        assert reports[0] == reports[1]

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

    def test_control_characters_in_out_dir(self, capsys, tmp_path):
        # out_dir is part of report.json, which must still parse
        out = tmp_path / "a\tb\nc"
        cfg = self.write_config(tmp_path)
        code, _, err = run_cli(capsys, "experiment", "run", "--config", str(cfg),
                               "--out", str(out))
        assert code in (0, 2), err
        assert json.loads((out / "report.json").read_text())["config"]["out_dir"] == str(out)

    @pytest.mark.parametrize("argv, overrides", [
        (["--seed", "-1"], {}),
        ([], {"seed": -1}),
    ], ids=["option", "config"])
    def test_negative_seed_exits_1_before_running(self, capsys, tmp_path, monkeypatch,
                                                  argv, overrides):
        def no_run(*args, **kwargs):
            raise AssertionError("replications ran with a negative seed")
        monkeypatch.setattr("spatialar.harness._run_reps", no_run)
        cfg = self.write_config(tmp_path, out_dir=str(tmp_path / "out"), **overrides)
        code, out, err = run_cli(capsys, "experiment", "run", "--config", str(cfg), *argv)
        assert code == 1 and out == ""
        assert err == "error: master_seed must be a nonnegative integer\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tolerances", [
        {"cov_rel_tol": float("nan")},
        {"cov_rel_tol": -0.3},
        {"zero_var_ceiling": float("inf")},
    ], ids=["nan", "negative", "infinite"])
    def test_tolerance_not_positive_and_finite_exits_1(self, capsys, tmp_path,
                                                       monkeypatch, tolerances):
        def no_run(*args, **kwargs):
            raise AssertionError("replications ran with a bad tolerance")
        monkeypatch.setattr("spatialar.harness._run_reps", no_run)
        cfg = self.write_config(tmp_path, out_dir=str(tmp_path / "out"),
                                tolerances=tolerances)
        code, out, err = run_cli(capsys, "experiment", "run", "--config", str(cfg))
        (name, value), = tolerances.items()
        assert code == 1 and out == ""
        assert err == f"error: {name} must be positive and finite, got {value}\n"
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
        # a misspelt key is rejected, not run at the default of the key meant
        {"sead": 7},
        {"tolerances": {"cov_rel_tol": 0.3, "zero_var_ceilng": 0.01}},
        {"design": {"alpha": 0.5, "beta": 0.5, "gamma": 1.0, "gama": 2.0,
                    "delta": 1.0}},
        {"design": {"alpha": 0.5, "beta": 0.5,
                    "gamma": {"kind": "power", "c": 1.0, "pp": 0.5}, "delta": 1.0}},
    ], ids=["tolerances", "out_dir", "schedule_string", "schedule_list",
            "ladder_fraction", "reps_fraction", "seed_fraction", "seed_bool",
            "schedule_bool", "schedule_c_bool", "schedule_p_bool",
            "cov_rel_tol_bool", "zero_var_ceiling_bool", "boundary_bool",
            "cholesky_rademacher", "config_typo", "tolerances_typo",
            "design_typo", "schedule_typo"])
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
