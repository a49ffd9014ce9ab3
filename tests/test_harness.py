import json
import math
import multiprocessing
import signal
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spatialar import (
    BoundaryPoint,
    CaseTag,
    ConfigError,
    ExperimentAbortedError,
    ExperimentConfig,
    FieldSimulator,
    InnovationDist,
    ModelParams,
    NearlyUnstableDesign,
    NonStationaryError,
    RngStream,
    Schedule,
    SimMethod,
    OutOfRangeError,
    Tolerances,
    TriangleWindow,
    cov_binrep,
    cov_closed,
    cov_f4,
    cov_series_oracle,
    cumulant_tail_bound,
    lse,
    oracle_margin,
    run_clt,
    tail_variance_bound,
    verify_cov,
    verify_covlim,
    verify_detB,
    verify_prop1,
    verify_score,
)
from spatialar import harness
from spatialar.covariance import _LAG_BLOCK_TERMS
from spatialar.harness import (
    _prop1_target,
    _run_reps,
    _worker_pool,
    dumps_canonical,
    scaled_expected_B,
)
from spatialar.estimate import solve
from spatialar.limits import expected_B, limit_law


def interior_design():
    return NearlyUnstableDesign(BoundaryPoint.from_pair(0.5, 0.5),
                                Schedule.constant(1.0), Schedule.constant(1.0))


def boundary_design():
    return NearlyUnstableDesign(BoundaryPoint.from_pair(1.0, 0.0),
                                Schedule.constant(2.0), Schedule.constant(1.0))


def interior_log_design():
    return NearlyUnstableDesign(BoundaryPoint.from_pair(0.5, 0.5),
                                Schedule.from_json({"kind": "log", "c": 1.0}),
                                Schedule.constant(1.0))


def small_config(**kw):
    defaults = dict(design=interior_design(), ladder=[(16, 16)], reps=100,
                    master_seed=11)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_zero_reps_rejected(self):
        with pytest.raises(ConfigError):
            small_config(reps=0).validate()

    def test_small_reps_rejected(self):
        with pytest.raises(ConfigError):
            small_config(reps=50).validate()

    def test_flat_ladder_rejected(self):
        # s = m keeps the boundary-case statistic constant
        with pytest.raises(ConfigError):
            small_config(design=boundary_design(),
                         ladder=[(8, 8), (16, 16)]).validate()

    def test_decreasing_ladder_rejected(self):
        with pytest.raises(ConfigError):
            small_config(ladder=[(64, 64), (64, 32)]).validate()

    def test_index_too_small_rejected(self):
        with pytest.raises(NonStationaryError):
            small_config(ladder=[(1, 16)]).validate()

    def test_json_roundtrip(self):
        cfg = small_config(out_dir="somewhere")
        cfg2 = ExperimentConfig.from_json(cfg.to_json())
        assert cfg2.to_json() == cfg.to_json()

    def test_malformed_config(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"design": {}})

    @pytest.mark.parametrize("value", [math.nan, -0.3, 0.0, math.inf])
    @pytest.mark.parametrize("name", ["cov_rel_tol", "zero_var_ceiling"])
    def test_tolerance_must_be_positive_and_finite(self, name, value):
        # NaN or a negative value could never pass, and inf passes any data
        message = f"{name} must be positive and finite, got {value}"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            Tolerances(**{name: value})
        with pytest.raises(ConfigError, match=f"^{message}$"):
            Tolerances.from_json({name: value})

    def test_negative_seed_rejected_before_any_replication(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("replications ran with a negative seed")
        monkeypatch.setattr("spatialar.harness._run_reps", no_run)
        for run in (lambda: run_clt(small_config(master_seed=-1)),
                    lambda: verify_detB(interior_design(), 100, 12, 10, master_seed=-1),
                    lambda: verify_score(interior_design(), 100, 12, 10, master_seed=-1)):
            with pytest.raises(ConfigError,
                               match="^master_seed must be a nonnegative integer$"):
                run()


class TestCanonicalJson:
    def test_seventeen_digit_floats(self):
        text = dumps_canonical({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text
        assert json.loads(text) == {"x": float(format(1 / 3, ".17g"))}

    def test_non_finite_become_strings(self):
        assert dumps_canonical({"w": math.inf}) == '{"w":"inf"}'

    def test_sorted_keys(self):
        assert dumps_canonical({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    @pytest.mark.parametrize("text", ["out", "a\\b", 'q"x', "café", "a\tb\nc", "\x00\x1f"])
    def test_strings_round_trip(self, text):
        # control characters are escaped; any other string keeps the bytes
        # of escaping only the backslash and the quote
        assert json.loads(dumps_canonical({"k": text})) == {"k": text}
        if text.isprintable():
            escaped = text.replace("\\", "\\\\").replace('"', '\\"')
            assert dumps_canonical(text) == f'"{escaped}"'


class TestRunCLT:
    def test_determinism_across_runs_and_workers(self, tmp_path, monkeypatch):
        # report.json and every CSV keep their bytes at 1, 2 and 3 workers;
        # out_dir is part of report.json, so every run writes to "out" in a
        # directory of its own
        outputs = []
        for workers in (1, 2, 3):
            run_dir = tmp_path / str(workers)
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            run_clt(small_config(ladder=[(16, 16), (20, 20)], out_dir="out"), workers)
            outputs.append({path.name: path.read_bytes()
                            for path in (run_dir / "out").iterdir()
                            if path.name != "timing.json"})
        assert sorted(outputs[0]) == ["errors_m16_s16.csv", "errors_m20_s20.csv",
                                      "report.json"]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_null_pipeline_is_exactly_zero(self, monkeypatch):
        # every replication estimates the true (alpha, beta): with B = I and
        # C = (alpha, beta) each aggregate of the scaled errors must vanish
        # exactly
        def exact_reps(sim, streams, runner=(map, 1), score=False):
            return np.array([[1.0, 0.0, 1.0, sim.params.alpha, sim.params.beta]
                             for _ in streams])
        monkeypatch.setattr("spatialar.harness._run_reps", exact_reps)
        rep = run_clt(small_config())
        rec = rep.per_size[0]
        assert_allclose(rec["scaled_mean"], [0.0, 0.0])
        assert_allclose(rec["scaled_cov"], np.zeros((2, 2)))
        assert rec["proj_var"] == {"sum": 0.0, "diff": 0.0}

    def test_seeds_2_to_the_64_apart_write_different_errors(self, tmp_path):
        # a seed is used as it is, not reduced modulo 2^64
        csvs = []
        for seed in (0, 2**64):
            run_clt(small_config(master_seed=seed, out_dir=str(tmp_path / str(seed))))
            csvs.append((tmp_path / str(seed) / "errors_m16_s16.csv").read_bytes())
        assert csvs[0] != csvs[1]

    def test_overall_pass_is_the_last_rungs(self):
        # a cov_rel_tol between the two rungs' deviations passes exactly one
        # rung; the run's verdict is the last rung's, whichever it is
        ladder = [(16, 16), (20, 20)]
        recs = run_clt(small_config(ladder=ladder)).per_size
        devs = [abs(r["proj_var"]["diff"] - r["limit_proj"]["diff"]) / r["limit_proj"]["diff"]
                for r in recs]
        assert devs[0] != devs[1]
        tol = Tolerances(sum(devs) / 2, 1.01 * max(r["proj_var"]["sum"] for r in recs))
        report = run_clt(small_config(ladder=ladder, tolerances=tol))
        passes = [r["pass"] for r in report.per_size]
        assert passes in ([True, False], [False, True])
        assert report.pass_flag is passes[-1]

    def test_normality_flag_reads_the_larger_statistic(self, monkeypatch):
        # errors at normal quantiles along the sum direction and at +-1 along
        # the diff direction: only d_diff exceeds the threshold, and that
        # raises the flag
        n = 100
        x = np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
        y = np.resize([-1.0, 1.0], n)

        def two_laws(sim, streams, runner=(map, 1), score=False):
            # B = I, so theta = C: the errors are d
            d = 1e-3 * np.column_stack([x + y, x - y])
            return np.column_stack([np.ones(n), np.zeros(n), np.ones(n),
                                    sim.params.alpha + d[:, 0], sim.params.beta + d[:, 1]])
        monkeypatch.setattr(harness, "_run_reps", two_laws)
        rec = run_clt(small_config(reps=n)).per_size[0]["normality"]
        assert rec["d_sum"] < rec["threshold"] < rec["d_diff"]
        assert rec["flag"] is True

    def test_report_covariance_symmetric_psd(self):
        rep = run_clt(small_config(reps=200))
        cov = np.array(rep.per_size[0]["scaled_cov"])
        assert_allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-12)

    def test_interior_singular_signature(self):
        # sum-direction variance shrinks along the ladder; difference
        # direction stays on the same scale (the rank-one limit law)
        cfg = small_config(ladder=[(24, 24), (96, 96)], reps=300,
                           master_seed=17)
        rep = run_clt(cfg)
        v1, v2 = (r["proj_var"] for r in rep.per_size)
        assert v2["sum"] < v1["sum"]
        assert 0.2 < v2["diff"] / v1["diff"] < 5.0

    def test_negative_product_interior_check_reads_the_sum_direction(self):
        # at alpha*beta < 0 the limit 4|ab| w w' lies along w = (1, 1)/sqrt(2):
        # var(sum) is compared with the limit 1.0 to cov_rel_tol, and
        # var(diff), the null direction, is bounded by zero_var_ceiling.
        # Tolerances 1% either side of each measured deviation flip the pass
        design = NearlyUnstableDesign(BoundaryPoint.from_pair(0.5, -0.5),
                                      Schedule.constant(1.0), Schedule.constant(-1.0))

        def run(tol):
            return run_clt(small_config(design=design, ladder=[(64, 64)], reps=200,
                                        master_seed=5, tolerances=tol)).per_size[0]

        rec = run(Tolerances())
        pv, lim = rec["proj_var"], rec["limit_proj"]
        assert lim["sum"] == pytest.approx(1.0) and lim["diff"] == 0.0
        dev_sum = abs(pv["sum"] - lim["sum"]) / lim["sum"]
        assert 0.0 < dev_sum < 0.5 and 0.0 < pv["diff"] < 0.5
        assert run(Tolerances(1.01 * dev_sum, 1.01 * pv["diff"]))["pass"]
        assert not run(Tolerances(0.99 * dev_sum, 1.01 * pv["diff"]))["pass"]
        assert not run(Tolerances(1.01 * dev_sum, 0.99 * pv["diff"]))["pass"]

    def test_boundary_records(self):
        cfg = ExperimentConfig(boundary_design(), [(16, 64)], reps=150,
                               master_seed=5)
        rep = run_clt(cfg)
        rec = rep.per_size[0]
        assert rec["omega_n"] == pytest.approx(2.0)
        assert "normalized_cov" in rec and "elementwise_dev" in rec
        assert rec["singular_reps"] == 0

    def test_normality_diagnostic_reported(self):
        rep = run_clt(small_config(reps=400))
        rec = rep.per_size[0]["normality"]
        assert rec["threshold"] == pytest.approx(1.63 / math.sqrt(400))
        assert 0.0 < rec["d_diff"] < 1.0 and 0.0 < rec["d_sum"] < 1.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_files(self, tmp_path, workers):
        cfg = small_config(out_dir=str(tmp_path / "out"))
        run_clt(cfg, workers=workers)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["schema"] == "spatialar-report-v1"
        assert report["per_size"][0]["reps_used"] == 100
        timing = json.loads((tmp_path / "out" / "timing.json").read_text())
        assert len(timing["per_size"]) == 1
        rung = timing["per_size"][0]
        # the batch is capped at 963 rows, so each chunk of 100 // workers
        # replications runs as one batch
        sim = FieldSimulator(cfg.design.params_at(16), TriangleWindow.balanced(16))
        assert sim.batch == 963
        assert rung["batch_reps"] == 100 // workers
        assert rung["reps_per_s"] == pytest.approx(100 / rung["elapsed_s"])
        assert rung["workers"] == workers
        assert "series_margin" not in rung and "series_cumulant_bound" not in rung
        assert "omega_settled" not in rung
        with open(tmp_path / "out" / "errors_m16_s16.csv") as fh:
            header = fh.readline().strip()
        assert header == "rep_id,alpha_hat,beta_hat,scaled_err_a,scaled_err_b"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_reps_is_capped_by_the_sampler_batch(self, tmp_path, monkeypatch, workers):
        # a cap of 30 rows runs the chunks of 100 and 50 in batches of at
        # most 30
        monkeypatch.setattr("spatialar.simulate._BATCH_FLOATS", 30 * 8 * 17)
        run_clt(small_config(out_dir=str(tmp_path / "out")), workers=workers)
        timing = json.loads((tmp_path / "out" / "timing.json").read_text())
        assert timing["per_size"][0]["batch_reps"] == 30

    def test_errors_csv_lines_end_in_a_bare_newline(self, tmp_path):
        # the package's one CSV dialect, as in sim field and cov table
        run_clt(small_config(ladder=[(16, 16), (20, 20)], out_dir=str(tmp_path / "out")))
        paths = sorted((tmp_path / "out").glob("errors_*.csv"))
        assert [path.name for path in paths] == ["errors_m16_s16.csv", "errors_m20_s20.csv"]
        for path in paths:
            data = path.read_bytes()
            assert b"\r" not in data
            assert data.endswith(b"\n") and data.count(b"\n") == 1 + 100

    @pytest.mark.parametrize("margin", [None, 40])
    def test_series_timing_reports_margin_and_tail_bound(self, tmp_path, margin):
        # a non-Gaussian rung reports its resolved depth and the certificate
        # S4(M) q^(4M) / (1 - q^4) on its fourth-cumulant tail, which is at
        # most the plain geometric bound q^(4M) / (1 - q^4)
        method = SimMethod(margin)
        cfg = small_config(ladder=[(16, 16), (24, 24)], method=method,
                           dist=InnovationDist.RADEMACHER, out_dir=str(tmp_path / "out"))
        run_clt(cfg)
        timing = json.loads((tmp_path / "out" / "timing.json").read_text())
        for (m, s), rung in zip(cfg.ladder, timing["per_size"]):
            params = cfg.design.params_at(m)
            sim = FieldSimulator(params, TriangleWindow.balanced(s), method,
                                 InnovationDist.RADEMACHER)
            depth = sim.method.margin
            assert rung["series_margin"] == depth
            assert rung["series_cumulant_bound"] == cumulant_tail_bound(params, depth)
            assert 0.0 < rung["series_cumulant_bound"] <= tail_variance_bound(
                params.q * params.q, depth - 1)
            if margin is None:
                assert rung["series_cumulant_bound"] <= 1e-12
            assert "series_tail_bound" not in rung
        # the diagnostics go to the sidecar only
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert all("series_margin" not in rec and "series_cumulant_bound" not in rec
                   for rec in report["per_size"])

    @pytest.mark.parametrize("design", [
        boundary_design(),
        # gamma/delta drifts to infinity: the probe cannot settle omega
        NearlyUnstableDesign(BoundaryPoint.from_pair(1.0, 0.0),
                             Schedule.from_json({"kind": "power", "c": 1.0, "p": 0.5}),
                             Schedule.from_json({"kind": "log", "c": 1.0})),
    ], ids=["settled", "drifting"])
    def test_boundary_timing_reports_omega_settled(self, tmp_path, design):
        cfg = ExperimentConfig(design, [(16, 32), (24, 48)], reps=100, master_seed=5,
                               out_dir=str(tmp_path / "out"))
        run_clt(cfg)
        settled = limit_law(design, m_probe=24).omega_settled
        timing = json.loads((tmp_path / "out" / "timing.json").read_text())
        assert [rung["omega_settled"] for rung in timing["per_size"]] == [settled] * 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert all("omega_settled" not in rec for rec in report["per_size"])


class TestBatchedEngine:
    @pytest.mark.parametrize("method, dist", [
        (SimMethod(0), InnovationDist.GAUSSIAN),
        (SimMethod(None), InnovationDist.RADEMACHER),
    ], ids=["boundary_cholesky", "boundary_series"])
    def test_rows_identical_across_batch_sizes_and_workers(self, method, dist):
        params, window, seed = ModelParams(0.45, 0.4), TriangleWindow.balanced(40), 23
        rep_ids = list(range(5, 25))
        streams = [RngStream(seed, rep) for rep in rep_ids]
        sim = FieldSimulator(params, window, method, dist)
        runs = []
        for batch in (1, 7, 64):
            sim.batch = batch
            for workers in (1, 2):
                with _worker_pool(workers, len(rep_ids)) as runner:
                    runs.append(_run_reps(sim, streams, runner, score=True))
        assert len({sums.tobytes() for sums in runs}) == 1
        assert runs[0].shape == (len(rep_ids), 7)
        # solve of each row is the public single-field path, bit for bit
        theta, det, ok = solve(runs[0])
        expected = []
        for rep in rep_ids:
            est = lse(sim.sample(RngStream(seed, rep)), window)
            expected.append([est.alpha_hat, est.beta_hat, est.detB,
                             est.score[0], est.score[1]])
        got = np.column_stack([theta, det, runs[0][:, 5:7]])
        assert ok.all() and got.tobytes() == np.array(expected).tobytes()

    def test_ids_split_into_one_contiguous_chunk_per_process(self):
        # a runner's map gets n chunks in id order, and its sums are those of
        # the in-process run of one chunk
        sim = FieldSimulator(ModelParams(0.45, 0.4), TriangleWindow.balanced(8))
        streams = [RngStream(3, rep) for rep in range(10)]
        chunks = []

        def spy_map(fn, *iterables):
            calls = list(zip(*iterables))
            chunks.extend([s.replication_id for s in chunk] for _, chunk, _ in calls)
            return [fn(*args) for args in calls]
        sums = _run_reps(sim, streams, (spy_map, 3))
        assert chunks == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert sums.tobytes() == _run_reps(sim, streams).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_without_score_match_the_scored_rows(self, workers):
        # run_clt and verify_detB pass no innovations: B and C keep their
        # bits and the score columns are left out
        params, window, seed = ModelParams(0.45, 0.4), TriangleWindow.balanced(40), 23
        sim = FieldSimulator(params, window)
        sim.batch = 7
        streams = [RngStream(seed, rep) for rep in range(5, 25)]
        with _worker_pool(workers, len(streams)) as runner:
            scored = _run_reps(sim, streams, runner, score=True)
            plain = _run_reps(sim, streams, runner)
        assert plain.shape == (len(streams), 5) and scored.shape == (len(streams), 7)
        assert plain.tobytes() == scored[:, :5].tobytes()
        assert np.isfinite(scored[:, 5:]).all()


ROOT = Path(__file__).resolve().parents[1]

_FORKS = """
import json, os, sys
sys.path[:0] = ["src"]
from spatialar import harness
from spatialar.model import BoundaryPoint, NearlyUnstableDesign, Schedule
after_import = "numpy.random" in sys.modules
at_fork = []
os.register_at_fork(before=lambda: at_fork.append("numpy.random" in sys.modules))
design = NearlyUnstableDesign(BoundaryPoint.from_pair(0.5, 0.5),
                              Schedule.constant(1.0), Schedule.constant(1.0))
harness.run_clt(harness.ExperimentConfig(design, [(16, 16)], reps=100), workers=2)
print(json.dumps({"after_import": after_import, "at_fork": at_fork}))
"""


@pytest.fixture
def pools(monkeypatch):
    """Spy on the pools the harness opens: the max_workers of each pool
    entered, in order, and the number of processes started."""
    entered, started = [], []

    class SpyPool(harness.ProcessPoolExecutor):
        def __enter__(self):
            entered.append(self._max_workers)
            return super().__enter__()

    start = multiprocessing.process.BaseProcess.start

    def spy_start(process):
        started.append(process)
        return start(process)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", spy_start)
    return entered, started


class TestWorkerPool:
    LADDER = [(16, 16), (20, 20), (24, 24)]

    def test_one_pool_for_the_whole_ladder(self, pools, tmp_path):
        entered, started = pools
        run_clt(small_config(ladder=self.LADDER, out_dir=str(tmp_path / "out")),
                workers=2)
        assert entered == [2] and len(started) == 2
        timing = json.loads((tmp_path / "out" / "timing.json").read_text())
        assert [rung["workers"] for rung in timing["per_size"]] == [2, 2, 2]

    def test_one_worker_opens_no_pool(self, pools):
        entered, started = pools
        run_clt(small_config(ladder=self.LADDER), workers=1)
        assert entered == [] and started == []

    @pytest.mark.parametrize("suite", [verify_detB, verify_score])
    def test_too_few_reps_start_no_process(self, pools, suite):
        # 3 replications on 2 workers run in-process
        entered, started = pools
        suite(interior_design(), 100, 12, reps=3, workers=2)
        assert entered == [] and started == []

    def test_negative_seed_starts_no_process(self, pools):
        # the pool is entered, but the streams are built in the parent before
        # the first task, so no worker is ever started
        entered, started = pools
        for run in (lambda: run_clt(small_config(master_seed=-1), workers=2),
                    lambda: verify_detB(interior_design(), 100, 12, reps=4,
                                        master_seed=-1, workers=2),
                    lambda: verify_score(interior_design(), 100, 12, reps=4,
                                         master_seed=-1, workers=2)):
            with pytest.raises(ConfigError,
                               match="^master_seed must be a nonnegative integer$"):
                run()
        assert entered == [2, 2, 2] and started == []

    def test_fallback_rungs_report_one_worker(self, monkeypatch, tmp_path):
        # 100 replications on 51 workers fall back to the parent process;
        # the stand-in pool refuses to be built, so nothing can fork
        def refuse(*args, **kwargs):
            raise AssertionError("a pool was opened for the in-process fallback")
        monkeypatch.setattr(harness, "ProcessPoolExecutor", refuse)
        run_clt(small_config(ladder=self.LADDER[:2], out_dir=str(tmp_path / "out")),
                workers=51)
        timing = json.loads((tmp_path / "out" / "timing.json").read_text())
        assert [rung["workers"] for rung in timing["per_size"]] == [1, 1]

    def test_workers_inherit_numpy_random(self):
        # numpy loads numpy.random lazily: importing the package must not load
        # it, and the pooled path must load it in the parent before each fork
        proc = subprocess.run([sys.executable, "-c", _FORKS], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"after_import": False,
                                           "at_fork": [True, True]}

    @pytest.mark.parametrize("workers, message", [
        (0, "workers must be at least 1"),
        (-3, "workers must be at least 1"),
        # a fraction or a boolean is rejected, not passed to the pool or read as 1
        (2.5, "workers must be an integer"),
        (True, "workers must be an integer"),
    ], ids=["0", "-3", "2.5", "True"])
    def test_bad_worker_count_rejected_before_any_replication(self, pools, monkeypatch,
                                                              workers, message):
        def no_run(*args, **kwargs):
            raise AssertionError("replications ran with a bad worker count")
        monkeypatch.setattr("spatialar.harness._run_reps", no_run)
        with pytest.raises(ConfigError, match=message):
            run_clt(small_config(), workers=workers)
        with pytest.raises(ConfigError, match=message):
            verify_detB(interior_design(), 100, 12, reps=10, workers=workers)
        with pytest.raises(ConfigError, match=message):
            verify_score(interior_design(), 100, 12, reps=10, workers=workers)
        assert pools == ([], [])

    def test_abort_inside_the_pool_leaves_no_process(self, pools, monkeypatch):
        # rung 2's replications come back singular while the pool is live:
        # the abort must shut the pool down and join its workers
        entered, started = pools
        run_reps, live = harness._run_reps, []

        def singular_at_rung_2(sim, streams, runner=(map, 1), score=False):
            sums = run_reps(sim, streams, runner, score)
            live.append(runner[0] is not map)
            if len(live) == 2:
                sums[:] = 0.0  # det B = 0: every replication is singular
            return sums
        monkeypatch.setattr(harness, "_run_reps", singular_at_rung_2)

        def hung(signum, frame):
            raise TimeoutError("the aborted run did not return")
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(120)
        try:
            with pytest.raises(ExperimentAbortedError, match=r"\(m=20, s=20\)"):
                run_clt(small_config(ladder=self.LADDER), workers=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert live == [True, True] and entered == [2] and len(started) == 2
        assert multiprocessing.active_children() == []


class TestVerifySuites:
    @pytest.mark.parametrize("run, message", [
        (lambda: verify_covlim(interior_design(), 10_000_000, True),
         "^n_probe must be an integer, got True$"),
        (lambda: verify_covlim(interior_design(), 10_000_000, 8000.5),
         "^n_probe must be an integer, got 8000.5$"),
        (lambda: verify_detB(interior_design(), 100, 16.5, reps=100, workers=2),
         "^s must be an integer, got 16.5$"),
        (lambda: verify_detB(interior_design(), 100.5, 12, reps=100, workers=2),
         "^m must be an integer, got 100.5$"),
        (lambda: verify_score(interior_design(), 100, 12, reps=100.5, workers=2),
         "^reps must be an integer, got 100.5$"),
        (lambda: run_clt(small_config(reps=150.5), workers=2),
         "^reps must be an integer, got 150.5$"),
        (lambda: run_clt(small_config(ladder=[(16, 16), (16, 16.5)]), workers=2),
         "^ladder s must be an integer, got 16.5$"),
        # verify_prop1 reads its ladder as ExperimentConfig.validate does
        (lambda: verify_prop1(interior_design(), [(64, 64.5), (128, 128)]),
         "^ladder s must be an integer, got 64.5$"),
        (lambda: verify_prop1(interior_design(), [(True, 64), (128, 128)]),
         "^ladder m must be an integer, got True$"),
        (lambda: verify_prop1(interior_design(), []),
         r"^ladder must contain at least one \(m, s\) pair$"),
        (lambda: verify_prop1(interior_design(), [(0, 64), (128, 128)]),
         r"^ladder entry \(0, 64\) out of range$"),
        (lambda: verify_prop1(interior_design(), [(64, 0), (128, 128)]),
         r"^ladder entry \(64, 0\) out of range$"),
    ], ids=["covlim_n_probe_bool", "covlim_n_probe_fraction", "detb_s_fraction",
            "detb_m_fraction", "score_reps_fraction", "clt_reps_fraction",
            "clt_ladder_fraction", "prop1_s_fraction", "prop1_m_bool", "prop1_empty",
            "prop1_m_zero", "prop1_s_zero"])
    def test_non_integer_count_rejected_before_any_replication(self, pools, monkeypatch,
                                                               run, message):
        # a count passed from Python is read through model._integer, as in a
        # config file: a fraction or a boolean is rejected, not run or
        # reported as it is
        def no_run(*args, **kwargs):
            raise AssertionError("replications ran with a non-integer count")
        monkeypatch.setattr("spatialar.harness._run_reps", no_run)
        monkeypatch.setattr("spatialar.harness._prop1_target", no_run)
        with pytest.raises(ConfigError, match=message):
            run()
        assert pools == ([], [])

    @pytest.mark.parametrize("run", [
        lambda **n: verify_detB(interior_design(), n["m"], n["s"], reps=n["reps"]),
        lambda **n: verify_score(interior_design(), n["m"], n["s"], reps=n["reps"]),
        lambda **n: run_clt(small_config(ladder=[(n["m"], n["s"])], reps=n["reps"]),
                            workers=n["workers"]).to_canonical_dict(),
    ], ids=["detb", "score", "clt"])
    def test_integral_float_counts_run_as_integers(self, run):
        ints = run(m=100, s=12, reps=100, workers=1)
        floats = run(m=100.0, s=12.0, reps=100.0, workers=1.0)
        assert dumps_canonical(floats) == dumps_canonical(ints)

    def test_prop1_boundary_passes(self):
        r = verify_prop1(boundary_design(),
                         [(m, math.ceil(m**1.25)) for m in (16, 32, 64)])
        assert r["strictly_decreasing"] and r["pass"]

    def test_prop1_interior_decreasing(self):
        r = verify_prop1(interior_design(), [(64, 64), (128, 128), (256, 256)])
        assert r["strictly_decreasing"]

    def test_prop1_repeated_entry_is_not_strictly_decreasing(self):
        r = verify_prop1(interior_design(), [(64, 64), (128, 128), (128, 128)])
        assert r["deviations"][0] > r["deviations"][1] == r["deviations"][2]
        assert not r["strictly_decreasing"] and not r["pass"]

    def test_reports_name_their_fixed_tolerances(self):
        # the suites take no tolerance argument; each report keeps its key
        prop1 = verify_prop1(interior_design(), [(64, 64), (128, 128)])
        assert prop1["final_tol"] == 0.10
        assert prop1["pass"] == (prop1["strictly_decreasing"]
                                 and prop1["final_deviation"] < 0.10)
        covlim = verify_covlim(interior_design(), m=10_000_000, n_probe=8000)
        assert len(covlim["points"]) == 4
        for suite in (verify_detB, verify_score):
            r = suite(interior_design(), 64, 16, reps=20, master_seed=3)
            assert r["rel_tol"] == 0.2

    def test_covlim_fails_a_covariance_that_does_not_halve(self, monkeypatch):
        # a covariance that does not decay keeps every bound on the diagonal
        # and fails every off-diagonal pair
        monkeypatch.setattr("spatialar.harness.cov_closed", lambda params, k, l: 1.0)
        r = verify_covlim(interior_design(), m=10_000_000, n_probe=8000)
        assert [rec["pass"] for rec in r["points"]] == [True, True, False, False]
        assert not r["pass"]

    def test_covlim_both_cases(self):
        for design in (interior_design(), boundary_design()):
            r = verify_covlim(design, m=10_000_000, n_probe=8000)
            assert r["pass"], r
            assert r["value_at_zero_lag"] <= r["bound"] * (1 + 1e-6)

    @staticmethod
    def _verify_cov_one_lag(values, lag_max, tol):
        # the four-way check with one call per lag and route
        worst, worst_at, n_points = 0.0, None, 0
        for a in values:
            for b in values:
                if abs(a) + abs(b) > 0.9:
                    continue
                p = ModelParams(a, b)
                margin = oracle_margin(p.q, max(tol * 1e-2, 1e-16))
                for k in range(-lag_max, lag_max + 1):
                    for l in range(-lag_max, lag_max + 1):
                        n_points += 1
                        ref = cov_closed(p, k, l)
                        devs = [abs(cov_f4(p, k, l) - ref),
                                abs(cov_series_oracle(p, k, l, margin) - ref)]
                        if k * l >= 0:
                            devs.append(abs(cov_binrep(p, k, l) - ref))
                        if max(devs) > worst:
                            worst, worst_at = max(devs), (a, b, k, l)
        return {"n_points": n_points, "worst_dev": worst, "worst_at": worst_at,
                "tol": tol, "pass": worst <= tol}

    @pytest.mark.parametrize("values, lag_max, tol", [
        ((-0.45, -0.1, 0.25, 0.45), 3, 1e-8),
        ((-0.25, 0.0, 0.1, 0.45), 5, 1e-15),
    ])
    def test_verify_cov_equals_one_lag_calls(self, values, lag_max, tol):
        # the check on whole lag boxes reports what one call per lag
        # reports, types included; the routes' grid blocks end mid-way
        # through a row of the lag box at small q, and hold one lag at
        # q = 0.9, where one table block holds the whole box
        assert _LAG_BLOCK_TERMS == 1 << 13
        got = verify_cov(values, lag_max, tol)
        assert repr(got) == repr(self._verify_cov_one_lag(values, lag_max, tol))

    def test_verify_cov_reference_is_per_lag_cov_closed(self, monkeypatch):
        # every route returns per-lag cov_closed, so a zero worst deviation
        # means that verify_cov's reference equals it bit for bit
        def per_lag(p, k, l, *args):
            return np.array([cov_closed(p, int(x), int(y)) for x, y in zip(k, l)])
        for name in ("cov_f4", "cov_series_oracle", "cov_binrep"):
            monkeypatch.setattr(f"spatialar.harness.{name}", per_lag)
        r = verify_cov((-0.45, -0.1, 0.0, 0.25, 0.45), lag_max=4)
        assert r["worst_dev"] == 0.0 and r["worst_at"] is None and r["pass"]

    def test_verify_cov_fails_on_nan(self, monkeypatch):
        # a route that returns NaN at one lag fails the check there
        def f4(p, k, l, tol=1e-12):
            return np.where((k == 1) & (l == -1), np.nan, cov_f4(p, k, l, tol))
        monkeypatch.setattr("spatialar.harness.cov_f4", f4)
        r = verify_cov((0.1, 0.25), lag_max=2)
        assert r["worst_dev"] == math.inf and r["worst_at"] == (0.1, 0.1, 1, -1)
        assert not r["pass"]
        # a NaN parameter has no stationary law: the oracle's margin rejects it
        with pytest.raises(NonStationaryError, match="got nan"):
            verify_cov((math.nan, 0.1), lag_max=2)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_verify_cov_rejects_bad_tolerance(self, tol):
        with pytest.raises(OutOfRangeError):
            verify_cov(lag_max=1, tol=tol)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_verify_cov_rejects_bad_tolerance_without_a_stable_pair(self, tol):
        # the tolerance is checked before the grid, so a grid whose every
        # pair is skipped rejects it too
        with pytest.raises(OutOfRangeError,
                           match="^truncation tolerance must be positive and finite"):
            verify_cov((0.5, 0.6), lag_max=1, tol=tol)

    @pytest.mark.parametrize("lag_max", [-1, True, 2.5, 3.0, "3"])
    def test_verify_cov_rejects_a_lag_max_that_is_not_a_non_negative_integer(
            self, lag_max, monkeypatch):
        calls = []
        monkeypatch.setattr("spatialar.harness.cov_closed",
                            lambda *args: calls.append(args) or cov_closed(*args))
        with pytest.raises(OutOfRangeError, match="lag_max must be a non-negative integer"):
            verify_cov((0.1, 0.2), lag_max=lag_max)
        assert calls == []

    def test_verify_cov_passes_at_a_tiny_alpha(self):
        # the closed form's mixed-quadrant base Ga at alpha = 1e-9 cancelled
        # to 56 times its value, 1.1e-7 off the oracle at (-1, 0)
        r = verify_cov((1e-9, 0.45), lag_max=3)
        assert r["n_points"] == 196 and r["pass"]

    def test_verify_cov_at_lag_max_zero_checks_the_variances(self):
        r = verify_cov((0.1, 0.2), lag_max=np.int64(0))
        assert r["n_points"] == 4 and r["pass"]

    def test_verify_cov_without_a_stable_pair_fails(self):
        r = verify_cov((0.5, 0.6), lag_max=1)
        assert r["n_points"] == 0 and r["worst_at"] is None and not r["pass"]

    def test_verify_cov_floors_the_oracle_target(self, monkeypatch):
        # the oracle's tail target tol / 100 is floored at 1e-16, so a tol
        # far below rounding runs the 1e-16 margin and fails
        targets = []

        def margin(q, tol=1e-12):
            targets.append(tol)
            return oracle_margin(q, tol)
        monkeypatch.setattr("spatialar.harness.oracle_margin", margin)
        r = verify_cov((-0.45, 0.45), lag_max=1, tol=1e-300)
        assert min(targets) == 1e-16 and not r["pass"]

    def test_detb_report_structure(self):
        r = verify_detB(interior_design(), 64, 64, reps=150, master_seed=3)
        assert r["target"] == pytest.approx(2.0 * 2.0**-1.5)
        assert 0.2 < r["scaled_mean"] < 1.0
        assert r["std_error"] < 0.02

    @pytest.mark.parametrize("suite", [verify_detB, verify_score])
    def test_over_one_percent_singular_aborts(self, monkeypatch, suite):
        # run_clt's rule: 2 of 100 rows singular abort the suite, naming (m, s)
        run_reps = harness._run_reps

        def two_singular(*args):
            sums = run_reps(*args)
            sums[3:5] = 0.0  # det B = 0
            return sums
        monkeypatch.setattr(harness, "_run_reps", two_singular)
        with pytest.raises(ExperimentAbortedError,
                           match=r"^2/100 singular replications at \(m=100, s=12\)$"):
            suite(interior_design(), 100, 12, reps=100)

    @pytest.mark.parametrize("suite", [verify_detB, verify_score])
    def test_one_percent_singular_is_left_out(self, monkeypatch, suite):
        # 1 of 100 rows singular: the report is that of the other 99 rows
        run_reps = harness._run_reps

        def one_singular(*args):
            sums = run_reps(*args)
            sums[3] = 0.0
            return sums

        def one_missing(*args):
            return np.delete(run_reps(*args), 3, axis=0)
        reports = []
        for stand_in in (one_singular, one_missing):
            monkeypatch.setattr(harness, "_run_reps", stand_in)
            reports.append(dumps_canonical(suite(interior_design(), 100, 12, reps=100)))
        assert json.loads(reports[0])["reps"] == 99
        assert reports[0] == reports[1]

    def test_detb_interior_only(self):
        with pytest.raises(ConfigError):
            verify_detB(boundary_design(), 64, 64, reps=100)

    def test_detb_target_rescales_with_parameters(self):
        d = NearlyUnstableDesign(BoundaryPoint.from_pair(0.6, 0.4),
                                 Schedule.constant(1.0), Schedule.constant(1.0))
        r = verify_detB(d, 32, 32, reps=100, master_seed=3)
        assert r["target"] == pytest.approx(2.0 * 1.92**-1.5)

    def test_score_boundary_passes(self):
        r = verify_score(boundary_design(), 32, 181, reps=400, master_seed=7)
        assert r["pass"], r
        assert r["mean_within_4se"]

    @pytest.mark.parametrize("shift, within", [(3.0, True), (10.0, False)])
    def test_score_mean_is_flagged_beyond_four_standard_errors(self, monkeypatch,
                                                               shift, within):
        # the first score column's mean is moved to ``shift`` of its standard
        # errors; the second is left as sampled
        run_reps = harness._run_reps

        def shifted(*args):
            sums = run_reps(*args)
            col = sums[:, 5]
            col += shift * col.std(ddof=1) / math.sqrt(len(col)) - col.mean()
            return sums
        monkeypatch.setattr(harness, "_run_reps", shifted)
        r = verify_score(interior_design(), 100, 12, reps=100)
        assert r["reps"] == 100 and r["mean_within_4se"] is within

    def test_score_interior_mean_zero(self):
        r = verify_score(interior_design(), 64, 64, reps=300, master_seed=9)
        assert r["mean_within_4se"]


def test_scaled_expected_B_limits():
    # closed-form sanity for the two scalings used by the verifiers
    assert scaled_expected_B(interior_design(), 4096, 4096)[0, 0] == pytest.approx(
        (32 * 0.25) ** -0.5, rel=0.02)
    assert scaled_expected_B(boundary_design(), 4096, 4096 * 2)[0, 0] == pytest.approx(
        0.25, rel=0.01)


@pytest.mark.parametrize("design", [interior_design(), interior_log_design(),
                                    boundary_design()],
                         ids=["interior", "interior_log", "boundary"])
def test_suite_scales_match_per_case_expressions(design):
    # the per-case scales as the suites spelled them out before they took
    # them from condition_statistic
    m, s, reps, seed = 64, 24, 40, 5
    g, d = design.gamma(m), design.delta(m)
    if design.case_tag is CaseTag.INTERIOR:
        info = (abs(g) + abs(d)) ** 0.5 * m**-0.5
        mean_scale = s**-2.0 * m**-0.5 * (abs(g) + abs(d)) ** 0.5
        det_scale = s**-4.0 * m**-0.5 * (abs(g) + abs(d)) ** 0.5
        score_scale = s**-1.0 * m**-0.25 * (abs(g) + abs(d)) ** 0.25
    else:
        info = abs(g * g - d * d) ** 0.5 / m
        mean_scale = s**-2.0 * abs(g * g - d * d) ** 0.5 / m
        score_scale = s**-1.0 * m**-0.5 * abs(g * g - d * d) ** 0.25
    params = design.params_at(m)
    rel = dict(rtol=1e-14, atol=0)

    assert_allclose(scaled_expected_B(design, m, s),
                    expected_B(params, s) * mean_scale, **rel)
    covlim = verify_covlim(design, m, n_probe=50)
    assert_allclose(covlim["value_at_zero_lag"], info * cov_closed(params, 0, 0), **rel)

    sums = _run_reps(FieldSimulator(params, TriangleWindow.balanced(s)),
                     [RngStream(seed, rep) for rep in range(reps)], score=True)
    _, det, ok = solve(sums)
    score = verify_score(design, m, s, reps, master_seed=seed)
    assert_array_equal(score["target"], _prop1_target(design, m))
    assert_allclose(score["scaled_cov"], np.cov(sums[ok, 5:7] * score_scale, rowvar=False),
                    **rel)
    if design.case_tag is CaseTag.INTERIOR:
        detb = verify_detB(design, m, s, reps, master_seed=seed)
        assert_allclose(detb["scaled_mean"], np.mean(det[ok] * det_scale), **rel)
        assert_allclose(detb["std_error"],
                        np.std(det[ok] * det_scale, ddof=1) / math.sqrt(np.sum(ok)), **rel)
