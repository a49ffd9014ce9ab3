"""Experiment orchestration: replication engine, verification suites, reports.

Replications are embarrassingly parallel: each one reads its own SFC64
stream keyed by a SeedSequence spawn key, so results depend only on
(master_seed, replication id).  A call builds every replication's stream
in the parent, splits them into contiguous chunks and takes their sums back
in submission order, so every result is in id order.  The number of
workers must not change a single output byte; wall-clock timings are
therefore kept out of the canonical report and written to a sidecar.

A run (``run_clt`` over its whole ladder, or one ``verify_detB`` /
``verify_score`` call) gets one runner from ``_worker_pool``, which alone
decides whether the run opens a process pool: ``(pool.map, workers)`` of
that one pool, whose warm workers every call of ``_run_reps`` in the run
reuses, or ``(map, 1)``, the parent itself.  An in-process call is thus the
pooled call with one chunk.  The parent imports ``numpy.random`` just
before the pool's first fork, so the workers inherit it; a run without a
pool leaves that import to the first draw.

Each (m, s) of the three is one ``_rung``: it builds the sampler, runs
``_run_reps`` and ``solve``, and applies one singular rule, so more than 1%
singular replications abort the run and the rest are left out and counted.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from .covariance import (
    cov_binrep,
    cov_closed,
    cov_f4,
    cov_series_oracle,
    oracle_margin,
)
from .errors import ConfigError, ExperimentAbortedError, OutOfRangeError
# lse is not called here; perfbench/tracing.py wraps harness.lse by name
from .estimate import accumulate, lse, solve
from .limits import (
    condition_statistic,
    expected_B,
    limit_law,
    omega_n,
    psi_matrix,
    sqrt_spd2,
    theta_matrix,
    theta_scalar,
)
from .model import (
    CaseTag,
    ModelParams,
    NearlyUnstableDesign,
    TriangleWindow,
    _integer,
    _real,
)
from .simulate import (
    FieldSimulator,
    InnovationDist,
    RngStream,
    SimMethod,
    cumulant_tail_bound,
)

__all__ = [
    "Tolerances", "ExperimentConfig", "ExperimentReport", "run_clt",
    "verify_cov", "verify_prop1", "verify_covlim", "verify_detB",
    "verify_score", "dumps_canonical",
]

_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class Tolerances:
    """Acceptance tolerances for the CLT experiment.

    cov_rel_tol bounds the relative deviation of empirical (co)variances
    from their theoretical limits; zero_var_ceiling bounds the variance of
    projections whose limit is zero (the singular direction).  A value that
    is not positive and finite raises ConfigError.
    """

    cov_rel_tol: float = 0.3
    zero_var_ceiling: float = 0.05

    def __post_init__(self):
        for name, value in self.to_json().items():
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")

    def to_json(self) -> dict:
        return {"cov_rel_tol": self.cov_rel_tol,
                "zero_var_ceiling": self.zero_var_ceiling}

    @classmethod
    def from_json(cls, obj: dict) -> "Tolerances":
        if not isinstance(obj, dict):
            raise ConfigError(f"tolerances must be an object, got {obj!r}")
        # absent keys keep the field defaults; an unknown one is a TypeError
        return cls(**{k: _real(k, v) for k, v in obj.items()})


@dataclass
class ExperimentConfig:
    design: NearlyUnstableDesign
    ladder: list[tuple[int, int]]
    reps: int
    dist: InnovationDist = InnovationDist.GAUSSIAN
    method: SimMethod | None = None
    master_seed: int = 0
    tolerances: Tolerances = field(default_factory=Tolerances)
    out_dir: str | None = None

    def __post_init__(self):
        # without a method each law samples at its default depth, spelled
        # boundary_cholesky for Gaussian innovations, boundary_series otherwise
        if self.method is None:
            self.method = SimMethod(0 if self.dist is InnovationDist.GAUSSIAN else None)

    def validate(self) -> "ExperimentConfig":
        if not self.ladder:
            raise ConfigError("ladder must contain at least one (m, s) pair")
        if self.reps < 100:
            raise ConfigError(
                f"statistical acceptance needs reps >= 100, got {self.reps}")
        stats = []
        for m, s in self.ladder:
            if m < 1 or s < 2:
                raise ConfigError(f"ladder entry ({m}, {s}) out of range")
            self.design.params_at(m)  # raises NonStationary when m is too small
            stats.append(condition_statistic(self.design, m, s))
        if any(b <= a for a, b in zip(stats, stats[1:])):
            raise ConfigError(
                "condition statistic must increase strictly along the ladder; "
                f"got {stats}")
        return self

    def to_json(self) -> dict:
        return {
            "design": self.design.to_json(),
            "ladder": [[m, s] for m, s in self.ladder],
            "reps": self.reps,
            "dist": self.dist.value,
            "method": self.method.describe(),
            "seed": self.master_seed,
            "tolerances": self.tolerances.to_json(),
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        try:
            unknown = sorted(obj.keys() - {"design", "ladder", "reps", "dist",
                                           "method", "seed", "tolerances", "out_dir"})
            if unknown:
                raise ConfigError(f"unknown config keys: {unknown}")
            cfg = cls(
                design=NearlyUnstableDesign.from_json(obj["design"]),
                ladder=[(_integer("ladder m", m), _integer("ladder s", s))
                        for m, s in obj["ladder"]],
                reps=_integer("reps", obj["reps"]),
                dist=InnovationDist(obj.get("dist", cls.dist)),
                method=SimMethod.parse(obj["method"]) if "method" in obj else None,
                master_seed=_integer("seed", obj.get("seed", cls.master_seed)),
                tolerances=Tolerances.from_json(obj.get("tolerances", {})),
                out_dir=obj.get("out_dir", cls.out_dir),
            )
        except (AttributeError, KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        if cfg.out_dir is not None and not isinstance(cfg.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {cfg.out_dir!r}")
        return cfg


# ---------------------------------------------------------------------------
# canonical serialisation (17 significant digits, reproducible bytes)


def format17(x) -> str:
    """A float at 17 significant digits, enough to read back the same double."""
    return format(float(x), ".17g")


def dumps_canonical(obj) -> str:
    """Deterministic JSON with every float at 17 significant digits."""
    if isinstance(obj, dict):
        items = ",".join(f"{dumps_canonical(str(k))}:{dumps_canonical(v)}"
                         for k, v in sorted(obj.items()))
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_canonical(v) for v in obj) + "]"
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format17(x)
    if isinstance(obj, np.ndarray):
        return dumps_canonical(obj.tolist())
    raise TypeError(f"cannot serialise {type(obj)!r}")


def write_csv_rows(fh, rows) -> None:
    """CSV rows to an open text file, every line ended by a bare newline."""
    csv.writer(fh, lineterminator="\n").writerows(rows)


# ---------------------------------------------------------------------------
# replication engine


def _simulate_chunk(sim: FieldSimulator, streams: list[RngStream],
                    score: bool) -> np.ndarray:
    """One chunk, mapped by the runner in a worker or in-process: the
    ``accumulate`` sums of the replications of ``streams``, in their order.

    Runs ``sim.batch`` replications per sweep and reduces each layer as it
    is made, without storing fields; ``accumulate`` reads s from the width
    of the sweep's layer 0.  ``solve`` of a row is bit-identical to
    ``lse(sim.sample(stream))``.  Only ``score`` chunks (those of
    ``verify_score``) pass the innovations to ``accumulate``, and their rows
    carry the score in columns 5 and 6; ``run_clt`` and ``verify_detB`` read
    no score, and their rows are 5 wide.
    """
    parts = []
    for start in range(0, len(streams), sim.batch):
        layers = sim.sweep(streams[start:start + sim.batch])
        if not score:
            layers = ((prev, y, None) for prev, y, _ in layers)
        parts.append(accumulate(layers))
    return np.concatenate(parts)


@contextmanager
def _worker_pool(workers: int, reps: int):
    """The runner of a run whose calls have ``reps`` replications each: a
    map and the number of processes it runs on.  That is ``(map, 1)``, the
    parent itself, at 1 worker or below 2 * workers reps, and otherwise
    ``(pool.map, workers)`` of the run's one process pool.

    A ``workers`` below 1 raises ConfigError before any replication runs.
    The pool forks its workers on its first task; ``numpy.random`` is
    imported here, on the pooled path only, so they inherit it.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if workers == 1 or reps < 2 * workers:
        yield map, 1
        return
    import numpy.random  # noqa: F401  (loaded lazily by numpy otherwise)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool.map, workers


def _run_reps(sim: FieldSimulator, streams: list[RngStream],
              runner=(map, 1), score: bool = False) -> np.ndarray:
    """The ``accumulate`` sums of the replications of ``streams`` in their
    order, (R, 7) with ``score`` and (R, 5) without (see
    ``_simulate_chunk``); identical for any runner and any ``sim.batch``.

    ``runner`` is a ``(map, n)`` pair from ``_worker_pool``, the parent's
    own ``map`` by default.  The streams are split into n contiguous chunks,
    one ``_simulate_chunk`` each, and the map returns their sums in
    submission order.
    """
    mapper, n = runner
    chunks = [list(c) for c in np.array_split(np.array(streams, dtype=object), n) if len(c)]
    return np.concatenate(list(mapper(_simulate_chunk, repeat(sim), chunks,
                                      repeat(score))))


def _rung(design: NearlyUnstableDesign, m: int, s: int, rep_ids: list[int],
          master_seed: int, runner, method: SimMethod = SimMethod(0),
          dist: InnovationDist = InnovationDist.GAUSSIAN, score: bool = False):
    """The one Monte Carlo path of ``run_clt`` and the verify suites: (sim, sums,
    theta, det B, ok) of ``rep_ids`` on ``runner``, sampled at params_at(m) on the
    balanced window with sum s, under one rule: at most 1% of rows singular.

    Each replication's ``RngStream`` is built here, before the sampler, so
    a seed or id that it rejects raises ConfigError before any work."""
    if len(rep_ids) < 2:
        raise ConfigError(f"reps must be at least 2, got {len(rep_ids)}")
    if s < 2:
        raise ConfigError(f"window sum s must be at least 2, got {s}")
    streams = [RngStream(master_seed, rep) for rep in rep_ids]
    sim = FieldSimulator(design.params_at(m), TriangleWindow.balanced(s), method, dist)
    sums = _run_reps(sim, streams, runner, score)
    theta, det, ok = solve(sums)
    n_singular = int(len(ok) - np.sum(ok))
    if n_singular > 0.01 * len(ok):
        raise ExperimentAbortedError(
            f"{n_singular}/{len(ok)} singular replications at (m={m}, s={s})")
    return sim, sums, theta, det, ok


def _ks_normal(x: np.ndarray) -> float:
    """Kolmogorov D of the standardised sample against the normal CDF."""
    n = len(x)
    z = np.sort((x - x.mean()) / x.std(ddof=1))
    cdf = 0.5 * (1.0 + np.array([math.erf(v / _SQRT2) for v in z]))
    hi = np.max(np.arange(1, n + 1) / n - cdf)
    lo = np.max(cdf - np.arange(0, n) / n)
    return float(max(hi, lo))


def _sample_cov(rows: np.ndarray) -> np.ndarray:
    mean = rows.mean(axis=0)
    centred = rows - mean
    return centred.T @ centred / (len(rows) - 1)


def _matrix_rel_dev(emp: np.ndarray, target: np.ndarray) -> float:
    return float(np.max(np.abs(emp - target)) / np.max(np.abs(target)))


@dataclass
class ExperimentReport:
    """Aggregated CLT experiment output.

    ``per_size`` carries one record per ladder entry; ``raw`` the per-rep
    rows backing the CSV files; ``timing`` is non-canonical (sidecar only).
    """

    config: ExperimentConfig
    per_size: list[dict]
    raw: list[np.ndarray]
    pass_flag: bool
    timing: list[dict]

    def to_canonical_dict(self) -> dict:
        return {
            "schema": "spatialar-report-v1",
            "config": self.config.to_json(),
            "per_size": self.per_size,
            "pass": self.pass_flag,
        }

    def write(self, out_dir: str | Path) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report_path = out / "report.json"
        report_path.write_text(dumps_canonical(self.to_canonical_dict()) + "\n")
        (out / "timing.json").write_text(dumps_canonical(
            {"schema": "spatialar-timing-v1", "per_size": self.timing}) + "\n")
        header = ["rep_id", "alpha_hat", "beta_hat", "scaled_err_a", "scaled_err_b"]
        for (m, s), rows in zip(self.config.ladder, self.raw):
            with (out / f"errors_m{m}_s{s}.csv").open("w", newline="") as fh:
                write_csv_rows(fh, [header] + [[int(rep_id)] + [format17(v) for v in values]
                                               for rep_id, *values in rows])
        return report_path


def run_clt(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run the CLT experiment over the configured size ladder.

    For each (m, s) and replication: simulate at params_at(m) on the
    balanced window with sum s, estimate, and scale the estimation error by
    the limit-law rate.  Boundary designs additionally record the
    square-root-normalised errors (whose limit covariance is the identity).
    Singular replications are dropped and counted; more than 1% of them
    aborts the run.  An interior rung passes when the error variance along
    the limit's direction w = (1, -sign(alpha beta)) / sqrt(2) ("diff" when
    alpha beta > 0, "sum" when it is < 0) is within ``cov_rel_tol`` of the
    limit, and the variance along the other, null, direction is at most
    ``zero_var_ceiling``.

    Every rung runs on the one runner that ``_worker_pool`` gives the whole
    ladder, a pool of ``workers`` processes or the parent alone; each
    rung's ``timing.json`` record names the runner's process count as
    ``workers``.  A ``workers`` below 1 raises ConfigError before
    any replication runs.
    """
    config.validate()
    design = config.design
    law = limit_law(design, m_probe=max(m for m, _ in config.ladder))
    per_size, raw_all, timing = [], [], []
    passed = True
    with _worker_pool(workers, config.reps) as runner:
        for idx, (m, s) in enumerate(config.ladder):
            t0 = time.perf_counter()
            rep_ids = [idx * config.reps + r for r in range(config.reps)]
            sim, _, theta, _, ok = _rung(design, m, s, rep_ids, config.master_seed,
                                         runner, config.method, config.dist)
            rate = law.rate(m, s)
            scaled = rate * (theta - [sim.params.alpha, sim.params.beta])
            errors = scaled[ok]
            cov = _sample_cov(errors)
            mean = errors.mean(axis=0)
            proj_sum = (errors[:, 0] + errors[:, 1]) / _SQRT2
            proj_diff = (errors[:, 0] - errors[:, 1]) / _SQRT2

            record = {
                "m": m,
                "s": s,
                "reps_used": len(errors),
                "singular_reps": config.reps - len(errors),
                "rate": rate,
                "theta_true": [sim.params.alpha, sim.params.beta],
                "condition_statistic": condition_statistic(design, m, s),
                "scaled_mean": mean.tolist(),
                "scaled_cov": cov.tolist(),
                "proj_var": {"sum": float(proj_sum.var(ddof=1)),
                             "diff": float(proj_diff.var(ddof=1))},
            }
            if len(errors) >= 8 and errors.std(axis=0).min() > 0:
                d_sum, d_diff = _ks_normal(proj_sum), _ks_normal(proj_diff)
                thr = 1.63 / math.sqrt(len(errors))
                record["normality"] = {"d_sum": d_sum, "d_diff": d_diff,
                                       "threshold": thr,
                                       "flag": bool(max(d_sum, d_diff) > thr)}

            entry_pass = None
            if law.case_tag is CaseTag.INTERIOR:
                (l11, l12), (_, l22) = law.covariance.tolist()
                record["limit_cov"] = law.covariance
                record["limit_proj"] = {"sum": (l11 + l22 + 2 * l12) / 2.0,
                                        "diff": (l11 + l22 - 2 * l12) / 2.0}
                # the limit is 4|ab| w w' with w = (1, -sign(ab))/sqrt(2): the
                # diff direction when alpha*beta > 0, the sum direction when it
                # is < 0; the other direction u is its null direction
                w, u = ("diff", "sum") if l12 < 0 else ("sum", "diff")
                lim_w = record["limit_proj"][w]
                tol = config.tolerances
                entry_pass = (abs(record["proj_var"][w] - lim_w) <= tol.cov_rel_tol * lim_w
                              and record["proj_var"][u] <= tol.zero_var_ceiling)
            else:
                half = sqrt_spd2(_prop1_target(design, m))
                norm_err = errors @ half.T
                record["omega_n"] = omega_n(design.boundary, design.gamma(m),
                                            design.delta(m))
                record["normalized_cov"] = _sample_cov(norm_err).tolist()
                if law.covariance is not None:
                    record["limit_cov"] = law.covariance
                    record["elementwise_dev"] = _matrix_rel_dev(cov, law.covariance)
                    tgt = law.covariance
                    entry_pass = bool(np.all(
                        np.abs(cov - tgt) <= config.tolerances.cov_rel_tol * np.abs(tgt)))
            if entry_pass is not None:
                record["pass"] = entry_pass
                if idx == len(config.ladder) - 1:
                    passed = entry_pass
            per_size.append(record)
            raw_all.append(np.column_stack([rep_ids, theta, scaled]))
            elapsed = time.perf_counter() - t0
            # the largest batch a chunk ran: the first of _run_reps's chunks
            # is the longest
            chunk = -(-config.reps // runner[1])
            rung = {"m": m, "s": s, "elapsed_s": elapsed,
                    "reps_per_s": config.reps / elapsed, "batch_reps": min(sim.batch, chunk),
                    "workers": runner[1]}
            if config.dist is not InnovationDist.GAUSSIAN:
                rung["series_margin"] = sim.method.margin
                rung["series_cumulant_bound"] = cumulant_tail_bound(sim.params,
                                                                    sim.method.margin)
            if law.case_tag is not CaseTag.INTERIOR:
                rung["omega_settled"] = law.omega_settled
            timing.append(rung)
    report = ExperimentReport(config, per_size, raw_all, passed, timing)
    if config.out_dir:
        report.write(config.out_dir)
    return report


# ---------------------------------------------------------------------------
# exact verification suites


def verify_cov(values=(-0.45, -0.25, -0.1, 0.1, 0.25, 0.45), lag_max: int = 6,
               tol: float = 1e-8) -> dict:
    """Four-way cross-check of the covariance evaluators.

    Closed form, Appell F4, binomial representation (its quadrant) and the
    truncated-series oracle must agree within ``tol`` absolutely over the
    parameter grid (restricted to |alpha| + |beta| <= 0.9) and all lags
    |k|, |l| <= lag_max.  Each route is called once per parameter pair on
    the whole lag box (binrep on its same-sign lags).  Closed form, F4 and
    binrep evaluate each distinct key (|k|, |l|, k*l <= 0) once, so about
    half the box; the oracle evaluates every lag, as the reference.  The
    routes bound their own temporaries, and their values equal one call
    per lag bit for bit.  The worst deviation is reported at its first lag
    in box order.
    The oracle's tail target is tol / 100, floored at 1e-16, below the
    rounding of sigma^2 >= 1.  A ``tol`` that is not positive and finite,
    or a ``lag_max`` that is not a non-negative integer, raises
    OutOfRangeError before any pair runs.  A NaN that a route returns fails
    the check as an infinite deviation; a NaN in ``values`` raises
    NonStationaryError from ``oracle_margin``.  A grid without a stable pair
    fails the check.
    """
    if not 0.0 < tol < math.inf:
        raise OutOfRangeError(f"truncation tolerance must be positive and finite, got {tol}")
    if isinstance(lag_max, bool) or not isinstance(lag_max, (int, np.integer)) or lag_max < 0:
        raise OutOfRangeError(f"lag_max must be a non-negative integer, got {lag_max!r}")
    worst = 0.0
    worst_at = None
    n_points = 0
    lags = np.arange(-lag_max, lag_max + 1)
    k, l = np.repeat(lags, lags.size), np.tile(lags, lags.size)
    same = k * l >= 0
    for a in values:
        for b in values:
            if abs(a) + abs(b) > 0.9:
                continue
            p = ModelParams(a, b)
            margin = oracle_margin(p.q, max(tol * 1e-2, 1e-16))
            ref = cov_closed(p, k, l)
            dev = np.maximum(np.abs(cov_f4(p, k, l) - ref),
                             np.abs(cov_series_oracle(p, k, l, margin) - ref))
            dev[same] = np.maximum(dev[same],
                                   np.abs(cov_binrep(p, k[same], l[same]) - ref[same]))
            # a NaN from any route counts as an infinite deviation
            dev[np.isnan(dev)] = np.inf
            i = int(np.argmax(dev))
            if dev[i] > worst:
                worst, worst_at = float(dev[i]), (a, b, int(k[i]), int(l[i]))
            n_points += k.size
    return {"n_points": n_points, "worst_dev": worst, "worst_at": worst_at,
            "tol": tol, "pass": n_points > 0 and worst <= tol}


def _prop1_target(design: NearlyUnstableDesign, m_probe: int) -> np.ndarray:
    """Limit of the scaled information mean and of the scaled score covariance:
    Psi / sqrt(32|a||b|) (interior) or Theta(theta(omega_m)) (boundary)."""
    bp = design.boundary
    if design.case_tag is CaseTag.INTERIOR:
        c = (32.0 * abs(bp.alpha) * abs(bp.beta)) ** -0.5
        return psi_matrix(bp) * c
    omega = omega_n(bp, design.gamma(m_probe), design.delta(m_probe))
    return theta_matrix(theta_scalar(bp, omega))


def scaled_expected_B(design: NearlyUnstableDesign, m: int, s: int) -> np.ndarray:
    """The Prop-1 scaling applied to the exact E[B] at (m, s)."""
    return expected_B(design.params_at(m), s) * (condition_statistic(design, m, 1) * s**-2.0)


# the suites' tolerances are fixed; each report names the one it used
_PROP1_FINAL_TOL = 0.10
_COVLIM_HEADROOM = 1e-6
_MC_REL_TOL = 0.2  # verify_detB and verify_score


def verify_prop1(design: NearlyUnstableDesign, ladder: list[tuple[int, int]]) -> dict:
    """Exact (no Monte Carlo) information-mean check along a ladder.

    Deviation is max elementwise |scaled - target| over max |target|, the
    target taken at m = 2^20; the suite passes iff deviations strictly
    decrease and the final one is below ``_PROP1_FINAL_TOL``.
    """
    target = _prop1_target(design, 1 << 20)
    deviations = [_matrix_rel_dev(scaled_expected_B(design, m, s), target) for m, s in ladder]
    decreasing = all(b < a for a, b in zip(deviations, deviations[1:]))
    return {
        "ladder": [[m, s] for m, s in ladder],
        "target": target,
        "deviations": deviations,
        "strictly_decreasing": decreasing,
        "final_deviation": deviations[-1],
        "final_tol": _PROP1_FINAL_TOL,
        "pass": decreasing and deviations[-1] < _PROP1_FINAL_TOL,
    }


_COVLIM_POINTS = (
    # (s1, t1, s2, t2, on_diagonal)
    (0.3, 0.2, 0.3, 0.2, True),      # equal points: value -> the bound itself
    (0.5, 0.4, 0.3, 0.2, True),      # shifted along the diagonal, same quadrant
    (0.4, 0.2, 0.2, 0.4, False),     # mixed-quadrant lag, decays
    (0.5, 0.2, 0.2, 0.1, False),     # same-quadrant lag, decays
)


def verify_covlim(design: NearlyUnstableDesign, m: int, n_probe: int) -> dict:
    """Scaled-covariance bound and exponential-decay surrogate checks.

    On-diagonal probe pairs (s1 - s2 = t1 - t2) must respect the limit bound
    with ``_COVLIM_HEADROOM``.  The bound is the limit of the scaled variance
    c sigma^2, c = condition_statistic(design, m, 1).  The scaled E[B] has
    diagonal c sigma^2 n / s^2 with n / s^2 -> 1/2, so the bound is twice
    the diagonal of the scaled information limit ``_prop1_target``: 1/2 in
    the boundary case.  The finite-m scaled variance approaches the bound
    from above at O(1/m), so the probe index must be large (the checks are
    closed-form and cheap).  Off-diagonal pairs must at least halve when
    n_probe doubles.
    """
    if n_probe < 1:
        raise ConfigError(f"n_probe must be at least 1, got {n_probe}")
    params = design.params_at(m)
    scale = condition_statistic(design, m, 1)
    bound = 2.0 * float(_prop1_target(design, m)[0, 0])

    def scaled_R(n: int, s1, t1, s2, t2) -> float:
        dk = math.floor(n * s1) - math.floor(n * s2)
        dl = math.floor(n * t1) - math.floor(n * t2)
        return scale * cov_closed(params, dk, dl)

    records, ok = [], True
    for s1, t1, s2, t2, on_diag in _COVLIM_POINTS:
        v1 = scaled_R(n_probe, s1, t1, s2, t2)
        v2 = scaled_R(2 * n_probe, s1, t1, s2, t2)
        rec = {"pair": [s1, t1, s2, t2], "on_diagonal": on_diag,
               "value_n": v1, "value_2n": v2}
        if on_diag:
            rec["bound"] = bound
            rec["pass"] = (abs(v1) <= bound * (1 + _COVLIM_HEADROOM)
                           and abs(v2) <= bound * (1 + _COVLIM_HEADROOM))
        else:
            rec["pass"] = abs(v2) <= 0.5 * abs(v1)
        ok = ok and rec["pass"]
        records.append(rec)
    at_zero = scale * cov_closed(params, 0, 0)
    return {"m": m, "n_probe": n_probe, "bound": bound,
            "value_at_zero_lag": at_zero, "points": records, "pass": ok}


def verify_detB(design: NearlyUnstableDesign, m: int, s: int, reps: int,
                master_seed: int = 0, workers: int = 1) -> dict:
    """Monte Carlo mean of the scaled determinant c s^(-4) det B,
    c = condition_statistic(design, m, 1), against its limit T11 / Sigma11:
    the diagonal of the scaled information limit ``_prop1_target`` over
    that of the error covariance ``limit_law`` (derived there), to ``_MC_REL_TOL``."""
    if design.case_tag is not CaseTag.INTERIOR:
        raise ConfigError("the determinant limit is an interior-case statement")
    with _worker_pool(workers, reps) as runner:
        *_, det, ok = _rung(design, m, s, list(range(reps)), master_seed, runner)
    scaled = det[ok] * (condition_statistic(design, m, 1) * s**-4.0)
    target = float(_prop1_target(design, m)[0, 0] / limit_law(design).covariance[0, 0])
    mean = float(scaled.mean())
    return {
        "m": m, "s": s, "reps": len(scaled),
        "scaled_mean": mean,
        "std_error": float(scaled.std(ddof=1) / math.sqrt(len(scaled))),
        "target": target,
        "rel_dev": abs(mean - target) / target,
        "rel_tol": _MC_REL_TOL,
        "pass": abs(mean - target) <= _MC_REL_TOL * target,
    }


def verify_score(design: NearlyUnstableDesign, m: int, s: int, reps: int,
                 master_seed: int = 0, workers: int = 1) -> dict:
    """Monte Carlo scaled score covariance against its limit, to ``_MC_REL_TOL``."""
    with _worker_pool(workers, reps) as runner:
        _, sums, _, _, ok = _rung(design, m, s, list(range(reps)), master_seed, runner,
                                  score=True)
    scores = sums[ok, 5:7] * (math.sqrt(condition_statistic(design, m, 1)) / s)
    target = _prop1_target(design, m)
    cov = _sample_cov(scores)
    mean = scores.mean(axis=0)
    se = scores.std(axis=0, ddof=1) / math.sqrt(len(scores))
    dev = _matrix_rel_dev(cov, target)
    return {
        "m": m, "s": s, "reps": len(scores),
        "scaled_cov": cov.tolist(),
        "target": target,
        "mean": mean.tolist(),
        "mean_within_4se": bool(np.all(np.abs(mean) <= 4 * se)),
        "elementwise_dev": dev,
        "rel_tol": _MC_REL_TOL,
        "pass": dev <= _MC_REL_TOL,
    }
