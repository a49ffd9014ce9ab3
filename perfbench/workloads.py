"""The four benchmark workloads: inputs from a seed, one timed call, checks.

Each workload runs against spatialar's public API in a fresh interpreter
(see child.py).  ``timed`` returns the wall time of the call users pay
for; ``check`` inspects what the call produced and returns an Outcome.
Sizes are chosen so that one call takes 2-8 s on a 2-core x86 box, which
leaves room for several fresh-interpreter samples per benchmark run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from spatialar import cli, estimate, harness
from spatialar.errors import SingularDesignError
from spatialar.model import NearlyUnstableDesign, TriangleWindow
from spatialar.simulate import FieldSimulator, RngStream

REPORT = "report"  # relative out dir: config.out_dir is part of report.json

_INTERIOR = {"alpha": 0.5, "beta": 0.5, "gamma": {"kind": "const", "c": 1.0},
             "delta": {"kind": "const", "c": 1.0}, "case": "interior"}
_BOUNDARY = {"alpha": 1.0, "beta": 0.0, "gamma": {"kind": "const", "c": 2.0},
             "delta": {"kind": "const", "c": 1.0}, "case": "boundary"}


def derived_seed(workload: str, seed: int) -> int:
    """The master seed the program sees; distinct per workload."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Outcome:
    ops: int                       # operations attempted (reps, fields, points)
    failed_ops: int                # singular / non-finite / failed points
    checks: list[dict] = field(default_factory=list)   # gates: name, ok, detail
    digests: dict[str, str] = field(default_factory=dict)  # output file -> sha256
    stats: dict = field(default_factory=dict)          # recorded, never gated

    def gate(self, name: str, ok: bool, detail="") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})


class Clt:
    """``spatialar experiment run`` in-process through cli.main."""

    def __init__(self, design: dict, ladder, reps: int, dist: str, method: str):
        self.design, self.ladder, self.reps = design, ladder, reps
        self.dist, self.method = dist, method

    def prepare(self, name: str, seed: int, workdir: Path, workers: int) -> None:
        self.workdir, self.run_workers = workdir, workers
        config = {"design": self.design, "ladder": self.ladder, "reps": self.reps,
                  "dist": self.dist, "method": self.method,
                  "seed": derived_seed(name, seed)}
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(config, sort_keys=True))

    def timed(self) -> float:
        argv = ["experiment", "run", "--config", str(self.config_path),
                "--out", REPORT, "--workers", str(self.run_workers)]
        t0 = time.monotonic()
        self.rc = cli.main(argv)
        return time.monotonic() - t0

    def check(self) -> Outcome:
        out = Outcome(ops=self.reps * len(self.ladder), failed_ops=0)
        out.gate("cli exit code is 0 or 2", self.rc in (0, 2), self.rc)
        report_path = self.workdir / REPORT / "report.json"
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError) as exc:
            out.gate("report.json parses", False, str(exc))
            out.failed_ops = out.ops
            return out
        out.gate("report.json parses", True)
        out.digests["report.json"] = sha256_file(report_path)
        per_size = report.get("per_size", [])
        out.gate("one report record per rung", len(per_size) == len(self.ladder),
                 len(per_size))
        out.stats["pass"] = report.get("pass")
        out.stats["per_size"] = [
            {k: rec.get(k) for k in ("m", "s", "proj_var", "elementwise_dev", "pass")}
            for rec in per_size]
        for idx, ((m, s), rec) in enumerate(zip(self.ladder, per_size)):
            path = self.workdir / REPORT / f"errors_m{m}_s{s}.csv"
            try:
                with path.open(newline="") as fh:
                    rows = list(csv.reader(fh))
            except OSError as exc:
                out.gate(f"{path.name} parses", False, str(exc))
                out.failed_ops += self.reps
                continue
            out.digests[path.name] = sha256_file(path)
            body = rows[1:]
            ids = [int(r[0]) for r in body]
            out.gate(f"{path.name} has one row per replication in id order",
                     ids == [idx * self.reps + r for r in range(self.reps)], len(ids))
            values = [[float(v) for v in r[1:]] for r in body]
            singular = sum(1 for v in values if math.isnan(v[0]) and math.isnan(v[1]))
            bad = sum(1 for v in values
                      if not all(map(math.isfinite, v))
                      and not (math.isnan(v[0]) and math.isnan(v[1])))
            out.failed_ops += singular + bad
            out.gate(f"{path.name}: every replication finite or counted singular",
                     bad == 0 and singular == rec.get("singular_reps"),
                     {"nonfinite": bad, "singular": singular})
            out.gate(f"(m={m}, s={s}): singular replications <= 1%",
                     singular <= 0.01 * self.reps, singular)
        return out


class LargeField:
    """One FieldSimulator on a large balanced window, then sample + lse."""

    design = NearlyUnstableDesign.from_json(_INTERIOR)
    s = 4096
    fields = 4

    def prepare(self, name: str, seed: int, workdir: Path, workers: int) -> None:
        self.workdir = workdir
        self.params = self.design.params_at(self.s)
        self.window = TriangleWindow.balanced(self.s)
        self.streams = [RngStream(derived_seed(name, seed), r) for r in range(self.fields)]

    def timed(self) -> float:
        # the residual check needs each field while it exists; its time is
        # excluded so that wall_s is sampler setup plus sample + lse only
        t0 = time.monotonic()
        sim = FieldSimulator(self.params, self.window)
        wall = time.monotonic() - t0
        self.jitter = sim.boundary_jitter
        self.results = []
        for stream in self.streams:
            t = time.monotonic()
            fld = sim.sample(stream)
            try:
                est = estimate.lse(fld, self.window)
            except SingularDesignError:
                est = None
            wall += time.monotonic() - t
            scale = max(float(abs(layer).max()) for layer in fld.values)
            self.results.append((est, fld.max_recursion_residual(), scale))
            del fld
        return wall

    def check(self) -> Outcome:
        out = Outcome(ops=self.fields, failed_ops=0)
        records = []
        for rep, (est, residual, scale) in enumerate(self.results):
            # a sweep step is three multiply-adds, so its rounding error is a
            # few ulps of the field's magnitude
            rounding = residual <= 64 * 2.0**-52 * scale
            finite = est is not None and all(
                map(math.isfinite, (est.alpha_hat, est.beta_hat, est.detB)))
            out.gate(f"field {rep}: recursion residual at rounding level",
                     rounding, residual)
            out.gate(f"field {rep}: lse non-singular and finite", finite)
            out.failed_ops += not (rounding and finite)
            if est is not None:
                records.append({"rep": rep, "alpha_hat": est.alpha_hat,
                                "beta_hat": est.beta_hat, "detB": est.detB,
                                "score": est.score})
        path = self.workdir / "report.json"
        path.write_text(harness.dumps_canonical(
            {"s": self.s, "alpha": self.params.alpha, "beta": self.params.beta,
             "fields": records}) + "\n")
        out.digests["report.json"] = sha256_file(path)
        out.stats["boundary_jitter"] = self.jitter
        out.stats["estimates"] = [[r["alpha_hat"], r["beta_hat"]] for r in records]
        return out


class Oracle:
    """harness.verify_cov on its default parameter grid: the four covariance
    evaluators.  Lags go to 3, not the default 6, so that one call takes
    about 2 s, short enough for the reference loops around it to follow
    the host's speed."""

    lag_max = 3

    def prepare(self, name: str, seed: int, workdir: Path, workers: int) -> None:
        self.workdir = workdir  # the grid is fixed: the seed changes nothing

    def timed(self) -> float:
        t0 = time.monotonic()
        self.result = harness.verify_cov(lag_max=self.lag_max)
        return time.monotonic() - t0

    def check(self) -> Outcome:
        r = self.result
        ok = r["pass"] and r["worst_dev"] <= r["tol"]
        # verify_cov reports only its worst point, so a failure counts once
        out = Outcome(ops=r["n_points"], failed_ops=0 if ok else 1)
        out.gate("verify_cov passes with worst_dev <= tol", ok,
                 {"worst_dev": r["worst_dev"], "tol": r["tol"]})
        path = self.workdir / "report.json"
        path.write_text(harness.dumps_canonical(r) + "\n")
        out.digests["report.json"] = sha256_file(path)
        out.stats = {"worst_dev": r["worst_dev"], "worst_at": r["worst_at"]}
        return out


def make(name: str):
    if name == "clt_interior":
        return Clt(_INTERIOR, [[128, 128], [256, 256]], reps=250,
                   dist="gaussian", method="boundary_cholesky")
    if name == "clt_boundary_2w":
        return Clt(_BOUNDARY, [[16, 64], [32, 181]], reps=200,
                   dist="rademacher", method="boundary_series")
    if name == "large_field":
        return LargeField()
    if name == "oracle":
        return Oracle()
    raise KeyError(name)
