"""Command-line interface.

Exit codes: 0 on success/pass, 2 when an acceptance-style check fails (any
report is still written), 1 on usage or configuration errors, 141 (128 +
SIGPIPE, nothing printed) when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import harness
from .covariance import cov_binrep, cov_closed, cov_f4, cov_series_oracle
from .errors import ConfigError, SpatialARError
from .estimate import lse
from .limits import condition_statistic, limit_law
from .model import (
    BoundaryPoint,
    CaseTag,
    Field,
    ModelParams,
    NearlyUnstableDesign,
    Schedule,
    TriangleWindow,
)
from .simulate import FieldSimulator, InnovationDist, RngStream, SimMethod


def _cov_binrep_or_closed(p: ModelParams, k, l):
    """cov_binrep on its quadrant k*l >= 0, cov_closed on the mixed lags."""
    k, l = np.broadcast_arrays(k, l)
    same = k * l >= 0
    values = np.empty(k.shape)
    values[same] = cov_binrep(p, k[same], l[same])
    values[~same] = cov_closed(p, k[~same], l[~same])
    return values


_COV_ROUTES = {"closed": cov_closed, "f4": cov_f4, "binrep": _cov_binrep_or_closed,
               "oracle": cov_series_oracle}


def _add_design_args(p: argparse.ArgumentParser):
    p.add_argument("--design", type=Path, help="design JSON file")
    p.add_argument("--alpha", type=float, help="boundary alpha")
    p.add_argument("--beta", type=float, help="boundary beta")
    p.add_argument("--gamma-c", type=float, default=1.0, help="constant gamma schedule")
    p.add_argument("--delta-c", type=float, default=1.0, help="constant delta schedule")


def _design_from_args(args) -> NearlyUnstableDesign:
    if args.design is not None:
        return NearlyUnstableDesign.from_json(json.loads(args.design.read_text()))
    if args.alpha is None or args.beta is None:
        raise SpatialARError("pass either --design or both --alpha and --beta")
    return NearlyUnstableDesign(
        boundary=BoundaryPoint.from_pair(args.alpha, args.beta),
        gamma=Schedule.constant(args.gamma_c),
        delta=Schedule.constant(args.delta_c),
    )


def _ladder_pair(text: str) -> tuple[int, int]:
    """One ``M:S`` entry of ``--ladder`` as two positive integers."""
    try:
        m, s = (int(v) for v in text.split(":"))
    except ValueError:
        raise ConfigError(f"ladder entries are M:S pairs of integers, got {text!r}") from None
    if m < 1 or s < 1:
        raise ConfigError(f"ladder entries need m, s >= 1, got {text!r}")
    return m, s


def _default_ladder(design: NearlyUnstableDesign) -> list[tuple[int, int]]:
    """s = m for interior designs, s = ceil(m^(5/4)) for boundary designs."""
    if design.case_tag is CaseTag.INTERIOR:
        return [(m, m) for m in (64, 128, 256)]
    return [(m, math.ceil(m**1.25)) for m in (16, 32, 64)]


def _write_rows(rows: list[list], out: str | None) -> None:
    """CSV rows (header first) to stdout, or to the file ``out`` if given."""
    with open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout) as fh:
        harness.write_csv_rows(fh, rows)
    if out:
        print(f"wrote {Path(out)}")


def _cov(args, k, l):
    """R at lags k, l by ``args.method``.  R[k, l] = R[-k, -l], and each lag
    is evaluated as the one of the pair with k > 0, or k = 0 and l >= 0."""
    k, l = np.broadcast_arrays(k, l)
    flip = (k < 0) | ((k == 0) & (l < 0))
    return _COV_ROUTES[args.method](ModelParams(args.alpha, args.beta),
                                    np.where(flip, -k, k), np.where(flip, -l, l))


def _cmd_cov_eval(args) -> int:
    print(harness.format17(_cov(args, args.k, args.l)))
    return 0


def _cmd_cov_table(args) -> int:
    for name, value in (("--kmax", args.kmax), ("--lmax", args.lmax)):
        if value < 0:
            raise ConfigError(f"{name} must be at least 0, got {value}")
    k, l = np.meshgrid(np.arange(-args.kmax, args.kmax + 1),
                       np.arange(-args.lmax, args.lmax + 1), indexing="ij")
    rows = [["k", "l", "R"]]
    rows += zip(k.ravel(), l.ravel(), map(harness.format17, _cov(args, k, l).ravel()))
    _write_rows(rows, args.out)
    return 0


def _field_rows(fld: Field) -> list[list]:
    """A sampled field as CSV rows, the hull layer by layer; layer 0 has no innovation."""
    rows = [["i", "j", "value", "innovation"]]
    for d, layer in enumerate(fld.values):
        i0 = fld.window.layer_start(d)
        eps = map(harness.format17, fld.innovations[d - 1]) if d else [""] * len(layer)
        rows += [[i0 + p, d - i0 - p, harness.format17(v), e]
                 for p, (v, e) in enumerate(zip(layer, eps))]
    return rows


def _load_field_csv(path: Path) -> Field:
    """A field CSV's field, on the window its rows span.

    Bad input raises ConfigError naming the file: a malformed row, a
    repeated point, a point below layer 0, a value or innovation that is
    not finite, a missing hull point, or a window without a triangle.
    """
    values, innovations = {}, {}

    def number(row: dict, key: str, point: tuple[int, int]) -> float:
        x = float(row[key])
        if not math.isfinite(x):
            raise ConfigError(f"{path} has {key} {row[key]} at point {point}")
        return x

    with path.open() as fh:
        for row in csv.DictReader(fh):
            try:
                point = int(row["i"]), int(row["j"])
                if point in values:
                    raise ConfigError(f"{path} repeats point {point}")
                if sum(point) < 0:
                    raise ConfigError(f"{path} has point {point} below layer 0")
                values[point] = number(row, "value", point)
                if row.get("innovation") not in (None, ""):
                    innovations[point] = number(row, "innovation", point)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: malformed row {row}: {exc}") from None
    window = TriangleWindow(max((i for i, _ in values), default=0),
                            max((j for _, j in values), default=0)).require_valid()

    def layer(table: dict, what: str, d: int) -> np.ndarray:
        i0 = window.layer_start(d)
        try:
            return np.array([table[(i, d - i)] for i in range(i0, i0 + window.layer_len(d))])
        except KeyError as exc:
            raise ConfigError(f"{path} has no {what} at point {exc.args[0]}") from None

    layers, inn = [], []
    for d in range(window.s + 1):
        layers.append(layer(values, "value", d))
        if innovations and d >= 1:
            inn.append(layer(innovations, "innovation", d))
    return Field(window, layers, inn or None)


def _cmd_sim_field(args) -> int:
    stream = RngStream(args.seed, args.rep)
    params = ModelParams(args.alpha, args.beta)
    window = TriangleWindow(args.k, args.l)
    sim = FieldSimulator(params, window, SimMethod.parse(args.method),
                         InnovationDist(args.dist))
    _write_rows(_field_rows(sim.sample(stream)), args.out)
    return 0


def _cmd_estimate(args) -> int:
    fld = _load_field_csv(Path(args.infile))
    est = lse(fld, fld.window)
    payload = {
        "alpha_hat": est.alpha_hat,
        "beta_hat": est.beta_hat,
        "B": est.B,
        "C": est.cross,
        "detB": est.detB,
        "A": est.score,
    }
    text = harness.dumps_canonical(payload)
    if args.json_out:
        Path(args.json_out).write_text(text + "\n")
        print(f"wrote {args.json_out}")
    else:
        print(text)
    return 0


def _cmd_limits_describe(args) -> int:
    design = _design_from_args(args)
    law = limit_law(design)
    ladder = args.ladder or _default_ladder(design)
    payload = {
        "case": law.case_tag.value,
        "singular": law.singular,
        "covariance": law.covariance,
        "omega": law.omega,
        "omega_settled": law.omega_settled,
        "theta": law.theta,
        "ladder": [{"m": m, "s": s,
                    "rate": law.rate(m, s),
                    "condition_statistic": condition_statistic(design, m, s)}
                   for m, s in ladder],
    }
    print(harness.dumps_canonical(payload))
    return 0


def _cmd_experiment_run(args) -> int:
    cfg = harness.ExperimentConfig.from_json(json.loads(Path(args.config).read_text()))
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    report = harness.run_clt(cfg, workers=args.workers)
    if cfg.out_dir:
        print(f"report written to {Path(cfg.out_dir) / 'report.json'}")
    else:
        print(harness.dumps_canonical(report.to_canonical_dict()))
    print(f"pass: {report.pass_flag}")
    return 0 if report.pass_flag else 2


def _cmd_verify(args) -> int:
    if args.what == "cov":
        result = harness.verify_cov(tol=args.tol)
        print(f"four-way covariance check over {result['n_points']} points: "
              f"worst deviation {result['worst_dev']:.3g} at {result['worst_at']} "
              f"(tol {result['tol']:g})")
        return 0 if result["pass"] else 2
    design = _design_from_args(args)
    if args.what == "prop1":
        result = harness.verify_prop1(design, _default_ladder(design))
    elif args.what == "covlim":
        result = harness.verify_covlim(design, args.m, args.n_probe)
    elif args.what == "detb":
        result = harness.verify_detB(design, args.m, args.s, args.reps,
                                     args.seed, workers=args.workers)
    else:
        result = harness.verify_score(design, args.m, args.s, args.reps,
                                      args.seed, workers=args.workers)
    print(harness.dumps_canonical(result))
    return 0 if result["pass"] else 2


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, which ``main`` reports like any bad input."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spatialar",
        description="Stationary planar AR fields: covariances, simulation, "
                    "least squares, and nearly-unstable limit experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    cov = sub.add_parser("cov", help="covariance evaluators")
    cov_sub = cov.add_subparsers(dest="subcommand", required=True)
    route = argparse.ArgumentParser(add_help=False)
    route.add_argument("--alpha", type=float, required=True)
    route.add_argument("--beta", type=float, required=True)
    route.add_argument("--method", choices=sorted(_COV_ROUTES), default="closed",
                       help="binrep covers k*l >= 0 and takes mixed-quadrant lags "
                            "from the closed form")
    ce = cov_sub.add_parser("eval", parents=[route], help="evaluate R[k, l]")
    ce.add_argument("--k", type=int, required=True)
    ce.add_argument("--l", type=int, required=True)
    ce.set_defaults(func=_cmd_cov_eval)
    ct = cov_sub.add_parser("table", parents=[route], help="tabulate R over a lag box")
    ct.add_argument("--kmax", type=int, required=True)
    ct.add_argument("--lmax", type=int, required=True)
    ct.add_argument("--out", help="CSV output path (stdout when omitted)")
    ct.set_defaults(func=_cmd_cov_table)

    sim = sub.add_parser("sim", help="field simulation")
    sim_sub = sim.add_subparsers(dest="subcommand", required=True)
    sf = sim_sub.add_parser("field", help="simulate one field to CSV")
    sf.add_argument("--alpha", type=float, required=True)
    sf.add_argument("--beta", type=float, required=True)
    sf.add_argument("--k", type=int, required=True)
    sf.add_argument("--l", type=int, required=True)
    sf.add_argument("--method", default="boundary_series",
                    help="boundary_cholesky or boundary_series[:margin]; by "
                         "default the law's own depth (0 for gaussian)")
    sf.add_argument("--dist", choices=[d.value for d in InnovationDist],
                    default="gaussian")
    sf.add_argument("--seed", type=int, default=0)
    sf.add_argument("--rep", type=int, default=0)
    sf.add_argument("--out", help="CSV output path (stdout when omitted)")
    sf.set_defaults(func=_cmd_sim_field)

    est = sub.add_parser("estimate", help="least squares estimate from a field CSV")
    est.add_argument("--in", dest="infile", required=True)
    est.add_argument("--json", dest="json_out", help="write the JSON here")
    est.set_defaults(func=_cmd_estimate)

    lim = sub.add_parser("limits", help="limit-law descriptions")
    lim_sub = lim.add_subparsers(dest="subcommand", required=True)
    ld = lim_sub.add_parser("describe", help="print the limit law for a design")
    _add_design_args(ld)
    ld.add_argument("--ladder", nargs="*", type=_ladder_pair, metavar="M:S",
                    help="ladder entries as m:s pairs")
    ld.set_defaults(func=_cmd_limits_describe)

    exp = sub.add_parser("experiment", help="CLT experiments")
    exp_sub = exp.add_subparsers(dest="subcommand", required=True)
    er = exp_sub.add_parser("run", help="run the experiment in a config file")
    er.add_argument("--config", required=True)
    er.add_argument("--seed", type=int, help="override the config seed")
    er.add_argument("--workers", type=int, default=1)
    er.add_argument("--out", help="override the config out_dir")
    er.set_defaults(func=_cmd_experiment_run)

    ver = sub.add_parser("verify", help="verification suites")
    ver.add_argument("what", choices=["cov", "prop1", "covlim", "detb", "score"])
    _add_design_args(ver)
    ver.add_argument("--tol", type=float, default=1e-8, help="verify cov tolerance")
    ver.add_argument("--m", type=int, default=10_000_000)
    ver.add_argument("--s", type=int, default=64)
    ver.add_argument("--n-probe", type=int, default=8000)
    ver.add_argument("--reps", type=int, default=500)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--workers", type=int, default=1)
    ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: the flush at exit goes to devnull, as the signal docs show
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (SpatialARError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
