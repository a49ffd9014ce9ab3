"""Command-line interface.

Exit codes: 0 on success/pass, 2 when an acceptance-style check fails (any
report is still written), 1 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import harness
from .covariance import CovKernel, CovMethod
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

_METHOD_NAMES = {m.value: m for m in CovMethod}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
    if not out:
        for row in rows:
            print(",".join(str(v) for v in row))
        return
    path = Path(out)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    print(f"wrote {path}")


def _cmd_cov_eval(args) -> int:
    kernel = CovKernel(ModelParams(args.alpha, args.beta),
                       _METHOD_NAMES[args.method])
    print(_fmt(kernel.R(args.k, args.l)))
    return 0


def _cmd_cov_table(args) -> int:
    kernel = CovKernel(ModelParams(args.alpha, args.beta),
                       _METHOD_NAMES[args.method])
    rows = [["k", "l", "R"]]
    for k in range(-args.kmax, args.kmax + 1):
        for l in range(-args.lmax, args.lmax + 1):
            rows.append([k, l, _fmt(kernel.R(k, l))])
    _write_rows(rows, args.out)
    return 0


def _cmd_sim_field(args) -> int:
    params = ModelParams(args.alpha, args.beta)
    window = TriangleWindow(args.k, args.l)
    sim = FieldSimulator(params, window, SimMethod.parse(args.method),
                         InnovationDist(args.dist))
    fld = sim.sample(RngStream(args.seed, args.rep))
    rows = [["i", "j", "value", "innovation"]]
    rows += [[i, j, _fmt(v), "" if np.isnan(e) else _fmt(e)]
             for i, j, v, e in fld.iter_rows(with_innovations=True)]
    _write_rows(rows, args.out)
    return 0


def _load_field_csv(path: Path, window: TriangleWindow) -> Field:
    values = {}
    innovations = {}
    with path.open() as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            i, j = int(row["i"]), int(row["j"])
            values[(i, j)] = float(row["value"])
            eps = row.get("innovation")
            if eps not in (None, ""):
                innovations[(i, j)] = float(eps)
    layers = []
    for d in range(0, window.s + 1):
        i0 = window.layer_start(d)
        layers.append(np.array([values[(i0 + p, d - i0 - p)]
                                for p in range(window.layer_len(d))]))
    inn = None
    if innovations:
        inn = []
        for d in range(1, window.s + 1):
            i0 = window.layer_start(d)
            inn.append(np.array([innovations[(i0 + p, d - i0 - p)]
                                 for p in range(window.layer_len(d))]))
    return Field(window, layers, inn)


def _cmd_estimate(args) -> int:
    window = TriangleWindow(args.k, args.l)
    fld = _load_field_csv(Path(args.infile), window)
    est = lse(fld, window)
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
    if args.ladder:
        ladder = [_ladder_pair(pair) for pair in args.ladder]
    else:
        ladder = _default_ladder(design)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialar",
        description="Stationary planar AR fields: covariances, simulation, "
                    "least squares, and nearly-unstable limit experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    cov = sub.add_parser("cov", help="covariance evaluators")
    cov_sub = cov.add_subparsers(dest="subcommand", required=True)
    ce = cov_sub.add_parser("eval", help="evaluate R[k, l]")
    ce.add_argument("--alpha", type=float, required=True)
    ce.add_argument("--beta", type=float, required=True)
    ce.add_argument("--k", type=int, required=True)
    ce.add_argument("--l", type=int, required=True)
    ce.add_argument("--method", choices=sorted(_METHOD_NAMES), default="closed")
    ce.set_defaults(func=_cmd_cov_eval)
    ct = cov_sub.add_parser("table", help="tabulate R over a lag box")
    ct.add_argument("--alpha", type=float, required=True)
    ct.add_argument("--beta", type=float, required=True)
    ct.add_argument("--kmax", type=int, required=True)
    ct.add_argument("--lmax", type=int, required=True)
    ct.add_argument("--method", choices=sorted(_METHOD_NAMES), default="closed")
    ct.add_argument("--out", help="CSV output path (stdout when omitted)")
    ct.set_defaults(func=_cmd_cov_table)

    sim = sub.add_parser("sim", help="field simulation")
    sim_sub = sim.add_subparsers(dest="subcommand", required=True)
    sf = sim_sub.add_parser("field", help="simulate one field to CSV")
    sf.add_argument("--alpha", type=float, required=True)
    sf.add_argument("--beta", type=float, required=True)
    sf.add_argument("--k", type=int, required=True)
    sf.add_argument("--l", type=int, required=True)
    sf.add_argument("--method", default="boundary_cholesky",
                    help="boundary_cholesky or boundary_series[:margin]")
    sf.add_argument("--dist", choices=[d.value for d in InnovationDist],
                    default="gaussian")
    sf.add_argument("--seed", type=int, default=0)
    sf.add_argument("--rep", type=int, default=0)
    sf.add_argument("--out", help="CSV output path (stdout when omitted)")
    sf.set_defaults(func=_cmd_sim_field)

    est = sub.add_parser("estimate", help="least squares estimate from a field CSV")
    est.add_argument("--in", dest="infile", required=True)
    est.add_argument("--k", type=int, required=True)
    est.add_argument("--l", type=int, required=True)
    est.add_argument("--json", dest="json_out", help="write the JSON here")
    est.set_defaults(func=_cmd_estimate)

    lim = sub.add_parser("limits", help="limit-law descriptions")
    lim_sub = lim.add_subparsers(dest="subcommand", required=True)
    ld = lim_sub.add_parser("describe", help="print the limit law for a design")
    _add_design_args(ld)
    ld.add_argument("--ladder", nargs="*", metavar="M:S",
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SpatialARError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
