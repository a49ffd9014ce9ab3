"""Golden sha256 digests of the canonical outputs.

The limit-law description, the four exact and Monte Carlo verify reports,
a covariance table by each of the four methods, and a small ``run_clt``'s
``report.json`` and error CSVs are pinned byte for byte, as ``ESTIMATE_DIGESTS`` in ``test_cli.py`` pins ``spatialar
estimate``.  A refactor that claims to move no output byte must leave every
digest here as it is.  ``timing.json`` holds wall-clock times and is not
pinned.
"""

import hashlib

import pytest

from spatialar import (
    BoundaryPoint,
    ExperimentConfig,
    InnovationDist,
    NearlyUnstableDesign,
    Schedule,
    run_clt,
)
from spatialar.cli import main

INTERIOR = ("--alpha", "0.5", "--beta", "0.5")
NEGATIVE = ("--alpha", "0.5", "--beta", "-0.5", "--delta-c", "-1")
BOUNDARY = ("--alpha", "1", "--beta", "0", "--gamma-c", "2")
# delta = 0 puts omega at infinity and theta at 0, so the limit covariance,
# 16 adj(Theta), carries -0.0 off the diagonal
BOUNDARY_THETA0 = ("--alpha", "1", "--beta", "0", "--gamma-c", "2", "--delta-c", "0")
MC = ("--s", "32", "--reps", "100")
# one lag box through each covariance method
COV_TABLE = ("--alpha", "0.3", "--beta", "-0.45", "--kmax", "3", "--lmax", "3", "--method")

CLI_DIGESTS = {
    ("limits", "describe", *INTERIOR): "ea69d9f5efacc2ecc6468b9041d9c0ebe9e95fd52e03811fdf997d9a22d59346",
    ("limits", "describe", *BOUNDARY): "0f2b95fc73365c5987cfe64e06acbeff7d93adc3f975948b1f3beb3bd6bf1cec",
    ("limits", "describe", *BOUNDARY_THETA0): "655fd8e73e71cc6890ee9e8b949058fafe033c380f9b0da012cdace0eee7a29e",
    ("verify", "prop1", *INTERIOR): "b7cb21c58c85ad21cf2b5a92ee63882b2a566ab9095a2f3e2f327c685e0ea7f4",
    ("verify", "prop1", *NEGATIVE): "16e5a9fdc8f98cec2812b163cdbe625d4a4bab23ab04cf4146a08bdb3c468de4",
    ("verify", "prop1", *BOUNDARY): "ddb0a888b4a3256d82920d15901bf981e0c3cebde4c36741458152277a12c763",
    ("verify", "covlim", *INTERIOR): "c39e16d71f226f960106a7047a7e731b96e1055065fb4fd9a3c38bcc933386e9",
    ("verify", "covlim", *BOUNDARY): "5d99a6f71e6ecc71a856682e4c123db8df79676a350cf5bc9b270ad3cb1537c7",
    ("verify", "detb", *INTERIOR, *MC): "52a46785dc125cb5e6e6cf507b37e6d9a88f5d80b3ea9160e6f58f5bbb93ac53",
    ("verify", "detb", *NEGATIVE, *MC): "aadc5c5a3b4431b3d4a68905cea5b868ec210780769dbb428ddf39a6e8d6a53d",
    ("verify", "score", *INTERIOR, *MC): "dd4cd620679e2f65491d30cda87707d8176a1d0a540d7a1ed51411bbd3772b29",
    ("verify", "score", *BOUNDARY, "--m", "64", *MC): "549f0923549e7b23ccee566fa8ced447ac3a61dd4d688aca6f14521aaa095dd3",
    ("cov", "table", *COV_TABLE, "closed"): "ae80ee21255df9632d33a8b43b5c4fa73dd0bda0edbecef72919d1ffa980d0af",
    ("cov", "table", *COV_TABLE, "f4"): "b449edbb3893b4f4404958a35aab40182dd18253d90aa416ced0f111b33b38be",
    ("cov", "table", *COV_TABLE, "binrep"): "99617f903ee6598e8ae51f15e4da8878cc269c9839980e66f1052f17ab5a63fe",
    ("cov", "table", *COV_TABLE, "oracle"): "56cb4d50193dac25b7d3e1c2f9b91e3ae9e8c475afd36d65c18c9dc45ec71721",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv", list(CLI_DIGESTS), ids=" ".join)
def test_cli_output_bytes(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code in (0, 2)  # interior prop1 fails its 10% gate at m = 256
    assert _sha(out.encode()) == CLI_DIGESTS[argv]


MC_VERIFY = [argv for argv in CLI_DIGESTS if argv[1] in ("detb", "score")]


@pytest.mark.parametrize("argv", MC_VERIFY, ids=" ".join)
def test_verify_output_bytes_at_two_workers(capsys, argv):
    # a pool of 2 splits the replications into two chunks, and the report
    # keeps its bytes
    code = main([*argv, "--workers", "2"])
    out = capsys.readouterr().out
    assert code in (0, 2)
    assert _sha(out.encode()) == CLI_DIGESTS[argv]


CLT_DESIGNS = {
    "interior": NearlyUnstableDesign(BoundaryPoint.from_pair(0.5, 0.5),
                                     Schedule.constant(1.0), Schedule.constant(1.0)),
    "negative": NearlyUnstableDesign(BoundaryPoint.from_pair(0.5, -0.5),
                                     Schedule.constant(1.0), Schedule.constant(-1.0)),
    "boundary": NearlyUnstableDesign(BoundaryPoint.from_pair(1.0, 0.0),
                                     Schedule.constant(2.0), Schedule.constant(1.0)),
}
CLT_FILES = ("report.json", "errors_m16_s64.csv", "errors_m32_s181.csv")
CLT_DIGESTS = {
    ("interior", "report.json"): "0581a799c226b0e78d327734e54bb1c7dffb2b1f33108b8d8f95dee71b126f04",
    ("interior", "errors_m16_s64.csv"): "e3858ad0f8f49672d353b8c7c0a142b9b1e9d87ace471b52a126a7c30d0811bc",
    ("interior", "errors_m32_s181.csv"): "271353ce7838127eb78c007b522b3ec95d8bea8b6cb45465fd7c550fe707810f",
    ("negative", "report.json"): "fde88a87124c4b695758c465691251e03ce833e18d2f91dda29e9d742288056e",
    ("negative", "errors_m16_s64.csv"): "1eeea63a01b71859332b181d513927f43b45665afdcbd0422f8b7a299c1ad8af",
    ("negative", "errors_m32_s181.csv"): "d1c1453536bd8aa9c56194db059109bd3cf8e1ffb328aaebf8840e1ad2b8cc9b",
    ("boundary", "report.json"): "336e59e2004deafa6dc2f6b7cb7078e230a9377d621748c6adfbb8e6a01b91d5",
    ("boundary", "errors_m16_s64.csv"): "e777d5cb80f11339844b14f60ff401317c73730545285702097b8f25a22c56bc",
    ("boundary", "errors_m32_s181.csv"): "486020a3dce8f668fd5716bf587880a66530578ef555d219f596255a6e603e69",
}


@pytest.mark.parametrize("name", sorted(CLT_DESIGNS))
def test_run_clt_output_bytes(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # out_dir is part of report.json
    run_clt(ExperimentConfig(CLT_DESIGNS[name], [(16, 64), (32, 181)], reps=100,
                             master_seed=11, out_dir="out"))
    got = {(name, f): _sha((tmp_path / "out" / f).read_bytes()) for f in CLT_FILES}
    assert got == {key: CLT_DIGESTS[key] for key in got}


# Rademacher innovations without a method: a config built in Python samples
# at the law's own depth, as the same config read from JSON does, so both
# write the same bytes (pinned from the JSON-built run)
RADEMACHER_DIGESTS = {
    "report.json": "3631a1c55263c0181224bb2a8fef0609cbbf907cd41e15efdf4ee51e021d3142",
    "errors_m16_s64.csv": "c689da97138cb7fc4442d4a333e0a3fbe67ee76dcd8be25af8aa06de3a3009af",
    "errors_m32_s181.csv": "27a9dd28c60b7f9b0f5d3d68b781335e0991294894ee0e0c79ea564dd4c07031",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("built", ["python", "json"])
def test_default_depth_run_bytes(tmp_path, monkeypatch, built, workers):
    monkeypatch.chdir(tmp_path)
    if built == "python":
        config = ExperimentConfig(CLT_DESIGNS["boundary"], [(16, 64), (32, 181)], reps=100,
                                  dist=InnovationDist.RADEMACHER, master_seed=11,
                                  out_dir="out")
    else:
        config = ExperimentConfig.from_json({
            "design": {"alpha": 1.0, "beta": 0.0, "gamma": 2.0, "delta": 1.0},
            "ladder": [[16, 64], [32, 181]], "reps": 100, "dist": "rademacher",
            "seed": 11, "out_dir": "out"})
    run_clt(config, workers=workers)
    got = {f: _sha((tmp_path / "out" / f).read_bytes()) for f in CLT_FILES}
    assert got == RADEMACHER_DIGESTS
