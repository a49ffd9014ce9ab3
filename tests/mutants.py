"""Mutation check of the harness verdicts, the covariance lag keys and the
covariance formulas: each pass flag, threshold and formula term in
``MUTANTS`` must be caught by the test suite.

Each mutant replaces one exact text of one file.  The runner copies the
repository to a temporary directory once, then for each mutant writes the
mutated file into the copy, runs the tier-1 suite there with ``-x`` and
puts the file back.  A mutant is killed when the suite fails; the runner
then names the first failing test, and when that is not the mutant's own
test it runs that test alone, which must fail too, so that no mutant counts
as killed by a pinned digest only.

Run from the repository root (each mutant costs up to one tier-1 run):

    python tests/mutants.py            # every mutant
    python tests/mutants.py ks_threshold prop1_strict

The file is not collected by pytest.  The exit status is 0 when every
mutant is killed by its own test, 1 when one survives or is killed by
another test only, and 2 when a mutant's old text does not occur exactly
once in its file (then nothing runs).  ``tests/test_mutant_table.py``
checks the table itself in tier-1: every old text occurs exactly once and
every named test exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    test: str  # the test expected to kill it, as pytest names it


_HARNESS = "src/spatialar/harness.py"
_TESTS = "tests/test_harness.py"
_COVARIANCE = "src/spatialar/covariance.py"
_COV_TESTS = "tests/test_covariance.py"

MUTANTS = [
    Mutant("ks_threshold", _HARNESS,
           "thr = 1.63 / math.sqrt(len(errors))",
           "thr = 1.36 / math.sqrt(len(errors))",
           f"{_TESTS}::TestRunCLT::test_normality_diagnostic_reported"),
    Mutant("singular_share", _HARNESS,
           "if n_singular > 0.01 * len(ok):",
           "if n_singular > 0.02 * len(ok):",
           f"{_TESTS}::TestVerifySuites::test_over_one_percent_singular_aborts[verify_detB]"),
    Mutant("detb_se_ddof", _HARNESS,
           '"std_error": float(scaled.std(ddof=1)',
           '"std_error": float(scaled.std(ddof=0)',
           f"{_TESTS}::test_suite_scales_match_per_case_expressions[interior]"),
    Mutant("score_mean_se", _HARNESS,
           "np.abs(mean) <= 4 * se",
           "np.abs(mean) <= 40 * se",
           f"{_TESTS}::TestVerifySuites::"
           "test_score_mean_is_flagged_beyond_four_standard_errors[10.0-False]"),
    Mutant("prop1_strict", _HARNESS,
           "all(b < a for a, b in zip(deviations, deviations[1:]))",
           "all(b <= a for a, b in zip(deviations, deviations[1:]))",
           f"{_TESTS}::TestVerifySuites::test_prop1_repeated_entry_is_not_strictly_decreasing"),
    Mutant("pass_from_first_rung", _HARNESS,
           "if idx == len(config.ladder) - 1:",
           "if idx == 0:",
           f"{_TESTS}::TestRunCLT::test_overall_pass_is_the_last_rungs"),
    Mutant("covlim_halving", _HARNESS,
           'rec["pass"] = abs(v2) <= 0.5 * abs(v1)',
           'rec["pass"] = abs(v2) <= 1.0 * abs(v1)',
           f"{_TESTS}::TestVerifySuites::test_covlim_fails_a_covariance_that_does_not_halve"),
    Mutant("normality_flag_min", _HARNESS,
           '"flag": bool(max(d_sum, d_diff) > thr)',
           '"flag": bool(min(d_sum, d_diff) > thr)',
           f"{_TESTS}::TestRunCLT::test_normality_flag_reads_the_larger_statistic"),
    Mutant("lag_key_quadrant", _COVARIANCE,
           "keys = np.stack((np.abs(k), np.abs(l), np.sign(k) * np.sign(l) <= 0))",
           "keys = np.stack((np.abs(k), np.abs(l)))",
           f"{_COV_TESTS}::TestLagArrays::test_value_is_a_function_of_the_lag_key"
           "[0.45--0.45-closed]"),
    Mutant("f4_same_sign_binomial", _COVARIANCE,
           "np.where(mixed, 0.0, lf[ka + la] - lf[ka] - lf[la])",
           "np.where(mixed, 0.0, 0.0)",
           f"{_COV_TESTS}::TestF4::test_cov_f4_at_large_same_sign_lags"
           "[0.45--0.45--2000--1500-1e-10]"),
    Mutant("binrep_sign", _COVARIANCE,
           "sign = _sign_of_power(a, ka) * _sign_of_power(b, la)",
           "sign = _sign_of_power(a, la) * _sign_of_power(b, ka)",
           f"{_COV_TESTS}::TestAgainstReferenceFormulas::test_cov_binrep[-0.5-0.45]"),
    Mutant("f4_mixed_parameters", _COVARIANCE,
           "np.where(mixed, la + 1, 1)",
           "np.where(mixed, ka + 1, 1)",
           f"{_COV_TESTS}::TestAgainstReferenceFormulas::test_cov_f4[0.45--0.25]"),
    Mutant("closed_path_binomial", _COVARIANCE,
           "_log_comb(k - 1 + l - j, k - 1)",
           "_log_comb(k - 1 + l - j, k)",
           f"{_COV_TESTS}::TestClosedForm::test_same_quadrant_value"),
    Mutant("closed_mixed_bases", _COVARIANCE,
           "s2 * _powers(ga, ka) * _powers(gb, la)",
           "s2 * _powers(gb, ka) * _powers(ga, la)",
           f"{_COV_TESTS}::TestFourWaySmoke::test_methods_agree[0.3--0.4]"),
    Mutant("closed_axis_denominator", _COVARIANCE,
           "_powers(c, lag) / (1 - c * c)",
           "_powers(c, lag) / (1 - c)",
           f"{_COV_TESTS}::TestClosedForm::test_degenerate_axis"),
]


def _pytest(copy: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *TIER1, *args], cwd=copy, env=env,
                          capture_output=True, text=True)


def _first_failure(output: str) -> str | None:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def run(mutants: list[Mutant]) -> int:
    texts = {m.path: (ROOT / m.path).read_text() for m in mutants}
    bad = [m.name for m in mutants if texts[m.path].count(m.old) != 1]
    if bad:
        print(f"old text not found exactly once: {', '.join(bad)}")
        return 2
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
            ".bench_out"))
        for m in mutants:
            target = copy / m.path
            target.write_text(texts[m.path].replace(m.old, m.new))
            try:
                proc = _pytest(copy, "-x", "-rfE")
                killer = _first_failure(proc.stdout) or "the suite (no test named)"
                if proc.returncode == 0:
                    verdict, failed = "SURVIVED", True
                elif killer == m.test:
                    verdict = f"killed by {killer}"
                elif _pytest(copy, m.test).returncode:
                    verdict = f"killed by {killer}; its own test {m.test} fails too"
                else:
                    verdict = f"killed by {killer} only; {m.test} passes"
                    failed = True
            finally:
                target.write_text(texts[m.path])
            print(f"{m.name}: {verdict}", flush=True)
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)} (known: {', '.join(known)})")
        return 2
    return run([known[name] for name in argv] if argv else MUTANTS)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
