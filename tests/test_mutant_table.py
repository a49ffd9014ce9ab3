"""The mutant table of ``tests/mutants.py`` stays runnable: each old text
occurs exactly once in its file, and each named kill test exists.  Nothing
is mutated here."""

import os
import subprocess
import sys

from mutants import MUTANTS, ROOT


def test_every_old_text_occurs_exactly_once():
    for m in MUTANTS:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.new != m.old, m.name


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


def test_every_kill_test_exists():
    named = sorted({m.test for m in MUTANTS})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *named], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    collected = {line for line in proc.stdout.splitlines() if "::" in line}
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert collected == set(named)
