"""The benchmark in perfbench/ wraps package names from outside the package.

``tracing.install`` replaces names such as ``harness.lse`` and
``FieldSimulator.sample`` with timed wrappers, and ``workloads`` imports
public names at module level, so removing or renaming one of them breaks
every traced benchmark run.  This check catches that in the test suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_INSTALL = """
import sys
sys.path[:0] = ["perfbench", "src"]
import tracing, workloads
tracing.install(tracing.Tracer())
"""


def test_tracer_installs_on_the_package():
    # a fresh interpreter: install patches the package's modules in place
    proc = subprocess.run([sys.executable, "-c", _INSTALL], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
