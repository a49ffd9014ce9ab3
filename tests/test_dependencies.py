"""The package runs on numpy alone: scipy is a test dependency only."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import spatialar

# Runs in a fresh interpreter with every scipy import blocked, so a module
# that reaches for scipy fails there instead of finding it installed.
CHILD = textwrap.dedent("""
    import json
    import sys
    from importlib.abc import MetaPathFinder

    class BlockScipy(MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ModuleNotFoundError(f"blocked: {name}", name=name)
            return None

    sys.meta_path.insert(0, BlockScipy())
    out_dir = sys.argv[1]

    import spatialar
    from spatialar.cli import main
    from spatialar.harness import verify_cov

    assert verify_cov(lag_max=1)["pass"] is True
    assert main(["sim", "field", "--alpha", "0.4", "--beta", "0.3", "--k", "6",
                 "--l", "6", "--seed", "7", "--out", out_dir + "/field.csv"]) == 0
    config = {
        "design": {"alpha": 0.5, "beta": 0.5, "gamma": 1.0, "delta": 1.0},
        "ladder": [[16, 16]], "reps": 100, "seed": 3, "out_dir": out_dir + "/run",
    }
    with open(out_dir + "/config.json", "w") as fh:
        json.dump(config, fh)
    assert main(["experiment", "run", "--config", out_dir + "/config.json"]) in (0, 2)
    try:
        import scipy  # noqa: F401
        blocked = False
    except ModuleNotFoundError:
        blocked = True
    print(json.dumps({"scipy_loaded": "scipy" in sys.modules, "blocked": blocked}))
""")


def test_package_runs_without_scipy(tmp_path):
    src = str(Path(spatialar.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"scipy_loaded": False, "blocked": True}
    assert (tmp_path / "field.csv").stat().st_size > 0
    assert (tmp_path / "run" / "report.json").exists()
