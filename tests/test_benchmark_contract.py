"""The benchmark in perfbench/ wraps package names from outside the package.

``tracing.install`` replaces names such as ``harness.lse`` and
``FieldSimulator.sample`` with timed wrappers, and ``workloads`` imports
public names at module level, so removing or renaming one of them breaks
every traced benchmark run.  This check catches that in the test suite.
"""

import json
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


_SWEEP = """
import json, sys
sys.path[:0] = ["perfbench", "src"]
import tracing
from spatialar.model import ModelParams, TriangleWindow
from spatialar.simulate import FieldSimulator, InnovationDist, RngStream, SimMethod
tracer = tracing.Tracer()
tracing.install(tracer)

def rng_spans(size, method, dist):
    sim = FieldSimulator(ModelParams(0.4, 0.3), TriangleWindow.balanced(size), method, dist)
    before = len(tracer.spans)
    list(sim.sweep([RngStream(1, 0), RngStream(1, 1)]))
    return sum(span[0] == "simulate.rng" for span in tracer.spans[before:])

counts = {}
for dist in InnovationDist:
    method = (SimMethod(0) if dist is InnovationDist.GAUSSIAN
              else SimMethod(3))
    counts[dist.value] = rng_spans(10, method, dist)
counts["rademacher_s40"] = rng_spans(40, SimMethod(30),
                                     InnovationDist.RADEMACHER)
print(json.dumps(counts))
"""


def test_sweep_draws_are_traced_as_rng_spans():
    # the tracer times simulate.rng by wrapping the Generator each RngStream
    # returns, so every draw must go through a Generator method.  Per stream,
    # every law takes one span for the generator and one for the normals of
    # the deep layer (layer 0 at depth 0, layer -3 at depth 3).  Then
    # normals and uniforms take one span for the boundary group (the 3
    # layers above -3; none at depth 0) and one per group of 8 triangle
    # layers (s = 10).  Signs take one span for the boundary and one for the
    # triangle, however long the spans are: at s = 40 and depth 30 they are
    # unpacked over 30 and 40 layers
    proc = subprocess.run([sys.executable, "-c", _SWEEP], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts == {"gaussian": 2 * 4, "rademacher": 2 * 4, "uniform": 2 * 5,
                      "rademacher_s40": 2 * 4}


_POOL = """
import json, sys
sys.path[:0] = ["perfbench", "src"]
import tracing
from spatialar import harness
from spatialar.model import BoundaryPoint, NearlyUnstableDesign, Schedule
tracer = tracing.Tracer()
tracing.install(tracer)
design = NearlyUnstableDesign(BoundaryPoint.from_pair(0.5, 0.5),
                              Schedule.constant(1.0), Schedule.constant(1.0))
config = harness.ExperimentConfig(design, [(16, 16), (24, 24)], reps=100,
                                  master_seed=3)
harness.run_clt(config, workers=2)
spans = [i for i, span in enumerate(tracer.spans) if span[0] == "harness.pool"]
print(json.dumps({"spans": spans, "pools": tracer.pools}))
"""


def test_one_traced_pool_span_per_run():
    # the tracer times the pool by subclassing harness.ProcessPoolExecutor
    # and hooking __enter__ / __exit__: a 2-rung run at 2 workers must enter
    # that name once, as a context manager, for the whole ladder
    proc = subprocess.run([sys.executable, "-c", _POOL], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert len(got["spans"]) == 1
    assert got["pools"] == [[got["spans"][0], 2]]


_UNTRACED = """
import json, os, sys
from pathlib import Path
sys.path[:0] = [str(Path(sys.argv[1]) / "perfbench"), str(Path(sys.argv[1]) / "src")]
import workloads

field = workloads.LargeField()
field.s, field.fields = 16, 2
oracle = workloads.Oracle()
oracle.lag_max = 1
boundary = lambda: workloads.Clt(workloads._BOUNDARY, [[16, 64]], reps=100,
                                 dist="rademacher", method="boundary_series")
# (case, seed name, workload, workers): the two boundary cases share their
# seed, so their outputs must be the same bytes
cases = [("large_field", "large_field", field, 1),
         ("clt", "clt", workloads.Clt(workloads._INTERIOR, [[16, 16]], reps=100,
                                      dist="gaussian", method="boundary_cholesky"), 1),
         ("clt_boundary_1w", "clt_boundary", boundary(), 1),
         ("clt_boundary_2w", "clt_boundary", boundary(), 2),
         ("oracle", "oracle", oracle, 1)]
got, base = {}, Path.cwd()
for name, seed_name, workload, workers in cases:
    # as in perfbench/child.py, each call runs in its own directory
    workdir = base / name
    workdir.mkdir()
    os.chdir(workdir)
    workload.prepare(seed_name, 7, workdir, workers)
    workload.timed()
    out = workload.check()
    got[name] = {"failed_ops": out.failed_ops, "digests": out.digests,
                 "failed_gates": [c["name"] for c in out.checks if not c["ok"]]}
print(json.dumps(got))
"""


def test_untraced_workloads_run_at_tiny_sizes(tmp_path):
    # prepare, timed and check of each workload class without the tracer:
    # this reaches what only the untimed path reads (FieldSimulator's
    # boundary_jitter, Field.max_recursion_residual, cli.main and
    # harness.dumps_canonical), at sizes set here rather than in perfbench/.
    # The pooled workload's class runs at 1 and at 2 workers on one seed:
    # its pool returns the chunks' sums in submission order, so the outputs
    # must not differ by a byte
    proc = subprocess.run([sys.executable, "-c", _UNTRACED, str(ROOT)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert {name: sorted(case["digests"]) for name, case in got.items()} == {
        "large_field": ["report.json"],
        "clt": ["errors_m16_s16.csv", "report.json"],
        "clt_boundary_1w": ["errors_m16_s64.csv", "report.json"],
        "clt_boundary_2w": ["errors_m16_s64.csv", "report.json"],
        "oracle": ["report.json"],
    }
    assert all(case["failed_ops"] == 0 and case["failed_gates"] == []
               for case in got.values()), got
    assert got["clt_boundary_1w"]["digests"] == got["clt_boundary_2w"]["digests"]


_LARGE_FIELD = """
import json, os, sys
from pathlib import Path
sys.path[:0] = [str(Path(sys.argv[1]) / "perfbench"), str(Path(sys.argv[1]) / "src")]
import workloads

got, base = {}, Path.cwd()
for s in (16, 64, 513):
    workdir = base / f"s{s}"
    workdir.mkdir()
    os.chdir(workdir)
    field = workloads.LargeField()
    field.s, field.fields = s, 2
    field.prepare("large_field", 7, workdir, 1)
    field.timed()
    out = field.check()
    got[s] = {"failed_ops": out.failed_ops, "report": out.digests["report.json"]}
print(json.dumps(got))
"""


def test_large_field_report_bytes_are_pinned(tmp_path):
    # large_field runs sample + lse on one stored field at a time, so its
    # report.json carries the bytes of the stored-field reduction: two
    # fields at seed 7, at two even sizes and one odd
    proc = subprocess.run([sys.executable, "-c", _LARGE_FIELD, str(ROOT)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got == {
        "16": {"failed_ops": 0, "report":
               "b2463c5bf29b55674a1f0fbb2c9361f9f0b087533d941766e6bd573ed5c5a282"},
        "64": {"failed_ops": 0, "report":
               "1c30a2ba21ce20865ffb978f5a92cc496200f73609445d674c0c8f402f19d8b1"},
        "513": {"failed_ops": 0, "report":
                "67c96dacbeaeceb0fd598883763b44ecb86d849d9a810a32622313805b513cf7"},
    }


_ORACLE = """
import json, sys
from pathlib import Path
sys.path[:0] = [str(Path(sys.argv[1]) / "perfbench"), str(Path(sys.argv[1]) / "src")]
import workloads

oracle = workloads.Oracle()
oracle.prepare("oracle", 7, Path.cwd(), 1)
oracle.timed()
out = oracle.check()
print(json.dumps({"ops": out.ops, "failed_ops": out.failed_ops,
                  "report": out.digests["report.json"]}))
"""


def test_oracle_report_bytes_are_pinned(tmp_path):
    # oracle runs verify_cov on its default grid to lag 3, so its
    # report.json carries the bytes of the four covariance evaluators
    proc = subprocess.run([sys.executable, "-c", _ORACLE, str(ROOT)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "ops": 1764, "failed_ops": 0,
        "report": "c84fcc5702dd99b7d56927f3ff4a6dcd92f5acb4670186b61bc0e563e52ea82e",
    }
