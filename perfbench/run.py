"""Benchmark of the spatialar pipeline: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads (see BENCHMARK.json for why
each was chosen):

  clt_interior     spatialar experiment run, interior design, 1 worker
  clt_boundary_2w  spatialar experiment run, Rademacher boundary design, 2 workers
  large_field      FieldSimulator + sample + lse at s = 4096
  oracle           harness.verify_cov on its default grid, lags up to 3

Every timed call runs in a fresh interpreter (child.py) with BLAS and
OpenMP pinned to one thread, for as many calls as fit in ``--seconds``; the
reported figures are medians over those calls.  Times are scaled to a
reference CPU speed measured by each call next to its work (see child.py),
so that the host's changing vCPU throughput does not show as a change of
the program; the times as measured are printed as raw_wall_s and
raw_setup_s.  ``--trace 0`` opens with a few set-up-only calls, then prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced calls
and prints the per-layer metrics plus ``trace.overhead_s``.  Pool workers are
invisible to the tracer, so the pooled workload also traces one call at 1
worker on the same inputs and takes the in-process layers from it.

Correctness gates: each call's own checks (workloads.py), and every call of
a run must write identical output bytes, whatever its worker count and
whether traced.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when every
gate passed.  Samples, checks, machine details and spans are written under
.bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = {"clt_interior": 1, "clt_boundary_2w": 2, "large_field": 1, "oracle": 1}
# layers whose spans run inside pool workers when a workload uses a pool
IN_WORKER_LAYERS = ("covariance.", "simulate.", "estimate.", "model.")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120
SETUP_CALLS = 5  # set-up-only calls that open an untraced run
E2E_UNITS = {"wall_s": "s", "reps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
UNITS = dict(E2E_UNITS, raw_wall_s="s", raw_setup_s="s", speed="x")


def plan(workload: str, trace: int):
    """Yield (role, traced, workers) for successive calls."""
    workers = WORKERS[workload]
    if not trace:
        for _ in range(SETUP_CALLS):
            yield "setup", False, workers
    if workers > 1:
        yield "reference", bool(trace), 1
    while True:
        yield "sample", False, workers
        if trace:
            yield "traced", True, workers


def run_child(workload: str, seed: int, traced: bool, workers: int,
              workdir: Path, setup_only: bool = False) -> dict:
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    env = dict(os.environ, **THREADS, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
           "--workers", str(workers), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    cmd.append("--spawned-at")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + [repr(t0)], cwd=workdir, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    # the child leads its own process group, so its pool workers go with it
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        err += f"\ntimed out after {CHILD_TIMEOUT_S} s"
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    elapsed = time.monotonic() - t0
    if proc.returncode != 0 or not result.is_file():
        return {"error": f"exit {proc.returncode}: {err.strip()[-2000:]}",
                "elapsed_s": elapsed}
    record = json.loads(result.read_text())
    record["elapsed_s"] = elapsed
    return record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine() -> dict:
    def read(path: str) -> str | None:
        try:
            return Path(path).read_text()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor())
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read(str(idx / f)) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level.strip()}{kind.strip()[0].lower()}"] = size.strip()
    meminfo = read("/proc/meminfo") or ""
    ram = next((ln.split(":", 1)[1].strip() for ln in meminfo.splitlines()
                if ln.startswith("MemTotal")), None)
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spatialar").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches, "ram": ram,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "threads": THREADS,
            "git_commit": commit, "src_sha256": src.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKERS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "spatialar" / "__init__.py").is_file():
        print(f"error: no spatialar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    # fill the time budget: start a call only when one like it still fits
    t_begin = time.monotonic()
    deadline = t_begin + args.seconds
    records: list[tuple[str, dict]] = []
    needed = {"sample", "traced"} if args.trace else {"sample"}
    for k, (role, traced, workers) in enumerate(plan(args.workload, args.trace)):
        durations = [r["elapsed_s"] for ro, r in records if ro == role] or \
                    [r["elapsed_s"] for _, r in records] or [0.0]
        seen = {ro for ro, _ in records}
        if needed <= seen and time.monotonic() + max(durations) > deadline:
            break
        rec = run_child(args.workload, args.seed, traced, workers,
                        out / f"{k:02d}-{role}", setup_only=role == "setup")
        records.append((role, rec))
        if "error" in rec:
            break
    measured_s = time.monotonic() - t_begin

    # correctness gates
    gates = []
    attempted = failed = 0
    for role, rec in records:
        if "error" in rec:
            gates.append({"name": f"{role} call completed", "ok": False,
                          "detail": rec["error"]})
            continue
        if role == "setup":
            continue
        attempted += rec["ops"]
        failed += rec["failed_ops"]
        gates.extend(dict(g, name=f"{role} w{rec['workers']}: {g['name']}")
                     for g in rec["checks"])
    done = [(role, rec) for role, rec in records if "error" not in rec]
    calls = [(role, rec) for role, rec in done if role != "setup"]
    digests = {json.dumps(rec["digests"], sort_keys=True) for _, rec in calls}
    gates.append({"name": "output bytes identical across calls "
                          "(any worker count, traced or not)",
                  "ok": len(digests) == 1 and len(done) == len(records),
                  "detail": sorted({f"{ro} w{r['workers']}" for ro, r in calls})})
    attempted += len(gates)
    failed += sum(not g["ok"] for g in gates)
    correct = all(g["ok"] for g in gates)

    samples = [rec for role, rec in done if role == "sample"]
    untraced = [rec for _, rec in done if not rec["traced"]]
    # times are scaled to the reference CPU speed (child.py); raw_* keep them
    # as measured
    series = {
        "wall_s": [r["wall_s"] * r["speed"] for r in samples],
        "reps_per_s": [r["ops"] / (r["wall_s"] * r["speed"]) for r in samples],
        "setup_s": [r["setup_s"] * r["setup_speed"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in samples],
    }
    raw = {"raw_wall_s": [r["wall_s"] for r in samples],
           "raw_setup_s": [r["setup_s"] for r in untraced],
           "speed": [r["speed"] for _, r in calls]}
    e2e = {name: statistics.median(v) for name, v in series.items() if v}

    layers = {}
    traced = [rec for role, rec in done if role == "traced"]
    if args.trace and traced and samples:
        def scaled(rec: dict) -> dict:
            return {n: v * rec["speed"] if LAYER_UNITS[n] in ("s", "ms") else v
                    for n, v in rec["layers"].items()}

        names = traced[0]["layers"].keys()
        layers = {n: statistics.median(scaled(r)[n] for r in traced) for n in names}
        refs = [rec for role, rec in done if role == "reference"]
        if refs:
            layers.update({n: v for n, v in scaled(refs[0]).items()
                           if n.startswith(IN_WORKER_LAYERS)})
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] * r["speed"] for r in traced) - e2e["wall_s"])

    info = machine()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(records)} calls in {measured_s:.1f} s on {info['nproc']} x "
          f"{info['cpu_model']}, Python {info['python']}, numpy {info['numpy']}, "
          f"{info['blas']}")
    for name, values in {**series, **raw}.items():
        if values:
            q1, med, q3 = quartiles(values)
            print(f"  {name:<14} {med:.6g} {UNITS[name]}  "
                  f"(median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})")
    print(f"  {'fail_ratio':<14} {failed / max(attempted, 1):.6g}  "
          f"({failed} failed of {attempted} attempted)")
    for name, value in layers.items():
        print(f"  {name:<30} {value:.6g} {LAYER_UNITS[name]}")
    for g in gates:
        if not g["ok"]:
            print(f"  FAILED: {g['name']}: {g['detail']}")
    print(f"  gates: {sum(g['ok'] for g in gates)}/{len(gates)} passed; "
          f"output digests: {next(iter(digests)) if len(digests) == 1 else digests}")

    metrics = layers if args.trace else e2e
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": E2E_UNITS.get(n) or LAYER_UNITS[n]}
                          for n, v in metrics.items()}}
    (out / "summary.json").write_text(json.dumps(
        {"args": vars(args), "machine": info, "measured_s": measured_s,
         "series": series, "raw": raw, "gates": gates, "result": result,
         "calls": [dict(rec, role=role) for role, rec in records]},
        indent=1, default=str))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
