"""One timed call of one workload, in a fresh interpreter.

    python3 child.py --root R --workload W --seed N --trace 0|1 \
        --workers K --spawned-at T --result PATH [--setup-only]

Runs with the working directory set to its own call directory.  It
imports spatialar from R/src, builds the workload's inputs from the seed,
makes the call, checks its outputs and writes one JSON record to PATH.
``--spawned-at`` is the parent's time.monotonic() just before it started
this process, so set-up time covers interpreter start, imports and input
generation.

Each vCPU of the host switches on its own between throughput regimes about
1.5x apart that last seconds, which no median over a run removes.  So a
1-worker call is pinned to one CPU, and the child times a fixed pure-Python
reference loop on each CPU the call uses, just before and just after the
call.  ``speed`` is the loop's nominal time over its median measured time
on the slowest of those CPUs;
times multiplied by it read as seconds on a CPU that runs the loop in
exactly REF_NOMINAL_S.  With ``--setup-only`` the child stops after the
set-up and the reference loops, to sample set-up time cheaply.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
from pathlib import Path

REF_ITERATIONS = 500_000
REF_NOMINAL_S = 0.035   # one loop on a 2-vCPU Xeon host, Python 3.11
REF_LOOPS = 3           # loops per CPU before the call and again after it


def reference_loop() -> float:
    """Seconds taken by one fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t0


def _loops_on(cpu: int, start, out) -> None:
    os.sched_setaffinity(0, {cpu})
    start.wait()
    out.put((cpu, [reference_loop() for _ in range(REF_LOOPS)]))


def reference(cpus: list[int]) -> dict[int, list[float]]:
    """REF_LOOPS reference loop times per CPU, on all of them at once.

    A pooled call keeps every CPU busy, and the vCPUs slow each other down
    when they run together, so the loops run concurrently, one process per
    CPU, as the pool's workers do.
    """
    if len(cpus) == 1:
        return {cpus[0]: [reference_loop() for _ in range(REF_LOOPS)]}
    ctx = multiprocessing.get_context("fork")
    start, out = ctx.Barrier(len(cpus)), ctx.Queue()
    procs = [ctx.Process(target=_loops_on, args=(cpu, start, out)) for cpu in cpus]
    for p in procs:
        p.start()
    times = dict(out.get() for _ in procs)
    for p in procs:
        p.join()
    return times


def speed(loops: dict[int, list[float]]) -> float:
    """Nominal over measured loop time on the slowest CPU, which a call
    split evenly over its CPUs waits for."""
    return REF_NOMINAL_S / max(statistics.median(v) for v in loops.values())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    cpus = sorted(os.sched_getaffinity(0))
    if args.workers == 1:
        cpus = cpus[:1]
        os.sched_setaffinity(0, cpus)

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import spatialar
    if Path(spatialar.__file__).resolve().parent.parent != src:
        print(f"spatialar imported from {spatialar.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = workloads.make(args.workload)
    workdir = Path.cwd()
    workload.prepare(args.workload, args.seed, workdir, args.workers)

    ref_start = time.monotonic()
    before = reference(cpus)
    record = {
        "workload": args.workload,
        "workers": args.workers,
        "cpus": cpus,
        "traced": bool(args.trace),
        "setup_s": ref_start - args.spawned_at,
        "ref_loops_s": before,
    }
    # set-up is scaled by the loops next to it, the call by all of them
    record["setup_speed"] = speed(before)
    if args.setup_only:
        args.result.write_text(json.dumps(record))
        return 0
    # the reference processes are children too: pool workers are told apart
    # by the CPU time they add during the call, and their peak resident set
    # is at least that of the reference processes forked before them
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall = workload.timed()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    worker_cpu_s = (kids.ru_utime + kids.ru_stime) - (kids0.ru_utime + kids0.ru_stime)
    after = reference(cpus)
    outcome = workload.check()

    loops = {cpu: before[cpu] + after[cpu] for cpu in cpus}
    record.update({
        "wall_s": wall,
        "ref_loops_s": loops,
        "speed": speed(loops),
        "ops": outcome.ops,
        "failed_ops": outcome.failed_ops,
        # ru_maxrss is in KiB; pool workers count by the largest one
        "peak_rss_mb": (own.ru_maxrss + kids.ru_maxrss) / 1024.0,
        "checks": outcome.checks,
        "digests": outcome.digests,
        "stats": outcome.stats,
    })
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(
            tracer, worker_cpu_s=worker_cpu_s)
        tracer.write(workdir / "spans.json")
    args.result.write_text(json.dumps(record, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
