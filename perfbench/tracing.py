"""In-memory span tracer that wraps spatialar's public names from outside.

A span is (name, start, end, parent, error).  ``install`` replaces the
public functions each caller module imports (for example
``spatialar.harness.lse`` and ``spatialar.covariance.pmf_s``) with timed
wrappers, so no source file of the package changes.  Spans stay in memory
until ``write`` dumps them at the end of the process.  Pool workers forked
from a traced process record nothing: their spans would die with them.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import tracemalloc
from time import perf_counter

# Span names are "<layer>.<what>"; the layer is the spatialar module.
_LIMITS_NAMES = ("limit_law", "condition_statistic", "omega_n", "theta_scalar",
                 "theta_matrix", "sqrt_spd2", "psi_matrix", "expected_B")
_COV_NAMES = {"cov_closed": "covariance.closed", "cov_f4": "covariance.f4",
              "cov_binrep": "covariance.binrep",
              "cov_series_oracle": "covariance.oracle"}


LAYER_UNITS = {
    "covariance.closed_s": "s", "covariance.f4_s": "s", "covariance.binrep_s": "s",
    "covariance.oracle_s": "s", "covariance.self_s": "s", "covariance.calls": "count",
    "covariance.pmf_calls": "count",
    "simulate.setup_s": "s", "simulate.setup_peak_mb": "MB",
    "simulate.boundary_jitter_max": "1", "simulate.sample_s": "s",
    "simulate.samples": "count", "simulate.sample_ms.p50": "ms",
    "simulate.sample_ms.p99": "ms", "simulate.rng_s": "s", "simulate.self_s": "s",
    "simulate.series_margin": "layers", "simulate.series_tail_bound": "1",
    "estimate.lse_s": "s", "estimate.normal_equations_s": "s", "estimate.score_s": "s",
    "estimate.calls": "count", "estimate.singular": "count",
    "model.field_s": "s",
    "limits.busy_s": "s", "limits.calls": "count",
    "harness.self_s": "s", "harness.write_s": "s", "harness.pool_s": "s",
    "harness.worker_cpu_s": "s", "harness.worker_idle_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.setups: list[dict] = []  # one record per FieldSimulator built
        self.pools: list[tuple[int, int]] = []  # (span index, max_workers)
        self.enabled = True
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), math.nan,
                           self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, error: str | None = None) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        span[4] = error
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(idx, type(exc).__name__)
                raise
            self.end(idx)
            return out
        return traced

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {"names": names,
               "name": [ids[s[0]] for s in self.spans],
               "start_ns": [round((s[1] - t0) * 1e9) for s in self.spans],
               "end_ns": [round((s[2] - t0) * 1e9) for s in self.spans],
               "parent": [s[3] for s in self.spans],
               "error": [s[4] for s in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _TimedGenerator:
    """Generator proxy: every draw method call becomes a simulate.rng span."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        return self._tracer.wrap("simulate.rng", attr) if callable(attr) else attr


def _patch(obj, attr: str, tracer: Tracer, name: str) -> None:
    setattr(obj, attr, tracer.wrap(name, getattr(obj, attr)))


def install(tracer: Tracer) -> None:
    """Wrap the public names of every spatialar layer the workloads reach."""
    # the package re-exports a function named simulate over its submodule
    cli, covariance, estimate, harness, model, simulate = (
        importlib.import_module(f"spatialar.{name}") for name in
        ("cli", "covariance", "estimate", "harness", "model", "simulate"))

    os.register_at_fork(after_in_child=lambda: setattr(tracer, "enabled", False))

    _patch(cli, "main", tracer, "cli.main")
    _patch(harness, "run_clt", tracer, "harness.run_clt")
    _patch(harness, "verify_cov", tracer, "harness.verify_cov")
    _patch(harness.ExperimentReport, "write", tracer, "harness.write")
    for name in _LIMITS_NAMES:
        _patch(harness, name, tracer, f"limits.{name}")
    for name, span in _COV_NAMES.items():
        _patch(harness, name, tracer, span)
        _patch(covariance, name, tracer, span)
    _patch(covariance, "pmf_s", tracer, "covariance.pmf")
    _patch(harness, "lse", tracer, "estimate.lse")
    _patch(estimate, "lse", tracer, "estimate.lse")
    _patch(estimate, "normal_equations", tracer, "estimate.normal_equations")
    _patch(estimate, "score_vector", tracer, "estimate.score")
    _patch(model.Field, "__init__", tracer, "model.field")
    _patch(simulate.FieldSimulator, "sample", tracer, "simulate.sample")

    make_generator = simulate.RngStream.generator

    def generator(stream):
        gen = make_generator(stream)
        return _TimedGenerator(gen, tracer) if tracer.enabled else gen
    simulate.RngStream.generator = tracer.wrap("simulate.rng", generator)

    build = simulate.FieldSimulator.__init__

    def setup(sim, *args, **kwargs):
        if not tracer.enabled:
            return build(sim, *args, **kwargs)
        fresh = not tracemalloc.is_tracing()
        if fresh:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            build(sim, *args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] - base
            if fresh:
                tracemalloc.stop()
        margin = sim.method.margin
        tracer.setups.append({
            "s": sim.window.s, "method": sim.method.describe(),
            "peak_mb": peak / 2**20, "jitter": sim.boundary_jitter,
            "margin": margin,
            "tail_bound": (None if margin is None
                           else simulate.tail_variance_bound(sim.params.q, margin)),
        })
    simulate.FieldSimulator.__init__ = tracer.wrap("simulate.setup", setup)

    base_pool = harness.ProcessPoolExecutor

    class TracedPool(base_pool):
        def __enter__(self):
            self._span = tracer.begin("harness.pool")
            tracer.pools.append((self._span, self._max_workers))
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.end(self._span)
    harness.ProcessPoolExecutor = TracedPool


# ---------------------------------------------------------------------------
# per-layer metrics from one traced process


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(tracer: Tracer, worker_cpu_s: float) -> dict[str, float]:
    """Per-layer totals, counts and self times from the recorded spans.

    A span's self time is its duration minus the durations of its direct
    children (children of one span never overlap: the tracer is
    single-threaded).
    """
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    selfs: dict[str, float] = {}
    errors: dict[str, int] = {}
    for i, s in enumerate(spans):
        name = s[0]
        total[name] = total.get(name, 0.0) + dur[i]
        count[name] = count.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + dur[i] - child[i]
        if s[4] is not None:
            errors[name] = errors.get(name, 0) + 1

    def tot(*names):
        return sum(total.get(n, 0.0) for n in names)

    def cnt(*names):
        return sum(count.get(n, 0) for n in names)

    def self_of(*names):
        return sum(selfs.get(n, 0.0) for n in names)

    sample_ms = [1e3 * dur[i] for i, s in enumerate(spans) if s[0] == "simulate.sample"]
    setups = tracer.setups
    margins = [r["margin"] for r in setups if r["margin"] is not None]
    bounds = [r["tail_bound"] for r in setups if r["tail_bound"] is not None]
    limits = [n for n in total if n.startswith("limits.")]
    pool_worker_s = sum(workers * dur[idx] for idx, workers in tracer.pools)
    cov = tuple(_COV_NAMES.values())
    return {
        "covariance.closed_s": tot("covariance.closed"),
        "covariance.f4_s": tot("covariance.f4"),
        "covariance.binrep_s": tot("covariance.binrep"),
        "covariance.oracle_s": tot("covariance.oracle"),
        "covariance.self_s": self_of(*cov, "covariance.pmf"),
        "covariance.calls": cnt(*cov),
        "covariance.pmf_calls": cnt("covariance.pmf"),
        "simulate.setup_s": tot("simulate.setup"),
        "simulate.setup_peak_mb": max((r["peak_mb"] for r in setups), default=0.0),
        "simulate.boundary_jitter_max": max((r["jitter"] for r in setups), default=0.0),
        "simulate.sample_s": tot("simulate.sample"),
        "simulate.samples": cnt("simulate.sample"),
        "simulate.sample_ms.p50": _quantile(sample_ms, 0.50),
        "simulate.sample_ms.p99": _quantile(sample_ms, 0.99),
        "simulate.rng_s": tot("simulate.rng"),
        "simulate.self_s": self_of("simulate.setup", "simulate.sample"),
        "simulate.series_margin": max(margins, default=0),
        "simulate.series_tail_bound": max(bounds, default=0.0),
        "estimate.lse_s": tot("estimate.lse"),
        "estimate.normal_equations_s": tot("estimate.normal_equations"),
        "estimate.score_s": tot("estimate.score"),
        "estimate.calls": cnt("estimate.lse"),
        "estimate.singular": errors.get("estimate.lse", 0),
        "model.field_s": tot("model.field"),
        "limits.busy_s": tot(*limits),
        "limits.calls": cnt(*limits),
        "harness.self_s": self_of("harness.run_clt", "harness.verify_cov"),
        "harness.write_s": tot("harness.write"),
        "harness.pool_s": tot("harness.pool"),
        "harness.worker_cpu_s": worker_cpu_s,
        "harness.worker_idle_s": pool_worker_s - worker_cpu_s if tracer.pools else 0.0,
        "cli.self_s": self_of("cli.main"),
        "trace.spans": len(spans),
    }
