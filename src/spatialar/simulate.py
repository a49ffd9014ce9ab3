"""Exact and controllably-approximate sampling of the stationary field.

The sampler core exploits the geometry of the hull: the d = 0
anti-diagonal X[i, -i] depends only on innovations with u + v <= 0, while
the triangle recursion consumes innovations with u + v >= 1.  The two index
sets are disjoint, and the innovations are i.i.d., so the boundary vector is
independent of every triangle innovation.  The stationary law of the whole
hull therefore factorises into (law of the boundary) x (recursion given the
boundary), and it suffices to draw the (s+1)-point boundary exactly and
sweep the recursion upward at O(s^2).  The boundary covariance is
R(t, -t) = sigma^2 D^|t| with D = ``d_factor`` -- a Kac-Murdock-Szego
(AR(1)) matrix -- whose Cholesky factor is the O(s) recursion
x_0 = sigma z_0, x_t = D x_(t-1) + sigma sqrt(1 - D^2) z_t.

For non-Gaussian innovations Cholesky colouring is no longer exact in law,
so the boundary is instead the truncated moving-average series
sum_(t <= margin) (alpha S_0 + beta S_1)^t eps[-t] (tail variance certified
by ``tail_variance_bound``), with the same exact recursion above it.  That
series is the recursion itself run up from layer -margin, started at
eps[-margin], so a boundary costs O(margin * s) rather than the O(margin^2 * s)
of summing the series term by term.

Both methods are a boundary draw followed by that sweep, and both run a
batch of replications at once (``FieldSimulator.sweep``): every replication
draws from its own stream in its own row, so a batch reproduces each
replication's draws exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .covariance import d_factor, oracle_margin, sigma_sq
from .errors import ConfigError, MethodUnsupportedError
from .model import Field, ModelParams, TriangleWindow

__all__ = [
    "InnovationDist", "MethodKind", "SimMethod", "RngStream",
    "tail_variance_bound", "FieldSimulator", "batch_size", "deterministic_field",
]

_GROUP_LAYERS = 8         # innovation layers per generator call
_BATCH_FLOATS = 1 << 17   # float64 (1 MiB) in one draw group of a whole batch


class InnovationDist(enum.Enum):
    """Zero-mean unit-variance innovation families (all have finite 8th moment)."""

    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"
    UNIFORM_UNIT_VAR = "uniform"

    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        if self is InnovationDist.GAUSSIAN:
            return gen.standard_normal(n)
        if self is InnovationDist.RADEMACHER:
            return 2.0 * gen.integers(0, 2, n).astype(np.float64) - 1.0
        r = math.sqrt(3.0)
        return gen.uniform(-r, r, n)


class MethodKind(enum.Enum):
    BOUNDARY_CHOLESKY = "boundary_cholesky"
    BOUNDARY_SERIES = "boundary_series"


@dataclass(frozen=True)
class SimMethod:
    """Sampling strategy; ``margin`` is the truncation depth of boundary_series.

    Malformed methods (an unknown kind, a margin that is not a non-negative
    integer, a margin on boundary_cholesky) raise ConfigError.
    """

    kind: MethodKind = MethodKind.BOUNDARY_CHOLESKY
    margin: int | None = None

    def __post_init__(self):
        if self.margin is None:
            return
        if self.kind is not MethodKind.BOUNDARY_SERIES:
            raise ConfigError(f"{self.kind.value} takes no margin")
        if self.margin < 0:
            raise ConfigError(f"series margin must be >= 0, got {self.margin}")

    @classmethod
    def boundary_cholesky(cls) -> "SimMethod":
        return cls(MethodKind.BOUNDARY_CHOLESKY)

    @classmethod
    def boundary_series(cls, margin: int | None = None) -> "SimMethod":
        return cls(MethodKind.BOUNDARY_SERIES, margin)

    @classmethod
    def parse(cls, text: str) -> "SimMethod":
        """``kind`` or ``kind:margin``, the form ``describe`` writes."""
        if not isinstance(text, str):
            raise ConfigError(f"sampling method must be a string, got {text!r}")
        name, colon, arg = text.partition(":")
        try:
            kind = MethodKind(name)
        except ValueError:
            known = ", ".join(k.value for k in MethodKind)
            raise ConfigError(f"unknown sampling method {name!r} (known: {known})") from None
        if not colon:
            return cls(kind)
        try:
            margin = int(arg)
        except ValueError:
            raise ConfigError(f"margin {arg!r} of {text!r} is not an integer") from None
        return cls(kind, margin)

    def describe(self) -> str:
        if self.margin is None:
            return self.kind.value
        return f"{self.kind.value}:{self.margin}"


@dataclass(frozen=True)
class RngStream:
    """Counter-based stream: draw t of replication r is a pure function of
    (master_seed, r, t).

    Backed by a Philox generator keyed on (master_seed, replication_id), so
    distinct replications get statistically independent streams and the
    sequence a replication sees never depends on worker scheduling.
    """

    master_seed: int
    replication_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [int(self.master_seed) & 0xFFFFFFFFFFFFFFFF,
             int(self.replication_id) & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, replication_id: int) -> "RngStream":
        return RngStream(self.master_seed, replication_id)


def tail_variance_bound(q: float, margin: int) -> float:
    """Variance omitted by truncating the moving-average series at ``margin``.

    The layer-d weights satisfy sum_j C(d,j)^2 a^(2j) b^(2(d-j)) <=
    (|a|+|b|)^(2d) by the binomial theorem, so the dropped variance is at
    most sum_{d > margin} q^(2d) = q^(2(margin+1)) / (1 - q^2).
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"need 0 <= q < 1, got {q}")
    return q ** (2 * (margin + 1)) / (1.0 - q * q)


def _series_margin(method: SimMethod, params: ModelParams | None) -> int:
    """Truncation depth of a series method: its own ``margin``, or by default
    the smallest one whose tail variance bound is below 1e-12."""
    if method.margin is not None:
        return method.margin
    if params is None:
        raise ValueError(f"{method.kind.value} needs params to resolve its default margin")
    return oracle_margin(params.q, 1e-12)


def batch_size(method: SimMethod, s: int, params: ModelParams | None = None) -> int:
    """Replications to sweep together on a window with sum s.

    One draw group of the batch (_GROUP_LAYERS layers of the widest drawn
    layer per replication: s + 1 points, or s + 1 + margin for the series
    boundary) stays within 1 MiB of float64.  ``params`` resolves the
    default margin of boundary_series.
    """
    width = s + 1
    if method.kind is MethodKind.BOUNDARY_SERIES:
        width += _series_margin(method, params)
    return max(1, _BATCH_FLOATS // (_GROUP_LAYERS * width))


class FieldSimulator:
    """Reusable sampler for one (params, window, method, dist) combination.

    Every method draws a boundary layer and then sweeps the recursion up the
    triangle.  Set-up holds only what is replication-invariant (the AR(1)
    boundary coefficients, or the resolved series margin) and is O(1), so
    ``sample`` is a pure function of the stream and replications may run
    concurrently in any order.  A draw costs O(s) (boundary_cholesky) or
    O(margin * s) (boundary_series: the truncated series evaluated by
    running the recursion up from layer -margin) for the boundary, plus
    O(s^2) for the sweep.

    Draw layout (fixed per method, part of the determinism contract):
    boundary_cholesky -- s+1 boundary normals; boundary_series -- extended
    innovation layers in ascending layer order (d = -margin first, up to
    d = 0), each layer in i order; then, for both, the triangle block in
    (d, i) order.
    """

    def __init__(self, params: ModelParams, window: TriangleWindow,
                 method: SimMethod = SimMethod(), dist: InnovationDist = InnovationDist.GAUSSIAN):
        params.require_stationary()
        if window.s < 1:
            raise ValueError("window sum must be >= 1")
        self.params = params
        self.window = window
        self.method = method
        self.dist = dist
        # no sampler adds jitter; stays 0.0 because the benchmark in
        # perfbench/ (workloads.py, tracing.py) reads and reports it
        self.boundary_jitter = 0.0
        self._ar1 = None

        if method.kind is MethodKind.BOUNDARY_CHOLESKY:
            if dist is not InnovationDist.GAUSSIAN:
                raise MethodUnsupportedError(
                    f"{method.kind.value} is exact in law only for Gaussian innovations"
                )
            d = d_factor(params)
            sig = math.sqrt(sigma_sq(params))
            self._ar1 = (d, sig, sig * math.sqrt(1.0 - d * d))
        else:
            self.method = SimMethod(method.kind, _series_margin(method, params))

    def _layers(self, gens: list[np.random.Generator], lowest: int, highest: int):
        """Yield (d, eps) for layers d = lowest .. highest in ascending order.

        eps is an (R, layer_len(d)) array whose row r is drawn from gens[r],
        each layer in i order, _GROUP_LAYERS layers per generator call: a
        draw split into chunks continues the stream, so this equals drawing
        the layers one by one.
        """
        w = self.window
        for d0 in range(lowest, highest + 1, _GROUP_LAYERS):
            group = range(d0, min(d0 + _GROUP_LAYERS, highest + 1))
            lens = [w.layer_len(d) for d in group]
            block = np.empty((len(gens), sum(lens)))
            for row, gen in zip(block, gens):
                row[:] = self.dist.draw(gen, len(row))
            pos = 0
            for d, n in zip(group, lens):
                yield d, block[:, pos:pos + n]
                pos += n

    def _step(self, prev: np.ndarray, eps: np.ndarray) -> np.ndarray:
        # one layer of the recursion for every row of the batch
        y = self.params.alpha * prev[:, :-1]
        y += self.params.beta * prev[:, 1:]
        y += eps
        return y

    def _boundaries(self, gens: list[np.random.Generator]) -> np.ndarray:
        """(R, s+1) boundary layers; row r is drawn from gens[r]."""
        if self.method.kind is MethodKind.BOUNDARY_SERIES:
            # the series truncated at relative depth margin is the recursion
            # run up from layer -margin, started at eps[-margin]
            y = None
            for _, eps in self._layers(gens, -self.method.margin, 0):
                y = eps if y is None else self._step(y, eps)
            return y
        d, sig, step = self._ar1
        z = np.array([gen.standard_normal(self.window.s + 1) for gen in gens])
        x = step * z
        x[:, 0] = sig * z[:, 0]
        for t in range(1, x.shape[1]):
            x[:, t] += d * x[:, t - 1]
        return x

    def sweep(self, streams: list[RngStream]):
        """Run a batch of replications up the triangle, one layer at a time.

        Yields (prev, y, eps) for d = 1 .. s: layer d - 1, layer d and the
        innovations of layer d, each an (R, .) array whose row r belongs to
        streams[r].  Row r draws exactly what ``sample(streams[r])`` draws,
        in the same order: the boundary, then the triangle block in (d, i)
        order (see ``_layers``).  The yielded arrays are not modified
        afterwards.
        """
        gens = [stream.generator() for stream in streams]
        prev = self._boundaries(gens)
        for _, eps in self._layers(gens, 1, self.window.s):
            y = self._step(prev, eps)
            yield prev, y, eps
            prev = y

    def sample(self, stream: RngStream) -> Field:
        """One field realisation: the R = 1 case of ``sweep``."""
        prevs, ys, eps = zip(*self.sweep([stream]))
        values = [prevs[0][0]] + [y[0] for y in ys]
        return Field(self.window, values, [e[0] for e in eps], self.params)


def deterministic_field(params: ModelParams, window: TriangleWindow,
                        boundary: np.ndarray,
                        innovations: list[np.ndarray] | None = None) -> Field:
    """Run the recursion from fixed boundary values (zero innovations unless given).

    Debug/oracle path: with eps = 0 the field is the deterministic recursion
    of its boundary, and the least-squares estimator recovers (alpha, beta)
    exactly whenever the normal equations are nonsingular.
    """
    w = window
    boundary = np.asarray(boundary, dtype=np.float64)
    if len(boundary) != w.s + 1:
        raise ValueError(f"boundary must have {w.s + 1} values")
    if innovations is None:
        innovations = [np.zeros(w.layer_len(d)) for d in range(1, w.s + 1)]
    a, b = params.alpha, params.beta
    values, prev = [boundary], boundary
    for d in range(1, w.s + 1):
        prev = a * prev[:-1] + b * prev[1:] + innovations[d - 1]
        values.append(prev)
    return Field(w, values, innovations, params)
