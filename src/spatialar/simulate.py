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

Both methods run one recursion loop for a batch of replications at once
(``FieldSimulator.sweep``): it starts at layer ``lowest`` (-margin for the
series, 0 for Cholesky, whose start layer is coloured by the AR(1)
recursion first) and steps up to layer s.  Every replication draws from its
own stream in its own row, so a batch reproduces each replication's draws
exactly.  A replication's draws are two spans of layers, the boundary
(layers lowest .. 0) and then the triangle, and each span is one draw of its
whole length split into layers (``FieldSimulator._layers``), so neither the
batch size nor the number of layers made at once changes a value.
Rademacher signs take one generator call per replication and span: the
span's bytes are held packed, at one bit per sign, and unpacked for the
whole batch a group of layers at a time.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .covariance import d_factor, oracle_margin, sigma_sq
from .errors import ConfigError, MethodUnsupportedError
from .model import Field, ModelParams, TriangleWindow

__all__ = [
    "InnovationDist", "MethodKind", "SimMethod", "RngStream",
    "tail_variance_bound", "FieldSimulator", "deterministic_field",
]

_GROUP_LAYERS = 8         # innovation layers made as one float64 block
_BATCH_FLOATS = 1 << 17   # float64 (1 MiB) in one draw group of a whole batch
_MASK64 = (1 << 64) - 1


class InnovationDist(enum.Enum):
    """Zero-mean unit-variance innovation families (all have finite 8th moment)."""

    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"
    UNIFORM_UNIT_VAR = "uniform"

    def draw(self, gen: np.random.Generator, n: int,
             out: np.ndarray | None = None) -> np.ndarray:
        """n innovations from ``gen``, written into ``out`` (a contiguous
        float64 row of length n) when it is given.

        Rademacher signs are the first n bits of ceil(n / 8) random bytes,
        unpacked most significant bit first: one random bit per sign.
        """
        if out is None:
            out = np.empty(n)
        if self is InnovationDist.GAUSSIAN:
            return gen.standard_normal(out=out)
        if self is InnovationDist.RADEMACHER:
            _unpack_signs(_sign_bytes(gen, n)[None], 0, out[None])
            return out
        r = math.sqrt(3.0)
        gen.random(out=out)
        out *= 2.0 * r
        out -= r
        return out


def _sign_bytes(gen: np.random.Generator, n: int) -> np.ndarray:
    """The ceil(n / 8) random bytes that carry n Rademacher signs."""
    return gen.integers(0, 256, (n + 7) // 8, dtype=np.uint8)


def _unpack_signs(packed: np.ndarray, start: int, out: np.ndarray) -> None:
    """Write signs start .. start + n - 1 of every row of ``packed`` (R, bytes)
    into ``out`` (R, n): bit 1 is +1 and bit 0 is -1, most significant bit
    of each byte first."""
    first, skip = divmod(start, 8)
    n = out.shape[1]
    bits = np.unpackbits(packed[:, first:(start + n + 7) // 8], axis=1)
    np.multiply(bits[:, skip:skip + n], 2.0, out=out)
    out -= 1.0


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
        if not isinstance(self.kind, MethodKind):
            raise ConfigError(f"sampling method kind must be a MethodKind, got {self.kind!r}")
        if self.margin is None:
            return
        if isinstance(self.margin, bool) or not isinstance(self.margin, (int, np.integer)):
            raise ConfigError(f"series margin must be an integer, got {self.margin!r}")
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
    """Independent stream per replication: every draw of replication r is a
    pure function of (master_seed, r).

    Backed by an SFC64 generator seeded by
    ``SeedSequence(master_seed, spawn_key=(replication_id,))``, the key
    ``SeedSequence.spawn`` gives child r, so distinct replications get
    statistically independent streams and the sequence a replication sees
    never depends on worker scheduling.  Both numbers are taken modulo 2^64.
    """

    master_seed: int
    replication_id: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(int(self.master_seed) & _MASK64,
                                     spawn_key=(int(self.replication_id) & _MASK64,))
        return np.random.Generator(np.random.SFC64(seq))


def tail_variance_bound(q: float, margin: int) -> float:
    """Variance omitted by truncating the moving-average series at ``margin``.

    The layer-d weights satisfy sum_j C(d,j)^2 a^(2j) b^(2(d-j)) <=
    (|a|+|b|)^(2d) by the binomial theorem, so the dropped variance is at
    most sum_{d > margin} q^(2d) = q^(2(margin+1)) / (1 - q^2).
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"need 0 <= q < 1, got {q}")
    return q ** (2 * (margin + 1)) / (1.0 - q * q)


class FieldSimulator:
    """Reusable sampler for one (params, window, method, dist) combination.

    Every method runs one recursion loop up from layer ``lowest``: -margin
    for boundary_series, whose truncated moving-average series is the
    recursion started at eps[-margin], and 0 for boundary_cholesky, whose
    start layer is coloured by the AR(1) recursion.  Set-up holds only what
    is replication-invariant (the AR(1) boundary coefficients or the
    resolved series margin, and the batch size) and is O(1), so ``sample``
    is a pure function of the stream and replications may run concurrently
    in any order.  A draw costs O(s) (boundary_cholesky) or O(margin * s)
    (boundary_series) for the boundary, plus O(s^2) for the triangle.

    ``batch`` is the number of replications to sweep together: one draw
    group of the batch (_GROUP_LAYERS layers of the widest drawn layer per
    replication, s + 1 + margin points) stays within 1 MiB of float64.
    Rademacher signs add the packed bytes of a whole span, 1/64 of its
    float64 size: about 25 KB per replication, 600 KB per batch, for the
    series boundary at s = 181.

    Draw layout (fixed per method, part of the determinism contract): every
    number comes from the replication's ``RngStream``, in two spans.  The
    boundary span: layers lowest .. 0 in ascending order, each layer in i
    order (boundary_cholesky: the s+1 normals of layer 0).  Then the
    triangle span in (d, i) order.  Each span is exactly one
    ``InnovationDist.draw`` of its total length, split into layers.
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
        elif method.margin is None:
            # the smallest margin whose tail variance bound is below 1e-12
            self.method = SimMethod(method.kind, oracle_margin(params.q, 1e-12))
        width = window.s + 1 + (self.method.margin or 0)
        self.batch = max(1, _BATCH_FLOATS // (_GROUP_LAYERS * width))

    def _layers(self, gens: list[np.random.Generator], lowest: int, highest: int):
        """Yield (d, eps) for layers d = lowest .. highest in ascending order.

        Every random number of a replication, boundary included, is drawn here.

        eps is an (R, layer_len(d)) array whose row r is drawn from gens[r],
        each layer in i order.  Row r of the span is exactly
        ``self.dist.draw(gens[r], N)``, N the total length of the layers,
        split into the layers.  Rademacher signs take one generator call per
        row for the whole span: its ceil(N / 8) bytes are held packed, 1/64
        of the span's float64 size, and unpacked for the whole batch one
        group at a time.  Normals and uniforms are drawn row by row per
        group, and continue the stream across groups.  The float64 layers
        are made in groups of _GROUP_LAYERS, which bounds their memory and
        does not change the values.
        """
        lens = [self.window.layer_len(d) for d in range(lowest, highest + 1)]
        packed = None
        if self.dist is InnovationDist.RADEMACHER:
            packed = np.stack([_sign_bytes(gen, sum(lens)) for gen in gens])
        start = 0
        for k in range(0, len(lens), _GROUP_LAYERS):
            group = lens[k:k + _GROUP_LAYERS]
            block = np.empty((len(gens), sum(group)))
            if packed is None:
                for row, gen in zip(block, gens):
                    self.dist.draw(gen, len(row), out=row)
            else:
                _unpack_signs(packed, start, block)
            start += block.shape[1]
            pos = 0
            for d, n in enumerate(group, lowest + k):
                yield d, block[:, pos:pos + n]
                pos += n

    def _step(self, prev: np.ndarray, eps: np.ndarray) -> np.ndarray:
        # one layer of the recursion for every row of the batch
        y = self.params.alpha * prev[:, :-1]
        y += self.params.beta * prev[:, 1:]
        y += eps
        return y

    def _colour(self, z: np.ndarray) -> np.ndarray:
        # the boundary_cholesky boundary from its s+1 normals: the O(s)
        # Cholesky factor of the AR(1) boundary covariance
        d, sig, step = self._ar1
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
        in the same order: the boundary span, then the triangle span (see
        ``_layers``).  The first yielded prev is the boundary.  The yielded
        arrays are not modified afterwards.
        """
        gens = [stream.generator() for stream in streams]
        lowest = -(self.method.margin or 0)
        layers = itertools.chain(self._layers(gens, lowest, 0),
                                 self._layers(gens, 1, self.window.s))
        _, prev = next(layers)
        if self._ar1 is not None:
            prev = self._colour(prev)
        for d, eps in layers:
            y = self._step(prev, eps)
            if d >= 1:
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
