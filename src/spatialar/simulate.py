"""Sampling of the stationary field: a coloured deep layer, then one sweep.

The sampler core exploits the geometry of the hull: anti-diagonal d of the
field depends only on innovations with u + v <= d, so every layer is
independent of the innovations above it.  The stationary law of the hull
therefore factorises into (law of one low layer) x (recursion given that
layer), and it suffices to draw one layer and sweep the recursion upward.
Every anti-diagonal has the same covariance R(t, -t) = sigma^2 D^|t| with
D = ``d_factor`` -- a Kac-Murdock-Szego (AR(1)) matrix -- whose Cholesky
factor is the O(width) recursion
x_0 = sigma z_0, x_t = D x_(t-1) + sigma sqrt(1 - D^2) z_t.

So the sampler has one method with a depth M (``SimMethod.margin``): layer
-M, with its s + 1 + M points, is drawn as standard normals and coloured by
that recursion, the chosen innovation law drives layers -M + 1 .. 0 and the
triangle, and second moments are exact at every depth.  Depth 0 with
Gaussian innovations is exact in law.  For another law the boundary point's
moving average sum_d sum_j w(d, j) eps, w(d, j) = C(d, j) a^j b^(d-j), has
its layers d >= M replaced by a Gaussian of the same covariance.  All three
laws are symmetric, so the first cumulant that differs is the fourth, off by
|kappa4| sum_(d >= M) sum_j w(d, j)^4.  With q = |a| + |b|, |w(d, j)| is
q^d times the Binomial(d, |a|/q) pmf pi_d(j), so layer d holds q^(4d) S4(d),
S4(d) = sum_j pi_d(j)^4.  S4 never rises with d (pi_(d+1) is pi_d convolved
with a Bernoulli, which cannot raise an l4 norm, by Young's inequality), so
the tail is at most S4(M) q^(4M) / (1 - q^4) (``cumulant_tail_bound``).  By
default M is the smallest depth >= 2 that puts this certificate below 1e-12.

``FieldSimulator.sweep`` runs the recursion for a batch of replications at
once, from the coloured layer -M up to layer s.  Every replication draws
from its own stream in its own row, so a batch reproduces each
replication's draws exactly.  A replication's draws are the deep layer's
normals and then two spans of layers, the boundary (layers -M + 1 .. 0,
empty at depth 0) and the triangle, and each span is one draw of its whole
length split into layers (``FieldSimulator._layers``), so neither the batch
size nor the number of layers made at once changes a value.  Rademacher
signs take one generator call per replication and span: the span's bytes
are held packed, at one bit per sign, and unpacked for the whole batch one
layer at a time.  There is one sweep path: it writes every layer of a
batch into buffers allocated once for the batch, so a layer it yields is
valid only until it advances.  ``FieldSimulator.sample`` is row 0 of a
one-row sweep, copied layer by layer, because its field holds every layer.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .covariance import (
    _log_binomial_pmf,
    _log_factorials,
    d_factor,
    oracle_margin,
    sigma_sq,
    tail_variance_bound,
)
from .errors import ConfigError, MethodUnsupportedError
from .model import Field, ModelParams, TriangleWindow, _integer

__all__ = [
    "InnovationDist", "SimMethod", "RngStream", "cumulant_tail_bound",
    "FieldSimulator",
]

_GROUP_LAYERS = 8         # normal or uniform innovation layers drawn as one block
_BATCH_FLOATS = 1 << 17   # float64 (1 MiB) of a batch's widest layers: see FieldSimulator
_CUMULANT_TOL = 1e-12     # fourth-cumulant tail of the default depth, in units of kappa4


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


@dataclass(frozen=True)
class SimMethod:
    """Sampling depth ``margin``: layer -margin is drawn coloured, and the
    innovation law drives every layer above it.  None, the default, resolves
    to the default depth of the law (see ``FieldSimulator``).

    Its config strings are ``boundary_cholesky`` (depth 0) and
    ``boundary_series[:margin]`` (depth margin, or None without it).  A
    margin that is not a non-negative integer raises ConfigError.
    """

    margin: int | None = None

    def __post_init__(self):
        if self.margin is None:
            return
        if isinstance(self.margin, bool) or not isinstance(self.margin, (int, np.integer)):
            raise ConfigError(f"sampling depth must be an integer, got {self.margin!r}")
        if self.margin < 0:
            raise ConfigError(f"sampling depth must be >= 0, got {self.margin}")

    @classmethod
    def parse(cls, text: str) -> "SimMethod":
        """``boundary_cholesky`` or ``boundary_series[:margin]``, the forms
        ``describe`` writes."""
        if not isinstance(text, str):
            raise ConfigError(f"sampling method must be a string, got {text!r}")
        if text == "boundary_cholesky":
            return cls(0)
        name, colon, arg = text.partition(":")
        if name != "boundary_series":
            raise ConfigError(f"unknown sampling method {text!r} "
                              "(known: boundary_cholesky, boundary_series[:margin])")
        if not colon:
            return cls(None)
        try:
            margin = int(arg)
        except ValueError:
            raise ConfigError(f"margin {arg!r} of {text!r} is not an integer") from None
        return cls(margin)

    def describe(self) -> str:
        if self.margin is None:
            return "boundary_series"
        if self.margin == 0:
            return "boundary_cholesky"
        return f"boundary_series:{self.margin}"


@dataclass(frozen=True)
class RngStream:
    """Independent stream per replication: every draw of replication r is a
    pure function of (master_seed, r).

    Backed by an SFC64 generator seeded by
    ``SeedSequence(master_seed, spawn_key=(replication_id,))``, the key
    ``SeedSequence.spawn`` gives child r (it counts children below 2^64
    only; the key takes any r), so distinct replications get
    statistically independent streams and the sequence a replication sees
    never depends on worker scheduling.

    Each number is any non-negative integer, used as it is, so distinct
    values always give distinct streams.  A value that is not an int, a
    numpy integer or a whole float (a boolean, a string, 1.5) raises
    ConfigError when the stream is built, and so does a negative one, with
    ``master_seed must be a nonnegative integer`` or ``rep must be a
    nonnegative integer``.
    """

    master_seed: int
    replication_id: int = 0

    def __post_init__(self):
        for name, value in (("master_seed", self.master_seed), ("rep", self.replication_id)):
            if _integer(name, value) < 0:
                raise ConfigError(f"{name} must be a nonnegative integer")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(int(self.master_seed),
                                     spawn_key=(int(self.replication_id),))
        return np.random.Generator(np.random.SFC64(seq))


def cumulant_tail_bound(params: ModelParams, depth: int) -> float:
    """S4(depth) q^(4 depth) / (1 - q^4) >= sum_(d >= depth) sum_j w(d, j)^4.

    The fourth-cumulant error of a depth-``depth`` sample in units of
    kappa4: S4(d) = sum_j pi_d(j)^4, pi_d the Binomial(d, |alpha|/q) pmf
    read from the shared log-factorial table, is non-increasing in d (see
    the module docstring), so it bounds every layer of the tail.
    """
    q = params.q
    nu = abs(params.alpha) / q if q > 0.0 else 1.0
    j = np.arange(depth + 1)
    s4 = float(np.sum(np.exp(4.0 * _log_binomial_pmf(_log_factorials(depth), depth, j, nu))))
    return s4 * tail_variance_bound(q * q, depth - 1)


def _default_depth(params: ModelParams) -> int:
    """Smallest depth M >= 2 with ``cumulant_tail_bound`` <= _CUMULANT_TOL.

    The certificate is non-increasing in M and S4 <= 1, so the depth of the
    bound q^(4M) / (1 - q^4) alone is certified, and bisection finds M.
    """
    lo, hi = 1, oracle_margin(params.q * params.q, _CUMULANT_TOL) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cumulant_tail_bound(params, mid) <= _CUMULANT_TOL:
            hi = mid
        else:
            lo = mid
    return hi


class FieldSimulator:
    """Reusable sampler for one (params, window, method, dist) combination.

    The sampler draws layer -M (M = ``method.margin``, the depth) as
    standard normals, colours it with the AR(1) factor of the KMS
    anti-diagonal covariance, and runs the recursion up from there with
    ``dist``'s innovations.  The default depth None resolves here: to 0 for
    Gaussian innovations, where the coloured layer 0 is exact, and for any
    other law to the smallest M >= 2 whose fourth-cumulant certificate
    ``cumulant_tail_bound`` is at most 1e-12.  Depth 0 with a non-Gaussian law
    raises MethodUnsupportedError, since its boundary would be all Gaussian.
    Set-up holds only what is replication-invariant (the AR(1) colouring
    coefficients, the resolved depth and the batch size) and is cheap (the
    default depth is a bisection over O(M)-term certificates); no buffer
    outlives a sweep.  ``sweep`` is the one sampling path and ``sample`` is
    its one-row case, so ``sample`` is a pure function of the stream and
    replications may run concurrently in any order.  A draw costs
    O(M * (s + M)) for the layers below the triangle plus O(s^2) for the
    triangle.

    ``batch`` is the number of replications to sweep together, the most
    whose layers of the widest width (s + 1 + M points, the deep layer)
    fit in 1 MiB of float64, counted per law.  Normals and uniforms are
    drawn row by row, a group of _GROUP_LAYERS layers per call, so that
    each call is spread over several layers: one draw group of the batch
    stays within the budget.  Rademacher signs are unpacked for the whole
    batch one layer at a time, so the three layers one step touches (prev,
    eps and y) stay within it, and the batch is 8/3 as large; the packed
    bytes of a whole span, 1/64 of its float64 size, come on top.

    Draw layout (fixed per depth and law, part of the determinism
    contract): every number comes from the replication's ``RngStream``.
    First the s + 1 + M standard normals of the deep layer -M, in i order.
    Then the boundary span, layers -M + 1 .. 0 in ascending order (empty at
    depth 0), and then the triangle span, layers 1 .. s, each layer in
    i order.  Each span is exactly one ``InnovationDist.draw`` of its total
    length, split into layers.
    """

    def __init__(self, params: ModelParams, window: TriangleWindow,
                 method: SimMethod = SimMethod(), dist: InnovationDist = InnovationDist.GAUSSIAN):
        self.params = params.require_stationary()
        self.window = window.require_valid()
        self.dist = dist
        # no sampler adds jitter; stays 0.0 because the benchmark in
        # perfbench/ (workloads.py, tracing.py) reads and reports it
        self.boundary_jitter = 0.0

        depth = method.margin
        if depth is None:
            depth = 0 if dist is InnovationDist.GAUSSIAN else _default_depth(params)
        if depth == 0 and dist is not InnovationDist.GAUSSIAN:
            raise MethodUnsupportedError(
                "depth 0 (boundary_cholesky) is exact in law only for Gaussian innovations")
        self.method = SimMethod(depth)
        d = d_factor(params)
        sig = math.sqrt(sigma_sq(params))
        self._ar1 = (d, sig, sig * math.sqrt(1.0 - d * d))
        per_row = 3 if dist is InnovationDist.RADEMACHER else _GROUP_LAYERS
        self.batch = max(1, _BATCH_FLOATS // (per_row * window.layer_len(-depth)))

    def _layers(self, gens: list[np.random.Generator], lowest: int, highest: int):
        """Yield (d, eps) for layers d = lowest .. highest in ascending order.

        Every random number of a replication but the deep layer's normals
        is drawn here.

        eps is an (R, layer_len(d)) array whose row r is drawn from gens[r],
        each layer in i order.  Row r of the span is exactly
        ``self.dist.draw(gens[r], N)``, N the total length of the layers,
        split into the layers.  Rademacher signs take one generator call per
        row for the whole span: its ceil(N / 8) bytes are held packed, 1/64
        of the span's float64 size, and unpacked for the whole batch one
        layer at a time.  Normals and uniforms are drawn row by row, a group
        of _GROUP_LAYERS layers per call, continuing the stream across
        groups, so that each call is spread over several layers.  Neither
        group size changes a value.  Every group is written into the front
        of one flat buffer allocated for the span, so a layer is valid only
        until the next group is drawn.
        """
        lens = [self.window.layer_len(d) for d in range(lowest, highest + 1)]
        rows, packed, size = len(gens), None, _GROUP_LAYERS
        if self.dist is InnovationDist.RADEMACHER:
            total = sum(lens)
            packed = np.empty((rows, (total + 7) // 8), np.uint8)
            for row, gen in zip(packed, gens):
                row[:] = _sign_bytes(gen, total)
            size = 1
        groups = [lens[k:k + size] for k in range(0, len(lens), size)]
        flat = np.empty(rows * max(map(sum, groups), default=0))
        d = lowest
        start = 0
        for group in groups:
            n = sum(group)
            block = flat[:rows * n].reshape(rows, n)
            if packed is None:
                for row, gen in zip(block, gens):
                    self.dist.draw(gen, n, out=row)
            else:
                _unpack_signs(packed, start, block)
            start += n
            pos = 0
            for width in group:
                yield d, block[:, pos:pos + width]
                d, pos = d + 1, pos + width

    def _step(self, prev: np.ndarray, eps: np.ndarray, y: np.ndarray,
              t: np.ndarray) -> np.ndarray:
        """One layer of the recursion for every row of the batch:
        y = alpha x1 + beta x2 + eps, x1 = prev[:, :-1] and x2 = prev[:, 1:].

        y receives the layer and t the product beta x2; both are (R, w)
        arrays, w one less than prev's width.
        """
        np.multiply(prev[:, :-1], self.params.alpha, out=y)
        y += np.multiply(prev[:, 1:], self.params.beta, out=t)
        y += eps
        return y

    def _colour(self, z: np.ndarray) -> np.ndarray:
        """An anti-diagonal layer from its (R, width) standard normals,
        coloured in place and returned: the O(width) Cholesky factor of the
        AR(1) anti-diagonal covariance, x_0 = sig z_0 and
        x_t = D x_(t-1) + sig sqrt(1 - D^2) z_t.

        The recursion runs along the layer, one point at a time for the
        whole batch.  A batch of one row runs it as a loop over Python
        floats instead: the same multiply and add per point, so the same
        bits, without two ufunc calls on a one-element column per point
        (about 2.8 us a point, 11 ms a layer at s = 4096).
        """
        d, sig, step = self._ar1
        first = sig * z[:, 0]
        x = np.multiply(z, step, out=z)
        x[:, 0] = first
        if len(x) == 1:
            row = x[0].tolist()
            prev = row[0]
            for t in range(1, len(row)):
                prev = row[t] = row[t] + d * prev
            x[0] = row
        else:
            for t in range(1, x.shape[1]):
                x[:, t] += d * x[:, t - 1]
        return x

    def sweep(self, streams: list[RngStream]):
        """Run a batch of replications up the triangle, one layer at a time.

        Yields (prev, y, eps) for d = 1 .. s: layer d - 1, layer d and the
        innovations of layer d, each an (R, .) array whose row r belongs to
        streams[r].  Row r draws exactly what ``sample(streams[r])`` draws,
        in the same order, since ``sample`` is this sweep with one row: the
        deep layer's normals, the boundary span, then the triangle span (see
        ``_layers``).  The first yielded prev is the boundary.

        This is the sampler's one sweep.  The batch allocates four float64
        buffers: two that take the layers in turn (the first also takes the
        deep layer's normals, coloured in place), one for beta x2 and one
        flat draw buffer per span (see ``_layers``).  Each layer is a
        C-contiguous (R, w) reshape of the front of its buffer, so its rows
        have unit stride.  The yielded arrays are valid only until the sweep
        advances: copy a layer to keep it.
        """
        gens = [stream.generator() for stream in streams]
        rows, depth = len(gens), self.method.margin
        width = self.window.layer_len(-depth)
        held, free = np.empty(rows * width), np.empty(rows * width)
        scratch = np.empty(rows * (width - 1))
        deep = held.reshape(rows, width)
        for row, gen in zip(deep, gens):
            gen.standard_normal(out=row)
        prev = self._colour(deep)
        layers = itertools.chain(self._layers(gens, 1 - depth, 0),
                                 self._layers(gens, 1, self.window.s))
        for d, eps in layers:
            n = rows * eps.shape[1]
            y = self._step(prev, eps, free[:n].reshape(eps.shape),
                           scratch[:n].reshape(eps.shape))
            held, free = free, held
            if d >= 1:
                yield prev, y, eps
            prev = y

    def sample(self, stream: RngStream) -> Field:
        """One field realisation: row 0 of a one-row ``sweep``, copied layer
        by layer, since the field holds every layer and the sweep reuses its
        buffers."""
        values, innovations = [], []
        for prev, y, eps in self.sweep([stream]):
            if not values:
                values.append(prev[0].copy())
            values.append(y[0].copy())
            innovations.append(eps[0].copy())
        return Field(self.window, values, innovations, self.params)
