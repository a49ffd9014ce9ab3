"""Least squares estimation of (alpha, beta) over a triangular window.

The estimator solves the 2x2 normal equations B theta = C with

    B = sum [[x1^2, x1 x2], [x1 x2, x2^2]],   C = sum (x1 y, x2 y),

x1 = X[i-1, j], x2 = X[i, j-1], y = X[i, j], summed over the triangle.
The solve goes through the adjugate, theta = adj(B) C / det(B), so that
det(B) and adj(B) C stay first-class observables for the limit experiments.

Two layer loops write their partials in the order of their sums, with one
BLAS dot per product, and share one exact-sum finisher, ``_exact_sums``:
it sums the partials over the layers to the correctly rounded value that
``math.fsum`` gives, by a certified TwoSum pass over whole slabs of columns
with ``math.fsum`` as the fallback.  ``accumulate``
reduces a batch of R replications, a row per replication, and ``solve``
turns the batch's sums into estimates.  ``lse``, ``normal_equations`` and
``score_vector`` reduce a stored field on its 1-D layers, with
``ndarray.dot`` where ``accumulate`` calls ``np.vecdot``: both run numpy's
float64 dot, the same BLAS ddot on the same memory, so a field's sums are
bit-identical to a one-row ``accumulate`` and to its row in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingInnovationsError, MissingValuesError, SingularDesignError
from .model import Field, TriangleWindow

__all__ = [
    "EstimateResult", "accumulate", "solve", "normal_equations", "lse", "score_vector",
]

_SINGULAR_REL = 1e-12


@dataclass(frozen=True)
class EstimateResult:
    """LSE output with its normal-equation components.

    ``B`` is the symmetric design matrix as a (2, 2) float array, ``cross``
    the right-hand side C as a (2,) array; ``score``, present when the field
    retains innovations, is A = sum (x1 eps, x2 eps) and satisfies
    A = C - B (alpha, beta)' for the generating parameters.
    """

    alpha_hat: float
    beta_hat: float
    B: np.ndarray
    cross: np.ndarray
    detB: float
    score: np.ndarray | None = None


# the per-layer partials' slots, which are also the order of the sums
_B11, _B12, _B22, _C1, _C2, _A1, _A2 = range(7)


_U = 2.0 ** -53             # unit roundoff of float64
_SAFE_SUM = 2.0 ** 1000     # sum |x| below this: no partial sum of a column overflows
_SLAB_FLOATS = 1 << 14      # columns are finished about this many partials at a time


def _exact_sums(parts: np.ndarray) -> np.ndarray:
    """The correctly rounded sums along axis 0 of a partials buffer: the
    (s, 5|7, R) buffer of ``accumulate`` gives (R, 5|7), the (s, 5|7)
    buffer of ``_field_sums`` gives (5|7,).

    Each sum is the value ``math.fsum`` returns for its column: at s >= 128
    the sums mix ~1e4 squared terms whose magnitude grows like the
    near-boundary variance, and naive running sums lose digits.  Slabs of
    whole columns, about ``_SLAB_FLOATS`` partials each, go through
    ``_certified_sums`` under ``np.errstate``.  A column it leaves
    uncertified is summed by ``math.fsum`` from the untouched buffer, in
    the order of the output, so it gives fsum's value or raises fsum's
    exception.
    """
    s = parts.shape[0]
    cols = parts.reshape(s, math.prod(parts.shape[1:]))
    sums, ok = np.empty(cols.shape[1]), np.zeros(cols.shape[1], bool)
    width = max(1, _SLAB_FLOATS // max(s, 1))
    with np.errstate(all="ignore"):
        for j in range(0, cols.shape[1] if s else 0, width):
            _certified_sums(cols[:, j:j + width], sums[j:j + width], ok[j:j + width])
    out = np.ascontiguousarray(sums.reshape(parts.shape[1:]).T)
    for idx in map(tuple, np.argwhere(~ok.reshape(parts.shape[1:]).T)):
        out[idx] = math.fsum(parts[(slice(None),) + idx[::-1]].tolist())
    return out


def _certified_sums(x: np.ndarray, sums: np.ndarray, ok: np.ndarray) -> None:
    """Sum the columns of x, (s, c) with s >= 1, into ``sums``, and mark in
    ``ok`` the columns whose sum is certified correctly rounded.

    Knuth's TwoSum pairs the first and the last half of the rows, level by
    level, and splits each pair's exact sum into a float and an error, so
    that a column's sum is exactly hi plus its error terms.  The first
    level leaves x intact: its sums go to a half-size array, and its two
    error parts, a - a' and b - b', to a second one in turn.  Later levels
    alternate between the two, with the rows they pair as scratch.  lo and
    mag are the plain sums of the error terms, at most 3s/2 of them, and of
    their absolute values, and r = fl(hi + lo) with rounding error e2.  Any
    order of summing n terms is off by at most about (n - 1) u times the
    sum of their absolute values, so the column's sum lies within
    |e2| + (3s/2 + 2) u 1.01 mag of r, and below half the smaller of the
    two spacings of floats at |r| it rounds to r.  r = 0 has no float below
    it, and a NaN or infinite value turns the bound into NaN, so neither is
    certified; nor is a column whose |x|, summed on the first level, reach
    2^1000, where fsum's partials may overflow.
    """
    s, c = x.shape
    lo, mag = np.zeros(c), np.zeros(c)

    def fold(err):
        np.add(lo, np.add.reduce(err), out=lo)
        np.add(mag, np.add.reduce(np.abs(err, out=err)), out=mag)

    cur, m, abs_sum = x, s, np.abs(x[0])
    if s > 1:
        h, n = s // 2, s - s // 2
        one, two = np.empty((n, c)), np.empty((n, c))
        a, b, total, t = x[:h], x[n:], one[:h], two[:h]
        abs_sum = np.add.reduce(np.abs(a, out=t)) + np.add.reduce(np.abs(b, out=t))
        np.add(a, b, out=total)
        np.subtract(total, b, out=t)          # a'
        fold(np.subtract(a, t, out=t))        # a - a'
        np.subtract(total, b, out=t)          # a' again
        np.subtract(total, t, out=t)          # b'
        fold(np.subtract(b, t, out=t))        # b - b'
        if s % 2:
            one[h] = x[h]
            abs_sum += np.abs(x[h])
        cur, other, m = one, two, n
    while m > 1:
        h = m // 2
        a, b, total, t = cur[:h], cur[m - h:m], other[:h], other[h:2 * h]
        np.add(a, b, out=total)
        np.subtract(total, b, out=t)          # a'
        np.subtract(a, t, out=a)              # a - a'
        np.subtract(total, t, out=t)          # b'
        np.subtract(b, t, out=b)              # b - b'
        fold(np.add(a, b, out=a))             # the pair's error, exactly
        if m % 2:
            other[h] = cur[h]
        cur, other, m = other, cur, m - h
    hi = cur[0]
    r = np.add(hi, lo, out=sums)
    lo_part = r - hi
    e2 = (hi - (r - lo_part)) + (lo - lo_part)
    mag *= (s + s // 2 + 2) * _U * 1.01
    mag += np.abs(e2)
    # the float below |r| > 0, one step down its bit pattern, is never
    # farther than the one above; below 0 that step reads NaN
    ar = np.abs(r)
    np.less(mag, 0.5 * (ar - (ar.view(np.int64) - 1).view(np.float64)), out=ok)
    ok &= abs_sum < _SAFE_SUM


def accumulate(layers) -> np.ndarray:
    """Per-replication sums (B11, B12, B22, C1, C2[, A1, A2]) over the triangle.

    ``layers`` yields the layers (prev, y, eps), d = 1 .. s, as (R, .)
    arrays: layer d - 1, layer d, and layer d's innovations, or None, which
    leaves A out; the first prev, layer 0, has s + 1 points.  No layers,
    fewer than s or one past the apex raise ValueError.  Every partial goes
    by ``out=`` into one (s, 7, R) buffer allocated at the first layer, one
    (7, R) slab per layer in the order of the sums, 5 rows deep without A.
    With x1 = prev[:-1] and x2 = prev[1:], a layer takes the row-wise dot
    products x1.x2, x1.y, x2.y (and x1.eps, x2.eps), and the shift
    identities x2.x2 = |prev|^2 - prev[0]^2 and x1.x1 = |prev|^2 - prev[-1]^2
    as one subtraction into the slots B22, B11 of a stride -2 view.
    |prev|^2 is carried in one (R,) vector: the layer below wrote its |y|^2
    there.  No other array outlives its layer, and each layer is read
    before the next is asked for, so the layers may be the reused buffers
    of ``FieldSimulator.sweep``.  ``_exact_sums`` sums the buffer over the
    layers, each column correctly rounded.  Each reduction is one BLAS dot
    product per row (rows have unit stride), so a row's sums depend on that
    row alone, never on the batch.  Returns an (R, 7) array, (R, 5) without
    innovations; a batch of R = 0 gives (0, 7) or (0, 5).
    """
    s = d = 0
    for d, (prev, y, eps) in enumerate(layers, 1):
        if d == 1:
            s = prev.shape[1] - 1
            buf = np.empty((s, 5 if eps is None else 7, len(y)))
            norm = np.vecdot(prev, prev)
        if d > s:
            raise ValueError(f"accumulate was given more than the {s} layers "
                             f"that layer 0's {s + 1} points fix")
        part = buf[d - 1]
        x1, x2 = prev[:, :-1], prev[:, 1:]
        # prev[0]^2 and prev[-1]^2 as (R, 2), subtracted into B22 and B11
        ends = np.square(prev[:, ::prev.shape[1] - 1])
        np.subtract(norm, ends.T, out=part[_B22::-2])
        np.vecdot(x1, x2, out=part[_B12])
        np.vecdot(x1, y, out=part[_C1])
        np.vecdot(x2, y, out=part[_C2])
        if eps is not None:
            np.vecdot(x1, eps, out=part[_A1])
            np.vecdot(x2, eps, out=part[_A2])
        if d < s:
            np.vecdot(y, y, out=norm)
    if d == 0 or d < s:
        raise ValueError(f"accumulate was given {d} layers, not the s >= 1 "
                         "that layer 0's s + 1 points fix")
    # the last layers may hold the sweep's buffers: free them before the sums
    del prev, y, eps, x1, x2
    return _exact_sums(buf)


def solve(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least squares estimates (theta, det B, ok) of every row of ``sums``.

    ``sums`` is an ``accumulate`` result, (R, 5) or (R, 7).  Per row,
    theta = adj(B) C / det B is (B22 C1 - B12 C2, B11 C2 - B12 C1) / det B,
    an (R, 2) array.  A row is singular, ``ok`` False and its theta NaN,
    when |det B| <= 1e-12 (B11 B22 + B12^2); the threshold is relative to
    B's own scale because field magnitudes blow up near the unstable
    boundary.  A row's results depend on that row alone.
    """
    b11, b12, b22, c1, c2 = sums[:, :5].T
    det = b11 * b22 - b12 * b12
    ok = np.abs(det) > _SINGULAR_REL * (b11 * b22 + b12 ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.column_stack([b22 * c1 - b12 * c2, b11 * c2 - b12 * c1]) / det[:, None]
    theta[~ok] = np.nan
    return theta, det, ok


def _field_sums(field: Field, w: TriangleWindow, with_score: bool) -> np.ndarray:
    """The sums (B11, B12, B22, C1, C2[, A1, A2]) of a stored field over the
    window's s layers, bit-identical to a one-row ``accumulate``.

    One loop over the field's 1-D layers does per layer what ``accumulate``
    does per row: ``ndarray.dot`` takes x1.x2, x1.y and x2.y, and x1.eps and
    x2.eps ``with_score``; |y|^2 is carried forward as the next |prev|^2;
    the shift identities subtract prev[0]^2 and prev[-1]^2 on float64
    scalars.  Each layer writes one row of an (s, 5|7) buffer in the order
    of the sums, and ``_exact_sums`` sums its columns.  Returns 7 values
    with the score and 5 without; s = 0 gives zeros.
    """
    if field.window != w:
        raise MissingValuesError("field was built on a different window")
    if with_score and not field.has_innovations():
        raise MissingInnovationsError("field does not carry innovations")
    v, eps = field.values, field.innovations if with_score else None
    buf = np.empty((w.s, 7 if with_score else 5))
    prev = v[0]
    norm = prev.dot(prev)
    for d in range(w.s):
        y = v[d + 1]
        x1, x2 = prev[:-1], prev[1:]
        first, last = prev[0], prev[-1]
        row = buf[d]
        row[_B11] = norm - last * last
        row[_B12] = x1.dot(x2)
        row[_B22] = norm - first * first
        row[_C1] = x1.dot(y)
        row[_C2] = x2.dot(y)
        if eps is not None:
            row[_A1] = x1.dot(eps[d])
            row[_A2] = x2.dot(eps[d])
        norm = y.dot(y)
        prev = y
    return _exact_sums(buf)


def _b_and_c(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B, the symmetric (2, 2) array, and C, a (2,) array, of a row of sums."""
    b11, b12, b22, c1, c2 = sums[:5].tolist()
    return np.array([[b11, b12], [b12, b22]]), np.array([c1, c2])


def normal_equations(field: Field, w: TriangleWindow) -> tuple[np.ndarray, np.ndarray]:
    """B, a (2, 2) array, and C, a (2,) array, summed over the triangle in
    one pass over the field's layers by ``_field_sums``.

    Per layer it reduces |y|^2, x1.x2, x1.y and x2.y; x1.x1 and x2.x2 come
    from the shift identities |prev|^2 - prev[-1]^2 and |prev|^2 - prev[0]^2,
    with |prev|^2 carried over from the layer below.  The per-layer partials
    are summed by ``_exact_sums``, correctly rounded.
    """
    return _b_and_c(_field_sums(field, w, with_score=False))


def lse(field: Field, w: TriangleWindow) -> EstimateResult:
    """Least squares estimate: ``solve`` on the field's sums as a one-row batch.

    B, C and, when the field retains innovations, the score come from one
    pass over the field's 1-D layers (``_field_sums``), bit-identical to the
    field's row in any ``accumulate`` batch.  A singular B raises
    SingularDesignError.
    """
    with_score = field.has_innovations()
    sums = _field_sums(field, w, with_score)
    (theta,), (det,), (ok,) = solve(sums[None])
    if not ok:
        raise SingularDesignError(
            f"normal equations singular on window ({w.k}, {w.l}): det = {det:g}"
        )
    return EstimateResult(float(theta[0]), float(theta[1]), *_b_and_c(sums), float(det),
                          sums[5:7] if with_score else None)


def score_vector(field: Field, w: TriangleWindow) -> np.ndarray:
    """A = sum over the triangle of (x1 eps, x2 eps); needs retained innovations."""
    return _field_sums(field, w, with_score=True)[5:7]
