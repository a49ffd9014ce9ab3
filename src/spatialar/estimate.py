"""Least squares estimation of (alpha, beta) over a triangular window.

The estimator solves the 2x2 normal equations B theta = C with

    B = sum [[x1^2, x1 x2], [x1 x2, x2^2]],   C = sum (x1 y, x2 y),

x1 = X[i-1, j], x2 = X[i, j-1], y = X[i, j], summed over the triangle.
The solve goes through the adjugate, theta = adj(B) C / det(B), so that
det(B) and adj(B) C stay first-class observables for the limit experiments.

One reduction kernel serves every caller: ``accumulate`` reduces a batch of
R replications layer by layer, and ``lse``, ``normal_equations`` and
``score_vector`` are its R = 1 case on a stored field.  A replication's
sums depend only on its own rows, so they are bit-identical for any R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingInnovationsError, MissingValuesError, SingularDesignError
from .model import Field, TriangleWindow

__all__ = [
    "Matrix2", "EstimateResult", "accumulate", "solve",
    "normal_equations", "lse", "score_vector",
]

_SINGULAR_REL = 1e-12


@dataclass(frozen=True)
class Matrix2:
    """Plain 2x2 matrix of floats."""

    a11: float
    a12: float
    a21: float
    a22: float

    @classmethod
    def symmetric(cls, diag: float, off: float) -> "Matrix2":
        return cls(diag, off, off, diag)

    def to_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]])

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def adjugate(self) -> "Matrix2":
        return Matrix2(self.a22, -self.a12, -self.a21, self.a11)

    def matvec(self, v) -> np.ndarray:
        return np.array([self.a11 * v[0] + self.a12 * v[1],
                         self.a21 * v[0] + self.a22 * v[1]])

    def scale(self, c: float) -> "Matrix2":
        return Matrix2(c * self.a11, c * self.a12, c * self.a21, c * self.a22)

    def is_symmetric(self, atol: float = 0.0) -> bool:
        return abs(self.a12 - self.a21) <= atol

    def max_abs(self) -> float:
        return max(abs(self.a11), abs(self.a12), abs(self.a21), abs(self.a22))


@dataclass(frozen=True)
class EstimateResult:
    """LSE output with its normal-equation components.

    ``cross`` is the right-hand side C; ``score``, present when the field
    retains innovations, is A = sum (x1 eps, x2 eps) and satisfies
    A = C - B (alpha, beta)' for the generating parameters.
    """

    alpha_hat: float
    beta_hat: float
    B: Matrix2
    cross: np.ndarray
    detB: float
    score: np.ndarray | None = None


def accumulate(layers, s: int) -> np.ndarray:
    """Per-replication sums (B11, B12, B22, C1, C2, A1, A2) over the triangle.

    ``layers`` yields exactly s layers (prev, y, eps), d = 1 .. s, as (R, .)
    arrays: layer d - 1, layer d, and layer d's innovations, or None, which
    leaves A at 0.  Every partial goes by ``out=`` into one (s, 7, R) buffer
    allocated at the first layer, one (7, R) slab per layer, 5 rows deep
    without innovations; no other array outlives its layer.  With
    x1 = prev[:-1] and x2 = prev[1:], a layer takes the row-wise dot
    products x1.x2, x1.y, x2.y (and x1.eps, x2.eps), and the shift
    identities x1.x1 = |prev|^2 - prev[-1]^2 and x2.x2 = |prev|^2 - prev[0]^2
    with |prev|^2 taken from the layer below, which wrote its |y|^2 into
    this layer's B11 slot.  Per-layer partials are combined with exact
    (fsum) accumulation: at s >= 128 the sums mix ~1e4 squared terms whose
    magnitude grows like the near-boundary variance, and naive running sums
    lose digits.  Each reduction is one BLAS dot product per row (rows have
    unit stride), so a row's sums depend on that row alone, never on the
    batch.  Returns an (R, 7) array, or one row of zeros without layers
    (s = 0, reached only by a stored field, R = 1).
    """
    buf = None
    for d, (prev, y, eps) in enumerate(layers):
        if buf is None:
            buf = np.empty((s, 5 if eps is None else 7, len(y)))
            np.vecdot(prev, prev, out=buf[0, 0])
        part = buf[d]
        x1, x2 = prev[:, :-1], prev[:, 1:]
        # part[0] holds |prev|^2 until B11 overwrites it
        np.subtract(part[0], np.square(prev[:, 0]), out=part[2])
        np.subtract(part[0], np.square(prev[:, -1]), out=part[0])
        np.vecdot(x1, x2, out=part[1])
        np.vecdot(x1, y, out=part[3])
        np.vecdot(x2, y, out=part[4])
        if eps is not None:
            np.vecdot(x1, eps, out=part[5])
            np.vecdot(x2, eps, out=part[6])
        if d + 1 < s:
            np.vecdot(y, y, out=buf[d + 1, 0])
    if buf is None:
        return np.zeros((1, 7))
    if d + 1 != s:
        raise ValueError(f"accumulate was told of {s} layers but given {d + 1}")
    sums = np.zeros((buf.shape[2], 7))
    for r, row in enumerate(sums):
        row[:buf.shape[1]] = [math.fsum(buf[:, c, r].tolist())
                              for c in range(buf.shape[1])]
    return sums


def solve(sums, w: TriangleWindow, with_score: bool = True) -> EstimateResult:
    """Least squares estimate from one replication's ``accumulate`` row.

    Raises SingularDesign when |det B| <= 1e-12 (B11 B22 + B12^2); the
    threshold is relative to B's own scale because field magnitudes blow up
    near the unstable boundary.
    """
    b11, b12, b22, c1, c2, a1, a2 = (float(v) for v in sums)
    bmat = Matrix2(b11, b12, b12, b22)
    cvec = np.array([c1, c2])
    det = bmat.det()
    if abs(det) <= _SINGULAR_REL * (bmat.a11 * bmat.a22 + bmat.a12 ** 2):
        raise SingularDesignError(
            f"normal equations singular on window ({w.k}, {w.l}): det = {det:g}"
        )
    theta = bmat.adjugate().matvec(cvec) / det
    score = np.array([a1, a2]) if with_score else None
    return EstimateResult(float(theta[0]), float(theta[1]), bmat, cvec, det, score)


def _field_sums(field: Field, w: TriangleWindow, with_score: bool) -> np.ndarray:
    """``accumulate`` on a stored field, as a batch of one, over the window's
    s layers; the innovations are passed only ``with_score``."""
    if field.window != w:
        raise MissingValuesError("field was built on a different window")
    if with_score and not field.has_innovations():
        raise MissingInnovationsError("field does not carry innovations")
    v = field.values
    layers = ((v[d - 1][None], v[d][None],
               field.innovations[d - 1][None] if with_score else None)
              for d in range(1, w.s + 1))
    return accumulate(layers, w.s)[0]


def normal_equations(field: Field, w: TriangleWindow) -> tuple[Matrix2, np.ndarray]:
    """Accumulate B and C over the triangle in one pass.

    Per layer it reduces |y|^2, x1.x2, x1.y and x2.y; x1.x1 and x2.x2 come
    from the shift identities |prev|^2 - prev[-1]^2 and |prev|^2 - prev[0]^2,
    with |prev|^2 carried over from the layer below.  The per-layer partials
    are combined with math.fsum (see ``accumulate``).
    """
    b11, b12, b22, c1, c2, _, _ = _field_sums(field, w, with_score=False).tolist()
    return Matrix2(b11, b12, b12, b22), np.array([c1, c2])


def lse(field: Field, w: TriangleWindow) -> EstimateResult:
    """Least squares estimate via the adjugate solve (see ``solve``).

    B, C and, when the field retains innovations, the score come from one
    pass over the field.
    """
    with_score = field.has_innovations()
    return solve(_field_sums(field, w, with_score), w, with_score)


def score_vector(field: Field, w: TriangleWindow) -> np.ndarray:
    """A = sum over the triangle of (x1 eps, x2 eps); needs retained innovations."""
    return _field_sums(field, w, with_score=True)[5:7]
