"""Reference index sets, the deterministic recursion and the list-of-partials
layer reduction, used only by tests."""

import math

import numpy as np

from spatialar import Field, ModelParams, TriangleWindow, cov_closed


def triangle_indices(w: TriangleWindow) -> list[tuple[int, int]]:
    """All (i, j) with i + j >= 1, i <= k, j <= l, ordered by (i + j, i).

    Empty when k + l <= 0.
    """
    out = []
    for d in range(1, w.s + 1):
        for i in range(w.layer_start(d), w.k + 1):
            out.append((i, d - i))
    return out


def hull_indices(w: TriangleWindow) -> list[tuple[int, int]]:
    """The triangle together with every regressor neighbour (i-1, j), (i, j-1).

    Equals {(i, j) : i + j >= 0, i <= k, j <= l}, ordered by (i + j, i);
    empty when the triangle is empty.
    """
    if w.s <= 0:
        return []
    out = []
    for d in range(0, w.s + 1):
        for i in range(w.layer_start(d), w.k + 1):
            out.append((i, d - i))
    return out


def hull_covariance(params: ModelParams, w: TriangleWindow) -> np.ndarray:
    """The stationary covariance matrix of ``hull_indices(w)``, entry (p1, p2)
    being R[p1 - p2] by ``cov_closed``."""
    pts = np.array(hull_indices(w), dtype=np.int64).reshape(-1, 2)
    return cov_closed(params, pts[:, None, 0] - pts[None, :, 0],
                      pts[:, None, 1] - pts[None, :, 1])


def deterministic_field(params: ModelParams, window: TriangleWindow,
                        boundary: np.ndarray,
                        innovations: list[np.ndarray] | None = None) -> Field:
    """Run the recursion from fixed boundary values (zero innovations unless given).

    With eps = 0 the field is the deterministic recursion of its boundary,
    and the least-squares estimator recovers (alpha, beta) exactly whenever
    the normal equations are nonsingular.
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


def accumulate_by_lists(layers) -> np.ndarray:
    """The layer reduction of ``estimate.accumulate`` as a list of fresh
    partials per layer, stacked once and summed by fsum: the reference that
    the in-place buffer must match bit for bit.

    Same argument and result as ``accumulate``, given its s >= 1 layers.
    """
    parts = []
    norm = None
    for prev, y, eps in layers:
        if norm is None:
            norm = np.vecdot(prev, prev)
        x1, x2 = prev[:, :-1], prev[:, 1:]
        part = [norm - prev[:, -1] ** 2, np.vecdot(x1, x2),
                norm - prev[:, 0] ** 2, np.vecdot(x1, y), np.vecdot(x2, y)]
        if eps is None:
            part += [np.zeros(len(y))] * 2
        else:
            part += [np.vecdot(x1, eps), np.vecdot(x2, eps)]
        parts.append(part)
        norm = np.vecdot(y, y)
    # (layers, 7, R) -> one row of 7 fsums per replication
    by_rep = np.array(parts).transpose(2, 1, 0)
    return np.array([[math.fsum(col) for col in rep.tolist()] for rep in by_rep])


def kept_layers(sweep) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every (prev, y, eps) of ``sweep``, copied as it is yielded: the
    sweep writes its layers into buffers it reuses."""
    return [tuple(a.copy() for a in layer) for layer in sweep]
