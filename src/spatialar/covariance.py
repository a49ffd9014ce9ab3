"""Stationary covariances R[k, l] = Cov(X[k, l], X[0, 0]) by four routes.

The four evaluators are deliberately independent of each other:

* ``cov_closed``   -- geometric product on the mixed quadrant k*l <= 0, and a
  finite first-passage sum against the axis values on k*l >= 0.
* ``cov_f4``       -- double hypergeometric series (Appell F4 with integer
  parameters) in both quadrants.
* ``cov_binrep``   -- expansion through pmfs of a sum of two independent
  binomials (same-sign quadrant only).
* ``cov_series_oracle`` -- direct truncated inner product of the moving-average
  weights, the brute-force reference.

All series truncations use a priori geometric tail bounds rather than
"last term small" heuristics, so accuracy is certified even close to the
unstable boundary |alpha| + |beta| = 1 where terms decay slowly.

The three series routes share two tables and no formula.  Every
gamma-function value they need is the log-factorial of an integer, so each
term is a gather from one module-level table lf[i] = log(i!), built on
first use and grown by doubling.  Its entries are computed in plain Python
by the floating-point steps of the Cephes ``lgam`` routine, so they equal
that library's log-gamma at i + 1 bit for bit.  Each route sums over the
index pairs (m, n) with m + n <= smax, flattened level by level and kept,
with their levels, in a small bounded cache keyed by smax; ``cov_binrep``
runs its whole i-sum as one log-space convolution over that grid.  A factor
that depends on m, n or the level alone is formed once per value and
gathered onto the grid.

The three series routes take integer lags or integer arrays of lags.  A
block of L lags of one (alpha, beta) is one pass over the shared grid: one
``oracle_margin`` call, (L x grid) gathers from the table, and sums along
the grid axis.  Every value is bit-identical to the one-lag call, which is
the L = 1 case of the same code; callers bound L so that the temporaries
stay small (``harness.verify_cov`` uses blocks of at most 8192 terms).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NonStationaryError, OutOfRangeError, WrongQuadrantError
from .model import ModelParams

__all__ = [
    "sigma_sq", "geom_factors", "d_factor", "cov_closed",
    "cov_f4", "pmf_s", "cov_binrep", "cov_series_oracle",
    "oracle_margin", "CovMethod", "CovKernel",
]


def sigma_sq(p: ModelParams) -> float:
    """Stationary variance R[0, 0].

    ((1+a+b)(1+a-b)(1-a+b)(1-a-b))**(-1/2); always >= 1 on the stable region.
    """
    p.require_stationary()
    a, b = p.alpha, p.beta
    prod = (1 + a + b) * (1 + a - b) * (1 - a + b) * (1 - a - b)
    return prod**-0.5


def geom_factors(p: ModelParams) -> tuple[float, float]:
    """The two geometric bases of the mixed-quadrant product form.

    R[k, l] = sig2 * Ga**|k| * Gb**|l| for k*l <= 0.  Requires ab != 0.
    """
    p.require_stationary()
    a, b = p.alpha, p.beta
    s2inv = 1.0 / sigma_sq(p)
    ga = (1 + a * a - b * b - s2inv) / (2 * a)
    gb = (2 * b) / (1 + b * b - a * a + s2inv)
    return ga, gb


def d_factor(p: ModelParams) -> float:
    """Product of the two geometric bases; equals R[1, -1] / sig2."""
    a, b = p.alpha, p.beta
    if a == 0.0 or b == 0.0:
        return 0.0
    ga, gb = geom_factors(p)
    return ga * gb


def _cov_axis_1d(p: ModelParams, k: int, l: int) -> float:
    # degenerate ab = 0: rows (or columns) are independent AR(1) lines
    a, b = p.alpha, p.beta
    if a == 0.0 and b == 0.0:
        return 1.0 if (k == 0 and l == 0) else 0.0
    if b == 0.0:
        return a ** abs(k) / (1 - a * a) if l == 0 else 0.0
    return b ** abs(l) / (1 - b * b) if k == 0 else 0.0


def _cov_mixed(p: ModelParams, k: int, l: int) -> float:
    ga, gb = geom_factors(p)
    return sigma_sq(p) * ga ** abs(k) * gb ** abs(l)


def _log_comb(n: int, r: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)


def _signed_power_log(base: float, expo: int) -> tuple[int, float]:
    # (sign, log|base^expo|); expo >= 0
    if expo == 0:
        return 1, 0.0
    if base == 0.0:
        return 0, -math.inf
    sign = -1 if (base < 0 and expo % 2 == 1) else 1
    return sign, expo * math.log(abs(base))


def _cov_same_quadrant(p: ModelParams, k: int, l: int) -> float:
    """Finite first-passage sum for k, l >= 1.

    Unfolding the covariance recursion R[i, j] = a R[i-1, j] + b R[i, j-1]
    until an axis is hit decomposes R[k, l] over monotone lattice paths:
    paths reaching (0, j) carry weight C(k-1+l-j, k-1) a^k b^(l-j), paths
    reaching (i, 0) carry C(k-i+l-1, l-1) a^(k-i) b^l, and the axis values
    are the geometric mixed-quadrant form.  Terms are assembled in log space
    so path counts at lags in the thousands stay representable.
    """
    s2 = sigma_sq(p)
    a, b = p.alpha, p.beta
    ga, gb = geom_factors(p)
    log_s2 = math.log(s2)
    sa_k, la_k = _signed_power_log(a, k)
    sb_l, lb_l = _signed_power_log(b, l)
    terms = []
    for j in range(1, l + 1):
        sb, lb = _signed_power_log(b, l - j)
        sg, lg = _signed_power_log(gb, j)
        sign = sa_k * sb * sg
        if sign:
            terms.append(sign * math.exp(
                _log_comb(k - 1 + l - j, k - 1) + la_k + lb + lg + log_s2))
    for i in range(1, k + 1):
        sa, la_ = _signed_power_log(a, k - i)
        sg, lg = _signed_power_log(ga, i)
        sign = sa * sb_l * sg
        if sign:
            terms.append(sign * math.exp(
                _log_comb(k - i + l - 1, l - 1) + la_ + lb_l + lg + log_s2))
    return math.fsum(terms)


def cov_closed(p: ModelParams, k: int, l: int) -> float:
    """Exact closed-form covariance, any lag.

    Mixed quadrant (k*l <= 0) uses the two-factor geometric product; the
    same-sign quadrant reduces, by stationarity, to k, l >= 1 and the finite
    first-passage sum.  When alpha*beta = 0 the field degenerates to
    independent AR(1) lines and the one-dimensional formula applies.
    """
    p.require_stationary()
    if p.alpha * p.beta == 0.0:
        return _cov_axis_1d(p, k, l)
    if k * l <= 0:
        return _cov_mixed(p, k, l)
    return _cov_same_quadrant(p, abs(k), abs(l))


# ---------------------------------------------------------------------------
# shared log-factorial table and level grid


_LOG_FACTORIALS = np.empty(0)

# Stirling-series coefficients of Cephes lgam (S. L. Moshier), highest first
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
             7.93650340457716943945e-4, -2.77777777730099687205e-3,
             8.33333333333331927722e-2)
_LOG_SQRT_2PI = 0.91893853320467274178


def _log_factorial(i: int) -> float:
    """log(i!) = lgamma(x) at x = i + 1, by the floating-point steps of Cephes
    lgam: the log of the exact product below x = 13, the Stirling series
    above it, cut to three terms from x = 1000 and to none above 1e8.

    The result equals Cephes' lgam(i + 1) bit for bit.  ``math.lgamma`` is
    1 ulp away from it on about half of all integers.
    """
    if i < 12:
        return math.log(math.factorial(i))
    x = i + 1.0
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    series = _STIRLING[0]
    for coef in _STIRLING[1:]:
        series = series * p + coef
    return q + series / x


def _log_factorials(n: int) -> np.ndarray:
    """Read-only table lf with lf[i] = log(i!) = lgamma(i + 1) for i = 0..n at least.

    Every gamma-function value the three series routes need is the
    log-factorial of an integer, so each term they sum is a gather from this
    one table.  Each entry is ``_log_factorial(i)``.  The table is built on
    first use, not at import, and when an index beyond its end is asked for
    it is rebuilt at least twice as long.  An entry does not depend on the
    table's length, so growth never changes a value already handed out.
    """
    global _LOG_FACTORIALS
    if _LOG_FACTORIALS.size <= n:
        size = max(n + 1, 2 * _LOG_FACTORIALS.size)
        table = np.array([_log_factorial(i) for i in range(size)])
        table.flags.writeable = False
        _LOG_FACTORIALS = table
    return _LOG_FACTORIALS


def _xlog(x: np.ndarray, log_base: float) -> np.ndarray:
    """x * log_base elementwise, with 0 * log 0 read as 0 (log_base = -inf)."""
    if log_base == -math.inf:
        return np.where(x > 0, -math.inf, 0.0)
    return x * log_base


def _lag_arrays(k, l) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Integer lags k, l (scalars or arrays) as two flat int64 arrays of their
    broadcast size, with the shape to give the results: () for scalars."""
    k, l = np.broadcast_arrays(np.asarray(k), np.asarray(l))
    if k.dtype.kind not in "iu" or l.dtype.kind not in "iu":
        raise TypeError(f"lags must be integers, got {k.dtype} and {l.dtype}")
    return k.astype(np.int64).ravel(), l.astype(np.int64).ravel(), k.shape


def _shaped(values: np.ndarray, shape: tuple):
    """Per-lag results in the lags' shape; a float for a scalar lag."""
    return float(values[0]) if shape == () else values.reshape(shape)


@lru_cache(maxsize=8)
def _level_grid(smax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index pairs (m, n) with m + n <= smax, flattened level by level.

    Level t = m + n fills entries t(t+1)/2 .. t(t+1)/2 + t with m = 0..t, so
    a per-level sum is one segment of a ``reduceat``.  Returns the read-only
    arrays (m, n, t).  A route's factor that depends on m, n or t alone is
    formed once per value r = 0..smax and gathered onto the grid by that
    index, so each grid term is still computed by the same steps.
    """
    t = np.repeat(np.arange(smax + 1), np.arange(1, smax + 2))
    m = np.arange(t.size) - t * (t + 1) // 2
    n = t - m
    grid = (m, n, t)
    for arr in grid:
        arr.flags.writeable = False
    return grid


def _spread(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """table[..., index]: a factor formed per value r = 0..smax (last axis),
    gathered onto the level grid, C-ordered so that grid sums run along
    contiguous rows."""
    return np.take(table, index, axis=-1)


def _spread_levels(table: np.ndarray) -> np.ndarray:
    """``_spread(table, t)`` for the level t of each grid entry: level r
    fills r + 1 consecutive entries, so the gather is a repeat."""
    return np.repeat(table, np.arange(1, table.shape[-1] + 1), axis=-1)


# ---------------------------------------------------------------------------
# Appell F4 route


def _f4_grid_sum(a, b, c, d, x: float, y: float, smax: int):
    """Appell F4(a, b; c, d; x, y) = sum_{m,n} (a)_{m+n} (b)_{m+n} /
    ((c)_m (d)_n m! n!) x^m y^n, summed over the levels m + n <= smax.

    The parameters are positive integers, so each Pochhammer symbol is a
    ratio of factorials, (a)_t = (a-1+t)! / (a-1)!, read from the shared
    log-factorial table.  They may also be (L, 1) integer columns, one F4
    per row, summed over the grid axis in one pass; the result then has
    shape (L,).
    """
    m, n, _ = _level_grid(smax)
    r = np.arange(smax + 1)
    lf = _log_factorials(int(max(np.max(v, initial=1) for v in (a, b, c, d))) - 1 + smax)
    level = lf[a - 1 + r] - lf[a - 1] + lf[b - 1 + r] - lf[b - 1]
    logt = (_spread_levels(level) - _spread(lf[c - 1 + r] - lf[c - 1], m)
            - _spread(lf[d - 1 + r] - lf[d - 1], n) - lf[m] - lf[n])
    # a zero argument leaves only the m = 0 (n = 0) terms
    log_x = math.log(abs(x)) if x != 0 else -math.inf
    log_y = math.log(abs(y)) if y != 0 else -math.inf
    terms = np.exp(logt + _spread(_xlog(r, log_x), m) + _spread(_xlog(r, log_y), n))
    if x < 0:
        terms = np.where(m % 2 == 1, -terms, terms)
    if y < 0:
        terms = np.where(n % 2 == 1, -terms, terms)
    return np.sum(terms, axis=-1)


def cov_f4(p: ModelParams, k, l, tol: float = 1e-12):
    """Covariance through the two F4 representations.

    Mixed quadrant: a^|k| b^|l| F4(|k|+1, |l|+1, |k|+1, |l|+1; a^2, b^2).
    Same-sign quadrant: a^|k| b^|l| C(|k|+|l|, |k|)
    F4(|k|+|l|+1, 1, |k|+1, |l|+1; a^2, b^2).   Stationarity keeps the
    arguments inside the convergence region |a| + |b| < 1.

    Both parameterisations match the moving-average weight products term by
    term (prefactor included), so F4 level t contributes at most q^(2t) to
    the covariance and truncating at level S leaves an absolute error of at
    most q^(2(S+1))/(1-q^2).  Each F4 sum is one pass over the level grid,
    its Pochhammer symbols read from the shared log-factorial table.

    ``k`` and ``l`` are integers or integer arrays (broadcast together).
    A block of lags is one pass over the grid, a (lags x grid) array, with
    every value bit-identical to its one-lag call; integer lags return a
    float, arrays an array of their broadcast shape.
    """
    p.require_stationary()
    a, b = p.alpha, p.beta
    k, l, shape = _lag_arrays(k, l)
    ka, la = np.abs(k), np.abs(l)
    mixed = k * l <= 0
    smax = oracle_margin(p.q, tol)
    f4 = _f4_grid_sum(np.where(mixed, ka + 1, ka + la + 1)[:, None],
                      np.where(mixed, la + 1, 1)[:, None],
                      (ka + 1)[:, None], (la + 1)[:, None], a * a, b * b, smax)
    prefactor = [a**x * b**y if mix else a**x * b**y * math.comb(x + y, x)
                 for x, y, mix in zip(ka.tolist(), la.tolist(), mixed.tolist())]
    return _shaped(np.array(prefactor) * f4, shape)


# ---------------------------------------------------------------------------
# binomial-representation route


def _binomial_logs(prob: float) -> tuple[float, float]:
    """(log prob, log(1 - prob)), -inf where the probability is 0."""
    return (math.log(prob) if prob > 0.0 else -math.inf,
            math.log1p(-prob) if prob < 1.0 else -math.inf)


def _log_binomial_pmf(lf: np.ndarray, n, k, prob: float) -> np.ndarray:
    """log P(Binomial(n, prob) = k) elementwise; prob in {0, 1} is a point mass."""
    log_p, log_q = _binomial_logs(prob)
    return lf[n] - lf[k] - lf[n - k] + _xlog(k, log_p) + _xlog(n - k, log_q)


def _segment_sums(logs: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """sum(exp(logs)) over each segment of ``sizes[r]`` consecutive entries
    along the last axis; leading axes (one row per lag) are independent.

    Each segment is summed in log space, shifted by its peak term, and any
    rounding residue is clamped at 0.
    """
    starts = np.cumsum(sizes) - sizes
    peak = np.maximum.reduceat(logs, starts, axis=-1)
    shift = np.where(peak == -np.inf, 0.0, peak)
    body = np.add.reduceat(np.exp(logs - np.repeat(shift, sizes, axis=-1)), starts,
                           axis=-1)
    return np.maximum(0.0, np.exp(peak) * body)


def pmf_s(n: int, m: int, nu: float, j: int) -> float:
    """P(S = j) for S = Binomial(n, nu) + Binomial(m, 1 - nu), independent.

    Log-space convolution over u = max(0, j - m) .. min(n, j); the one-segment
    case of the helper that ``cov_binrep`` runs over all its levels at once.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"nu must lie in [0, 1], got {nu}")
    if j < 0 or j > n + m:
        return 0.0
    # term u is P(Binomial(n, nu) = u) P(Binomial(m, 1 - nu) = j - u)
    u = np.arange(max(0, j - m), min(n, j) + 1)
    lf = _log_factorials(max(n, m))
    logs = _log_binomial_pmf(lf, n, u, nu) + _log_binomial_pmf(lf, m, j - u, 1.0 - nu)
    return float(_segment_sums(logs, np.array([u.size]))[0])


def _sign_of_power(base: float, expo: np.ndarray) -> np.ndarray:
    """sign(base)^expo as +1/-1 integers, a zero base counting as positive."""
    return np.where((base < 0) & (expo % 2 == 1), -1, 1)


def cov_binrep(p: ModelParams, k, l, tol: float = 1e-12):
    """Same-sign-quadrant covariance through binomial pmfs.

    sign(a)^|k| sign(b)^|l| * sum_i q^(|k|+|l|+2i) P(S(i, |k|+|l|+i) = |l|+i)
    with q = |a| + |b| and nu = |a|/q; the i-sum keeps i = 0..M with
    M = ``oracle_margin(q, tol)``, the truncation rule of the other series
    routes, so its tail is below ``tol``.  The convolution for level i
    runs over u = 0..i, so the whole sum is one pass over the level grid
    (u, i - u), one segment per i, with the binomial coefficients read from the
    shared log-factorial table.

    ``k`` and ``l`` are integers or integer arrays, as in ``cov_f4``: a
    block of lags is one (lags x grid) pass whose segments are summed along
    the grid axis, bit-identical to one call per lag.  Any lag with
    k*l < 0 raises WrongQuadrantError.
    """
    p.require_stationary()
    k, l, shape = _lag_arrays(k, l)
    mixed = np.flatnonzero(k * l < 0)
    if mixed.size:
        raise WrongQuadrantError("binomial representation needs k*l >= 0, "
                                 f"got ({k[mixed[0]]}, {l[mixed[0]]})")
    a, b = p.alpha, p.beta
    q = p.q
    if q == 0.0:
        return _shaped(np.where((k == 0) & (l == 0), 1.0, 0.0), shape)
    ka, la = np.abs(k), np.abs(l)
    nu = abs(a) / q
    sign = _sign_of_power(a, ka) * _sign_of_power(b, la)
    ka, la = ka[:, None], la[:, None]
    big = ka + la
    margin = oracle_margin(q, tol)
    u, w, i = _level_grid(margin)
    r = np.arange(margin + 1)
    lf = _log_factorials(int(np.max(big, initial=0)) + margin)
    # term (u, w) of level i is P(Binomial(i, nu) = u) times
    # P(Binomial(big + i, 1 - nu) = la + w), whose failures number ka + u
    log_p, log_q = _binomial_logs(1.0 - nu)
    logs = _log_binomial_pmf(lf, i, u, nu) + (
        _spread_levels(lf[big + r]) - _spread(lf[la + r], w) - _spread(lf[ka + r], u)
        + _spread(_xlog(la + r, log_p), w) + _spread(_xlog(ka + r, log_q), u))
    pmf = _segment_sums(logs, r + 1)
    return _shaped(sign * np.sum(q ** (big + 2 * r) * pmf, axis=-1), shape)


# ---------------------------------------------------------------------------
# series-oracle route


def oracle_margin(q: float, tol: float = 1e-12) -> int:
    """Smallest margin whose truncation tail q^(2(M+1))/(1-q^2) is below tol.

    A tolerance that is not positive and finite raises OutOfRangeError: no
    margin meets tol <= 0, and a NaN would be met by any.
    """
    if not 0.0 <= q < 1.0:
        raise NonStationaryError(f"need 0 <= q < 1, got {q}")
    if not 0.0 < tol < math.inf:
        raise OutOfRangeError(f"truncation tolerance must be positive and finite, got {tol}")
    if q == 0.0:
        return 1

    def tail(m: int) -> float:
        return q ** (2 * (m + 1)) / (1.0 - q * q)

    # start at the root of tail(m) = tol and step to the smallest m with
    # tail(m) <= tol; the steps only absorb the rounding of the logs
    m = max(0, math.floor((math.log(tol) + math.log1p(-q * q)) / (2.0 * math.log(q))) - 1)
    while m > 0 and tail(m - 1) <= tol:
        m -= 1
    while tail(m) > tol:
        m += 1
    return max(m, 1)


def cov_series_oracle(p: ModelParams, k, l, margin: int | None = None):
    """Brute-force covariance: truncated inner product of the MA weights.

    Sums, over the shared innovation support, the product of the
    moving-average weights of X[k, l] and X[0, 0], keeping the first
    ``margin`` + 1 anti-diagonal levels of that support.  Level t contributes
    at most q^(2t) (product of the two binomial-theorem norms), so the
    truncation error is bounded by q^(2(margin+1))/(1-q^2).  Deliberately
    ignorant of every closed form; the binomial coefficients come from the
    shared log-factorial table.

    ``k`` and ``l`` are integers or integer arrays, as in ``cov_f4``: a
    block of lags is one (lags x grid) pass, bit-identical to one call per
    lag.
    """
    p.require_stationary()
    a, b = p.alpha, p.beta
    if margin is None:
        margin = oracle_margin(p.q)
    k, l, shape = _lag_arrays(k, l)
    # support (i, j) <= (min(k,0), min(l,0)); substitute i = min(k,0)-u, j = min(l,0)-v
    kp, lp = np.maximum(k, 0), np.maximum(l, 0)
    km, lm = np.maximum(-k, 0), np.maximum(-l, 0)
    # every kept term of a lag carries the same sign pattern
    sign = _sign_of_power(a, km + kp) * _sign_of_power(b, lm + lp)
    kp, lp, km, lm = kp[:, None], lp[:, None], km[:, None], lm[:, None]
    depth0 = km + lm  # depth of the first shared innovation below the origin
    u, v, _ = _level_grid(margin)
    r = np.arange(margin + 1)
    lf = _log_factorials(int(np.max(np.maximum(depth0, kp + lp), initial=0)) + margin)
    # weight in X[0,0]: C(depth0+u+v, km+u) |a|^(km+u) |b|^(lm+v)
    # weight in X[k,l]: C(kp+lp+u+v, kp+u)  |a|^(kp+u) |b|^(lp+v)
    logw = (_spread_levels(lf[depth0 + r]) - _spread(lf[km + r], u) - _spread(lf[lm + r], v)
            + _spread_levels(lf[kp + lp + r]) - _spread(lf[kp + r], u) - _spread(lf[lp + r], v))
    log_a = math.log(abs(a)) if a != 0 else -math.inf
    log_b = math.log(abs(b)) if b != 0 else -math.inf
    logw = (logw + _spread(_xlog(km + kp + 2 * r, log_a), u)
            + _spread(_xlog(lm + lp + 2 * r, log_b), v))
    return _shaped(sign * np.sum(np.exp(logw), axis=-1), shape)


# ---------------------------------------------------------------------------
# kernel


class CovMethod(enum.Enum):
    CLOSED_FORM = "closed"
    APPELL_F4 = "f4"
    BINOMIAL_REP = "binrep"
    SERIES_ORACLE = "oracle"


@dataclass
class CovKernel:
    """Covariance evaluator for fixed parameters, with a lag cache.

    The cache stores each canonical lag once; R[k, l] = R[-k, -l] by
    stationarity so lags are canonicalised before lookup, and a cached value
    is always bit-identical to a fresh evaluation.  Safe to share across
    workers once pre-warmed (reads only), or give each worker its own
    kernel; evaluation is idempotent so concurrent duplicate inserts are
    harmless.
    """

    params: ModelParams
    method: CovMethod = CovMethod.CLOSED_FORM
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.params.require_stationary()

    def _evaluate(self, k: int, l: int) -> float:
        if self.method is CovMethod.CLOSED_FORM:
            return cov_closed(self.params, k, l)
        if self.method is CovMethod.APPELL_F4:
            return cov_f4(self.params, k, l)
        if self.method is CovMethod.BINOMIAL_REP:
            if k * l < 0:
                # mixed quadrant is outside this representation; fall back
                return cov_closed(self.params, k, l)
            return cov_binrep(self.params, k, l)
        return cov_series_oracle(self.params, k, l)

    def R(self, k: int, l: int) -> float:
        if k < 0 or (k == 0 and l < 0):
            k, l = -k, -l
        key = (k, l)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._evaluate(k, l)
            self._cache[key] = hit
        return hit
