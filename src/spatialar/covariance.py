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
index pairs (m, n) with m + n <= smax, flattened level by level and kept in
a small bounded cache keyed by smax; ``cov_binrep`` runs its whole i-sum as
one log-space convolution over that grid.  Every route writes the log of
its term (m, n) as one level factor plus one factor per grid axis,
level(m + n) + mfac(m) + nfac(n).  Each factor is formed once per value
r = 0..smax, from the table and the parameters, and gathered onto the grid
(``_grid_logs``), so a term costs three gathers, two adds and one exp.

All four routes take integer lags or integer arrays of lags.  A series
route runs in two steps over two sizes of block (``_in_blocks``).  Its
table step builds, for a table block of L lags, at most 8192 / (smax + 1)
of them, the (L x (smax + 1)) level and axis factor tables and each lag's
prefactor.  Its grid pass then runs over the rows of those tables in grid
blocks of at most 8192 lag x grid terms (one lag when its grid alone is
larger): their gathers onto the shared grid, exp, and sums along the grid
axis.  So a lag's setup costs one table row even where its grid fills a
grid block.  Every value is bit-identical to the one-lag call, which is the
one-row case of the same code.

R[k, l] = R[-k, -l], and ``cov_closed``, ``cov_f4`` and ``cov_binrep`` read
a lag only through its key (|k|, |l|, k*l <= 0).  So on an array of lags
each of them runs once per distinct key and hands the value to every lag
with that key (``_per_key``); on the lag box |k|, |l| <= L that is about
half the lags.  ``cov_series_oracle`` keeps every lag: as the brute-force
reference it sums the weights of X[k, l] and X[0, 0] as the lag gives them,
and its values at (k, l) and (-k, -l) may differ in the last bits.

``cov_closed`` forms sig2, the geometric bases and log sig2 once per call.
Over the keys, its two product forms (the mixed-quadrant sig2 Ga^|k| Gb^|l|
and the alpha*beta = 0 axis form c^|lag| / (1 - c^2)) are array
expressions whose powers are Python float powers, and the first-passage
sum runs once per same-sign key.  It shares no table with the series
routes: it keeps ``math.lgamma``, its own signs and ``math.fsum``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NonStationaryError, OutOfRangeError, WrongQuadrantError
from .model import ModelParams

__all__ = [
    "sigma_sq", "geom_factors", "d_factor", "cov_closed",
    "cov_f4", "pmf_s", "cov_binrep", "cov_series_oracle",
    "tail_variance_bound", "oracle_margin",
]


def sigma_sq(p: ModelParams) -> float:
    """Stationary variance R[0, 0].

    ((1+a+b)(1+a-b)(1-a+b)(1-a-b))**(-1/2); always >= 1 on the stable region.
    The factors are multiplied in the pairs ((1+a+b)(1-a-b)) ((1+a-b)(1-a+b)):
    a sign change of alpha or beta swaps the pairs or the factors within
    them, so the value is exactly the same at (+-alpha, +-beta).
    """
    p.require_stationary()
    a, b = p.alpha, p.beta
    prod = ((1 + a + b) * (1 - a - b)) * ((1 + a - b) * (1 - a + b))
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


def _powers(base: float, expo: np.ndarray) -> np.ndarray:
    """base ** e for each integer e of ``expo``, each a Python float power."""
    return np.array([base ** e for e in expo.tolist()], dtype=np.float64)


def _cov_same_quadrant(a: float, b: float, ga: float, gb: float, log_s2: float,
                       k: int, l: int) -> float:
    """Finite first-passage sum for k, l >= 1, from the per-call constants
    of ``cov_closed``: alpha, beta, the geometric bases and log sig2.

    Unfolding the covariance recursion R[i, j] = a R[i-1, j] + b R[i, j-1]
    until an axis is hit decomposes R[k, l] over monotone lattice paths:
    paths reaching (0, j) carry weight C(k-1+l-j, k-1) a^k b^(l-j), paths
    reaching (i, 0) carry C(k-i+l-1, l-1) a^(k-i) b^l, and the axis values
    are the geometric mixed-quadrant form.  Terms are assembled in log space
    so path counts at lags in the thousands stay representable.
    """
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


def cov_closed(p: ModelParams, k, l):
    """Exact closed-form covariance, any lag.

    Mixed quadrant (k*l <= 0) uses the two-factor geometric product
    sig2 Ga^|k| Gb^|l|; the same-sign quadrant reduces, by stationarity, to
    k, l >= 1 and the finite first-passage sum.  When alpha*beta = 0 the
    field degenerates to independent AR(1) lines, and the one-dimensional
    form c^|lag| / (1 - c^2) applies along the line of the nonzero
    coefficient c.

    ``k`` and ``l`` are integers or integer arrays, as in ``cov_f4``.  sig2,
    the geometric bases and log sig2 are formed once per call.  The route
    runs once per distinct lag key (``_per_key``): the two product forms
    are array expressions over the keys, each power a Python float power,
    and the path sum runs once per same-sign key.  Every value goes to each
    lag with that key.
    """
    a, b = p.alpha, p.beta
    s2 = sigma_sq(p)  # raises NonStationaryError off the stable region
    if a * b != 0.0:
        ga, gb = geom_factors(p)
        log_s2 = math.log(s2)

    def route(k, l):
        ka, la = np.abs(k), np.abs(l)
        if a * b == 0.0:
            # rows (or columns) are independent AR(1) lines; alpha = -0.0
            # is read as +0.0, so white noise is +0.0 off the origin
            c, lag, off = (a + 0.0, ka, la) if b == 0.0 else (b, la, ka)
            return np.where(off == 0, _powers(c, lag) / (1 - c * c), 0.0)
        values = s2 * _powers(ga, ka) * _powers(gb, la)
        same = np.flatnonzero(k * l > 0)
        values[same] = [_cov_same_quadrant(a, b, ga, gb, log_s2, x, y)
                        for x, y in zip(ka[same].tolist(), la[same].tolist())]
        return values
    k, l, shape = _lag_arrays(k, l)
    return _shaped(_per_key(route, k, l), shape)


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


# lag x grid terms per grid block of a series route, and table entries per
# factor table of a table block: 64 KiB of float64 for each temporary (a
# single lag's grid may exceed it near q = 0.9)
_LAG_BLOCK_TERMS = 1 << 13


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


def _per_key(route, k: np.ndarray, l: np.ndarray) -> np.ndarray:
    """``route``'s values at the flat lags k, l, with the route run once per
    distinct lag key (|k|, |l|, k*l <= 0).

    R[k, l] = R[-k, -l], and ``cov_closed``, ``cov_f4`` and ``cov_binrep``
    read a lag only through its key, so their value is a function of the
    key alone.  ``route(k, l)`` maps flat lags to their values; it runs on
    the first lag of each key, in key order, and each value goes back to
    every lag with that key.  A single lag runs the route as it is.
    """
    if k.size < 2:
        return route(k, l)
    keys = np.stack((np.abs(k), np.abs(l), np.sign(k) * np.sign(l) <= 0))
    # a stable sort by key, so the first lag of a run is the key's first lag
    order = np.lexsort(keys[::-1])
    ranked = keys[:, order]
    first = np.concatenate(([True], np.any(ranked[:, 1:] != ranked[:, :-1], axis=0)))
    inverse = np.empty(k.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return route(k[order[first]], l[order[first]])[inverse]


def _in_blocks(tables, grid_pass, k: np.ndarray, l: np.ndarray, smax: int) -> np.ndarray:
    """A series route's values at the flat lags k, l of ``_lag_arrays``.

    ``tables(k_block, l_block)`` is the route's table step for a table block
    of at most _LAG_BLOCK_TERMS // (smax + 1) consecutive lags: a tuple of
    arrays with one row per lag, its (L, smax + 1) factor tables and its
    per-lag prefactors.  ``grid_pass`` maps the same rows of each of those
    arrays, a grid block of at most _LAG_BLOCK_TERMS lag x grid terms over
    the levels 0..smax (one lag when its grid alone is larger), to their
    values.  Returns the flat values, for ``_shaped``.
    """
    per_table = max(1, _LAG_BLOCK_TERMS // (smax + 1))
    per_grid = max(1, _LAG_BLOCK_TERMS // ((smax + 1) * (smax + 2) // 2))
    values = np.empty(k.size)
    for start in range(0, k.size, per_table):
        block = tables(k[start:start + per_table], l[start:start + per_table])
        out = values[start:start + per_table]
        for row in range(0, out.size, per_grid):
            out[row:row + per_grid] = grid_pass(*(t[row:row + per_grid] for t in block))
    return values


@lru_cache(maxsize=8)
def _level_grid(smax: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (m, n) with m + n <= smax, flattened level by level.

    Level t = m + n fills entries t(t+1)/2 .. t(t+1)/2 + t with m = 0..t, so
    a per-level sum is one segment of a ``reduceat``.  Returns the arrays
    (m, n), which callers must not write to.  They stay writeable because
    ``np.take`` copies a read-only index array on every call, one more
    grid-sized temporary per gather.
    """
    t = np.repeat(np.arange(smax + 1), np.arange(1, smax + 2))
    m = np.arange(t.size) - t * (t + 1) // 2
    return m, t - m


def _grid_logs(level: np.ndarray, ufac: np.ndarray, vfac: np.ndarray) -> np.ndarray:
    """level(t) + ufac(u) + vfac(v) at every entry (u, v) of the level grid,
    t = u + v: the log of a series term as one level factor plus one factor
    per grid axis.

    Each factor is formed once per value r = 0..smax along its last axis (an
    (L, smax + 1) table, one row per lag) and gathered onto the grid of that
    smax: the level by a repeat, since level r fills r + 1 consecutive
    entries, and each axis factor by ``np.take``, which keeps the rows
    C-contiguous so that grid sums run along them.  A term costs three
    gathers and two adds.
    """
    u, v = _level_grid(level.shape[-1] - 1)
    logs = np.repeat(level, np.arange(1, level.shape[-1] + 1), axis=-1)
    logs += np.take(ufac, u, axis=-1)
    logs += np.take(vfac, v, axis=-1)
    return logs


# ---------------------------------------------------------------------------
# Appell F4 route


def _f4_tables(a, b, c, d, x: float, y: float, smax: int, lf: np.ndarray):
    """F4's table step: the factor tables level, mfac, nfac of
    ``_f4_grid_sum`` over r = 0..smax, from a log-factorial table ``lf``
    that reaches max(a, b, c, d) - 1 + smax."""
    r = np.arange(smax + 1)
    # a zero argument leaves only the m = 0 (n = 0) terms
    log_x = math.log(abs(x)) if x != 0 else -math.inf
    log_y = math.log(abs(y)) if y != 0 else -math.inf
    level = lf[a - 1 + r] - lf[a - 1] + lf[b - 1 + r] - lf[b - 1]
    mfac = _xlog(r, log_x) - (lf[c - 1 + r] - lf[c - 1]) - lf[r]
    nfac = _xlog(r, log_y) - (lf[d - 1 + r] - lf[d - 1]) - lf[r]
    return level, mfac, nfac


def _f4_grid_pass(level, mfac, nfac, x: float, y: float):
    """F4's grid pass: the signed terms exp(level + mfac + nfac) of the
    grid, summed along the grid axis."""
    terms = np.exp(_grid_logs(level, mfac, nfac))
    m, n = _level_grid(level.shape[-1] - 1)
    if x < 0:
        terms = np.where(m % 2 == 1, -terms, terms)
    if y < 0:
        terms = np.where(n % 2 == 1, -terms, terms)
    return np.sum(terms, axis=-1)


def _f4_grid_sum(a, b, c, d, x: float, y: float, smax: int):
    """Appell F4(a, b; c, d; x, y) = sum_{m,n} (a)_{m+n} (b)_{m+n} /
    ((c)_m (d)_n m! n!) x^m y^n, summed over the levels m + n <= smax.

    The parameters are positive integers, so each Pochhammer symbol is a
    ratio of factorials, (a)_t = (a-1+t)! / (a-1)!, read from the shared
    log-factorial table.  They may also be (L, 1) integer columns, one F4
    per row, summed over the grid axis in one pass; the result then has
    shape (L,).

    The log of |term (m, n)| is level(m + n) + mfac(m) + nfac(n), with
    level(t) = log((a)_t (b)_t), mfac(m) = m log|x| - log((c)_m) - log m!
    and nfac(n) likewise in d and y; each factor is formed once per value
    r = 0..smax (``_f4_tables``) and gathered onto the grid
    (``_f4_grid_pass``), so a term costs three gathers, two adds and one
    exp.  This is the table step and the grid pass on one block of rows.
    """
    lf = _log_factorials(int(max(np.max(v, initial=1) for v in (a, b, c, d))) - 1 + smax)
    return _f4_grid_pass(*_f4_tables(a, b, c, d, x, y, smax, lf), x, y)


def cov_f4(p: ModelParams, k, l, tol: float = 1e-12):
    """Covariance through the two F4 representations.

    Mixed quadrant: a^|k| b^|l| F4(|k|+1, |l|+1, |k|+1, |l|+1; a^2, b^2).
    Same-sign quadrant: a^|k| b^|l| C(|k|+|l|, |k|)
    F4(|k|+|l|+1, 1, |k|+1, |l|+1; a^2, b^2).   Stationarity keeps the
    arguments inside the convergence region |a| + |b| < 1.  The prefactor
    is formed in log space from the shared log-factorial table, with one
    sign per lag, so lags in the thousands underflow to 0 instead of
    overflowing.

    Both parameterisations match the moving-average weight products term by
    term (prefactor included), so F4 level t contributes at most q^(2t) to
    the covariance and truncating at level S leaves an absolute error of at
    most q^(2(S+1))/(1-q^2), ``tail_variance_bound(q, S)``.  That accuracy
    is absolute only: where R is far below the bound, at large lags, its
    relative error grows (1.34e-4 at (-0.3, 0.6), lag (1200, 1000), where R
    is about 3.6e-192); so do ``cov_binrep``'s and ``cov_series_oracle``'s.
    Each F4 sum is one pass over the level grid: the log of term (m, n) is
    level(m + n) + mfac(m) + nfac(n), each factor formed once per value
    from the shared log-factorial table (see ``_f4_grid_sum``).

    ``k`` and ``l`` are integers or integer arrays (broadcast together).
    The route runs once per distinct lag key (|k|, |l|, k*l <= 0)
    (``_per_key``).  The table step builds the F4 tables and the signed
    prefactor of a table block of keys; the grid pass sums a grid block of
    at most 8192 key x grid terms along the grid axis (``_in_blocks``).
    Every value is bit-identical to its one-lag call.  Integer lags return
    a float, arrays an array of their broadcast shape.
    """
    p.require_stationary()
    a, b = p.alpha, p.beta
    smax = oracle_margin(p.q, tol)
    log_a = math.log(abs(a)) if a != 0 else -math.inf
    log_b = math.log(abs(b)) if b != 0 else -math.inf

    def tables(k, l):
        ka, la = np.abs(k), np.abs(l)
        mixed = k * l <= 0
        # every F4 parameter is at most |k| + |l| + 1
        lf = _log_factorials(int(np.max(ka + la, initial=0)) + smax)
        # log |prefactor|: C(|k|+|l|, |k|) alone overflows a float from |k| = |l| = 520
        log_pre = (_xlog(ka, log_a) + _xlog(la, log_b)
                   + np.where(mixed, 0.0, lf[ka + la] - lf[ka] - lf[la]))
        pre = _sign_of_power(a, ka) * _sign_of_power(b, la) * np.exp(log_pre)
        return (*_f4_tables(np.where(mixed, ka + 1, ka + la + 1)[:, None],
                            np.where(mixed, la + 1, 1)[:, None],
                            (ka + 1)[:, None], (la + 1)[:, None], a * a, b * b, smax, lf),
                pre)

    def grid_pass(level, mfac, nfac, pre):
        return pre * _f4_grid_pass(level, mfac, nfac, a * a, b * b)
    k, l, shape = _lag_arrays(k, l)
    return _shaped(_per_key(lambda k, l: _in_blocks(tables, grid_pass, k, l, smax), k, l),
                   shape)


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
    rounding residue is clamped at 0.  The shifted terms are formed in the
    buffer of the repeated shifts, so there is one temporary the size of
    ``logs``.
    """
    starts = np.cumsum(sizes) - sizes
    peak = np.maximum.reduceat(logs, starts, axis=-1)
    shift = np.where(peak == -np.inf, 0.0, peak)
    terms = np.repeat(shift, sizes, axis=-1)
    np.exp(np.subtract(logs, terms, out=terms), out=terms)
    return np.maximum(0.0, np.exp(peak) * np.add.reduceat(terms, starts, axis=-1))


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
    routes, so its tail is below ``tol`` in absolute terms only (see
    ``cov_f4`` on relative accuracy at large lags).  The convolution for level i
    runs over u = 0..i, so the whole sum is one pass over the level grid
    (u, w = i - u), one segment per i.  The log of the product of the two
    binomial pmfs is level(i) + ufac(u) + wfac(w), with
    level(i) = log(i! (|k|+|l|+i)!),
    ufac(u) = (|k| + 2u) log nu - log u! - log (|k|+u)! and
    wfac(w) = (|l| + 2w) log(1 - nu) - log w! - log (|l|+w)!,
    each formed once per value from the shared log-factorial table.

    ``k`` and ``l`` are integers or integer arrays, keyed and blocked as in
    ``cov_f4``: the route runs once per distinct lag key, the table step
    builds a table block's three factor tables, its (keys x (M + 1))
    weights q^(|k|+|l|+2i) and its signs, and the grid pass sums each grid
    block's segments along the grid axis, bit-identical to one call per
    lag.  Any lag with k*l < 0 raises WrongQuadrantError.
    """
    p.require_stationary()
    k, l, shape = _lag_arrays(k, l)
    mixed = np.flatnonzero(k * l < 0)
    if mixed.size:
        raise WrongQuadrantError("binomial representation needs k*l >= 0, "
                                 f"got ({k[mixed[0]]}, {l[mixed[0]]})")
    a, b, q = p.alpha, p.beta, p.q
    # at q = 0 the point mass nu = 1, as in ``cumulant_tail_bound``, leaves
    # 1.0 at (0, 0) and 0.0 elsewhere
    nu = abs(a) / q if q > 0.0 else 1.0
    margin = oracle_margin(q, tol)
    r = np.arange(margin + 1)
    log_nu, log_mu = _binomial_logs(nu)

    def tables(k, l):
        ka, la = np.abs(k), np.abs(l)
        sign = _sign_of_power(a, ka) * _sign_of_power(b, la)
        ka, la = ka[:, None], la[:, None]
        big = ka + la
        lf = _log_factorials(int(np.max(big, initial=0)) + margin)
        # term (u, w) of level i is P(Binomial(i, nu) = u) times
        # P(Binomial(big + i, 1 - nu) = la + w), whose failures number ka + u:
        # i! (big + i)! / (u! w! (ka + u)! (la + w)!) nu^(ka + 2u) (1 - nu)^(la + 2w)
        level = lf[r] + lf[big + r]
        ufac = _xlog(ka + 2 * r, log_nu) - lf[r] - lf[ka + r]
        wfac = _xlog(la + 2 * r, log_mu) - lf[r] - lf[la + r]
        return level, ufac, wfac, q ** (big + 2 * r), sign

    def grid_pass(level, ufac, wfac, weight, sign):
        pmf = _segment_sums(_grid_logs(level, ufac, wfac), r + 1)
        return sign * np.sum(weight * pmf, axis=-1)
    return _shaped(_per_key(lambda k, l: _in_blocks(tables, grid_pass, k, l, margin), k, l),
                   shape)


# ---------------------------------------------------------------------------
# series-oracle route


def tail_variance_bound(q: float, margin: int) -> float:
    """sum_{d > margin} q^(2d) = q^(2(margin+1)) / (1 - q^2).

    The one truncation tail of the package.  Layer d of the moving average
    has weights w(d, j) = C(d, j) a^j b^(d-j) with sum_j w(d, j)^2 <=
    (|a|+|b|)^(2d) by the binomial theorem, so with q = |a| + |b| this bounds
    the variance of the layers beyond ``margin``: the error of each series
    route cut at level ``margin`` (``oracle_margin``).  With q * q and
    margin M - 1 it bounds the layers' fourth powers sum_(d >= M) sum_j
    w(d, j)^4, the fourth-cumulant error of a depth-M sample in units of
    kappa4 (``simulate.cumulant_tail_bound`` sharpens it).
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"need 0 <= q < 1, got {q}")
    return q ** (2 * (margin + 1)) / (1.0 - q * q)


def oracle_margin(q: float, tol: float = 1e-12) -> int:
    """Smallest margin M whose truncation tail ``tail_variance_bound(q, M)``,
    q^(2(M+1))/(1-q^2), is below tol.

    A tolerance that is not positive and finite raises OutOfRangeError: no
    margin meets tol <= 0, and a NaN would be met by any.
    """
    if not 0.0 <= q < 1.0:
        raise NonStationaryError(f"need 0 <= q < 1, got {q}")
    if not 0.0 < tol < math.inf:
        raise OutOfRangeError(f"truncation tolerance must be positive and finite, got {tol}")
    if q == 0.0:
        return 1
    # start at the root of tail(m) = tol and step to the smallest m with
    # tail(m) <= tol; the steps only absorb the rounding of the logs
    m = max(0, math.floor((math.log(tol) + math.log1p(-q * q)) / (2.0 * math.log(q))) - 1)
    while m > 0 and tail_variance_bound(q, m - 1) <= tol:
        m -= 1
    while tail_variance_bound(q, m) > tol:
        m += 1
    return max(m, 1)


def cov_series_oracle(p: ModelParams, k, l, margin: int | None = None):
    """Brute-force covariance: truncated inner product of the MA weights.

    Sums, over the shared innovation support, the product of the
    moving-average weights of X[k, l] and X[0, 0], keeping the first
    ``margin`` + 1 anti-diagonal levels of that support.  Level t contributes
    at most q^(2t) (product of the two binomial-theorem norms), so the
    truncation error is bounded by q^(2(margin+1))/(1-q^2),
    ``tail_variance_bound(q, margin)``, an absolute bound (see ``cov_f4`` on
    relative accuracy at large lags).  Deliberately ignorant of every
    closed form.  The log of the weight product at (u, v) is
    level(u + v) + ufac(u) + vfac(v): the two binomial numerators, and per
    axis the powers of |a| (|b|) over the factorials of the denominators,
    each formed once per value from the shared log-factorial table.

    ``k`` and ``l`` are integers or integer arrays, blocked as in
    ``cov_f4`` but not keyed: every lag runs, as the reference.  The table
    step builds a table block's three factor tables and signs, and the grid
    pass sums each grid block along the grid axis, bit-identical to one
    call per lag.  A ``margin`` that is not a
    non-negative integer raises OutOfRangeError before any lag runs.
    """
    p.require_stationary()
    a, b = p.alpha, p.beta
    if margin is None:
        margin = oracle_margin(p.q)
    elif isinstance(margin, bool) or not isinstance(margin, (int, np.integer)) or margin < 0:
        raise OutOfRangeError(f"series margin must be a non-negative integer, got {margin!r}")
    r = np.arange(margin + 1)
    log_a = math.log(abs(a)) if a != 0 else -math.inf
    log_b = math.log(abs(b)) if b != 0 else -math.inf

    def tables(k, l):
        # support (i, j) <= (min(k,0), min(l,0)); substitute i = min(k,0)-u, j = min(l,0)-v
        kp, lp = np.maximum(k, 0), np.maximum(l, 0)
        km, lm = np.maximum(-k, 0), np.maximum(-l, 0)
        # every kept term of a lag carries the same sign pattern
        sign = _sign_of_power(a, km + kp) * _sign_of_power(b, lm + lp)
        kp, lp, km, lm = kp[:, None], lp[:, None], km[:, None], lm[:, None]
        depth0 = km + lm  # depth of the first shared innovation below the origin
        lf = _log_factorials(int(np.max(np.maximum(depth0, kp + lp), initial=0)) + margin)
        # weight in X[0,0]: C(depth0+u+v, km+u) |a|^(km+u) |b|^(lm+v)
        # weight in X[k,l]: C(kp+lp+u+v, kp+u)  |a|^(kp+u) |b|^(lp+v)
        level = lf[depth0 + r] + lf[kp + lp + r]
        ufac = _xlog(km + kp + 2 * r, log_a) - lf[km + r] - lf[kp + r]
        vfac = _xlog(lm + lp + 2 * r, log_b) - lf[lm + r] - lf[lp + r]
        return level, ufac, vfac, sign

    def grid_pass(level, ufac, vfac, sign):
        return sign * np.sum(np.exp(_grid_logs(level, ufac, vfac)), axis=-1)
    k, l, shape = _lag_arrays(k, l)
    return _shaped(_in_blocks(tables, grid_pass, k, l, margin), shape)
