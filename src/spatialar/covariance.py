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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import NonStationaryError, WrongQuadrantError
from .model import ModelParams

__all__ = [
    "sigma_sq", "rho_corr", "geom_factors", "d_factor", "cov_closed",
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


def rho_corr(p: ModelParams) -> float:
    """Correlation constant ((1 - a^2 - b^2) * sig2 - 1) / (2ab * sig2); 0 when ab = 0."""
    p.require_stationary()
    a, b = p.alpha, p.beta
    if a * b == 0.0:
        return 0.0
    s2 = sigma_sq(p)
    return ((1 - a * a - b * b) * s2 - 1.0) / (2 * a * b * s2)


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
# Appell F4 route


def _f4_grid_sum(a: int, b: int, c: int, d: int, x: float, y: float,
                 smax: int) -> float:
    """Appell F4(a, b; c, d; x, y) = sum_{m,n} (a)_{m+n} (b)_{m+n} /
    ((c)_m (d)_n m! n!) x^m y^n, summed over the levels m + n <= smax."""
    m = np.arange(smax + 1)
    M, N = np.meshgrid(m, m, indexing="ij")
    mask = (M + N) <= smax
    S = M + N
    logt = (gammaln(a + S) - gammaln(a) + gammaln(b + S) - gammaln(b)
            - (gammaln(c + M) - gammaln(c)) - (gammaln(d + N) - gammaln(d))
            - gammaln(M + 1) - gammaln(N + 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        lx = np.where(M > 0, M * math.log(abs(x)) if x != 0 else -np.inf, 0.0)
        ly = np.where(N > 0, N * math.log(abs(y)) if y != 0 else -np.inf, 0.0)
    logt = logt + lx + ly
    sign = np.ones_like(logt)
    if x < 0:
        sign *= np.where(M % 2 == 1, -1.0, 1.0)
    if y < 0:
        sign *= np.where(N % 2 == 1, -1.0, 1.0)
    terms = np.where(mask, sign * np.exp(logt), 0.0)
    return float(np.sum(terms))


def cov_f4(p: ModelParams, k: int, l: int, tol: float = 1e-12) -> float:
    """Covariance through the two F4 representations.

    Mixed quadrant: a^|k| b^|l| F4(|k|+1, |l|+1, |k|+1, |l|+1; a^2, b^2).
    Same-sign quadrant: a^|k| b^|l| C(|k|+|l|, |k|)
    F4(|k|+|l|+1, 1, |k|+1, |l|+1; a^2, b^2).   Stationarity keeps the
    arguments inside the convergence region |a| + |b| < 1.

    Both parameterisations match the moving-average weight products term by
    term (prefactor included), so F4 level t contributes at most q^(2t) to
    the covariance and truncating at level S leaves an absolute error of at
    most q^(2(S+1))/(1-q^2).
    """
    p.require_stationary()
    a, b = p.alpha, p.beta
    ka, la = abs(k), abs(l)
    smax = oracle_margin(p.q, tol)
    if k * l <= 0:
        f4 = _f4_grid_sum(ka + 1, la + 1, ka + 1, la + 1, a * a, b * b, smax)
        return a**ka * b**la * f4
    f4 = _f4_grid_sum(ka + la + 1, 1, ka + 1, la + 1, a * a, b * b, smax)
    return a**ka * b**la * math.comb(ka + la, ka) * f4


# ---------------------------------------------------------------------------
# binomial-representation route


@lru_cache(maxsize=8192)
def _binom_logpmf(n: int, prob: float) -> np.ndarray:
    """log pmf of Binomial(n, prob) on 0..n, safe for prob in [0, 1]."""
    k = np.arange(n + 1)
    if prob == 0.0 or prob == 1.0:
        out = np.full(n + 1, -np.inf)
        out[n if prob == 1.0 else 0] = 0.0
    else:
        logc = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
        out = logc + k * math.log(prob) + (n - k) * math.log1p(-prob)
    out.flags.writeable = False
    return out


def pmf_s(n: int, m: int, nu: float, j: int) -> float:
    """P(S = j) for S = Binomial(n, nu) + Binomial(m, 1 - nu), independent.

    Log-space convolution; any rounding residue is clamped at 0.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"nu must lie in [0, 1], got {nu}")
    if j < 0 or j > n + m:
        return 0.0
    l1 = _binom_logpmf(n, nu)
    l2 = _binom_logpmf(m, 1.0 - nu)
    lo, hi = max(0, j - m), min(n, j)
    u = np.arange(lo, hi + 1)
    logs = l1[u] + l2[j - u]
    peak = np.max(logs)
    if peak == -np.inf:
        return 0.0
    return max(0.0, float(math.exp(peak) * np.sum(np.exp(logs - peak))))


def cov_binrep(p: ModelParams, k: int, l: int, tol: float = 1e-12) -> float:
    """Same-sign-quadrant covariance through binomial pmfs.

    sign(a)^|k| sign(b)^|l| * sum_i q^(|k|+|l|+2i) P(S(i, |k|+|l|+i) = |l|+i)
    with q = |a| + |b| and nu = |a|/q; the i-sum stops once the geometric
    tail q^(2i)/(1 - q^2) falls below ``tol``.
    """
    p.require_stationary()
    if k * l < 0:
        raise WrongQuadrantError(
            f"binomial representation needs k*l >= 0, got ({k}, {l})"
        )
    a, b = p.alpha, p.beta
    q = p.q
    if q == 0.0:
        return 1.0 if (k == 0 and l == 0) else 0.0
    ka, la = abs(k), abs(l)
    nu = abs(a) / q
    sign = (1 if a >= 0 or ka % 2 == 0 else -1) * (1 if b >= 0 or la % 2 == 0 else -1)
    big = ka + la
    total = 0.0
    i = 0
    tail_den = 1.0 - q * q
    while q ** (2 * i) / tail_den >= tol:
        total += q ** (big + 2 * i) * pmf_s(i, big + i, nu, la + i)
        i += 1
    return sign * total


# ---------------------------------------------------------------------------
# series-oracle route


def oracle_margin(q: float, tol: float = 1e-12) -> int:
    """Smallest margin whose truncation tail q^(2(M+1))/(1-q^2) is below tol."""
    if not 0.0 <= q < 1.0:
        raise NonStationaryError(f"need 0 <= q < 1, got {q}")
    if q == 0.0:
        return 1
    m = 0
    while q ** (2 * (m + 1)) / (1.0 - q * q) > tol:
        m += 1
    return max(m, 1)


def cov_series_oracle(p: ModelParams, k: int, l: int, margin: int | None = None) -> float:
    """Brute-force covariance: truncated inner product of the MA weights.

    Sums, over the shared innovation support, the product of the
    moving-average weights of X[k, l] and X[0, 0], keeping the first
    ``margin`` + 1 anti-diagonal levels of that support.  Level t contributes
    at most q^(2t) (product of the two binomial-theorem norms), so the
    truncation error is bounded by q^(2(margin+1))/(1-q^2).  Deliberately
    ignorant of every closed form.
    """
    p.require_stationary()
    a, b = p.alpha, p.beta
    if margin is None:
        margin = oracle_margin(p.q)
    # support (i, j) <= (min(k,0), min(l,0)); substitute i = min(k,0)-u, j = min(l,0)-v
    kp, lp = max(k, 0), max(l, 0)
    km, lm = max(-k, 0), max(-l, 0)
    depth0 = km + lm  # depth of the first shared innovation below the origin
    u = np.arange(margin + 1)
    U, V = np.meshgrid(u, u, indexing="ij")
    mask = (U + V) <= margin
    # weight in X[0,0]: C(depth0+u+v, km+u) |a|^(km+u) |b|^(lm+v)
    # weight in X[k,l]: C(kp+lp+u+v, kp+u)  |a|^(kp+u) |b|^(lp+v)
    logw = (gammaln(depth0 + U + V + 1) - gammaln(km + U + 1) - gammaln(lm + V + 1)
            + gammaln(kp + lp + U + V + 1) - gammaln(kp + U + 1) - gammaln(lp + V + 1))
    ea = km + kp + 2 * U
    eb = lm + lp + 2 * V
    with np.errstate(divide="ignore", invalid="ignore"):
        la_ = np.where(ea > 0, ea * (math.log(abs(a)) if a != 0 else -np.inf), 0.0)
        lb_ = np.where(eb > 0, eb * (math.log(abs(b)) if b != 0 else -np.inf), 0.0)
    logw = logw + la_ + lb_
    # every kept term carries the same sign pattern
    sign = (1 if a >= 0 or (km + kp) % 2 == 0 else -1) * \
           (1 if b >= 0 or (lm + lp) % 2 == 0 else -1)
    terms = np.where(mask, np.exp(logw), 0.0)
    return sign * float(np.sum(terms))


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
    tol: float = 1e-12
    margin: int | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.params.require_stationary()

    def _evaluate(self, k: int, l: int) -> float:
        if self.method is CovMethod.CLOSED_FORM:
            return cov_closed(self.params, k, l)
        if self.method is CovMethod.APPELL_F4:
            return cov_f4(self.params, k, l, self.tol)
        if self.method is CovMethod.BINOMIAL_REP:
            if k * l < 0:
                # mixed quadrant is outside this representation; fall back
                return cov_closed(self.params, k, l)
            return cov_binrep(self.params, k, l, self.tol)
        return cov_series_oracle(self.params, k, l, self.margin)

    def R(self, k: int, l: int) -> float:
        if k < 0 or (k == 0 and l < 0):
            k, l = -k, -l
        key = (k, l)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._evaluate(k, l)
            self._cache[key] = hit
        return hit

    def __call__(self, k: int, l: int) -> float:
        return self.R(k, l)

    def table(self, kmax: int, lmax: int) -> np.ndarray:
        """Array R[dk + kmax, dl + lmax] for |dk| <= kmax, |dl| <= lmax."""
        out = np.empty((2 * kmax + 1, 2 * lmax + 1))
        for dk in range(-kmax, kmax + 1):
            for dl in range(-lmax, lmax + 1):
                out[dk + kmax, dl + lmax] = self.R(dk, dl)
        return out
