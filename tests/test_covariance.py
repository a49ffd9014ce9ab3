import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gammaln

from spatialar import (
    ModelParams,
    NonStationaryError,
    OutOfRangeError,
    WrongQuadrantError,
    cov_binrep,
    cov_closed,
    cov_f4,
    cov_series_oracle,
    oracle_margin,
    pmf_s,
    sigma_sq,
)
from spatialar import covariance
from spatialar.covariance import (
    _LAG_BLOCK_TERMS,
    _cov_closed_at,
    _f4_grid_sum,
    _log_factorials,
    d_factor,
    geom_factors,
)

GRID = [(a, b)
        for a in (-0.45, -0.25, -0.1, 0.1, 0.25, 0.45)
        for b in (-0.45, -0.25, -0.1, 0.1, 0.25, 0.45)
        if abs(a) + abs(b) <= 0.9]

stable_params = st.tuples(
    st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)
).filter(lambda ab: 1e-3 < abs(ab[0]) + abs(ab[1]) < 0.95
         and abs(ab[0]) > 1e-3 and abs(ab[1]) > 1e-3).map(lambda ab: ModelParams(*ab))


class TestScalarConstants:
    def test_sigma_sq_values(self):
        assert sigma_sq(ModelParams(0.0, 0.0)) == 1.0
        assert sigma_sq(ModelParams(0.25, 0.25)) == pytest.approx(0.75**-0.5)
        assert sigma_sq(ModelParams(0.5, 0.3)) == pytest.approx(0.3456**-0.5)

    def test_sigma_sq_nonstationary(self):
        with pytest.raises(NonStationaryError):
            sigma_sq(ModelParams(0.6, 0.4))

    @given(stable_params)
    @settings(max_examples=50, deadline=None)
    def test_sigma_sq_at_least_one(self, p):
        assert sigma_sq(p) >= 1.0

    def test_rho_values(self):
        assert d_factor(ModelParams(0.5, 0.0)) == 0.0
        assert d_factor(ModelParams(0.0, 0.0)) == 0.0
        assert d_factor(ModelParams(0.25, 0.25)) == pytest.approx(0.0717968, abs=1e-7)


class TestClosedForm:
    def test_origin_is_sigma_sq(self):
        p = ModelParams(0.25, 0.25)
        assert cov_closed(p, 0, 0) == pytest.approx(1.1547005, abs=1e-7)

    def test_mixed_quadrant_value(self):
        p = ModelParams(0.25, 0.25)
        assert cov_closed(p, 1, -1) == pytest.approx(0.0829038, abs=1e-7)

    def test_same_quadrant_value(self):
        p = ModelParams(0.25, 0.25)
        assert cov_closed(p, 1, 1) == pytest.approx(sigma_sq(p) - 1.0, abs=1e-12)
        # cross-checked through the recursion identity
        yw = 0.25 * cov_closed(p, 0, 1) + 0.25 * cov_closed(p, 1, 0)
        assert cov_closed(p, 1, 1) == pytest.approx(yw, abs=1e-12)

    def test_degenerate_axis(self):
        p = ModelParams(0.5, 0.0)
        assert cov_closed(p, 3, 0) == pytest.approx(0.5**3 / 0.75)
        assert cov_closed(p, 3, 1) == 0.0
        assert cov_closed(ModelParams(0.0, 0.0), 0, 0) == 1.0

    @given(stable_params, st.integers(-8, 8), st.integers(-8, 8))
    @settings(max_examples=80, deadline=None)
    def test_inversion_symmetry(self, p, k, l):
        assert cov_closed(p, k, l) == pytest.approx(cov_closed(p, -k, -l),
                                                    rel=1e-12, abs=1e-13)

    @given(stable_params, st.integers(-6, 6), st.integers(-6, 6))
    @settings(max_examples=80, deadline=None)
    def test_yule_walker(self, p, k, l):
        a, b = p.alpha, p.beta
        if k >= 1 or l >= 1:
            lhs = cov_closed(p, k, l)
            rhs = a * cov_closed(p, k - 1, l) + b * cov_closed(p, k, l - 1)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_domination_by_absolute_parameters(self):
        for a, b in GRID:
            p, pa = ModelParams(a, b), ModelParams(abs(a), abs(b))
            for k in range(-5, 6):
                for l in range(-5, 6):
                    assert abs(cov_closed(p, k, l)) <= cov_closed(pa, k, l) + 1e-12

    def test_hull_covariance_is_spd(self):
        # Cholesky must succeed, with no jitter, on every hull matrix
        from fieldref import hull_covariance
        from spatialar import TriangleWindow

        for a, b in [(0.45, 0.45), (0.3, -0.55), (-0.6, 0.25)]:
            for s in (4, 8, 12):
                np.linalg.cholesky(hull_covariance(ModelParams(a, b),
                                                   TriangleWindow.balanced(s)))


class TestF4:
    def test_trivial_at_origin(self):
        for args in [(1, 1, 1, 1), (3, 2, 4, 1)]:
            assert _f4_grid_sum(*args, 0.0, 0.0, 40) == 1.0

    def test_reduction_identity(self):
        # F4(a,b,a,b; -x/((1-x)(1-y)), -y/((1-x)(1-y))) = (1-x)^b (1-y)^a / (1-xy)
        for a, b, x, y in [(1, 1, 0.1, 0.1), (2, 1, 0.15, 0.05), (1, 3, 0.05, 0.2)]:
            u = -x / ((1 - x) * (1 - y))
            v = -y / ((1 - x) * (1 - y))
            expected = (1 - x) ** b * (1 - y) ** a / (1 - x * y)
            # sqrt|u| + sqrt|v| <= 0.77 here, so the terms beyond level 120
            # sum to below 1e-20
            assert _f4_grid_sum(a, b, a, b, u, v, 120) == pytest.approx(
                expected, abs=1e-11)

    def test_cov_f4_examples(self):
        p = ModelParams(0.25, 0.25)
        assert cov_f4(p, 0, 0) == pytest.approx(sigma_sq(p), abs=1e-11)
        assert cov_f4(p, 1, -1) == pytest.approx(0.0829038, abs=1e-7)
        p2 = ModelParams(0.3, -0.4)
        assert cov_f4(p2, 2, 0) == pytest.approx(cov_closed(p2, 2, 0), abs=1e-10)

    @pytest.mark.parametrize("a, b, k, l, rel", [
        (0.49, 0.49, 520, 520, 1e-12),
        (0.45, 0.45, 3000, 3000, 1e-10),
        (0.45, -0.45, -2000, -1500, 1e-10),
    ])
    def test_cov_f4_at_large_same_sign_lags(self, a, b, k, l, rel):
        # C(|k|+|l|, |k|) is far beyond the float range at these lags; the
        # prefactor is formed in log space, so the value is the closed form's
        p = ModelParams(a, b)
        assert cov_f4(p, k, l) == pytest.approx(cov_closed(p, k, l), rel=rel, abs=0)

    @pytest.mark.parametrize("k", [520, 600])
    def test_cov_f4_underflows_to_zero(self, k):
        p = ModelParams(0.2, 0.2)
        assert cov_f4(p, k, k) == cov_closed(p, k, k) == 0.0


class TestBinomialRepresentation:
    def test_pmf_examples(self):
        assert pmf_s(1, 1, 0.5, 1) == pytest.approx(0.5)
        assert pmf_s(2, 2, 0.5, 2) == pytest.approx(0.375)
        assert pmf_s(0, 0, 0.3, 0) == 1.0
        assert pmf_s(3, 4, 0.3, -1) == 0.0
        assert pmf_s(3, 4, 0.3, 8) == 0.0

    @given(st.integers(0, 40), st.integers(0, 40), st.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_pmf_normalises(self, n, m, nu):
        total = sum(pmf_s(n, m, nu, j) for j in range(n + m + 1))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_binrep_values(self):
        p = ModelParams(0.25, 0.25)
        assert cov_binrep(p, 0, 0) == pytest.approx(1.1547005, abs=1e-7)
        assert cov_binrep(p, 1, 1) == pytest.approx(0.1547005, abs=1e-7)

    def test_binrep_wrong_quadrant(self):
        with pytest.raises(WrongQuadrantError):
            cov_binrep(ModelParams(0.25, 0.25), 1, -1)


class TestSeriesOracle:
    def test_values(self):
        p = ModelParams(0.25, 0.25)
        assert cov_series_oracle(p, 0, 0, 60) == pytest.approx(sigma_sq(p), abs=1e-12)
        assert cov_series_oracle(p, 1, -1, 60) == pytest.approx(
            cov_closed(p, 1, -1), abs=1e-12)

    def test_degenerate_axis(self):
        # 0.5^3 / (1 - 0.25): one-dimensional AR(1) covariance
        p = ModelParams(0.5, 0.0)
        assert cov_series_oracle(p, 3, 0, 60) == pytest.approx(
            0.5**3 / 0.75, abs=1e-12)
        assert cov_series_oracle(p, 3, 2, 60) == 0.0

    def test_margin_bound_is_honoured(self):
        # compare a deliberately coarse margin with the certified tail bound
        p = ModelParams(0.45, 0.45)
        exact = cov_closed(p, 2, 2)
        for margin in (5, 10, 20):
            bound = p.q ** (2 * (margin + 1)) / (1 - p.q**2)
            assert abs(cov_series_oracle(p, 2, 2, margin) - exact) <= bound

    def test_oracle_margin_monotone(self):
        assert oracle_margin(0.5, 1e-12) < oracle_margin(0.9, 1e-12)

    @pytest.mark.parametrize("margin", [-1, -5, 2.5, 3.0, True, False, "3", np.float64(2)])
    def test_margin_must_be_a_non_negative_integer(self, margin, monkeypatch):
        # rejected before any lag runs: no log-factorial table is asked for
        calls = []
        monkeypatch.setattr(covariance, "_log_factorials",
                            lambda n: calls.append(n) or _log_factorials(n))
        with pytest.raises(OutOfRangeError, match="non-negative integer"):
            cov_series_oracle(ModelParams(0.3, 0.2), 1, 1, margin)
        assert calls == []

    def test_integer_margins_are_accepted(self):
        p = ModelParams(0.3, 0.2)
        # margin 0 keeps level 0 alone: the product of the lag's two lead weights
        assert cov_series_oracle(p, 1, 1, 0) == pytest.approx(0.3 * 0.2 * 2, rel=1e-14)
        assert cov_series_oracle(p, 0, 0, 0) == 1.0
        assert cov_series_oracle(p, 2, -1, np.int64(7)) == cov_series_oracle(p, 2, -1, 7)


class TestFourWaySmoke:
    # the full acceptance grid lives in test_acceptance; these are fast probes
    @pytest.mark.parametrize("a,b", [(0.5, 0.3), (0.3, -0.4), (-0.35, 0.2)])
    def test_methods_agree(self, a, b):
        p = ModelParams(a, b)
        margin = oracle_margin(p.q, 1e-11)
        for k in range(-4, 5):
            for l in range(-4, 5):
                ref = cov_closed(p, k, l)
                assert cov_f4(p, k, l) == pytest.approx(ref, abs=1e-9)
                assert cov_series_oracle(p, k, l, margin) == pytest.approx(
                    ref, abs=1e-9)
                if k * l >= 0:
                    assert cov_binrep(p, k, l) == pytest.approx(ref, abs=1e-9)


# ---------------------------------------------------------------------------
# Reference formulas: each series route as written before the shared
# log-factorial table, one gammaln meshgrid (or one pmf table) per call.


def _ref_f4_grid_sum(a, b, c, d, x, y, smax):
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
    return float(np.sum(np.where(mask, sign * np.exp(logt), 0.0)))


def _ref_cov_series_oracle(p, k, l, margin):
    a, b = p.alpha, p.beta
    kp, lp = max(k, 0), max(l, 0)
    km, lm = max(-k, 0), max(-l, 0)
    depth0 = km + lm
    u = np.arange(margin + 1)
    U, V = np.meshgrid(u, u, indexing="ij")
    mask = (U + V) <= margin
    logw = (gammaln(depth0 + U + V + 1) - gammaln(km + U + 1) - gammaln(lm + V + 1)
            + gammaln(kp + lp + U + V + 1) - gammaln(kp + U + 1) - gammaln(lp + V + 1))
    ea = km + kp + 2 * U
    eb = lm + lp + 2 * V
    with np.errstate(divide="ignore", invalid="ignore"):
        la_ = np.where(ea > 0, ea * (math.log(abs(a)) if a != 0 else -np.inf), 0.0)
        lb_ = np.where(eb > 0, eb * (math.log(abs(b)) if b != 0 else -np.inf), 0.0)
    logw = logw + la_ + lb_
    sign = (1 if a >= 0 or (km + kp) % 2 == 0 else -1) * \
           (1 if b >= 0 or (lm + lp) % 2 == 0 else -1)
    return sign * float(np.sum(np.where(mask, np.exp(logw), 0.0)))


def _ref_binom_logpmf(n, prob):
    k = np.arange(n + 1)
    if prob == 0.0 or prob == 1.0:
        out = np.full(n + 1, -np.inf)
        out[n if prob == 1.0 else 0] = 0.0
        return out
    logc = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    return logc + k * math.log(prob) + (n - k) * math.log1p(-prob)


def _ref_pmf_s(n, m, nu, j):
    # convolution of the Binomial(n, nu) and Binomial(m, 1 - nu) pmfs at j
    if j < 0 or j > n + m:
        return 0.0
    l1 = _ref_binom_logpmf(n, nu)
    l2 = _ref_binom_logpmf(m, 1.0 - nu)
    u = np.arange(max(0, j - m), min(n, j) + 1)
    logs = l1[u] + l2[j - u]
    peak = np.max(logs)
    if peak == -np.inf:
        return 0.0
    return max(0.0, float(math.exp(peak) * np.sum(np.exp(logs - peak))))


def _ref_cov_binrep(p, k, l, tol=1e-12):
    # the i-sum term by term: q^(big+2i) P(S(i, big+i) = |l|+i)
    a, b, q = p.alpha, p.beta, p.q
    if q == 0.0:
        return 1.0 if (k == 0 and l == 0) else 0.0
    ka, la = abs(k), abs(l)
    nu = abs(a) / q
    sign = (1 if a >= 0 or ka % 2 == 0 else -1) * (1 if b >= 0 or la % 2 == 0 else -1)
    big = ka + la
    total = 0.0
    i = 0
    while q ** (2 * i) / (1.0 - q * q) >= tol:
        total += q ** (big + 2 * i) * _ref_pmf_s(i, big + i, nu, la + i)
        i += 1
    return sign * total


def test_log_factorial_table_equals_gammaln_bit_for_bit():
    # the reference formulas below read gammaln; the 1e-14 tolerances of
    # TestAgainstReferenceFormulas rest on the shared table being identical
    table = _log_factorials(100000)[:100001]
    ref = gammaln(np.arange(100001) + 1.0)
    assert np.array_equal(table.view(np.int64), ref.view(np.int64))


def _assert_rel(new, ref, rtol=1e-14):
    assert abs(new - ref) <= rtol * abs(ref), (new, ref)


# generic, near the unstable boundary (q = 0.95), the degenerate a = 0 and
# b = 0 lines (nu = 0 and nu = 1), and the white-noise origin
REF_PARAMS = [(0.45, -0.25), (-0.5, 0.45), (0.95, 0.0), (0.0, 0.6),
              (-0.7, 0.0), (0.0, 0.0)]


class TestAgainstReferenceFormulas:
    @pytest.mark.parametrize("args", [(1, 1, 1, 1), (3, 2, 4, 1), (7, 1, 4, 4)])
    @pytest.mark.parametrize("x,y", [(0.0, 0.0), (0.2, 0.0), (0.0, -0.15),
                                     (-0.2, 0.1), (0.15, -0.1), (-0.1, -0.05)])
    @pytest.mark.parametrize("smax", [0, 1, 60])
    def test_f4_grid_sum(self, args, x, y, smax):
        _assert_rel(_f4_grid_sum(*args, x, y, smax),
                    _ref_f4_grid_sum(*args, x, y, smax))

    @pytest.mark.parametrize("a,b", REF_PARAMS)
    def test_cov_f4(self, a, b):
        p = ModelParams(a, b)
        smax = oracle_margin(p.q)
        for k in range(-3, 4):
            for l in range(-3, 4):
                ka, la = abs(k), abs(l)
                if k * l <= 0:
                    ref = a**ka * b**la * _ref_f4_grid_sum(
                        ka + 1, la + 1, ka + 1, la + 1, a * a, b * b, smax)
                else:
                    ref = a**ka * b**la * math.comb(ka + la, ka) * _ref_f4_grid_sum(
                        ka + la + 1, 1, ka + 1, la + 1, a * a, b * b, smax)
                _assert_rel(cov_f4(p, k, l), ref)

    @pytest.mark.parametrize("a,b", REF_PARAMS)
    @pytest.mark.parametrize("margin", [0, 1, 60, None])
    def test_cov_series_oracle(self, a, b, margin):
        p = ModelParams(a, b)
        ref_margin = oracle_margin(p.q) if margin is None else margin
        for k in range(-3, 4):
            for l in range(-3, 4):
                _assert_rel(cov_series_oracle(p, k, l, margin),
                            _ref_cov_series_oracle(p, k, l, ref_margin))

    @pytest.mark.parametrize("a,b", REF_PARAMS)
    def test_cov_binrep(self, a, b):
        p = ModelParams(a, b)
        for k in range(-3, 4):
            for l in range(-3, 4):
                if k * l >= 0:
                    _assert_rel(cov_binrep(p, k, l), _ref_cov_binrep(p, k, l))
        _assert_rel(cov_binrep(p, 2, 1, tol=1e-4), _ref_cov_binrep(p, 2, 1, tol=1e-4))

    @pytest.mark.parametrize("n,m", [(0, 0), (0, 5), (4, 0), (7, 3), (40, 55)])
    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 1.0])
    def test_pmf_s(self, n, m, nu):
        for j in range(-1, n + m + 2):
            new = pmf_s(n, m, nu, j)
            assert not math.isnan(new)
            _assert_rel(new, _ref_pmf_s(n, m, nu, j))


LAGS = np.arange(-6, 7)
BOX_K, BOX_L = np.repeat(LAGS, LAGS.size), np.tile(LAGS, LAGS.size)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


SERIES_ROUTES = {"f4": cov_f4, "binrep": cov_binrep, "oracle": cov_series_oracle}


def _series_box(route, lag_max):
    # the flat lag box |k|, |l| <= lag_max; binrep takes each k with the sign
    # of l, so that its box keeps every lag in its own quadrant
    lags = np.arange(-lag_max, lag_max + 1)
    k, l = np.repeat(lags, lags.size), np.tile(lags, lags.size)
    if route == "binrep":
        k = np.where(l < 0, -1, 1) * np.abs(k)
    return k, l


def _lag_keys(k, l):
    # each distinct key (|k|, |l|, k*l <= 0) of the flat lags k, l, with the
    # first lag that has it
    keys = {}
    for x, y in zip(k.tolist(), l.tolist()):
        keys.setdefault((abs(x), abs(y), x * y <= 0), (x, y))
    return keys


class TestLagArrays:
    """A series route builds its tables once per table block of lags and
    sums them in grid blocks, and every value equals its one-lag call bit
    for bit."""

    @staticmethod
    def routes(p):
        margin = oracle_margin(p.q, 1e-10)  # verify_cov's oracle margin
        same = BOX_K * BOX_L >= 0
        return [(lambda k, l: cov_f4(p, k, l), BOX_K, BOX_L),
                (lambda k, l: cov_series_oracle(p, k, l, margin), BOX_K, BOX_L),
                (lambda k, l: cov_binrep(p, k, l), BOX_K[same], BOX_L[same])]

    @pytest.mark.parametrize("a,b", GRID + REF_PARAMS)
    def test_blocks_equal_one_lag_calls(self, a, b):
        # blocks of 23 lags end mid-way through rows of the 13 x 13 lag box
        p = ModelParams(a, b)
        for route, ks, ls in self.routes(p):
            one = np.array([route(int(k), int(l)) for k, l in zip(ks, ls)])
            blocks = np.concatenate([route(ks[i:i + 23], ls[i:i + 23])
                                     for i in range(0, ks.size, 23)])
            assert np.array_equal(_bits(blocks), _bits(one))

    def test_lag_shapes_broadcast(self):
        p = ModelParams(-0.25, 0.45)
        box = cov_f4(p, LAGS[:, None], LAGS[None, :])
        assert box.shape == (13, 13)
        assert np.array_equal(_bits(box.ravel()), _bits(cov_f4(p, BOX_K, BOX_L)))
        empty = np.array([], dtype=np.int64)
        assert cov_series_oracle(p, empty, empty).shape == (0,)
        assert cov_binrep(p, 2, [0, 1, 3]).shape == (3,)

    @pytest.mark.parametrize("a,b", [(0.45, -0.25), (0.0, 0.0)])
    def test_scalar_calls_return_float(self, a, b):
        p = ModelParams(a, b)
        for lag in [(2, 1), (np.int64(2), np.int64(1)), (0, 0)]:
            for value in (cov_closed(p, *lag), cov_f4(p, *lag), cov_series_oracle(p, *lag),
                          cov_binrep(p, *lag)):
                assert type(value) is float

    def test_one_mixed_lag_rejects_the_block(self):
        p = ModelParams(0.25, 0.45)
        with pytest.raises(WrongQuadrantError, match=r"\(2, -1\)"):
            cov_binrep(p, [0, 1, 2, 3], [0, 1, -1, 3])

    def test_lags_must_be_integers(self):
        for route in (cov_closed, cov_f4):
            with pytest.raises(TypeError):
                route(ModelParams(0.25, 0.45), np.array([1.0, 2.0]), 1)

    @pytest.mark.parametrize("a, b", [(0.4, -0.3), (-0.45, 0.45), (0.0, 0.6),
                                      (-0.7, 0.0), (0.0, 0.0)])
    def test_closed_box_equals_one_lag_calls(self, a, b, monkeypatch):
        # the box holds both axes and both quadrants; each distinct key
        # (|k|, |l|, k*l <= 0) runs the one-lag formula once, and every lag
        # gets that formula's value at its own (k, l) bit for bit
        p = ModelParams(a, b)
        lags = np.arange(-5, 6)
        k, l = lags[:, None], lags[None, :]
        one_lag = np.array([[_cov_closed_at(p, x, y) for y in range(-5, 6)]
                            for x in range(-5, 6)])
        calls = []

        def spy(p, k, l):
            calls.append((abs(k), abs(l), k * l <= 0))
            return _cov_closed_at(p, k, l)
        monkeypatch.setattr(covariance, "_cov_closed_at", spy)
        box = cov_closed(p, k, l)
        assert len(calls) == len(set(calls)) == 61
        assert set(calls) == {(abs(x), abs(y), x * y <= 0)
                              for x in range(-5, 6) for y in range(-5, 6)}
        assert box.shape == (11, 11)
        assert np.array_equal(_bits(box), _bits(one_lag))
        assert np.array_equal(_bits(box), _bits([[cov_closed(p, x, y) for y in range(-5, 6)]
                                                 for x in range(-5, 6)]))

    @pytest.mark.parametrize("route", ["f4", "binrep", "oracle"])
    def test_series_box_equals_one_lag_calls_in_bounded_memory(self, route):
        # at q = 0.9 one lag's grid exceeds a block, so the routes take one
        # lag per block: the box costs no more memory than one lag
        fn = {"f4": cov_f4, "binrep": cov_binrep, "oracle": cov_series_oracle}[route]
        p = ModelParams(0.45, 0.45)
        lags = np.arange(-20, 21)
        k, l = np.meshgrid(lags, lags, indexing="ij")
        if route == "binrep":
            k, l = k[k * l >= 0], l[k * l >= 0]
        fn(p, 20, 20)  # the log-factorial table reaches every lag of the box
        tracemalloc.start()
        try:
            box = fn(p, k, l)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        one_lag = np.array([fn(p, int(x), int(y)) for x, y in zip(k.ravel(), l.ravel())])
        assert np.array_equal(_bits(box.ravel()), _bits(one_lag))

    @pytest.mark.parametrize("route", ["f4", "binrep", "oracle"])
    @pytest.mark.parametrize("a, b, smax, per_table, per_grid", [(0.1, 0.1, 8, 910, 182),
                                                                (-0.15, 0.1, 9, 819, 148)])
    def test_box_spanning_table_blocks_equals_one_lag_calls_in_bounded_memory(
            self, route, a, b, smax, per_table, per_grid):
        # at small q a table block holds hundreds of lags, so the 41 x 41
        # box spans two or three table blocks, each of many grid blocks; at
        # q = 0.25 a table block ends 79 rows into a grid block
        fn = SERIES_ROUTES[route]
        p = ModelParams(a, b)
        assert oracle_margin(p.q) == smax
        assert _LAG_BLOCK_TERMS // (smax + 1) == per_table
        assert _LAG_BLOCK_TERMS // ((smax + 1) * (smax + 2) // 2) == per_grid
        k, l = _series_box(route, 20)
        assert k.size == 1681
        fn(p, 20, 20)  # the log-factorial table reaches every lag of the box
        tracemalloc.start()
        try:
            box = fn(p, k, l)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        one_lag = np.array([fn(p, int(x), int(y)) for x, y in zip(k.ravel(), l.ravel())])
        assert np.array_equal(_bits(box.ravel()), _bits(one_lag))

    @pytest.mark.parametrize("route", ["f4", "binrep", "oracle"])
    @pytest.mark.parametrize("a, b, lag_max, blocks", [
        (0.45, 0.45, 3, {"f4": 1, "binrep": 1, "oracle": 1}),
        (0.1, 0.1, 20, {"f4": 1, "binrep": 1, "oracle": 2}),
        (-0.15, 0.1, 20, {"f4": 2, "binrep": 1, "oracle": 3}),
    ], ids=["0.45-0.45-3", "0.1-0.1-20", "-0.15-0.1-20"])
    def test_tables_are_built_once_per_table_block(self, route, a, b, lag_max, blocks,
                                                   monkeypatch):
        # each table step asks for the log-factorial table once.  F4 and
        # binrep block one lag per distinct key (|k|, |l|, k*l <= 0), the
        # oracle every lag of the box.  At q = 0.9 a table block holds 58
        # lags (smax 139), so the 7 x 7 box, whose grids fill one grid block
        # each, is one table block
        fn = SERIES_ROUTES[route]
        p = ModelParams(a, b)
        k, l = _series_box(route, lag_max)
        runs = k.size if route == "oracle" else len(_lag_keys(k, l))
        per_table = _LAG_BLOCK_TERMS // (oracle_margin(p.q) + 1)
        assert -(-runs // per_table) == blocks[route]
        calls = []
        monkeypatch.setattr(covariance, "_log_factorials",
                            lambda n: calls.append(n) or _log_factorials(n))
        fn(p, k, l)
        assert len(calls) == blocks[route]

    @pytest.mark.parametrize("route", ["closed", "f4", "binrep"])
    @pytest.mark.parametrize("a, b", [(0.45, -0.45), (-0.25, 0.1), (0.0, 0.6)])
    def test_value_is_a_function_of_the_lag_key(self, route, a, b):
        # the premise of running these routes once per key (|k|, |l|,
        # k*l <= 0): the value at (k, l) is the value at (-k, -l) and the
        # one-lag call at one representative lag of its key, bit for bit
        fn = {"closed": cov_closed, "f4": cov_f4, "binrep": cov_binrep}[route]
        p = ModelParams(a, b)
        k, l = _series_box("f4", 4)
        if route == "binrep":
            k, l = k[k * l >= 0], l[k * l >= 0]
        box = dict(zip(zip(k.tolist(), l.tolist()), _bits(fn(p, k, l)).tolist()))
        keys = _lag_keys(k, l)
        assert len(keys) == (25 if route == "binrep" else 41)
        for (x, y), bits in box.items():
            assert bits == box[-x, -y]
            rep = keys[abs(x), abs(y), x * y <= 0]
            assert bits == _bits(fn(p, *rep))


def test_geom_factor_product_equals_normalised_mixed_lag():
    for a, b in GRID:
        p = ModelParams(a, b)
        ga, gb = geom_factors(p)
        assert ga * gb == pytest.approx(cov_closed(p, 1, -1) / sigma_sq(p),
                                        rel=1e-12)
