import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spatialar import (
    CovKernel,
    CovMethod,
    ModelParams,
    NonStationaryError,
    WrongQuadrantError,
    cov_binrep,
    cov_closed,
    cov_f4,
    cov_series_oracle,
    oracle_margin,
    pmf_s,
    rho_corr,
    sigma_sq,
)
from spatialar.covariance import _f4_grid_sum, geom_factors

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
        assert rho_corr(ModelParams(0.5, 0.0)) == 0.0
        assert rho_corr(ModelParams(0.0, 0.0)) == 0.0
        assert rho_corr(ModelParams(0.25, 0.25)) == pytest.approx(0.0717968, abs=1e-7)


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


class TestKernel:
    def test_cache_bit_identical(self):
        kern = CovKernel(ModelParams(0.4, -0.3))
        first = kern.R(3, 2)
        assert kern.R(3, 2) == first
        assert CovKernel(ModelParams(0.4, -0.3)).R(3, 2) == first

    def test_symmetry_canonicalisation(self):
        kern = CovKernel(ModelParams(0.4, -0.3))
        assert kern.R(-3, 2) == kern.R(3, -2)
        assert len(kern._cache) == 1

    def test_all_methods_dispatch(self):
        p = ModelParams(0.3, 0.4)
        ref = cov_closed(p, 2, 1)
        for method in CovMethod:
            assert CovKernel(p, method).R(2, 1) == pytest.approx(ref, abs=1e-9)

    def test_binrep_kernel_mixed_quadrant_falls_back(self):
        kern = CovKernel(ModelParams(0.3, 0.4), CovMethod.BINOMIAL_REP)
        assert kern.R(2, -1) == pytest.approx(cov_closed(kern.params, 2, -1))

    def test_table_layout(self):
        kern = CovKernel(ModelParams(0.2, 0.3))
        t = kern.table(2, 3)
        assert t.shape == (5, 7)
        assert t[2, 3] == kern.R(0, 0)
        assert t[4, 6] == kern.R(2, 3)

    def test_hull_covariance_is_spd(self):
        # Cholesky must succeed, with no jitter, on every hull matrix
        from spatialar import TriangleWindow, hull_indices

        for a, b in [(0.45, 0.45), (0.3, -0.55), (-0.6, 0.25)]:
            kern = CovKernel(ModelParams(a, b))
            for s in (4, 8, 12):
                pts = hull_indices(TriangleWindow.balanced(s))
                cov = np.array([[kern.R(i1 - i2, j1 - j2) for i2, j2 in pts]
                                for i1, j1 in pts])
                np.linalg.cholesky(cov)


def test_geom_factor_product_equals_normalised_mixed_lag():
    for a, b in GRID:
        p = ModelParams(a, b)
        ga, gb = geom_factors(p)
        assert ga * gb == pytest.approx(cov_closed(p, 1, -1) / sigma_sq(p),
                                        rel=1e-12)
