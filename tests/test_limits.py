import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spatialar import (
    BoundaryPoint,
    CaseTag,
    IndeterminateOmegaError,
    ModelParams,
    NearlyUnstableDesign,
    OutOfRangeError,
    RateUndefinedError,
    Schedule,
    SingularMatrixError,
    condition_statistic,
    cov_closed,
    expected_B,
    invert_spd2,
    limit_law,
    omega_n,
    psi_adjugate,
    psi_matrix,
    sigma_sq,
    sqrt_spd2,
    theta_matrix,
    theta_scalar,
    verify_covlim,
    verify_detB,
)
from spatialar.covariance import d_factor
from spatialar.harness import scaled_expected_B
from spatialar.limits import _adjugate, _det, omega_limit
from spatialar.model import ScheduleKind

THETA_REF = -(2.0 - math.sqrt(3.0))  # = -0.2679491924...


def interior_design():
    return NearlyUnstableDesign(BoundaryPoint.from_pair(0.5, 0.5),
                                Schedule.constant(1.0), Schedule.constant(1.0))


def boundary_design(gamma=2.0, delta=1.0):
    return NearlyUnstableDesign(BoundaryPoint.from_pair(1.0, 0.0),
                                Schedule.constant(gamma), Schedule.constant(delta))


class TestTwoByTwoAlgebra:
    """det and adjugate of a (2, 2) array by the explicit formulas."""

    def test_adjugate_and_det_examples(self):
        b = np.array([[6.0, 3.0], [3.0, 6.0]])
        assert_array_equal(_adjugate(b), [[6, -3], [-3, 6]])
        assert _det(b) == 27
        identity = np.eye(2)
        assert_array_equal(_adjugate(identity), identity)
        assert _det(identity) == 1
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert_array_equal(_adjugate(m), [[4, -2], [-3, 1]])
        assert _det(m) == -2

    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_b_times_adjugate_is_det_identity(self, entries):
        b = np.reshape(entries, (2, 2))
        prod = b @ _adjugate(b)
        expected = _det(b) * np.eye(2)
        scale = max(1.0, np.abs(b).max() ** 2)
        assert np.max(np.abs(prod - expected)) <= 4 * np.finfo(float).eps * scale

    def test_signed_zeros_survive(self):
        # at theta = 0 the boundary limit 16 adj(Theta) has -0.0 off the
        # diagonal, and report.json prints it; the square root keeps a -0.0
        # off-diagonal too
        assert np.signbit(invert_spd2(theta_matrix(0.0))).tolist() == [[False, True],
                                                                        [True, False]]
        root = sqrt_spd2(np.array([[1.0, -0.0], [-0.0, 1.0]]))
        assert np.signbit(root).tolist() == [[False, True], [True, False]]

    def test_inverse_multiplies_by_the_reciprocal_of_det(self):
        # at theta = 0.3, adj / det and adj * (1 / det) differ in the last bit
        t = theta_matrix(0.3)
        assert_array_equal(invert_spd2(t), _adjugate(t) * (1.0 / _det(t)))
        assert not np.array_equal(invert_spd2(t), _adjugate(t) / _det(t))


class TestPsi:
    def test_positive_product(self):
        bp = BoundaryPoint.from_pair(0.5, 0.5)
        assert_array_equal(psi_matrix(bp), [[1, 1], [1, 1]])
        assert_array_equal(psi_adjugate(bp), [[1, -1], [-1, 1]])

    def test_negative_product(self):
        bp = BoundaryPoint.from_pair(0.5, -0.5)
        assert_array_equal(psi_matrix(bp), [[1, -1], [-1, 1]])

    def test_singular_and_adjugate_consistency(self):
        for pair in [(0.5, 0.5), (0.3, -0.7), (1.0, 0.0)]:
            psi = psi_matrix(BoundaryPoint.from_pair(*pair))
            assert_array_equal(psi_adjugate(BoundaryPoint.from_pair(*pair)), _adjugate(psi))
            if 0 < abs(pair[0]) < 1:
                assert _det(psi) == 0.0


class TestOmega:
    def test_values(self):
        assert omega_n(BoundaryPoint.from_pair(1.0, 0.0), 2.0, 1.0) == 2.0
        assert omega_n(BoundaryPoint.from_pair(0.0, 1.0), 1.0, 2.0) == 2.0

    def test_signed_infinity(self):
        assert omega_n(BoundaryPoint.from_pair(1.0, 0.0), 1.0, 0.0) == math.inf
        assert omega_n(BoundaryPoint.from_pair(-1.0, 0.0), 1.0, 0.0) == -math.inf

    def test_indeterminate(self):
        with pytest.raises(IndeterminateOmegaError):
            omega_n(BoundaryPoint.from_pair(1.0, 0.0), 0.0, 0.0)

    def test_interior_rejected(self):
        with pytest.raises(OutOfRangeError):
            omega_n(BoundaryPoint.from_pair(0.5, 0.5), 1.0, 1.0)

    def test_settled_flag(self):
        _, settled = omega_limit(boundary_design(), 64)
        assert settled
        drifting = NearlyUnstableDesign(
            BoundaryPoint.from_pair(1.0, 0.0),
            Schedule(ScheduleKind.POWER, 2.0, 0.5), Schedule.constant(1.0))
        w, settled = omega_limit(drifting, 64)
        assert not settled and w > 1


class TestTheta:
    def test_finite_omega(self):
        bp = BoundaryPoint.from_pair(1.0, 0.0)
        assert theta_scalar(bp, 2.0) == pytest.approx(THETA_REF, abs=1e-7)
        assert theta_scalar(bp, -2.0) == pytest.approx(-THETA_REF, abs=1e-7)

    def test_infinite_omega(self):
        assert theta_scalar(BoundaryPoint.from_pair(1.0, 0.0), math.inf) == 0.0

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            theta_scalar(BoundaryPoint.from_pair(1.0, 0.0), 0.5)

    def test_theta_matrix_and_inverse(self):
        inv = invert_spd2(theta_matrix(THETA_REF))
        assert_allclose(inv,
                        [[4.3094011, 1.1547005], [1.1547005, 4.3094011]],
                        atol=1e-7)
        assert invert_spd2(theta_matrix(0.0)) == pytest.approx(
            (4.0 * np.eye(2)))
        assert sqrt_spd2(theta_matrix(0.0)) == pytest.approx(
            0.5 * np.eye(2))

    def test_singular_at_unit_theta(self):
        with pytest.raises(SingularMatrixError):
            invert_spd2(theta_matrix(1.0))
        with pytest.raises(OutOfRangeError):
            theta_matrix(1.5)

    @given(st.floats(-0.99, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_inverse_and_sqrt_identities(self, theta):
        t = theta_matrix(theta)
        prod = t @ invert_spd2(t)
        assert_allclose(prod, np.eye(2), atol=1e-12)
        root = sqrt_spd2(t)
        assert abs(root[0, 1] - root[1, 0]) <= 1e-15
        assert_allclose(root @ root, t, atol=1e-12)
        assert root[0, 0] >= 0.0 and _det(root) >= -1e-15


class TestLimitLaw:
    def test_interior(self):
        law = limit_law(interior_design())
        assert law.case_tag is CaseTag.INTERIOR
        assert law.singular
        assert law.rate(16, 64) == 64.0
        assert_allclose(law.covariance,
                        0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_boundary(self):
        law = limit_law(boundary_design())
        assert law.omega == pytest.approx(2.0)
        assert law.omega_settled
        assert law.theta == pytest.approx(THETA_REF, abs=1e-7)
        assert law.rate(16, 64) == pytest.approx(64 * 4 * 3**-0.25, rel=1e-12)
        assert law.rate(16, 64) == pytest.approx(194.51794, abs=1e-4)
        assert_allclose(law.covariance,
                        [[4.3094011, 1.1547005], [1.1547005, 4.3094011]],
                        atol=1e-7)

    def test_rate_undefined(self):
        # constant gamma = delta never reaches the stable region at (1, 0), so
        # the design is rejected when built; gamma(m) = 2 sqrt(m) meets
        # delta = 4 at the probe m = 4 and still stabilises for large m
        design = NearlyUnstableDesign(BoundaryPoint.from_pair(1.0, 0.0),
                                      Schedule(ScheduleKind.POWER, 2.0, 0.5),
                                      Schedule.constant(4.0))
        with pytest.raises(RateUndefinedError):
            limit_law(design, m_probe=4)

    def test_drifting_omega_is_flagged_unsettled(self):
        # gamma/delta -> infinity slowly: the probe cannot settle the limit
        design = NearlyUnstableDesign(
            BoundaryPoint.from_pair(1.0, 0.0),
            Schedule(ScheduleKind.POWER, 1.0, 0.5),
            Schedule(ScheduleKind.LOG, 1.0))
        law = limit_law(design, m_probe=1 << 20)
        assert law.omega_settled is False
        assert law.omega > 1
        # far along the road to omega = infinity, theta is already tiny
        assert abs(law.theta) < 0.01
        assert law.covariance[0, 0] == pytest.approx(4.0, rel=1e-3)


class TestConditionStatistic:
    def test_interior_value(self):
        assert condition_statistic(interior_design(), 100, 100) == pytest.approx(
            14.142136, abs=1e-6)

    def test_boundary_value(self):
        assert condition_statistic(boundary_design(), 16, 64) == pytest.approx(
            4 * math.sqrt(3.0), rel=1e-12)

    def test_flat_ladder(self):
        d = boundary_design()
        vals = {condition_statistic(d, m, m) for m in (8, 64, 512)}
        assert len(vals) == 1  # s = m gives a constant, rejected by configs


class TestExpectedB:
    def test_spot_value(self):
        eb = expected_B(ModelParams(0.25, 0.25), 2)
        assert_allclose(eb,
                        [[3.4641016, 0.2487113], [0.2487113, 3.4641016]],
                        atol=1e-7)

    def test_off_diagonal_is_scaled_mixed_lag(self):
        for a, b in [(0.3, 0.45), (-0.2, 0.6), (0.45, -0.45)]:
            p = ModelParams(a, b)
            eb = expected_B(p, 5)
            n = 15.0
            assert eb[0, 1] == pytest.approx(n * cov_closed(p, 1, -1), rel=1e-10)
            assert eb[0, 0] == pytest.approx(n * sigma_sq(p), rel=1e-12)

    def test_white_field(self):
        eb = expected_B(ModelParams(0.0, 0.0), 7)
        assert_allclose(eb, 28.0 * np.eye(2))

    def test_brute_force_summation_matches(self):
        from fieldref import triangle_indices
        from spatialar import TriangleWindow, cov_closed

        p = ModelParams(0.35, -0.4)
        r00, r_off = cov_closed(p, [0, -1], [0, 1])
        for s in (1, 3, 6):
            pts = triangle_indices(TriangleWindow.balanced(s))
            diag = sum(r00 for _ in pts)
            off = sum(r_off for _ in pts)
            eb = expected_B(p, s)
            assert eb[0, 0] == pytest.approx(diag, rel=1e-12)
            assert eb[0, 1] == pytest.approx(off, rel=1e-12)


class TestScaledInformationTrends:
    def test_mixed_lag_ratio_approaches_theta(self):
        # |D_m - theta| strictly decreasing along the design
        design = boundary_design()
        theta = theta_scalar(design.boundary, 2.0)
        devs = []
        for m in (32, 128, 512):
            eb = expected_B(design.params_at(m), 4)
            devs.append(abs(eb[0, 1] / eb[0, 0] - theta))
        assert devs[2] < devs[1] < devs[0]

    def test_interior_scaled_mean_trend(self):
        design = interior_design()
        target = (32 * 0.25) ** -0.5 * np.ones((2, 2))
        devs = [np.max(np.abs(scaled_expected_B(design, m, m) - target))
                for m in (64, 256)]
        assert devs[1] < devs[0]

    def test_interior_diff_variance_tends_to_the_limit_law(self):
        # no Monte Carlo: to first order Var(v'err) = 1 / v'E[B]v along
        # v = (1, -1)/sqrt(2), the proj_diff direction, so the scaled
        # var(diff) at m = s tends to 2 / lim sigma^2 (1 - D).  The exact
        # moments put that limit at 4|a||b| = 1.0 at the boundary point
        # (1/2, 1/2), limit_law's variance along v
        design = interior_design()
        ab = abs(design.boundary.alpha) * abs(design.boundary.beta)
        scaled, product = [], []
        for m in (128, 4096, 65536, 1 << 20):
            p = design.params_at(m)
            eb = expected_B(p, m)
            scaled.append(m * m / ((eb[0, 0] + eb[1, 1] - 2.0 * eb[0, 1]) / 2.0))
            product.append(2.0 * ab * sigma_sq(p) * (1.0 - d_factor(p)))
        assert scaled == pytest.approx([1.167, 1.031, 1.008, 1.002], abs=5e-4)
        assert all(b < a for a, b in zip(scaled, scaled[1:]))
        assert abs(scaled[-1] - 4.0 * ab) <= 0.005
        assert product == pytest.approx([0.850, 0.970, 0.992, 0.998], abs=5e-4)
        assert all(a < b < 1.0 for a, b in zip(product, product[1:]))
        lim = limit_law(design).covariance
        assert (lim[0, 0] + lim[1, 1] - 2.0 * lim[0, 1]) / 2.0 == pytest.approx(4.0 * ab)

    @pytest.mark.parametrize("pair", [(0.5, 0.5), (0.25, 0.75), (0.6, 0.4)])
    def test_interior_limit_constants_match_exact_moments(self, pair):
        # no Monte Carlo: along params_at at m = s, the exact E[B] drives the
        # scaled w-variance s^2 / w'E[B]w down to limit_law's w'Sigma w, the
        # scaled determinant c s^-4 det E[B] up to verify_detB's target, and
        # the scaled variance c sigma^2 down to verify_covlim's bound, with
        # w = (1, -1)/sqrt(2) the null direction of Psi and
        # c = condition_statistic(design, m, 1).  The two derived constants
        # equal the closed forms 2 (8|a||b|)^(-3/2) and (8|a||b|)^(-1/2)
        design = NearlyUnstableDesign(BoundaryPoint.from_pair(*pair),
                                      Schedule.constant(1.0), Schedule.constant(1.0))
        ab = pair[0] * pair[1]
        lim = limit_law(design).covariance
        w_limit = (lim[0, 0] + lim[1, 1] - 2.0 * lim[0, 1]) / 2.0
        det_target = verify_detB(design, 128, 16, reps=2)["target"]
        bound = verify_covlim(design, 1 << 20, 8000)["bound"]
        assert w_limit == pytest.approx(4.0 * ab, rel=1e-15)
        closed_det = 2.0 * (8.0 * ab) ** -1.5
        assert abs(det_target - closed_det) <= 1e-14 * closed_det
        closed_bound = 1.0 / math.sqrt(8.0 * ab)
        assert abs(bound - closed_bound) <= math.ulp(closed_bound)
        w_var, det, scaled_var = [], [], []
        for m in (128, 4096, 65536, 1 << 20):
            p = design.params_at(m)
            eb = expected_B(p, m)
            c = condition_statistic(design, m, 1)
            w_var.append(m * m / ((eb[0, 0] + eb[1, 1] - 2.0 * eb[0, 1]) / 2.0))
            det.append(c * m**-4.0 * _det(eb))
            scaled_var.append(c * sigma_sq(p))
        assert all(b < a for a, b in zip(w_var, w_var[1:]))
        assert abs(w_var[-1] / w_limit - 1.0) <= 0.005
        assert all(a < b for a, b in zip(det, det[1:]))
        assert abs(det[-1] / det_target - 1.0) <= 0.01
        assert all(b < a for a, b in zip(scaled_var, scaled_var[1:]))
        assert abs(scaled_var[-1] / bound - 1.0) <= 1e-5

    def test_covlim_boundary_bound_is_twice_theta_diagonal(self):
        assert verify_covlim(boundary_design(), 10_000_000, 8000)["bound"] == 0.5

    def test_boundary_scaled_mean_trend(self):
        design = boundary_design()
        target = theta_matrix(THETA_REF)
        devs = [np.max(np.abs(
            scaled_expected_B(design, m, math.ceil(m**1.25)) - target))
            for m in (16, 64)]
        assert devs[1] < devs[0]
