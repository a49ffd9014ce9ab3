import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spatialar import (
    Field,
    FieldSimulator,
    InnovationDist,
    Matrix2,
    MissingInnovationsError,
    ModelParams,
    RngStream,
    SimMethod,
    SingularDesignError,
    TriangleWindow,
    lse,
    normal_equations,
    score_vector,
)
from spatialar.estimate import accumulate, solve

from fieldref import accumulate_by_lists, deterministic_field


def three_point_field(x1x2_pairs, y=0.0):
    """Field on T(1,1) whose triangle regressor pairs are as given."""
    (a1, b1), (a2, b2), (a3, b3) = x1x2_pairs
    # regressors: (0,1) -> (X[-1,1], X[0,0]); (1,0) -> (X[0,0], X[1,-1]);
    # (1,1) -> (X[0,1], X[1,0]); consistency needs b1 == a2
    assert b1 == a2
    w = TriangleWindow(1, 1)
    return w, Field(w, [np.array([a1, b1, b2], float),
                        np.array([a3, b3], float),
                        np.array([y], float)])


class TestMatrix2:
    def test_adjugate_and_det_examples(self):
        b = Matrix2(6, 3, 3, 6)
        assert b.adjugate() == Matrix2(6, -3, -3, 6)
        assert b.det() == 27
        identity = Matrix2(1.0, 0.0, 0.0, 1.0)
        assert identity.adjugate() == identity
        assert identity.det() == 1
        m = Matrix2(1, 2, 3, 4)
        assert m.adjugate() == Matrix2(4, -2, -3, 1)
        assert m.det() == -2

    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_b_times_adjugate_is_det_identity(self, entries):
        b = Matrix2(*entries)
        prod = b.to_array() @ b.adjugate().to_array()
        expected = b.det() * np.eye(2)
        scale = max(1.0, b.max_abs() ** 2)
        assert np.max(np.abs(prod - expected)) <= 4 * np.finfo(float).eps * scale


class TestNormalEquations:
    def test_hand_summation(self):
        w, f = three_point_field([(1.0, 2.0), (2.0, 1.0), (1.0, -1.0)])
        b, c = normal_equations(f, w)
        assert b == Matrix2(6, 3, 3, 6)
        # responses are the layer-1 values (1, -1) and the layer-2 value 0
        assert_allclose(c, [1.0 * 1 + 2.0 * -1 + 1.0 * 0,
                            2.0 * 1 + 1.0 * -1 + -1.0 * 0])

    def test_all_zero_field(self):
        w = TriangleWindow(1, 1)
        f = Field(w, [np.zeros(3), np.zeros(2), np.zeros(1)])
        b, c = normal_equations(f, w)
        assert b == Matrix2(0, 0, 0, 0)
        assert_allclose(c, [0.0, 0.0])
        with pytest.raises(SingularDesignError):
            lse(f, w)

    def test_quadratic_scaling(self):
        p = ModelParams(0.35, 0.3)
        w = TriangleWindow.balanced(10)
        f = FieldSimulator(p, w).sample(RngStream(5, 0))
        b1, c1 = normal_equations(f, w)
        scaled = Field(w, [3.0 * layer for layer in f.values])
        b2, c2 = normal_equations(scaled, w)
        assert_allclose(b2.to_array(), 9.0 * b1.to_array(), rtol=1e-12)
        assert_allclose(c2, 9.0 * c1, rtol=1e-12)

    def test_window_mismatch_rejected(self):
        p = ModelParams(0.3, 0.3)
        w = TriangleWindow.balanced(8)
        f = FieldSimulator(p, w).sample(RngStream(5, 0))
        from spatialar import MissingValuesError

        with pytest.raises(MissingValuesError):
            normal_equations(f, TriangleWindow.balanced(6))


class TestLSE:
    def test_hand_solve(self):
        b = Matrix2(6, 3, 3, 6)
        c = np.array([-0.5, 0.5])
        theta = b.adjugate().to_array() @ c / b.det()
        assert_allclose(theta, [-1.0 / 6.0, 1.0 / 6.0])
        assert b.det() == 27

    def test_noiseless_recursion_recovery(self):
        p = ModelParams(0.3, 0.5)
        w = TriangleWindow(1, 1)
        f = deterministic_field(p, w, [1.0, 2.0, 3.0])
        est = lse(f, w)
        assert est.alpha_hat == pytest.approx(0.3, abs=1e-12)
        assert est.beta_hat == pytest.approx(0.5, abs=1e-12)
        assert_allclose(est.B.to_array(), [[6.69, 10.73], [10.73, 17.41]],
                        atol=1e-10)
        assert est.detB == pytest.approx(1.34, abs=1e-10)

    def test_single_point_window_singular(self):
        w = TriangleWindow(1, 0)
        f = deterministic_field(ModelParams(0.3, 0.2), w, [1.0, 2.0])
        with pytest.raises(SingularDesignError,
                           match=r"normal equations singular on window \(1, 0\): det = 0$"):
            lse(f, w)

    def test_scale_invariance(self):
        p = ModelParams(0.4, -0.3)
        w = TriangleWindow.balanced(12)
        f = FieldSimulator(p, w).sample(RngStream(6, 1))
        est1 = lse(f, w)
        scaled = Field(w, [-7.5 * layer for layer in f.values])
        est2 = lse(scaled, w)
        assert est2.alpha_hat == pytest.approx(est1.alpha_hat, abs=1e-12)
        assert est2.beta_hat == pytest.approx(est1.beta_hat, abs=1e-12)

    def test_exact_recovery_random_boundary(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            a, b = rng.uniform(-0.45, 0.45, 2)
            p = ModelParams(a, b)
            w = TriangleWindow.balanced(10)
            f = deterministic_field(p, w, rng.standard_normal(w.s + 1))
            est = lse(f, w)
            assert est.alpha_hat == pytest.approx(a, abs=1e-10)
            assert est.beta_hat == pytest.approx(b, abs=1e-10)

    def test_normal_equation_invariant(self):
        p = ModelParams(0.45, 0.45)
        w = TriangleWindow.balanced(20)
        f = FieldSimulator(p, w).sample(RngStream(8, 3))
        est = lse(f, w)
        resid = est.B.to_array() @ [est.alpha_hat, est.beta_hat] - est.cross
        assert np.max(np.abs(resid)) <= 1e-9 * max(np.max(np.abs(est.cross)), 1.0)

    def test_consistency_trend(self):
        p = ModelParams(0.3, 0.4)
        errs = {}
        for s in (16, 64):
            w = TriangleWindow.balanced(s)
            sim = FieldSimulator(p, w)
            norms = []
            for r in range(200):
                est = lse(sim.sample(RngStream(100 + s, r)), w)
                norms.append(math.hypot(est.alpha_hat - 0.3, est.beta_hat - 0.4))
            errs[s] = float(np.median(norms))
        assert errs[64] < errs[16]


class TestAccumulate:
    @pytest.mark.parametrize("dist", list(InnovationDist))
    @pytest.mark.parametrize("reps", [1, 5])
    @pytest.mark.parametrize("with_eps", [True, False], ids=["eps", "no_eps"])
    def test_buffer_equals_the_list_reference_bit_for_bit(self, dist, reps, with_eps):
        for s in range(1, 41):
            sim = FieldSimulator(ModelParams(0.45, 0.45), TriangleWindow.balanced(s),
                                 SimMethod(None), dist)
            layers = list(sim.sweep([RngStream(31, r) for r in range(reps)]))
            if not with_eps:
                layers = [(prev, y, None) for prev, y, _ in layers]
            got, ref = accumulate(iter(layers), s), accumulate_by_lists(iter(layers))
            # without innovations the sums stop at C: the reference's first 5 columns
            ref = ref if with_eps else ref[:, :5]
            assert got.shape == ref.shape == (reps, 7 if with_eps else 5)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64)), s

    def test_no_layers_give_one_row_of_zeros(self):
        got, ref = accumulate(iter([]), 0), accumulate_by_lists(iter([]))
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert got.shape == (1, 7)

    def test_layer_count_is_checked(self):
        sim = FieldSimulator(ModelParams(0.3, 0.4), TriangleWindow(2, 2))
        layers = list(sim.sweep([RngStream(1, 0)]))
        with pytest.raises(ValueError, match="told of 5 layers but given 4"):
            accumulate(iter(layers[:4]), 5)

    def test_lse_on_a_stored_field_allocates_little(self):
        # s = 512 as one batch of R = 1: the list-of-partials reduction
        # (fieldref) peaks at 653 KiB on this field, the in-place buffer of
        # 512 x 7 floats at 50 KiB
        w = TriangleWindow.balanced(512)
        fld = FieldSimulator(ModelParams(0.49, 0.49), w).sample(RngStream(8, 0))
        lse(fld, w)
        tracemalloc.start()
        try:
            lse(fld, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 192 * 1024


class TestSolve:
    def test_singular_rows_are_nan_and_regular_rows_match_lse(self):
        # a batch mixing all-zero sums and a B with det exactly 0 (B12^2 =
        # B11 B22) with the sums of sampled fields, whose rows must solve to
        # lse on the same field bit for bit
        p = ModelParams(0.45, 0.4)
        w = TriangleWindow.balanced(24)
        sim = FieldSimulator(p, w)
        fields = [sim.sample(RngStream(19, r)) for r in range(3)]
        layers = sim.sweep([RngStream(19, r) for r in range(3)])
        sampled = accumulate(((prev, y, None) for prev, y, _ in layers), w.s)
        zero, flat = np.zeros(5), np.array([4.0, 6.0, 9.0, 1.0, 2.0])
        sums = np.array([sampled[0], zero, sampled[1], flat, sampled[2]])
        theta, det, ok = solve(sums)
        assert theta.shape == (5, 2) and det.shape == ok.shape == (5,)
        assert ok.tolist() == [True, False, True, False, True]
        assert np.isnan(theta[~ok]).all() and det[1] == det[3] == 0.0
        for row, fld in zip((0, 2, 4), fields):
            est = lse(fld, w)
            got = [theta[row, 0], theta[row, 1], det[row]]
            assert np.array(got).tobytes() == np.array(
                [est.alpha_hat, est.beta_hat, est.detB]).tobytes()

    def test_score_columns_do_not_change_the_solve(self):
        sums = np.array([[6.0, 3.0, 6.0, -0.5, 0.5, 7.0, -7.0]])
        theta, det, ok = solve(sums)
        assert np.array_equal(theta, solve(sums[:, :5])[0])
        assert_allclose(theta, [[-1.0 / 6.0, 1.0 / 6.0]]) and det[0] == 27 and ok[0]


class TestScore:
    def test_zero_innovations(self):
        p = ModelParams(0.3, 0.5)
        w = TriangleWindow(2, 2)
        f = deterministic_field(p, w, [1.0, -1.0, 2.0, 0.5, -0.3])
        assert_allclose(score_vector(f, w), [0.0, 0.0])

    def test_missing_innovations(self):
        w = TriangleWindow(1, 1)
        f = Field(w, [np.ones(3), np.ones(2), np.ones(1)])
        with pytest.raises(MissingInnovationsError):
            score_vector(f, w)

    def test_score_identity(self):
        # A = C - B (alpha, beta)' exactly, by substituting the recursion
        p = ModelParams(0.45, -0.4)
        w = TriangleWindow.balanced(16)
        f = FieldSimulator(p, w).sample(RngStream(14, 2))
        b, c = normal_equations(f, w)
        a = score_vector(f, w)
        assert_allclose(a, c - b.to_array() @ [p.alpha, p.beta],
                        rtol=1e-10, atol=1e-9)

    def test_score_mean_zero(self):
        # martingale property: empirical mean within 4 standard errors of 0
        p = ModelParams(0.4, 0.4)
        w = TriangleWindow.balanced(64)
        sim = FieldSimulator(p, w)
        scores = np.empty((2000, 2))
        for r in range(2000):
            scores[r] = score_vector(sim.sample(RngStream(55, r)), w)
        se = scores.std(axis=0, ddof=1) / math.sqrt(len(scores))
        assert np.all(np.abs(scores.mean(axis=0)) <= 4.0 * se)
