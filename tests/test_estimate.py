import math
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spatialar import (
    Field,
    FieldSimulator,
    InnovationDist,
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
from spatialar import estimate
from spatialar.estimate import _exact_sums, _field_sums, accumulate, solve
from spatialar.limits import _adjugate, _det

from fieldref import accumulate_by_lists, deterministic_field, kept_layers


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


class TestNormalEquations:
    def test_hand_summation(self):
        w, f = three_point_field([(1.0, 2.0), (2.0, 1.0), (1.0, -1.0)])
        b, c = normal_equations(f, w)
        assert_array_equal(b, [[6, 3], [3, 6]])
        # responses are the layer-1 values (1, -1) and the layer-2 value 0
        assert_allclose(c, [1.0 * 1 + 2.0 * -1 + 1.0 * 0,
                            2.0 * 1 + 1.0 * -1 + -1.0 * 0])

    def test_all_zero_field(self):
        w = TriangleWindow(1, 1)
        f = Field(w, [np.zeros(3), np.zeros(2), np.zeros(1)])
        b, c = normal_equations(f, w)
        assert_array_equal(b, [[0, 0], [0, 0]])
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
        assert_allclose(b2, 9.0 * b1, rtol=1e-12)
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
        b = np.array([[6.0, 3.0], [3.0, 6.0]])
        c = np.array([-0.5, 0.5])
        theta = _adjugate(b) @ c / _det(b)
        assert_allclose(theta, [-1.0 / 6.0, 1.0 / 6.0])
        assert _det(b) == 27

    def test_noiseless_recursion_recovery(self):
        p = ModelParams(0.3, 0.5)
        w = TriangleWindow(1, 1)
        f = deterministic_field(p, w, [1.0, 2.0, 3.0])
        est = lse(f, w)
        assert est.alpha_hat == pytest.approx(0.3, abs=1e-12)
        assert est.beta_hat == pytest.approx(0.5, abs=1e-12)
        assert_allclose(est.B, [[6.69, 10.73], [10.73, 17.41]],
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
        resid = est.B @ [est.alpha_hat, est.beta_hat] - est.cross
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
            layers = kept_layers(sim.sweep([RngStream(31, r) for r in range(reps)]))
            if not with_eps:
                layers = [(prev, y, None) for prev, y, _ in layers]
            got, ref = accumulate(iter(layers)), accumulate_by_lists(iter(layers))
            # without innovations the sums stop at C: the reference's first 5 columns
            ref = ref if with_eps else ref[:, :5]
            assert got.shape == ref.shape == (reps, 7 if with_eps else 5)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64)), s

    def test_no_layers_raise(self):
        with pytest.raises(ValueError, match="^accumulate was given 0 layers, not the s >= 1"):
            accumulate(iter([]))

    def test_layer_count_is_checked(self):
        # layer 0 of T(2, 2) has 5 points, so s = 4
        sim = FieldSimulator(ModelParams(0.3, 0.4), TriangleWindow(2, 2))
        layers = kept_layers(sim.sweep([RngStream(1, 0)]))
        assert accumulate(iter(layers)).shape == (1, 7)
        with pytest.raises(ValueError, match="^accumulate was given 3 layers, not the s >= 1"):
            accumulate(iter(layers[:3]))
        # past the apex: the next prev is layer 4's one point
        apex = layers[-1][1]
        past = (apex, apex[:, 1:], None)
        with pytest.raises(ValueError, match="^accumulate was given more than the 4 layers "
                                             "that layer 0's 5 points fix$"):
            accumulate(iter([*layers, past]))
        # a first layer of one point leaves no layer below the apex
        with pytest.raises(ValueError, match="more than the 0 layers"):
            accumulate(iter([past]))

    def test_an_empty_batch_gives_no_rows(self):
        # a sweep of no streams yields (0, .) layers; the sums used to come
        # back as shape (0,), on which solve raised IndexError
        sim = FieldSimulator(ModelParams(0.3, 0.4), TriangleWindow.balanced(6))
        assert accumulate(sim.sweep([])).shape == (0, 7)
        sums = accumulate((prev, y, None) for prev, y, _ in sim.sweep([]))
        assert sums.shape == (0, 5)
        theta, det, ok = solve(sums)
        assert (theta.shape, det.shape, ok.shape) == ((0, 2), (0,), (0,))

    @pytest.mark.parametrize("dist", list(InnovationDist))
    @pytest.mark.parametrize("with_eps", [True, False], ids=["eps", "no_eps"])
    def test_field_sums_equal_a_one_row_accumulate_bit_for_bit(self, dist, with_eps):
        # the stored-field loop against accumulate on the same layers as
        # (1, n) rows; normal_equations and score_vector are its columns
        for s in [*range(1, 41), 512]:
            w = TriangleWindow.balanced(s)
            fld = FieldSimulator(ModelParams(0.45, 0.45), w, SimMethod(None),
                                 dist).sample(RngStream(37, s))
            got = _field_sums(fld, w, with_eps)
            ref = accumulate(one_row_layers(fld, with_eps))[0]
            assert got.shape == ref.shape == (7 if with_eps else 5,)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64)), s
            b, c = normal_equations(fld, w)
            b11, b12, b22, c1, c2 = ref[:5]
            assert np.array([[b11, b12], [b12, b22], [c1, c2]]).tobytes() == np.vstack(
                [b, c]).tobytes(), s
            if with_eps:
                assert score_vector(fld, w).tobytes() == ref[5:].tobytes(), s

    def test_field_sums_on_strided_layers_equal_accumulate(self):
        # float64 layers that are views with stride 2: the dot products run
        # BLAS on the strided memory in both loops
        w = TriangleWindow.balanced(64)
        fld = FieldSimulator(ModelParams(0.45, 0.4), w).sample(RngStream(38, 0))

        def strided(layer):
            big = np.zeros(2 * len(layer))
            big[::2] = layer
            return big[::2]

        views = Field(w, [strided(v) for v in fld.values], [strided(e) for e in fld.innovations])
        assert not views.values[1].flags.c_contiguous
        for with_eps in (True, False):
            got = _field_sums(views, w, with_eps)
            ref = accumulate(one_row_layers(views, with_eps))[0]
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_lse_on_a_stored_field_allocates_little(self):
        # s = 512 as one batch of R = 1: the list-of-partials reduction
        # (fieldref) peaks at 653 KiB on this field, the in-place buffer of
        # 512 x 7 floats at 45 KiB
        assert lse_peak(512) < 192 * 1024

    def test_lse_allocation_grows_by_the_buffer_alone(self):
        # s = 2048: the (s, 7) buffer and one column's floats at a time
        # peak near 177 KiB; collecting the partials in Python lists of
        # floats peaks near 461 KiB
        assert lse_peak(2048) < 256 * 1024


def one_row_layers(fld: Field, with_eps: bool):
    """A stored field's (prev, y, eps) layers as ``accumulate``'s (1, n) rows."""
    v = fld.values
    return ((v[d - 1][None], v[d][None], fld.innovations[d - 1][None] if with_eps else None)
            for d in range(1, fld.window.s + 1))


def lse_peak(s: int) -> int:
    """tracemalloc's peak over one ``lse`` on a sampled field at s."""
    w = TriangleWindow.balanced(s)
    fld = FieldSimulator(ModelParams(0.49, 0.49), w).sample(RngStream(8, 0))
    lse(fld, w)
    tracemalloc.start()
    try:
        lse(fld, w)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fsum_outcome(parts: np.ndarray):
    """``math.fsum`` of each column of a partials buffer in the finisher's
    output layout, or the first exception it raises in output order."""
    try:
        if parts.ndim == 2:
            return np.array([math.fsum(col.tolist()) for col in parts.T])
        return np.array([[math.fsum(parts[:, k, r].tolist()) for k in range(parts.shape[1])]
                         for r in range(parts.shape[2])]).reshape(parts.shape[2], parts.shape[1])
    except (ValueError, OverflowError) as exc:
        return exc


def finisher_outcome(parts: np.ndarray):
    """``_exact_sums`` of the buffer, or the exception it raises, with every
    warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return _exact_sums(parts)
        except (ValueError, OverflowError) as exc:
            return exc


def assert_same_outcome(parts: np.ndarray) -> None:
    got, ref = finisher_outcome(parts), fsum_outcome(parts)
    if isinstance(ref, Exception):
        assert type(got) is type(ref) and got.args == ref.args
    else:
        assert got.shape == ref.shape and got.flags.c_contiguous
        assert got.tobytes() == ref.tobytes()


# floats of every binade, subnormals and signed zeros included, and the
# values that make exact half-ulp ties next to 1.0
_PARTIALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1080, 1000)),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 2.0 ** -53, -(2.0 ** -53), 2.0 ** -106,
                     2.0 ** -1074, 2.0 ** -1022]),
)


class TestExactSums:
    @settings(max_examples=200, deadline=None)
    @given(s=st.one_of(st.integers(0, 3), st.integers(4, 33), st.sampled_from([64, 65])),
           shape=st.sampled_from([(1,), (3,), (2, 3)]), data=st.data(),
           mirror=st.booleans(), slab=st.sampled_from([1, 4, 1 << 14]))
    def test_equals_fsum_bit_for_bit(self, s, shape, data, mirror, slab):
        # mirror appends the negated partials in another order: heavy
        # cancellation whose sum is the few partials after them; a slab
        # of one partial finishes a column at a time
        n = math.prod(shape)
        flat = np.array(data.draw(st.lists(_PARTIALS, min_size=s * n, max_size=s * n)),
                        dtype=float).reshape(s, n)
        if mirror:
            perm = data.draw(st.permutations(range(s)))
            tail = np.array(data.draw(st.lists(_PARTIALS, min_size=n, max_size=n)))
            flat = np.vstack([flat, -flat[list(perm)], tail[None]])
        with mock.patch.object(estimate, "_SLAB_FLOATS", slab):
            assert_same_outcome(flat.reshape(flat.shape[0], *shape))

    def test_sampled_partials_need_no_fsum(self):
        # a clt-sized batch of B, C and score partials is certified whole
        sim = FieldSimulator(ModelParams(0.49, 0.49), TriangleWindow.balanced(128))
        streams = [RngStream(3, r) for r in range(8)]
        with mock.patch("math.fsum", wraps=math.fsum) as fsum:
            got = accumulate(sim.sweep(streams))
        assert fsum.call_count == 0
        ref = accumulate_by_lists(kept_layers(sim.sweep(streams)))
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("rows", [2, 3, 8])
    def test_an_uncertain_column_falls_back_to_fsum(self, rows):
        # 1 + 2^-54 sits a quarter ulp above 1.0, and 1 + 2^-53 (+ 2^-106)
        # on or just past a tie: the bound cannot tell either from a tie,
        # so those two columns go to fsum and the half-integers do not
        parts = np.zeros((rows, 3))
        parts[:2, 0] = [1.0, 2.0 ** -54]
        parts[:, 1] = np.arange(rows) + 0.5
        parts[:, 2] = [1.0, 2.0 ** -53, 2.0 ** -106, *[0.0] * (rows - 3)][:rows]
        with mock.patch("math.fsum", wraps=math.fsum) as fsum:
            got = _exact_sums(parts)
        assert fsum.call_count == 2
        assert got.tolist() == [1.0, rows * rows / 2, 1.0 + 2.0 ** -52 if rows > 2 else 1.0]
        assert_same_outcome(parts)

    @pytest.mark.parametrize("column", [
        [1.0, math.nan, 2.0],
        [1.0, math.inf, -3.0],
        [-math.inf, 1.0, -math.inf],
        [math.inf, 1.0, -math.inf],
        [1e308, 1e308, -1e308],
        [2.0 ** 1000, -(2.0 ** 1000), 1.0],
        [1e300, 0.0, sys.float_info.max, -1e300, 0.0],
    ], ids=["nan", "inf", "minus_inf", "inf_minus_inf", "overflow", "near_overflow",
            "overflow_at_the_middle_row"])
    def test_non_finite_and_overflowing_columns_match_fsum(self, column):
        # fsum's value (nan, inf) or its exception (ValueError for inf -
        # inf, OverflowError for an intermediate overflow), with no
        # RuntimeWarning; the batch's other columns are unaffected.  The
        # last column pairs 1e300 with -1e300 and leaves max in the middle,
        # where fsum overflows on 1e300 + max
        parts = np.column_stack([0.5 ** np.arange(1, len(column) + 1), column])
        assert_same_outcome(parts)
        assert_same_outcome(np.stack([parts, parts[:, ::-1]], axis=2))

    def test_the_first_failing_column_in_output_order_raises(self):
        # (R, K) output order: replication 0's overflow comes before
        # replication 1's inf - inf, although its column is later in memory
        parts = np.zeros((3, 2, 2))
        parts[:, 1, 0] = [1e308, 1e308, -1e308]
        parts[:, 0, 1] = [math.inf, 1.0, -math.inf]
        with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
            _exact_sums(parts)
        assert_same_outcome(parts)

    def test_temporaries_stay_below_half_the_buffer(self):
        # a clt_interior batch, s = 256 and R = 63: the finisher's own peak
        # allocation, output included, against the (256, 5, 63) buffer
        parts = np.random.default_rng(5).standard_normal((256, 5, 63)) ** 2
        _exact_sums(parts)
        tracemalloc.start()
        try:
            _exact_sums(parts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= parts.nbytes // 2


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
        sampled = accumulate((prev, y, None) for prev, y, _ in layers)
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
        assert_allclose(a, c - b @ [p.alpha, p.beta],
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
