import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from spatialar import (
    BoundaryPoint,
    CovKernel,
    FieldSimulator,
    InnovationDist,
    MethodUnsupportedError,
    ModelParams,
    NearlyUnstableDesign,
    RngStream,
    Schedule,
    SimMethod,
    TriangleWindow,
    deterministic_field,
    hull_indices,
    sigma_sq,
    tail_variance_bound,
)
from spatialar.covariance import d_factor
from spatialar.simulate import _GROUP_LAYERS, batch_size


class TestTailBound:
    def test_values(self):
        assert tail_variance_bound(0.5, 4) == pytest.approx(0.0013021, abs=1e-7)
        assert tail_variance_bound(0.5, 0) == pytest.approx(1.0 / 3.0)

    def test_monotone_in_margin(self):
        vals = [tail_variance_bound(0.7, m) for m in range(10)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestDraws:
    def test_innovation_moments(self):
        gen = RngStream(123, 0).generator()
        for dist in InnovationDist:
            x = dist.draw(gen, 200_000)
            assert abs(x.mean()) < 0.02
            assert abs(x.var() - 1.0) < 0.02

    def test_streams_differ_across_replications(self):
        a = RngStream(5, 0).generator().standard_normal(4)
        b = RngStream(5, 1).generator().standard_normal(4)
        assert not np.allclose(a, b)

    def test_stream_is_reproducible(self):
        a = RngStream(5, 3).generator().standard_normal(4)
        b = RngStream(5, 3).generator().standard_normal(4)
        assert_array_equal(a, b)


class TestSimulate:
    def test_determinism_bit_identical(self):
        p = ModelParams(0.4, 0.35)
        w = TriangleWindow.balanced(16)
        for method in (SimMethod.boundary_cholesky(),
                       SimMethod.boundary_series(20)):
            f1 = FieldSimulator(p, w, method).sample(RngStream(9, 4))
            f2 = FieldSimulator(p, w, method).sample(RngStream(9, 4))
            for a, b in zip(f1.values, f2.values):
                assert_array_equal(a, b)

    @pytest.mark.parametrize("dist", list(InnovationDist), ids=lambda d: d.value)
    def test_chunked_draws_continue_the_stream(self, dist):
        # the samplers split the layout's draws into chunks of any size
        gen = RngStream(8, 1).generator()
        chunks = [dist.draw(gen, n) for n in (7, 6, 1, 13)]
        whole = dist.draw(RngStream(8, 1).generator(), 27)
        assert_array_equal(np.concatenate(chunks), whole)

    @pytest.mark.parametrize("dist", list(InnovationDist), ids=lambda d: d.value)
    def test_draw_layout_layer_by_layer(self, dist):
        # the sweep draws the series layers and the triangle in groups of
        # layers; both must equal the layout's draws, and the series
        # boundary is the recursion run up from layer -margin over them
        p, w, margin = ModelParams(0.4, 0.3), TriangleWindow.balanced(21), 5
        gaussian = dist is InnovationDist.GAUSSIAN
        method = (SimMethod.boundary_cholesky() if gaussian
                  else SimMethod.boundary_series(margin))
        sim = FieldSimulator(p, w, method, dist)
        f = sim.sample(RngStream(4, 2))
        gen = RngStream(4, 2).generator()
        if gaussian:
            gen.standard_normal(w.s + 1)
        else:
            below = {d: dist.draw(gen, w.layer_len(d)) for d in range(-margin, 1)}
            drawn = dict(sim._layers([RngStream(4, 2).generator()], -margin, 0))
            assert drawn.keys() == below.keys()
            for d, eps in drawn.items():
                assert_array_equal(eps[0], below[d])
            y = below[-margin]
            for d in range(-margin + 1, 1):
                y = p.alpha * y[:-1] + p.beta * y[1:] + below[d]
            assert_array_equal(f.values[0], y)
            series = _series_reference(p, margin, below)
            assert np.max(np.abs(f.values[0] - series)) <= 1e-13 * np.max(np.abs(series))
        assert_array_equal(np.concatenate(f.innovations), dist.draw(gen, w.n_triangle))

    def test_recursion_residual_boundary_cholesky(self):
        p = ModelParams(0.45, -0.35)
        w = TriangleWindow.balanced(24)
        f = FieldSimulator(p, w).sample(RngStream(1, 0))
        assert f.max_recursion_residual() <= 1e-10

    def test_gaussian_required_for_cholesky(self):
        p = ModelParams(0.4, 0.4)
        w = TriangleWindow.balanced(8)
        with pytest.raises(MethodUnsupportedError):
            FieldSimulator(p, w, SimMethod.boundary_cholesky(), InnovationDist.RADEMACHER)

    def test_zero_jitter_on_model_covariances(self):
        p = ModelParams(0.49, 0.49)
        sim = FieldSimulator(p, TriangleWindow.balanced(32))
        assert sim.boundary_jitter == 0.0

    def test_boundary_series_exact_recursion(self):
        p = ModelParams(0.45, 0.45)
        w = TriangleWindow.balanced(16)
        sim = FieldSimulator(p, w, SimMethod.boundary_series(),
                             InnovationDist.RADEMACHER)
        assert tail_variance_bound(p.q, sim.method.margin) <= 1e-12
        f = sim.sample(RngStream(2, 7))
        assert f.max_recursion_residual() <= 1e-10

    def test_deterministic_field_matches_hand_recursion(self):
        p = ModelParams(0.3, 0.5)
        w = TriangleWindow(1, 1)
        f = deterministic_field(p, w, [1.0, 2.0, 3.0])
        assert f.value(0, 1) == pytest.approx(1.3)
        assert f.value(1, 0) == pytest.approx(2.1)
        assert f.value(1, 1) == pytest.approx(1.44)
        assert f.max_recursion_residual() <= 1e-15


def _series_reference(p, margin, below):
    # the boundary as the term-by-term truncated series over the same draws,
    # sum_t (a S_0 + b S_1)^t eps[-t]: term t correlates layer -t with the
    # coefficients C(t, r) a^(t-r) b^r of (a + b z)^t
    a, b = p.alpha, p.beta
    out = 0.0
    for t in range(margin + 1):
        coef = np.array([math.comb(t, r) * a ** (t - r) * b ** r for r in range(t + 1)])
        out = out + np.correlate(below[-t], coef, mode="valid")
    return out


class TestSeriesBoundary:
    """The boundary_series boundary is the truncated moving-average series,
    evaluated for a whole batch by running the recursion up from -margin."""

    DISTS = [InnovationDist.RADEMACHER, InnovationDist.UNIFORM_UNIT_VAR]

    @pytest.mark.parametrize("margin", [0, 1, 5, None])
    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.value)
    @pytest.mark.parametrize("p", [ModelParams(0.4, 0.35), ModelParams(0.45, -0.45)],
                             ids=str)
    def test_batched_boundary_matches_series(self, p, dist, margin):
        w = TriangleWindow.balanced(17)
        sim = FieldSimulator(p, w, SimMethod.boundary_series(margin), dist)
        margin = sim.method.margin
        streams = [RngStream(12, r) for r in (0, 3, 4)]
        batch = sim._boundaries([st.generator() for st in streams])
        assert batch.shape == (len(streams), w.s + 1)
        for row, st in zip(batch, streams):
            gen = st.generator()
            below = {d: dist.draw(gen, w.layer_len(d)) for d in range(-margin, 1)}
            series = _series_reference(p, margin, below)
            assert np.max(np.abs(row - series)) <= 1e-13 * np.max(np.abs(series))

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.value)
    def test_margin_zero_is_own_innovation_layer(self, dist):
        p, w = ModelParams(0.4, 0.3), TriangleWindow.balanced(10)
        sim = FieldSimulator(p, w, SimMethod.boundary_series(0), dist)
        f = sim.sample(RngStream(6, 1))
        assert_array_equal(f.values[0], dist.draw(RngStream(6, 1).generator(), w.s + 1))

    @pytest.mark.parametrize("s", [64, 181])
    @pytest.mark.parametrize("margin", [0, 50, None])
    def test_batch_draw_group_within_budget(self, s, margin):
        design = NearlyUnstableDesign(BoundaryPoint.from_pair(1.0, 0.0),
                                      Schedule.constant(2.0), Schedule.constant(1.0))
        p = design.params_at(32)
        method = SimMethod.boundary_series(margin)
        width = s + 1 + FieldSimulator(p, TriangleWindow.balanced(s), method,
                                       InnovationDist.RADEMACHER).method.margin
        assert batch_size(method, s, p) * _GROUP_LAYERS * width * 8 <= 1 << 20

    def test_default_margin_needs_params(self):
        with pytest.raises(ValueError):
            batch_size(SimMethod.boundary_series(), 64)


def _near_unstable_2048():
    design = NearlyUnstableDesign(BoundaryPoint.from_pair(0.5, 0.5),
                                  Schedule.constant(1.0), Schedule.constant(1.0))
    return design.params_at(2048)


class TestKMSBoundary:
    """The boundary covariance R(t - t', -(t - t')) = sigma^2 D^|t - t'| is a
    Kac-Murdock-Szego matrix with an explicit Cholesky factor."""

    POINTS = [ModelParams(0.25, 0.25), ModelParams(0.3, -0.45),
              ModelParams(0.0, 0.6), _near_unstable_2048()]

    @staticmethod
    def kms_factor(p, s):
        d, sig = d_factor(p), math.sqrt(sigma_sq(p))
        t = np.arange(s + 1)
        lag = t[:, None] - t[None, :]
        fac = sig * np.where(lag >= 0, d ** np.maximum(lag, 0), 0.0)
        fac[:, 1:] *= math.sqrt(1.0 - d * d)
        return fac

    @pytest.mark.parametrize("s", [1, 2, 16, 64])
    @pytest.mark.parametrize("p", POINTS, ids=str)
    def test_factor_matches_dense_cholesky(self, p, s):
        kern = CovKernel(p)
        t = np.arange(s + 1)
        dense = np.array([[kern.R(int(u - v), -int(u - v)) for v in t] for u in t])
        fac = self.kms_factor(p, s)
        chol = np.linalg.cholesky(dense)
        assert np.max(np.abs(fac - chol)) <= 1e-12 * np.max(np.abs(chol))

    @pytest.mark.parametrize("s", [1, 2, 16, 64])
    @pytest.mark.parametrize("p", POINTS, ids=str)
    def test_boundary_draw_is_factor_times_normals(self, p, s):
        stream = RngStream(31, s)
        z = stream.generator().standard_normal(s + 1)
        boundary = FieldSimulator(p, TriangleWindow.balanced(s)).sample(stream).values[0]
        expected = self.kms_factor(p, s) @ z
        assert np.max(np.abs(boundary - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestLawCorrectness:
    def test_point_variance_matches_stationary_variance(self):
        # sample variance of a fixed triangle point over many replications
        p = ModelParams(0.25, 0.25)
        w = TriangleWindow.balanced(24)
        sim = FieldSimulator(p, w)
        reps = 20_000
        vals = np.empty(reps)
        for r in range(reps):
            vals[r] = sim.sample(RngStream(77, r)).value(5, 5)
        s2 = sigma_sq(p)
        tol = 3.0 * math.sqrt(2.0 / reps) * s2
        assert abs(vals.var(ddof=1) - s2) <= tol

    def test_boundary_independent_of_triangle_innovations(self):
        # empirical covariance within 4 standard errors of zero
        p = ModelParams(0.4, 0.4)
        w = TriangleWindow.balanced(8)
        sim = FieldSimulator(p, w)
        reps = 10_000
        bnd = np.empty(reps)
        eps = np.empty((reps, 3))
        for r in range(reps):
            f = sim.sample(RngStream(13, r))
            bnd[r] = f.values[0][2]
            eps[r] = [f.innovations[0][0], f.innovations[2][1], f.innovations[5][0]]
        se = math.sqrt(sigma_sq(p) / reps)
        cov = (bnd - bnd.mean()) @ (eps - eps.mean(axis=0)) / (reps - 1)
        assert np.all(np.abs(cov) <= 4.0 * se)

    def test_method_equivalence_hull_covariance(self):
        # the exact Gaussian sampler reproduces every covariance entry
        p = ModelParams(0.3, 0.45)
        w = TriangleWindow.balanced(8)
        kern = CovKernel(p)
        pts = hull_indices(w)
        true = np.array([[kern.R(i1 - i2, j1 - j2) for i2, j2 in pts]
                         for i1, j1 in pts])
        se = np.sqrt((kern.R(0, 0) ** 2 + true**2) / 10_000)
        sim = FieldSimulator(p, w, SimMethod.boundary_cholesky())
        flat = np.empty((10_000, w.n_hull))
        for r in range(10_000):
            flat[r] = np.concatenate(sim.sample(RngStream(21, r)).values)
        emp = flat.T @ flat / len(flat)
        assert np.all(np.abs(emp - true) <= 5.0 * se)

    @pytest.mark.parametrize("s", [1, 4, 8])
    @pytest.mark.parametrize("p", [ModelParams(0.3, 0.45), ModelParams(0.45, -0.5),
                                   ModelParams(0.0, 0.6)], ids=str)
    def test_hull_law_exact(self, p, s):
        # the hull is linear in (boundary normals, triangle innovations): push
        # each column of the boundary factor (zero innovations) and each unit
        # innovation (zero boundary) through the recursion; those fields are
        # the columns of M, and the sampler's hull covariance is M M^T
        w = TriangleWindow.balanced(s)
        zeros = [np.zeros(w.layer_len(d)) for d in range(1, s + 1)]
        cols = [deterministic_field(p, w, col, zeros).values
                for col in TestKMSBoundary.kms_factor(p, s).T]
        for d in range(1, s + 1):
            for i in range(w.layer_len(d)):
                unit = [z.copy() for z in zeros]
                unit[d - 1][i] = 1.0
                cols.append(deterministic_field(p, w, np.zeros(s + 1), unit).values)
        m = np.column_stack([np.concatenate(values) for values in cols])
        kern = CovKernel(p)
        pts = hull_indices(w)
        true = np.array([[kern.R(i1 - i2, j1 - j2) for i2, j2 in pts]
                         for i1, j1 in pts])
        assert np.max(np.abs(m @ m.T - true)) <= 1e-12 * np.max(np.abs(true))

    def test_non_gaussian_boundary_series_variance(self):
        p = ModelParams(0.4, 0.35)
        w = TriangleWindow.balanced(12)
        sim = FieldSimulator(p, w, SimMethod.boundary_series(),
                             InnovationDist.RADEMACHER)
        reps = 6000
        vals = np.array([sim.sample(RngStream(3, r)).value(3, 3)
                         for r in range(reps)])
        s2 = sigma_sq(p)
        assert abs(vals.var(ddof=1) - s2) <= 5.0 * math.sqrt(2.0 / reps) * s2
