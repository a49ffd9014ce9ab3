import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from spatialar import (
    BoundaryPoint,
    ConfigError,
    FieldSimulator,
    InnovationDist,
    MethodUnsupportedError,
    ModelParams,
    NearlyUnstableDesign,
    RngStream,
    Schedule,
    SimMethod,
    TriangleWindow,
    cov_closed,
    cumulant_tail_bound,
    sigma_sq,
    tail_variance_bound,
)
from spatialar.covariance import d_factor
from spatialar.simulate import _GROUP_LAYERS

from fieldref import deterministic_field, hull_covariance, hull_indices


class TestTailBound:
    def test_values(self):
        assert tail_variance_bound(0.5, 4) == pytest.approx(0.0013021, abs=1e-7)
        assert tail_variance_bound(0.5, 0) == pytest.approx(1.0 / 3.0)

    def test_monotone_in_margin(self):
        vals = [tail_variance_bound(0.7, m) for m in range(10)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestSimMethod:
    @pytest.mark.parametrize("margin", ["bogus", "boundary_series", 2.5, 3.0, "3",
                                        True, False, -1])
    def test_malformed_method_is_a_config_error(self, margin):
        with pytest.raises(ConfigError):
            SimMethod(margin)

    def test_numpy_integer_margin_is_accepted(self):
        assert SimMethod(np.int64(7)).margin == 7

    @pytest.mark.parametrize("text, margin", [
        ("boundary_cholesky", 0), ("boundary_series", None), ("boundary_series:7", 7)])
    def test_config_strings_name_the_depth(self, text, margin):
        method = SimMethod.parse(text)
        assert method == SimMethod(margin)
        assert method.describe() == text
        assert SimMethod.parse("boundary_series:0") == SimMethod(0)


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

    @pytest.mark.parametrize("seed, rep", [(0, 0), (5, 3), (2**40 + 1, 12345)])
    def test_stream_is_sfc64_keyed_by_spawn_key(self, seed, rep):
        # replication r's stream is child r of SeedSequence(master_seed)
        ours = RngStream(seed, rep).generator().standard_normal(6)
        keyed = np.random.SeedSequence(seed, spawn_key=(rep,))
        assert_array_equal(
            ours, np.random.Generator(np.random.SFC64(keyed)).standard_normal(6))
        child = np.random.SeedSequence(seed).spawn(rep + 1)[rep]
        assert_array_equal(
            ours, np.random.Generator(np.random.SFC64(child)).standard_normal(6))

    @pytest.mark.parametrize("n", [1, 8, 13, 1000])
    def test_signs_are_unpacked_bits_of_the_stream(self, n):
        signs = InnovationDist.RADEMACHER.draw(RngStream(7, 2).generator(), n)
        assert signs.dtype == np.float64 and signs.shape == (n,)
        assert np.all((signs == 1.0) | (signs == -1.0))
        assert_array_equal(signs, _signs(RngStream(7, 2).generator(), n))

    @pytest.mark.parametrize("dist", list(InnovationDist), ids=lambda d: d.value)
    def test_draw_into_row_matches_fresh_draw(self, dist):
        block = np.full((2, 9), np.nan)
        out = dist.draw(RngStream(3, 1).generator(), 9, out=block[1])
        assert np.shares_memory(out, block[1])
        assert_array_equal(block[1], dist.draw(RngStream(3, 1).generator(), 9))
        assert np.all(np.isnan(block[0]))


class TestSimulate:
    def test_determinism_bit_identical(self):
        p = ModelParams(0.4, 0.35)
        w = TriangleWindow.balanced(16)
        for method in (SimMethod(0),
                       SimMethod(20)):
            f1 = FieldSimulator(p, w, method).sample(RngStream(9, 4))
            f2 = FieldSimulator(p, w, method).sample(RngStream(9, 4))
            for a, b in zip(f1.values, f2.values):
                assert_array_equal(a, b)

    @pytest.mark.parametrize("dist", list(InnovationDist), ids=lambda d: d.value)
    def test_chunked_draws_continue_the_stream(self, dist):
        # normals and uniforms continue the stream across a split draw; each
        # Rademacher draw starts on a fresh byte, so its chunks are the signs
        # of whole bytes drawn chunk by chunk
        sizes = (7, 6, 1, 13)
        gen = RngStream(8, 1).generator()
        chunks = np.concatenate([dist.draw(gen, n) for n in sizes])
        ref = RngStream(8, 1).generator()
        if dist is InnovationDist.RADEMACHER:
            whole = np.concatenate([_signs(ref, n) for n in sizes])
        else:
            whole = dist.draw(ref, sum(sizes))
        assert_array_equal(chunks, whole)

    @pytest.mark.parametrize("dist, depth", [
        (InnovationDist.GAUSSIAN, 0), *[(dist, 5) for dist in InnovationDist],
    ], ids=lambda v: v.value if isinstance(v, InnovationDist) else f"depth{v}")
    def test_draw_layout_layer_by_layer(self, dist, depth):
        # the sweep draws the deep layer's normals, then the boundary layers
        # and the triangle as two spans; the boundary is the coloured deep
        # layer run up the recursion over the boundary span
        p, w = ModelParams(0.4, 0.3), TriangleWindow.balanced(21)
        sim = FieldSimulator(p, w, SimMethod(depth), dist)
        f = sim.sample(RngStream(4, 2))
        gen = RngStream(4, 2).generator()
        boundary = _boundary_reference(p, w, depth, dist, gen)
        assert np.max(np.abs(f.values[0] - boundary)) <= 1e-13 * np.max(np.abs(boundary))
        triangle = _layout_draws(dist, gen, w, 1, w.s)
        assert_array_equal(np.concatenate(f.innovations), np.concatenate(list(triangle.values())))

    @pytest.mark.parametrize("method, dist", [
        (SimMethod(0), InnovationDist.GAUSSIAN),
        *[(SimMethod(20), dist) for dist in InnovationDist],
    ], ids=lambda v: v.describe() if isinstance(v, SimMethod) else v.value)
    def test_group_size_does_not_change_the_draws(self, monkeypatch, method, dist):
        # _GROUP_LAYERS bounds memory only: at s = 21 and depth 20 the 20
        # boundary layers and 21 triangle layers span several groups at
        # every size but 50
        sim = FieldSimulator(ModelParams(0.4, 0.3), TriangleWindow.balanced(21), method, dist)
        outputs = set()
        for group in (1, 3, 8, 50):
            monkeypatch.setattr("spatialar.simulate._GROUP_LAYERS", group)
            f = sim.sample(RngStream(4, 2))
            outputs.add((np.concatenate(f.values).tobytes(),
                         np.concatenate(f.innovations).tobytes()))
        assert len(outputs) == 1

    @pytest.mark.parametrize("dist", list(InnovationDist), ids=lambda d: d.value)
    def test_sample_is_its_row_of_a_batched_sweep(self, dist):
        # sample colours its deep layer (s + 1 + M points) as a batch of one
        # row, by a loop over floats; a batch of 3 rows colours it column by
        # column.  On a wide window every layer of each row matches bit for
        # bit, at depth 0 for Gaussian innovations and at the law's default
        # depth otherwise
        w = TriangleWindow.balanced(301)
        sim = FieldSimulator(ModelParams(0.45, 0.4), w, SimMethod(None), dist)
        streams = [RngStream(12, r) for r in range(3)]
        layers = list(sim.sweep(streams))
        assert (sim.method.margin == 0) == (dist is InnovationDist.GAUSSIAN)
        for r, stream in enumerate(streams):
            f = sim.sample(stream)
            rows = [layers[0][0][r]] + [y[r] for _, y, _ in layers]
            assert np.concatenate(f.values).tobytes() == np.concatenate(rows).tobytes()
            assert (np.concatenate(f.innovations).tobytes()
                    == np.concatenate([eps[r] for _, _, eps in layers]).tobytes())

    def test_recursion_residual_boundary_cholesky(self):
        p = ModelParams(0.45, -0.35)
        w = TriangleWindow.balanced(24)
        f = FieldSimulator(p, w).sample(RngStream(1, 0))
        assert f.max_recursion_residual() <= 1e-10

    @pytest.mark.parametrize("dist", [InnovationDist.RADEMACHER,
                                      InnovationDist.UNIFORM_UNIT_VAR], ids=lambda d: d.value)
    def test_gaussian_required_for_cholesky(self, dist):
        # depth 0 (boundary_cholesky, or boundary_series:0) would draw the
        # whole boundary Gaussian
        p = ModelParams(0.4, 0.4)
        w = TriangleWindow.balanced(8)
        with pytest.raises(MethodUnsupportedError):
            FieldSimulator(p, w, SimMethod(0), dist)

    def test_zero_jitter_on_model_covariances(self):
        p = ModelParams(0.49, 0.49)
        sim = FieldSimulator(p, TriangleWindow.balanced(32))
        assert sim.boundary_jitter == 0.0

    def test_boundary_series_exact_recursion(self):
        p = ModelParams(0.45, 0.45)
        w = TriangleWindow.balanced(16)
        sim = FieldSimulator(p, w, SimMethod(None),
                             InnovationDist.RADEMACHER)
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


def _signs(gen, n):
    # the Rademacher layout: the first n bits of ceil(n / 8) random bytes
    bits = np.unpackbits(gen.integers(0, 256, (n + 7) // 8, dtype=np.uint8), count=n)
    return 2.0 * bits - 1.0


def _layout_draws(dist, gen, w, lowest, highest):
    # layers lowest .. highest as the sampler draws them: one draw of the
    # whole span, split into the layers in ascending order
    span = range(lowest, highest + 1)
    block = dist.draw(gen, sum(w.layer_len(d) for d in span))
    layers = {}
    for d in span:
        layers[d], block = block[:w.layer_len(d)], block[w.layer_len(d):]
    return layers


def _boundary_reference(p, w, depth, dist, gen):
    # the boundary as the layout defines it: the s + 1 + depth normals of
    # layer -depth coloured by the dense KMS factor, then the recursion run
    # up over the boundary span's draws
    y = TestKMSBoundary.kms_factor(p, w.s + depth) @ gen.standard_normal(w.s + 1 + depth)
    below = _layout_draws(dist, gen, w, 1 - depth, 0)
    for d in range(1 - depth, 1):
        y = p.alpha * y[:-1] + p.beta * y[1:] + below[d]
    return y


def _boundary_map(sim):
    # the boundary is linear in the deep layer's normals and the boundary
    # span's innovations: push every unit draw through the sampler's own
    # colouring and recursion.  Row r is the boundary that unit draw r
    # gives with every other draw zero (a unit innovation of layer d is
    # layer d's unit vector there); the first `normals` rows are the
    # Gaussian draws of layer -depth
    w, depth = sim.window, sim.method.margin
    rows = sim._colour(np.eye(w.layer_len(-depth)))
    normals = len(rows)
    for d in range(1 - depth, 1):
        rows = np.vstack([sim._step(rows, 0.0), np.eye(w.layer_len(d))])
    return rows, normals


class TestSeriesBoundary:
    """A boundary_series boundary is the coloured layer -M run up the
    recursion over the law's innovations, for a whole batch at once."""

    DISTS = [InnovationDist.RADEMACHER, InnovationDist.UNIFORM_UNIT_VAR]

    @pytest.mark.parametrize("margin", [1, 5, None])
    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.value)
    @pytest.mark.parametrize("p", [ModelParams(0.4, 0.35), ModelParams(0.45, -0.45)],
                             ids=str)
    def test_batched_boundary_matches_series(self, p, dist, margin):
        w = TriangleWindow.balanced(17)
        sim = FieldSimulator(p, w, SimMethod(margin), dist)
        margin = sim.method.margin
        streams = [RngStream(12, r) for r in (0, 3, 4)]
        batch = next(sim.sweep(streams))[0]
        assert batch.shape == (len(streams), w.s + 1)
        for row, st in zip(batch, streams):
            ref = _boundary_reference(p, w, margin, dist, st.generator())
            assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("s", [64, 181])
    @pytest.mark.parametrize("margin", [0, 50, None])
    def test_batch_draw_group_within_budget(self, s, margin):
        design = NearlyUnstableDesign(BoundaryPoint.from_pair(1.0, 0.0),
                                      Schedule.constant(2.0), Schedule.constant(1.0))
        p = design.params_at(32)
        # depth 0 is Gaussian only
        dist = InnovationDist.GAUSSIAN if margin == 0 else InnovationDist.RADEMACHER
        sim = FieldSimulator(p, TriangleWindow.balanced(s), SimMethod(margin),
                             dist)
        width = s + 1 + sim.method.margin
        assert sim.batch * _GROUP_LAYERS * width * 8 <= 1 << 20


# fourth cumulants E[x^4] - 3 of the unit-variance laws: a sign has
# E[x^4] = 1, a uniform on [-sqrt 3, sqrt 3] has E[x^4] = 9/5
KAPPA4 = {InnovationDist.RADEMACHER: -2.0, InnovationDist.UNIFORM_UNIT_VAR: -1.2}


def _fourth_power_weights(p, lowest, highest):
    # sum over layers d = lowest .. highest - 1 of sum_j w(d, j)^4,
    # w(d, j) = C(d, j) a^j b^(d - j): the weights of a boundary point on
    # the innovations of layer -d
    a, b = p.alpha, p.beta
    return sum((math.comb(d, j) * a ** j * b ** (d - j)) ** 4
               for d in range(lowest, highest) for j in range(d + 1))


class TestDeepStartLaw:
    """Exact moments of the boundary for a non-Gaussian law, read off the
    sampler's linear map from its draws: no Monte Carlo."""

    @pytest.mark.parametrize("depth", [1, 5, None])
    @pytest.mark.parametrize("dist", [InnovationDist.GAUSSIAN, InnovationDist.RADEMACHER],
                             ids=lambda d: d.value)
    @pytest.mark.parametrize("p", [ModelParams(0.4, 0.35), ModelParams(0.45, -0.45)],
                             ids=str)
    def test_boundary_covariance_is_exact_at_any_depth(self, p, dist, depth):
        # a Gaussian depth of None resolves to 0: the coloured layer alone
        w = TriangleWindow.balanced(8)
        sim = FieldSimulator(p, w, SimMethod(depth), dist)
        rows, _ = _boundary_map(sim)
        t = np.arange(w.s + 1)
        true = np.array([[cov_closed(p, int(u - v), int(v - u)) for v in t] for u in t])
        # every draw, normal or sign, has unit variance
        assert np.max(np.abs(rows.T @ rows - true)) <= 1e-12 * np.max(np.abs(true))

    @pytest.mark.parametrize("depth", [1, 5, None])
    @pytest.mark.parametrize("dist", list(KAPPA4), ids=lambda d: d.value)
    def test_boundary_fourth_cumulant(self, dist, depth):
        # kappa4 of a sum of independent draws is sum g^4 kappa4(draw); the
        # deep normals add none, so a boundary point carries the law's
        # weights of the layers above -depth only
        p, w = ModelParams(0.4, 0.35), TriangleWindow.balanced(8)
        sim = FieldSimulator(p, w, SimMethod(depth), dist)
        rows, normals = _boundary_map(sim)
        depth = sim.method.margin
        cumulant = KAPPA4[dist] * np.sum(rows[normals:] ** 4, axis=0)
        expected = KAPPA4[dist] * _fourth_power_weights(p, 0, depth)
        assert np.max(np.abs(cumulant - expected)) <= 1e-12 * abs(expected)
        # the layers left to the Gaussian start hold at most the certified tail
        tail = _fourth_power_weights(p, depth, depth + 200)
        assert tail <= cumulant_tail_bound(p, depth)

    @pytest.mark.parametrize("depth", [1, 2, 5, 20])
    @pytest.mark.parametrize("p", [ModelParams(0.4, 0.35), ModelParams(-0.6, 0.3),
                                   ModelParams(0.0, 0.7), ModelParams(0.0, 0.0)], ids=str)
    def test_cumulant_certificate_bounds_the_tail(self, p, depth):
        # brute-force tail sum_(d >= depth) sum_j w(d, j)^4, against the
        # certificate S4(depth) q^(4 depth) / (1 - q^4) and the cruder
        # q^(4 depth) / (1 - q^4) it sharpens
        tail = _fourth_power_weights(p, depth, depth + 400)
        cert = cumulant_tail_bound(p, depth)
        assert tail <= cert * (1 + 1e-12)
        assert cert <= tail_variance_bound(p.q * p.q, depth - 1)
        # S4(d) q^(4d) is the exact layer-d term
        layer = _fourth_power_weights(p, depth, depth + 1)
        assert cert * (1.0 - p.q ** 4) == pytest.approx(layer, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("m, s, depth", [(16, 64, 90), (32, 181, 187)])
    def test_resolved_depth_is_smallest_certified(self, m, s, depth):
        # the rungs of the clt_boundary_2w benchmark workload
        design = NearlyUnstableDesign(BoundaryPoint.from_pair(1.0, 0.0),
                                      Schedule.constant(2.0), Schedule.constant(1.0))
        p, w = design.params_at(m), TriangleWindow.balanced(s)
        sim = FieldSimulator(p, w, SimMethod(None), InnovationDist.RADEMACHER)
        assert sim.method.margin == depth
        assert cumulant_tail_bound(p, depth) <= 1e-12 < cumulant_tail_bound(p, depth - 1)
        gaussian = FieldSimulator(p, w, SimMethod(None), InnovationDist.GAUSSIAN)
        assert gaussian.method == SimMethod(0)


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
        t = np.arange(s + 1)
        dense = cov_closed(p, t[:, None] - t[None, :], t[None, :] - t[:, None])
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
        pts = hull_indices(w)
        true = hull_covariance(p, w)
        se = np.sqrt((cov_closed(p, 0, 0) ** 2 + true**2) / 10_000)
        sim = FieldSimulator(p, w, SimMethod(0))
        flat = np.empty((10_000, len(pts)))
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
        true = hull_covariance(p, w)
        assert np.max(np.abs(m @ m.T - true)) <= 1e-12 * np.max(np.abs(true))

    @pytest.mark.parametrize("depth", [1, 5])
    @pytest.mark.parametrize("dist", [InnovationDist.GAUSSIAN, InnovationDist.RADEMACHER],
                             ids=lambda d: d.value)
    @pytest.mark.parametrize("s", [4, 8])
    @pytest.mark.parametrize("p", [ModelParams(0.3, 0.45), ModelParams(0.45, -0.5),
                                   ModelParams(0.0, 0.6)], ids=str)
    def test_hull_law_exact_at_depth(self, p, s, dist, depth):
        # the whole hull is linear in a replication's draws, and every draw
        # has unit variance: continue _boundary_map's rows up the triangle
        # with the sampler's own _step, one unit row per triangle
        # innovation, and the hull covariance is G^T G
        w = TriangleWindow.balanced(s)
        sim = FieldSimulator(p, w, SimMethod(depth), dist)
        rows, _ = _boundary_map(sim)
        layers = [rows]
        for d in range(1, s + 1):
            rows = np.vstack([sim._step(rows, 0.0), np.eye(w.layer_len(d))])
            layers.append(rows)
        # draws after layer d do not reach it
        g = np.hstack([np.vstack([lay, np.zeros((len(rows) - len(lay), lay.shape[1]))])
                       for lay in layers])
        true = hull_covariance(p, w)
        assert np.max(np.abs(g.T @ g - true)) <= 1e-12 * np.max(np.abs(true))

    def test_non_gaussian_boundary_series_variance(self):
        p = ModelParams(0.4, 0.35)
        w = TriangleWindow.balanced(12)
        sim = FieldSimulator(p, w, SimMethod(None),
                             InnovationDist.RADEMACHER)
        reps = 6000
        vals = np.array([sim.sample(RngStream(3, r)).value(3, 3)
                         for r in range(reps)])
        s2 = sigma_sq(p)
        assert abs(vals.var(ddof=1) - s2) <= 5.0 * math.sqrt(2.0 / reps) * s2
