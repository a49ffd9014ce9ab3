"""Sign-flip identities of the planar AR(1,1) field, checked bit for bit.

With sigma_j = (-1)^j, the field sigma_j X(i, j) solves the recursion at
(alpha, -beta) driven by sigma_j eps(i, j), and (-1)^(i+j) X(i, j) solves it
at (-alpha, -beta).  Hence:

* R at (alpha, -beta) is (-1)^l times R at (alpha, beta), and R at
  (-alpha, -beta) is (-1)^(k+l) times R at (alpha, beta) (checked on the
  binomial representation, whose quadrant k l >= 0 it maps to itself);
* the recursion, the AR(1) colouring of a layer (D -> -D) and ``lse`` map
  the same way: every flipped quantity is a sum of exactly negated
  products, and IEEE negation is exact.

The series routes (F4, the binomial representation, the oracle), the
recursion and ``lse`` keep the identities bit for bit at any stable
parameters.  The closed form and the colouring read sigma^2 and D, whose
four-factor product sigma^-4 = (1+a+b)(1+a-b)(1-a+b)(1-a-b) is multiplied
as two pairs that a sign change of alpha or beta only swaps, so they keep
the identities bit for bit too, also where a left-to-right product rounds
differently at beta and -beta (the untidy parameters below).
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from spatialar import (
    FieldSimulator,
    InnovationDist,
    ModelParams,
    RngStream,
    SimMethod,
    TriangleWindow,
    cov_binrep,
    cov_closed,
    cov_f4,
    cov_series_oracle,
    lse,
    oracle_margin,
    sigma_sq,
)
from spatialar.covariance import d_factor
from spatialar.model import Field

from fieldref import deterministic_field

LAGS = np.arange(-5, 6)
K, L = np.repeat(LAGS, LAGS.size), np.tile(LAGS, LAGS.size)  # the 11 x 11 lag box
SAME = K * L >= 0
# a left-to-right product of sigma^-4's four factors rounds the same with
# beta and -beta at these
TIDY = [(0.3, 0.45), (0.45, 0.2)]
# and differently at these
UNTIDY = [(-0.6, 0.1429), (-0.5629, -0.2941), (-0.5629, 0.0555)]


def parity(n):
    return np.where(np.asarray(n) % 2, -1.0, 1.0)


def left_to_right_sigma_sq(a, b):
    return ((1 + a + b) * (1 + a - b) * (1 - a + b) * (1 - a - b)) ** -0.5


def test_sigma_and_d_flip_exactly_with_either_sign():
    # sigma^2 is the same and D flips at (+-alpha, +-beta), at the untidy
    # parameters, where the left-to-right product does not, and at random
    # stable pairs
    for a, b in UNTIDY:
        assert left_to_right_sigma_sq(a, -b) != left_to_right_sigma_sq(a, b)
    rng = np.random.default_rng(24)
    pairs = rng.uniform(-1, 1, (4000, 2))
    pairs = pairs[np.abs(pairs).sum(axis=1) < 1].tolist()
    assert len(pairs) > 1500
    for a, b in TIDY + UNTIDY + pairs:
        sig, d = sigma_sq(ModelParams(a, b)), d_factor(ModelParams(a, b))
        for fa, fb in ((1, -1), (-1, 1), (-1, -1)):
            flipped = ModelParams(fa * a, fb * b)
            assert sigma_sq(flipped) == sig
            assert d_factor(flipped) == fa * fb * d


@pytest.mark.parametrize("a, b", TIDY + UNTIDY)
@pytest.mark.parametrize("route", ["f4", "oracle"])
def test_series_routes_flip_with_the_column_parity(a, b, route):
    p, flipped = ModelParams(a, b), ModelParams(a, -b)
    if route == "f4":
        got, ref = cov_f4(flipped, K, L), cov_f4(p, K, L)
    else:
        margin = oracle_margin(p.q, 1e-12)
        got, ref = cov_series_oracle(flipped, K, L, margin), cov_series_oracle(p, K, L, margin)
    assert_array_equal(got, parity(L) * ref)


@pytest.mark.parametrize("a, b", TIDY + UNTIDY)
def test_binrep_flips_with_the_lag_parity(a, b):
    k, l = K[SAME], L[SAME]
    got = cov_binrep(ModelParams(-a, -b), k, l)
    assert_array_equal(got, parity(k + l) * cov_binrep(ModelParams(a, b), k, l))


@pytest.mark.parametrize("a, b", TIDY + UNTIDY)
def test_closed_form_flips_with_the_column_parity(a, b):
    got = cov_closed(ModelParams(a, -b), K, L)
    assert_array_equal(got, parity(L) * cov_closed(ModelParams(a, b), K, L))


@pytest.mark.parametrize("a, b", TIDY + UNTIDY)
@pytest.mark.parametrize("rows", [1, 3])
def test_colouring_flips_with_the_point_parity(a, b, rows):
    # the layer's point t has j = l - t, so sigma_j is (-1)^t up to one sign
    # for the layer; one row runs the Python-float loop, three the columns
    z = np.random.default_rng(7).standard_normal((rows, 41))
    t_sign = parity(np.arange(41))
    w = TriangleWindow(20, 20)
    plain = FieldSimulator(ModelParams(a, b), w)._colour(z.copy())
    flipped = FieldSimulator(ModelParams(a, -b), w)._colour(z * t_sign)
    assert_array_equal(flipped, plain * t_sign)


def column_signs(w: TriangleWindow, d: int) -> np.ndarray:
    """sigma_j at the points of layer d: entry p has j = l - p."""
    return parity(w.l - np.arange(w.layer_len(d)))


def flip(field: Field, params: ModelParams) -> Field:
    w = field.window
    return Field(w, [v * column_signs(w, d) for d, v in enumerate(field.values)],
                 [e * column_signs(w, d) for d, e in enumerate(field.innovations, 1)],
                 params)


DISTS = [InnovationDist.GAUSSIAN, InnovationDist.RADEMACHER,
         InnovationDist.UNIFORM_UNIT_VAR]


@pytest.mark.parametrize("a, b", TIDY + UNTIDY)
@pytest.mark.parametrize("window", [TriangleWindow(7, 10), TriangleWindow.balanced(64)],
                         ids=["7x10", "s64"])
def test_sweep_is_the_reference_recursion_and_flips_with_it(a, b, window):
    # the sampler's field is the reference recursion of its own boundary and
    # innovations, and that recursion at (alpha, -beta) on the flipped
    # boundary and innovations gives the flipped field
    p = ModelParams(a, b)
    fld = FieldSimulator(p, window).sample(RngStream(3, 1))
    ref = deterministic_field(p, window, fld.values[0], fld.innovations)
    for got, want in zip(ref.values, fld.values):
        assert_array_equal(got, want)
    flipped = flip(fld, ModelParams(a, -b))
    rerun = deterministic_field(flipped.params, window, flipped.values[0],
                                flipped.innovations)
    for got, want in zip(rerun.values, flipped.values):
        assert_array_equal(got, want)
    assert flipped.max_recursion_residual() == fld.max_recursion_residual()


@pytest.mark.parametrize("a, b", TIDY + UNTIDY)
@pytest.mark.parametrize("s", [17, 64])
@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.value)
def test_lse_on_the_flipped_field(a, b, s, dist):
    # alpha_hat, -beta_hat, the same det B, B12 and C2 negated, and the
    # score (A1, -A2)
    w = TriangleWindow.balanced(s)
    fld = FieldSimulator(ModelParams(a, b), w, SimMethod(None), dist).sample(RngStream(11, s))
    est = lse(fld, w)
    got = lse(flip(fld, ModelParams(a, -b)), w)
    assert got.alpha_hat == est.alpha_hat
    assert got.beta_hat == -est.beta_hat
    assert got.detB == est.detB
    assert_array_equal(got.B, est.B * [[1, -1], [-1, 1]])
    assert_array_equal(got.cross, est.cross * [1, -1])
    assert_array_equal(got.score, est.score * [1, -1])
