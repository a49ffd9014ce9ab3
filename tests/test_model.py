import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialar import (
    BoundaryPoint,
    CaseTag,
    ConfigError,
    Field,
    ModelParams,
    NearlyUnstableDesign,
    NonStationaryError,
    Schedule,
    TriangleWindow,
)
from spatialar.model import ScheduleKind

from fieldref import hull_indices, triangle_indices


def make_design(alpha, beta, gamma=1.0, delta=1.0):
    return NearlyUnstableDesign(
        boundary=BoundaryPoint.from_pair(alpha, beta),
        gamma=Schedule.constant(gamma),
        delta=Schedule.constant(delta),
    )


class TestTriangleIndices:
    def test_1_1(self):
        assert triangle_indices(TriangleWindow(1, 1)) == [(0, 1), (1, 0), (1, 1)]

    def test_empty(self):
        assert triangle_indices(TriangleWindow(0, 0)) == []
        assert triangle_indices(TriangleWindow(2, -3)) == []

    def test_2_1(self):
        pts = triangle_indices(TriangleWindow(2, 1))
        assert len(pts) == 6
        assert set(pts) == {(0, 1), (1, 0), (1, 1), (2, -1), (2, 0), (2, 1)}

    def test_ordering_by_layer_then_i(self):
        pts = triangle_indices(TriangleWindow(2, 1))
        keys = [(i + j, i) for i, j in pts]
        assert keys == sorted(keys)

    @given(s=st.integers(1, 50), offset=st.integers(-10, 10))
    @settings(max_examples=60, deadline=None)
    def test_count_is_triangular_number(self, s, offset):
        k = s // 2 + offset
        w = TriangleWindow(k, s - k)
        assert len(triangle_indices(w)) == s * (s + 1) // 2

    @given(s=st.integers(1, 30), o1=st.integers(-5, 5), o2=st.integers(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_equal_sum_windows_are_translates(self, s, o1, o2):
        k1, k2 = s // 2 + o1, s // 2 + o2
        t1 = triangle_indices(TriangleWindow(k1, s - k1))
        t2 = triangle_indices(TriangleWindow(k2, s - k2))
        shift = k2 - k1
        assert [(i + shift, j - shift) for i, j in t1] == t2


class TestHullIndices:
    def test_1_1(self):
        pts = hull_indices(TriangleWindow(1, 1))
        assert len(pts) == 6
        assert set(pts) == {(0, 1), (1, 0), (1, 1), (-1, 1), (0, 0), (1, -1)}

    def test_empty(self):
        assert hull_indices(TriangleWindow(0, 0)) == []

    def test_2_1_layers(self):
        pts = hull_indices(TriangleWindow(2, 1))
        assert len(pts) == 10
        by_layer = {}
        for i, j in pts:
            by_layer.setdefault(i + j, []).append((i, j))
        assert sorted(by_layer) == [0, 1, 2, 3]
        assert len(by_layer[0]) == 4

    @given(s=st.integers(1, 25), offset=st.integers(-4, 4))
    @settings(max_examples=40, deadline=None)
    def test_hull_closed_under_regressors(self, s, offset):
        k = s // 2 + offset
        w = TriangleWindow(k, s - k)
        tri, hull = set(triangle_indices(w)), set(hull_indices(w))
        assert tri <= hull
        for i, j in tri:
            assert (i - 1, j) in hull and (i, j - 1) in hull


class TestBoundaryPointAndSchedules:
    def test_beta_is_derived(self):
        bp = BoundaryPoint.from_pair(0.3, -0.7)
        assert bp.beta == -(1.0 - 0.3)
        assert bp.case_tag is CaseTag.INTERIOR

    def test_corner_points(self):
        assert BoundaryPoint.from_pair(1.0, 0.0).case_tag is CaseTag.BOUNDARY
        assert BoundaryPoint.from_pair(0.0, -1.0).case_tag is CaseTag.BOUNDARY

    def test_off_boundary_rejected(self):
        with pytest.raises(ConfigError):
            BoundaryPoint.from_pair(0.3, 0.3)

    def test_schedule_forms(self):
        assert Schedule.constant(2.5)(17) == 2.5
        assert Schedule(ScheduleKind.LOG, 2.0)(math.e.__trunc__() + 1) == pytest.approx(
            2.0 * math.log(3))
        assert Schedule(ScheduleKind.POWER, 1.5, 0.5)(16) == pytest.approx(6.0)

    def test_power_schedule_needs_p_below_one(self):
        with pytest.raises(ConfigError):
            Schedule(ScheduleKind.POWER, 1.0, 1.0)

    def test_schedule_json_roundtrip(self):
        s = Schedule(ScheduleKind.POWER, 0.5, 0.25)
        assert Schedule.from_json(s.to_json()) == s
        assert Schedule.from_json(3.0) == Schedule.constant(3.0)


class TestParamsAt:
    def test_direct_substitution(self):
        p = make_design(0.5, 0.5).params_at(10)
        assert (p.alpha, p.beta) == (pytest.approx(0.4), pytest.approx(0.4))

    def test_boundary_violation(self):
        with pytest.raises(NonStationaryError):
            make_design(0.5, 0.5).params_at(1)

    def test_boundary_design(self):
        p = make_design(1.0, 0.0, gamma=2.0, delta=1.0).params_at(8)
        assert (p.alpha, p.beta) == (pytest.approx(0.75), pytest.approx(-0.125))
        assert p.q == pytest.approx(0.875)

    @given(m=st.integers(3, 1000))
    @settings(max_examples=30, deadline=None)
    def test_monotone_approach(self, m):
        d = make_design(0.5, 0.5)
        p = d.params_at(m)
        assert abs(0.5 - p.alpha) == pytest.approx(1.0 / m)

    @pytest.mark.parametrize("alpha, beta", [(0.75, -0.25), (1.0, 0.0)])
    def test_never_stationary_design_rejected(self, alpha, beta):
        # |alpha_m| + |beta_m| = 1 at every m: the drift runs along the boundary
        with pytest.raises(ConfigError):
            make_design(alpha, beta)
        with pytest.raises(ConfigError):
            NearlyUnstableDesign.from_json(
                {"alpha": alpha, "beta": beta, "gamma": 1.0, "delta": 1.0})

    @pytest.mark.parametrize("alpha, beta, gamma", [
        (0.75, -0.25, 2.0), (1.0, 0.0, 2.0), (0.5, 0.5, 1.0)])
    def test_eventually_stationary_design_accepted(self, alpha, beta, gamma):
        d = make_design(alpha, beta, gamma=gamma)
        assert d.params_at(1 << 20).is_stationary()

    def test_case_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            NearlyUnstableDesign.from_json(
                {"alpha": 0.5, "beta": 0.5, "gamma": 1.0, "delta": 1.0,
                 "case": "boundary"})

    def test_design_json_roundtrip(self):
        d = make_design(1.0, 0.0, gamma=2.0)
        d2 = NearlyUnstableDesign.from_json(d.to_json())
        assert d2.boundary == d.boundary
        assert d2.gamma == d.gamma


class TestField:
    def test_layer_shapes_checked(self):
        w = TriangleWindow(1, 1)
        with pytest.raises(ValueError):
            Field(w, [np.zeros(3), np.zeros(3), np.zeros(1)])

    def test_innovation_layer_shapes_checked(self):
        w = TriangleWindow(1, 1)
        with pytest.raises(ValueError, match="innovation layer 1 has length 5, expected 2"):
            Field(w, [np.ones(3), np.ones(2), np.ones(1)], [np.ones(5), np.ones(1)])
        with pytest.raises(ValueError, match="innovation layer 2 has length 2, expected 1"):
            Field(w, [np.ones(3), np.ones(2), np.ones(1)], [np.ones(2), np.ones(2)])

    def test_value_lookup(self):
        w = TriangleWindow(1, 1)
        f = Field(w, [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0]),
                      np.array([6.0])])
        assert f.value(-1, 1) == 1.0
        assert f.value(1, -1) == 3.0
        assert f.value(1, 1) == 6.0

    def test_value_outside_the_hull_is_an_index_error(self):
        # the hull of (1, 1) is i + j >= 0, i <= 1, j <= 1; one valid point
        # on each edge, then points beyond each edge
        w = TriangleWindow(1, 1)
        f = Field(w, [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0]),
                      np.array([6.0])])
        assert (f.value(0, 0), f.value(1, 0), f.value(0, 1)) == (2.0, 5.0, 4.0)
        for i, j in ((-2, 1), (0, 2), (2, -1), (-1, 0), (2, 2)):
            with pytest.raises(IndexError, match=rf"^point \({i}, {j}\) is outside "
                                                 r"the hull of window \(1, 1\)$"):
                f.value(i, j)

    def test_checking_a_large_field_allocates_little(self):
        # the field is at its largest when it is built, so the length check
        # must not hold its s + 1 lengths as a list: at s = 2048 such lists
        # take 140 KiB; the lazy comparison reads under 1 KiB in a plain
        # interpreter and 17 KiB under pytest
        w = TriangleWindow.balanced(2048)
        values = [np.zeros(n) for n in range(w.s + 1, 0, -1)]
        Field(w, values, values[1:])
        tracemalloc.start()
        try:
            Field(w, values, values[1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 1024

    def test_every_bad_layer_is_named(self):
        # window (2, 2): value layers of 5, 4, 3, 2, 1 points and innovation
        # layers of 4, 3, 2, 1; the first bad layer is the one named
        w = TriangleWindow(2, 2)
        values = [np.ones(n) for n in (5, 4, 3, 2, 1)]
        eps = [np.ones(n) for n in (4, 3, 2, 1)]
        Field(w, values, eps)
        cases = [
            (values[:2] + [np.ones(4)] + values[3:], eps,
             "^layer 2 has length 4, expected 3$"),
            (values[:4] + [np.ones(2)], eps, "^layer 4 has length 2, expected 1$"),
            ([values[0], np.ones(3), values[2], np.ones(1), values[4]], eps,
             "^layer 1 has length 3, expected 4$"),
            (values, eps[:1] + [np.ones(2)] + eps[2:],
             "^innovation layer 2 has length 2, expected 3$"),
            (values, eps[:3] + [np.ones(0)], "^innovation layer 4 has length 0, expected 1$"),
            (values[:4], eps, "^expected 5 value layers, got 4$"),
            (values + [np.ones(1)], eps, "^expected 5 value layers, got 6$"),
            (values, eps[:3], "^expected 4 innovation layers$"),
            (values, eps + [np.ones(1)], "^expected 4 innovation layers$"),
            # a layer that is not 1-D is named with its shape, whatever its
            # length: with two axes it would reach lse and die on a broadcast
            (values[:1] + [np.ones((4, 1))] + values[2:], eps,
             r"^layer 1 has shape \(4, 1\), expected \(4,\)$"),
            (values[:1] + [np.ones((1, 4))] + values[2:], eps,
             r"^layer 1 has shape \(1, 4\), expected \(4,\)$"),
            (values[:4] + [np.float64(1.0)], eps, r"^layer 4 has shape \(\), expected \(1,\)$"),
            (values, eps[:2] + [np.ones((2, 3))] + eps[3:],
             r"^innovation layer 3 has shape \(2, 3\), expected \(2,\)$"),
            # the first bad layer is named, whichever way it is off
            (values[:1] + [np.ones(3), np.ones((3, 1))] + values[3:], eps,
             "^layer 1 has length 3, expected 4$"),
        ]
        for vals, innov, message in cases:
            with pytest.raises(ValueError, match=message):
                Field(w, vals, innov)
        with pytest.raises(ValueError, match=r"^layer 0 has shape \(3, 2\), expected \(3,\)$"):
            Field(TriangleWindow(1, 1), [np.ones((3, 2)), np.ones((2, 2)), np.ones((1, 2))])
