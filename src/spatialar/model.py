"""Model parameters, triangular index geometry, and field storage.

The planar autoregression

    X[i, j] = alpha * X[i-1, j] + beta * X[i, j-1] + eps[i, j]

is observed on triangles T(k, l) = {(i, j) : i + j >= 1, i <= k, j <= l}.
Everything downstream works layer by layer on anti-diagonals d = i + j:
within a window the layer-d cross-section is an interval in i, and the
d -> d + 1 recursion touches two adjacent slots of the previous layer,
so layered storage keeps the sweep contiguous.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonStationaryError

_BOUNDARY_ATOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """One (alpha, beta) pair; stationary iff |alpha| + |beta| < 1."""

    alpha: float
    beta: float

    @property
    def q(self) -> float:
        """Coefficient sum |alpha| + |beta|, the contraction factor."""
        return abs(self.alpha) + abs(self.beta)

    def is_stationary(self) -> bool:
        return self.q < 1.0

    def require_stationary(self) -> "ModelParams":
        if not self.is_stationary():
            raise NonStationaryError(
                f"|alpha| + |beta| = {self.q:.6g} >= 1 for ({self.alpha}, {self.beta})"
            )
        return self


class CaseTag(enum.Enum):
    """Which limit regime a boundary point belongs to."""

    INTERIOR = "interior"  # 0 < |alpha| < 1
    BOUNDARY = "boundary"  # |alpha| in {0, 1}


@dataclass(frozen=True)
class BoundaryPoint:
    """A point with |alpha| + |beta| = 1 exactly.

    Stored as alpha plus the sign of beta; |beta| = 1 - |alpha| is derived,
    so the constraint holds to the last bit.
    """

    alpha: float
    beta_sign: int = 1

    def __post_init__(self):
        if not -1.0 <= self.alpha <= 1.0:
            raise ConfigError(f"boundary alpha must lie in [-1, 1], got {self.alpha}")
        if self.beta_sign not in (-1, 0, 1):
            raise ConfigError("beta_sign must be -1, 0 or 1")
        if abs(self.alpha) == 1.0 and self.beta_sign != 0:
            object.__setattr__(self, "beta_sign", 0)
        if abs(self.alpha) < 1.0 and self.beta_sign == 0:
            raise ConfigError("beta_sign must be nonzero when |alpha| < 1")

    @property
    def beta(self) -> float:
        return self.beta_sign * (1.0 - abs(self.alpha))

    @property
    def case_tag(self) -> CaseTag:
        return CaseTag.INTERIOR if 0.0 < abs(self.alpha) < 1.0 else CaseTag.BOUNDARY

    @classmethod
    def from_pair(cls, alpha: float, beta: float) -> "BoundaryPoint":
        if abs(abs(alpha) + abs(beta) - 1.0) > _BOUNDARY_ATOL:
            raise ConfigError(
                f"({alpha}, {beta}) is not on the boundary |alpha| + |beta| = 1"
            )
        sign = 0 if beta == 0.0 else (1 if beta > 0 else -1)
        return cls(alpha=alpha, beta_sign=sign)


class ScheduleKind(enum.Enum):
    CONST = "const"
    LOG = "log"
    POWER = "power"


def _real(name: str, value) -> float:
    """A config number as a float; a boolean is rejected, not read as 0 or 1."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Schedule:
    """Named closed-form schedule m -> c, c*log(m), or c*m**p with p < 1."""

    kind: ScheduleKind = ScheduleKind.CONST
    c: float = 1.0
    p: float = 0.0

    def __post_init__(self):
        if self.kind is ScheduleKind.POWER and not self.p < 1.0:
            raise ConfigError(f"power schedule needs p < 1, got p = {self.p}")

    def __call__(self, m: int) -> float:
        if self.kind is ScheduleKind.CONST:
            return self.c
        if self.kind is ScheduleKind.LOG:
            return self.c * math.log(m)
        return self.c * m**self.p

    @classmethod
    def constant(cls, c: float) -> "Schedule":
        return cls(ScheduleKind.CONST, c)

    def to_json(self) -> dict:
        out = {"kind": self.kind.value, "c": self.c}
        if self.kind is ScheduleKind.POWER:
            out["p"] = self.p
        return out

    @classmethod
    def from_json(cls, obj) -> "Schedule":
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            return cls.constant(float(obj))
        if not isinstance(obj, dict):
            raise ConfigError(f"a schedule is a number or an object, got {obj!r}")
        kind = ScheduleKind(obj.get("kind", "const"))
        return cls(kind, _real("c", obj.get("c", 1.0)), _real("p", obj.get("p", 0.0)))


@dataclass(frozen=True)
class NearlyUnstableDesign:
    """A boundary point approached along alpha_m = alpha - gamma(m)/m, etc.

    Construction raises ConfigError when params_at(2**k) would be
    non-stationary for every k = 0..40.
    """

    boundary: BoundaryPoint
    gamma: Schedule
    delta: Schedule

    def __post_init__(self):
        # schedules whose signs push (alpha_m, beta_m) outward, or along the
        # boundary, never reach the stable region at any index
        if not any(self._raw_params(2**k).is_stationary() for k in range(41)):
            raise ConfigError(
                f"design at ({self.boundary.alpha}, {self.boundary.beta}) is "
                "non-stationary at every index m = 2**k, k = 0..40")

    @property
    def case_tag(self) -> CaseTag:
        return self.boundary.case_tag

    def _raw_params(self, m: int) -> ModelParams:
        return ModelParams(
            self.boundary.alpha - self.gamma(m) / m,
            self.boundary.beta - self.delta(m) / m,
        )

    def params_at(self, m: int) -> ModelParams:
        """Model parameters at index m; raises if they leave the stable region."""
        if m < 1:
            raise ConfigError(f"design index must be >= 1, got {m}")
        p = self._raw_params(m)
        if not p.is_stationary():
            raise NonStationaryError(
                f"index m={m} leaves the stable region: |alpha_m| + |beta_m| = {p.q:.6g}"
            )
        return p

    def to_json(self) -> dict:
        return {
            "alpha": self.boundary.alpha,
            "beta": self.boundary.beta,
            "gamma": self.gamma.to_json(),
            "delta": self.delta.to_json(),
            "case": self.case_tag.value,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "NearlyUnstableDesign":
        try:
            bp = BoundaryPoint.from_pair(_real("alpha", obj["alpha"]),
                                         _real("beta", obj["beta"]))
            design = cls(
                boundary=bp,
                gamma=Schedule.from_json(obj["gamma"]),
                delta=Schedule.from_json(obj["delta"]),
            )
            declared = obj.get("case")
            declared_tag = None if declared is None else CaseTag(declared)
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"malformed design: {exc}") from exc
        if declared_tag is not None and declared_tag is not design.case_tag:
            raise ConfigError(
                f"declared case '{declared}' does not match boundary alpha {bp.alpha}"
            )
        return design


@dataclass(frozen=True)
class TriangleWindow:
    """Observation window T(k, l); s = k + l is the window sum."""

    k: int
    l: int

    @property
    def s(self) -> int:
        return self.k + self.l

    @classmethod
    def balanced(cls, s: int) -> "TriangleWindow":
        """The harness split k = floor(s/2), l = ceil(s/2)."""
        return cls(s // 2, (s + 1) // 2)

    def require_valid(self) -> "TriangleWindow":
        if self.k < 0 or self.l < 0 or self.s < 1:
            raise ConfigError(f"a window needs k, l >= 0 and k + l >= 1, "
                              f"got k = {self.k}, l = {self.l}")
        return self

    def layer_start(self, d: int) -> int:
        """Smallest i on anti-diagonal d inside the hull staircase."""
        return d - self.l

    def layer_len(self, d: int) -> int:
        """Number of hull points on anti-diagonal d (valid for d <= s)."""
        return self.s - d + 1


@dataclass
class Field:
    """Sample values on the hull of a window, stored by anti-diagonal layers.

    ``values[d]`` holds layer d (d = 0 .. s); entry p corresponds to
    i = d - l + p.  ``innovations[d - 1]`` (d = 1 .. s), when present, holds
    the eps draws for the triangle layers in the same position convention.
    Construction checks the number of layers and the length s - d + 1 of
    each, and raises ValueError naming the first layer that is off.
    ``value`` reads one point of the hull {i + j >= 0, i <= k, j <= l}.
    """

    window: TriangleWindow
    values: list[np.ndarray]
    innovations: list[np.ndarray] | None = None
    params: ModelParams | None = None

    def __post_init__(self):
        s = self.window.s
        if len(self.values) != s + 1:
            raise ValueError(f"expected {s + 1} value layers, got {len(self.values)}")
        if self.innovations is not None and len(self.innovations) != s:
            raise ValueError(f"expected {s} innovation layers")
        for what, layers, first in (("layer", self.values, 0),
                                    ("innovation layer", self.innovations, 1)):
            # layer d has s - d + 1 points: one pass compares every length
            # with the descending range, without building either as a list
            # while the whole field is held, and the first bad layer is
            # searched for only when that pass fails
            if layers is None or all(map(operator.eq, map(len, layers),
                                         range(s + 1 - first, 0, -1))):
                continue
            for d, layer in enumerate(layers, first):
                if len(layer) != self.window.layer_len(d):
                    raise ValueError(f"{what} {d} has length {len(layer)}, "
                                     f"expected {self.window.layer_len(d)}")

    def value(self, i: int, j: int) -> float:
        """X(i, j); IndexError for a point outside the hull."""
        w = self.window
        d = i + j
        if d < 0 or i > w.k or j > w.l:
            raise IndexError(f"point ({i}, {j}) is outside the hull of window ({w.k}, {w.l})")
        return float(self.values[d][i - w.layer_start(d)])

    def has_innovations(self) -> bool:
        return self.innovations is not None

    def max_recursion_residual(self) -> float:
        """max over triangle points of |X - alpha*X_left - beta*X_down - eps|."""
        if self.params is None or self.innovations is None:
            raise ValueError("residuals need params and innovations")
        a, b = self.params.alpha, self.params.beta
        worst = 0.0
        for d in range(1, self.window.s + 1):
            prev = self.values[d - 1]
            res = self.values[d] - a * prev[:-1] - b * prev[1:] - self.innovations[d - 1]
            worst = max(worst, float(np.max(np.abs(res))) if len(res) else 0.0)
        return worst
