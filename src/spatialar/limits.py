"""Theoretical limit objects for the nearly-unstable designs.

Two regimes, split on the boundary point (|alpha| + |beta| = 1):

* interior (0 < |alpha| < 1): the scaled estimator error converges at rate
  s = k + l with singular limit covariance 2|alpha||beta| * adj(Psi), where
  Psi = [[1, sign(ab)], [sign(ab), 1]] (derived from the exact E[B] in
  ``limit_law``);
* boundary (|alpha| in {0, 1}): rate s * m^(1/2) |gamma^2 - delta^2|^(-1/4)
  with covariance Theta^(-1), Theta = (1/4)[[1, theta], [theta, 1]], theta
  determined by the schedule ratio limit omega.

Also here: the exact mean of the normal-equation matrix (closed form), the
divergence statistics the asymptotics condition on, and the 2x2 SPD
inverse / square-root helpers used to normalise boundary-case errors.
Every 2x2 matrix here is a (2, 2) float array; determinants and adjugates
are formed by the explicit formulas det = a11 a22 - a12 a21 and
adj = [[a22, -a12], [-a21, a11]], not by ``np.linalg``, so the bits of the
reported matrices are fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .covariance import d_factor, sigma_sq
from .errors import (
    IndeterminateOmegaError,
    NotSPDError,
    OutOfRangeError,
    RateUndefinedError,
    SingularMatrixError,
)
from .model import BoundaryPoint, CaseTag, ModelParams, NearlyUnstableDesign

__all__ = [
    "psi_matrix", "psi_adjugate", "omega_n", "omega_limit", "theta_scalar",
    "theta_matrix", "invert_spd2", "sqrt_spd2", "LimitLaw", "limit_law",
    "condition_statistic", "expected_B",
]

_OMEGA_SETTLE_RTOL = 1e-3


def _sign(x: float) -> int:
    return 0 if x == 0 else (1 if x > 0 else -1)


def _symmetric(diag: float, off: float) -> np.ndarray:
    return np.array([[diag, off], [off, diag]])


def _det(m: np.ndarray) -> float:
    (a11, a12), (a21, a22) = m.tolist()
    return a11 * a22 - a12 * a21


def _adjugate(m: np.ndarray) -> np.ndarray:
    (a11, a12), (a21, a22) = m.tolist()
    return np.array([[a22, -a12], [-a21, a11]])


def psi_matrix(bp: BoundaryPoint) -> np.ndarray:
    """Psi = [[1, sign(ab)], [sign(ab), 1]]; diagonal when alpha*beta = 0."""
    s = _sign(bp.alpha * bp.beta)
    return _symmetric(1.0, float(s))


def psi_adjugate(bp: BoundaryPoint) -> np.ndarray:
    return _adjugate(psi_matrix(bp))


def omega_n(bp: BoundaryPoint, gamma_m: float, delta_m: float) -> float:
    """alpha * gamma/delta + beta * delta/gamma at one index (boundary case).

    Exactly one term is active since |alpha| in {0, 1}; a vanishing
    denominator gives a signed infinity, and the value is indeterminate only
    when both schedules feeding the active term vanish.
    """
    if bp.case_tag is not CaseTag.BOUNDARY:
        raise OutOfRangeError("omega is defined for boundary designs only")
    if abs(bp.alpha) == 1.0:
        num, den, coef = gamma_m, delta_m, bp.alpha
    else:
        num, den, coef = delta_m, gamma_m, bp.beta
    if num == 0.0 and den == 0.0:
        raise IndeterminateOmegaError("both schedules of the active term vanish")
    if den == 0.0:
        return math.copysign(math.inf, coef * num)
    return coef * num / den


def omega_limit(design: NearlyUnstableDesign, m_probe: int) -> tuple[float, bool]:
    """Finite-probe estimate of omega = lim omega_m, with a settledness flag.

    Evaluated at m_probe and 4 * m_probe; the design is flagged unsettled
    (rather than the limit guessed) when the two disagree by more than 1e-3
    relative.
    """
    w1 = omega_n(design.boundary, design.gamma(m_probe), design.delta(m_probe))
    w2 = omega_n(design.boundary, design.gamma(4 * m_probe), design.delta(4 * m_probe))
    if math.isinf(w1) or math.isinf(w2):
        settled = w1 == w2
    else:
        settled = abs(w1 - w2) <= _OMEGA_SETTLE_RTOL * max(1.0, abs(w2))
    return w2, settled


def theta_scalar(bp: BoundaryPoint, omega: float) -> float:
    """theta = -(alpha + beta) sign(omega) / (|omega| + sqrt(omega^2 - 1)).

    Zero when |omega| is infinite; |omega| must be >= 1 (it always is for a
    valid nearly-unstable schedule).
    """
    if math.isinf(omega):
        return 0.0
    if abs(omega) < 1.0:
        raise OutOfRangeError(f"|omega| = {abs(omega)} < 1")
    s = bp.alpha + bp.beta
    return -s * math.copysign(1.0, omega) / (abs(omega) + math.sqrt(omega * omega - 1.0))


def theta_matrix(theta: float) -> np.ndarray:
    """Theta = (1/4) [[1, theta], [theta, 1]]; singular exactly at |theta| = 1."""
    if abs(theta) > 1.0:
        raise OutOfRangeError(f"|theta| = {abs(theta)} > 1")
    return _symmetric(0.25, 0.25 * theta)


def invert_spd2(m: np.ndarray) -> np.ndarray:
    """adj(M) / det(M), as adj(M) times 1 / det(M); singular when
    |det| <= 1e-14 max|M|^2."""
    det = _det(m)
    if abs(det) <= 1e-14 * max(float(np.abs(m).max()) ** 2, 1e-300):
        raise SingularMatrixError(f"matrix with det {det:g} is not invertible")
    return _adjugate(m) * (1.0 / det)


def sqrt_spd2(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root: S = (M + sqrt(det) I) / sqrt(tr + 2 sqrt(det))."""
    (a11, a12), (a21, a22) = m.tolist()
    scale = max(1.0, float(np.abs(m).max()))
    if abs(a12 - a21) > 1e-12 * scale:
        raise NotSPDError("matrix is not symmetric")
    det, tr = _det(m), a11 + a22
    if det < -1e-12 * scale**2 or tr < -1e-12 * scale:
        raise NotSPDError(f"matrix with det {det:g}, trace {tr:g} is not PSD")
    root = math.sqrt(max(det, 0.0))
    denom = tr + 2.0 * root
    if denom <= 0.0:
        return np.zeros((2, 2))
    # the off-diagonal is kept as it is: adding 0.0 would turn -0.0 into 0.0
    return np.array([[a11 + root, a12], [a21, a22 + root]]) * (1.0 / math.sqrt(denom))


@dataclass(frozen=True)
class LimitLaw:
    """Scaling rate and limit covariance for one design.

    ``covariance`` is a (2, 2) float array, or None exactly when only the
    normalised (square-root standardised) form of the limit exists
    (boundary case with |omega| = 1).
    """

    case_tag: CaseTag
    rate: Callable[[int, int], float]
    covariance: np.ndarray | None
    singular: bool
    omega: float | None = None
    omega_settled: bool | None = None
    theta: float | None = None


def limit_law(design: NearlyUnstableDesign, m_probe: int = 4096) -> LimitLaw:
    """The limit law of the scaled LSE error for this design.

    Interior: rate (m, s) -> s, covariance Sigma = 2|alpha||beta| adj(Psi)
    (rank 1).  Boundary: rate (m, s) -> s sqrt(m) |gamma(m)^2 - delta(m)^2|^(-1/4),
    covariance Theta(theta)^(-1) when |omega| > 1, singular at |omega| = 1.

    The interior Sigma follows from the exact moments along ``params_at``,
    under this package's convention (rate s, the balanced window with
    n = s(s+1)/2 points, unit innovation variance); c is
    condition_statistic(design, m, 1):

    * E[B] = n sigma^2 [[1, D], [D, 1]] (``expected_B``), where
      c sigma^2 -> (8|alpha||beta|)^(-1/2) = 2 T11, T the scaled
      information limit (``harness._prop1_target``), and
      sigma^2 (1 - |D|) -> 1 / (2|alpha||beta|).
    * The score A has Var(A) = E[B], so to first order
      s^2 Cov(err) = s^2 E[B]^(-1).  Along w = (1, -sign(ab)) / sqrt(2),
      the null direction of Psi, this is s^2 / (n sigma^2 (1 - |D|)), which
      tends to 4|alpha||beta|; across w it tends to 0, since sigma^2
      diverges.  So Sigma = 4|alpha||beta| w w' = 2|alpha||beta| adj(Psi).
    * The determinant splits into the two eigenvalues:
      c s^(-4) det E[B] = [c s^(-2) n sigma^2 (1 + |D|)]
      [s^(-2) n sigma^2 (1 - |D|)] -> 2 T11 / (4|alpha||beta|) = T11 / Sigma11,
      the target ``verify_detB`` derives from T and Sigma.
    """
    bp = design.boundary
    if design.case_tag is CaseTag.INTERIOR:
        cov = psi_adjugate(bp) * (2.0 * abs(bp.alpha) * abs(bp.beta))
        return LimitLaw(CaseTag.INTERIOR, lambda m, s: float(s), cov, singular=True)

    g, d = design.gamma(m_probe), design.delta(m_probe)
    if g * g == d * d:
        raise RateUndefinedError(
            "gamma(m)^2 = delta(m)^2: the boundary-case scaling statistic vanishes"
        )

    def rate(m: int, s: int) -> float:
        gm, dm = design.gamma(m), design.delta(m)
        return s * math.sqrt(m) * abs(gm * gm - dm * dm) ** -0.25

    omega, settled = omega_limit(design, m_probe)
    theta = theta_scalar(bp, omega)
    if abs(theta) < 1.0:
        cov = invert_spd2(theta_matrix(theta))
        return LimitLaw(CaseTag.BOUNDARY, rate, cov, singular=False,
                        omega=omega, omega_settled=settled, theta=theta)
    return LimitLaw(CaseTag.BOUNDARY, rate, None, singular=True,
                    omega=omega, omega_settled=settled, theta=theta)


def condition_statistic(design: NearlyUnstableDesign, m: int, s: int) -> float:
    """The computable statistic whose divergence the scaling limits require.

    Interior: s m^(-1/2) (|gamma(m)| + |delta(m)|)^(1/2);
    boundary: s m^(-1) |gamma(m)^2 - delta(m)^2|^(1/2).
    """
    g, d = design.gamma(m), design.delta(m)
    if design.case_tag is CaseTag.INTERIOR:
        return s * m**-0.5 * (abs(g) + abs(d)) ** 0.5
    return s * abs(g * g - d * d) ** 0.5 / m


def expected_B(p: ModelParams, s: int) -> np.ndarray:
    """Exact mean of the normal-equation matrix on a window with sum s, (2, 2).

    Stationarity collapses the sum over the triangle:
    E[B] = (s(s+1)/2) sigma^2 [[1, D], [D, 1]] with D the product of the two
    geometric covariance bases (D = R[1, -1] / sigma^2).
    """
    if s < 1:
        raise OutOfRangeError(f"window sum must be >= 1, got {s}")
    p.require_stationary()
    n = s * (s + 1) / 2.0
    s2 = sigma_sq(p)
    return _symmetric(n * s2, n * s2 * d_factor(p))
