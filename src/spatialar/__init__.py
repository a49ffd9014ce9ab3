"""Stationary planar AR(1,1) fields near the unstable boundary.

Simulation of the stationary field on triangular windows, its exact
covariance structure by four independent methods, the least squares
estimator of the autoregression coefficients, and the scaling limits of the
estimation error for nearly-unstable parameter designs.
"""

from .covariance import (
    CovKernel,
    CovMethod,
    cov_binrep,
    cov_closed,
    cov_f4,
    cov_series_oracle,
    oracle_margin,
    pmf_s,
    sigma_sq,
    tail_variance_bound,
)
from .errors import (
    ConfigError,
    ExperimentAbortedError,
    IndeterminateOmegaError,
    MethodUnsupportedError,
    MissingInnovationsError,
    MissingValuesError,
    NonStationaryError,
    NotSPDError,
    OutOfRangeError,
    RateUndefinedError,
    SingularDesignError,
    SingularMatrixError,
    SpatialARError,
    WrongQuadrantError,
)
from .estimate import (
    EstimateResult,
    Matrix2,
    lse,
    normal_equations,
    score_vector,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    Tolerances,
    run_clt,
    verify_cov,
    verify_covlim,
    verify_detB,
    verify_prop1,
    verify_score,
)
from .limits import (
    LimitLaw,
    condition_statistic,
    expected_B,
    invert_spd2,
    limit_law,
    omega_n,
    psi_adjugate,
    psi_matrix,
    sqrt_spd2,
    theta_matrix,
    theta_scalar,
)
from .model import (
    BoundaryPoint,
    CaseTag,
    Field,
    ModelParams,
    NearlyUnstableDesign,
    Schedule,
    TriangleWindow,
)
from .simulate import (
    FieldSimulator,
    InnovationDist,
    RngStream,
    SimMethod,
    cumulant_tail_bound,
)

__version__ = "0.1.0"
