"""Exception types shared across the package."""


class SpatialARError(Exception):
    """Base class for all package errors."""


class NonStationaryError(SpatialARError):
    """Parameters violate |alpha| + |beta| < 1."""


class WrongQuadrantError(SpatialARError):
    """Lag quadrant not supported by the requested representation."""


class NotSPDError(SpatialARError):
    """Matrix is not symmetric positive (semi)definite."""


class MethodUnsupportedError(SpatialARError):
    """Simulation method incompatible with the innovation distribution."""


class MissingValuesError(SpatialARError):
    """Field lacks hull values required by the operation."""


class MissingInnovationsError(SpatialARError):
    """Field does not carry the innovations required by the operation."""


class SingularDesignError(SpatialARError):
    """Normal-equation matrix numerically singular for this window."""


class SingularMatrixError(SpatialARError):
    """2x2 matrix not invertible."""


class OutOfRangeError(SpatialARError):
    """Scalar argument outside its admissible range."""


class IndeterminateOmegaError(SpatialARError):
    """Both schedules feeding the active omega term vanish."""


class RateUndefinedError(SpatialARError):
    """Boundary-case rate undefined because gamma^2 - delta^2 vanishes."""


class ConfigError(SpatialARError):
    """Invalid experiment configuration."""


class ExperimentAbortedError(SpatialARError):
    """Experiment stopped because too many replications were singular."""
