"""Exception types shared across the package.

Every runtime failure carries a short machine-readable ``code`` so the
command line tool can print ``ERROR <code>: <detail>`` lines without
inspecting exception classes.
"""
from __future__ import annotations


class PlanebodyError(Exception):
    """Base class for runtime model errors (CLI exit code 1).

    time is the model time of the failure, where one is known.
    """

    code = "Error"

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class DefectiveMatrixError(PlanebodyError):
    """Eigenvector basis is numerically defective (condition estimate too large)."""

    code = "DefectiveMatrix"

    def __init__(self, message: str, condition_estimate: float | None = None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class ConvergenceError(PlanebodyError):
    """LAPACK's eigenvalue iteration failed to converge."""

    code = "NonConvergence"


class SingularMatrixError(PlanebodyError):
    """Linear system pivot fell below the singularity threshold."""

    code = "SingularMatrix"


class OriginError(PlanebodyError):
    """A particle sits at (or indistinguishably close to) the coordinate origin.

    The forces divide by |r_j|^2, so states inside the guard are rejected.
    """

    code = "OriginState"


class PairCollisionError(PlanebodyError):
    """A plus/minus pair coincides, so the difference coordinate vanishes."""

    code = "PairCollision"


class OriginCollisionError(PlanebodyError):
    """A trajectory entered the origin guard during integration."""

    code = "OriginCollision"


class BlowupError(PlanebodyError):
    """State magnitude left the representable range (double-exponential run-off)."""

    code = "Overflow"


class StepUnderflowError(PlanebodyError):
    """Adaptive step size fell below the configured minimum, or below
    half the spacing of floats at t, where a step no longer changes t."""

    code = "StepUnderflow"


class GridMismatchError(PlanebodyError):
    """Two trajectories do not share a common time grid."""

    code = "GridMismatch"


class InsufficientSpanError(PlanebodyError):
    """Trajectory too short to confirm or reject a candidate period."""

    code = "InsufficientSpan"


class ScenarioError(Exception):
    """Base class for configuration problems (CLI exit code 2)."""

    code = "ConfigError"


class ParseError(ScenarioError):
    """Scenario file is not syntactically valid."""

    code = "ParseError"


class ValidationError(ScenarioError):
    """Scenario file parsed but a field is missing, malformed or inconsistent."""

    code = "ValidationError"

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
