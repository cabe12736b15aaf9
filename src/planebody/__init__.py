"""Solvable rotation-coupled many-body motion in the plane.

Particles move under velocity-dependent pairwise forces whose couplings
form an arbitrary real matrix pair (beta, gamma).  The motion maps to a
constant-coefficient linear system, so trajectories admit closed-form
evaluation next to direct numerical integration; the coupling spectrum
decides the qualitative behaviour (damping, periodicity, blow-up).

Main entry points
-----------------
model      state containers and force evaluators
exact      closed-form solutions built on the coupling spectrum
integrate  adaptive embedded Runge-Kutta integration and comparison
classify   spectrum classification and period detection
linalg     eigendecomposition and linear solves on LAPACK, with defect detection
scenario   JSON run descriptions
cli        command line front end (``planebody ...``)
"""
from .classify import MotionClass, classify, classify_couplings, detect_period, rational_period
from .errors import (
    BlowupError,
    ConvergenceError,
    DefectiveMatrixError,
    GridMismatchError,
    InsufficientSpanError,
    OriginCollisionError,
    OriginError,
    PairCollisionError,
    ParseError,
    PlanebodyError,
    ScenarioError,
    SingularMatrixError,
    StepUnderflowError,
    ValidationError,
)
from .exact import (
    PairSolution,
    SimilaritySpec,
    SpectralSolution,
    eval_f,
    eval_generalized,
    eval_pair,
    eval_pair_solution,
    eval_z,
    exact_states,
    pair_solve,
    phi1,
    row_sums_zero,
    similarity_trajectory,
    spectral_solve,
)
from .integrate import (
    ComparisonReport,
    IntegratorConfig,
    Trajectory,
    compare,
    integrate,
    trajectory_from_states,
)
from .linalg import EigenDecomposition, eig, eigenvalues, solve_linear
from .model import (
    ComplexState,
    CouplingSpec,
    GeneralizedParams,
    PairSpec,
    PairState,
    PlaneState,
    alpha_matrix,
    from_complex,
    rhs_base,
    rhs_complex,
    rhs_generalized,
    rhs_pair,
    to_complex,
    zero_couplings,
)

__version__ = "0.1.0"

__all__ = [
    "BlowupError",
    "ComparisonReport",
    "ComplexState",
    "ConvergenceError",
    "CouplingSpec",
    "DefectiveMatrixError",
    "EigenDecomposition",
    "GeneralizedParams",
    "GridMismatchError",
    "InsufficientSpanError",
    "IntegratorConfig",
    "MotionClass",
    "OriginCollisionError",
    "OriginError",
    "PairCollisionError",
    "PairSolution",
    "PairSpec",
    "PairState",
    "ParseError",
    "PlanebodyError",
    "PlaneState",
    "ScenarioError",
    "SimilaritySpec",
    "SingularMatrixError",
    "SpectralSolution",
    "StepUnderflowError",
    "Trajectory",
    "ValidationError",
    "alpha_matrix",
    "classify",
    "classify_couplings",
    "compare",
    "detect_period",
    "eig",
    "eigenvalues",
    "eval_f",
    "eval_generalized",
    "eval_pair",
    "eval_pair_solution",
    "eval_z",
    "exact_states",
    "from_complex",
    "integrate",
    "pair_solve",
    "phi1",
    "rational_period",
    "rhs_base",
    "rhs_complex",
    "rhs_generalized",
    "rhs_pair",
    "row_sums_zero",
    "similarity_trajectory",
    "solve_linear",
    "spectral_solve",
    "to_complex",
    "trajectory_from_states",
    "zero_couplings",
]
