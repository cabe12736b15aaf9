"""The package's top level holds the names its contract uses, and no others."""
import importlib
import types

import planebody

KEPT = {
    "BlowupError", "ComparisonReport", "ComplexState", "ConvergenceError", "CouplingSpec",
    "DefectiveMatrixError", "EigenDecomposition", "GeneralizedParams", "GridMismatchError",
    "InsufficientSpanError", "IntegratorConfig", "MotionClass", "OriginCollisionError",
    "OriginError", "PairCollisionError", "PairSolution", "PairSpec", "PairState", "ParseError",
    "PlanebodyError", "PlaneState", "ScenarioError", "SimilaritySpec", "SingularMatrixError",
    "SpectralSolution", "StepUnderflowError", "Trajectory", "ValidationError", "alpha_matrix",
    "classify", "classify_couplings", "compare", "detect_period", "eig", "eigenvalues", "eval_f",
    "eval_generalized", "eval_pair", "eval_pair_solution", "eval_z", "exact_states",
    "from_complex", "integrate", "pair_solve", "phi1", "rational_period", "rhs_base",
    "rhs_complex", "rhs_generalized", "rhs_pair", "row_sums_zero", "similarity_trajectory",
    "solve_linear", "spectral_solve", "to_complex", "trajectory_from_states", "zero_couplings",
}

# dropped from the top level, still importable from their modules
MOVED = {
    "CenterSolution": "planebody.exact",
    "eval_center": "planebody.exact",
    "tau_map": "planebody.exact",
    "perp": "planebody.model",
    "Scenario": "planebody.scenario",
    "builtin_scenarios": "planebody.scenario",
    "parse_scenario": "planebody.scenario",
    "scenario_from_dict": "planebody.scenario",
}


def test_public_surface():
    assert len(KEPT) == 57
    assert len(planebody.__all__) == len(set(planebody.__all__))
    assert set(planebody.__all__) == KEPT
    for name in KEPT:
        assert getattr(planebody, name) is not None, name
    # the package binds no public name but these and its submodules, so no
    # dropped name, deleted ones included, resolves on it
    public = {
        name for name, value in vars(planebody).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == KEPT
    for name, module in MOVED.items():
        assert not hasattr(planebody, name), name
        assert hasattr(importlib.import_module(module), name), name
