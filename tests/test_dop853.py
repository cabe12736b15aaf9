"""The DOP853 stepper and the scenario's integrator.method field."""
import importlib
import json
import math

import numpy as np
import pytest

from planebody import IntegratorConfig, PlaneState, integrate, rhs_base, zero_couplings
from planebody.cli import _numeric_trajectory, main
from planebody.model import rhs_generalized, rhs_pair
from planebody.scenario import builtin_scenarios, scenario_from_dict

from _util import random_couplings

# the package exports the integrate function under the submodule's name
integrate_module = importlib.import_module("planebody.integrate")
DOP853 = integrate_module._TABLEAUS["dop853"]


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def test_dop853_coefficients_equal_scipy():
    coefficients = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    a = np.zeros((16, 16))
    for i, row in enumerate(DOP853.a):
        a[i, :i] = row
    assert len(DOP853.a) == len(DOP853.c) == 16 and DOP853.stages == 13
    for ours, theirs in (
        (a, coefficients.A),
        (DOP853.a[12], coefficients.B),
        (DOP853.c, coefficients.C),
        (DOP853.e, coefficients.E5),
        (DOP853.e3, coefficients.E3),
        (integrate_module._DOP853_D, coefficients.D),
    ):
        assert np.array_equal(_bits(ours), _bits(theirs))  # 0 ulp


def test_dop853_power_basis_reproduces_scipy_dense_output():
    rk = pytest.importorskip("scipy.integrate._ivp.rk")
    rng = np.random.default_rng(853)
    size, h, t_old = 12, 0.37, 1.5
    for _ in range(20):
        k = rng.standard_normal((16, size))
        y_old = rng.standard_normal(size)
        # scipy's DOP853._dense_output_impl, from the same derivatives
        y = y_old + h * (DOP853.a[12] @ k[:12])
        delta = y - y_old
        f = np.empty((7, size))
        f[0] = delta
        f[1] = h * k[0] - delta
        f[2] = 2 * delta - h * (k[12] + k[0])
        f[3:] = h * (integrate_module._DOP853_D @ k)
        theirs = rk.Dop853DenseOutput(t_old, t_old + h, y_old, f)
        theta = np.linspace(0.0, 1.0, 17)
        q = (DOP853.to_powers @ (DOP853.dense @ k)) * h  # as the stepping loop forms Q
        ours = y_old + np.power.outer(theta, np.arange(1, 8)) @ q
        want = theirs(t_old + theta * h).T
        # random derivatives make the terms F_j far larger than their sum:
        # the two sums agree to a few ulps of the largest term
        terms = np.abs(y_old) + np.abs(f).sum(axis=0)
        assert np.all(np.abs(ours - want) <= 8 * np.finfo(float).eps * terms)


def test_dop853_interpolant_at_theta_one_is_the_accepted_state():
    c = random_couplings(np.random.default_rng(8), 2)
    s0 = PlaneState([[1.0, 0.2], [-0.3, 0.9]], [[0.1, 0.4], [-0.5, 0.0]])
    inputs = []

    def recording(t, s):
        inputs.append(np.concatenate([s.positions, s.velocities]))
        return rhs_base(c, s)

    cfg = IntegratorConfig(t_span=(0.0, 3.0), sample_count=2, h_max=3.0, method="dop853")
    traj = integrate(recording, s0, cfg)
    stats = traj.metadata["stats"]
    assert traj.metadata["method"] == "dop853"
    assert stats["accepted"] > 3  # the last step is not the first
    # twelve evaluations per attempted step, FSAL included, and the
    # interpolant's three on the last step alone, which holds the sample
    assert stats["rhs_evaluations"] == 1 + 12 * (stats["accepted"] + stats["rejected"]) + 3
    sampled = np.concatenate([traj.positions[-1], traj.velocities[-1]])
    accepted = inputs[-4]  # the last step's FSAL stage, before the interpolant's
    scale = float(np.max(np.abs(accepted)))
    assert np.max(np.abs(sampled - accepted)) <= 8 * np.finfo(float).eps * scale


def test_dop853_circle_endpoint_error_tracks_rtol():
    # endpoint error (never interpolated) must track the tolerance setting
    c = zero_couplings(1)
    s0 = PlaneState([[1.0, 0.0]], [[0.0, 1.0]])
    errs = {}
    for rtol in (1e-5, 1e-7, 1e-9, 1e-11):
        cfg = IntegratorConfig(rtol=rtol, atol=rtol * 1e-3, t_span=(0.0, 2.0 * math.pi),
                               sample_count=2, h_max=10.0, method="dop853")
        traj = integrate(lambda t, s: rhs_base(c, s), s0, cfg)
        errs[rtol] = float(np.max(np.abs(traj.positions[-1] - [[1.0, 0.0]])))
    for rtol, err in errs.items():
        assert err < 100 * rtol
    assert errs[1e-11] < errs[1e-9] < errs[1e-7] < errs[1e-5]


@pytest.mark.parametrize("variant", ["base", "generalized", "pair"])
def test_dop853_stage_route_matches_public_integrate(variant):
    # the CLI's in-place stage forces and integrate(lambda t, s: rhs_*(...))
    # run the same arithmetic on DOP853 too, the interpolant's stages
    # included: identical samples and step statistics
    rng = np.random.default_rng(57)
    n = 3
    rows = 2 * n if variant == "pair" else n
    angles = rng.uniform(0.0, 2.0 * math.pi, rows)
    radii = rng.uniform(0.8, 1.2, rows)
    initial = np.column_stack(
        [radii * np.cos(angles), radii * np.sin(angles), 0.3 * rng.standard_normal((rows, 2))]
    )
    data = {
        "name": variant,
        "variant": variant,
        "beta": (0.3 * rng.standard_normal((n, n))).tolist(),
        "gamma": (0.3 * rng.standard_normal((n, n))).tolist(),
        "initial": initial.tolist(),
        "integrator": {"t_span": [0.0, 2.0], "samples": 41, "method": "dop853"},
    }
    if variant == "generalized":
        data["generalized_params"] = {"lambda": 0.3, "omega": 1.1}
        law = lambda sc: (lambda t, s: rhs_generalized(sc.couplings, sc.generalized, t, s))
    elif variant == "pair":
        data["pair_params"] = {"Lambda": [0.3] * n, "Omega": [1.1] * n}
        law = lambda sc: (lambda t, s: rhs_pair(sc.pair, s))
    else:
        law = lambda sc: (lambda t, s: rhs_base(sc.couplings, s))
    sc = scenario_from_dict(data)
    via_cli = _numeric_trajectory(sc)
    via_api = integrate(law(sc), sc.initial, sc.integrator)
    assert via_cli.metadata == via_api.metadata
    assert via_cli.metadata["method"] == "dop853"
    assert via_cli.metadata["stats"]["rhs_evaluations"] > 100
    for a, b in (
        (via_cli.times, via_api.times),
        (via_cli.positions, via_api.positions),
        (via_cli.velocities, via_api.velocities),
    ):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_builtin_demos_run_dop853(name):
    # what the guard-count test over the built-in demos counts is a
    # DOP853 run, the interpolant's stages included
    sc = scenario_from_dict(builtin_scenarios()[name])
    assert sc.integrator.method == "dop853"
    traj = _numeric_trajectory(sc)
    assert traj.metadata["method"] == "dop853"
    stats = traj.metadata["stats"]
    assert stats["rhs_evaluations"] > 1 + 12 * (stats["accepted"] + stats["rejected"])


def _scenario(integrator):
    return {
        "name": "case",
        "variant": "base",
        "beta": [[0.0]],
        "gamma": [[1.0]],
        "initial": [[1.0, 0.0, 0.0, 1.0]],
        "integrator": integrator,
    }


@pytest.mark.parametrize("value", ["rk4", "DOP853", 1, None, ["dop853"]])
def test_bad_method_exits_2_with_one_validation_line(tmp_path, capsys, value):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(_scenario({"t_span": [0.0, 1.0], "samples": 5, "method": value})))
    rc = main(["integrate", "--scenario", str(path), "--out-dir", str(tmp_path)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith("ERROR ValidationError: integrator.method: "), lines
    assert not (tmp_path / "case_numeric.csv").exists()


def test_method_defaults_to_dopri5():
    for integrator in ({"t_span": [0.0, 1.0], "samples": 5}, None):
        data = _scenario(integrator)
        if integrator is None:
            del data["integrator"]
        sc = scenario_from_dict(data)
        assert sc.integrator.method == "dopri5"
        assert _numeric_trajectory(sc).metadata["method"] == "dopri5"
    assert IntegratorConfig().method == "dopri5"
    with pytest.raises(ValueError, match="method must be one of"):
        IntegratorConfig(method="rk45")


def test_an_explicit_dopri5_runs_as_the_default():
    data = _scenario({"t_span": [0.0, 3.0], "samples": 31})
    default = _numeric_trajectory(scenario_from_dict(data))
    data["integrator"]["method"] = "dopri5"
    explicit = _numeric_trajectory(scenario_from_dict(data))
    assert default.metadata == explicit.metadata
    assert np.array_equal(default.positions, explicit.positions)
    assert np.array_equal(default.velocities, explicit.velocities)

