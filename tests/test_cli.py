"""Command line interface: subcommands, file formats, exit codes, diagnostics."""
import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planebody import PlanebodyError, ValidationError, linalg
from planebody.cli import _numeric_trajectory, main, read_trajectory_csv, write_trajectory_csv
from planebody.integrate import IntegratorConfig, Trajectory, integrate
from planebody.model import PlaneState, rhs_base, rhs_generalized, rhs_pair, zero_couplings
from planebody.scenario import builtin_scenarios, scenario_from_dict

from _util import count_frozen_arrays

TWO_PI = 2.0 * math.pi


def _write_scenario(tmp_path, data, filename="case.json"):
    path = tmp_path / filename
    path.write_text(json.dumps(data))
    return str(path)


def _basic_scenario(name="case"):
    return {
        "name": name,
        "variant": "base",
        "beta": [[0.0, 0.0], [0.0, 0.0]],
        "gamma": [[1.0, 0.0], [0.0, 2.0]],
        "initial": [[1.0, 0.0, 0.0, 1.0], [0.0, 1.5, -3.0, 0.0]],
        "integrator": {"t_span": [0.0, 1.0], "samples": 21},
        "outputs": ["comparison"],
    }


def test_demo_circle_pipeline(tmp_path, capsys):
    rc = main(["demo", "circle", "--out-dir", str(tmp_path)])
    assert rc == 0
    for suffix in ("_scenario.json", "_exact.csv", "_numeric.csv", "_compare.txt", "_classify.txt"):
        assert (tmp_path / f"circle{suffix}").exists()
    header = (tmp_path / "circle_exact.csv").read_text().splitlines()[0]
    assert header == "t,x_1,y_1,vx_1,vy_1"
    report = (tmp_path / "circle_compare.txt").read_text().splitlines()
    devs = {line.split(": ")[0]: float(line.split(": ")[1])
            for line in report if "deviation_abs" in line.split(": ")[0]}
    assert devs["max_position_deviation_abs"] <= 1e-8
    assert devs["max_velocity_deviation_abs"] <= 1e-8
    out = capsys.readouterr().out
    assert "max position deviation" in out


def test_demo_all_builtins_run_clean(tmp_path):
    for name in builtin_scenarios():
        out = tmp_path / name
        assert main(["demo", name, "--out-dir", str(out)]) == 0
        assert (out / f"{name}_scenario.json").exists()


def test_demo_scenario_file_reparses(tmp_path):
    assert main(["demo", "circle", "--out-dir", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "circle_scenario.json").read_text())
    assert data["variant"] == "base"
    assert data["integrator"]["samples"] == 201


def test_solve_subcommand(tmp_path):
    path = _write_scenario(tmp_path, _basic_scenario())
    rc = main(["solve", "--scenario", path, "--out-dir", str(tmp_path)])
    assert rc == 0
    data = np.loadtxt(tmp_path / "case_exact.csv", delimiter=",", skiprows=1)
    assert data.shape == (21, 9)
    assert data[0, 0] == 0.0 and data[-1, 0] == 1.0


def test_integrate_subcommand(tmp_path, capsys):
    path = _write_scenario(tmp_path, _basic_scenario())
    rc = main(["integrate", "--scenario", path, "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "case_numeric.csv").exists()
    assert "accepted steps" in capsys.readouterr().out


def test_compare_subcommand(tmp_path):
    path = _write_scenario(tmp_path, _basic_scenario())
    rc = main(["compare", "--scenario", path, "--out-dir", str(tmp_path)])
    assert rc == 0
    report = (tmp_path / "case_compare.txt").read_text()
    assert "max_position_deviation_abs: " in report
    assert "particle_2_velocity_deviation_time: " in report
    value = float(report.split("max_position_deviation_rel: ")[1].splitlines()[0])
    assert value < 1e-6


def test_classify_subcommand(tmp_path, capsys):
    sc = _basic_scenario()
    # dt = 0.025 keeps the interpolation floor of the period detector
    # well below its acceptance tolerance for these amplitudes
    sc["integrator"] = {"t_span": [0.0, 14.0], "samples": 561}
    path = _write_scenario(tmp_path, sc)
    rc = main(["classify", "--scenario", path, "--out-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "case_classify.txt").read_text()
    assert "all_imaginary: true" in text
    assert "row_sums_zero: false" in text
    predicted = float(text.split("predicted_period: ")[1].splitlines()[0])
    assert predicted == pytest.approx(TWO_PI, rel=1e-9)
    detected = float(text.split("detected_period: ")[1].splitlines()[0])
    assert detected == pytest.approx(TWO_PI, rel=1e-5)


def test_csv_roundtrip(tmp_path):
    c = zero_couplings(1)
    s0 = PlaneState([[1.0, 0.0]], [[0.0, 1.0]])
    cfg = IntegratorConfig(t_span=(0.0, 2.0), sample_count=17)
    traj = integrate(lambda t, s: rhs_base(c, s), s0, cfg)
    path = str(tmp_path / "round.csv")
    write_trajectory_csv(path, traj)
    back = read_trajectory_csv(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.positions, traj.positions)
    assert np.array_equal(back.velocities, traj.velocities)


def test_csv_rows_match_per_value_formatting(tmp_path):
    # one row format per sample gives the bytes of formatting each value
    # with "{:.17g}", column by column, for awkward values too
    rng = np.random.default_rng(58)
    m, p = 7, 3
    pos = rng.standard_normal((m, p, 2)) * 10.0 ** rng.integers(-300, 300, (m, p, 2))
    vel = rng.standard_normal((m, p, 2))
    pos[0, 0] = [-0.0, 5e-324]
    vel[1, 2] = [1.0 / 3.0, -1e300]
    times = np.linspace(-1.0, 2.0, m)
    traj = Trajectory(times=times, positions=pos, velocities=vel, pair=False)
    path = str(tmp_path / "rows.csv")
    write_trajectory_csv(path, traj)
    want = ["t," + ",".join(f"x_{j},y_{j},vx_{j},vy_{j}" for j in range(1, p + 1))]
    for i in range(m):
        row = [times[i]]
        for j in range(p):
            row += [pos[i, j, 0], pos[i, j, 1], vel[i, j, 0], vel[i, j, 1]]
        want.append(",".join("{:.17g}".format(x) for x in row))
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == "\n".join(want) + "\n"


def _as_pair(data):
    """The basic n = 2 scenario turned into a valid pair scenario, in place."""
    data["variant"] = "pair"
    data["pair_params"] = {"Lambda": [0.1, -0.2], "Omega": [1.0, 0.5]}
    data["initial"] += [[-0.5, 0.1, 0.0, -0.2], [0.3, -0.8, 0.2, 0.0]]
    return data


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.__setitem__("gamma", [[1.0, 0.0]]), "gamma"),
        (lambda d: d.pop("initial"), "initial"),
        (lambda d: d.__setitem__("variant", "quartic"), "variant"),
        (lambda d: d.__setitem__("initial", [[1.0, 0.0, 0.0]]), "initial"),
        (lambda d: d["integrator"].__setitem__("t_span", [0.0]), "integrator.t_span"),
        (lambda d: d.__setitem__("outputs", ["sculpture"]), "outputs"),
        pytest.param(lambda d: d.__setitem__("beta", [[0.0, 0.0], [0.0]]), "beta", id="ragged-beta"),
        pytest.param(lambda d: d.__setitem__("beta", [[0.0, "zero"], [0.0, 0.0]]), "beta", id="string-in-beta"),
        pytest.param(lambda d: d.__setitem__("beta", {"rows": 2}), "beta", id="object-beta"),
        pytest.param(lambda d: d.__setitem__("beta", [[0.0, 10**400], [0.0, 0.0]]), "beta", id="huge-int-in-beta"),
        pytest.param(lambda d: d["gamma"][0].__setitem__(1, math.nan), "gamma", id="nan-in-gamma"),
        pytest.param(lambda d: d["gamma"][1].__setitem__(0, math.inf), "gamma", id="inf-in-gamma"),
        pytest.param(lambda d: _as_pair(d)["pair_params"].__setitem__("Lambda", [0.1]), "pair_params.Lambda", id="short-Lambda"),
        pytest.param(lambda d: _as_pair(d)["pair_params"].__setitem__("Omega", [1.0, "fast"]), "pair_params.Omega", id="string-in-Omega"),
        pytest.param(lambda d: d.__setitem__("initial", [[1.0, 0.0, 0.0], [0.0, 1.5, -3.0]]), "initial", id="initial-rows-of-3"),
        pytest.param(lambda d: _as_pair(d)["initial"].pop(), "initial", id="pair-initial-2n-1-rows"),
        pytest.param(lambda d: d["initial"].append([0.5, 0.5, 0.0, 0.0]), "initial", id="initial-n+1-rows"),
        pytest.param(lambda d: d["integrator"].__setitem__("rtol", 10**400), "integrator.rtol", id="huge-int-rtol"),
        pytest.param(lambda d: d["beta"][0].__setitem__(0, "1.5"), "beta", id="numeric-string-in-beta"),
        pytest.param(lambda d: d["gamma"][0].__setitem__(0, True), "gamma", id="true-in-gamma"),
        pytest.param(lambda d: d["gamma"].__setitem__(0, [2.0, False]), "gamma", id="false-in-gamma-row"),
        pytest.param(lambda d: d["beta"][1].__setitem__(1, None), "beta", id="null-in-beta"),
        pytest.param(lambda d: d["initial"][0].__setitem__(0, "1"), "initial", id="string-in-initial"),
        pytest.param(lambda d: d["integrator"].__setitem__("rtol", "1e-9"), "integrator.rtol", id="string-rtol"),
        pytest.param(lambda d: d["integrator"].__setitem__("t_span", [0.0, True]), "integrator.t_span", id="true-in-t_span"),
        pytest.param(lambda d: d["integrator"].__setitem__("t_span", [0.0, 1.0, 2.0]), "integrator.t_span", id="t_span-of-3"),
        pytest.param(lambda d: d.__setitem__("integrator", [0.0, 1.0]), "integrator", id="integrator-not-object"),
        pytest.param(lambda d: d["integrator"].__setitem__("samples", 2.5), "integrator.samples", id="fractional-samples"),
        pytest.param(lambda d: d["integrator"].__setitem__("samples", True), "integrator.samples", id="true-samples"),
        pytest.param(lambda d: d.__setitem__("name", ""), "name", id="empty-name"),
        pytest.param(lambda d: d.__setitem__("name", 3), "name", id="number-name"),
        pytest.param(lambda d: d.__setitem__("variant", "generalized"), "generalized_params", id="generalized-without-params"),
        pytest.param(lambda d: d.__setitem__("outputs", "comparison"), "outputs", id="outputs-string"),
    ],
)
def test_malformed_scenario_names_field(tmp_path, capsys, mutate, field):
    data = _basic_scenario()
    mutate(data)
    path = _write_scenario(tmp_path, data)
    rc = main(["solve", "--scenario", path, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("ERROR ValidationError: ")
    assert field in err


def test_pair_variant_requires_pair_params(tmp_path, capsys):
    data = _basic_scenario()
    data["variant"] = "pair"
    data["initial"] = data["initial"] * 2
    path = _write_scenario(tmp_path, data)
    rc = main(["solve", "--scenario", path, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "pair_params" in err


def test_missing_scenario_file(tmp_path, capsys):
    rc = main(["solve", "--scenario", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("ERROR ParseError: ")


def test_unparseable_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\"name\": ")
    rc = main(["solve", "--scenario", str(path), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("ERROR ParseError: ")


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "ERROR Usage: " in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 2


def test_defective_coupling_exits_1(tmp_path, capsys):
    data = _basic_scenario()
    data["beta"] = [[0.0, 1.0], [0.0, 0.0]]
    data["gamma"] = [[0.0, 0.0], [0.0, 0.0]]
    data["initial"] = [[1.0, 0.0, 1.0, 0.0], [2.0, 0.0, 2.0, 0.0]]
    path = _write_scenario(tmp_path, data)
    rc = main(["solve", "--scenario", path, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("ERROR DefectiveMatrix: ")


def test_override_flags(tmp_path):
    path = _write_scenario(tmp_path, _basic_scenario())
    rc = main(["solve", "--scenario", path, "--out-dir", str(tmp_path), "--samples", "11"])
    assert rc == 0
    data = np.loadtxt(tmp_path / "case_exact.csv", delimiter=",", skiprows=1)
    assert data.shape[0] == 11
    rc = main(["integrate", "--scenario", path, "--out-dir", str(tmp_path),
               "--rtol", "1e-6", "--atol", "1e-9"])
    assert rc == 0


def test_invalid_override_exits_2(tmp_path, capsys):
    path = _write_scenario(tmp_path, _basic_scenario())
    rc = main(["solve", "--scenario", path, "--out-dir", str(tmp_path), "--samples", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("ERROR ValidationError: integrator")


def test_out_dir_created(tmp_path):
    path = _write_scenario(tmp_path, _basic_scenario())
    nested = tmp_path / "a" / "b"
    rc = main(["solve", "--scenario", path, "--out-dir", str(nested)])
    assert rc == 0
    assert (nested / "case_exact.csv").exists()


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_solve_overflow_exits_1_with_one_error_line(tmp_path, capsys):
    data = _basic_scenario()
    data["beta"] = [[1.0]]
    data["gamma"] = [[0.0]]
    data["initial"] = [[1.0, 0.0, 1.0, 0.0]]
    data["integrator"] = {"t_span": [0.0, 800.0], "samples": 2}
    path = _write_scenario(tmp_path, data)
    rc = main(["solve", "--scenario", path, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR Overflow: ")
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_solve_velocity_overflow_exits_1_with_one_error_line(tmp_path, capsys):
    # the exponent stays below 700 while z' = f z overflows first
    data = _basic_scenario()
    data["beta"] = [[100.0]]
    data["gamma"] = [[0.0]]
    data["initial"] = [[1.0, 0.0, 1.0, 0.0]]
    data["integrator"] = {"t_span": [0.0, 0.2], "samples": 20001}
    path = _write_scenario(tmp_path, data)
    rc = main(["solve", "--scenario", path, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR Overflow: ")
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_solve_pair_collision_exits_1_with_one_error_line(tmp_path, capsys):
    # the pair difference decays as exp(-40 t) and the families coincide
    # exactly near t = 1, long before the exponent leaves the range
    data = _basic_scenario()
    data["variant"] = "pair"
    data["beta"] = [[0.0]]
    data["gamma"] = [[0.0]]
    data["initial"] = [[1.0, 1.0, -20.0, 0.0], [0.0, 1.0, 20.0, 0.0]]
    data["pair_params"] = {"Lambda": [0.0], "Omega": [0.0]}
    data["integrator"] = {"t_span": [0.0, 20.0], "samples": 201}
    path = _write_scenario(tmp_path, data)
    rc = main(["solve", "--scenario", path, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR PairCollision: ")
    assert "Traceback" not in err


def test_demo_integrates_once(tmp_path, monkeypatch):
    import planebody.cli as cli

    calls = []
    real = cli.integrate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate", counting)
    demo = tmp_path / "demo"
    assert main(["demo", "periodic-2-3", "--out-dir", str(demo)]) == 0
    assert len(calls) == 1
    # the subcommands, which integrate on their own, write the same files
    scenario = str(demo / "periodic-2-3_scenario.json")
    sub = tmp_path / "sub"
    assert main(["compare", "--scenario", scenario, "--out-dir", str(sub)]) == 0
    assert main(["classify", "--scenario", scenario, "--out-dir", str(sub)]) == 0
    for suffix in ("_exact.csv", "_numeric.csv", "_compare.txt", "_classify.txt"):
        name = f"periodic-2-3{suffix}"
        assert (demo / name).read_bytes() == (sub / name).read_bytes()
    assert "detected_period: 6.28318" in (demo / "periodic-2-3_classify.txt").read_text()


def test_classify_reports_period_on_decreasing_time_span(tmp_path, capsys):
    data = _basic_scenario("backward")
    data["gamma"] = [[2.0, 0.0], [0.0, 3.0]]
    data["initial"] = [[1.0, 0.0, 0.1, 0.2], [0.0, 1.5, 0.3, 0.0]]
    data["integrator"] = {"t_span": [14.0, 0.0], "samples": 281}
    path = _write_scenario(tmp_path, data)
    assert main(["classify", "--scenario", path, "--out-dir", str(tmp_path)]) == 0
    text = capsys.readouterr().out
    detected = float(text.split("detected_period: ")[1].splitlines()[0])
    assert detected == pytest.approx(TWO_PI, rel=1e-6)


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_solve_pair_overflow_exits_1_with_one_error_line(tmp_path, capsys):
    # the pair centre velocity 1e10 exp(400 t) overflows near t = 1.717
    data = _basic_scenario()
    data["variant"] = "pair"
    data["beta"] = [[0.0]]
    data["gamma"] = [[0.0]]
    data["pair_params"] = {"Lambda": [400.0], "Omega": [0.0]}
    data["initial"] = [[1.0, 1.0, 0.5e10 + 200.0, 0.0], [0.0, 1.0, 0.5e10 - 200.0, 0.0]]
    data["integrator"] = {"t_span": [0.0, 2.0], "samples": 201}
    path = _write_scenario(tmp_path, data)
    rc = main(["solve", "--scenario", path, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR Overflow: ")



@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("command", ["integrate", "classify"])
def test_force_overflow_in_a_stage_prints_no_warning(tmp_path, capsys, command):
    # a particle at radius 1e-72 moving at unit speed: the force kernel
    # overflows in the first stages, and the integrator reports the
    # non-finite derivative (classify reports no period)
    data = _basic_scenario("tiny")
    data["beta"] = [[0.0]]
    data["gamma"] = [[0.0]]
    data["initial"] = [[1e-72, 0.0, 1.0, 0.0]]
    data["integrator"] = {"t_span": [0.0, 0.3], "samples": 2}
    path = _write_scenario(tmp_path, data)
    rc = main([command, "--scenario", path, "--out-dir", str(tmp_path)])
    lines = capsys.readouterr().err.splitlines()
    if command == "integrate":
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("ERROR OriginCollision: ")
    else:
        assert rc == 0 and lines == []


def _public_rhs(sc):
    """The scenario's force law as a user would pass it to integrate."""
    if sc.variant == "pair":
        return lambda t, s: rhs_pair(sc.pair, s)
    if sc.variant == "generalized":
        return lambda t, s: rhs_generalized(sc.couplings, sc.generalized, t, s)
    return lambda t, s: rhs_base(sc.couplings, s)


def _variant_scenario(variant, initial, t_span, beta, gamma, rates=(0.3, 1.1)):
    n = len(beta)
    data = {
        "name": variant,
        "variant": variant,
        "beta": beta,
        "gamma": gamma,
        "initial": initial,
        "integrator": {"t_span": t_span, "samples": 41},
    }
    if variant == "generalized":
        data["generalized_params"] = {"lambda": rates[0], "omega": rates[1]}
    if variant == "pair":
        data["pair_params"] = {"Lambda": [rates[0]] * n, "Omega": [rates[1]] * n}
    return scenario_from_dict(data)


@pytest.mark.parametrize("variant", ["base", "generalized", "pair"])
def test_cli_stage_route_matches_public_integrate(variant):
    # the CLI's in-place stage forces and integrate(lambda t, s: rhs_*(...))
    # run the same arithmetic: identical samples and step statistics
    rng = np.random.default_rng(57)
    n = 3
    rows = 2 * n if variant == "pair" else n
    angles = rng.uniform(0.0, 2.0 * math.pi, rows)
    radii = rng.uniform(0.8, 1.2, rows)
    initial = np.column_stack(
        [radii * np.cos(angles), radii * np.sin(angles), 0.3 * rng.standard_normal((rows, 2))]
    )
    sc = _variant_scenario(
        variant,
        initial.tolist(),
        [0.0, 2.0],
        (0.3 * rng.standard_normal((n, n))).tolist(),
        (0.3 * rng.standard_normal((n, n))).tolist(),
    )
    via_cli = _numeric_trajectory(sc)
    via_api = integrate(_public_rhs(sc), sc.initial, sc.integrator)
    assert via_cli.metadata["stats"] == via_api.metadata["stats"]
    assert via_cli.metadata["stats"]["rhs_evaluations"] > 200
    assert via_cli.pair == via_api.pair == (variant == "pair")
    for a, b in (
        (via_cli.times, via_api.times),
        (via_cli.positions, via_api.positions),
        (via_cli.velocities, via_api.velocities),
    ):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("variant", ["base", "generalized", "pair"])
def test_cli_stage_route_trips_the_guard_as_public_integrate(variant):
    # particle 1 (for pairs, the difference of pair 1) collapses towards
    # the origin at rate about 5 next to a resting particle at unit radius
    if variant == "pair":
        initial = [[1.0, 0.0, -5.0, 0.0], [0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 5.0, 0.0], [0.0, -1.0, 0.0, 0.0]]
    else:
        initial = [[1.0, 0.0, -5.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
    zero = [[0.0, 0.0], [0.0, 0.0]]
    sc = _variant_scenario(variant, initial, [0.0, 8.0], zero, zero, rates=(0.02, 0.05))
    errors = []
    for run in (lambda: _numeric_trajectory(sc), lambda: integrate(_public_rhs(sc), sc.initial, sc.integrator)):
        with pytest.raises(PlanebodyError) as info:
            run()
        errors.append(info.value)
    assert errors[0].code == errors[1].code == "OriginCollision"
    assert errors[0].time is not None and 1.0 < errors[0].time < 8.0
    assert errors[0].time == errors[1].time
    assert str(errors[0]) == str(errors[1])


# Random base, generalized and pair scenarios, bounded so that every run is
# short: couplings within 30, |t_span| within 3, at most 60 samples.
_COUPLING = st.floats(-30.0, 30.0, allow_nan=False) | st.just(0.0)
_POSITION = st.floats(-3.0, 3.0, allow_nan=False)
_VELOCITY = st.floats(-3.0, 3.0, allow_nan=False) | st.just(0.0)


@st.composite
def _scenarios(draw):
    variant = draw(st.sampled_from(["base", "generalized", "pair"]))
    n = draw(st.integers(1, 3))
    matrix = st.lists(st.lists(_COUPLING, min_size=n, max_size=n), min_size=n, max_size=n)
    row = st.tuples(_POSITION, _POSITION, _VELOCITY, _VELOCITY).map(list)
    rows = 2 * n if variant == "pair" else n
    data = {
        "name": "fuzz",
        "variant": variant,
        "beta": draw(matrix),
        "gamma": draw(matrix),
        "initial": draw(st.lists(row, min_size=rows, max_size=rows)),
        "integrator": {
            "t_span": [0.0, draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 3.0))],
            "samples": draw(st.integers(2, 60)),
        },
    }
    if variant == "generalized":
        data["generalized_params"] = {"lambda": draw(_COUPLING), "omega": draw(_COUPLING)}
    if variant == "pair":
        rates = st.lists(_COUPLING, min_size=n, max_size=n)
        data["pair_params"] = {"Lambda": draw(rates), "Omega": draw(rates)}
    return data


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(_scenarios(), st.sampled_from(["solve", "integrate", "compare", "classify"]))
def test_cli_ends_in_a_result_or_one_error_line(data, command):
    # any escaping exception (a traceback for the user) fails the test
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, "--scenario", path, "--out-dir", tmp])
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == []
    else:
        assert rc in (1, 2)
        assert len(lines) == 1 and lines[0].startswith("ERROR ")


@pytest.mark.parametrize("name", ["damped", "pair"])
def test_cli_route_guards_once_per_force_evaluation(monkeypatch, name):
    import importlib

    import planebody.model as model

    # the package exports the integrate function under the submodule's name
    integrate_module = importlib.import_module("planebody.integrate")
    calls = []
    real = model.check_origin_guard

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (model, integrate_module):
        monkeypatch.setattr(module, "check_origin_guard", counting)
    traj = _numeric_trajectory(scenario_from_dict(builtin_scenarios()[name]))
    assert len(calls) == traj.metadata["stats"]["rhs_evaluations"]


@pytest.mark.parametrize("command", ["solve", "demo"])
def test_out_dir_naming_a_file_exits_2_with_one_error_line(tmp_path, capsys, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    if command == "demo":
        argv = ["demo", "circle"]
    else:
        argv = ["solve", "--scenario", _write_scenario(tmp_path, _basic_scenario())]
    rc = main(argv + ["--out-dir", str(blocker)])
    err = capsys.readouterr().err
    assert rc == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR ConfigError: ")


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_solve_pair_with_huge_opposite_families_exits_1_with_one_error_line(tmp_path, capsys):
    # the families' difference 2e308 is past the float64 range
    data = _basic_scenario()
    data["variant"] = "pair"
    data["beta"] = [[0.0]]
    data["gamma"] = [[0.0]]
    data["pair_params"] = {"Lambda": [0.0], "Omega": [0.0]}
    data["initial"] = [[1e308, 0.0, 0.0, 1.0], [-1e308, 0.0, 0.0, -1.0]]
    path = _write_scenario(tmp_path, data)
    rc = main(["solve", "--scenario", path, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR Overflow: ")


def _one_error_line(capsys, argv, code):
    rc = main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"ERROR {code}: "), lines
    return rc


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("command", ["solve", "integrate", "compare"])
def test_overflowing_initial_log_derivative_exits_1_with_one_overflow_line(tmp_path, capsys, command):
    # z'/z = 1e310 is past the float64 range
    data = _basic_scenario("steep")
    data["beta"] = [[0.0]]
    data["gamma"] = [[0.0]]
    data["initial"] = [[1e-10, 0.0, 1e300, 0.0]]
    path = _write_scenario(tmp_path, data)
    assert _one_error_line(capsys, [command, "--scenario", path, "--out-dir", str(tmp_path)], "Overflow") == 1


def _guarded_start(variant):
    """A scenario of the variant with one initial particle inside the
    origin guard: at 1e-14 beside one at radius 1, or, for a pair, a
    minus particle 1e-13 from its plus partner."""
    if variant == "pair":
        data = dict(builtin_scenarios()["pair"], name="guarded-pair")
        data["initial"][2][:2] = [1.0 + 1e-13, 0.0]  # plus particle 1 is at (1, 0)
        return data
    data = _basic_scenario(f"guarded-{variant}")
    data.update(variant=variant, initial=[[1e-14, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0]])
    if variant == "generalized":
        data["generalized_params"] = {"lambda": 0.1, "omega": 0.8}
    return data


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("command", ["solve", "integrate", "compare"])
@pytest.mark.parametrize("variant", ["base", "generalized", "pair"])
def test_initial_state_inside_the_guard_is_an_origin_state_on_both_routes(tmp_path, capsys, variant, command):
    path = _write_scenario(tmp_path, _guarded_start(variant))
    assert _one_error_line(capsys, [command, "--scenario", path, "--out-dir", str(tmp_path)], "OriginState") == 1


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_huge_opposite_families_fail_alike_on_both_routes(tmp_path, capsys):
    data = _basic_scenario("huge-pair")
    data["variant"] = "pair"
    data["beta"] = [[0.0]]
    data["gamma"] = [[0.0]]
    data["pair_params"] = {"Lambda": [0.0], "Omega": [0.0]}
    data["initial"] = [[1e308, 0.0, 0.0, 1.0], [-1e308, 0.0, 0.0, -1.0]]
    path = _write_scenario(tmp_path, data)
    for command in ("solve", "integrate"):
        assert _one_error_line(capsys, [command, "--scenario", path, "--out-dir", str(tmp_path)], "Overflow") == 1


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("command", ["solve", "integrate", "compare", "classify"])
def test_repeated_sample_times_exit_2_with_one_validation_line(tmp_path, capsys, command):
    data = _basic_scenario("flat")
    data["integrator"] = {"t_span": [0.0, 1e-320], "samples": 5000}
    path = _write_scenario(tmp_path, data)
    argv = [command, "--scenario", path, "--out-dir", str(tmp_path)]
    assert _one_error_line(capsys, argv, "ValidationError") == 2
    data["integrator"]["samples"] = 2  # distinct; the override repeats them
    path = _write_scenario(tmp_path, data)
    assert _one_error_line(capsys, argv + ["--samples", "5000"], "ValidationError") == 2


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("command", ["solve", "integrate", "compare", "classify"])
@pytest.mark.parametrize("beta, gamma", [
    ([[1e308, 0.0], [0.0, -1e308]], [[1e308, 0.0], [0.0, -1e308]]),  # eigenvalue gaps overflow
    ([[1.7e308, 1.7e308], [-1.7e308, 1.7e308]], [[1.7e308, -1.7e308], [1.7e308, 1.7e308]]),  # row sums
])
def test_huge_couplings_print_at_most_one_error_line(tmp_path, capsys, command, beta, gamma):
    data = _basic_scenario("huge")
    data["beta"] = beta
    data["gamma"] = gamma
    path = _write_scenario(tmp_path, data)
    rc = main([command, "--scenario", path, "--out-dir", str(tmp_path)])
    lines = capsys.readouterr().err.splitlines()
    if command == "classify":
        assert rc == 0 and lines == []
    else:
        assert rc == 1 and len(lines) == 1 and lines[0].startswith("ERROR "), lines


# The pair scenario whose relative coordinates cancel below rounding: the
# integrator stalls on it (it did not end within 10 s), while the closed
# form fails in PairCollision at t = -0.538.
_FUZZ_PAIR = {
    "name": "fuzz", "variant": "pair",
    "beta": [[-12.652190893989005, 0.0, 0.0], [0.0, -12.519870546233417, 7.310142785036611],
             [0.0, 0.0, 0.0]],
    "gamma": [[0.0, -2.3358174116797032e-102, 0.0],
              [-1.0492230724276654e-218, 4.4817953493370915e-68, 0.0],
              [0.0, 26.007209233552636, 29.055411764273778]],
    "initial": [[1.4393348365318248, -4.1731567494355164e-128, 0.0, 0.0],
                [-2.9999999999999996, 2.2834396820619407, 0.0, 1.3927330871671018],
                [-2.526025709644335, -1.3575944205432653, 0.0, -0.6420627525997986],
                [2.4249019631845865, -1.1, 0.0, 0.0],
                [-2.1489069140645993, -0.7, 1.050180616312999, 0.0],
                [-1.8041423522495128, -2.7520744215158746, 1.0, 4.978972892213176e-49]],
    "integrator": {"t_span": [0.0, -1.7948999352387331], "samples": 21},
    "pair_params": {"Lambda": [6.950203840744855, 28.32058938861848, 0.0], "Omega": [0.0, 0.0, 0.0]},
}


@pytest.mark.filterwarnings("error")  # a warning would be a stderr line
def test_classify_on_a_stalling_pair_scenario_reports_the_closed_form_failure(tmp_path, capsys, monkeypatch):
    import planebody.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("integrate was called")

    monkeypatch.setattr(cli, "integrate", refuse)
    path = _write_scenario(tmp_path, _FUZZ_PAIR)
    assert main(["classify", "--scenario", path, "--out-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "detected_period: unavailable (PairCollision)\n" in captured.out
    assert "detected_period: unavailable (PairCollision)\n" in (tmp_path / "fuzz_classify.txt").read_text()


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_classify_never_integrates(tmp_path, monkeypatch, name):
    import planebody.cli as cli

    calls = []
    real = cli.integrate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate", counting)
    path = _write_scenario(tmp_path, builtin_scenarios()[name])
    assert main(["classify", "--scenario", path, "--out-dir", str(tmp_path)]) == 0
    assert calls == []
    # the demo detects on the same closed-form grid
    assert main(["demo", name, "--out-dir", str(tmp_path / "demo")]) == 0
    assert len(calls) == 1
    name_file = f"{name}_classify.txt"
    assert (tmp_path / name_file).read_bytes() == (tmp_path / "demo" / name_file).read_bytes()


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_builtin_demo_routes_agree_to_1e_8(name):
    from planebody.cli import _exact_trajectory
    from planebody.integrate import compare

    sc = scenario_from_dict(builtin_scenarios()[name])
    report = compare(_exact_trajectory(sc), _numeric_trajectory(sc))
    assert max(report.max_position_rel, report.max_velocity_rel) <= 1e-8


@pytest.mark.parametrize("name", ["{tmp}/elsewhere/x", "../up", "a\\b", "nul\0byte"])
def test_scenario_name_with_a_path_exits_2_and_writes_nothing(tmp_path, capsys, name):
    (tmp_path / "elsewhere").mkdir()  # so that an absolute name could be written
    data = _basic_scenario(name.format(tmp=tmp_path))
    data["outputs"] = ["trajectory"]
    path = _write_scenario(tmp_path, data)
    out_dir = tmp_path / "out" / "sub"
    assert main(["solve", "--scenario", path, "--out-dir", str(out_dir)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR ValidationError: name: "), lines
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["case.json"]


@pytest.mark.parametrize("command", ["solve", "integrate", "classify"])
@pytest.mark.parametrize("in_file", [True, False])
def test_unallocatable_sample_grid_exits_2_with_one_config_line(tmp_path, capsys, command, in_file):
    # 10**18 float64 times are 6.9 EiB, past any address space: the
    # allocation fails before any memory is touched
    data = _basic_scenario()
    argv = [command, "--out-dir", str(tmp_path)]
    if in_file:
        data["integrator"]["samples"] = 10**18
    else:
        argv += ["--samples", str(10**18)]
    argv += ["--scenario", _write_scenario(tmp_path, data)]
    assert _one_error_line(capsys, argv, "ConfigError") == 2


def test_scalar_beta_names_the_field_once(tmp_path, capsys):
    data = _basic_scenario()
    data["beta"] = 3
    assert main(["solve", "--scenario", _write_scenario(tmp_path, data), "--out-dir", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR ValidationError: beta: "), lines
    assert lines[0].count("beta") == 1 and "None" not in lines[0], lines


@pytest.mark.parametrize("command", ["integrate", "compare"])
@pytest.mark.parametrize("flag, value", [("--rtol", "inf"), ("--atol", "inf"), ("--rtol", "1e400")])
def test_infinite_tolerance_flag_exits_2_with_one_validation_line(tmp_path, capsys, command, flag, value):
    path = _write_scenario(tmp_path, builtin_scenarios()["damped"])
    argv = [command, "--scenario", path, "--out-dir", str(tmp_path), flag, value]
    assert _one_error_line(capsys, argv, "ValidationError") == 2
    assert [p.name for p in tmp_path.iterdir()] == ["case.json"]


@pytest.mark.parametrize("depth", [990, 10**5])
def test_deeply_nested_scenario_exits_2_with_one_parse_line(tmp_path, capsys, depth):
    text = json.dumps(_basic_scenario()).replace('"beta": [[0.0, 0.0], [0.0, 0.0]]', '"beta": ' + "[" * depth + "0.0" + "]" * depth)
    path = tmp_path / "deep.json"
    path.write_text(text)
    argv = ["solve", "--scenario", str(path), "--out-dir", str(tmp_path)]
    assert _one_error_line(capsys, argv, "ParseError") == 2


def test_deeply_nested_array_is_rejected_without_recursion():
    # deeper than json.load reads, and than Python's recursion limit
    beta = [0.0]
    for _ in range(10**5):
        beta = [beta]
    data = _basic_scenario()
    data["beta"] = beta
    with pytest.raises(ValidationError, match="^beta: "):
        scenario_from_dict(data)


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("command", ["solve", "compare"])
def test_eigenvalue_past_the_float64_range_exits_1_with_one_overflow_line(tmp_path, capsys, command):
    data = _basic_scenario("huge")
    data["beta"] = [[1.7e308, 1.7e308], [-1.7e308, 1.7e308]]
    data["gamma"] = [[1.7e308, -1.7e308], [1.7e308, 1.7e308]]
    assert main([command, "--scenario", _write_scenario(tmp_path, data), "--out-dir", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["ERROR Overflow: eigenvalue 2 lies outside the float64 range"], lines


def test_top_level_list_exits_2_naming_the_scenario(tmp_path, capsys):
    path = _write_scenario(tmp_path, [_basic_scenario()])
    assert main(["solve", "--scenario", path, "--out-dir", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["ERROR ValidationError: scenario: top level must be an object"], lines


def test_scenario_without_integrator_gets_the_defaults():
    data = _basic_scenario()
    del data["integrator"]
    assert scenario_from_dict(data).integrator == IntegratorConfig()


def test_classify_reports_a_period_longer_than_half_the_span_unavailable(tmp_path):
    # gamma = diag(1, 2): predicted period 2 pi, sampled over 5 time units
    sc = _basic_scenario()
    sc["integrator"] = {"t_span": [0.0, 5.0], "samples": 51}
    assert main(["classify", "--scenario", _write_scenario(tmp_path, sc), "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "case_classify.txt").read_text().splitlines()
    assert "detected_period: unavailable (time span shorter than twice the candidate period)" in lines


@pytest.mark.filterwarnings("error")  # a warning would be a stderr line
def test_classify_flags_an_infinite_eigenvalue_unstable_not_zero(tmp_path, capsys):
    # eigenvalue 2 is inf + inf i; it sets no scale for the zero tolerance
    data = _basic_scenario("huge")
    data["beta"] = [[1.7e308, 1.7e308], [-1.7e308, 1.7e308]]
    data["gamma"] = [[1.7e308, -1.7e308], [1.7e308, 1.7e308]]
    assert main(["classify", "--scenario", _write_scenario(tmp_path, data), "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "huge_classify.txt").read_text().splitlines()
    assert "has_zero_mode: false" in lines and "has_unstable: true" in lines


def test_classify_prints_tiny_eigenvalues_exactly(tmp_path):
    data = _basic_scenario("tiny")
    data["beta"] = [[1e-300, 0.0], [0.0, 2e-300]]
    data["gamma"] = [[0.0, 0.0], [0.0, 0.0]]
    assert main(["classify", "--scenario", _write_scenario(tmp_path, data), "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "tiny_classify.txt").read_text().splitlines()
    assert f"eigenvalue_1: {1e-300:.17g}+0i" in lines and f"eigenvalue_2: {2e-300:.17g}+0i" in lines


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_position_underflow_names_the_particle_and_time(tmp_path, capsys):
    # z = 1e-160 exp(-400 t): exactly 0 in float64 at t = 1
    data = _basic_scenario("under")
    data.update(beta=[[0.0]], gamma=[[0.0]], initial=[[1e-160, 0.0, -4e-158, 0.0]])
    data["integrator"] = {"t_span": [0.0, 1.0], "samples": 11}
    argv = ["solve", "--scenario", _write_scenario(tmp_path, data), "--out-dir", str(tmp_path)]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["ERROR OriginState: particle 1 position underflows to the origin at t = 1.0"], lines


@pytest.mark.filterwarnings("error")  # a warning would be a stderr line
def test_classify_with_an_infinite_frequency_exits_0(tmp_path, capsys):
    # eigenvalue 2 overflows to inf*i; its real part is rounding noise
    data = _basic_scenario("inffreq")
    data["gamma"] = [[1.7e308, 1e308], [1e308, 1.7e308]]
    path = _write_scenario(tmp_path, data)
    assert main(["classify", "--scenario", path, "--out-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "all_imaginary: false" in captured.out.splitlines()
    assert "eigenvalue_2: 0+infi" in captured.out.splitlines()


def _stuck_scenario():
    # floats near 1e15 are 0.125 apart: the 7 sample times round to
    # uneven steps, and no step of the integrator can move t
    data = _basic_scenario("stuck")
    data.update(beta=[[0.0]], gamma=[[0.0]], initial=[[1.0, 0.0, 0.0, 1.0]])
    data["integrator"] = {"t_span": [1e15, 1e15 + 1.0], "samples": 7}
    return data


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("command", ["integrate", "compare"])
def test_a_step_that_cannot_move_t_exits_1_with_one_underflow_line(tmp_path, capsys, command):
    path = _write_scenario(tmp_path, _stuck_scenario())
    argv = [command, "--scenario", path, "--out-dir", str(tmp_path)]
    assert _one_error_line(capsys, argv, "StepUnderflow") == 1


@pytest.mark.filterwarnings("error")  # a warning would be a stderr line
def test_classify_on_an_uneven_sample_grid_reports_detection_unavailable(tmp_path, capsys):
    path = _write_scenario(tmp_path, _stuck_scenario())
    assert main(["solve", "--scenario", path, "--out-dir", str(tmp_path)]) == 0
    assert main(["classify", "--scenario", path, "--out-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = (tmp_path / "stuck_classify.txt").read_text().splitlines()
    assert "detected_period: unavailable (detect_period requires a uniform time grid)" in lines


def test_pair_spectrum_is_ordered_as_linalg_orders_eigenvalues(tmp_path, capsys):
    # real parts 0.1 and 0.0999999999999999 agree to rounding, so the
    # imaginary parts decide: 0.1+1i comes first
    data = _basic_scenario("order")
    data.update(variant="pair", beta=[[0.0999999999999999]], gamma=[[2.0]])
    data["pair_params"] = {"Lambda": [0.1], "Omega": [1.0]}
    data["initial"] = [[1.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 0.0, 0.5]]
    path = _write_scenario(tmp_path, data)
    assert main(["classify", "--scenario", path, "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "order_classify.txt").read_text().splitlines()
    reported = [
        complex(line.split(": ")[1].replace("i", "j")) for line in lines if line.startswith("eigenvalue_")
    ]
    assert reported == list(linalg.eigenvalues(np.diag(reported)))
    assert reported[0] == 0.1 + 1j


@pytest.mark.parametrize("name, calls", [("damped", 2), ("pair", 4)])
def test_parsed_initial_rows_are_checked_once(monkeypatch, name, calls):
    # beta and gamma (and a pair's rates) are checked by the parser and
    # again by their containers; the initial rows by the parser alone
    counted = count_frozen_arrays(monkeypatch)
    scenario_from_dict(builtin_scenarios()[name])
    assert len(counted) == calls


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_pair_scenario_with_coincident_families_exits_1_with_one_collision_line(tmp_path, capsys):
    data = _basic_scenario("coincident")
    data.update(variant="pair", beta=[[0.0]], gamma=[[0.0]])
    data["pair_params"] = {"Lambda": [0.0], "Omega": [0.0]}
    data["initial"] = [[1.0, 2.0, 0.0, 1.0], [1.0, 2.0, 0.5, 0.0]]
    path = _write_scenario(tmp_path, data)
    argv = ["solve", "--scenario", path, "--out-dir", str(tmp_path)]
    assert _one_error_line(capsys, argv, "PairCollision") == 1
    assert not (tmp_path / "coincident_exact.csv").exists()


@pytest.mark.filterwarnings("error")  # a warning would be a stderr line
def test_pair_spectrum_with_two_infinite_eigenvalues_is_ordered_without_warning(tmp_path, capsys):
    # each block [[b, b], [b, b]] has eigenvalues 0 (to rounding) and 2b = inf
    b = 1.7e308
    data = _basic_scenario("inf2")
    data.update(variant="pair", beta=[[b, b, 0, 0], [b, b, 0, 0], [0, 0, b, b], [0, 0, b, b]])
    data["gamma"] = [[0.0] * 4 for _ in range(4)]
    data["pair_params"] = {"Lambda": [0.1] * 4, "Omega": [1.0] * 4}
    data["initial"] = [[sign * (1.0 + j), 0.0, 0.0, 1.0] for sign in (1, -1) for j in range(4)]
    path = _write_scenario(tmp_path, data)
    assert main(["classify", "--scenario", path, "--out-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    values = [line.split(": ")[1] for line in captured.out.splitlines() if line.startswith("eigenvalue_")]
    assert values[:4] == ["0.10000000000000001+1i"] * 4
    assert values[6:] == ["inf+0i"] * 2


def _offset_scenarios():
    """Scenarios whose t_span does not start at 0: one per variant, and
    the built-in circle, which steps with DOP853."""
    base = _basic_scenario("base-offset")
    base.update(beta=[[0.0]], gamma=[[0.0]], initial=[[1.0, 0.0, 0.0, 1.0]])
    base["integrator"] = {"t_span": [5.0, 21.0], "samples": 17}
    generalized = _basic_scenario("generalized-offset")
    generalized.update(
        variant="generalized",
        beta=[[0.3, -0.2], [0.1, 0.2]],
        gamma=[[0.1, 0.4], [-0.3, 0.2]],
        generalized_params={"lambda": -0.2, "omega": 1.3},
        initial=[[1.0, 0.0, 0.0, 0.5], [0.0, 1.0, -0.4, 0.0]],
    )
    generalized["integrator"] = {"t_span": [1.5, 5.5], "samples": 41}
    pair = dict(builtin_scenarios()["pair"], name="pair-offset")
    pair["integrator"] = {"t_span": [-3.0, 1.0], "samples": 81}
    circle = dict(builtin_scenarios()["circle"], name="circle-offset")
    circle["integrator"] = dict(circle["integrator"], t_span=[5.0, 5.0 + 2.0 * math.pi])
    return [base, generalized, pair, circle]


@pytest.mark.parametrize("data", _offset_scenarios(), ids=lambda d: d["name"])
def test_closed_form_holds_the_initial_data_at_the_start_of_the_span(tmp_path, data):
    path = _write_scenario(tmp_path, data)
    assert main(["compare", "--scenario", path, "--out-dir", str(tmp_path)]) == 0
    report = (tmp_path / f"{data['name']}_compare.txt").read_text().splitlines()
    rel = [float(line.split(": ")[1]) for line in report if line.startswith("max_") and "_rel" in line]
    assert len(rel) == 2 and max(rel) <= 1e-6
    first = np.loadtxt(tmp_path / f"{data['name']}_exact.csv", delimiter=",", skiprows=1)[0]
    assert first[0] == data["integrator"]["t_span"][0]
    assert np.allclose(first[1:], np.ravel(data["initial"]), rtol=1e-14, atol=1e-14)


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_closed_form_failure_on_an_offset_span_reports_its_sample_time(tmp_path, capsys):
    # log|z| = e^s - 1 from the start t0 = 10 passes 700 at s = 6.56
    data = _basic_scenario("escape")
    data.update(beta=[[1.0]], gamma=[[0.0]], initial=[[1.0, 0.0, 1.0, 0.0]])
    data["integrator"] = {"t_span": [10.0, 20.0], "samples": 101}
    path = _write_scenario(tmp_path, data)
    assert main(["solve", "--scenario", path, "--out-dir", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR Overflow: ") and "at t = 16.6 " in lines[0]


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("command", ["solve", "integrate"])
def test_rotated_couplings_that_overflow_at_the_start_exit_1_with_one_overflow_line(tmp_path, capsys, command):
    # alpha e^{mu t0} with lam t0 = 1000 is past the float64 range on both routes
    data = _basic_scenario("late")
    data.update(variant="generalized", generalized_params={"lambda": 1.0, "omega": 0.5})
    data["integrator"] = {"t_span": [1000.0, 1001.0], "samples": 5}
    path = _write_scenario(tmp_path, data)
    assert _one_error_line(capsys, [command, "--scenario", path, "--out-dir", str(tmp_path)], "Overflow") == 1


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("command", ["solve", "integrate"])
@pytest.mark.parametrize("case", ["huge-pair", "steep"])
def test_initial_data_overflow_on_an_offset_span_names_its_start(tmp_path, capsys, command, case):
    # at t_span[0] = 5 the families' difference 2e308, or z'/z = 1e310, is past the float64 range
    data = _basic_scenario(case)
    data.update(beta=[[0.0]], gamma=[[0.0]], initial=[[1e-10, 0.0, 1e300, 0.0]])
    if case == "huge-pair":
        data.update(variant="pair", pair_params={"Lambda": [0.0], "Omega": [0.0]},
                    initial=[[1e308, 0.0, 0.0, 1.0], [-1e308, 0.0, 0.0, -1.0]])
    data["integrator"] = {"t_span": [5.0, 6.0], "samples": 5}
    path = _write_scenario(tmp_path, data)
    assert main([command, "--scenario", path, "--out-dir", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR Overflow: "), lines
    assert lines[0].endswith(" at t = 5.0") or " at t = 5.0 " in lines[0], lines


@pytest.mark.parametrize("argv", [
    ["demo"],
    ["demo", "circle", "--scenario", "x.json"],
    ["solve", "circle", "--scenario", "x.json"],
])
def test_a_command_without_its_one_scenario_source_is_one_usage_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR Usage: "), lines


@pytest.mark.parametrize("order", ["name-first", "options-first"])
def test_demo_takes_every_option(tmp_path, order):
    options = ["--out-dir", str(tmp_path), "--samples", "41", "--rtol", "1e-8", "--atol", "1e-11"]
    argv = ["demo", "circle"] + options if order == "name-first" else ["demo"] + options + ["circle"]
    assert main(argv) == 0
    for route in ("exact", "numeric"):
        data = np.loadtxt(tmp_path / f"circle_{route}.csv", delimiter=",", skiprows=1)
        assert data.shape == (41, 5)


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines() if line.startswith("    ")}
    assert {"solve", "integrate", "compare", "classify", "demo"} <= listed


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_classify_on_two_samples_reports_the_sample_count(tmp_path, capsys, name):
    # no candidate period exists to be longer than half the span
    path = _write_scenario(tmp_path, builtin_scenarios()[name])
    argv = ["classify", "--scenario", path, "--samples", "2", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / f"{name}_classify.txt").read_text().splitlines()
    assert lines[-1] == "detected_period: unavailable (2 samples cannot confirm any period)"
