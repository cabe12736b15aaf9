"""Command line front end.

Commands:

    solve      closed-form trajectory on the sample grid -> <name>_exact.csv
    integrate  adaptive numeric trajectory               -> <name>_numeric.csv
    compare    both routes plus a deviation report       -> *_exact.csv,
               *_numeric.csv, <name>_compare.txt
    classify   spectrum report, period prediction and
               best-effort period detection on the
               closed-form grid                          -> <name>_classify.txt
    demo NAME  write a built-in scenario file, then run the full pipeline

demo takes a built-in NAME, every other command --scenario FILE; every
option applies to every command.

Exit codes: 0 success, 1 runtime/model failure, 2 configuration or usage
failure, an output directory or file that cannot be written and a sample
grid that cannot be allocated included.
Failures print a single ``ERROR <code>: <detail>`` line to stderr.
Data files are deterministic; timing goes to stdout only.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import exact, linalg
from .classify import classify, detect_period
from .errors import (
    BlowupError,
    InsufficientSpanError,
    PlanebodyError,
    ScenarioError,
    ValidationError,
)
from .integrate import Trajectory, compare, integrate
from .model import CouplingSpec, _PairForce, _PlaneForce, alpha_matrix, to_complex
# Not called here any more: perfbench/tracing.py wraps these names on this
# module, so they stay importable from it until the tracer follows the
# stage forces above.
from .model import rhs_base, rhs_generalized, rhs_pair  # noqa: F401
from .scenario import Scenario, builtin_scenarios, parse_scenario

_NUM = "{:.17g}".format


class _Parser(argparse.ArgumentParser):
    """argparse with the shared one-line error format and exit code 2."""

    def error(self, message):
        print(f"ERROR Usage: {message}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> _Parser:
    parser = _Parser(prog="planebody", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS, metavar="COMMAND", help=", ".join(_COMMANDS))
    parser.add_argument("name", nargs="?", choices=sorted(builtin_scenarios()), help="demo name")
    parser.add_argument("--scenario", metavar="FILE", help="scenario JSON file (not for demo)")
    parser.add_argument("--out-dir", default=".", metavar="DIR", help="directory for output files")
    parser.add_argument("--samples", type=int, metavar="N", help="override sample count")
    parser.add_argument("--rtol", type=float, metavar="X", help="override relative tolerance")
    parser.add_argument("--atol", type=float, metavar="X", help="override absolute tolerance")
    return parser


def _load(args) -> Scenario:
    sc = parse_scenario(args.scenario)
    return _apply_overrides(sc, args)


def _apply_overrides(sc: Scenario, args) -> Scenario:
    changes = {}
    if args.samples is not None:
        changes["sample_count"] = args.samples
    if args.rtol is not None:
        changes["rtol"] = args.rtol
    if args.atol is not None:
        changes["atol"] = args.atol
    if not changes:
        return sc
    try:
        cfg = dataclasses.replace(sc.integrator, **changes)
    except ValueError as exc:
        raise ValidationError("integrator", str(exc)) from exc
    return dataclasses.replace(sc, integrator=cfg)


def _exact_trajectory(sc: Scenario) -> Trajectory:
    """The closed form on the sample grid.  Like the integrator, it holds
    sc.initial at t0 = t_span[0]."""
    times = sc.integrator.sample_times()
    t0 = sc.integrator.t_span[0]
    if sc.variant == "pair":  # autonomous
        return exact._pair_states(exact.pair_solve(sc.pair, sc.initial, t0), times)
    couplings, g = sc.couplings, sc.generalized
    if g is not None and t0 != 0.0:
        # from t0 on, the couplings alpha e^{mu t} are (alpha e^{mu t0}) e^{mu s};
        # e^{mu t0} is dtau/dt at t0, whose lam = 0 branch reduces the phase exactly
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            alpha = alpha_matrix(couplings) * exact._time_substitution(g, np.array([t0]))[1]
        if not np.isfinite(alpha).all():
            raise BlowupError(f"the couplings alpha e^(mu t) overflow at t = {t0}", time=t0)
        couplings = CouplingSpec(alpha.real, alpha.imag)
    return exact.exact_states(exact.spectral_solve(couplings, to_complex(sc.initial), t0), times, g=g)


def _numeric_trajectory(sc: Scenario) -> Trajectory:
    """Integrate sc with its built-in force law, which the integrator
    binds to its stage rows once per run (no state object per stage)."""
    # sc.generalized is None for the base variant
    force = _PairForce(sc.pair) if sc.variant == "pair" else _PlaneForce(sc.couplings, sc.generalized)
    return integrate(force, sc.initial, sc.integrator)


def _out_path(args, filename: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, filename)


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    """Write t,x_1,y_1,vx_1,vy_1,... rows, one per sample, at full precision."""
    m, p = traj.positions.shape[:2]
    table = np.empty((m, 1 + 4 * p))
    table[:, 0] = traj.times
    body = table[:, 1:].reshape(m, p, 4)
    body[:, :, 0:2] = traj.positions
    body[:, :, 2:4] = traj.velocities
    cols = ["t"]
    for j in range(p):
        cols += [f"x_{j + 1}", f"y_{j + 1}", f"vx_{j + 1}", f"vy_{j + 1}"]
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"  # the format of _NUM
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for values in table:  # row by row: no Python float for every cell at once
            fh.write(row % tuple(values.tolist()))


def read_trajectory_csv(path: str) -> Trajectory:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    p = (data.shape[1] - 1) // 4
    times = data[:, 0]
    pos = data[:, 1:].reshape(len(times), p, 4)[:, :, 0:2]
    vel = data[:, 1:].reshape(len(times), p, 4)[:, :, 2:4]
    return Trajectory(times=times, positions=pos, velocities=vel)


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_solve(args) -> int:
    sc = _load(args)
    traj = _exact_trajectory(sc)
    path = _out_path(args, f"{sc.name}_exact.csv")
    write_trajectory_csv(path, traj)
    print(f"wrote {path}")
    return 0


def _cmd_integrate(args) -> int:
    sc = _load(args)
    started = time.perf_counter()
    traj = _numeric_trajectory(sc)
    elapsed = time.perf_counter() - started
    path = _out_path(args, f"{sc.name}_numeric.csv")
    write_trajectory_csv(path, traj)
    print(f"wrote {path}")
    stats = traj.metadata.get("stats", {})
    print(f"accepted steps: {stats.get('accepted', '?')}, wall time: {elapsed:.3f}s")
    return 0


def _cmd_compare(args) -> int:
    sc = _load(args)
    _run_compare(sc, args)
    return 0


def _run_compare(sc: Scenario, args) -> Trajectory:
    """Write both routes and the deviation report; return the closed-form
    trajectory."""
    exact_traj = _exact_trajectory(sc)
    numeric_traj = _numeric_trajectory(sc)
    exact_path = _out_path(args, f"{sc.name}_exact.csv")
    numeric_path = _out_path(args, f"{sc.name}_numeric.csv")
    write_trajectory_csv(exact_path, exact_traj)
    write_trajectory_csv(numeric_path, numeric_traj)
    report = compare(exact_traj, numeric_traj)
    report_path = _out_path(args, f"{sc.name}_compare.txt")
    _write_lines(report_path, report.lines())
    for path in (exact_path, numeric_path, report_path):
        print(f"wrote {path}")
    print(f"max position deviation: {_NUM(report.max_position_abs)}")
    print(f"max velocity deviation: {_NUM(report.max_velocity_abs)}")
    return exact_traj


def _spectrum_for(sc: Scenario) -> np.ndarray:
    w = linalg.eigenvalues(alpha_matrix(sc.couplings))
    if sc.variant == "pair":
        w = np.concatenate([w, sc.pair.lam + 1j * sc.pair.omega])
        w = w[linalg._sort_order(w)]
    return w


def _classification_lines(sc: Scenario, traj: Trajectory | None = None) -> list[str]:
    """The classify report; traj is sc's closed-form trajectory if already made."""
    w = _spectrum_for(sc)
    detected = _detect_on_trajectory(sc, w, traj)
    mc = classify(w)
    rows = [f"scenario: {sc.name}", f"variant: {sc.variant}", f"particles: {sc.n}"]
    for k, wk in enumerate(w):
        rows.append(f"eigenvalue_{k + 1}: {_NUM(wk.real)}{wk.imag:+.17g}i")
    rows += [
        f"all_damped: {str(mc.all_damped).lower()}",
        f"has_imaginary: {str(mc.has_imaginary).lower()}",
        f"all_imaginary: {str(mc.all_imaginary).lower()}",
        f"has_zero_mode: {str(mc.has_zero_mode).lower()}",
        f"has_unstable: {str(mc.has_unstable).lower()}",
        f"row_sums_zero: {str(exact.row_sums_zero(sc.couplings)).lower()}",
    ]
    period = mc.completely_periodic
    rows.append(f"predicted_period: {_NUM(period) if period is not None else 'none'}")
    if detected is None:
        rows.append("detected_period: none")
    elif isinstance(detected, str):
        rows.append(f"detected_period: {detected}")
    else:
        rows.append(f"detected_period: {_NUM(detected)}")
    return rows


def _detect_on_trajectory(sc: Scenario, w: np.ndarray, traj: Trajectory | None):
    """Best-effort period detection on sc's closed-form trajectory, seeded
    by its spectrum w; never fatal, and never integrates.

    traj is that trajectory made earlier; without one, it is evaluated
    here.  A closed form that fails reports its error code, a grid that
    detect_period cannot read its reason.
    """
    try:
        if traj is None:
            traj = _exact_trajectory(sc)
        try:
            return detect_period(traj, eigenvalues=w)
        except ValueError as exc:  # sample times that round to uneven steps
            return f"unavailable ({exc})"
    except InsufficientSpanError:
        return "unavailable (time span shorter than twice the candidate period)"
    except PlanebodyError as exc:
        return f"unavailable ({exc.code})"


def _cmd_classify(args) -> int:
    sc = _load(args)
    lines = _classification_lines(sc)
    path = _out_path(args, f"{sc.name}_classify.txt")
    _write_lines(path, lines)
    for line in lines:
        print(line)
    print(f"wrote {path}")
    return 0


def _cmd_demo(args) -> int:
    data = builtin_scenarios()[args.name]
    scenario_path = _out_path(args, f"{data['name']}_scenario.json")
    with open(scenario_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    print(f"wrote {scenario_path}")

    # Re-read through the parser so the demo exercises the documented format.
    sc = _apply_overrides(parse_scenario(scenario_path), args)
    lines = _classification_lines(sc, _run_compare(sc, args))
    path = _out_path(args, f"{sc.name}_classify.txt")
    _write_lines(path, lines)
    print(f"wrote {path}")
    return 0


_COMMANDS = {"solve": _cmd_solve, "integrate": _cmd_integrate, "compare": _cmd_compare,
             "classify": _cmd_classify, "demo": _cmd_demo}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_intermixed_args(argv)
    demo = args.command == "demo"
    if (args.name is None) == demo or (args.scenario is None) != demo:
        parser.error("demo takes NAME and no --scenario, the other commands --scenario and no NAME")
    try:
        return _COMMANDS[args.command](args)
    except ScenarioError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 2
    # an output directory or file that cannot be made, or a sample grid
    # too large to allocate
    except (OSError, MemoryError) as exc:
        print(f"ERROR {ScenarioError.code}: {exc}", file=sys.stderr)
        return 2
    except PlanebodyError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())
