"""Seeded scan of the command line over edge-case scenario families.

Builds a deterministic list of scenarios from a seed and runs ``solve``,
``integrate``, ``compare`` and ``classify`` on each, in process through
``planebody.cli.main``.  Then it runs the five built-in demos, each as
``demo NAME`` (the line ``NAME demo:``, five files) and, with its
integrator method set to ``"dopri5"``, through ``compare`` (``NAME
dopri5 compare:``, three files): the seeded scenarios step with DOPRI5
at rtol 1e-6 and 1e-8 only, the demos with DOP853 at 1e-9.  Prints one
line per run: the exit code, the ``ERROR`` code and the time the error
reports, the sha256 of the whole ``ERROR`` line (``msg=``, first 12 hex
digits), and the sha256 of every output file (first 16 hex digits).
Two trees give the same listing exactly when every run ends the same
way, with the same message, and writes the same bytes, so the scan of
a change is diffed against the scan of its parent, and two scans of
one tree show that its data files are deterministic:

    PYTHONPATH=<parent>/src python tools/scan.py > parent.txt
    PYTHONPATH=src python tools/scan.py > head.txt
    PYTHONPATH=src python tools/scan.py > again.txt
    diff parent.txt head.txt && diff head.txt again.txt

The scan runs the package only through ``cli.main``, and reads the
demos' data from ``planebody.scenario``, so this script can scan any
tree whose CLI it fits.  The families cover the base, generalized and
pair variants with n = 1 to 4, in turn with -0.0 entries, particles at
or near the origin (coincident and near-coincident pairs for the pair
variant), couplings 40 times larger, decreasing spans, spans that do
not start at 0 and spans at large t, plus the pair scenario of
ROADMAP.md whose integration does not end.  Runs that do not end (the
n = 1 blow-ups and that pair family) are cut by a cap on force
evaluations, counted through the origin guard that the built-in force
laws run once per evaluation; a cut run lists as ``capped``.

The listing ends with the route ledger, lines that start ``ledger:``.
It counts the scenarios on which ``solve`` and ``integrate`` end
differently, by pair of outcomes (the ``ERROR`` code, ``success`` or
``capped``), and those on which they end with the same code at
different times.  It also gives the runs and force evaluations of each
``integrate`` outcome, so a change shows what it does to the agreement
of the two routes and to the work spent in runs that fail.
"""
from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import traceback
import warnings
from typing import NamedTuple

import numpy as np

import planebody.cli as cli
import planebody.model as model
from planebody.scenario import builtin_scenarios

SEED = 2025  # of the scenario draw
COUNT = 480  # seeded scenarios, before the reproducer
CAP = 20000  # force evaluations per run
COMMANDS = ("solve", "integrate", "compare", "classify")
VARIANTS = ("base", "generalized", "pair")
FEATURES = ("plain", "negzero", "coincident", "near", "strong", "reversed", "offset", "large-t")
_TIME = re.compile(r"\bt = ([-+0-9.einf]+?)(?=[\s,)]|$)")

# the pair scenario of ROADMAP.md item 1: its integration stalls
REPRODUCER = {
    "name": "reproducer", "variant": "pair",
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


class Capped(Exception):
    """A run reached the force-evaluation cap (not a PlanebodyError, so
    cli.main does not catch it)."""


def _rows(rng, n):
    """n [x, y, vx, vy] rows, every radius at least 0.3."""
    pos = rng.standard_normal((n, 2))
    r = np.hypot(pos[:, 0], pos[:, 1])
    pos *= np.maximum(1.0, 0.3 / r)[:, None]
    return np.hstack([pos, 0.5 * rng.standard_normal((n, 2))])


def _negzero(rng, a, keep=None):
    """a with about a third of its entries replaced by -0.0, except where keep is true."""
    a = np.array(a, dtype=float)
    hit = rng.random(a.shape) < 0.35
    a[hit if keep is None else hit & ~keep] = -0.0
    return a


def scenario(k: int, rng) -> dict:
    """Scenario k: variant k mod 3, feature (k // 3) mod 8, the rest from rng."""
    variant = VARIANTS[k % 3]
    feature = FEATURES[(k // 3) % len(FEATURES)]
    n = int(rng.integers(1, 5))
    scale = 20.0 if feature == "strong" else 0.5
    beta, gamma = scale * rng.standard_normal((2, n, n))
    rows = _rows(rng, 2 * n if variant == "pair" else n)
    if variant == "pair":
        rows[n:, :2] += 1.0 + rng.standard_normal((n, 2))
    if feature == "negzero":
        beta, gamma = _negzero(rng, beta), _negzero(rng, gamma)
        # the larger of |x| and |y| is kept, so no particle moves to the origin
        larger = np.abs(rows[:, :1]) >= np.abs(rows[:, 1:2])
        keep = np.hstack([larger, ~larger, np.zeros((len(rows), 2), dtype=bool)])
        rows = _negzero(rng, rows, keep)
    j = int(rng.integers(n))
    if feature in ("coincident", "near"):
        nudge = 0.0 if feature == "coincident" else float(10.0 ** rng.integers(-15, -10))
        if variant == "pair":  # minus particle j on, or next to, plus particle j
            rows[n + j, :2] = rows[j, :2] + (nudge, 0.0)
        else:  # particle j at, or next to, the origin
            rows[j, :2] = (nudge, 0.0)
    span = float(rng.uniform(0.5, 3.0))
    t0 = 0.0
    if feature == "offset":
        t0 = float(rng.uniform(-5.0, 5.0))
    elif feature == "large-t":
        t0 = float(10.0 ** rng.integers(6, 16))
    t_span = [t0 + span, t0] if feature == "reversed" else [t0, t0 + span]
    data = {
        "name": f"{k:03d}-{variant}-{feature}",
        "variant": variant,
        "beta": beta.tolist(),
        "gamma": gamma.tolist(),
        "initial": rows.tolist(),
        "integrator": {
            "t_span": t_span,
            "samples": int(rng.integers(3, 42)),
            "rtol": float(rng.choice([1e-6, 1e-8])),
            "atol": 1e-9,
        },
    }
    if variant == "generalized":
        lam, omega = 0.3 * rng.standard_normal(), float(rng.standard_normal())
        if feature == "negzero":
            lam = -0.0
        data["generalized_params"] = {"lambda": lam, "omega": omega}
    elif variant == "pair":
        data["pair_params"] = {"Lambda": (0.3 * rng.standard_normal(n)).tolist(),
                               "Omega": rng.standard_normal(n).tolist()}
    return data


class Run(NamedTuple):
    listing: str  # after the scenario name
    outcome: str  # the ERROR code, "success", "capped", or the status
    time: str  # the time the error reports, "-" for none
    evaluations: int  # force evaluations, counted through the guard


def run(command: str, data: dict) -> Run:
    """Run one command on the scenario data; demo runs the built-in
    scenario of data's name."""
    calls = [0]
    guard = model.check_origin_guard

    def counting(*args, **kwargs):
        calls[0] += 1
        if calls[0] > CAP:
            raise Capped
        return guard(*args, **kwargs)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        out_dir = os.path.join(tmp, "out")
        argv = [command, data["name"]] if command == "demo" else [command, "--scenario", path]
        err = io.StringIO()
        model.check_origin_guard = counting
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    status = f"exit={cli.main(argv + ['--out-dir', out_dir])}"
                    outcome = "success" if status == "exit=0" else status
                except Capped:
                    status, outcome = f"capped at {CAP} force evaluations", "capped"
                except Exception as exc:  # a traceback the CLI would have printed
                    frame = traceback.extract_tb(exc.__traceback__)[-1]
                    status = f"traceback {type(exc).__name__} at {os.path.basename(frame.filename)}"
                    outcome = status
        finally:
            model.check_origin_guard = guard
        fields, time = [status], "-"
        lines = err.getvalue().splitlines()
        if lines and lines[0].startswith("ERROR "):
            outcome = lines[0][len("ERROR "):].partition(":")[0]
            found = _TIME.search(lines[0])
            time = found.group(1) if found else "-"
            fields.append(f"{outcome}@{time} msg={hashlib.sha256(lines[0].encode()).hexdigest()[:12]}")
        if len(lines) > 1 or caught:
            fields.append(f"stderr_lines={len(lines)} warnings={len(caught)}")
        if os.path.isdir(out_dir):
            for name in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    fields.append(f"{name}={hashlib.sha256(fh.read()).hexdigest()[:16]}")
    return Run(" ".join(fields), outcome, time, calls[0])


def ledger(solves: list[Run], integrations: list[Run]) -> list[str]:
    """The route ledger: how often solve and integrate end differently on
    one scenario, by (solve, integrate) outcome, how often they end with
    the same code at different times, and the runs and force evaluations
    per integrate outcome (a capped run counts the evaluation the cap
    stopped)."""
    pairs = collections.Counter(
        (s.outcome, i.outcome) for s, i in zip(solves, integrations) if s.outcome != i.outcome
    )
    retimed = sum(s.outcome == i.outcome and s.time != i.time for s, i in zip(solves, integrations))
    runs = collections.Counter(i.outcome for i in integrations)
    evaluations = collections.Counter()
    for i in integrations:
        evaluations[i.outcome] += i.evaluations
    lines = [f"ledger: solve and integrate end differently on {sum(pairs.values())} "
             f"of {len(solves)} scenarios"]
    for (solve, integrate), count in pairs.most_common():
        lines.append(f"ledger: solve {solve} / integrate {integrate}: {count}")
    lines.append(f"ledger: same code at different times: {retimed}")
    for outcome, count in runs.most_common():
        lines.append(f"ledger: integrate {outcome}: {count} runs, "
                     f"{evaluations[outcome]} force evaluations")
    return lines


def main() -> int:
    rng = np.random.default_rng(SEED)
    cases = [scenario(k, rng) for k in range(COUNT)] + [REPRODUCER]
    results = {command: [] for command in COMMANDS}
    for data in cases:
        label = f"{data['name']} n={len(data['beta'])}"
        for command in COMMANDS:
            result = run(command, data)
            results[command].append(result)
            print(f"{label} {command}: {result.listing}", flush=True)
    for name, data in builtin_scenarios().items():
        print(f"{name} demo: {run('demo', data).listing}", flush=True)
        data["integrator"]["method"] = "dopri5"
        print(f"{name} dopri5 compare: {run('compare', data).listing}", flush=True)
    for line in ledger(results["solve"], results["integrate"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
