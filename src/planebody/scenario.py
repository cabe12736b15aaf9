"""Scenario files: a single JSON format describing model, initial data and run.

Schema (keys at the top level):

    name                string, used as the output file prefix
    variant             "base" | "generalized" | "pair"
    beta, gamma         n x n matrices as row lists
    generalized_params  {"lambda": float, "omega": float}   (generalized only)
    pair_params         {"Lambda": [n floats], "Omega": [n floats]}  (pair only)
    initial             per-particle rows [x, y, vx, vy]; n rows, or 2n rows
                        for the pair variant (plus family first)
    integrator          optional {"rtol", "atol", "h_init", "h_min",
                        "t_span": [t0, t1], "samples", "h_max"}
    outputs             optional list drawn from
                        ["trajectory", "comparison", "classification"]

Validation failures raise ValidationError naming the offending field.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .integrate import IntegratorConfig
from .model import (
    CouplingSpec,
    GeneralizedParams,
    PairSpec,
    PairState,
    PlaneState,
)

VARIANTS = ("base", "generalized", "pair")
OUTPUT_KINDS = ("trajectory", "comparison", "classification")


@dataclass(frozen=True)
class Scenario:
    name: str
    variant: str
    couplings: CouplingSpec
    generalized: GeneralizedParams | None
    pair: PairSpec | None
    initial: PlaneState | PairState
    integrator: IntegratorConfig
    outputs: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.couplings.n


def _require(data: dict, field: str):
    if field not in data:
        raise ValidationError(field, "required field is missing")
    return data[field]


def _number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(field, f"expected a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ValidationError(field, "must be finite")
    return float(value)


def _matrix(value, field: str, n: int | None = None) -> np.ndarray:
    try:
        m = np.array(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(field, f"not a numeric matrix ({exc})") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(field, f"must be a square matrix of row lists, got shape {m.shape}")
    if n is not None and m.shape[0] != n:
        raise ValidationError(field, f"expected a {n}x{n} matrix, got {m.shape[0]}x{m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(field, "contains non-finite entries")
    return m


def _vector(value, field: str, n: int) -> np.ndarray:
    try:
        v = np.array(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(field, f"not a numeric list ({exc})") from exc
    if v.shape != (n,):
        raise ValidationError(field, f"expected {n} numbers, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(field, "contains non-finite entries")
    return v


def _state_rows(value, field: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        rows = np.array(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(field, f"not numeric rows ({exc})") from exc
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValidationError(field, "each row must be [x, y, vx, vy]")
    if not np.all(np.isfinite(rows)):
        raise ValidationError(field, "contains non-finite entries")
    return rows[:, 0:2].copy(), rows[:, 2:4].copy()


def _integrator(data) -> IntegratorConfig:
    if data is None:
        return IntegratorConfig()
    if not isinstance(data, dict):
        raise ValidationError("integrator", "must be an object")
    kwargs = {}
    for key, target in (
        ("rtol", "rtol"),
        ("atol", "atol"),
        ("h_init", "h_init"),
        ("h_min", "h_min"),
        ("h_max", "h_max"),
    ):
        if key in data:
            kwargs[target] = _number(data[key], f"integrator.{key}")
    if "t_span" in data:
        span = data["t_span"]
        if not isinstance(span, (list, tuple)) or len(span) != 2:
            raise ValidationError("integrator.t_span", "expected [t0, t1]")
        kwargs["t_span"] = (
            _number(span[0], "integrator.t_span"),
            _number(span[1], "integrator.t_span"),
        )
    if "samples" in data:
        samples = data["samples"]
        if isinstance(samples, bool) or not isinstance(samples, int):
            raise ValidationError("integrator.samples", "expected an integer")
        kwargs["sample_count"] = samples
    try:
        return IntegratorConfig(**kwargs)
    except ValueError as exc:
        raise ValidationError("integrator", str(exc)) from exc


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ValidationError("scenario", "top level must be an object")
    name = data.get("name", "scenario")
    if not isinstance(name, str) or not name:
        raise ValidationError("name", "must be a non-empty string")
    variant = _require(data, "variant")
    if variant not in VARIANTS:
        raise ValidationError("variant", f"must be one of {VARIANTS}, got {variant!r}")

    beta = _matrix(_require(data, "beta"), "beta")
    n = beta.shape[0]
    gamma = _matrix(_require(data, "gamma"), "gamma", n)
    try:
        couplings = CouplingSpec(beta, gamma)
    except ValueError as exc:
        raise ValidationError("beta", str(exc)) from exc

    generalized = None
    pair = None
    if variant == "generalized":
        params = data.get("generalized_params")
        if params is None or not isinstance(params, dict):
            raise ValidationError(
                "generalized_params", "required object with keys lambda and omega"
            )
        lam = _number(_require_in(params, "lambda", "generalized_params"), "generalized_params.lambda")
        omega = _number(_require_in(params, "omega", "generalized_params"), "generalized_params.omega")
        generalized = GeneralizedParams(lam=lam, omega=omega)
    elif variant == "pair":
        params = data.get("pair_params")
        if params is None or not isinstance(params, dict):
            raise ValidationError(
                "pair_params", "required object with keys Lambda and Omega"
            )
        lam = _vector(_require_in(params, "Lambda", "pair_params"), "pair_params.Lambda", n)
        omega = _vector(_require_in(params, "Omega", "pair_params"), "pair_params.Omega", n)
        pair = PairSpec(base=couplings, lam=lam, omega=omega)

    positions, velocities = _state_rows(_require(data, "initial"), "initial")
    rows = positions.shape[0]
    if variant == "pair":
        if rows != 2 * n:
            raise ValidationError(
                "initial", f"pair variant needs 2n = {2 * n} rows (plus family first), got {rows}"
            )
        initial: PlaneState | PairState = PairState(
            plus=PlaneState(positions[:n], velocities[:n]),
            minus=PlaneState(positions[n:], velocities[n:]),
        )
    else:
        if rows != n:
            raise ValidationError("initial", f"expected {n} rows to match beta, got {rows}")
        initial = PlaneState(positions, velocities)

    integrator = _integrator(data.get("integrator"))

    outputs = data.get("outputs", ["trajectory"])
    if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
        raise ValidationError("outputs", "must be a list of strings")
    bad = [o for o in outputs if o not in OUTPUT_KINDS]
    if bad:
        raise ValidationError("outputs", f"unknown kinds {bad}, allowed: {list(OUTPUT_KINDS)}")

    return Scenario(
        name=name,
        variant=variant,
        couplings=couplings,
        generalized=generalized,
        pair=pair,
        initial=initial,
        integrator=integrator,
        outputs=tuple(outputs),
    )


def _require_in(params: dict, key: str, parent: str):
    if key not in params:
        raise ValidationError(f"{parent}.{key}", "required field is missing")
    return params[key]


def parse_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


TWO_PI = 6.283185307179586


def builtin_scenarios() -> dict[str, dict]:
    """Built-in demonstration scenarios, keyed by demo name.

    Each sets h_max to its span: the samples come from every step's
    interpolant, so the step size need not follow the sample spacing.
    """
    return {
        "circle": {
            "name": "circle",
            "variant": "base",
            "beta": [[0.0]],
            "gamma": [[0.0]],
            "initial": [[1.0, 0.0, 0.0, 1.0]],
            "integrator": {"t_span": [0.0, TWO_PI], "samples": 201, "h_max": TWO_PI},
            "outputs": ["trajectory", "comparison", "classification"],
        },
        "damped": {
            "name": "damped",
            "variant": "base",
            "beta": [[-1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -3.0]],
            "gamma": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            "initial": [
                [1.0, 0.0, 0.0, 0.4],
                [0.0, 1.2, -0.3, 0.0],
                [-0.8, 0.5, 0.1, -0.2],
            ],
            "integrator": {"t_span": [0.0, 20.0], "samples": 401, "h_max": 20.0},
            "outputs": ["trajectory", "comparison", "classification"],
        },
        "periodic-2-3": {
            "name": "periodic-2-3",
            "variant": "base",
            "beta": [[0.0, 0.0], [0.0, 0.0]],
            "gamma": [[2.0, 0.0], [0.0, 3.0]],
            "initial": [[1.0, 0.0, 0.0, 0.5], [0.0, 1.0, -0.4, 0.0]],
            "integrator": {"t_span": [0.0, 14.0], "samples": 281, "h_max": 14.0},
            "outputs": ["trajectory", "comparison", "classification"],
        },
        "similarity": {
            "name": "similarity",
            "variant": "base",
            "beta": [[1.0, -1.0], [1.0, -1.0]],
            "gamma": [[0.0, 0.0], [0.0, 0.0]],
            # velocities chosen so v_j = 0.3 r_j + 0.7 perp(r_j)
            "initial": [[1.0, 0.0, 0.3, 0.7], [0.0, 1.0, -0.7, 0.3]],
            "integrator": {"t_span": [0.0, 2.0], "samples": 201, "h_max": 2.0},
            "outputs": ["trajectory", "comparison", "classification"],
        },
        "pair": {
            "name": "pair",
            "variant": "pair",
            "beta": [[0.2, -0.1], [0.1, 0.1]],
            "gamma": [[0.5, 0.0], [0.0, -0.4]],
            "pair_params": {"Lambda": [0.1, -0.2], "Omega": [1.0, 0.5]},
            "initial": [
                [1.0, 0.0, 0.0, 0.4],
                [0.0, 1.2, -0.3, 0.0],
                [-0.5, 0.1, 0.0, -0.2],
                [0.3, -0.8, 0.2, 0.0],
            ],
            "integrator": {"t_span": [0.0, 1.0], "samples": 201, "h_max": 1.0},
            "outputs": ["trajectory", "comparison", "classification"],
        },
    }
