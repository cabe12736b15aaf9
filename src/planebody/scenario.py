"""Scenario files: a single JSON format describing model, initial data and run.

Schema (keys at the top level):

    name                string without '/', '\\' or NUL, used as the output
                        file prefix
    variant             "base" | "generalized" | "pair"
    beta, gamma         n x n matrices as row lists
    generalized_params  {"lambda": float, "omega": float}   (generalized only)
    pair_params         {"Lambda": [n floats], "Omega": [n floats]}  (pair only)
    initial             per-particle rows [x, y, vx, vy]; n rows, or 2n rows
                        for the pair variant (plus family first)
    integrator          optional {"rtol", "atol", "h_init", "h_min",
                        "t_span": [t0, t1], "samples", "h_max"}
    outputs             optional list drawn from ["trajectory", "comparison",
                        "classification"]; validated, read by no subcommand

Every number, at any depth, is a JSON number (int or float, not bool)
that is finite in float64.  Failures raise ValidationError naming the field.
"""
from __future__ import annotations

import json
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
    _frozen_array,
    _state_view,
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

    @property
    def n(self) -> int:
        return self.couplings.n


def _require(data: dict, field: str):
    """data[key] for the last dotted component of field, which names it in errors."""
    key = field.rpartition(".")[2]
    if key not in data:
        raise ValidationError(field, "required field is missing")
    return data[key]


def _array(value, field: str, shape) -> np.ndarray:
    """A frozen finite float64 array of the given shape (None: any length;
    () is one number) whose entries, at any depth, are JSON numbers: int
    or float, not bool.  The lists are walked level by level and never
    deeper than the shape, so no depth of nesting recurses."""
    level = [value]
    for _ in shape:
        if not all(isinstance(row, list) for row in level):
            break
        level = [x for row in level for x in row]
    else:
        if not any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in level):
            try:
                return _frozen_array(value, shape, field)
            except (ValueError, OverflowError):  # ragged, another shape, or not finite in float64
                pass
    dims = " x ".join("n" if k is None else str(k) for k in shape)
    raise ValidationError(field, f"expected {dims} finite numbers" if shape else "expected a finite number")


def _integrator(data) -> IntegratorConfig:
    if data is None:
        return IntegratorConfig()
    if not isinstance(data, dict):
        raise ValidationError("integrator", "must be an object")
    kwargs = {
        key: _array(data[key], f"integrator.{key}", (2,) if key == "t_span" else ()).tolist()
        for key in ("rtol", "atol", "h_init", "h_min", "h_max", "t_span")
        if key in data
    }
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
    if any(c in name for c in "/\\\0"):
        raise ValidationError("name", f"must not contain '/', '\\' or NUL, got {name!r}")
    variant = _require(data, "variant")
    if variant not in VARIANTS:
        raise ValidationError("variant", f"must be one of {VARIANTS}, got {variant!r}")

    # beta's row count fixes n, so a non-square beta is reported as beta
    beta = _require(data, "beta")
    n = len(beta) if isinstance(beta, list) else None
    couplings = CouplingSpec(
        _array(beta, "beta", (n, n)), _array(_require(data, "gamma"), "gamma", (n, n))
    )

    generalized = None
    pair = None
    if variant == "generalized":
        params = data.get("generalized_params")
        if not isinstance(params, dict):
            raise ValidationError("generalized_params", "required object with keys lambda and omega")
        lam, omega = (
            float(_array(_require(params, field), field, ()))
            for field in ("generalized_params.lambda", "generalized_params.omega")
        )
        generalized = GeneralizedParams(lam=lam, omega=omega)
    elif variant == "pair":
        params = data.get("pair_params")
        if not isinstance(params, dict):
            raise ValidationError("pair_params", "required object with keys Lambda and Omega")
        lam, omega = (
            _array(_require(params, field), field, (n,))
            for field in ("pair_params.Lambda", "pair_params.Omega")
        )
        pair = PairSpec(base=couplings, lam=lam, omega=omega)

    # [x, y, vx, vy] rows: n particles, or 2n for a pair (plus family first)
    rows = _array(_require(data, "initial"), "initial", (2 * n if variant == "pair" else n, 4))
    initial = _state_view(rows[:, 0:2], rows[:, 2:4], pair=variant == "pair")

    integrator = _integrator(data.get("integrator"))

    outputs = data.get("outputs", [])
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
    )


def parse_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"scenario file {path} nests too deeply to read: {exc}") from exc
    return scenario_from_dict(data)


TWO_PI = 6.283185307179586


def builtin_scenarios() -> dict[str, dict]:
    """Built-in demonstration scenarios, keyed by demo name."""
    return {
        "circle": {
            "name": "circle",
            "variant": "base",
            "beta": [[0.0]],
            "gamma": [[0.0]],
            "initial": [[1.0, 0.0, 0.0, 1.0]],
            "integrator": {"t_span": [0.0, TWO_PI], "samples": 201},
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
            "integrator": {"t_span": [0.0, 20.0], "samples": 401},
            "outputs": ["trajectory", "comparison", "classification"],
        },
        "periodic-2-3": {
            "name": "periodic-2-3",
            "variant": "base",
            "beta": [[0.0, 0.0], [0.0, 0.0]],
            "gamma": [[2.0, 0.0], [0.0, 3.0]],
            "initial": [[1.0, 0.0, 0.0, 0.5], [0.0, 1.0, -0.4, 0.0]],
            "integrator": {"t_span": [0.0, 14.0], "samples": 281},
            "outputs": ["trajectory", "comparison", "classification"],
        },
        "similarity": {
            "name": "similarity",
            "variant": "base",
            "beta": [[1.0, -1.0], [1.0, -1.0]],
            "gamma": [[0.0, 0.0], [0.0, 0.0]],
            # velocities chosen so v_j = 0.3 r_j + 0.7 perp(r_j)
            "initial": [[1.0, 0.0, 0.3, 0.7], [0.0, 1.0, -0.7, 0.3]],
            "integrator": {"t_span": [0.0, 2.0], "samples": 201},
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
            "integrator": {"t_span": [0.0, 1.0], "samples": 201},
            "outputs": ["trajectory", "comparison", "classification"],
        },
    }
