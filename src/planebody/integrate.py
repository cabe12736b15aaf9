"""Adaptive Runge-Kutta integration and trajectory comparison.

The stepper is the Dormand-Prince 5(4) embedded pair with the usual
controller (safety 0.9, step-ratio clamp [0.2, 5.0], FSAL reuse).
Output is sampled on a fixed grid through Hermite interpolation of the
accepted (state, derivative) endpoint pairs, accurate to O(h^4); by
default the step size is capped at the output spacing so interpolation
never dominates the integration error.

Guards: a relative origin guard (collision), a 1e150 magnitude bound
(double-exponential blow-up) and a minimum step size (underflow).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BlowupError,
    GridMismatchError,
    OriginCollisionError,
    OriginError,
    PairCollisionError,
    StepUnderflowError,
)
from .model import PairState, PlaneState, _StateGrid, check_origin_guard

OVERFLOW_LIMIT = 1e150

_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
# stage rows as arrays, built once rather than at every stage
_DP_A = tuple(np.array(row) for row in (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
))
# fifth-order weights equal the last stage row (FSAL); the embedded
# fourth-order difference drives the error estimate
_DP_E = np.array(
    [
        71.0 / 57600.0,
        0.0,
        -71.0 / 16695.0,
        71.0 / 1920.0,
        -17253.0 / 339200.0,
        22.0 / 525.0,
        -1.0 / 40.0,
    ]
)


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, step-size limits, time span and output sampling.

    h_max = None caps the step at the output sample spacing.
    """

    rtol: float = 1e-9
    atol: float = 1e-12
    h_init: float = 1e-3
    h_min: float = 1e-14
    t_span: tuple[float, float] = (0.0, 1.0)
    sample_count: int = 201
    h_max: float | None = None

    def __post_init__(self):
        if not (self.rtol > 0.0 and self.atol > 0.0):
            raise ValueError("rtol and atol must be positive")
        if not (0.0 < self.h_min < self.h_init):
            raise ValueError("step sizes must satisfy 0 < h_min < h_init")
        t0, t1 = (float(self.t_span[0]), float(self.t_span[1]))
        if not (math.isfinite(t0) and math.isfinite(t1)) or t0 == t1:
            raise ValueError("t_span must be a finite interval with t1 != t0")
        object.__setattr__(self, "t_span", (t0, t1))
        if int(self.sample_count) < 2 or int(self.sample_count) != self.sample_count:
            raise ValueError("sample_count must be an integer >= 2")
        object.__setattr__(self, "sample_count", int(self.sample_count))
        if self.h_max is not None and not self.h_max > 0.0:
            raise ValueError("h_max must be positive when given")

    def effective_h_max(self) -> float:
        if self.h_max is not None:
            return float(self.h_max)
        t0, t1 = self.t_span
        return abs(t1 - t0) / (self.sample_count - 1)


@dataclass(frozen=True)
class Trajectory:
    """Sampled motion: strictly monotone times, (m, p, 2) position and
    velocity arrays.  Pair runs stack the plus family before the minus
    family, so p = 2n there."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    pair: bool = False
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64)
        pos = np.array(self.positions, dtype=np.float64)
        vel = np.array(self.velocities, dtype=np.float64)
        if times.ndim != 1 or len(times) < 1:
            raise ValueError("times must be a non-empty 1-d array")
        d = np.diff(times)
        if len(d) and not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("times must be strictly monotone")
        if pos.shape != (len(times), pos.shape[1], 2) or vel.shape != pos.shape:
            raise ValueError("positions and velocities must both have shape (m, p, 2)")
        for a in (times, pos, vel):
            a.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)

    @property
    def n_particles(self) -> int:
        return self.positions.shape[1]

    def state_at(self, i: int):
        if not self.pair:
            return PlaneState(self.positions[i], self.velocities[i])
        n = self.n_particles // 2
        return PairState(
            plus=PlaneState(self.positions[i, :n], self.velocities[i, :n]),
            minus=PlaneState(self.positions[i, n:], self.velocities[i, n:]),
        )


class _PlanePacker:
    pair = False
    variant = "plane"

    def __init__(self, s0: PlaneState):
        self.n = s0.n

    def pack(self, s: PlaneState) -> np.ndarray:
        return np.concatenate([s.positions.ravel(), s.velocities.ravel()])

    def unpack(self, y: np.ndarray) -> PlaneState:
        k = 2 * self.n
        return PlaneState._checked(y[:k].reshape(self.n, 2), y[k:].reshape(self.n, 2))

    def guard_positions(self, y: np.ndarray) -> np.ndarray:
        return y[: 2 * self.n].reshape(self.n, 2)

    def derivative(self, rhs, t: float, y: np.ndarray) -> np.ndarray:
        state = self.unpack(y)
        acc = np.asarray(rhs(t, state), dtype=np.float64)
        return np.concatenate([state.velocities.ravel(), acc.ravel()])


class _PairPacker:
    pair = True
    variant = "pair"

    def __init__(self, s0: PairState):
        self.n = s0.n

    def pack(self, s: PairState) -> np.ndarray:
        return np.concatenate(
            [
                s.plus.positions.ravel(),
                s.minus.positions.ravel(),
                s.plus.velocities.ravel(),
                s.minus.velocities.ravel(),
            ]
        )

    def unpack(self, y: np.ndarray) -> PairState:
        n = self.n
        k = 2 * n
        return PairState(
            plus=PlaneState._checked(y[:k].reshape(n, 2), y[2 * k:3 * k].reshape(n, 2)),
            minus=PlaneState._checked(y[k:2 * k].reshape(n, 2), y[3 * k:].reshape(n, 2)),
        )

    def guard_positions(self, y: np.ndarray) -> np.ndarray:
        n = self.n
        k = 2 * n
        return (y[:k] - y[k:2 * k]).reshape(n, 2)

    def derivative(self, rhs, t: float, y: np.ndarray) -> np.ndarray:
        state = self.unpack(y)
        acc_p, acc_m = rhs(t, state)
        return np.concatenate(
            [
                state.plus.velocities.ravel(),
                state.minus.velocities.ravel(),
                np.asarray(acc_p, dtype=np.float64).ravel(),
                np.asarray(acc_m, dtype=np.float64).ravel(),
            ]
        )


class _GuardTrip(Exception):
    def __init__(self, t: float, cause: Exception):
        self.t = t
        self.cause = cause


def _hermite(y0, f0, y1, f1, h, theta):
    t2 = theta * theta
    t3 = t2 * theta
    return (
        (2.0 * t3 - 3.0 * t2 + 1.0) * y0
        + ((t3 - 2.0 * t2 + theta) * h) * f0
        + (-2.0 * t3 + 3.0 * t2) * y1
        + ((t3 - t2) * h) * f1
    )


def integrate(rhs, s0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate a force evaluator over cfg.t_span.

    Parameters
    ----------
    rhs : callable
        For a PlaneState start: rhs(t, state) -> (n, 2) accelerations.
        For a PairState start: rhs(t, state) -> (plus, minus) pair of
        (n, 2) acceleration arrays.
    s0 : PlaneState or PairState
        Initial condition at t_span[0].
    cfg : IntegratorConfig

    Returns
    -------
    Trajectory sampled at sample_count equally spaced times, endpoints
    included; metadata carries step statistics and tolerances.
    """
    packer = _PairPacker(s0) if isinstance(s0, PairState) else _PlanePacker(s0)
    t0, t1 = cfg.t_span
    direction = 1.0 if t1 > t0 else -1.0
    m = cfg.sample_count
    samples = np.linspace(t0, t1, m)
    h_max = cfg.effective_h_max()

    y = packer.pack(s0)
    check_origin_guard_traj(packer, y, t0)

    def deriv(t, yv):
        # checks both the stage vector and its derivative, so callers run it
        # under np.errstate: numpy's warnings would repeat these checks
        if not np.isfinite(yv).all():
            raise _GuardTrip(t, ValueError("non-finite stage state"))
        try:
            d = packer.derivative(rhs, t, yv)
        except (OriginError, PairCollisionError) as exc:
            raise _GuardTrip(t, exc) from exc
        if not np.all(np.isfinite(d)):
            raise _GuardTrip(t, ValueError("non-finite derivative"))
        return d

    out = np.empty((m, y.size))
    out[0] = y
    next_sample = 1

    naccept = 0
    nreject = 0
    nfev = 1
    f = _first_derivative(deriv, t0, y)
    h = direction * min(cfg.h_init, h_max)
    t = t0
    k = np.empty((7, y.size))

    while (t1 - t) * direction > 0.0:
        if abs(h) < cfg.h_min:
            raise StepUnderflowError(
                f"step size {abs(h):.3e} fell below h_min {cfg.h_min:.3e} at t = {t:.6g}"
            )
        last = abs(t1 - t) <= abs(h)
        if last:
            h = t1 - t
        k[0] = f
        try:
            with np.errstate(all="ignore"):  # checked by deriv
                for i in range(1, 7):
                    yi = y + h * (_DP_A[i] @ k[:i])
                    k[i] = deriv(t + _DP_C[i] * h, yi)
                    nfev += 1
        except _GuardTrip as trip:
            nreject += 1
            h *= 0.5
            if abs(h) < cfg.h_min:
                raise OriginCollisionError(
                    f"trajectory entered the singularity guard near t = {trip.t:.6g} "
                    f"({trip.cause})",
                    time=float(trip.t),
                ) from trip.cause
            continue
        y_new = yi  # stage 7 input is already the fifth-order solution
        err_vec = h * (_DP_E @ k)
        sc = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / sc) ** 2)))
        if err <= 1.0:
            if float(np.max(np.abs(y_new))) > OVERFLOW_LIMIT:
                raise BlowupError(
                    f"state magnitude exceeded {OVERFLOW_LIMIT:.0e} near t = {t + h:.6g}",
                    time=float(t + h),
                )
            check_origin_guard_traj(packer, y_new, t + h)
            t_new = t1 if last else t + h
            while next_sample < m and (samples[next_sample] - t_new) * direction <= 0.0:
                theta = (samples[next_sample] - t) / h
                out[next_sample] = _hermite(y, k[0], y_new, k[6], h, theta)
                next_sample += 1
            t = t_new
            y = y_new
            # copy: k[6] is a row of the reused stage array and a rejected
            # attempt would overwrite it before the next k[0] = f
            f = k[6].copy()
            naccept += 1
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            nreject += 1
            factor = max(0.2, 0.9 * err ** -0.2)
        h = direction * min(abs(h) * factor, h_max)

    while next_sample < m:
        out[next_sample] = y
        next_sample += 1

    # both packings hold every position before every velocity, and the
    # pair packing puts the plus family first, as Trajectory stacks it
    half = out.shape[1] // 2
    return Trajectory(
        times=samples,
        positions=out[:, :half].reshape(m, -1, 2),
        velocities=out[:, half:].reshape(m, -1, 2),
        pair=packer.pair,
        metadata={
            "variant": packer.variant,
            "rtol": cfg.rtol,
            "atol": cfg.atol,
            "stats": {"accepted": naccept, "rejected": nreject, "rhs_evaluations": nfev},
        },
    )


def _first_derivative(deriv, t0, y):
    try:
        with np.errstate(all="ignore"):  # checked by deriv
            return deriv(t0, y)
    except _GuardTrip as trip:
        raise OriginCollisionError(
            f"initial state is inside the singularity guard ({trip.cause})", time=t0
        ) from trip.cause


def check_origin_guard_traj(packer, y, t):
    try:
        check_origin_guard(packer.guard_positions(y))
    except (OriginError, PairCollisionError) as exc:
        raise OriginCollisionError(
            f"trajectory entered the singularity guard at t = {t:.6g} ({exc})",
            time=float(t),
        ) from exc


def trajectory_from_states(times, states, pair: bool = False, metadata: dict | None = None) -> Trajectory:
    """Assemble a Trajectory from per-sample PlaneState or PairState values.

    The grid sequence of exact_states hands over its (m, n, 2) arrays
    as they are; any other sequence of states is stacked sample by sample.
    """
    times = np.asarray(times, dtype=np.float64)
    if not pair and isinstance(states, _StateGrid):
        pos, vel = states.positions, states.velocities
    else:
        pos = []
        vel = []
        for s in states:
            if pair:
                pos.append(np.concatenate([s.plus.positions, s.minus.positions]))
                vel.append(np.concatenate([s.plus.velocities, s.minus.velocities]))
            else:
                pos.append(s.positions)
                vel.append(s.velocities)
    return Trajectory(
        times=times,
        positions=pos,
        velocities=vel,
        pair=pair,
        metadata=metadata or {},
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Per-particle and global deviations between two trajectories on one grid.

    Relative deviations are normalized by the per-particle magnitude
    scale of the reference (first) trajectory.
    """

    n_particles: int
    sample_count: int
    pair: bool
    position_abs: np.ndarray
    position_rel: np.ndarray
    position_time: np.ndarray
    velocity_abs: np.ndarray
    velocity_rel: np.ndarray
    velocity_time: np.ndarray

    @property
    def max_position_abs(self) -> float:
        return float(np.max(self.position_abs))

    @property
    def max_position_rel(self) -> float:
        return float(np.max(self.position_rel))

    @property
    def max_velocity_abs(self) -> float:
        return float(np.max(self.velocity_abs))

    @property
    def max_velocity_rel(self) -> float:
        return float(np.max(self.velocity_rel))

    def lines(self) -> list[str]:
        def num(x):
            return f"{x:.17g}"

        rows = [
            f"particles: {self.n_particles}",
            f"samples: {self.sample_count}",
            f"pair: {'true' if self.pair else 'false'}",
            f"max_position_deviation_abs: {num(self.max_position_abs)}",
            f"max_position_deviation_rel: {num(self.max_position_rel)}",
            f"max_velocity_deviation_abs: {num(self.max_velocity_abs)}",
            f"max_velocity_deviation_rel: {num(self.max_velocity_rel)}",
        ]
        for j in range(self.n_particles):
            rows.append(f"particle_{j + 1}_position_deviation_abs: {num(self.position_abs[j])}")
            rows.append(f"particle_{j + 1}_position_deviation_rel: {num(self.position_rel[j])}")
            rows.append(f"particle_{j + 1}_position_deviation_time: {num(self.position_time[j])}")
            rows.append(f"particle_{j + 1}_velocity_deviation_abs: {num(self.velocity_abs[j])}")
            rows.append(f"particle_{j + 1}_velocity_deviation_rel: {num(self.velocity_rel[j])}")
            rows.append(f"particle_{j + 1}_velocity_deviation_time: {num(self.velocity_time[j])}")
        return rows


def compare(reference: Trajectory, other: Trajectory) -> ComparisonReport:
    """Deviation report between two trajectories sharing one time grid."""
    if len(reference.times) != len(other.times):
        raise GridMismatchError(
            f"sample counts differ: {len(reference.times)} vs {len(other.times)}"
        )
    span = abs(reference.times[-1] - reference.times[0])
    if float(np.max(np.abs(reference.times - other.times))) > 1e-9 * max(span, 1.0):
        raise GridMismatchError("time grids differ beyond tolerance")
    if reference.positions.shape != other.positions.shape or reference.pair != other.pair:
        raise GridMismatchError("trajectory shapes differ")

    def deviation(ref, oth):
        d = np.sqrt(np.sum((ref - oth) ** 2, axis=2))  # (m, p)
        scale = np.max(np.sqrt(np.sum(ref ** 2, axis=2)), axis=0)  # (p,)
        idx = np.argmax(d, axis=0)
        dmax = d[idx, np.arange(d.shape[1])]
        rel = dmax / np.maximum(scale, 1e-300)
        return dmax, rel, reference.times[idx]

    pa, pr, pt = deviation(reference.positions, other.positions)
    va, vr, vt = deviation(reference.velocities, other.velocities)
    return ComparisonReport(
        n_particles=reference.n_particles,
        sample_count=len(reference.times),
        pair=reference.pair,
        position_abs=pa,
        position_rel=pr,
        position_time=pt,
        velocity_abs=va,
        velocity_rel=vr,
        velocity_time=vt,
    )


def with_samples(cfg: IntegratorConfig, sample_count: int) -> IntegratorConfig:
    return replace(cfg, sample_count=sample_count)
