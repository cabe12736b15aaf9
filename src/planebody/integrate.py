"""Adaptive Runge-Kutta integration and trajectory comparison.

The stepper is the Dormand-Prince 5(4) embedded pair with the usual
controller (safety 0.9, step-ratio clamp [0.2, 5.0], FSAL reuse).
Output is sampled on a fixed grid through DOPRI5's continuous
extension, a quartic in the step fraction built from the seven stage
derivatives each step already holds (Hairer, Norsett and Wanner,
Solving ODEs I, section II.6; Shampine, Math. Comp. 46, 1986), so a
step may hold any number of samples.  The tolerances alone set the
step size, and h_max, when given, caps it.

Guards: a relative origin guard (collision), a 1e150 magnitude bound
(double-exponential blow-up) and a minimum step size (underflow), which
a step too small to change t fails as well.  The origin guard
(`model.check_origin_guard`) runs once per force evaluation, inside the
stage: the built-in force laws run it in their kernel, and a user's
rhs is called only after it has run on the positions, or on the
plus/minus differences of a pair state.  A tripped stage halves the
step like a non-finite one, except at the initial state, where a guard
trip is an OriginCollision and a non-finite derivative an Overflow.  An
accepted step needs no check of its own: its solution is the input of
its last stage.

The state is packed into one float64 stage row: every position, then
every velocity, as (x, y) pairs.  A PairState already is the plane
state of its 2n particles, the plus family before the minus family, so
there is one packing, read from the initial state's positions and
velocities.  A run allocates its (7, 4n) stage-input rows, its
derivative rows and the buffers of its error norm once, and forms each
stage input in place, bit for bit
y + h * (A_i @ k[:i]).  The error norm's |y_new| also decides the 1e150
bound and is the next step's |y|.  A run enters np.errstate once:
every stage checks its input and its accelerations itself.

A force law is bound to those rows once per run: bind(rows, acc)
returns stage(i, t), which fills the acceleration half acc[i] of
derivative row i from stage-input row i.  The built-in laws
(`model._PlaneForce` and `model._PairForce`, which the CLI passes) bind
complex views of every row; any other rhs(t, state) is bound through
`_UserForce` to a read-only PlaneState or PairState view of every
row.  So no stage takes a view, a slice or a reshape.  Stage i checks
row i for finiteness, copies its velocity
half into the first half of derivative row i, calls stage(i, t) and
checks the accelerations.  Each finiteness test is x.dot(zeros): that
is NaN when x holds an inf or a NaN and +-0 otherwise, so it decides
exactly as np.isfinite(x).all() in one call.  There is one stepping
loop.  An accepted step that holds samples forms its interpolant's
coefficients Q = h (P^T @ k) once and evaluates all of its samples in
one product into the output buffer, which comes back frozen as a
`Trajectory`.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
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
from .model import PairState, PlaneState, _PlaneForce, check_origin_guard

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
# continuous extension: over an accepted step from (t, y),
# y(t + theta h) = y + [theta, theta^2, theta^3, theta^4] @ (h P^T @ k),
# fourth order in h; its rows sum to the fifth-order weights, so theta = 1
# gives the accepted state
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_DP_PT = np.ascontiguousarray(_DP_P.T)


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, step-size limits, time span and output sampling.

    h_max = None caps the step at the span only, so the tolerances
    alone set it.  The sample times must be distinct and ordered in
    floating point.
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
        for name in ("rtol", "atol", "h_init", "h_min", "h_max"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not np.all(np.diff(self.sample_times()) * math.copysign(1.0, t1 - t0) > 0.0):
            raise ValueError(
                f"t_span {list(self.t_span)} does not hold {self.sample_count} distinct sample times"
            )

    def sample_times(self) -> np.ndarray:
        """The output grid: sample_count equally spaced times over
        t_span, endpoints included (the last one exactly t_span[1])."""
        t0, t1 = self.t_span
        with np.errstate(over="ignore", invalid="ignore"):  # a span that overflows fails validation
            return np.linspace(t0, t1, self.sample_count)

    def effective_h_max(self) -> float:
        if self.h_max is not None:
            return float(self.h_max)
        t0, t1 = self.t_span
        return abs(t1 - t0)


@dataclass(frozen=True)
class Trajectory(Sequence):
    """Sampled motion: strictly monotone times, (m, p, 2) position and
    velocity arrays.  Pair runs stack the plus family before the minus
    family, so p = 2n there.  Read-only float64 arrays are kept as they
    are; anything else is copied and frozen.

    A read-only sequence of at least one sample: an index reads a sample
    as a PlaneState or PairState view of the sample's rows (a pair sample
    runs PairState's exact-coincidence check), a slice is the Trajectory
    of those samples.
    """

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    pair: bool = False
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        times, pos, vel = (
            a if isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable
            else np.array(a, dtype=np.float64)
            for a in (self.times, self.positions, self.velocities)
        )
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

    def __len__(self) -> int:
        return self.times.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return replace(
                self, times=self.times[i], positions=self.positions[i], velocities=self.velocities[i]
            )
        if not self.pair:
            return PlaneState._checked(self.positions[i], self.velocities[i])
        s = PairState._checked(self.positions[i], self.velocities[i])
        s.__post_init__()  # the exact-coincidence check
        return s

    def state_at(self, i: int):
        return self[i]


class _GuardTrip(Exception):
    def __init__(self, t: float, cause: Exception):
        self.t = t
        self.cause = cause


class _UserForce:
    """A user's rhs(t, state), bound to a run's rows as the built-in laws
    are (`model._PlaneForce`): bind wraps every stage row once, as a
    read-only PlaneState or PairState view (no coincidence check), and
    returns stage(i, t).  That runs the origin guard on the positions or
    the pair differences (which trips on an exact plus/minus
    coincidence), calls rhs and copies its accelerations into acc[i].
    rhs sees a view of the run's row, valid during the call."""

    def __init__(self, rhs, pair: bool):
        self.rhs = rhs
        self.pair = pair

    def bind(self, rows: np.ndarray, acc: np.ndarray):
        rhs = self.rhs
        shape = acc.shape[1:]
        kind = PairState if self.pair else PlaneState
        states = [kind._checked(*row.reshape(2, -1, 2)) for row in rows]
        if self.pair:
            diff = np.empty_like(states[0].plus.positions)

            def guard(s):
                check_origin_guard(np.subtract(s.plus.positions, s.minus.positions, out=diff))
        else:
            def guard(s):
                check_origin_guard(s.positions)

        def stage(i: int, t: float) -> None:
            s = states[i]
            guard(s)
            acc[i] = np.asarray(rhs(t, s), dtype=np.float64).reshape(shape)

        return stage


def integrate(rhs, s0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate a force evaluator over cfg.t_span.

    Parameters
    ----------
    rhs : callable
        For a PlaneState start: rhs(t, state) -> (n, 2) accelerations.
        For a PairState start: rhs(t, state) -> (plus, minus) pair of
        (n, 2) acceleration arrays.  Each stage hands rhs a read-only
        view of the run's stage row, valid during the call.  The
        built-in force laws (`model._PlaneForce`, `model._PairForce`)
        instead write their accelerations straight into the stage
        derivative.
    s0 : PlaneState or PairState
        Initial condition at t_span[0].
    cfg : IntegratorConfig

    Returns
    -------
    Trajectory sampled at sample_count equally spaced times, endpoints
    included; metadata carries step statistics and tolerances.
    """
    pair = isinstance(s0, PairState)
    if isinstance(rhs, _PlaneForce):  # or its pair law, _PairForce
        if rhs.pair != pair or rhs.n != s0.n:
            raise ValueError(f"the force law does not fit the initial state ({s0.n} particles)")
        force = rhs
    else:
        force = _UserForce(rhs, pair)

    t0, t1 = cfg.t_span
    direction = 1.0 if t1 > t0 else -1.0
    m = cfg.sample_count
    samples = cfg.sample_times()
    h_max = cfg.effective_h_max()

    pos, vel = s0.positions, s0.velocities
    size = 2 * pos.size
    # every position comes before every velocity, so the velocity half
    # of a derivative is the second half of its stage row
    half = size // 2
    # ys[i] is the input of stage i, k[i] its derivative; ys[0] holds the
    # solution y and k[0] its derivative, copied from row 6 (the fifth-
    # order solution, FSAL) at each accepted step
    ys = np.empty((7, size))
    k = np.empty((7, size))
    ys[0, :half] = pos.ravel()
    ys[0, half:] = vel.ravel()
    rows = list(ys)
    y, y_new = rows[0], rows[6]
    velocities = [row[half:] for row in rows]
    k_velocities = [row[:half] for row in k]
    accelerations = [row[half:] for row in k]
    k_prior = [k[:i] for i in range(7)]
    stage = force.bind(ys, k[:, half:])
    # x.dot(zeros) is NaN when x holds an inf or a NaN, else +-0: an
    # exact finiteness test in one call
    zeros = np.zeros(size)
    zeros_half = zeros[:half]

    def deriv(i, t):
        """Fill k[i] from ys[i], checking both: the run's np.errstate
        keeps numpy from warning about what these checks report."""
        if not math.isfinite(rows[i].dot(zeros)):
            raise _GuardTrip(t, ValueError("non-finite stage state"))
        k_velocities[i][...] = velocities[i]
        try:
            stage(i, t)
        except (OriginError, PairCollisionError) as exc:
            raise _GuardTrip(t, exc) from exc
        if not math.isfinite(accelerations[i].dot(zeros_half)):
            raise _GuardTrip(t, ValueError("non-finite derivative"))

    out = np.empty((m, size))
    out[0] = y
    next_sample = 1
    # the interpolant's coefficients, and each sample's step fraction
    # theta in all four columns, raised to the powers 1-4 in place; the
    # grid is repeated in four columns (a broadcast subtraction costs
    # twice as much) and read as Python floats by the sample search
    q = np.empty((4, size))
    theta_powers = np.empty((m, 4))
    sample_rows = np.repeat(samples[:, None], 4, axis=1)
    sample_list = samples.tolist()

    naccept = 0
    nreject = 0
    nfev = 1
    h = direction * min(cfg.h_init, h_max)
    t = t0
    # the step size as a 0-d array, which numpy multiplies by faster
    # than by a Python float (same product)
    h_arr = np.empty(())
    comb = np.empty(size)
    scale = np.empty(size)
    abs_y = np.empty(size)
    abs_new = np.empty(size)

    with np.errstate(all="ignore"):  # checked by deriv
        _first_derivative(deriv, t0)
        np.abs(y, out=abs_y)
        while (t1 - t) * direction > 0.0:
            if abs(h) < cfg.h_min or t + h == t:
                raise StepUnderflowError(
                    f"step size {abs(h):.3e} fell below h_min {cfg.h_min:.3e} at t = {t:.6g}"
                    if abs(h) < cfg.h_min
                    else f"step size {abs(h):.3e} no longer changes t = {t:.17g}",
                    time=t,
                )
            last = abs(t1 - t) <= abs(h)
            if last:
                h = t1 - t
            h_arr[()] = h
            try:
                for i in range(1, 7):
                    # ys[i] = y + h * (A_i @ k[:i]), bit for bit
                    np.dot(_DP_A[i], k_prior[i], out=comb)
                    comb *= h_arr
                    np.add(y, comb, out=rows[i])
                    deriv(i, t + _DP_C[i] * h)
                    nfev += 1
            except _GuardTrip as trip:
                nreject += 1
                h *= 0.5
                if abs(h) < cfg.h_min or t + h == t:
                    raise OriginCollisionError(
                        f"trajectory entered the singularity guard near t = {trip.t:.6g} "
                        f"({trip.cause})",
                        time=float(trip.t),
                    ) from trip.cause
                continue
            # ys[6], stage 7's input, is already the fifth-order solution;
            # the error norm is sqrt(mean((h (E @ k) / scale)^2)) with
            # scale = atol + rtol max(|y|, |y_new|)
            np.dot(_DP_E, k, out=comb)
            comb *= h_arr
            np.abs(y_new, out=abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            scale *= cfg.rtol
            scale += cfg.atol
            comb /= scale
            comb *= comb
            err = math.sqrt(float(comb.sum()) / size)
            if err <= 1.0:
                if float(abs_new.max()) > OVERFLOW_LIMIT:
                    raise BlowupError(
                        f"state magnitude exceeded {OVERFLOW_LIMIT:.0e} near t = {t + h:.6g}",
                        time=float(t + h),
                    )
                t_new = t1 if last else t + h
                end = next_sample
                while end < m and (sample_list[end] - t_new) * direction <= 0.0:
                    end += 1
                if end > next_sample:
                    # every sample of the step from its interpolant, at once
                    np.dot(_DP_PT, k, out=q)
                    q *= h_arr
                    powers = theta_powers[next_sample:end]
                    np.subtract(sample_rows[next_sample:end], t, out=powers)
                    powers /= h_arr
                    np.multiply.accumulate(powers, axis=1, out=powers)
                    dest = out[next_sample:end]
                    np.dot(powers, q, out=dest)
                    dest += y
                    next_sample = end
                t = t_new
                ys[0] = y_new
                k[0] = k[6]
                abs_y, abs_new = abs_new, abs_y
                naccept += 1
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            else:
                nreject += 1
                factor = max(0.2, 0.9 * err ** -0.2)
            h = direction * min(abs(h) * factor, h_max)

    out.setflags(write=False)  # the last step ended at t1: every sample is written
    return Trajectory(
        times=samples,
        positions=out[:, :half].reshape(m, -1, 2),
        velocities=out[:, half:].reshape(m, -1, 2),
        pair=pair,
        metadata={
            "variant": "pair" if pair else "plane",
            "rtol": cfg.rtol,
            "atol": cfg.atol,
            "stats": {"accepted": naccept, "rejected": nreject, "rhs_evaluations": nfev},
        },
    )


def _first_derivative(deriv, t0):
    """The derivative at the initial state, row 0: a guard trip there is
    an OriginCollision, a non-finite derivative (the initial data
    overflow the force law) an Overflow, both at t0."""
    try:
        deriv(0, t0)
    except _GuardTrip as trip:
        if isinstance(trip.cause, (OriginError, PairCollisionError)):
            raise OriginCollisionError(
                f"initial state is inside the singularity guard ({trip.cause})", time=t0
            ) from trip.cause
        raise BlowupError(
            f"the initial state overflows the force law at t = {t0} ({trip.cause})", time=t0
        ) from trip.cause


def trajectory_from_states(times, states, pair: bool = False) -> Trajectory:
    """Assemble a Trajectory from per-sample PlaneState or PairState values.

    A Trajectory (exact_states, the pair grid) is re-timed: its frozen
    (m, p, 2) arrays and its pair flag are taken as they are, not copied.
    Any other sequence of states is stacked sample by sample, a PairState
    as its 2n particles, plus family first.
    """
    if isinstance(states, Trajectory):
        pos, vel, pair = states.positions, states.velocities, states.pair
    else:
        pos = [s.positions for s in states]
        vel = [s.velocities for s in states]
    return Trajectory(times=times, positions=pos, velocities=vel, pair=pair)


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
