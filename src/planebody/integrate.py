"""Adaptive Runge-Kutta integration and trajectory comparison.

One stepping loop runs either of two embedded Runge-Kutta pairs, each
read as data (`_Tableau`): the Dormand-Prince 5(4) pair, "dopri5", the
default, and the Dormand-Prince 8(5,3) pair, "dop853" (Hairer, Norsett
and Wanner, Solving ODEs I, sections II.5 and II.10, and their codes
dopri5 and dop853); `IntegratorConfig.method` names one.  Both use the
same controller (safety 0.9, step-ratio clamp [0.2, 5.0], exponent
-1/(q + 1) for an error estimate of order q) and FSAL reuse: the input
of a step's last stage is its solution, whose derivative is the next
step's first.  DOP853's error norm combines its fifth- and third-order
estimates as dop853 does.

Output is sampled on a fixed grid through the method's continuous
extension, a polynomial in the step fraction theta with no constant
term, y(t + theta h) = y + [theta, ..., theta^d] @ Q, Q = h (P^T @ k):
DOPRI5's is a quartic built from the seven stage derivatives each step
already holds (Shampine, Math. Comp. 46, 1986).  DOP853's is of degree
7; it needs three more stages, which run only on an accepted step that
holds samples, and Q is its nested theta/(1 - theta) form's
coefficients expanded in powers.  So a step may hold any number of
samples.  The tolerances alone set the step size, and h_max, when
given, caps it.

Guards: a relative origin guard (collision), a 1e150 magnitude bound
(double-exponential blow-up) and a minimum step size (underflow), which
a step too small to change t fails as well.  The origin guard
(`model.check_origin_guard`) runs once per force evaluation, inside the
stage, the interpolant's stages included: the built-in force laws run
it in their kernel, and a user's rhs is called only after it has run on
the positions, or on the plus/minus differences of a pair state.  A
tripped stage halves the step like a non-finite one, except at the
initial state, where a guard trip is an OriginState, as the closed
form reports the same state, and a non-finite derivative an Overflow.
An accepted step needs no check of its own: its solution is the input
of its last stage.

The state is packed into one float64 stage row: every position, then
every velocity, as (x, y) pairs.  A PairState already is the plane
state of its 2n particles, the plus family before the minus family, so
there is one packing, read from the initial state's positions and
velocities.  A run allocates one (4n,) stage-input row and one
derivative row per stage of its method (7 for DOPRI5, 16 for DOP853)
and the buffers of its error norm once, and forms each stage input in
place, bit for bit y + h * (A_i @ k[:i]).  The error norm's |y_new|
also decides the 1e150 bound and is the next step's |y|.  A run enters
np.errstate once: every stage checks its input and its accelerations
itself.

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
exactly as np.isfinite(x).all() in one call.  An accepted step that
holds samples forms its interpolant's coefficients Q once and evaluates
all of its samples in one product into the output buffer, which comes
back frozen as a `Trajectory`.
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


class _Tableau:
    """An embedded Runge-Kutta pair with its continuous extension, as
    the stepping loop reads it.

    Stage i has the input y + h * (a[i] @ k[:i]) at t + c[i] h.  The
    first `stages` stages make a step, and the last of them has the
    step's solution as its input (FSAL); any later ones are stages of
    the interpolant alone.  The error estimate is h * (e @ k[:stages]);
    e3, when set, is a second, third-order estimate that shapes the norm
    as in dop853.  The step ratio is err^exponent.

    The interpolant is y(t + theta h) = y + [theta, ..., theta^d] @ Q,
    Q = h (P^T @ k), with P^T = dense, or P^T = to_powers @ dense when
    dense gives the coefficients of another polynomial basis and
    to_powers expands that basis in powers.  (A plain class: a
    dataclass or NamedTuple costs about a millisecond more at import.)
    """

    def __init__(self, c, a, stages, e, e3, exponent, dense, to_powers=None):
        self.c = c
        self.a = tuple(np.array(row) for row in a)  # arrays, built once rather than at every stage
        self.stages = stages
        self.e = np.array(e)
        self.e3 = None if e3 is None else np.array(e3)
        self.exponent = exponent
        self.dense = np.ascontiguousarray(dense)
        self.to_powers = to_powers


# DOPRI5.  Its fifth-order weights equal the last stage row (FSAL); the
# embedded fourth-order difference drives the error estimate
_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_E = (
    71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0,
)
# continuous extension: y(t + theta h) = y + [theta, theta^2, theta^3,
# theta^4] @ (h P^T @ k), fourth order in h; its rows sum to the
# fifth-order weights, so theta = 1 gives the accepted state
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

# DOP853: twelve stages and the FSAL stage (row 12, the eighth-order
# weights B), then the interpolant's three (rows 13-15)
_DOP853_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0, 0.1, 0.2, 0.7777777777777778,
)
_DOP853_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
# the fifth- and third-order error estimates
_DOP853_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0,
)
_DOP853_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0,
)
# dop853's interpolant is nested in theta and 1 - theta:
# y(t + theta h) = y + theta (F0 + (1 - theta) (F1 + theta (F2 + (1 - theta) (F3
#     + theta (F4 + (1 - theta) (F5 + theta F6)))))),
# with F0 = h B @ k, F1 = h k0 - F0, F2 = 2 F0 - h (k0 + k12) and
# F3..F6 = h D @ k; a seventh-order approximation
_DOP853_D = np.array([
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
])
# column j: the factor of F_j above (theta, theta (1 - theta), theta^2
# (1 - theta), ..., theta^4 (1 - theta)^3) in the powers theta, ...,
# theta^7.  Q is this times F, not one P^T @ k: with D up to 527, P^T @ k
# sums terms up to 10^3 times its result and lost up to 1,700 ulps
# against an exact evaluation of the polynomial, the two products 6 (D's
# rounding stays in F3..F6, whose factors vanish at theta = 0 and 1)
_DOP853_NESTED = np.array([
    (1, 1, 0, 0, 0, 0, 0),
    (0, -1, 1, 1, 0, 0, 0),
    (0, 0, -1, -2, 1, 1, 0),
    (0, 0, 0, 1, -2, -3, 1),
    (0, 0, 0, 0, 1, 3, -3),
    (0, 0, 0, 0, 0, -1, 3),
    (0, 0, 0, 0, 0, 0, -1),
], dtype=np.float64)


def _dop853_f() -> np.ndarray:
    """F's weights of the 16 derivatives, a row per F_j."""
    b = np.zeros(16)
    b[:12] = _DOP853_A[12]
    k0, k12 = np.eye(16)[[0, 12]]
    return np.vstack([b, k0 - b, 2.0 * b - k0 - k12, _DOP853_D])


_TABLEAUS = {
    "dopri5": _Tableau(_DP_C, _DP_A, 7, _DP_E, None, -1.0 / 5.0, _DP_P.T),
    "dop853": _Tableau(
        _DOP853_C, _DOP853_A, 13, _DOP853_E5, _DOP853_E3, -1.0 / 8.0, _dop853_f(), _DOP853_NESTED
    ),
}
METHODS = tuple(_TABLEAUS)


@dataclass(frozen=True)
class IntegratorConfig:
    """Method, tolerances, step-size limits, time span and output sampling.

    method is one of METHODS: "dopri5" (the default) or "dop853".
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
    method: str = "dopri5"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {list(METHODS)}, got {self.method!r}")
        if not (self.rtol > 0.0 and self.atol > 0.0):
            raise ValueError("rtol and atol must be positive")
        if not (0.0 < self.h_min < self.h_init):
            raise ValueError("step sizes must satisfy 0 < h_min < h_init")
        try:
            t0, t1 = (float(t) for t in self.t_span)
        except (TypeError, ValueError, OverflowError):  # not a pair of numbers
            t0 = t1 = math.nan
        if not (math.isfinite(t0) and math.isfinite(t1)) or t0 == t1:
            raise ValueError("t_span must be a finite interval with t1 != t0")
        object.__setattr__(self, "t_span", (t0, t1))
        try:
            count = int(self.sample_count)
        except (TypeError, ValueError, OverflowError):  # nan, inf or not a number
            count = 0
        if count < 2 or count != self.sample_count:
            raise ValueError("sample_count must be an integer >= 2")
        object.__setattr__(self, "sample_count", count)
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
        if pos.ndim != 3 or pos.shape != (len(times), pos.shape[1], 2) or vel.shape != pos.shape:
            raise ValueError("positions and velocities must both have shape (m, p, 2)")
        if self.pair and pos.shape[1] % 2:
            raise ValueError(f"a pair trajectory stacks 2n particles, got {pos.shape[1]}")
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
    included; metadata holds "method" (cfg.method) and "stats" (the
    accepted and rejected step counts and the force evaluations).
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

    tab = _TABLEAUS[cfg.method]
    c, a, e, e3, dense, to_powers = tab.c, tab.a, tab.e, tab.e3, tab.dense, tab.to_powers
    nrows, fsal = len(c), tab.stages - 1
    degree = dense.shape[0]

    pos, vel = s0.positions, s0.velocities
    size = 2 * pos.size
    # every position comes before every velocity, so the velocity half
    # of a derivative is the second half of its stage row
    half = size // 2
    # ys[i] is the input of stage i, k[i] its derivative; ys[0] holds the
    # solution y and k[0] its derivative, copied from row fsal (the
    # step's solution) at each accepted step
    ys = np.empty((nrows, size))
    k = np.empty((nrows, size))
    ys[0, :half] = pos.ravel()
    ys[0, half:] = vel.ravel()
    rows = list(ys)
    y, y_new = rows[0], rows[fsal]
    velocities = [row[half:] for row in rows]
    k_velocities = [row[:half] for row in k]
    accelerations = [row[half:] for row in k]
    k_prior = [k[:i] for i in range(nrows)]
    k_step = k[:tab.stages]
    stage = force.bind(ys, k[:, half:])
    # x.dot(zeros) is NaN when x holds an inf or a NaN, else +-0: an
    # exact finiteness test in one call
    zeros = np.zeros(size)
    zeros_half = zeros[:half]
    nfev = 0

    def deriv(i, t):
        """Fill k[i] from ys[i], checking both: the run's np.errstate
        keeps numpy from warning about what these checks report."""
        nonlocal nfev
        if not math.isfinite(rows[i].dot(zeros)):
            raise _GuardTrip(t, ValueError("non-finite stage state"))
        k_velocities[i][...] = velocities[i]
        try:
            stage(i, t)
        except (OriginError, PairCollisionError) as exc:
            raise _GuardTrip(t, exc) from exc
        if not math.isfinite(accelerations[i].dot(zeros_half)):
            raise _GuardTrip(t, ValueError("non-finite derivative"))
        nfev += 1

    def run_stages(lo, hi, t, h):
        """Stages lo..hi-1 of the step of size h (also in h_arr) from
        (t, y): ys[i] = y + h * (A_i @ k[:i]), bit for bit."""
        for i in range(lo, hi):
            np.dot(a[i], k_prior[i], out=comb)
            np.multiply(comb, h_arr, out=comb)
            np.add(y, comb, out=rows[i])
            deriv(i, t + c[i] * h)

    out = np.empty((m, size))
    out[0] = y
    next_sample = 1
    # the interpolant's coefficients, and each sample's step fraction
    # theta in all its columns, raised to the powers 1..degree in place;
    # the grid is repeated in those columns (a broadcast subtraction
    # costs twice as much) and read as Python floats by the sample search
    q = np.empty((degree, size))
    f = q if to_powers is None else np.empty((degree, size))
    theta_powers = np.empty((m, degree))
    sample_rows = np.repeat(samples[:, None], degree, axis=1)
    sample_list = samples.tolist()

    naccept = 0
    nreject = 0
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
                run_stages(1, fsal + 1, t, h)
                # ys[fsal], the last stage's input, is already the
                # solution; the error is h (e @ k) per component over
                # scale = atol + rtol max(|y|, |y_new|)
                np.abs(y_new, out=abs_new)
                np.maximum(abs_y, abs_new, out=scale)
                scale *= cfg.rtol
                scale += cfg.atol
                np.dot(e, k_step, out=comb)
                if e3 is None:
                    # sqrt(mean((h (e @ k) / scale)^2))
                    comb *= h_arr
                    comb /= scale
                    comb *= comb
                    err = math.sqrt(float(comb.sum()) / size)
                else:
                    # dop853's |h| e5^2 / sqrt((e5^2 + 0.01 e3^2) size),
                    # e_q^2 the sum of squares of (e_q @ k) / scale
                    comb /= scale
                    err5 = float(comb.dot(comb))
                    np.dot(e3, k_step, out=comb)
                    comb /= scale
                    err3 = float(comb.dot(comb))
                    err = abs(h) * err5 / math.sqrt((err5 + 0.01 * err3) * size) if err5 else 0.0
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
                        run_stages(fsal + 1, nrows, t, h)  # the interpolant's own, if any
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
            if err <= 1.0:
                if end > next_sample:
                    # every sample of the step from its interpolant, at once
                    np.dot(dense, k, out=f)
                    if to_powers is not None:
                        np.dot(to_powers, f, out=q)
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
                k[0] = k[fsal]
                abs_y, abs_new = abs_new, abs_y
                naccept += 1
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** tab.exponent))
            else:
                nreject += 1
                factor = max(0.2, 0.9 * err ** tab.exponent)
            h = direction * min(abs(h) * factor, h_max)

    out.setflags(write=False)  # the last step ended at t1: every sample is written
    return Trajectory(
        times=samples,
        positions=out[:, :half].reshape(m, -1, 2),
        velocities=out[:, half:].reshape(m, -1, 2),
        pair=pair,
        metadata={
            "method": cfg.method,
            "stats": {"accepted": naccept, "rejected": nreject, "rhs_evaluations": nfev},
        },
    )


def _first_derivative(deriv, t0):
    """The derivative at the initial state, row 0: a guard trip there is
    an OriginState, as on the closed-form route, a non-finite derivative
    (the initial data overflow the force law) an Overflow, both at t0."""
    try:
        deriv(0, t0)
    except _GuardTrip as trip:
        if isinstance(trip.cause, (OriginError, PairCollisionError)):
            raise OriginError(
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
