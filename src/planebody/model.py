"""Model definition: state containers, coupling data and force evaluators.

The system is a set of point particles in the plane subject to
velocity-dependent forces.  Writing each position as a complex number
z_j = x_j + i y_j, the acceleration is

    z''_j = z'_j^2 / z_j + sum_k alpha_jk z_j z'_k / z_k,
    alpha_jk = beta_jk + i gamma_jk.

The first term is the one-body force (quadratic in the particle's own
velocity, nonlinear in its coordinate); the sum is the pair force (linear
in z_j and in z'_k, nonlinear in z_k).

The evaluators compute this complex form directly.  An (n, 2) float64
array of (x, y) pairs has the memory layout of n complex128 numbers, so
`_accelerations` views positions and velocities as z and z' without
copying and hands them to `_kernel`, which forms f = z'/z and
z' f + z (alpha f) in a handful of array operations and one complex
matrix-vector product, after the origin guard on the squared radii; the
result is viewed back as (n, 2) floats.  rhs_base and rhs_generalized
(couplings alpha e^{mu t}, plus mu z', mu = lam + i omega) call
`_accelerations`; rhs_pair runs the kernel on the differences of its
two families.  _PlaneForce and _PairForce run the same arithmetic on
complex views of an integrator run's stage rows, bound once per run,
and write into the stage derivative in place.  rhs_complex stays an
independent route: it takes a ComplexState, guards on |z| and shares no
code with the kernel, so the tests cross-check the two.

The rhs_* evaluators are pure functions of immutable inputs.

A pair state is the plane state of its 2n particles, plus family
first: `_stacked` forms that layout and `_state_view` reads it back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OriginError, PairCollisionError

ORIGIN_GUARD_RATIO = 1e-12
_GUARD_RATIO2 = ORIGIN_GUARD_RATIO ** 2


def perp(v: np.ndarray) -> np.ndarray:
    """Quarter turn of 2-vectors along the last axis: (x, y) -> (-y, x)."""
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def _frozen_array(value, shape_tail, name, dtype=np.float64) -> np.ndarray:
    a = np.array(value, dtype=dtype)
    if a.ndim != len(shape_tail) or any(
        want is not None and got != want for got, want in zip(a.shape, shape_tail)
    ):
        raise ValueError(f"{name} has shape {a.shape}, expected {shape_tail}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CouplingSpec:
    """Real and imaginary coupling matrices (n x n each, any sign)."""

    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        beta = _frozen_array(self.beta, (None, None), "beta")
        if beta.shape[0] != beta.shape[1]:
            raise ValueError(f"beta must be square, got shape {beta.shape}")
        gamma = _frozen_array(self.gamma, beta.shape, "gamma")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

    @property
    def n(self) -> int:
        return self.beta.shape[0]


def zero_couplings(n: int) -> CouplingSpec:
    return CouplingSpec(np.zeros((n, n)), np.zeros((n, n)))


def alpha_matrix(c: CouplingSpec) -> np.ndarray:
    """Complex coupling matrix beta + i*gamma."""
    return c.beta + 1j * c.gamma


@dataclass(frozen=True)
class PlaneState:
    """Positions and velocities as (n, 2) arrays of plane vectors.

    A state is checked where it enters the package and wrapped, not
    checked again, everywhere after that.  The constructor copies,
    shape-checks, finiteness-checks and freezes both arrays, so user data
    always goes through it.  `_checked` stores float64 arrays of shape
    (n, 2) with no copy and no check.  Its callers are
      - the scenario parser (`scenario_from_dict`, through `_state_view`),
        over the columns of the initial rows it has just checked;
      - `_state_view` (through `_families` for a pair), one sample at a
        time as samples are read, over the frozen arrays of an
        `integrate.Trajectory`: the closed-form grids, every value of
        which has been checked, the integrator's output, or a caller's
        arrays, non-finite values included;
      - the integrator's binding of a user's rhs (`integrate._UserForce`),
        once per run, over the rows of its stage inputs: the views stay
        bound for the run, and each stage checks its row for finiteness
        before the rhs reads it.
    A pair sample or parsed pair state goes through the PairState
    constructor, which keeps its exact-coincidence check; a pair stage
    row is wrapped once per run by `PairState._checked`, and its stages
    run the origin guard instead.
    """

    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        pos = _frozen_array(self.positions, (None, 2), "positions")
        vel = _frozen_array(self.velocities, pos.shape, "velocities")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)

    @classmethod
    def _checked(cls, positions: np.ndarray, velocities: np.ndarray) -> "PlaneState":
        """Wrap already-checked (n, 2) float64 arrays: no copy, no checks.

        The arrays (often views of a larger grid or stage vector) are set
        read-only; see the class docstring for the callers allowed to use it.
        """
        positions.setflags(write=False)
        velocities.setflags(write=False)
        s = object.__new__(cls)
        object.__setattr__(s, "positions", positions)
        object.__setattr__(s, "velocities", velocities)
        return s

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class ComplexState:
    """The same state in complex coordinates; z_j must be nonzero."""

    z: np.ndarray
    zdot: np.ndarray

    def __post_init__(self):
        z = _frozen_array(self.z, (None,), "z", dtype=np.complex128)
        zdot = _frozen_array(self.zdot, z.shape, "zdot", dtype=np.complex128)
        if np.any(z == 0.0):
            raise OriginError("complex state has a particle exactly at the origin")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "zdot", zdot)

    @property
    def n(self) -> int:
        return self.z.shape[0]


@dataclass(frozen=True)
class GeneralizedParams:
    """Uniform velocity coupling: radial rate lam, rotation rate omega."""

    lam: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        for name in ("lam", "omega"):
            val = float(getattr(self, name))
            if not np.isfinite(val):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class PairSpec:
    """Couplings for the translation-invariant doubled system.

    `base` drives the difference coordinates r_j = r_j(+) - r_j(-);
    `lam` and `omega` (length n) drive each pair's center sum
    R_j = r_j(+) + r_j(-) through R''_j = (lam_j + omega_j perp) R'_j.
    """

    base: CouplingSpec
    lam: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        if not isinstance(self.base, CouplingSpec):
            raise ValueError("base must be a CouplingSpec")
        lam = _frozen_array(self.lam, (self.base.n,), "lam")
        omega = _frozen_array(self.omega, (self.base.n,), "omega")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "omega", omega)

    @property
    def n(self) -> int:
        return self.base.n


@dataclass(frozen=True)
class PairState:
    """States of the plus and minus particle families (same length)."""

    plus: PlaneState
    minus: PlaneState

    def __post_init__(self):
        if not isinstance(self.plus, PlaneState) or not isinstance(self.minus, PlaneState):
            raise ValueError("plus and minus must be PlaneState instances")
        if self.plus.n != self.minus.n:
            raise ValueError(
                f"family sizes differ: plus has {self.plus.n}, minus has {self.minus.n}"
            )
        if np.any(np.all(self.plus.positions == self.minus.positions, axis=1)):
            raise PairCollisionError("a plus/minus pair coincides exactly")

    @classmethod
    def _checked(cls, plus: PlaneState, minus: PlaneState) -> "PairState":
        """Wrap the two family views of one integrator stage row, once
        per run (`integrate._UserForce`): no checks.  Each stage runs the
        origin guard on plus - minus, which trips on an exact coincidence."""
        s = object.__new__(cls)
        object.__setattr__(s, "plus", plus)
        object.__setattr__(s, "minus", minus)
        return s

    @property
    def n(self) -> int:
        return self.plus.n


def _families(positions: np.ndarray, velocities: np.ndarray) -> tuple[PlaneState, PlaneState]:
    """The plus and minus halves of stacked (2n, 2) float64 arrays, plus
    family first, as read-only PlaneState views: the one place the
    stacked layout is split into families."""
    n = positions.shape[0] // 2
    return (
        PlaneState._checked(positions[:n], velocities[:n]),
        PlaneState._checked(positions[n:], velocities[n:]),
    )


def _state_view(positions: np.ndarray, velocities: np.ndarray, pair: bool = False):
    """(p, 2) float64 arrays as a read-only PlaneState view, or for a
    pair as the PairState of its two families (`_families`)."""
    if not pair:
        return PlaneState._checked(positions, velocities)
    return PairState(*_families(positions, velocities))


def _stacked(state) -> tuple[np.ndarray, np.ndarray]:
    """(positions, velocities) of a PlaneState, or of a PairState as the
    plane state of its 2n particles, plus family first."""
    if isinstance(state, PairState):
        return (
            np.concatenate([state.plus.positions, state.minus.positions]),
            np.concatenate([state.plus.velocities, state.minus.velocities]),
        )
    return state.positions, state.velocities


def check_origin_guard(positions: np.ndarray, error=OriginError, r2=None) -> None:
    """Reject states with a particle within 1e-12 of the origin, relative
    to the largest particle radius at the same instant.

    This is the one place the package decides the origin guard: the force
    kernel runs it per evaluation, the integrator per stage of a user's
    rhs, and the closed form on its initial state (rhs_complex keeps its
    own test as the independent reference).  Being relative to the
    largest radius, it is scale-free like the force law (homogeneous of
    degree one), and it couples the particles on purpose: one escaping
    particle can put a well-separated one inside the guard.

    r2, when given, holds the squared radii the caller already computed
    (positions is then not read).  The test is min r2 < RATIO**2 * max r2,
    with square roots taken only to format the error, which reports the
    radius and the scale.  It decides as min r < RATIO * max r does while
    RATIO**2 * max r2 is a normal float, that is for scales max r above
    about 1.5e-142.  Below that the threshold is subnormal and keeps fewer
    significant bits, so only radius ratios within that rounding of 1e-12
    may be decided differently; where it underflows to zero (max r below
    about 1.6e-150) only a radius whose square is exactly zero trips.

    Precondition: positions and r2 hold no NaN.  Every caller passes
    squared radii of finite positions (inf, from overflow, is ordered
    like any number), and under it Python's min and max over
    r2.tolist() pick exactly the values np.min and np.max would, at a
    fraction of the cost of two numpy reductions on a few numbers.
    """
    if r2 is None:
        r2 = (positions * positions).sum(axis=1)
    radii2 = r2.tolist()
    r2min = min(radii2)
    r2max = max(radii2)
    if r2min == 0.0 or r2min < _GUARD_RATIO2 * r2max:
        j = radii2.index(r2min)
        raise error(
            f"particle {j + 1} radius {math.sqrt(r2min):.3e} is inside the origin guard "
            f"(scale {math.sqrt(r2max):.3e})"
        )


def to_complex(s: PlaneState) -> ComplexState:
    """Map (n, 2) vectors to complex coordinates, bit for bit (the sign of
    zero included); rejects guarded states."""
    check_origin_guard(s.positions)
    return ComplexState(_complex_view(s.positions), _complex_view(s.velocities))


def from_complex(c: ComplexState) -> PlaneState:
    """The (n, 2) vectors of complex coordinates: to_complex's inverse, bit for bit."""
    return PlaneState(_plane_view(c.z), _plane_view(c.zdot))


def _complex_view(a: np.ndarray) -> np.ndarray:
    """The n numbers x + iy of an (n, 2) float64 array: a view, or a view of
    a C-contiguous copy when a's rows are not adjacent pairs in memory."""
    return np.ascontiguousarray(a).view(np.complex128)[:, 0]


def _plane_view(z: np.ndarray) -> np.ndarray:
    """The (..., 2) float64 view of a C-contiguous complex128 array."""
    return z.view(np.float64).reshape(*z.shape, 2)


def _kernel(alpha, z, zdot, error=OriginError, mu=0.0, out=None) -> np.ndarray:
    """The law z'' = z' f + z (alpha f) + mu z', f = z'/z, on complex
    n-vectors: a handful of array operations and one matrix-vector
    product.  mu is the uniform velocity coupling lam + i omega of the
    generalized model.  The origin guard runs first, on the squared
    radii, and raises `error`.  The result is written into out when given."""
    check_origin_guard(None, error, r2=(z * z.conj()).real)
    f = zdot / z
    acc = np.add(zdot * f, z * (alpha @ f), out=out)
    if mu:
        acc += mu * zdot
    return acc


def _accelerations(alpha, r, v, mu=0.0) -> np.ndarray:
    """The kernel on (n, 2) float64 positions r and velocities v, viewed as
    complex128 (copied only when their rows are not contiguous pairs);
    returns the (n, 2) float64 view of the complex accelerations."""
    return _plane_view(_kernel(alpha, _complex_view(r), _complex_view(v), mu=mu))


def _rotated(alpha: np.ndarray, mu: complex, t: float) -> np.ndarray:
    """Couplings alpha e^{mu t} of the generalized model at time t."""
    return alpha * np.exp(mu * t) if mu else alpha


def _pair_kernel(alpha, mu, zp, zm, vp, vm, out_p=None, out_m=None):
    """(plus, minus) complex accelerations of the pair model: mu_j =
    lam_j + i omega_j drives the sums, the base law the differences (see
    rhs_pair).  Results are written into out_p and out_m when given."""
    interaction = _kernel(alpha, zp - zm, vp - vm, PairCollisionError)
    center = mu * (vp + vm)
    plus = np.add(center, interaction, out=out_p)
    plus *= 0.5
    minus = np.subtract(center, interaction, out=out_m)
    minus *= 0.5
    return plus, minus


def rhs_base(c: CouplingSpec, s: PlaneState) -> np.ndarray:
    """Accelerations (n, 2) of the autonomous model."""
    if c.n != s.n:
        raise ValueError(f"coupling size {c.n} does not match state size {s.n}")
    return _accelerations(alpha_matrix(c), s.positions, s.velocities)


def rhs_complex(c: CouplingSpec, s: ComplexState) -> np.ndarray:
    """Complex accelerations z''_j; independent route used to cross-check rhs_base."""
    if c.n != s.n:
        raise ValueError(f"coupling size {c.n} does not match state size {s.n}")
    absz = np.abs(s.z)
    if float(np.min(absz)) < ORIGIN_GUARD_RATIO * float(np.max(absz)):
        raise OriginError("complex state is inside the origin guard")
    f = s.zdot / s.z
    return s.zdot * f + s.z * (alpha_matrix(c) @ f)


def rhs_generalized(c: CouplingSpec, g: GeneralizedParams, t: float, s: PlaneState) -> np.ndarray:
    """Accelerations of the generalized model with uniform velocity coupling:
    the base law with couplings alpha e^{mu t}, plus mu z', mu = lam + i omega."""
    if c.n != s.n:
        raise ValueError(f"coupling size {c.n} does not match state size {s.n}")
    mu = complex(g.lam, g.omega)
    return _accelerations(_rotated(alpha_matrix(c), mu, t), s.positions, s.velocities, mu=mu)


def rhs_pair(p: PairSpec, s: PairState) -> tuple[np.ndarray, np.ndarray]:
    """Accelerations (plus, minus) of the translation-invariant doubled system.

    Sums obey R''_j = (lam_j + omega_j perp) R'_j and differences obey
    the base law, so each family gets half of (center +/- interaction).
    """
    if p.n != s.n:
        raise ValueError(f"coupling size {p.n} does not match state size {s.n}")
    plus, minus = _pair_kernel(
        alpha_matrix(p.base),
        p.lam + 1j * p.omega,
        _complex_view(s.plus.positions),
        _complex_view(s.minus.positions),
        _complex_view(s.plus.velocities),
        _complex_view(s.minus.velocities),
    )
    return _plane_view(plus), _plane_view(minus)


class _PlaneForce:
    """The base or generalized law, bound to an integrator run's rows.

    `integrate` calls bind(rows, acc) once per run, with the run's
    (7, 4n) stage-input rows (every position, then every velocity, as
    (x, y) pairs) and the (7, 2n) acceleration halves of its derivative
    rows.  bind forms the complex views of every row once and returns
    stage(i, t), which runs the kernel on rows[i] and writes into acc[i]
    in place: no view, reshape or state object per stage.  The bound
    views live in the returned closure, not on the instance, so one
    instance serves consecutive and nested runs.  The arithmetic is that
    of rhs_base and rhs_generalized, so both routes give identical
    numbers.
    """

    pair = False

    def __init__(self, c: CouplingSpec, g: GeneralizedParams | None = None):
        self.n = c.n
        self.alpha = alpha_matrix(c)
        self.mu = 0j if g is None else complex(g.lam, g.omega)

    def bind(self, rows: np.ndarray, acc: np.ndarray):
        n, alpha, mu = self.n, self.alpha, self.mu
        complex_rows = [row.view(np.complex128) for row in rows]
        z = [row[:n] for row in complex_rows]
        zdot = [row[n:] for row in complex_rows]
        out = [a.view(np.complex128) for a in acc]

        def stage(i: int, t: float) -> None:
            _kernel(_rotated(alpha, mu, t), z[i], zdot[i], mu=mu, out=out[i])

        return stage


class _PairForce:
    """The pair law, bound to a run's rows as _PlaneForce is; each half
    of a stage row holds the plus family before the minus family."""

    pair = True

    def __init__(self, p: PairSpec):
        self.n = p.n
        self.alpha = alpha_matrix(p.base)
        self.mu = p.lam + 1j * p.omega

    def bind(self, rows: np.ndarray, acc: np.ndarray):
        n, alpha, mu = self.n, self.alpha, self.mu
        # (zp, zm, vp, vm) and (out_p, out_m) of every row
        z = [tuple(row.view(np.complex128).reshape(4, n)) for row in rows]
        out = [tuple(a.view(np.complex128).reshape(2, n)) for a in acc]

        def stage(i: int, t: float) -> None:
            _pair_kernel(alpha, mu, *z[i], *out[i])

        return stage
