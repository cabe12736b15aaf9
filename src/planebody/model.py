"""Model definition: state containers, coupling data and force evaluators.

The system is a set of point particles in the plane subject to
velocity-dependent forces.  Writing each position as a complex number
z_j = x_j + i y_j, the acceleration is

    z''_j = z'_j^2 / z_j + sum_k alpha_jk z_j z'_k / z_k,
    alpha_jk = beta_jk + i gamma_jk.

The first term is the one-body force (quadratic in the particle's own
velocity, nonlinear in its coordinate); the sum is the pair force (linear
in z_j and in z'_k, nonlinear in z_k).  On plane vectors r_j, v_j, with
perp(x, y) = (-y, x) standing for multiplication by i, the same law is

    f_k = z'_k / z_k = (v_k . r_k + i r_k x v_k) / |r_k|^2,
    g_j + i h_j = sum_k alpha_jk f_k,
    a_j = Re f_j v_j + Im f_j perp(v_j) + g_j r_j + h_j perp(r_j),

one-body force first, pair force second.  rhs_base evaluates this form
in real arithmetic; rhs_complex evaluates the complex one independently.

All evaluators are pure functions of immutable inputs.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import OriginError, PairCollisionError

ORIGIN_GUARD_RATIO = 1e-12


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
    and parsed scenarios always go through it.  `_checked` stores arrays
    that are already known to be finite float64 of shape (n, 2), with no
    copy; its only callers are
      - the closed-form grid (`_StateGrid`, returned by
        `exact.exact_states` after `_eval_grid` has checked every z and
        z'), one sample at a time as samples are read;
      - the pair grid (`exact._pair_states`), after the same check and
        a finiteness check of the centre part;
      - the integrator's stages (`integrate`), whose stage vectors are
        isfinite-checked before they are wrapped.
    Pairs of such states go through the PairState constructor, which
    keeps its exact-coincidence check.
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


class _StateGrid(Sequence):
    """Read-only sequence of PlaneStates over two checked (m, n, 2) arrays.

    Sample i is a PlaneState._checked view of positions[i] and
    velocities[i], made when it is read, so a grid of m samples holds two
    arrays rather than m objects.  Indexing, negative indices, slices
    and iteration behave as on a list of those states.
    """

    __slots__ = ("positions", "velocities")

    def __init__(self, positions: np.ndarray, velocities: np.ndarray):
        positions.setflags(write=False)
        velocities.setflags(write=False)
        self.positions = positions
        self.velocities = velocities

    def __len__(self) -> int:
        return self.positions.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _StateGrid(self.positions[i], self.velocities[i])
        return PlaneState._checked(self.positions[i], self.velocities[i])


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

    @property
    def n(self) -> int:
        return self.plus.n


def check_origin_guard(positions: np.ndarray, error=OriginError, r2=None) -> None:
    """Reject states with a particle within 1e-12 of the origin, relative
    to the largest particle radius at the same instant.  r2, when given,
    holds the squared radii the caller already computed."""
    if r2 is None:
        r2 = np.sum(positions * positions, axis=1)
    radii = np.sqrt(r2)
    rmin = float(np.min(radii))
    rmax = float(np.max(radii))
    if rmin == 0.0 or rmin < ORIGIN_GUARD_RATIO * rmax:
        j = int(np.argmin(radii))
        raise error(
            f"particle {j + 1} radius {rmin:.3e} is inside the origin guard "
            f"(scale {rmax:.3e})"
        )


def to_complex(s: PlaneState) -> ComplexState:
    """Map (n, 2) vectors to complex coordinates; rejects guarded states."""
    check_origin_guard(s.positions)
    return ComplexState(
        s.positions[:, 0] + 1j * s.positions[:, 1],
        s.velocities[:, 0] + 1j * s.velocities[:, 1],
    )


def from_complex(c: ComplexState) -> PlaneState:
    return PlaneState(
        np.stack([c.z.real, c.z.imag], axis=1),
        np.stack([c.zdot.real, c.zdot.imag], axis=1),
    )


def _accelerations(beta, gamma, r, v, error=OriginError) -> np.ndarray:
    """Base-law accelerations for positions r and velocities v: the scalar
    form of the module docstring, written out per component.  The origin
    guard shares the squared radii and raises `error`."""
    x, y = r[:, 0], r[:, 1]
    vx, vy = v[:, 0], v[:, 1]
    r2 = x * x + y * y
    check_origin_guard(r, error, r2=r2)
    f_re = (x * vx + y * vy) / r2
    f_im = (x * vy - y * vx) / r2
    g = beta @ f_re - gamma @ f_im
    h = gamma @ f_re + beta @ f_im
    acc = np.empty_like(r)
    acc[:, 0] = f_re * vx - f_im * vy + g * x - h * y
    acc[:, 1] = f_re * vy + f_im * vx + g * y + h * x
    return acc


def rhs_base(c: CouplingSpec, s: PlaneState) -> np.ndarray:
    """Accelerations (n, 2) of the autonomous model, in real arithmetic."""
    if c.n != s.n:
        raise ValueError(f"coupling size {c.n} does not match state size {s.n}")
    return _accelerations(c.beta, c.gamma, s.positions, s.velocities)


def rhs_complex(c: CouplingSpec, s: ComplexState) -> np.ndarray:
    """Complex accelerations z''_j; independent route used to cross-check rhs_base."""
    if c.n != s.n:
        raise ValueError(f"coupling size {c.n} does not match state size {s.n}")
    absz = np.abs(s.z)
    if float(np.min(absz)) < ORIGIN_GUARD_RATIO * float(np.max(absz)):
        raise OriginError("complex state is inside the origin guard")
    f = s.zdot / s.z
    return s.zdot * f + s.z * (alpha_matrix(c) @ f)


def couplings_at(c: CouplingSpec, g: GeneralizedParams, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Rotating, exponentially scaled couplings of the generalized model."""
    cw = np.cos(g.omega * t)
    sw = np.sin(g.omega * t)
    el = np.exp(g.lam * t)
    beta_t = (c.beta * cw - c.gamma * sw) * el
    gamma_t = (c.gamma * cw + c.beta * sw) * el
    return beta_t, gamma_t


def rhs_generalized(c: CouplingSpec, g: GeneralizedParams, t: float, s: PlaneState) -> np.ndarray:
    """Accelerations of the generalized model with uniform velocity coupling."""
    if g.lam == 0.0 and g.omega == 0.0:
        return rhs_base(c, s)
    if c.n != s.n:
        raise ValueError(f"coupling size {c.n} does not match state size {s.n}")
    acc = _accelerations(*couplings_at(c, g, t), s.positions, s.velocities)
    return acc + g.lam * s.velocities + g.omega * perp(s.velocities)


def rhs_pair(p: PairSpec, s: PairState) -> tuple[np.ndarray, np.ndarray]:
    """Accelerations (plus, minus) of the translation-invariant doubled system.

    Sums obey R''_j = (lam_j + omega_j perp) R'_j and differences obey
    the base law, so each family gets half of (center +/- interaction).
    """
    if p.n != s.n:
        raise ValueError(f"coupling size {p.n} does not match state size {s.n}")
    r = s.plus.positions - s.minus.positions
    v = s.plus.velocities - s.minus.velocities
    interaction = _accelerations(p.base.beta, p.base.gamma, r, v, PairCollisionError)
    rdot_sum = s.plus.velocities + s.minus.velocities
    center = p.lam[:, None] * rdot_sum + p.omega[:, None] * perp(rdot_sum)
    return 0.5 * (center + interaction), 0.5 * (center - interaction)
