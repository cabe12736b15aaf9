"""Closed-form solution engine.

The log-derivatives f_j = z'_j / z_j satisfy the linear system
f' = A f with A = beta + i*gamma, so

    f_j(t) = sum_k phi_jk exp(a_k t),
    z_j(t) = z_j(0) exp( sum_k phi_jk t phi1(a_k t) ),

where a_k are the eigenvalues of A, the columns of phi are scaled
eigenvectors, and phi1(x) = (exp(x) - 1)/x continued through x = 0.
Row sums of phi reproduce f_j(0).

The generalized model (uniform velocity coupling lam + i*omega and
rotating couplings) reduces to the autonomous one through the complex
time substitution tau(t) = t phi1((lam + i*omega) t); evaluators for
pair sums and for pure similarity motions round out the module.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DefectiveMatrixError, BlowupError, OriginError, PairCollisionError
from .integrate import Trajectory
from .model import (
    ComplexState,
    CouplingSpec,
    GeneralizedParams,
    PairSpec,
    PairState,
    PlaneState,
    _complex_view,
    _frozen_array,
    _plane_view,
    alpha_matrix,
    check_origin_guard,
)

PHI1_SERIES_RADIUS = 1e-4
EXPONENT_LIMIT = 700.0
TWO_PI = 2.0 * math.pi

# residual gate for the degenerate-basis path in spectral_solve
_REPRESENTATION_RTOL = 1e-8
# eigenvectors of one defective eigenvalue, split by LAPACK, are parallel to
# about eps**(1/k) for a k-fold block; this treats them as dependent up to k = 4
_DEPENDENT_RTOL = 1e-3


def _cexp(x: np.ndarray) -> np.ndarray:
    """exp(x) for a complex array, from the real exp, cos and sin, which
    numpy vectorizes and its complex exp does not."""
    e = np.exp(x.real)
    out = np.empty_like(x)
    out.real = e * np.cos(x.imag)
    out.imag = e * np.sin(x.imag)
    return out


def _phi1_exp(x: np.ndarray):
    """phi1(x) and exp(x) for a complex array x, from one exp(Re x),
    cos(Im x) and sin(Im x); exp(x) is _cexp(x) bit for bit.

    Outside the series radius phi1 is (exp(x) - 1) / x, with exp(x) - 1
    formed without cancellation near zero; the entries inside the radius,
    if there are any, are left out of the division and take the series.
    """
    a, b = x.real, x.imag
    e, cos, sin = np.exp(a), np.cos(b), np.sin(b)
    ex = np.empty_like(x)
    ex.real = e * cos
    ex.imag = e * sin
    em1 = (np.expm1(a) * cos - 2.0 * np.sin(b / 2.0) ** 2) + 1j * ex.imag
    small = np.abs(x) < PHI1_SERIES_RADIUS
    if not small.any():
        return em1 / x, ex
    phi = np.divide(em1, x, out=np.empty_like(x), where=~small)
    xs = x[small]
    phi[small] = 1.0 + xs * (1.0 / 2.0 + xs * (1.0 / 6.0 + xs * (1.0 / 24.0 + xs / 120.0)))
    return phi, ex


def phi1(x):
    """(exp(x) - 1) / x, entire in x, with phi1(0) = 1.

    Accepts real or complex scalars and arrays.  Inside |x| < 1e-4 the
    truncated series 1 + x/2 + x^2/6 + x^3/24 + x^4/120 is used; the
    two branches agree to within a few ulp at the switch.
    """
    arr = np.asarray(x, dtype=np.complex128)
    out = _phi1_exp(np.atleast_1d(arr))[0].reshape(arr.shape)
    if np.isscalar(x) or np.ndim(x) == 0:
        return complex(out[()])
    return out


@dataclass(frozen=True)
class SpectralSolution:
    """Spectrum, coefficient matrix (column k scales eigenvector k), and
    z0, the positions at t0; evaluators read times t, with s = t - t0."""

    eigenvalues: np.ndarray
    coefficients: np.ndarray
    z0: np.ndarray
    t0: float = 0.0

    @property
    def n(self) -> int:
        return self.z0.shape[0]


def _rank(m: np.ndarray) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > _DEPENDENT_RTOL * s[0]))


def _clusters(w: np.ndarray, v: np.ndarray, ctol: float) -> list[list[int]]:
    """Group eigenvalue indices that coincide (within ctol) or whose
    eigenvectors are numerically dependent (the block loses rank)."""
    clusters: list[list[int]] = []
    for k in range(w.shape[0]):
        for c in clusters:
            if np.min(np.abs(w[c] - w[k])) <= ctol or _rank(v[:, c + [k]]) == _rank(v[:, c]):
                c.append(k)
                break
        else:
            clusters.append([k])
    return clusters


def _degenerate_solve(a: np.ndarray, w: np.ndarray, v: np.ndarray, f0, cond):
    """Spectral representation when the eigenbasis is numerically defective.

    LAPACK splits a k-fold defective eigenvalue by about eps**(1/k) and
    returns nearly parallel eigenvectors for it, so eigenvalues are
    clustered by coincidence or by eigenvector dependence, not by their
    gap.  Each cluster takes its mean eigenvalue, which is accurate to
    rounding, and its representatives span the numerical null space of
    A - mean*I.  The representation is accepted only when f(0) lies in
    the span of all representatives, which keeps the evaluated f(t) an
    actual solution of f' = A f.  Otherwise the defect is fatal.
    Returns the eigenvalues and coefficients.
    """
    n = a.shape[0]
    tol = _REPRESENTATION_RTOL * float(np.linalg.norm(a))
    w = w.copy()
    columns: list[int] = []
    blocks = []
    for c in _clusters(w, v, tol):
        lam = np.mean(w[c])
        w[c] = lam
        _, s, vh = np.linalg.svd(a - lam * np.eye(n))
        r = min(len(c), int(np.sum(s <= tol)))
        columns += c[:r]
        blocks.append(np.conj(vh[n - r:]).T)
    reps = np.hstack(blocks)
    f0norm = float(np.linalg.norm(f0))
    coeffs = np.zeros((n, n), dtype=np.complex128)
    if f0norm > 0.0:
        y = np.linalg.pinv(reps) @ f0  # least squares by the SVD routine used above
        residual = float(np.linalg.norm(reps @ y - f0))
        if residual > _REPRESENTATION_RTOL * f0norm:
            raise DefectiveMatrixError(
                "coupling matrix is numerically defective (condition estimate "
                f"{cond:.3e}) and the initial log-derivative vector is not in "
                "the span of its eigenvectors "
                f"(representation residual {residual / f0norm:.3e})",
                condition_estimate=cond,
            )
        coeffs[:, columns] = reps * y
    return w, coeffs


def spectral_solve(c: CouplingSpec, initial: ComplexState, t0: float = 0.0) -> SpectralSolution:
    """Expand the initial data in the eigenbasis of the coupling matrix.

    Solves V coeff = z'(0)/z(0) so that the row sums of the coefficient
    matrix reproduce the initial log-derivatives.  A defective coupling
    matrix is accepted only when that vector is representable in the
    span of its eigenvectors (e.g. similarity initial data on a
    rank-deficient matrix); anything else raises DefectiveMatrixError.
    The initial data hold at t0; initial log-derivatives that overflow
    raise BlowupError at t0.
    """
    if c.n != initial.n:
        raise ValueError(f"coupling size {c.n} does not match state size {initial.n}")
    check_origin_guard(None, r2=(initial.z * initial.z.conj()).real)
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        f0 = initial.zdot / initial.z
    finite = np.isfinite(f0)
    if not finite.all():
        j = int(np.argmin(finite))
        raise BlowupError(f"particle {j + 1} log-derivative z'/z overflows at t = {t0}", time=t0)
    a = alpha_matrix(c)
    w, v, cond = linalg._eig_raw(a)
    if cond > linalg.DEFECT_THRESHOLD:
        w, coeffs = _degenerate_solve(a, w, v, f0, cond)
    else:  # v is the basis _eig_raw judged, cond(v) <= 1e8
        coeffs = v * np.linalg.solve(v, f0)
    return SpectralSolution(eigenvalues=w, coefficients=coeffs, z0=initial.z.copy(), t0=t0)


def eval_f(sol: SpectralSolution, t) -> np.ndarray:
    """Log-derivatives f(t); t may be real or complex."""
    return sol.coefficients @ np.exp(sol.eigenvalues * (t - sol.t0))


def eval_z(sol: SpectralSolution, t) -> ComplexState:
    """Closed-form state at time t (real, or complex for time substitution).

    Raises BlowupError when any log-magnitude exponent leaves [-700, 700]
    or stops being finite, which is where the double-exponential escape
    (or collapse onto the origin) stops being representable in double
    precision, and when z or z' overflows inside that range.
    """
    t = np.array([t])
    z, zdot = _eval_grid(sol, t - sol.t0, t)
    return ComplexState(z[:, 0], zdot[:, 0])


def _eval_grid(sol: SpectralSolution, s: np.ndarray, t: np.ndarray, dsdt=None):
    """z and z' as (n, m) arrays at the (possibly substituted) times s.

    t holds the physical times that a blow-up reports, and dsdt, when
    given, the chain-rule factor ds/dt of the velocity.  Every sample is
    checked, and the error is the one of the first failing sample: an
    exponent outside [-700, 700] or not finite, a z or z' that overflows
    (BlowupError), or a z that underflows to the origin (OriginError).
    """
    exponent, z, zdot = _grid_values(sol, s, dsdt)
    k = _first_failure(exponent, z, zdot)
    if k < z.shape[1]:
        _raise_failure(k, exponent, z, zdot, t)
    return z, zdot


def _grid_values(sol: SpectralSolution, s: np.ndarray, dsdt=None):
    """Exponent, z and z' as (n, m) arrays, not yet checked."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked by the callers
        phi, eat = _phi1_exp(np.multiply.outer(sol.eigenvalues, s))
        exponent = sol.coefficients @ (s * phi)
        z = sol.z0[:, None] * _cexp(exponent)
        zdot = (sol.coefficients @ eat) * z
        if dsdt is not None:
            zdot = zdot * dsdt
    return exponent, z, zdot


def _first(bad: np.ndarray) -> int:
    """Index of the first true entry of a boolean vector, or its length."""
    return int(np.argmax(bad)) if bad.any() else bad.size


def _first_failure(exponent, z, zdot) -> int:
    """Index of the first sample that fails the checks of _eval_grid, or m."""
    # a non-finite exponent, z or dsdt leaves z' non-finite as well
    ok = ((np.abs(exponent.real) <= EXPONENT_LIMIT) & np.isfinite(zdot) & (z != 0.0)).all(axis=0)
    return _first(~ok)


def _raise_failure(k: int, exponent, z, zdot, t) -> None:
    """Raise the error of failing sample k, reporting the time t[k]."""
    re = exponent.real
    tk = t[k].item()
    if not (np.all(np.abs(re[:, k]) <= EXPONENT_LIMIT) and np.all(np.isfinite(exponent.imag[:, k]))):
        j = int(np.argmax(np.abs(re[:, k])))  # the first NaN, if any
        kind = "escape" if re[j, k] > 0 else "collapse" if re[j, k] < 0 else "overflow"
        raise BlowupError(
            f"particle {j + 1} exponent {re[j, k]:.6g} exceeds the "
            f"representable range at t = {tk} (double-exponential {kind})",
            time=float(np.real(tk)),
        )
    finite = np.isfinite(zdot[:, k])
    if not np.all(finite):
        j = int(np.argmin(finite))
        what = "velocity" if np.isfinite(z[j, k]) else "position"
        raise BlowupError(
            f"particle {j + 1} {what} overflows at t = {tk} "
            f"(exponent {re[j, k]:.6g}, double-exponential overflow)",
            time=float(np.real(tk)),
        )
    j = int(np.argmin(z[:, k] != 0.0))
    msg = f"particle {j + 1} position underflows to the origin at t = {tk}"
    raise OriginError(msg, time=float(np.real(tk)))


def _reduced_phase(x: np.ndarray) -> np.ndarray:
    """math.remainder(x, 2 pi) elementwise, to the last bit.

    np.fmod is exact, and so is the one shift by 2 pi that brings its
    result into [-pi, pi] (Sterbenz's lemma); an exact half-period tie
    is left to math.remainder, which rounds it to the even multiple.
    """
    r = np.fmod(x, TWO_PI)
    r = np.where(r > math.pi, r - TWO_PI, np.where(r < -math.pi, r + TWO_PI, r))
    ties = np.abs(r) == math.pi
    if np.any(ties):
        r[ties] = [math.remainder(v, TWO_PI) for v in x[ties]]
    return r


def tau_map(g: GeneralizedParams, t):
    """Complex time substitution tau(t) = t phi1((lam + i omega) t).

    t may be a scalar (complex result) or an array of times.  For
    lam = 0 the phase omega*t is reduced modulo 2*pi first, so tau is
    periodic to the last bit and tau(2*pi/omega) is exactly zero
    whenever omega*t rounds onto a multiple of 2*pi.
    """
    t = np.asarray(t, dtype=np.float64)
    tau = _time_substitution(g, np.atleast_1d(t))[0].reshape(t.shape)
    return complex(tau) if t.ndim == 0 else tau


def _time_substitution(g: GeneralizedParams, t: np.ndarray):
    """tau(t) and dtau/dt = exp((lam + i omega) t) on an array of times,
    from one reduced phase when lam = 0 (see tau_map)."""
    if g.lam == 0.0 and g.omega != 0.0:
        theta = _reduced_phase(g.omega * t)
        return (theta / g.omega) * phi1(1j * theta), np.cos(theta) + 1j * np.sin(theta)
    phi, rate = _phi1_exp(complex(g.lam, g.omega) * t)
    return t * phi, rate


def _generalized_grid(sol: SpectralSolution, g: GeneralizedParams | None, t: np.ndarray):
    """z and z' as (n, m) arrays at the times t, of the base model (g None,
    or lam = omega = 0) or the generalized one with sol's couplings at
    sol.t0; evaluated at s = t - t0, a failure reports its t (_eval_grid)."""
    s = t - sol.t0
    if g is None or (g.lam == 0.0 and g.omega == 0.0):
        return _eval_grid(sol, s, t)
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _eval_grid
        tau, rate = _time_substitution(g, s)
    return _eval_grid(sol, tau, t, rate)


def eval_generalized(sol: SpectralSolution, g: GeneralizedParams, t: float) -> ComplexState:
    """State of the generalized model: base solution at tau(t), with the
    velocity picking up the chain-rule factor dtau/dt = exp((lam+i omega) t).
    A blow-up reports the physical time t, not tau(t)."""
    z, zdot = _generalized_grid(sol, g, np.array([t]))
    return ComplexState(z[:, 0], zdot[:, 0])


@dataclass(frozen=True)
class CenterSolution:
    """Initial data and rates mu_j = lam_j + i omega_j for the pair sums."""

    z0: np.ndarray
    zdot0: np.ndarray
    mu: np.ndarray


def eval_center(cs: CenterSolution, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Pair-sum coordinates: Z_j(t) = Z_j(0) + Z'_j(0) t phi1(mu_j t).

    The derivative is Z'_j(0) exp(mu_j t), so both initial conditions
    (value and slope) are honored, including mu_j = 0.
    """
    z, zdot = _center_grid(cs, np.array([t], dtype=np.float64))
    return z[:, 0], zdot[:, 0]


def _center_grid(cs: CenterSolution, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eval_center over an array of times, as unchecked (n, m) arrays."""
    mt = np.multiply.outer(cs.mu, t)
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _pair_states
        phi, emt = _phi1_exp(mt)
        z = cs.z0[:, None] + cs.zdot0[:, None] * (t * phi)
        zdot = cs.zdot0[:, None] * emt
    return z, zdot


@dataclass(frozen=True)
class PairSolution:
    """Difference spectral data plus center data for the doubled system."""

    relative: SpectralSolution
    center: CenterSolution


def pair_solve(p: PairSpec, initial: PairState, t0: float = 0.0) -> PairSolution:
    """Spectral data of the differences and center data of the sums, of
    initial data that hold at t0.

    Raises BlowupError (at t0) when a difference or sum of the two
    families overflows."""
    zp, zm = np.split(_complex_view(initial.positions), 2)
    vp, vm = np.split(_complex_view(initial.velocities), 2)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        diffs = zp - zm, vp - vm
        sums = zp + zm, vp + vm
    if not all(np.isfinite(a).all() for a in (*diffs, *sums)):
        raise BlowupError(f"a plus/minus difference or sum overflows at t = {t0}", time=t0)
    rel = spectral_solve(p.base, ComplexState(*diffs), t0)
    center = CenterSolution(z0=sums[0], zdot0=sums[1], mu=p.lam + 1j * p.omega)
    return PairSolution(relative=rel, center=center)


def eval_pair_solution(ps: PairSolution, t: float) -> PairState:
    """Closed-form state of the doubled system at time t."""
    return _pair_states(ps, np.array([t], dtype=np.float64))[0]


def _pair_states(ps: PairSolution, t) -> Trajectory:
    """Closed-form states of the doubled system at the strictly monotone
    times t, as the pair Trajectory of the 2n particles, plus family
    first, evaluated at s = t - ps.relative.t0; a failure reports its t.

    The relative part is one grid of _eval_grid's values and the centre
    part one (n, m) expression.  Samples are checked in time order, and
    the error is the one of the first failing sample: the relative part's
    blow-up (as in _eval_grid), then an overflow of the families
    (BlowupError), then an exact plus/minus coincidence
    (PairCollisionError).
    """
    t = np.asarray(t, dtype=np.float64)
    s = t - ps.relative.t0
    exponent, rel, reldot = _grid_values(ps.relative, s)
    bad = _first_failure(exponent, rel, reldot)
    zsum, zdotsum = _center_grid(ps.center, s)
    with np.errstate(over="ignore", invalid="ignore"):
        z = 0.5 * np.concatenate([zsum + rel, zsum - rel])
        zdot = 0.5 * np.concatenate([zdotsum + reldot, zdotsum - reldot])
    overflow = _first(~(np.isfinite(z) & np.isfinite(zdot)).all(axis=0))
    n = rel.shape[0]
    coincide = _first((z[:n] == z[n:]).any(axis=0))
    if coincide < min(bad, overflow):
        tk = t[coincide].item()
        raise PairCollisionError(f"a plus/minus pair coincides exactly at t = {tk}", time=tk)
    if overflow < bad:
        tk = t[overflow].item()
        raise BlowupError(f"a plus/minus state overflows at t = {tk}", time=tk)
    if bad < t.size:
        _raise_failure(bad, exponent, rel, reldot, t)
    return Trajectory(t, *_state_grid(z, zdot, pair=True))


def eval_pair(p: PairSpec, initial: PairState, t: float) -> PairState:
    """Closed-form state of the doubled system at time t."""
    return eval_pair_solution(pair_solve(p, initial), t)


@dataclass(frozen=True)
class SimilaritySpec:
    """Self-similar motion: every particle follows r_j(0) scaled and rotated.

    Valid for coupling matrices whose rows sum to zero, because then the
    uniform log-derivative vector f_j = eta is a fixed point of f' = A f.
    """

    eta: complex
    r0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r0", _frozen_array(self.r0, (None, 2), "r0"))
        object.__setattr__(self, "eta", complex(self.eta))


def similarity_trajectory(spec: SimilaritySpec, t: float) -> PlaneState:
    """State of the similarity motion z(t) = e^{eta t} z(0), z'(t) = eta z(t)."""
    z = cmath.exp(spec.eta * t) * _complex_view(spec.r0)
    return PlaneState(_plane_view(z), _plane_view(spec.eta * z))


def row_sums_zero(c: CouplingSpec) -> bool:
    """True when every row of beta + i gamma sums to zero (similarity
    condition), to 1e-9 of the largest coupling magnitude, at least 1e-12.

    Couplings of magnitude one or more are first scaled down by a power
    of two, which is exact and keeps the sums finite for any finite input.
    """
    big = max(float(np.max(np.abs(c.beta))), float(np.max(np.abs(c.gamma))))
    unit = 2.0 ** -max(math.frexp(big)[1], 0)
    a = alpha_matrix(c) * unit
    sums = np.abs(a @ np.ones(c.n))
    scale = float(np.max(np.abs(a)))
    return bool(np.max(sums) <= max(1e-9 * scale, 1e-12 * unit))


def exact_states(sol: SpectralSolution, times, g: GeneralizedParams | None = None) -> Trajectory:
    """Real-coordinate states over a strictly monotone grid of times
    (base or generalized model), evaluated at the times since sol.t0,
    as the Trajectory of those times.

    The whole grid is evaluated as one (n, m) array expression; a
    blow-up anywhere on it raises for the first failing sample.  Having
    checked every value there, the Trajectory adopts the two frozen
    (m, n, 2) arrays without a copy: it makes no object per sample, and
    a sample read from it is a read-only PlaneState view, not a copy
    checked again.
    """
    t = np.asarray(times, dtype=np.float64)
    return Trajectory(t, *_state_grid(*_generalized_grid(sol, g, t)))


def _state_grid(z: np.ndarray, zdot: np.ndarray, pair: bool = False):
    """The checked (p, m) complex grids z and z' as frozen, C-ordered
    (m, p, 2) state arrays, followed by the pair flag: the arguments of
    a Trajectory after its times."""
    pos, vel = (_plane_view(np.ascontiguousarray(a.T)) for a in (z, zdot))
    pos.setflags(write=False)
    vel.setflags(write=False)
    return pos, vel, pair
