"""Long-time motion classification from the coupling spectrum.

The closed-form solution is built from exp(a_k t) over the eigenvalues
a_k of the coupling matrix, so the sign pattern of the real parts and
the rational structure of the imaginary parts decide the asymptotics:
all real parts negative means every particle freezes (velocities die),
purely imaginary spectra give multiply periodic motion, and a purely
imaginary spectrum with pairwise rational frequency ratios makes every
trajectory close after a common period.  A positive real part drives
double-exponential escape or collapse; a zero eigenvalue admits
self-similar motions.

detect_period confirms periods empirically on sampled trajectories.
A purely imaginary spectrum seeds its candidate period; without one,
the candidates are the local minima of the mean squared state distance
over all lags, built in O(m log m) from one FFT autocorrelation.  Each
candidate is refined and accepted by the mean distance between the
trajectory and its copy shifted by a fraction of a sample, Hermite-
interpolated; the distance is formed from cached differences of the
samples, so refining subtracts no nearly equal states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import InsufficientSpanError
from .exact import row_sums_zero
from .integrate import Trajectory
from .model import CouplingSpec, alpha_matrix

MAX_FREQUENCY_MULTIPLE = 64
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MotionClass:
    """Spectrum flags plus the common period when one exists.

    completely_periodic is the minimal common period (requires
    all_imaginary); row_sums_zero is None when only eigenvalues, not
    the matrix itself, were available.
    """

    all_damped: bool
    has_imaginary: bool
    all_imaginary: bool
    completely_periodic: float | None
    has_zero_mode: bool
    has_unstable: bool
    row_sums_zero: bool | None = None

    def __post_init__(self):
        if self.completely_periodic is not None and not self.all_imaginary:
            raise ValueError("a common period requires a purely imaginary spectrum")
        if self.all_damped and self.has_unstable:
            raise ValueError("all_damped and has_unstable are mutually exclusive")


def classify(eigenvalues, tol: float | None = None) -> MotionClass:
    """Classify a coupling spectrum.

    tol separates "zero" (|a| <= tol) from "purely imaginary"
    (|Re a| <= tol < |a|); it defaults to 1e-9 * max|a_k| with an
    absolute floor of 1e-12.
    """
    w = np.asarray(eigenvalues, dtype=np.complex128).ravel()
    if w.size == 0:
        raise ValueError("need at least one eigenvalue")
    if tol is None:
        tol = max(1e-9 * float(np.max(np.abs(w))), 1e-12)
    zero = np.abs(w) <= tol
    imag = (np.abs(w.real) <= tol) & ~zero
    damped = w.real < -tol
    unstable = w.real > tol
    all_imaginary = bool(np.all(imag))
    period = None
    if all_imaginary:
        period = rational_period(w.imag)
    return MotionClass(
        all_damped=bool(np.all(damped)),
        has_imaginary=bool(np.any(imag)),
        all_imaginary=all_imaginary,
        completely_periodic=period,
        has_zero_mode=bool(np.any(zero)),
        has_unstable=bool(np.any(unstable)),
    )


def classify_couplings(c: CouplingSpec, tol: float | None = None) -> MotionClass:
    """Classify a coupling matrix, filling the row-sum flag as well."""
    w = linalg.eigenvalues(alpha_matrix(c))
    return replace(classify(w, tol), row_sums_zero=row_sums_zero(c))


def rational_period(frequencies, tol: float = 1e-9) -> float | None:
    """Minimal common period 2*pi/w0 of frequencies that are integer
    multiples (magnitude <= 64) of a common w0, or None.

    Ratios are rationalized by continued fractions (best rational
    approximation with denominator <= 64) and accepted when they match
    to the given relative tolerance.
    """
    w = np.abs(np.asarray(frequencies, dtype=np.float64).ravel())
    if w.size == 0:
        return None
    if np.any(w == 0.0):
        raise ValueError("frequencies must be nonzero")
    w = np.sort(w)
    base = float(w[0])
    lcm = 1
    for wk in w:
        ratio = float(wk) / base
        frac = Fraction(ratio).limit_denominator(MAX_FREQUENCY_MULTIPLE)
        if frac.numerator <= 0 or frac.numerator > MAX_FREQUENCY_MULTIPLE:
            return None
        if abs(ratio - float(frac)) > tol * ratio:
            return None
        lcm = lcm * frac.denominator // math.gcd(lcm, frac.denominator)
    w0 = base / lcm
    multiples = [round(float(wk) / w0) for wk in w]
    if any(m < 1 for m in multiples):
        return None
    if any(abs(m * w0 - float(wk)) > tol * float(wk) for m, wk in zip(multiples, w)):
        return None
    g = multiples[0]
    for m in multiples[1:]:
        g = math.gcd(g, m)
    w0 *= g
    if max(m // g for m in multiples) > MAX_FREQUENCY_MULTIPLE:
        return None
    return TWO_PI / w0


def _flatten_states(traj: Trajectory) -> np.ndarray:
    m = len(traj.times)
    return np.concatenate(
        [traj.positions.reshape(m, -1), traj.velocities.reshape(m, -1)], axis=1
    )


def _fd_acceleration(vel: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order finite-difference time derivative of sampled velocities."""
    m = vel.shape[0]
    acc = np.empty_like(vel)
    if m < 5:
        acc[:] = np.gradient(vel, dt, axis=0)
        return acc
    acc[2:-2] = (vel[:-4] - 8.0 * vel[1:-3] + 8.0 * vel[3:-1] - vel[4:]) / (12.0 * dt)
    for i in (0, 1):
        acc[i] = (-3.0 * vel[i] + 4.0 * vel[i + 1] - vel[i + 2]) / (2.0 * dt)
        acc[-1 - i] = (3.0 * vel[-1 - i] - 4.0 * vel[-2 - i] + vel[-3 - i]) / (2.0 * dt)
    return acc


class _ShiftDistance:
    """Mean distance |s(t_i + shift * dt) - s(t_i)| over the samples i < count.

    y holds the sampled states (m, d), positions before velocities, on a
    grid of spacing dt.  The shifted states are cubic Hermite interpolants
    with derivatives ydot: the velocities for the positions, fourth-order
    finite differences of the velocities for the velocities.  All
    points share one fractional offset theta, so the weights are scalars,
    and since the two value weights sum to one, the distance is

        h00 (y[j:j+c] - base) + h01 (y[j+1:j+1+c] - base)
            + h10 dt ydot[j:j+c] + h11 dt ydot[j+1:j+1+c],   base = y[:c],

    which subtracts no nearly equal O(1) states.  Near the end of the
    grid the slices stay in range and extrapolate instead.  `offsets`
    caches the differences y[k:k+c] - base by k; a search on a bracket
    of two samples reads at most four of them, so the caller clears it
    between brackets.  The sum is formed in two preallocated (c, d)
    buffers: fresh temporaries doubled the cost of an evaluation at
    m = 8001.
    """

    def __init__(self, y: np.ndarray, dt: float, count: int):
        vel = y[:, y.shape[1] // 2:]
        self.y = y
        self.ydot = np.concatenate([vel, _fd_acceleration(vel, dt)], axis=1)
        self.dt = dt
        self.count = count
        self.offsets: dict[int, np.ndarray] = {}
        self._sum = np.empty((count, y.shape[1]))
        self._term = np.empty_like(self._sum)

    def _offset(self, k: int) -> np.ndarray:
        d = self.offsets.get(k)
        if d is None:
            d = self.offsets[k] = self.y[k:k + self.count] - self.y[:self.count]
        return d

    def __call__(self, shift: float) -> float:
        c = self.count
        j = min(math.floor(shift), self.y.shape[0] - 1 - c)
        theta = shift - j
        t2 = theta * theta
        t3 = t2 * theta
        d, term = self._sum, self._term
        np.multiply(self._offset(j), 2.0 * t3 - 3.0 * t2 + 1.0, out=d)
        for x, w in (
            (self._offset(j + 1), -2.0 * t3 + 3.0 * t2),
            (self.ydot[j:j + c], (t3 - 2.0 * t2 + theta) * self.dt),
            (self.ydot[j + 1:j + 1 + c], (t3 - t2) * self.dt),
        ):
            d += np.multiply(x, w, out=term)
        return float(np.mean(np.sqrt(np.einsum("ij,ij->i", d, d))))


def _lag_profile(y: np.ndarray, kmax: int) -> np.ndarray:
    """Mean squared distance of y[i + k] - y[i] over i, for lags k = 0..kmax.

    Expands |y[i + k] - y[i]|^2: prefix sums of |y|^2 give the two norm
    terms, and an FFT autocorrelation gives the cross term.  The FFT is
    zero-padded to at least m + kmax points, so no lag wraps around, and
    taken one column at a time, so memory stays at one padded column.
    """
    m = y.shape[0]
    size = 1 << (m + kmax - 1).bit_length()
    cross = np.zeros(kmax + 1)
    for column in y.T:
        f = np.fft.rfft(column, size)
        cross += np.fft.irfft(f.real * f.real + f.imag * f.imag, size)[: kmax + 1]
    sq = np.concatenate([[0.0], np.cumsum(np.sum(y * y, axis=1))])
    k = np.arange(kmax + 1)
    total = (sq[m] - sq[k]) + sq[m - k]
    return np.maximum(total - 2.0 * cross, 0.0) / (m - k)


def _golden_minimize(fn, a: float, b: float, iterations: int = 60) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1 = fn(x1)
    f2 = fn(x2)
    for _ in range(iterations):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = fn(x2)
    return (a + b) / 2.0


def detect_period(traj: Trajectory, tol: float = 1e-6, eigenvalues=None) -> float | None:
    """Smallest period T with mean relative state distance |s(t+T) - s(t)| <= tol.

    Candidates come from rational_period over the nonzero frequencies
    when a purely imaginary (possibly zero-padded) spectrum is
    supplied.  Otherwise they are the local minima of the lag profile,
    the mean squared state distance at each lag up to half the span,
    built from one FFT autocorrelation; the profile is not computed
    when the spectrum seeds a candidate.  Each candidate is refined
    continuously (60 golden-section iterations, 62 evaluations of the
    mean distance to the Hermite-interpolated shifted trajectory, on a
    bracket of one sample either side) before the tolerance test.
    Constant trajectories return None.
    Raises InsufficientSpanError when fewer than 3 samples are
    available or a spectrum-seeded candidate exceeds half the sampled
    span.
    """
    m = len(traj.times)
    if m < 3:
        raise InsufficientSpanError(f"{m} samples cannot confirm any period")
    if traj.times[-1] < traj.times[0]:
        # a decreasing grid holds the same motion: detect on it in time order
        traj = Trajectory(traj.times[::-1], traj.positions[::-1], traj.velocities[::-1], traj.pair)
    dt = float(traj.times[1] - traj.times[0])
    steps = np.diff(traj.times)
    if np.max(np.abs(steps - dt)) > 1e-9 * abs(dt):
        raise ValueError("detect_period requires a uniform time grid")
    span = float(traj.times[-1] - traj.times[0])

    y = _flatten_states(traj)
    scale = float(np.max(np.sqrt(np.sum(y * y, axis=1))))
    if scale == 0.0:
        return None
    drift = np.sqrt(np.sum((y - y[0]) ** 2, axis=1)) / scale
    if float(np.max(drift)) <= tol:
        return None  # standstill, no meaningful period

    kmax = (m - 1) // 2
    candidates: list[float] = []
    if eigenvalues is not None:
        w = np.asarray(eigenvalues, dtype=np.complex128).ravel()
        t_seed = None
        if w.size:
            wtol = max(1e-9 * float(np.max(np.abs(w))), 1e-12)
            freqs = w.imag[np.abs(w) > wtol]
            if np.all(np.abs(w.real) <= wtol) and freqs.size:
                t_seed = rational_period(freqs)
        if t_seed is not None:
            if t_seed > span / 2.0:
                raise InsufficientSpanError(
                    f"candidate period {t_seed:.6g} exceeds half the sampled span {span:.6g}"
                )
            candidates.append(t_seed)
    if not candidates:
        lag = _lag_profile(y, kmax)
        inner = lag[2:kmax]
        minima = (inner < lag[1 : kmax - 1]) & (inner <= lag[3 : kmax + 1])
        candidates = [k * dt for k in (np.flatnonzero(minima) + 2).tolist()]

    distance = _ShiftDistance(y, dt, max(1, m - kmax))

    def mean_distance(period: float) -> float:
        return distance(period / dt) / scale

    for t_cand in sorted(candidates):
        lo = max(dt, t_cand - dt)
        hi = min(span / 2.0, t_cand + dt)
        if hi <= lo:
            continue
        distance.offsets.clear()
        refined = _golden_minimize(mean_distance, lo, hi)
        if mean_distance(refined) <= tol:
            return refined
    return None
