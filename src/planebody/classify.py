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
over all lags, built in O(m log m) from one FFT autocorrelation.  The
trajectory is compared with its copy shifted by a fraction of a sample,
Hermite-interpolated.  On each sample interval the summed squared
distance is a degree-6 polynomial in that fraction, so each candidate
is refined in closed form to the shift that minimises the mean squared
distance, as the lag profile does over whole lags, and accepted by the
mean distance at that shift.  Both are formed from offset differences
of the samples, so refining subtracts no nearly equal states.
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
FREQUENCY_RTOL = 1e-9
PERIOD_RTOL = 1e-6
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


def _spectral_masks(w: np.ndarray, tol: float | None = None):
    """classify's tolerance for spectrum w, which may be empty, with the
    zero and purely imaginary masks it gives; an eigenvalue with an
    infinite part is in neither mask."""
    mag = np.abs(w)
    if tol is None:
        big = float(mag.max(initial=0.0))
        if not math.isfinite(big):
            big = float(mag.max(initial=0.0, where=np.isfinite(mag)))
        tol = max(1e-9 * big, 1e-12)
    zero = mag <= tol
    return tol, zero, (np.abs(w.real) <= tol) & ~zero & np.isfinite(mag)


def classify(eigenvalues, tol: float | None = None) -> MotionClass:
    """Classify a coupling spectrum.

    tol separates "zero" (|a| <= tol) from "purely imaginary"
    (|Re a| <= tol < |a|); it defaults to 1e-9 * max|a_k| over the
    finite eigenvalues, with an absolute floor of 1e-12: an eigenvalue
    past the float64 range has an infinite part and sets no scale.
    """
    w = np.asarray(eigenvalues, dtype=np.complex128).ravel()
    if w.size == 0:
        raise ValueError("need at least one eigenvalue")
    tol, zero, imag = _spectral_masks(w, tol)
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


def classify_couplings(c: CouplingSpec) -> MotionClass:
    """Classify a coupling matrix, filling the row-sum flag as well."""
    w = linalg.eigenvalues(alpha_matrix(c))
    return replace(classify(w), row_sums_zero=row_sums_zero(c))


def rational_period(frequencies) -> float | None:
    """Minimal common period 2*pi/w0 of frequencies that are integer
    multiples (magnitude <= 64) of a common w0, or None.

    Ratios are rationalized by continued fractions (best rational
    approximation with denominator <= 64) and accepted when they match
    to the relative tolerance FREQUENCY_RTOL.
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
        if abs(ratio - float(frac)) > FREQUENCY_RTOL * ratio:
            return None
        lcm = lcm * frac.denominator // math.gcd(lcm, frac.denominator)
    w0 = base / lcm
    multiples = [round(float(wk) / w0) for wk in w]
    if any(m < 1 for m in multiples):
        return None
    if any(abs(m * w0 - float(wk)) > FREQUENCY_RTOL * float(wk) for m, wk in zip(multiples, w)):
        return None
    g = multiples[0]
    for m in multiples[1:]:
        g = math.gcd(g, m)
    w0 *= g
    if max(m // g for m in multiples) > MAX_FREQUENCY_MULTIPLE:
        return None
    return TWO_PI / w0


def _flatten_states(traj: Trajectory) -> np.ndarray:
    """(m, d) rows of every position, then every velocity: one copy of
    the trajectory's arrays, which may be strided views of a grid."""
    m, p = traj.positions.shape[:2]
    y = np.empty((m, 2, p, 2))
    y[:, 0] = traj.positions
    y[:, 1] = traj.velocities
    return y.reshape(m, -1)


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
    finite differences of the velocities for the velocities.  They are
    stored as slopes, slope = dt ydot, so no power of 1/dt is formed and
    a tiny time unit cannot overflow them or their Gram matrix.  All
    points share one fractional offset theta, so the weights are scalars,
    and since the two value weights sum to one, the distance is

        h00 (y[j:j+c] - base) + h01 (y[j+1:j+1+c] - base)
            + h10 slope[j:j+c] + h11 slope[j+1:j+1+c],   base = y[:c],

    which subtracts no nearly equal O(1) states.  Near the end of the
    grid the slices stay in range and extrapolate instead.  The offset
    differences y[k:k+c] - base and the sum are formed in two
    preallocated (c, d) buffers, which argmin reuses as well: fresh
    temporaries doubled the cost of an evaluation at m = 8001.
    """

    # Row k holds the theta^k coefficients of the Hermite weights of
    # (y[j:j+c] - base, y[j+1:j+1+c] - base, slope[j:j+c], slope[j+1:j+1+c]).
    _HERMITE = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [-3.0, 3.0, -2.0, -1.0],
        [2.0, -2.0, 1.0, 1.0],
    ])
    # the power of theta that entry [p, q] of a flattened 4x4 matrix multiplies: p + q
    _POWER = np.add.outer(np.arange(4), np.arange(4)).ravel()

    def __init__(self, y: np.ndarray, dt: float, count: int):
        vel = y[:, y.shape[1] // 2:]
        self.y = y
        # dt times the finite-difference acceleration is the difference at unit spacing
        self.slope = np.concatenate([dt * vel, _fd_acceleration(vel, 1.0)], axis=1)
        self.count = count
        self._sum = np.empty((count, y.shape[1]))
        self._term = np.empty_like(self._sum)

    def __call__(self, shift: float) -> float:
        c = self.count
        j = min(math.floor(shift), self.y.shape[0] - 1 - c)
        theta = shift - j
        w = np.array([1.0, theta, theta * theta, theta**3]) @ self._HERMITE
        y, d, term = self.y, self._sum, self._term
        np.subtract(y[j:j + c], y[:c], out=d)
        d *= w[0]
        np.subtract(y[j + 1:j + 1 + c], y[:c], out=term)
        d += np.multiply(term, w[1], out=term)
        d += np.multiply(self.slope[j:j + c], w[2], out=term)
        d += np.multiply(self.slope[j + 1:j + 1 + c], w[3], out=term)
        return float(np.mean(np.sqrt(np.einsum("ij,ij->i", d, d))))

    def argmin(self, lo: float, hi: float) -> float:
        """Shift in [lo, hi] that minimises the mean squared distance.

        On interval j the difference is P0 + P1 theta + P2 theta^2 +
        P3 theta^3 with P = _HERMITE @ A, where A holds the four arrays
        of __call__, so its summed square is the sum of
        (H G H^T)[p, q] theta^(p+q) with G the Gram matrix of A: ten dot
        products on contiguous views.  Each interval the bracket touches,
        clamped as in __call__ so that the last one extrapolates,
        contributes its ends and the real parts of the roots of that
        degree-6 polynomial's derivative, clipped to the interval; the
        least value over all of them wins.
        """
        c = self.count
        y, base, h = self.y, self.y[:c], self._HERMITE
        jmax = y.shape[0] - 1 - c
        best, best_shift = math.inf, lo
        j = min(math.floor(lo), jmax)
        o0, o1 = self._sum, self._term
        np.subtract(y[j:j + c], base, out=o1)
        while True:
            o0, o1 = o1, o0  # the right offset of interval j - 1 is the left one of j
            np.subtract(y[j + 1:j + 1 + c], base, out=o1)
            flat = [x.ravel() for x in (o0, o1, self.slope[j:j + c], self.slope[j + 1:j + 1 + c])]
            g = np.empty((4, 4))
            for p in range(4):
                for q in range(p, 4):
                    g[p, q] = g[q, p] = flat[p] @ flat[q]
            poly = np.bincount(self._POWER, (h @ g @ h.T).ravel())[::-1]
            a = max(lo - j, 0.0)
            b = hi - j if j == jmax else min(hi - j, 1.0)
            theta = np.concatenate([[a, b], np.clip(np.roots(np.polyder(poly)).real, a, b)])
            f = np.polyval(poly, theta)
            i = int(np.argmin(f))
            if f[i] < best:
                best, best_shift = float(f[i]), j + float(theta[i])
            if j == jmax or hi <= j + 1:
                return best_shift
            j += 1


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


def detect_period(traj: Trajectory, *, eigenvalues=None) -> float | None:
    """Smallest period T with mean relative state distance
    |s(t+T) - s(t)| <= PERIOD_RTOL.

    Candidates come from rational_period over the nonzero frequencies
    when a purely imaginary (possibly zero-padded) spectrum is
    supplied, judged by classify's default tolerance.  Otherwise they
    are the local minima of the lag profile, the mean squared state
    distance at each lag up to half the span, built from one FFT
    autocorrelation; the profile is not computed when the spectrum
    seeds a candidate.  Each candidate is refined
    continuously, on a bracket of one sample either side, to the shift
    that minimises the mean squared distance to the Hermite-interpolated
    shifted trajectory: in closed form, from the ends and the roots of
    the derivative of one degree-6 polynomial per sample interval.  The
    tolerance test reads the mean distance at that shift, one evaluation
    per candidate.  The states are first scaled by a power of two, which
    is exact, so any finite magnitude is detected alike.
    Constant and non-finite trajectories return None.
    Raises InsufficientSpanError when fewer than 3 samples are
    available or a spectrum-seeded candidate exceeds half the sampled
    span.
    """
    m = len(traj.times)
    if m < 3:
        raise InsufficientSpanError(f"{m} samples cannot confirm any period")
    if traj.times[-1] < traj.times[0]:
        # a decreasing grid holds the same motion: detect on it in time order
        traj = traj[::-1]
    dt = float(traj.times[1] - traj.times[0])
    steps = np.diff(traj.times)
    if np.max(np.abs(steps - dt)) > 1e-9 * abs(dt):
        raise ValueError("detect_period requires a uniform time grid")
    span = float(traj.times[-1] - traj.times[0])

    y = _flatten_states(traj)
    if not np.isfinite(y).all():
        return None
    peak = float(np.max(np.abs(y)))
    if peak == 0.0:
        return None
    np.ldexp(y, -math.frexp(peak)[1], out=y)  # max |y| in [0.5, 1): no square overflows
    scale = float(np.max(np.sqrt(np.sum(y * y, axis=1))))
    drift = np.sqrt(np.sum((y - y[0]) ** 2, axis=1)) / scale
    if float(np.max(drift)) <= PERIOD_RTOL:
        return None  # standstill, no meaningful period

    kmax = (m - 1) // 2
    candidates: list[float] = []  # in samples
    if eigenvalues is not None:
        w = np.asarray(eigenvalues, dtype=np.complex128).ravel()
        _, zero, imag = _spectral_masks(w)
        t_seed = rational_period(w.imag[imag]) if np.all(zero | imag) else None
        if t_seed is not None:
            if t_seed > span / 2.0:
                raise InsufficientSpanError(
                    f"candidate period {t_seed:.6g} exceeds half the sampled span {span:.6g}"
                )
            candidates.append(t_seed / dt)
    if not candidates:
        lag = _lag_profile(y, kmax)
        inner = lag[2:kmax]
        minima = (inner < lag[1 : kmax - 1]) & (inner <= lag[3 : kmax + 1])
        candidates = (np.flatnonzero(minima) + 2).tolist()

    distance = _ShiftDistance(y, dt, max(1, m - kmax))
    for cand in sorted(candidates):
        lo = max(1.0, cand - 1.0)
        hi = min(span / (2.0 * dt), cand + 1.0)
        if hi <= lo:
            continue
        shift = distance.argmin(lo, hi)
        if distance(shift) / scale <= PERIOD_RTOL:
            return shift * dt
    return None
