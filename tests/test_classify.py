"""Spectrum classification, rational periods and empirical period detection."""
import math

import numpy as np
import pytest

from planebody import (
    CouplingSpec,
    InsufficientSpanError,
    MotionClass,
    Trajectory,
    classify,
    classify_couplings,
    detect_period,
    exact_states,
    rational_period,
    spectral_solve,
    to_complex,
    trajectory_from_states,
)
from planebody.classify import _ShiftDistance, _fd_acceleration, _flatten_states, _lag_profile
from planebody.model import PlaneState

TWO_PI = 2.0 * math.pi


def test_motion_class_invariants():
    with pytest.raises(ValueError):
        MotionClass(
            all_damped=False,
            has_imaginary=False,
            all_imaginary=False,
            completely_periodic=TWO_PI,
            has_zero_mode=False,
            has_unstable=False,
        )
    with pytest.raises(ValueError):
        MotionClass(
            all_damped=True,
            has_imaginary=False,
            all_imaginary=False,
            completely_periodic=None,
            has_zero_mode=False,
            has_unstable=True,
        )


def test_classify_all_damped():
    mc = classify([-1.0, -2.0, -0.5 + 0.3j])
    assert mc.all_damped
    assert not mc.has_imaginary
    assert not mc.all_imaginary
    assert mc.completely_periodic is None
    assert not mc.has_zero_mode
    assert not mc.has_unstable
    assert mc.row_sums_zero is None


def test_classify_commensurate_imaginary():
    mc = classify([1j, 2j, -3j])
    assert mc.all_imaginary
    assert mc.has_imaginary
    assert not mc.all_damped
    assert mc.completely_periodic == pytest.approx(TWO_PI, rel=1e-12)


def test_classify_incommensurate_imaginary():
    mc = classify([1j, 1j * math.sqrt(2.0)])
    assert mc.all_imaginary
    assert mc.completely_periodic is None


def test_classify_zero_mode():
    mc = classify([0.0, 1j])
    assert mc.has_zero_mode
    assert mc.has_imaginary
    # the zero eigenvalue keeps the spectrum from being purely imaginary
    assert not mc.all_imaginary
    assert mc.completely_periodic is None


def test_classify_unstable_mix():
    mc = classify([1.0, -1.0])
    assert mc.has_unstable
    assert not mc.all_damped
    assert not mc.has_zero_mode


def test_classify_tolerance_floor():
    # tiny real parts are absorbed by the default relative tolerance
    mc = classify([1e-15 + 1j, 2j])
    assert mc.all_imaginary
    assert mc.completely_periodic == pytest.approx(TWO_PI, rel=1e-9)
    # an explicit tight tolerance flags the same value as unstable
    mc2 = classify([1e-15 + 1j, 2j], tol=1e-16)
    assert not mc2.all_imaginary


def test_classify_empty_raises():
    with pytest.raises(ValueError):
        classify([])


def test_classify_couplings_rotation_block():
    c = CouplingSpec(beta=np.zeros((3, 3)), gamma=np.diag([1.0, 2.0, 3.0]))
    mc = classify_couplings(c)
    assert mc.all_imaginary
    assert mc.completely_periodic == pytest.approx(TWO_PI, rel=1e-9)
    assert mc.row_sums_zero is False


def test_classify_couplings_zero_row_sums():
    c = CouplingSpec(beta=np.array([[1.0, -1.0], [1.0, -1.0]]), gamma=np.zeros((2, 2)))
    mc = classify_couplings(c)
    assert mc.row_sums_zero is True
    assert mc.has_zero_mode


def test_rational_period_values():
    assert rational_period([1.0, 2.0, 3.0]) == pytest.approx(TWO_PI, rel=1e-12)
    assert rational_period([2.0, 3.0]) == pytest.approx(TWO_PI, rel=1e-12)
    # common factor 2 shortens the period
    assert rational_period([2.0, 4.0]) == pytest.approx(math.pi, rel=1e-12)
    assert rational_period([0.5]) == pytest.approx(2.0 * TWO_PI, rel=1e-12)
    assert rational_period([-3.0, 3.0]) == pytest.approx(TWO_PI / 3.0, rel=1e-12)
    assert rational_period([]) is None


def test_rational_period_rejections():
    assert rational_period([1.0, math.sqrt(2.0)]) is None
    # integer multiples above the cap are not accepted
    assert rational_period([1.0, 65.0]) is None
    with pytest.raises(ValueError):
        rational_period([0.0, 1.0])


def test_rational_period_near_rational():
    # ratio 1.5 + 1e-12 is within tolerance, 1.5 + 1e-3 is not
    assert rational_period([2.0, 3.0 + 2e-12]) == pytest.approx(TWO_PI, rel=1e-9)
    assert rational_period([2.0, 3.0 + 2e-3]) is None


def _circle_trajectory(t_end=4.0 * TWO_PI, m=321):
    c = CouplingSpec(beta=np.zeros((1, 1)), gamma=np.array([[1.0]]))
    s0 = PlaneState([[1.0, 0.0]], [[0.0, 1.0]])
    sol = spectral_solve(c, to_complex(s0))
    times = np.linspace(0.0, t_end, m)
    return trajectory_from_states(times, exact_states(sol, times))


def test_detect_period_circle_seeded():
    traj = _circle_trajectory()
    t = detect_period(traj, eigenvalues=[1j])
    assert t == pytest.approx(TWO_PI, rel=1e-6)


def test_detect_period_circle_profile():
    traj = _circle_trajectory()
    t = detect_period(traj)
    assert t == pytest.approx(TWO_PI, rel=1e-6)


def test_detect_period_zero_padded_spectrum():
    # zero modes in the spectrum are ignored when seeding candidates
    traj = _circle_trajectory()
    t = detect_period(traj, eigenvalues=[0.0, 1j])
    assert t == pytest.approx(TWO_PI, rel=1e-6)


def test_detect_period_two_frequencies_minimal():
    c = CouplingSpec(beta=np.zeros((2, 2)), gamma=np.diag([2.0, 3.0]))
    s0 = PlaneState([[1.0, 0.0], [0.0, 1.5]], [[0.0, 2.0], [-4.5, 0.0]])
    sol = spectral_solve(c, to_complex(s0))
    times = np.linspace(0.0, 3.0 * TWO_PI, 601)
    traj = trajectory_from_states(times, exact_states(sol, times))
    t = detect_period(traj, eigenvalues=[2j, 3j])
    assert t == pytest.approx(TWO_PI, rel=1e-6)


def test_detect_period_damped_returns_none():
    c = CouplingSpec(beta=-np.diag([1.0, 2.0]), gamma=np.zeros((2, 2)))
    s0 = PlaneState([[1.0, 0.0], [0.0, 1.0]], [[0.1, 0.2], [-0.1, 0.1]])
    sol = spectral_solve(c, to_complex(s0))
    times = np.linspace(0.0, 12.0, 241)
    traj = trajectory_from_states(times, exact_states(sol, times))
    assert detect_period(traj) is None


def test_detect_period_standstill_returns_none():
    times = np.linspace(0.0, 1.0, 11)
    pos = np.tile([[1.0, 0.5]], (11, 1)).reshape(11, 1, 2)
    vel = np.zeros_like(pos)
    traj = Trajectory(times=times, positions=pos, velocities=vel)
    assert detect_period(traj) is None


def test_detect_period_too_few_samples():
    times = np.array([0.0, 1.0])
    pos = np.zeros((2, 1, 2))
    pos[:, 0, 0] = 1.0
    traj = Trajectory(times=times, positions=pos, velocities=np.zeros_like(pos))
    with pytest.raises(InsufficientSpanError):
        detect_period(traj)


def test_detect_period_span_too_short_for_candidate():
    traj = _circle_trajectory(t_end=3.0, m=61)
    with pytest.raises(InsufficientSpanError):
        detect_period(traj, eigenvalues=[1j])


def test_detect_period_nonuniform_grid():
    times = np.array([0.0, 0.1, 0.3, 0.4])
    pos = np.zeros((4, 1, 2))
    pos[:, 0, 0] = [1.0, 1.1, 1.3, 1.4]
    traj = Trajectory(times=times, positions=pos, velocities=np.zeros_like(pos))
    with pytest.raises(ValueError):
        detect_period(traj)


def test_classify_repeated_frequency_periodic_couplings():
    # alpha = Q diag(i [1, 1, 2, 2, ...]) Q^-1 with a well-conditioned Q:
    # diagonalizable, with every frequency repeated, period 2 pi
    rng = np.random.default_rng(2)
    for n in (8, 8, 8, 8, 32, 32, 32, 32):
        while True:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q = np.eye(n) + 0.5 * g / math.sqrt(2 * n)
            if np.linalg.cond(q) < 50.0:
                break
        lam = 1j * (np.arange(n) // 2 + 1)
        a = np.linalg.solve(q.T, (q * lam).T).T
        mc = classify_couplings(CouplingSpec(a.real, a.imag))
        assert mc.completely_periodic is not None
        assert abs(mc.completely_periodic - TWO_PI) <= 1e-9


def _direct_lag_profile(y, kmax):
    """Mean squared distance |y[i + k] - y[i]|^2 over i, lag by lag."""
    out = np.zeros(kmax + 1)
    for k in range(1, kmax + 1):
        d = y[k:] - y[:-k]
        out[k] = np.mean(np.sum(d * d, axis=1))
    return out


def _periodic_closed_form(m, n=4, seed=5):
    """alpha = Q diag(i k) Q^-1 with distinct integer k: period 2 pi / gcd(k)."""
    rng = np.random.default_rng(seed)
    k = rng.choice(np.arange(1, 5), n, replace=False) * rng.choice([-1, 1], n)
    while True:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q = np.eye(n) + 0.5 * g / math.sqrt(2 * n)
        if np.linalg.cond(q) < 50.0:
            break
    lam = 1j * k.astype(float)
    a = np.linalg.solve(q.T, (q * lam).T).T
    c = CouplingSpec(a.real, a.imag)
    pos = rng.standard_normal((n, 2))
    pos += 0.5 * pos / np.linalg.norm(pos, axis=1, keepdims=True)  # off the origin
    s0 = PlaneState(pos, 0.3 * rng.standard_normal((n, 2)))
    period = TWO_PI / math.gcd(*np.abs(k).tolist())
    times = np.linspace(0.0, 2.5 * period, m)
    traj = trajectory_from_states(times, exact_states(spectral_solve(c, to_complex(s0)), times))
    return traj, lam, period


@pytest.mark.parametrize("kind", ["random", "periodic"])
def test_lag_profile_matches_direct_sum(kind):
    m = 301
    if kind == "random":
        y = np.random.default_rng(6).standard_normal((m, 8)) + 3.0
    else:
        y = _flatten_states(_periodic_closed_form(m)[0])
    kmax = (m - 1) // 2
    scale = float(np.max(np.sum(y * y, axis=1)))
    got = _lag_profile(y, kmax)
    assert got.shape == (kmax + 1,)
    assert np.max(np.abs(got - _direct_lag_profile(y, kmax))) <= 1e-9 * scale


def _direct_shift_distance(traj, shift, count):
    """Mean |s(t_i + shift dt) - s(t_i)| over i < count: positions Hermite-
    interpolated with velocities, velocities with FD accelerations, on the
    interval [t_j, t_j+1], j = min(floor(shift), m - 1 - count)."""
    m = len(traj.times)
    dt = float(traj.times[1] - traj.times[0])
    pos = traj.positions.reshape(m, -1)
    vel = traj.velocities.reshape(m, -1)
    acc = _fd_acceleration(vel, dt)
    j = min(math.floor(shift), m - 1 - count)
    th = shift - j
    h00, h10 = 2 * th**3 - 3 * th**2 + 1, th**3 - 2 * th**2 + th
    h01, h11 = -2 * th**3 + 3 * th**2, th**3 - th**2
    a = np.arange(count) + j
    p = h00 * pos[a] + h10 * dt * vel[a] + h01 * pos[a + 1] + h11 * dt * vel[a + 1]
    v = h00 * vel[a] + h10 * dt * acc[a] + h01 * vel[a + 1] + h11 * dt * acc[a + 1]
    d = np.concatenate([p - pos[:count], v - vel[:count]], axis=1)
    return float(np.mean(np.linalg.norm(d, axis=1)))


def test_shift_distance_matches_direct_hermite():
    m = 401
    traj = _periodic_closed_form(m)[0]
    y = _flatten_states(traj)
    dt = float(traj.times[1] - traj.times[0])
    count = m - (m - 1) // 2
    cached = _ShiftDistance(y, dt, count)
    # fractional shifts inside the grid, an exact sample, and shifts past
    # m - 1 - count = 199, where the last interval extrapolates
    for shift in (0.37, 3.5, 57.0, 123.91, 198.999, 199.0, 199.62, 200.0):
        got = cached(shift)
        want = _direct_shift_distance(traj, shift, count)
        assert abs(got - want) <= 1e-12 * want, shift
        fresh = _ShiftDistance(y, dt, count)(shift)
        assert np.float64(got).view(np.int64) == np.float64(fresh).view(np.int64)


@pytest.mark.parametrize("seeded", [False, True])
def test_detect_period_periodic_closed_form_8001(seeded):
    traj, lam, period = _periodic_closed_form(8001)
    t = detect_period(traj, eigenvalues=lam if seeded else None)
    assert t is not None
    assert abs(t - period) <= 1e-6


@pytest.mark.parametrize("route", ["exact", "numeric"])
def test_detect_period_on_decreasing_grid_matches_increasing(route):
    from planebody import IntegratorConfig, integrate, rhs_base

    c = CouplingSpec(np.zeros((2, 2)), np.diag([2.0, 3.0]))
    s0 = PlaneState([[1.0, 0.0], [0.0, 1.5]], [[0.1, 0.2], [0.3, 0.0]])
    sol = spectral_solve(c, to_complex(s0))
    lam = 1j * np.array([2.0, 3.0])
    end = exact_states(sol, [14.0])[0]
    trajs = []
    for t_span, start in (((0.0, 14.0), s0), ((14.0, 0.0), end)):
        if route == "exact":
            times = np.linspace(*t_span, 281)
            trajs.append(trajectory_from_states(times, exact_states(sol, times)))
        else:
            cfg = IntegratorConfig(t_span=t_span, sample_count=281)
            trajs.append(integrate(lambda t, s: rhs_base(c, s), start, cfg))
    forward, backward = trajs
    assert backward.times[0] > backward.times[-1]
    for eigenvalues in (None, lam):
        want = detect_period(forward, eigenvalues=eigenvalues)
        got = detect_period(backward, eigenvalues=eigenvalues)
        assert want == pytest.approx(TWO_PI, rel=1e-6)
        assert got == pytest.approx(want, rel=1e-9)
