"""Spectrum classification, rational periods and empirical period detection."""
import math
import warnings

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


@pytest.mark.parametrize("w", [[1e-200, 1e200], [5e-324, 1.0]], ids=["ratio-overflows", "subnormal"])
def test_rational_period_of_a_ratio_past_the_float_range_is_none(w):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rational_period(w) is None


def _multiples(rng, kmax):
    """2..8 integer multiples with largest kmax and gcd 1 (kmax - 1 is
    among them), in random order and sign."""
    k = rng.integers(1, kmax + 1, size=int(rng.integers(2, 9)))
    k[:2] = kmax, kmax - 1
    return rng.permutation(k) * rng.choice([-1.0, 1.0], size=k.size)


def test_rational_period_property_on_seeded_multiples():
    rng = np.random.default_rng(29)
    for _ in range(300):
        w0 = 10.0 ** rng.uniform(-3.0, 3.0)
        k = _multiples(rng, int(rng.integers(2, 65)))
        assert rational_period(w0 * k) == pytest.approx(TWO_PI / w0, rel=1e-12)
        w = w0 * k
        i = rng.integers(k.size)
        w[i] *= 1.0 + rng.choice([-1e-7, 1e-7])
        assert rational_period(w) is None
        assert rational_period(w0 * _multiples(rng, int(rng.integers(65, 81)))) is None


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


def test_insufficient_span_names_the_candidate_only_when_one_exists():
    with pytest.raises(InsufficientSpanError) as seeded:
        detect_period(_circle_trajectory(t_end=3.0, m=61), eigenvalues=[1j])
    assert seeded.value.candidate == pytest.approx(2 * np.pi)
    with pytest.raises(InsufficientSpanError) as short:
        detect_period(_circle_trajectory(t_end=3.0, m=2), eigenvalues=[1j])
    assert short.value.candidate is None


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


def _direct_shift_difference(traj, shift, count):
    """s(t_i + shift dt) - s(t_i) for i < count: positions Hermite-
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
    return np.concatenate([p - pos[:count], v - vel[:count]], axis=1)


def _direct_shift_distance(traj, shift, count):
    """Mean |s(t_i + shift dt) - s(t_i)| over i < count."""
    return float(np.mean(np.linalg.norm(_direct_shift_difference(traj, shift, count), axis=1)))


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


def _direct_mean_squared_distance(traj, shift, count):
    d = _direct_shift_difference(traj, shift, count)
    return float(np.mean(np.sum(d * d, axis=1)))


@pytest.mark.parametrize(
    "case, lo, hi",
    [
        ("closed", 159.0, 161.0),  # a lag-profile bracket around the period
        ("closed", 159.37, 161.37),  # a seeded bracket over three intervals
        ("closed", 100.2, 102.2),  # no period inside
        ("closed", 198.6, 200.0),  # up to half the span, m odd
        ("off", 79.37, 81.37),  # the period inside an interval
        ("late", 159.3, 160.5),  # across the clamp into the extrapolated interval
        ("late", 160.0, 160.5),  # entirely past the clamp
    ],
)
def test_shift_argmin_matches_dense_grid(case, lo, hi):
    if case == "closed":
        traj = _periodic_closed_form(401)[0]
    elif case == "off":
        # the circle's period at 80.37 samples, off the grid
        traj = _circle_trajectory(t_end=TWO_PI * 320 / 80.37, m=321)
    else:
        # m even: the period, 160.3 samples, lies past m - 1 - count + 1 = 160,
        # where only the clamped last interval reaches, extrapolating
        traj = _circle_trajectory(t_end=TWO_PI * 321 / 160.3, m=322)
    m = len(traj.times)
    dt = float(traj.times[1] - traj.times[0])
    count = m - (m - 1) // 2
    grid = np.linspace(lo, hi, 801)
    values = np.array([_direct_mean_squared_distance(traj, s, count) for s in grid])
    got = _ShiftDistance(_flatten_states(traj), dt, count).argmin(lo, hi)
    assert lo <= got <= hi
    assert abs(got - grid[np.argmin(values)]) <= grid[1] - grid[0]
    assert _direct_mean_squared_distance(traj, got, count) <= values.min() + 1e-12 * values.max()


def _golden_minimize(fn, a, b, iterations=60):
    """Golden-section search, the refinement detect_period used before."""
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


@pytest.mark.parametrize("case", ["circle", 1, 2, 3, 8, 20])
def test_detect_period_matches_golden_section_reference(case):
    if case == "circle":
        traj, lam, period = _circle_trajectory(), [1j], TWO_PI
    else:
        traj, lam, period = _periodic_closed_form(8001, seed=case)
    m = len(traj.times)
    dt = float(traj.times[1] - traj.times[0])
    distance = _ShiftDistance(_flatten_states(traj), dt, m - (m - 1) // 2)
    want = _golden_minimize(distance, period / dt - 1.0, period / dt + 1.0) * dt
    # spectra off by 1e-15 seed brackets that overhang an interval by a sliver
    lam = np.asarray(lam)
    for eigenvalues in (lam, lam * (1.0 - 1e-15), lam * (1.0 + 1e-15), None):
        got = detect_period(traj, eigenvalues=eigenvalues)
        assert got is not None
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-200, 1e200, 2.0**-600, 2.0**600])
def test_detect_period_is_scale_invariant(scale):
    traj = _circle_trajectory()
    scaled = Trajectory(traj.times, scale * traj.positions, scale * traj.velocities)
    for eigenvalues in ([1j], None):
        want = detect_period(traj, eigenvalues=eigenvalues)
        got = detect_period(scaled, eigenvalues=eigenvalues)
        assert got is not None
        if math.frexp(scale)[0] == 0.5:  # a power of two scales every step exactly
            assert got == want
        else:
            assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("unit", [1e-160, 1.0, 1e160])
def test_detect_period_in_any_time_unit(unit):
    # the same circle with times scaled by unit and velocities by 1/unit;
    # at 1e-160 an acceleration formed at 1/dt overflows when squared
    traj = _circle_trajectory()
    scaled = Trajectory(unit * traj.times, traj.positions, traj.velocities / unit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eigenvalues in ([1j / unit], None):
            got = detect_period(scaled, eigenvalues=eigenvalues)
            assert got is not None
            assert abs(got - TWO_PI * unit) <= 1e-12 * TWO_PI * unit


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("part", ["positions", "velocities"])
def test_detect_period_non_finite_returns_none(bad, part):
    # a non-finite sample ends in None, never in an exception or a warning
    traj = _circle_trajectory()
    arrays = {"positions": traj.positions.copy(), "velocities": traj.velocities.copy()}
    arrays[part][17, 0, 1] = bad
    broken = Trajectory(traj.times, arrays["positions"], arrays["velocities"])
    for eigenvalues in ([1j], None):
        assert detect_period(broken, eigenvalues=eigenvalues) is None


@pytest.mark.parametrize("m, t_end", [(3, 5.0 * math.pi), (4, 4.0 * math.pi)])
def test_detect_period_on_three_or_four_samples(m, t_end):
    # fewer than 5 samples take the second-order differences of np.gradient;
    # on 3 samples the seeded candidate 0.8 dt has no bracket, and on 4 the
    # grid is too coarse to confirm 2 pi, seeded or blind
    traj = _circle_trajectory(t_end=t_end, m=m)
    vel = _flatten_states(traj)[:, 2:]
    assert np.array_equal(_fd_acceleration(vel, 1.0), np.gradient(vel, 1.0, axis=0))
    assert detect_period(traj, eigenvalues=[1j]) is None
    assert detect_period(traj) is None


def test_detect_period_at_the_origin_returns_none():
    times = np.linspace(0.0, 1.0, 11)
    zeros = np.zeros((11, 1, 2))
    assert detect_period(Trajectory(times=times, positions=zeros, velocities=zeros)) is None


def test_rational_period_rejects_a_common_multiple_above_64():
    # each ratio to the base is a fraction with terms <= 64, but the common
    # base frequency needs multiples 3906, 3968 and 3969
    assert rational_period([1.0, 64.0 / 63.0, 63.0 / 62.0]) is None


def test_detect_period_positional_spectrum_is_a_type_error():
    with pytest.raises(TypeError):
        detect_period(_circle_trajectory(), 1e-6)


def test_classify_infinite_eigenvalue_sets_no_scale():
    mc = classify([-2.0 + 1.0j, complex(math.inf, math.inf)])
    assert mc.has_unstable and not mc.has_zero_mode and not mc.all_damped


def test_classify_infinite_frequency_is_not_purely_imaginary():
    mc = classify([1j, complex(0.0, math.inf)])
    assert not mc.all_imaginary and mc.completely_periodic is None
    assert mc.has_imaginary and not mc.has_unstable and not mc.has_zero_mode


def test_detect_period_infinite_frequency_seeds_no_candidate():
    # the spectrum is not purely imaginary, so the lag profile finds the period
    t = detect_period(_circle_trajectory(), eigenvalues=[1j, complex(0.0, math.inf)])
    assert t == pytest.approx(TWO_PI, rel=1e-6)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rational_period_rejects_non_finite_frequencies(bad):
    with pytest.raises(ValueError, match="frequencies must be finite"):
        rational_period([1.0, bad])


@pytest.mark.parametrize("m", [3, 4, 5, 6, 64, 65, 1001])
def test_lag_profile_matches_direct_sum_at_any_length(m):
    y = np.random.default_rng(m).standard_normal((m, 8)) + 3.0
    kmax = (m - 1) // 2
    scale = float(np.max(np.sum(y * y, axis=1)))
    got = _lag_profile(y, kmax)
    assert got.shape == (kmax + 1,)
    assert np.max(np.abs(got - _direct_lag_profile(y, kmax))) <= 1e-9 * scale
    # row norms passed in by the caller give the same profile
    assert got.tobytes() == _lag_profile(y, kmax, np.sum(y * y, axis=1)).tobytes()


@pytest.mark.parametrize("m", [3, 4, 5, 6, 401])
def test_shift_distance_slope_is_the_concatenated_reference_bit_for_bit(m):
    traj = _periodic_closed_form(m)[0]
    y = _flatten_states(traj)
    dt = float(traj.times[1] - traj.times[0])
    vel = y[:, y.shape[1] // 2:]
    want = np.concatenate([dt * vel, _fd_acceleration(vel, 1.0)], axis=1)
    got = _ShiftDistance(y, dt, m - (m - 1) // 2).slope
    assert got.tobytes() == want.tobytes()
    if m >= 5:  # the interior stencil in one expression, as written out
        inner = (vel[:-4] - 8.0 * vel[1:-3] + 8.0 * vel[3:-1] - vel[4:]) / (12.0 * dt)
        assert _fd_acceleration(vel, dt)[2:-2].tobytes() == inner.tobytes()


def _argmin_with_fresh_gram(distance, lo, hi):
    """_ShiftDistance.argmin with all ten Gram entries formed on every interval."""
    c, y, h = distance.count, distance.y, distance._HERMITE
    jmax = y.shape[0] - 1 - c
    best, best_shift = math.inf, lo
    j = min(math.floor(lo), jmax)
    while True:
        arrays = (y[j:j + c] - y[:c], y[j + 1:j + 1 + c] - y[:c],
                  distance.slope[j:j + c], distance.slope[j + 1:j + 1 + c])
        flat = [np.ascontiguousarray(a).ravel() for a in arrays]
        g = np.array([[p @ q for q in flat] for p in flat])
        poly = np.bincount(distance._POWER, (h @ g @ h.T).ravel())[::-1]
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


def test_shift_distance_argmin_reuses_gram_entries_bit_for_bit():
    m = 401
    traj = _periodic_closed_form(m)[0]
    dt = float(traj.times[1] - traj.times[0])
    count = m - (m - 1) // 2
    distance = _ShiftDistance(_flatten_states(traj), dt, count)
    # brackets over one to five intervals, including the extrapolated last one
    for lo, hi in ((3.2, 3.9), (10.0, 12.0), (57.3, 61.8), (158.5, 160.5), (197.0, 200.0)):
        assert distance.argmin(lo, hi) == _argmin_with_fresh_gram(distance, lo, hi), (lo, hi)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_shift_distance_exceeds_only_where_every_shift_is_above_the_bound(seed):
    m = 2001
    traj = _periodic_closed_form(m, seed=seed)[0]
    dt = float(traj.times[1] - traj.times[0])
    count = m - (m - 1) // 2
    y = _flatten_states(traj)
    distance = _ShiftDistance(y, dt, count)
    scale = math.sqrt(float(np.max(np.sum(y * y, axis=1))))
    rng = np.random.default_rng(seed)
    screened = 0
    for lo in np.concatenate([rng.uniform(1.0, count - 4.0, 60), [1.0, 1.5]]):
        hi = lo + rng.uniform(0.1, 2.5)
        for bound in (1e-6 * scale, 1e-3 * scale, 0.3 * scale):
            if not distance.exceeds(lo, hi, bound):
                continue
            screened += 1
            shifts = np.concatenate([np.linspace(lo, hi, 41), [distance.argmin(lo, hi)]])
            assert min(distance(x) for x in shifts) > bound, (lo, hi, bound)
    assert screened > 0


def test_shift_distance_exceeds_never_screens_the_period_or_the_last_interval():
    m = 2001
    traj, _, period = _periodic_closed_form(m)
    dt = float(traj.times[1] - traj.times[0])
    count = m - (m - 1) // 2
    distance = _ShiftDistance(_flatten_states(traj), dt, count)
    p = period / dt
    assert not distance.exceeds(p - 1.0, p + 1.0, 1e-6)
    assert distance.exceeds(0.4 * p - 1.0, 0.4 * p + 1.0, 1e-6)
    # the bracket reaches interval m - 1 - count, whose shifts extrapolate
    assert not distance.exceeds(m - 2.5 - count, m - 0.5 - count, 1e-6)


def test_shift_distance_exceeds_counts_the_slopes():
    # row 0 has o0 = y[1] - y[0] and no step; with slope[1] = -27/4 o0 its
    # difference o0 + h10(theta) slope[1] vanishes at theta = 1/3, where h10 = 4/27
    m = 11
    y = np.ones((m, 2))
    y[0] = 0.0
    distance = _ShiftDistance(y, 1.0, m - (m - 1) // 2)
    distance.slope[:] = 0.0
    distance.slope[1] = -6.75 * (y[1] - y[0])
    assert distance(1.0 + 1.0 / 3.0) <= 1e-15
    assert not distance.exceeds(1.1, 1.9, 1e-6)
    assert distance.exceeds(2.1, 2.9, 1e-6)  # there row 0 is o0 at every shift
