"""Adaptive integrator: accuracy, sampling, guards and comparison reports."""
import copy
import math

import numpy as np
import pytest

from planebody import (
    BlowupError,
    CouplingSpec,
    GeneralizedParams,
    GridMismatchError,
    IntegratorConfig,
    OriginCollisionError,
    OriginError,
    PairSpec,
    PairState,
    PlaneState,
    StepUnderflowError,
    Trajectory,
    compare,
    eval_pair_solution,
    exact_states,
    integrate,
    pair_solve,
    rhs_base,
    rhs_generalized,
    rhs_pair,
    spectral_solve,
    to_complex,
    trajectory_from_states,
    zero_couplings,
)
from planebody.model import _PairForce, _PlaneForce

from _util import count_frozen_arrays, random_couplings, random_state


def circle_setup():
    c = zero_couplings(1)
    s0 = PlaneState([[1.0, 0.0]], [[0.0, 1.0]])
    return c, s0


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h_min=1e-2, h_init=1e-3)
    with pytest.raises(ValueError):
        IntegratorConfig(t_span=(1.0, 1.0))
    with pytest.raises(ValueError):
        IntegratorConfig(sample_count=1)
    with pytest.raises(ValueError):
        IntegratorConfig(h_max=-1.0)
    cfg = IntegratorConfig(t_span=(0.0, 2.0), sample_count=5)
    assert cfg.effective_h_max() == 2.0
    assert IntegratorConfig(h_max=0.125).effective_h_max() == 0.125


@pytest.mark.parametrize(
    "field, value",
    [("t_span", (0.0, 1.0, 2.0)), ("t_span", (1.0,)), ("t_span", 1.0), ("t_span", ("a", "b")),
     ("sample_count", math.inf), ("sample_count", math.nan), ("sample_count", None)],
)
def test_config_rejects_a_malformed_span_or_count_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        IntegratorConfig(**{field: value})


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 1.0, 0.5], positions=np.zeros((3, 1, 2)),
                   velocities=np.zeros((3, 1, 2)))
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 1.0], positions=np.zeros((2, 1, 2)),
                   velocities=np.zeros((3, 1, 2)))
    traj = Trajectory(times=[0.0, 1.0], positions=np.ones((2, 2, 2)),
                      velocities=np.zeros((2, 2, 2)))
    assert traj.n_particles == 2
    s = traj.state_at(1)
    assert isinstance(s, PlaneState)


@pytest.mark.parametrize(
    "pos, vel",
    [
        pytest.param(np.zeros(2), np.zeros(2), id="1-d"),
        pytest.param(np.float64(0.0), np.float64(0.0), id="0-d"),
        pytest.param(np.zeros(2), np.zeros((2, 1, 2)), id="1-d-positions"),
    ],
)
def test_trajectory_rejects_arrays_that_are_not_3d(pos, vel):
    with pytest.raises(ValueError, match=r"must both have shape \(m, p, 2\)"):
        Trajectory(times=[0.0, 1.0], positions=pos, velocities=vel)


def test_trajectory_from_no_states_is_a_shape_error():
    with pytest.raises(ValueError, match=r"must both have shape \(m, p, 2\)"):
        trajectory_from_states([0.0, 1.0], [])


@pytest.mark.parametrize("rows", [1, 3])
def test_pair_trajectory_of_an_odd_particle_count_is_rejected(rows):
    # equal rows would otherwise read as an exact plus/minus coincidence
    p = np.ones((2, rows, 2))
    with pytest.raises(ValueError, match="a pair trajectory stacks 2n particles"):
        Trajectory([0.0, 1.0], p, p + 1.0, pair=True)
    states = [PlaneState(p[0], p[0]), PlaneState(p[1], p[1])]
    with pytest.raises(ValueError, match="a pair trajectory stacks 2n particles"):
        trajectory_from_states([0.0, 1.0], states, pair=True)


def test_circle_accuracy():
    c, s0 = circle_setup()
    cfg = IntegratorConfig(t_span=(0.0, 2.0 * math.pi), sample_count=201)
    traj = integrate(lambda t, s: rhs_base(c, s), s0, cfg)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 2.0 * math.pi
    want_pos = np.stack([np.cos(traj.times), np.sin(traj.times)], axis=1)[:, None, :]
    want_vel = np.stack([-np.sin(traj.times), np.cos(traj.times)], axis=1)[:, None, :]
    assert np.max(np.abs(traj.positions - want_pos)) < 1e-8
    assert np.max(np.abs(traj.velocities - want_vel)) < 1e-8
    stats = traj.metadata["stats"]
    assert stats["accepted"] >= 100  # the tolerances alone set the step: 133 steps
    # FSAL: six evaluations per attempted step plus the very first one
    assert stats["rhs_evaluations"] <= 6 * (stats["accepted"] + stats["rejected"]) + 1


def test_tolerance_scaling():
    # endpoint error (never interpolated) must track the tolerance setting
    c, s0 = circle_setup()
    errs = {}
    for rtol in (1e-5, 1e-9):
        cfg = IntegratorConfig(rtol=rtol, atol=rtol * 1e-3,
                               t_span=(0.0, 2.0 * math.pi), sample_count=2, h_max=10.0)
        traj = integrate(lambda t, s: rhs_base(c, s), s0, cfg)
        errs[rtol] = float(np.max(np.abs(traj.positions[-1] - [[1.0, 0.0]])))
    assert errs[1e-9] < 1e-7
    assert errs[1e-5] < 1e-3
    assert errs[1e-9] < errs[1e-5] * 1e-2  # tighter tolerance clearly wins


def test_matches_exact_random():
    rng = np.random.default_rng(50)
    for _ in range(6):
        n = int(rng.integers(1, 5))
        c = random_couplings(rng, n)
        s0 = random_state(rng, n)
        sol = spectral_solve(c, to_complex(s0))
        cfg = IntegratorConfig(t_span=(0.0, 1.0), sample_count=41)
        traj = integrate(lambda t, s: rhs_base(c, s), s0, cfg)
        ex = trajectory_from_states(traj.times, exact_states(sol, traj.times))
        rep = compare(ex, traj)
        assert rep.max_position_rel < 1e-6
        assert rep.max_velocity_rel < 1e-6


def test_generalized_matches_exact():
    from planebody import GeneralizedParams

    rng = np.random.default_rng(51)
    c = random_couplings(rng, 3)
    s0 = random_state(rng, 3)
    g = GeneralizedParams(lam=-0.2, omega=1.3)
    sol = spectral_solve(c, to_complex(s0))
    cfg = IntegratorConfig(t_span=(0.0, 1.5), sample_count=61)
    traj = integrate(lambda t, s: rhs_generalized(c, g, t, s), s0, cfg)
    ex = trajectory_from_states(traj.times, exact_states(sol, traj.times, g=g))
    rep = compare(ex, traj)
    assert rep.max_position_rel < 1e-6
    assert rep.max_velocity_rel < 1e-6


def test_pair_matches_exact():
    rng = np.random.default_rng(52)
    n = 2
    c = random_couplings(rng, n)
    p = PairSpec(base=c, lam=np.array([0.2, -0.1]), omega=np.array([0.8, 1.4]))
    plus = random_state(rng, n)
    minus = PlaneState(plus.positions + rng.standard_normal((n, 2)) + 2.0,
                       0.4 * rng.standard_normal((n, 2)))
    s0 = PairState(plus=plus, minus=minus)
    ps = pair_solve(p, s0)
    cfg = IntegratorConfig(t_span=(0.0, 1.0), sample_count=41)
    traj = integrate(lambda t, s: rhs_pair(p, s), s0, cfg)
    assert traj.pair
    ex = trajectory_from_states(traj.times,
                                [eval_pair_solution(ps, float(t)) for t in traj.times],
                                pair=True)
    rep = compare(ex, traj)
    assert rep.max_position_abs < 1e-6
    st = traj.state_at(0)
    assert isinstance(st, PairState)
    assert np.max(np.abs(st.plus.positions - plus.positions)) < 1e-14


def test_backward_integration():
    rng = np.random.default_rng(53)
    c = random_couplings(rng, 2)
    s0 = random_state(rng, 2)
    sol = spectral_solve(c, to_complex(s0))
    end = exact_states(sol, [1.0])[0]
    cfg = IntegratorConfig(t_span=(1.0, 0.0), sample_count=21)
    traj = integrate(lambda t, s: rhs_base(c, s), end, cfg)
    assert traj.times[0] == 1.0 and traj.times[-1] == 0.0
    back = traj.state_at(len(traj.times) - 1)
    assert np.max(np.abs(back.positions - s0.positions)) < 1e-7
    assert np.max(np.abs(back.velocities - s0.velocities)) < 1e-7


def test_initial_state_inside_guard():
    c = zero_couplings(2)
    s0 = PlaneState([[1e-14, 0.0], [1.0, 0.0]], np.zeros((2, 2)))
    cfg = IntegratorConfig(t_span=(0.0, 1.0), sample_count=3)
    with pytest.raises(OriginError):
        integrate(lambda t, s: rhs_base(c, s), s0, cfg)


def test_collapse_hits_guard_mid_run():
    # particle 1 collapses as exp(-5t) next to a resting particle, so the
    # relative guard trips near t = ln(1e12)/5
    c = zero_couplings(2)
    s0 = PlaneState([[1.0, 0.0], [0.0, 1.0]], [[-5.0, 0.0], [0.0, 0.0]])
    cfg = IntegratorConfig(t_span=(0.0, 6.5), sample_count=11)
    with pytest.raises(OriginCollisionError) as info:
        integrate(lambda t, s: rhs_base(c, s), s0, cfg)
    assert info.value.time == pytest.approx(math.log(1e12) / 5.0, abs=0.3)


def test_overflow_guard():
    # coupling 1 with z'0/z0 = 5: |z| = exp(5(exp(t) - 1)) passes 1e150
    c = CouplingSpec([[1.0]], [[0.0]])
    s0 = PlaneState([[1.0, 0.0]], [[5.0, 0.0]])
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-9, t_span=(0.0, 5.0),
                           sample_count=11, h_max=1.0)
    with pytest.raises(BlowupError) as info:
        integrate(lambda t, s: rhs_base(c, s), s0, cfg)
    # overflow at 5(exp(t)-1) = 345, i.e. t about 4.25
    assert info.value.time == pytest.approx(4.25, abs=0.3)


def test_step_underflow():
    c = CouplingSpec([[0.0]], [[50.0]])
    s0 = PlaneState([[1.0, 0.0]], [[0.0, 1.0]])
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-14, h_init=0.02, h_min=0.01,
                           t_span=(0.0, 1.0), sample_count=3, h_max=10.0)
    with pytest.raises(StepUnderflowError):
        integrate(lambda t, s: rhs_base(c, s), s0, cfg)


def test_compare_grid_mismatch():
    times = np.linspace(0.0, 1.0, 5)
    states = [PlaneState([[1.0 + t, 0.0]], [[1.0, 0.0]]) for t in times]
    a = trajectory_from_states(times, states)
    b = trajectory_from_states(np.linspace(0.0, 1.0, 6),
                               states + [PlaneState([[2.2, 0.0]], [[1.0, 0.0]])])
    with pytest.raises(GridMismatchError):
        compare(a, b)
    c = trajectory_from_states(times + 0.1, states)
    with pytest.raises(GridMismatchError):
        compare(a, c)


def test_compare_report_values():
    times = np.linspace(0.0, 1.0, 3)
    base = [PlaneState([[2.0, 0.0]], [[0.0, 1.0]]) for _ in times]
    moved = [PlaneState([[2.0, 0.0]], [[0.0, 1.0]]),
             PlaneState([[2.0, 3e-4]], [[0.0, 1.0]]),
             PlaneState([[2.0, 1e-4]], [[0.0, 1.0]])]
    rep = compare(trajectory_from_states(times, base), trajectory_from_states(times, moved))
    assert rep.max_position_abs == pytest.approx(3e-4)
    assert rep.max_position_rel == pytest.approx(1.5e-4)  # scale 2.0
    assert rep.position_time[0] == pytest.approx(0.5)
    assert rep.max_velocity_abs == 0.0
    assert any("max_position_deviation_abs" in line for line in rep.lines())


def test_dense_output_between_steps():
    # sample spacing much finer than the natural step: interpolation only
    c, s0 = circle_setup()
    cfg = IntegratorConfig(t_span=(0.0, 1.0), sample_count=1001)
    traj = integrate(lambda t, s: rhs_base(c, s), s0, cfg)
    want = np.stack([np.cos(traj.times), np.sin(traj.times)], axis=1)[:, None, :]
    assert np.max(np.abs(traj.positions - want)) < 1e-9


@pytest.mark.parametrize("pair", [False, True])
def test_stages_are_not_revalidated(monkeypatch, pair):
    rng = np.random.default_rng(56)
    c = random_couplings(rng, 2)
    if pair:
        p = PairSpec(base=c, lam=np.array([0.2, -0.1]), omega=np.array([0.8, 1.4]))
        plus = random_state(rng, 2)
        s0 = PairState(plus=plus, minus=PlaneState(plus.positions + 2.0, plus.velocities))
        rhs = lambda t, s: rhs_pair(p, s)
    else:
        s0 = random_state(rng, 2)
        rhs = lambda t, s: rhs_base(c, s)
    calls = count_frozen_arrays(monkeypatch)
    counts = []
    for t_end, rtol in ((0.5, 1e-9), (4.0, 1e-12)):
        before = len(calls)
        cfg = IntegratorConfig(t_span=(0.0, t_end), sample_count=201, rtol=rtol)
        traj = integrate(rhs, s0, cfg)
        counts.append((len(calls) - before, traj.metadata["stats"]["rhs_evaluations"]))
    assert counts[1][1] > counts[0][1] + 400  # hundreds more stages ...
    assert counts[1][0] == counts[0][0]  # ... and no more validated arrays


def test_pair_stages_build_no_pair_state(monkeypatch):
    rng = np.random.default_rng(56)  # the pair run of test_stages_are_not_revalidated
    p = PairSpec(base=random_couplings(rng, 2), lam=np.array([0.2, -0.1]), omega=np.array([0.8, 1.4]))
    plus = random_state(rng, 2)
    s0 = PairState(plus=plus, minus=PlaneState(plus.positions + 2.0, plus.velocities))
    calls = []
    real = PairState.__post_init__

    def counting(self):
        calls.append(1)
        real(self)

    monkeypatch.setattr(PairState, "__post_init__", counting)
    counts = []
    for t_end, rtol in ((0.5, 1e-9), (4.0, 1e-12)):
        before = len(calls)
        cfg = IntegratorConfig(t_span=(0.0, t_end), sample_count=201, rtol=rtol)
        traj = integrate(lambda t, s: rhs_pair(p, s), s0, cfg)
        counts.append((len(calls) - before, traj.metadata["stats"]["rhs_evaluations"]))
    assert counts[1][1] > counts[0][1] + 400  # hundreds more stages ...
    assert counts[1][0] == counts[0][0]  # ... and no more PairState constructions


@pytest.mark.parametrize("name", ["rtol", "atol", "h_init", "h_min", "h_max"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_config_rejects_non_finite_tolerances_and_steps(name, value):
    with pytest.raises(ValueError, match=name):
        IntegratorConfig(**{name: value})


def test_rhs_sees_read_only_stage_states():
    c, s0 = circle_setup()
    seen = []

    def rhs(t, s):
        seen.append(s.positions.flags.writeable or s.velocities.flags.writeable)
        return rhs_base(c, s)

    integrate(rhs, s0, IntegratorConfig(t_span=(0.0, 0.1), sample_count=3))
    assert seen and not any(seen)


@pytest.mark.filterwarnings("error")  # the stage check reports the overflow
def test_overflowing_stage_never_reaches_rhs():
    # every derivative row is finite, but the third stage's combination of
    # them is not: 56/15 * 1e308 is past the float64 range at any step size
    _, s0 = circle_setup()
    seen = []

    def rhs(t, s):
        seen.append(bool(np.isfinite(s.positions).all() and np.isfinite(s.velocities).all()))
        return np.full((s.n, 2), 1e308)

    cfg = IntegratorConfig(t_span=(0.0, 1.0), sample_count=2, h_init=0.5)
    with pytest.raises(OriginCollisionError, match="non-finite stage state"):
        integrate(rhs, s0, cfg)
    assert seen and all(seen)


@pytest.mark.parametrize("pair", [False, True])
def test_unguarded_custom_law_trips_the_guard_at_the_crossing(pair):
    # a = -5v does not guard the origin itself; particle 1 (for pairs, the
    # difference of pair 1, while every family radius stays near 1 or
    # above) still collapses as exp(-5t) next to a resting one, and the
    # stage's guard finds the crossing of the 1e-12 ratio near t = ln(1e12)/5
    cfg = IntegratorConfig(t_span=(0.0, 6.5), sample_count=11)
    if pair:
        s0 = PairState(plus=PlaneState([[0.5, 1.0], [3.0, 1.0]], [[-2.5, 0.0], [0.0, 0.0]]),
                       minus=PlaneState([[-0.5, 1.0], [3.0, -1.0]], [[2.5, 0.0], [0.0, 0.0]]))
        rhs = lambda t, s: (-5.0 * s.plus.velocities, -5.0 * s.minus.velocities)
    else:
        s0 = PlaneState([[1.0, 0.0], [0.0, 1.0]], [[-5.0, 0.0], [0.0, 0.0]])
        rhs = lambda t, s: -5.0 * s.velocities
    with pytest.raises(OriginCollisionError) as info:
        integrate(rhs, s0, cfg)
    assert info.value.time == pytest.approx(math.log(1e12) / 5.0, abs=0.3)


def test_custom_law_on_a_guarded_initial_state():
    s0 = PlaneState([[1e-14, 0.0], [1.0, 0.0]], np.zeros((2, 2)))
    cfg = IntegratorConfig(t_span=(0.5, 1.0), sample_count=3)
    with pytest.raises(OriginError, match="initial state is inside the singularity guard") as info:
        integrate(lambda t, s: np.zeros((2, 2)), s0, cfg)
    assert info.value.time == 0.5


def _pair_start(rng, n):
    p = PairSpec(base=random_couplings(rng, n), lam=rng.standard_normal(n), omega=rng.standard_normal(n))
    plus = random_state(rng, n)
    minus = PlaneState(plus.positions + rng.standard_normal((n, 2)) + 2.0, 0.4 * rng.standard_normal((n, 2)))
    return p, PairState(plus=plus, minus=minus)


def test_closed_form_routes_return_trajectories_of_the_given_times():
    from planebody.exact import _pair_states

    rng = np.random.default_rng(61)
    times = np.linspace(2.0, -1.0, 31)
    sol = spectral_solve(random_couplings(rng, 3), to_complex(random_state(rng, 3)))
    p, s0 = _pair_start(rng, 2)
    for traj, pair, p_count in ((exact_states(sol, times), False, 3),
                                (_pair_states(pair_solve(p, s0), times), True, 4)):
        assert isinstance(traj, Trajectory) and traj.pair == pair
        assert np.array_equal(traj.times, times) and len(traj) == 31
        assert traj.positions.shape == traj.velocities.shape == (31, p_count, 2)
        for a in (traj.times, traj.positions, traj.velocities):
            assert not a.flags.writeable


def test_trajectory_from_states_retimes_a_trajectory_without_copying():
    rng = np.random.default_rng(62)
    sol = spectral_solve(random_couplings(rng, 2), to_complex(random_state(rng, 2)))
    times = np.linspace(0.0, 1.0, 11)
    states = exact_states(sol, times)
    traj = trajectory_from_states(times + 5.0, states)
    assert np.array_equal(traj.times, times + 5.0)
    assert np.shares_memory(traj.positions, states.positions)
    assert np.shares_memory(traj.velocities, states.velocities)


def test_trajectory_copies_writeable_arrays_and_adopts_frozen_ones():
    times = np.linspace(0.0, 1.0, 4)
    pos = np.ones((4, 2, 2))
    vel = np.zeros((4, 2, 2))
    traj = Trajectory(times=times, positions=pos, velocities=vel)
    for got, given in ((traj.times, times), (traj.positions, pos), (traj.velocities, vel)):
        assert not np.shares_memory(got, given) and not got.flags.writeable
    pos[0, 0, 0] = 7.0
    assert traj.positions[0, 0, 0] == 1.0 and traj.state_at(0).positions[0, 0] == 1.0
    frozen = [a.copy() for a in (times, pos, vel)]
    for a in frozen:
        a.setflags(write=False)
    adopted = Trajectory(*frozen)
    assert all(got is a for got, a in zip((adopted.times, adopted.positions, adopted.velocities), frozen))


def test_numeric_pair_run_reads_read_only_family_views():
    rng = np.random.default_rng(63)
    p, s0 = _pair_start(rng, 3)
    traj = integrate(lambda t, s: rhs_pair(p, s), s0, IntegratorConfig(t_span=(0.0, 0.5), sample_count=21))
    assert traj.pair and len(traj) == 21
    for i in (0, 7, -1):
        st = traj.state_at(i)
        assert isinstance(st, PairState) and st.n == 3
        for half, rows in ((st.plus, slice(0, 3)), (st.minus, slice(3, 6))):
            for got, grid in ((half.positions, traj.positions), (half.velocities, traj.velocities)):
                assert np.array_equal(got, grid[i, rows])
                assert not got.flags.writeable and np.shares_memory(got, grid)
    assert np.array_equal(traj.state_at(0).plus.positions, s0.plus.positions)
    assert np.array_equal(traj.state_at(0).minus.velocities, s0.minus.velocities)


def test_trajectory_slices_are_trajectories():
    c, s0 = circle_setup()
    traj = integrate(lambda t, s: rhs_base(c, s), s0, IntegratorConfig(t_span=(0.0, 1.0), sample_count=9))
    for key in (slice(2, 7, 2), slice(None, None, -1), slice(5, None), slice(-3, -1)):
        part = traj[key]
        assert isinstance(part, Trajectory) and part.pair == traj.pair
        assert np.array_equal(part.times, traj.times[key])
        assert np.array_equal(part.positions, traj.positions[key])
        assert np.array_equal(part.velocities, traj.velocities[key])
    assert np.array_equal(traj[-1].positions, traj[8].positions)
    assert [st.positions[0, 0] for st in traj] == list(traj.positions[:, 0, 0])
    with pytest.raises(IndexError):
        traj[9]
    for empty in (slice(5, 5), slice(9, None), slice(3, 1)):
        with pytest.raises(ValueError):
            traj[empty]


def test_config_rejects_sample_times_that_are_not_distinct():
    with pytest.raises(ValueError, match="distinct"):
        IntegratorConfig(t_span=(0.0, 1e-320), sample_count=5000)
    with pytest.raises(ValueError, match="distinct"):
        IntegratorConfig(t_span=(1e16, 1e16 + 4.0), sample_count=9)
    with np.errstate(all="raise"):  # a span that overflows is rejected quietly
        with pytest.raises(ValueError, match="distinct"):
            IntegratorConfig(t_span=(-1e308, 1e308), sample_count=3)
    cfg = IntegratorConfig(t_span=(1.0, -2.0), sample_count=7)
    assert np.array_equal(cfg.sample_times(), np.linspace(1.0, -2.0, 7))
    c, s0 = circle_setup()
    assert np.array_equal(integrate(lambda t, s: rhs_base(c, s), s0, cfg).times, cfg.sample_times())


@pytest.mark.filterwarnings("error")
def test_overflowing_initial_derivative_is_an_overflow_at_t0():
    from planebody.model import _PlaneForce

    s0 = PlaneState([[1e-10, 0.0]], [[1e300, 0.0]])
    cfg = IntegratorConfig(t_span=(0.5, 1.0), sample_count=3)
    for rhs in (_PlaneForce(zero_couplings(1)), lambda t, s: rhs_base(zero_couplings(1), s)):
        with pytest.raises(BlowupError) as info:
            integrate(rhs, s0, cfg)
        assert info.value.time == 0.5
    with pytest.raises(BlowupError) as info:
        spectral_solve(zero_couplings(1), to_complex(s0))
    assert info.value.time == 0.0


def _built_in_force(pair):
    """A built-in force law (the CLI's route) with its initial state."""
    rng = np.random.default_rng(58)
    c = random_couplings(rng, 2)
    if pair:
        plus = random_state(rng, 2)
        s0 = PairState(plus=plus, minus=PlaneState(plus.positions + 2.0, -plus.velocities))
        return _PairForce(PairSpec(base=c, lam=np.array([0.2, -0.1]), omega=np.array([0.8, 1.4]))), s0
    return _PlaneForce(c, GeneralizedParams(lam=0.1, omega=0.7)), random_state(rng, 2)


def _poisoned(force, row, value):
    """A copy of a built-in force law whose first evaluation (the initial
    derivative) adds value to every acceleration it wrote ("derivative"),
    or to every velocity of the solution row that each later stage input
    is formed from ("state"), after the law has run.  Adding 1e308 to
    several entries keeps each finite but overflows their sum."""

    class Poisoned(type(force)):
        def bind(self, rows, acc):
            stage = super().bind(rows, acc)
            first = [True]

            def poisoned(i, t):
                stage(i, t)
                if first:
                    first.clear()
                    (acc[0] if row == "derivative" else rows[0, acc.shape[1]:])[...] += value

            return poisoned

    poisoned = copy.copy(force)
    poisoned.__class__ = Poisoned
    return poisoned


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pair", [False, True])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1e308, -0.0, 5e-324])
def test_stage_finiteness_check_is_exact_on_the_built_in_laws(pair, value):
    force, s0 = _built_in_force(pair)
    cfg = IntegratorConfig(t_span=(0.0, 0.5), sample_count=11)
    clean = integrate(force, s0, cfg)

    # a non-finite acceleration trips the initial derivative: an Overflow
    # at t0; 1e308 passes there, and the stages formed from it overflow
    if value in (-0.0, 5e-324):  # adding it changes no acceleration
        run = integrate(_poisoned(force, "derivative", value), s0, cfg)
        assert run.metadata == clean.metadata
        assert np.array_equal(run.positions, clean.positions)
    elif value == 1e308:
        with pytest.raises(OriginCollisionError) as info:
            integrate(_poisoned(force, "derivative", value), s0, cfg)
        assert info.value.time > 0.0
    else:
        with pytest.raises(BlowupError) as info:
            integrate(_poisoned(force, "derivative", value), s0, cfg)
        assert info.value.code == "Overflow" and info.value.time == 0.0
        assert str(info.value) == (
            "the initial state overflows the force law at t = 0.0 (non-finite derivative)"
        )

    # a non-finite velocity in the solution makes every later stage input
    # non-finite; 1e308 passes the stage check, and the force law overflows
    if value in (-0.0, 5e-324):
        run = integrate(_poisoned(force, "state", value), s0, cfg)
        assert run.metadata == clean.metadata
        assert np.array_equal(run.positions, clean.positions)
        return
    with pytest.raises(OriginCollisionError) as info:
        integrate(_poisoned(force, "state", value), s0, cfg)
    cause = "non-finite derivative" if value == 1e308 else "non-finite stage state"
    assert info.value.code == "OriginCollision"
    assert str(info.value) == (
        f"trajectory entered the singularity guard near t = {info.value.time:.6g} ({cause})"
    )


@pytest.mark.parametrize("pair", [False, True])
def test_bound_rows_do_not_leak_between_runs(pair):
    force, s0 = _built_in_force(pair)
    cfg = IntegratorConfig(t_span=(0.0, 1.0), sample_count=21)
    other = IntegratorConfig(t_span=(0.0, -0.7), sample_count=9, rtol=1e-7)
    first = integrate(force, s0, cfg)
    kept = [a.copy() for a in (first.times, first.positions, first.velocities)]
    second = integrate(force, s0, other)
    fresh = [integrate(_built_in_force(pair)[0], s0, c) for c in (cfg, other)]
    for run, want in zip((first, second), fresh):
        assert run.metadata == want.metadata
        for name in ("times", "positions", "velocities"):
            assert np.array_equal(getattr(run, name), getattr(want, name))
    # the first trajectory does not share the second run's buffers
    for a, b in zip(kept, (first.times, first.positions, first.velocities)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("pair", [False, True])
def test_a_run_nested_in_a_stage_leaves_the_outer_run_unchanged(pair):
    force, s0 = _built_in_force(pair)
    if pair:
        spec = PairSpec(base=random_couplings(np.random.default_rng(5), 2), lam=np.zeros(2), omega=np.ones(2))
        law = lambda t, s: rhs_pair(spec, s)
    else:
        c = random_couplings(np.random.default_rng(5), 2)
        law = lambda t, s: rhs_base(c, s)
    inner_cfg = IntegratorConfig(t_span=(0.0, 0.05), sample_count=3)
    inner_runs = []

    def nesting(t, s):
        # two runs inside the stage, from its state: the built-in law and this rhs's own
        inner_runs.append(integrate(force, s, inner_cfg).metadata["stats"]["rhs_evaluations"])
        integrate(law, s, inner_cfg)
        return law(t, s)

    cfg = IntegratorConfig(t_span=(0.0, 0.4), sample_count=5)
    nested = integrate(nesting, s0, cfg)
    plain = integrate(law, s0, cfg)
    assert len(inner_runs) == plain.metadata["stats"]["rhs_evaluations"]
    assert nested.metadata == plain.metadata
    assert np.array_equal(nested.positions, plain.positions)
    assert np.array_equal(nested.velocities, plain.velocities)


def test_dense_output_coefficients_equal_scipy_rk45():
    rk = pytest.importorskip("scipy.integrate")
    from planebody.integrate import _DP_P

    want = np.asarray(rk.RK45.P, dtype=np.float64)
    assert _DP_P.shape == want.shape == (7, 4)
    assert np.array_equal(_DP_P.view(np.int64), want.view(np.int64))  # 0 ulp


@pytest.mark.parametrize("pair", [False, True])
def test_interpolant_at_theta_one_is_the_accepted_state(pair):
    # a run's last rhs call is the last stage of its final accepted step,
    # whose input is the accepted state at t1; the last sample is that
    # step's interpolant at theta = 1
    _, s0 = _built_in_force(pair)
    c = random_couplings(np.random.default_rng(8), 2)
    if pair:
        spec = PairSpec(base=c, lam=np.array([0.2, -0.1]), omega=np.array([0.8, 1.4]))
        law = lambda t, s: rhs_pair(spec, s)
        packed = lambda s: np.concatenate([s.plus.positions, s.minus.positions,
                                           s.plus.velocities, s.minus.velocities])
    else:
        law = lambda t, s: rhs_base(c, s)
        packed = lambda s: np.concatenate([s.positions, s.velocities])
    inputs = []

    def recording(t, s):
        inputs.append(packed(s))
        return law(t, s)

    traj = integrate(recording, s0, IntegratorConfig(t_span=(0.0, 1.5), sample_count=2, h_max=1.5))
    assert traj.metadata["stats"]["accepted"] > 3  # the last step is not the first
    sampled = np.concatenate([traj.positions[-1], traj.velocities[-1]])
    accepted = inputs[-1]
    scale = float(np.max(np.abs(accepted)))
    assert np.max(np.abs(sampled - accepted)) <= 8 * np.finfo(float).eps * scale


def test_built_in_force_of_the_wrong_size_is_rejected():
    cfg = IntegratorConfig(t_span=(0.0, 1.0), sample_count=3)
    s1 = PlaneState([[1.0, 0.0]], [[0.0, 1.0]])
    with pytest.raises(ValueError, match="does not fit the initial state"):
        integrate(_PlaneForce(zero_couplings(2)), s1, cfg)
    p = PairSpec(base=zero_couplings(1), lam=np.zeros(1), omega=np.zeros(1))
    with pytest.raises(ValueError, match="does not fit the initial state"):
        integrate(_PairForce(p), s1, cfg)


def test_compare_of_unequal_shapes():
    times = np.linspace(0.0, 1.0, 3)
    one = [PlaneState([[2.0, 0.0]], [[0.0, 1.0]]) for _ in times]
    two = [PlaneState([[2.0, 0.0], [0.0, 2.0]], np.zeros((2, 2))) for _ in times]
    with pytest.raises(GridMismatchError, match="trajectory shapes differ"):
        compare(trajectory_from_states(times, one), trajectory_from_states(times, two))


class _Runaway(Exception):
    """Raised by a counting rhs once a run has taken far too many stages."""


def _counting_rhs(rhs):
    calls = []

    def counted(t, s):
        calls.append(t)
        if len(calls) > 10_000:
            raise _Runaway("10,000 force evaluations")
        return rhs(t, s)

    return counted


def test_a_step_that_cannot_move_t_is_a_step_underflow():
    # floats near 1e15 are 0.125 apart, so the first step (1e-3), and any
    # the controller takes on this circle, leaves t + h == t
    c = zero_couplings(1)
    s0 = PlaneState([[1.0, 0.0]], [[0.0, 1.0]])
    cfg = IntegratorConfig(t_span=(1e15, 1e15 + 1.0), sample_count=7)
    with pytest.raises(StepUnderflowError, match="no longer changes t") as info:
        integrate(_counting_rhs(lambda t, s: rhs_base(c, s)), s0, cfg)
    assert info.value.time == 1e15


def test_a_guard_trip_whose_halved_step_cannot_move_t_is_a_collision():
    # the step 0.1 moves only its last stages off t = 1e15, which trip the
    # guard; half of it no longer changes t
    c = zero_couplings(1)

    def rhs(t, s):
        if t > 1e15:
            raise OriginError("stage past the start")
        return rhs_base(c, s)

    s0 = PlaneState([[1.0, 0.0]], [[0.0, 1.0]])
    cfg = IntegratorConfig(h_init=0.1, t_span=(1e15, 1e15 + 1.0), sample_count=7)
    with pytest.raises(OriginCollisionError, match="stage past the start") as info:
        integrate(_counting_rhs(rhs), s0, cfg)
    assert info.value.time == 1e15 + 0.125


def test_the_sample_count_does_not_move_the_steps():
    # the tolerances alone set the step; the grid is read off each
    # step's interpolant, so a finer grid samples the same run
    c, s0 = circle_setup()
    runs = [
        integrate(lambda t, s: rhs_base(c, s), s0, IntegratorConfig(t_span=(0.0, 8.0), sample_count=m))
        for m in (33, 257)
    ]
    coarse, fine = runs
    assert coarse.metadata["stats"] == fine.metadata["stats"]
    assert np.array_equal(fine.times[::8], coarse.times)
    assert np.max(np.abs(fine.positions[::8] - coarse.positions)) <= 1e-15
    assert np.max(np.abs(fine.velocities[::8] - coarse.velocities)) <= 1e-15
