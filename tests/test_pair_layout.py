"""A pair state is the plane state of its 2n particles, plus family first."""
import dataclasses

import numpy as np
import pytest

from planebody import PairSpec, PairState, PlaneState, pair_solve
from planebody.exact import _pair_states
from planebody.integrate import IntegratorConfig, integrate
from planebody.model import _PairForce

from _util import random_couplings, random_state


def _pair(rng, n):
    plus = random_state(rng, n)
    minus = PlaneState(plus.positions + 2.0, rng.standard_normal((n, 2)))
    return plus, minus, PairState(plus=plus, minus=minus)


def test_pair_state_stacks_plus_before_minus():
    plus, minus, s = _pair(np.random.default_rng(7), 3)
    assert s.positions.shape == s.velocities.shape == (6, 2)
    assert np.array_equal(s.positions, np.concatenate([plus.positions, minus.positions]))
    assert np.array_equal(s.velocities, np.concatenate([plus.velocities, minus.velocities]))
    assert s.n == 3


def test_pair_families_are_read_only_views_of_the_stacked_arrays():
    _, _, s = _pair(np.random.default_rng(8), 2)
    for family, rows in ((s.plus, slice(0, 2)), (s.minus, slice(2, 4))):
        assert isinstance(family, PlaneState)
        for half, whole in ((family.positions, s.positions), (family.velocities, s.velocities)):
            assert half.base is whole or np.shares_memory(half, whole)
            assert np.array_equal(half, whole[rows])
            assert not half.flags.writeable
    assert not s.positions.flags.writeable and not s.velocities.flags.writeable
    with pytest.raises(ValueError):
        s.plus.positions[0, 0] = 1.0


def test_pair_state_copies_the_families_it_is_given():
    plus, minus, s = _pair(np.random.default_rng(9), 2)
    assert not np.shares_memory(s.positions, plus.positions)
    assert not np.shares_memory(s.velocities, minus.velocities)


@pytest.mark.parametrize("route", ["closed form", "integrator"])
def test_a_pair_sample_shares_memory_with_its_trajectory(route):
    rng = np.random.default_rng(10)
    n = 2
    p = PairSpec(base=random_couplings(rng, n), lam=np.array([0.1, -0.2]), omega=np.array([1.0, 0.5]))
    _, _, s0 = _pair(rng, n)
    cfg = IntegratorConfig(t_span=(0.0, 0.5), sample_count=11)
    if route == "closed form":
        traj = _pair_states(pair_solve(p, s0), cfg.sample_times())
    else:
        traj = integrate(_PairForce(p), s0, cfg)
    assert traj.pair
    for i in (0, 5, 10):
        st = traj[i]
        assert isinstance(st, PairState)
        assert np.shares_memory(st.positions, traj.positions)
        assert np.shares_memory(st.velocities, traj.velocities)
        assert np.shares_memory(st.plus.positions, traj.positions)
        assert np.shares_memory(st.minus.velocities, traj.velocities)
        assert np.array_equal(st.positions, traj.positions[i])
        assert np.array_equal(st.minus.velocities, traj.velocities[i, n:])


def test_pair_state_fields_are_the_stacked_arrays():
    _, _, s = _pair(np.random.default_rng(11), 2)
    assert [f.name for f in dataclasses.fields(s)] == ["positions", "velocities"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.plus = s.minus
