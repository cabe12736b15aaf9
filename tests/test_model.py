"""State containers and the four force evaluators."""
import math

import numpy as np
import pytest

from planebody import (
    ComplexState,
    CouplingSpec,
    GeneralizedParams,
    OriginError,
    PairCollisionError,
    PairSpec,
    PairState,
    PlaneState,
    alpha_matrix,
    from_complex,
    perp,
    rhs_base,
    rhs_complex,
    rhs_generalized,
    rhs_pair,
    to_complex,
    zero_couplings,
)
from planebody.linalg import MAX_DIMENSION
from planebody.model import ORIGIN_GUARD_RATIO, _accelerations, check_origin_guard

from _util import random_couplings, random_state


def complex_acc(c, s, g=None, t=0.0):
    """Reference accelerations straight from the complex growth-rate law."""
    cs = to_complex(s)
    f = cs.zdot / cs.z
    alpha = alpha_matrix(c)
    acc = cs.zdot * f + cs.z * (alpha @ f)
    if g is not None:
        eta = g.lam + 1j * g.omega
        acc = acc + eta * cs.zdot + cs.z * ((alpha * np.exp(eta * t)) @ f) - cs.z * (alpha @ f)
    return np.stack([acc.real, acc.imag], axis=1)


def test_perp_quarter_turn():
    v = np.array([[1.0, 2.0], [-3.0, 0.5]])
    assert np.array_equal(perp(v), [[-2.0, 1.0], [-0.5, -3.0]])
    assert np.array_equal(perp(perp(v)), -v)


def test_coupling_validation():
    with pytest.raises(ValueError):
        CouplingSpec(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        CouplingSpec(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        CouplingSpec([[np.inf]], [[0.0]])
    c = zero_couplings(2)
    with pytest.raises(ValueError):
        c.beta[0, 0] = 1.0  # frozen


def test_state_validation():
    with pytest.raises(ValueError):
        PlaneState([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        PlaneState([[1.0, 0.0]], [[np.nan, 0.0]])
    s = PlaneState([[1.0, 2.0]], [[0.0, 0.0]])
    assert s.n == 1
    with pytest.raises(OriginError):
        ComplexState([0.0 + 0.0j], [1.0 + 0.0j])


def test_complex_roundtrip():
    rng = np.random.default_rng(20)
    for _ in range(10):
        s = random_state(rng, 4)
        back = from_complex(to_complex(s))
        assert np.array_equal(back.positions, s.positions)
        assert np.array_equal(back.velocities, s.velocities)


def test_origin_guard():
    with pytest.raises(OriginError):
        check_origin_guard(np.array([[0.0, 0.0], [1.0, 0.0]]))
    # relative guard: 1e-13 is tiny next to a unit-radius particle
    with pytest.raises(OriginError):
        check_origin_guard(np.array([[1e-13, 0.0], [1.0, 0.0]]))
    check_origin_guard(np.array([[1e-6, 0.0], [1.0, 0.0]]))  # fine
    with pytest.raises(OriginError):
        to_complex(PlaneState([[0.0, 0.0]], [[1.0, 0.0]]))


def test_rhs_base_frozen_single():
    # z = 2, z' = 1+i, beta = 3: z'' = (1+i)^2/2 + 3(1+i) = 3+4i
    c = CouplingSpec([[3.0]], [[0.0]])
    s = PlaneState([[2.0, 0.0]], [[1.0, 1.0]])
    assert np.allclose(rhs_base(c, s), [[3.0, 4.0]], atol=1e-14)
    # with gamma = 1 the coupling is 3+i: z'' = i + (3+i)(1+i) = 2+5i
    c = CouplingSpec([[3.0]], [[1.0]])
    assert np.allclose(rhs_base(c, s), [[2.0, 5.0]], atol=1e-14)


def test_rhs_base_frozen_pairwise():
    # z = (1, i), z' = (i, 1), alpha = [[0, 1], [0, 0]]:
    # z''_1 = -1 + z_1 z'_2 / z_2 = -1 - i, z''_2 = 1/i = -i
    c = CouplingSpec([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)))
    s = PlaneState([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(rhs_base(c, s), [[-1.0, -1.0], [0.0, -1.0]], atol=1e-14)


def test_rhs_base_matches_complex_law():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        c = random_couplings(rng, n)
        s = random_state(rng, n)
        assert np.max(np.abs(rhs_base(c, s) - complex_acc(c, s))) < 1e-12


def test_rhs_complex_matches_real():
    rng = np.random.default_rng(22)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        c = random_couplings(rng, n)
        s = random_state(rng, n)
        acc = rhs_complex(c, to_complex(s))
        real = rhs_base(c, s)
        assert np.max(np.abs(acc.real - real[:, 0])) < 1e-12
        assert np.max(np.abs(acc.imag - real[:, 1])) < 1e-12


def test_rhs_generalized_frozen_at_zero():
    c = CouplingSpec([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)))
    s = PlaneState([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]])
    g = GeneralizedParams(lam=2.0, omega=3.0)
    assert np.allclose(rhs_generalized(c, g, 0.0, s), [[-4.0, 1.0], [2.0, 2.0]], atol=1e-14)


def test_rhs_generalized_matches_complex_law():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        c = random_couplings(rng, n)
        s = random_state(rng, n)
        g = GeneralizedParams(lam=float(rng.normal()) * 0.5, omega=float(rng.normal()))
        t = float(rng.uniform(-2.0, 2.0))
        assert np.max(np.abs(rhs_generalized(c, g, t, s) - complex_acc(c, s, g, t))) < 1e-11


def test_rhs_generalized_reduces_to_base():
    rng = np.random.default_rng(24)
    c = random_couplings(rng, 3)
    s = random_state(rng, 3)
    g = GeneralizedParams(0.0, 0.0)
    assert np.array_equal(rhs_generalized(c, g, 1.7, s), rhs_base(c, s))


def test_rhs_pair_splits_center_and_difference():
    rng = np.random.default_rng(25)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        c = random_couplings(rng, n)
        p = PairSpec(base=c, lam=rng.standard_normal(n), omega=rng.standard_normal(n))
        sp = random_state(rng, n)
        sm = PlaneState(sp.positions + rng.standard_normal((n, 2)) + 3.0,
                        rng.standard_normal((n, 2)))
        s = PairState(plus=sp, minus=sm)
        acc_p, acc_m = rhs_pair(p, s)
        # sums follow the per-pair linear center law
        vsum = sp.velocities + sm.velocities
        center = p.lam[:, None] * vsum + p.omega[:, None] * perp(vsum)
        assert np.max(np.abs((acc_p + acc_m) - center)) < 1e-12
        # differences follow the base law
        diff = PlaneState(sp.positions - sm.positions, sp.velocities - sm.velocities)
        assert np.max(np.abs((acc_p - acc_m) - rhs_base(c, diff))) < 1e-11


def test_rhs_pair_translation_invariant():
    rng = np.random.default_rng(26)
    n = 3
    c = random_couplings(rng, n)
    p = PairSpec(base=c, lam=rng.standard_normal(n), omega=rng.standard_normal(n))
    sp = random_state(rng, n)
    sm = PlaneState(sp.positions + 2.0, rng.standard_normal((n, 2)))
    shift = np.array([17.0, -4.0])
    s = PairState(plus=sp, minus=sm)
    s2 = PairState(
        plus=PlaneState(sp.positions + shift, sp.velocities),
        minus=PlaneState(sm.positions + shift, sm.velocities),
    )
    a1 = rhs_pair(p, s)
    a2 = rhs_pair(p, s2)
    assert np.max(np.abs(a1[0] - a2[0])) < 1e-12
    assert np.max(np.abs(a1[1] - a2[1])) < 1e-12


def test_pair_collision_rejected():
    pos = np.array([[1.0, 0.0], [0.0, 1.0]])
    vel = np.zeros((2, 2))
    with pytest.raises(PairCollisionError):
        PairState(plus=PlaneState(pos, vel), minus=PlaneState(pos.copy(), vel))
    # near-coincidence relative to the pair scale trips the guard in the force
    p = PairSpec(base=zero_couplings(2), lam=np.zeros(2), omega=np.zeros(2))
    s = PairState(
        plus=PlaneState([[1.0, 0.0], [5.0, 0.0]], vel),
        minus=PlaneState([[1.0 + 1e-14, 0.0], [0.0, 0.0]], vel),
    )
    with pytest.raises(PairCollisionError):
        rhs_pair(p, s)


def test_size_mismatch_rejected():
    c = zero_couplings(2)
    s = PlaneState([[1.0, 0.0]], [[0.0, 0.0]])
    with pytest.raises(ValueError):
        rhs_base(c, s)
    with pytest.raises(ValueError):
        rhs_generalized(c, GeneralizedParams(1.0, 0.0), 0.0, s)


def _rotate(a, angle):
    c, s = np.cos(angle), np.sin(angle)
    return a @ np.array([[c, s], [-s, c]])


def _rel_dev(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_force_law_rotation_invariant():
    rng = np.random.default_rng(27)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        angle = float(rng.uniform(0.0, 2.0 * np.pi))
        c = random_couplings(rng, n)
        s = random_state(rng, n)
        turned = PlaneState(_rotate(s.positions, angle), _rotate(s.velocities, angle))
        assert _rel_dev(rhs_base(c, turned), _rotate(rhs_base(c, s), angle)) < 1e-12
        g = GeneralizedParams(lam=float(rng.normal()) * 0.5, omega=float(rng.normal()))
        t = float(rng.uniform(-2.0, 2.0))
        assert _rel_dev(
            rhs_generalized(c, g, t, turned), _rotate(rhs_generalized(c, g, t, s), angle)
        ) < 1e-12
        p = PairSpec(base=c, lam=rng.standard_normal(n), omega=rng.standard_normal(n))
        sm = PlaneState(s.positions + rng.standard_normal((n, 2)) + 3.0,
                        rng.standard_normal((n, 2)))
        pair = PairState(plus=s, minus=sm)
        pair_turned = PairState(
            plus=turned,
            minus=PlaneState(_rotate(sm.positions, angle), _rotate(sm.velocities, angle)),
        )
        for acc_turned, acc in zip(rhs_pair(p, pair_turned), rhs_pair(p, pair)):
            assert _rel_dev(acc_turned, _rotate(acc, angle)) < 1e-12


@pytest.mark.parametrize("scale", [1e100, 1e-100])
def test_rhs_base_homogeneous_of_degree_one(scale):
    # huge and tiny but representable states stay finite in every intermediate
    rng = np.random.default_rng(28)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        c = random_couplings(rng, n)
        s = random_state(rng, n)
        scaled = rhs_base(c, PlaneState(scale * s.positions, scale * s.velocities))
        assert np.all(np.isfinite(scaled))
        assert _rel_dev(scaled, scale * rhs_base(c, s)) < 1e-13


@pytest.mark.parametrize("n", [32, 64])
def test_rhs_base_matches_complex_law_many_particles(n):
    rng = np.random.default_rng(29 + n)
    for _ in range(5):
        c = random_couplings(rng, n)
        s = random_state(rng, n)
        real = rhs_base(c, s)
        assert _rel_dev(real, complex_acc(c, s)) < 1e-12
        acc = rhs_complex(c, to_complex(s))
        assert _rel_dev(real, np.stack([acc.real, acc.imag], axis=1)) < 1e-12


def _sqrt_form_trips(positions):
    """The guard's decision in its square-root form: min r < RATIO * max r."""
    radii = np.sqrt(np.sum(positions * positions, axis=1))
    return bool(radii.min() == 0.0 or radii.min() < ORIGIN_GUARD_RATIO * radii.max())


# (scale, relative distance of "just below" and "just above" from 1e-12);
# at 1e-145, RATIO**2 * max r**2 is about 1e-314, a subnormal with about
# 5e-10 relative spacing, so the margin there is wider
@pytest.mark.parametrize("scale, margin", [(1e-100, 1e-9), (1.0, 1e-9), (1e100, 1e-9), (1e-145, 1e-6)])
@pytest.mark.parametrize("side", [None, -1.0, 1.0])
def test_squared_guard_decides_as_the_square_root_form(scale, margin, side):
    # particle 2 sits at radius ratio 0 (side None) or 1e-12 * (1 -/+ margin)
    # next to a particle of radius 1 and one of radius 0.5, all times scale
    ratio = 0.0 if side is None else ORIGIN_GUARD_RATIO * (1.0 + side * margin)
    positions = scale * np.array([[0.0, 1.0], [0.6 * ratio, 0.8 * ratio], [0.3, -0.4]])
    want = _sqrt_form_trips(positions)
    assert want == (side != 1.0)
    if not want:
        check_origin_guard(positions)
        return
    with pytest.raises(OriginError) as info:
        check_origin_guard(positions)
    radii = np.sqrt(np.sum(positions * positions, axis=1))
    # the message reports the unsquared radius and scale
    assert str(info.value) == (
        f"particle 2 radius {radii[1]:.3e} is inside the origin guard (scale {radii[0]:.3e})"
    )


def test_kernel_on_strided_inputs_matches_contiguous_copies():
    rng = np.random.default_rng(30)
    c = random_couplings(rng, 5)
    alpha = alpha_matrix(c)
    s = random_state(rng, 10)
    # every other particle: rows are (x, y) pairs but the array is strided
    r, v = s.positions[::2], s.velocities[::2]
    assert not r.flags.c_contiguous and not v.flags.c_contiguous
    want = _accelerations(alpha, r.copy(), v.copy())
    assert np.array_equal(_accelerations(alpha, r, v), want)
    # column-major: x and y of one particle are not adjacent at all
    fr, fv = np.asfortranarray(r), np.asfortranarray(v)
    assert not fr.flags.c_contiguous
    assert np.array_equal(_accelerations(alpha, fr, fv), want)
    assert np.array_equal(want, rhs_base(c, PlaneState(r, v)))
    # the inputs are viewed, never written
    assert np.array_equal(r, s.positions[::2]) and np.array_equal(v, s.velocities[::2])


@pytest.mark.parametrize("n", [1, 2, 64])
def test_kernel_agrees_with_rhs_complex(n):
    rng = np.random.default_rng(31 + n)
    for _ in range(5):
        c = random_couplings(rng, n)
        s = random_state(rng, n)
        acc = _accelerations(alpha_matrix(c), s.positions, s.velocities)
        assert acc.shape == (n, 2) and acc.dtype == np.float64
        ref = rhs_complex(c, to_complex(s))
        assert _rel_dev(acc, np.stack([ref.real, ref.imag], axis=1)) < 1e-12


def _reduction_reference(r2):
    """check_origin_guard's decision and message through np.min / np.max."""
    low, high = np.min(r2), np.max(r2)
    if low == 0.0 or low < ORIGIN_GUARD_RATIO ** 2 * high:
        j = int(np.argmin(r2))
        return (
            f"particle {j + 1} radius {math.sqrt(low):.3e} is inside the origin guard "
            f"(scale {math.sqrt(high):.3e})"
        )
    return None


def _guard_outcome(r2):
    try:
        check_origin_guard(None, r2=r2)
    except OriginError as exc:
        return str(exc)
    return None


def test_guard_reduction_decides_as_numpy_min_and_max():
    rng = np.random.default_rng(64)
    threshold = ORIGIN_GUARD_RATIO ** 2
    cases = []
    for length in range(1, MAX_DIMENSION + 1):
        # squared radii spread over the whole exponent range, and with
        # ties, exact zeros, subnormals and inf dropped in
        r2 = 10.0 ** rng.uniform(-320.0, 308.0, length)
        cases.append(r2)
        for special in (0.0, 5e-324, 2.2e-308, math.inf, r2.max(), r2.min()):
            spiked = r2.copy()
            spiked[rng.integers(length, size=1 + length // 3)] = special
            cases.append(spiked)
        cases.append(np.full(length, r2[0]))
        # one squared radius at 1e-24 times the largest, and one ulp
        # either side of it
        for scale in (1e-280, 1e-100, 1.0, 1e100, 1e280):
            r2 = scale * rng.uniform(1.0, 2.0, length)
            edge = threshold * r2.max()
            for value in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf)):
                near = r2.copy()
                near[rng.integers(length)] = value
                cases.append(near)
    decided = [_reduction_reference(r2) is not None for r2 in cases]
    assert 0 < sum(decided) < len(cases)
    for r2 in cases:
        assert _guard_outcome(r2) == _reduction_reference(r2)


def test_parameter_containers_reject_bad_fields():
    with pytest.raises(ValueError, match="lam must be finite"):
        GeneralizedParams(lam=math.inf)
    with pytest.raises(ValueError, match="base must be a CouplingSpec"):
        PairSpec(base=np.zeros((2, 2)), lam=np.zeros(2), omega=np.zeros(2))
    one = PlaneState([[1.0, 0.0]], [[0.0, 0.0]])
    two = PlaneState([[2.0, 0.0], [0.0, 2.0]], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="must be PlaneState instances"):
        PairState(plus=to_complex(one), minus=one)
    with pytest.raises(ValueError, match="family sizes differ"):
        PairState(plus=two, minus=one)


def test_complex_and_pair_laws_reject_a_state_of_the_wrong_size():
    one = PlaneState([[1.0, 0.0]], [[0.0, 0.0]])
    with pytest.raises(ValueError, match="does not match state size"):
        rhs_complex(zero_couplings(2), to_complex(one))
    p = PairSpec(base=zero_couplings(2), lam=np.zeros(2), omega=np.zeros(2))
    with pytest.raises(ValueError, match="does not match state size"):
        rhs_pair(p, PairState(plus=one, minus=PlaneState([[-1.0, 0.0]], [[0.0, 0.0]])))


def test_rhs_complex_trips_its_relative_origin_guard():
    # 1e-14 is not exactly the origin, so the state is built, but it is
    # inside the guard next to a unit-radius particle
    s = ComplexState([1e-14 + 0.0j, 1.0 + 0.0j], [0.0j, 1.0j])
    with pytest.raises(OriginError, match="inside the origin guard"):
        rhs_complex(zero_couplings(2), s)


def test_complex_round_trip_keeps_the_sign_of_zero():
    s = PlaneState([[-0.0, 1.0], [2.0, -0.0]], [[-0.0, -0.0], [0.5, -0.0]])
    back = from_complex(to_complex(s))
    for got, want in ((back.positions, s.positions), (back.velocities, s.velocities)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
