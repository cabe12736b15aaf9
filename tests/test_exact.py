"""Closed-form engine: phi1, spectral solutions, time substitution, pairs."""
import math

import mpmath
import numpy as np
import pytest

from planebody import (
    BlowupError,
    CouplingSpec,
    DefectiveMatrixError,
    GeneralizedParams,
    IntegratorConfig,
    OriginError,
    PairSpec,
    PairState,
    PlaneState,
    SimilaritySpec,
    eval_f,
    eval_generalized,
    eval_pair,
    eval_pair_solution,
    eval_z,
    exact_states,
    integrate,
    pair_solve,
    phi1,
    rhs_complex,
    rhs_generalized,
    rhs_pair,
    row_sums_zero,
    similarity_trajectory,
    spectral_solve,
    to_complex,
    trajectory_from_states,
    zero_couplings,
)
from planebody.exact import (
    CenterSolution,
    _center_grid,
    _cexp,
    _check_grid,
    _pair_rules,
    _phi1_exp,
    _reduced_phase,
    _time_substitution,
    eval_center,
    tau_map,
)
from planebody.model import ComplexState, alpha_matrix

from _util import count_frozen_arrays, random_couplings, random_state


def mp_phi1(x: complex) -> complex:
    with mpmath.workdps(50):
        mx = mpmath.mpc(x)
        if mx == 0:
            return 1.0 + 0.0j
        return complex(mpmath.expm1(mx) / mx)


def test_phi1_frozen_values():
    assert phi1(0.0) == 1.0 + 0.0j
    assert abs(phi1(1.0) - (math.e - 1.0)) < 1e-15
    assert abs(phi1(-1.0) - (1.0 - 1.0 / math.e)) < 1e-15
    # (exp(i pi) - 1)/(i pi) = 2i/pi
    assert abs(phi1(1j * math.pi) - 2j / math.pi) < 1e-15


def test_phi1_matches_mpmath():
    rng = np.random.default_rng(30)
    for _ in range(200):
        r = 10.0 ** rng.uniform(-8.0, 2.0)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        x = r * complex(np.cos(ang), np.sin(ang))
        ref = mp_phi1(x)
        assert abs(phi1(x) - ref) <= 5e-15 * abs(ref)


def test_phi1_branch_seam():
    # the series and expm1 branches must agree to a few ulp at the switch
    rng = np.random.default_rng(31)
    for _ in range(200):
        r = 1e-4 * (1.0 + rng.uniform(-0.02, 0.02))
        ang = rng.uniform(0.0, 2.0 * np.pi)
        x = r * complex(np.cos(ang), np.sin(ang))
        ref = mp_phi1(x)
        assert abs(phi1(x) - ref) <= 1e-15 * abs(ref)


def test_phi1_small_argument_expansion():
    rng = np.random.default_rng(32)
    for _ in range(100):
        r = 10.0 ** rng.uniform(-9.0, -6.0)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        x = r * complex(np.cos(ang), np.sin(ang))
        # x^2/6 plus an ulp of the unit-sized result
        assert abs(phi1(x) - (1.0 + x / 2.0)) <= abs(x) ** 2 / 5.0 + 5e-16


def test_phi1_array_input():
    x = np.array([0.0, 1.0, 1e-6, 1j * np.pi])
    out = phi1(x)
    assert out.shape == (4,)
    assert out[0] == 1.0
    assert abs(out[3] - 2j / np.pi) < 1e-15


def test_spectral_circle():
    # no coupling, z0 = 1, z'0 = i: unit circle z = exp(i t)
    sol = spectral_solve(zero_couplings(1), to_complex(PlaneState([[1.0, 0.0]], [[0.0, 1.0]])))
    assert np.allclose(sol.eigenvalues, [0.0], atol=1e-15)
    for t in (0.3, 1.7, np.pi, 2.0 * np.pi, -2.4):
        st = eval_z(sol, t)
        assert abs(st.z[0] - np.exp(1j * t)) < 1e-14
        assert abs(st.zdot[0] - 1j * np.exp(1j * t)) < 1e-14


def test_spectral_initial_conditions_reproduced():
    rng = np.random.default_rng(33)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        c = random_couplings(rng, n)
        cs = to_complex(random_state(rng, n))
        sol = spectral_solve(c, cs)
        st0 = eval_z(sol, 0.0)
        assert np.array_equal(st0.z, cs.z)  # bitwise: exponent is exactly zero
        assert np.max(np.abs(st0.zdot - cs.zdot)) < 1e-13 * max(1.0, np.max(np.abs(cs.zdot)))
        f0 = eval_f(sol, 0.0)
        assert np.max(np.abs(f0 - cs.zdot / cs.z)) < 1e-12


def test_eval_f_satisfies_linear_law():
    # centered difference of f against A f
    rng = np.random.default_rng(34)
    c = CouplingSpec(np.zeros((2, 2)), np.diag([5.0, 7.0]))
    cs = to_complex(random_state(rng, 2))
    sol = spectral_solve(c, cs)
    a = alpha_matrix(c)
    h = 1e-4
    for t in (0.0, 0.4, 1.3):
        fd = (eval_f(sol, t + h) - eval_f(sol, t - h)) / (2.0 * h)
        law = a @ eval_f(sol, t)
        assert np.max(np.abs(fd - law)) < 5e-6


def test_eval_z_satisfies_equation_of_motion():
    rng = np.random.default_rng(35)
    for _ in range(15):
        n = int(rng.integers(1, 6))
        c = random_couplings(rng, n)
        cs = to_complex(random_state(rng, n))
        sol = spectral_solve(c, cs)
        h = 1e-3
        for t in (0.2, 0.9):
            zp, z0, zm = (eval_z(sol, t + h), eval_z(sol, t), eval_z(sol, t - h))
            fd_acc = (zp.z - 2.0 * z0.z + zm.z) / h**2
            fd_vel = (zp.z - zm.z) / (2.0 * h)
            acc = rhs_complex(c, z0)
            scale = max(1.0, float(np.max(np.abs(acc))))
            assert np.max(np.abs(fd_acc - acc)) < 1e-4 * scale
            assert np.max(np.abs(fd_vel - z0.zdot)) < 1e-5 * max(1.0, np.max(np.abs(z0.zdot)))


def test_eval_z_residual_quadratic_in_h():
    # halving h must cut the finite-difference defect by about 4; the
    # couplings are strong enough that truncation dominates roundoff
    c = CouplingSpec(np.zeros((2, 2)), np.diag([5.0, 7.0]))
    s = PlaneState([[1.0, 0.0], [0.0, 1.0]], [[0.1, 1.0], [-1.0, 0.2]])
    sol = spectral_solve(c, to_complex(s))

    def residual(h, t=0.6):
        zp, z0, zm = (eval_z(sol, t + h), eval_z(sol, t), eval_z(sol, t - h))
        fd = (zp.z - 2.0 * z0.z + zm.z) / h**2
        return float(np.max(np.abs(fd - rhs_complex(c, z0))))

    r1 = residual(1e-3)
    r2 = residual(5e-4)
    assert r1 < 2e-4
    assert 3.2 < r1 / r2 < 4.8


def test_double_exponential_growth_frozen():
    # coupling 1, z0 = 1, z'0 = 1: log z(t) = exp(t) - 1 exactly
    c = CouplingSpec([[1.0]], [[0.0]])
    sol = spectral_solve(c, to_complex(PlaneState([[1.0, 0.0]], [[1.0, 0.0]])))
    for t in (1.0, 2.0, 3.0):
        st = eval_z(sol, t)
        assert abs(math.log(abs(st.z[0])) - math.expm1(t)) < 1e-10


def test_blowup_guard_both_directions():
    c = CouplingSpec([[1.0]], [[0.0]])
    sol = spectral_solve(c, to_complex(PlaneState([[1.0, 0.0]], [[1.0, 0.0]])))
    with pytest.raises(BlowupError) as info:
        eval_z(sol, 7.0)  # exp(7) - 1 > 700
    assert "escape" in str(info.value)
    assert info.value.time == 7.0
    sol = spectral_solve(c, to_complex(PlaneState([[1.0, 0.0]], [[-1.0, 0.0]])))
    with pytest.raises(BlowupError) as info:
        eval_z(sol, 7.0)
    assert "collapse" in str(info.value)
    # just inside the limit still evaluates
    st = eval_z(sol, math.log(699.0))
    assert np.isfinite(st.z[0])


def test_spectral_solve_guards():
    c = zero_couplings(2)
    with pytest.raises(OriginError):
        spectral_solve(c, to_complex(PlaneState([[1e-14, 0.0], [1.0, 0.0]], np.zeros((2, 2)))))
    with pytest.raises(ValueError):
        spectral_solve(zero_couplings(3), to_complex(PlaneState([[1.0, 0.0]], [[0.0, 0.0]])))


def test_degenerate_representable():
    # rank-deficient coupling with uniform log-derivative: still solvable
    c = CouplingSpec([[1.0, -1.0], [1.0, -1.0]], np.zeros((2, 2)))
    eta = 0.3 + 0.7j
    r0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    v0 = np.stack([(eta * (r0[:, 0] + 1j * r0[:, 1])).real,
                   (eta * (r0[:, 0] + 1j * r0[:, 1])).imag], axis=1)
    sol = spectral_solve(c, to_complex(PlaneState(r0, v0)))
    for t in (0.0, 0.7, 1.9):
        st = eval_z(sol, t)
        want = (r0[:, 0] + 1j * r0[:, 1]) * np.exp(eta * t)
        assert np.max(np.abs(st.z - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_degenerate_unrepresentable_raises():
    c = CouplingSpec([[1.0, -1.0], [1.0, -1.0]], np.zeros((2, 2)))
    s = PlaneState([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -2.0]])
    with pytest.raises(DefectiveMatrixError):
        spectral_solve(c, to_complex(s))
    # a true Jordan block is rejected the same way
    c = CouplingSpec([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)))
    s = PlaneState([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DefectiveMatrixError):
        spectral_solve(c, to_complex(s))


def test_tau_map_periodic_reduction():
    g = GeneralizedParams(lam=0.0, omega=1.0)
    assert tau_map(g, 2.0 * math.pi) == 0.0  # exact thanks to phase reduction
    assert tau_map(g, 0.0) == 0.0
    # tau(pi) = (exp(i pi) - 1)/i = 2i
    assert abs(tau_map(g, math.pi) - 2j) < 1e-15
    g2 = GeneralizedParams(lam=0.0, omega=2.0)
    assert tau_map(g2, math.pi) == 0.0
    assert abs(tau_map(g2, 20.0 * math.pi)) < 1e-13
    # lam != 0: plain t phi1(eta t)
    g3 = GeneralizedParams(lam=0.5, omega=1.0)
    eta = 0.5 + 1.0j
    t = 1.3
    assert abs(tau_map(g3, t) - t * phi1(eta * t)) == 0.0


def test_eval_generalized_satisfies_equation_of_motion():
    rng = np.random.default_rng(36)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        c = random_couplings(rng, n)
        cs = to_complex(random_state(rng, n))
        sol = spectral_solve(c, cs)
        g = GeneralizedParams(lam=0.3, omega=1.2)
        eta = complex(g.lam, g.omega)
        alpha = alpha_matrix(c)
        h = 1e-3
        for t in (0.5, 1.1):
            sp, s0, sm = (eval_generalized(sol, g, t + h),
                          eval_generalized(sol, g, t),
                          eval_generalized(sol, g, t - h))
            fd_acc = (sp.z - 2.0 * s0.z + sm.z) / h**2
            f = s0.zdot / s0.z
            law = s0.zdot * f + eta * s0.zdot + s0.z * ((alpha * np.exp(eta * t)) @ f)
            scale = max(1.0, float(np.max(np.abs(law))))
            assert np.max(np.abs(fd_acc - law)) < 2e-4 * scale
            fd_vel = (sp.z - sm.z) / (2.0 * h)
            assert np.max(np.abs(fd_vel - s0.zdot)) < 1e-4 * max(1.0, np.max(np.abs(s0.zdot)))


def test_eval_generalized_recurrence():
    # lam = 0, omega = 1: the whole state recurs with period 2 pi
    rng = np.random.default_rng(37)
    c = random_couplings(rng, 3)
    cs = to_complex(random_state(rng, 3))
    sol = spectral_solve(c, cs)
    g = GeneralizedParams(lam=0.0, omega=1.0)
    t = 0.8
    a = eval_generalized(sol, g, t)
    b = eval_generalized(sol, g, t + 2.0 * math.pi)
    assert np.max(np.abs(a.z - b.z)) < 1e-12
    assert np.max(np.abs(a.zdot - b.zdot)) < 1e-12


def test_eval_center_frozen_and_linear():
    # mu = 0: straight line Z0 + Zdot0 t
    cs = CenterSolution(z0=np.array([1.0 + 1.0j]), zdot0=np.array([0.5 - 0.25j]),
                        mu=np.array([0.0 + 0.0j]))
    z, zdot = eval_center(cs, 4.0)
    assert z[0] == (1.0 + 1.0j) + 4.0 * (0.5 - 0.25j)
    assert zdot[0] == 0.5 - 0.25j
    # mu = i: returns to the start after 2 pi
    cs = CenterSolution(z0=np.array([2.0 + 0.0j]), zdot0=np.array([0.0 + 1.0j]),
                        mu=np.array([0.0 + 1.0j]))
    z, zdot = eval_center(cs, 2.0 * math.pi)
    assert abs(z[0] - 2.0) < 1e-14
    assert abs(zdot[0] - 1j) < 1e-14
    # second derivative equals mu * first derivative
    cs = CenterSolution(z0=np.array([1.0 + 0.5j]), zdot0=np.array([-0.3 + 0.8j]),
                        mu=np.array([0.4 - 1.1j]))
    h = 1e-4
    for t in (0.3, 2.2):
        zp = eval_center(cs, t + h)[0]
        z0 = eval_center(cs, t)[0]
        zm = eval_center(cs, t - h)[0]
        fd = (zp - 2.0 * z0 + zm) / h**2
        law = cs.mu * eval_center(cs, t)[1]
        assert np.max(np.abs(fd - law)) < 1e-6


def test_pair_solution_initial_and_equation():
    rng = np.random.default_rng(38)
    n = 2
    c = random_couplings(rng, n)
    p = PairSpec(base=c, lam=np.array([0.1, -0.3]), omega=np.array([1.0, 0.7]))
    plus = random_state(rng, n)
    minus = PlaneState(plus.positions + rng.standard_normal((n, 2)) + 2.5,
                       0.3 * rng.standard_normal((n, 2)))
    s0 = PairState(plus=plus, minus=minus)
    ps = pair_solve(p, s0)
    st0 = eval_pair_solution(ps, 0.0)
    assert np.max(np.abs(st0.plus.positions - plus.positions)) < 1e-12
    assert np.max(np.abs(st0.minus.velocities - minus.velocities)) < 1e-12
    # finite-difference accelerations against the doubled force law
    h = 1e-3
    for t in (0.4, 1.2):
        sp = eval_pair_solution(ps, t + h)
        s0t = eval_pair_solution(ps, t)
        sm = eval_pair_solution(ps, t - h)
        acc_p, acc_m = rhs_pair(p, s0t)
        fd_p = (sp.plus.positions - 2.0 * s0t.plus.positions + sm.plus.positions) / h**2
        fd_m = (sp.minus.positions - 2.0 * s0t.minus.positions + sm.minus.positions) / h**2
        assert np.max(np.abs(fd_p - acc_p)) < 2e-4 * max(1.0, np.max(np.abs(acc_p)))
        assert np.max(np.abs(fd_m - acc_m)) < 2e-4 * max(1.0, np.max(np.abs(acc_m)))


def test_pair_shift_invariance():
    rng = np.random.default_rng(39)
    n = 3
    c = random_couplings(rng, n)
    p = PairSpec(base=c, lam=rng.standard_normal(n), omega=rng.standard_normal(n))
    plus = random_state(rng, n)
    minus = PlaneState(plus.positions + rng.standard_normal((n, 2)) + 2.0,
                       0.5 * rng.standard_normal((n, 2)))
    shift = np.array([40.0, -7.0])
    s0 = PairState(plus=plus, minus=minus)
    s0s = PairState(
        plus=PlaneState(plus.positions + shift, plus.velocities),
        minus=PlaneState(minus.positions + shift, minus.velocities),
    )
    for t in (0.5, 1.5):
        a = eval_pair(p, s0, t)
        b = eval_pair(p, s0s, t)
        scale = max(1.0, float(np.max(np.abs(b.plus.positions))))
        assert np.max(np.abs(b.plus.positions - a.plus.positions - shift)) < 1e-12 * scale
        assert np.max(np.abs(b.minus.positions - a.minus.positions - shift)) < 1e-12 * scale
        assert np.max(np.abs(b.plus.velocities - a.plus.velocities)) < 1e-12 * scale
        assert np.max(np.abs(b.minus.velocities - a.minus.velocities)) < 1e-12 * scale


def test_similarity_matches_spectral_route():
    eta = 0.3 + 0.7j
    r0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    spec = SimilaritySpec(eta=eta, r0=r0)
    c = CouplingSpec([[1.0, -1.0], [1.0, -1.0]], np.zeros((2, 2)))
    s0 = similarity_trajectory(spec, 0.0)
    sol = spectral_solve(c, to_complex(s0))
    for t in (0.0, 0.6, 1.4, 2.0):
        a = similarity_trajectory(spec, t)
        b = exact_states(sol, [t])[0]
        assert np.max(np.abs(a.positions - b.positions)) < 1e-12 * max(1.0, np.max(np.abs(a.positions)))
        assert np.max(np.abs(a.velocities - b.velocities)) < 1e-12 * max(1.0, np.max(np.abs(a.velocities)))


def test_similarity_satisfies_force_law():
    from planebody import rhs_base

    eta = 0.3 + 0.7j
    r0 = np.array([[1.0, 0.0], [0.0, 1.0], [0.4, -0.9]])
    spec = SimilaritySpec(eta=eta, r0=r0)
    # any matrix with zero row sums supports the similarity motion
    beta = np.array([[1.0, -0.5, -0.5], [0.2, -0.9, 0.7], [0.0, 1.0, -1.0]])
    gamma = np.array([[0.5, -0.5, 0.0], [0.0, 0.3, -0.3], [-1.0, 0.5, 0.5]])
    c = CouplingSpec(beta, gamma)
    assert row_sums_zero(c)
    h = 1e-3
    for t in (0.3, 1.1):
        sp = similarity_trajectory(spec, t + h)
        s0 = similarity_trajectory(spec, t)
        sm = similarity_trajectory(spec, t - h)
        fd = (sp.positions - 2.0 * s0.positions + sm.positions) / h**2
        assert np.max(np.abs(fd - rhs_base(c, s0))) < 1e-4


def test_row_sums_zero():
    assert row_sums_zero(CouplingSpec([[1.0, -1.0], [1.0, -1.0]], np.zeros((2, 2))))
    assert row_sums_zero(CouplingSpec([[1.0, -1.0], [1.0, -1.0]],
                                      [[2.0, -2.0], [0.0, 0.0]]))
    assert not row_sums_zero(CouplingSpec([[1.0, 0.0], [0.0, 1.0]], np.zeros((2, 2))))
    assert not row_sums_zero(CouplingSpec([[1.0, -1.0], [1.0, -1.0]],
                                          [[1.0, 0.0], [0.0, 0.0]]))


def test_exact_states_grid():
    rng = np.random.default_rng(40)
    c = random_couplings(rng, 2)
    s = random_state(rng, 2)
    sol = spectral_solve(c, to_complex(s))
    times = np.linspace(0.0, 1.0, 5)
    states = exact_states(sol, times)
    assert len(states) == 5
    assert np.max(np.abs(states[0].positions - s.positions)) < 1e-14
    g = GeneralizedParams(lam=0.1, omega=0.9)
    states_g = exact_states(sol, times, g=g)
    assert np.max(np.abs(states_g[0].positions - s.positions)) < 1e-14


def test_degenerate_rank_deficient_similarity_3x3():
    # zero row sums and a defective zero eigenvalue: the uniform
    # log-derivative eta is representable, so z(t) = z0 exp(eta t)
    eta = 0.3 + 0.7j
    z0 = np.array([1.0, 1j, -0.8 + 0.3j])
    for beta in (
        [[1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]],
        [[0.0, 1.0, -1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [2.0, -1.0, -1.0]],
    ):
        sol = spectral_solve(CouplingSpec(beta, np.zeros((3, 3))), ComplexState(z0, eta * z0))
        for t in (0.7, 1.9):
            want = z0 * np.exp(eta * t)
            assert np.max(np.abs(eval_z(sol, t).z - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_blowup_guard_catches_overflow_to_nan():
    # exp(800) overflows inside phi1; the exponent is NaN, not > 700
    c = CouplingSpec([[1.0]], [[0.0]])
    sol = spectral_solve(c, to_complex(PlaneState([[1.0, 0.0]], [[1.0, 0.0]])))
    with pytest.raises(BlowupError) as info:
        eval_z(sol, 800.0)
    assert info.value.time == 800.0


@pytest.mark.parametrize("t", [8.0, 12.0])
def test_generalized_blowup_reports_physical_time(t):
    # tau(8) = 107.2 and tau(12) = 804.9: both leave the exponent range
    c = CouplingSpec([[1.0]], [[0.0]])
    sol = spectral_solve(c, to_complex(PlaneState([[1.0, 0.0]], [[1.0, 0.0]])))
    with pytest.raises(BlowupError) as info:
        eval_generalized(sol, GeneralizedParams(lam=0.5, omega=0.0), t)
    assert info.value.time == t
    assert f"t = {t}" in str(info.value)


def _max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("g", [None, GeneralizedParams(0.0, 1.3), GeneralizedParams(0.2, 0.9)])
def test_exact_states_matches_per_sample_evaluation(g):
    # the grid evaluator against one-sample calls: base model, lam = 0, lam != 0
    rng = np.random.default_rng(41)
    c = random_couplings(rng, 4)
    sol = spectral_solve(c, to_complex(random_state(rng, 4)))
    times = np.linspace(-1.0, 6.0, 37)
    states = exact_states(sol, times, g=g)
    for t, st in zip(times, states):
        want = eval_z(sol, float(t)) if g is None else eval_generalized(sol, g, float(t))
        z = st.positions[:, 0] + 1j * st.positions[:, 1]
        zdot = st.velocities[:, 0] + 1j * st.velocities[:, 1]
        assert _max_rel(z, want.z) <= 1e-13
        assert _max_rel(zdot, want.zdot) <= 1e-13


def test_reduced_phase_matches_math_remainder_bitwise():
    # a grid crossing several periods, both signs, and the exact multiples
    omega = 1.7
    x = omega * np.concatenate([np.linspace(-40.0, 40.0, 10001), [0.0, -0.0]])
    x = np.concatenate([x, 2.0 * math.pi * np.arange(-5, 6), [math.pi, -math.pi, 3 * math.pi]])
    got = _reduced_phase(x)
    want = np.array([math.remainder(v, 2.0 * math.pi) for v in x])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_grid_blowup_matches_first_failing_sample():
    # escape starts partway through the grid; the grid raises for the
    # first sample that fails on its own, with the same time and message
    c = CouplingSpec([[1.0, 0.0], [0.0, -0.5]], np.zeros((2, 2)))
    sol = spectral_solve(c, to_complex(PlaneState([[1.0, 0.0], [0.0, 1.0]],
                                                  [[1.0, 0.0], [0.0, 0.5]])))
    times = np.linspace(0.0, 9.0, 91)
    for g in (None, GeneralizedParams(0.5, 0.0)):
        first = None
        for t in times:
            try:
                eval_z(sol, float(t)) if g is None else eval_generalized(sol, g, float(t))
            except BlowupError as exc:
                first = exc
                break
        assert first is not None and 0.0 < first.time < 9.0
        with pytest.raises(BlowupError) as info:
            exact_states(sol, times, g=g)
        assert info.value.time == first.time
        assert str(info.value) == str(first)


def test_velocity_overflow_raises_blowup():
    # the exponent stays below 700 while z' = f z overflows
    c = CouplingSpec([[100.0]], [[0.0]])
    sol = spectral_solve(c, to_complex(PlaneState([[1.0, 0.0]], [[1.0, 0.0]])))
    t = math.log(1.0 + 100.0 * 699.0) / 100.0  # exponent 699
    with pytest.raises(BlowupError) as info:
        eval_z(sol, t)
    assert info.value.time == t
    assert "velocity overflows" in str(info.value)


def test_exact_states_does_not_revalidate_per_sample(monkeypatch):
    rng = np.random.default_rng(43)
    sol = spectral_solve(random_couplings(rng, 3), to_complex(random_state(rng, 3)))
    calls = count_frozen_arrays(monkeypatch)
    exact_states(sol, np.linspace(0.0, 2.0, 3))
    small = len(calls)
    exact_states(sol, np.linspace(0.0, 2.0, 8001))
    assert len(calls) - small == small


@pytest.mark.parametrize("g", [None, GeneralizedParams(0.0, 1.3), GeneralizedParams(0.2, 0.9)])
def test_exact_states_are_read_only_and_equal_to_checked_states(g):
    rng = np.random.default_rng(44)
    sol = spectral_solve(random_couplings(rng, 3), to_complex(random_state(rng, 3)))
    for st in exact_states(sol, np.linspace(-1.0, 3.0, 41), g=g):
        checked = PlaneState(st.positions, st.velocities)
        for got, want in ((st.positions, checked.positions), (st.velocities, checked.velocities)):
            assert not got.flags.writeable
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))



def test_exact_states_sequence_acts_like_a_list():
    rng = np.random.default_rng(45)
    sol = spectral_solve(random_couplings(rng, 3), to_complex(random_state(rng, 3)))
    times = np.linspace(0.0, 2.0, 9)
    states = exact_states(sol, times)
    listed = list(states)
    assert len(states) == len(listed) == 9
    assert all(isinstance(st, PlaneState) for st in listed)

    def same(a, b):
        return np.array_equal(a.positions, b.positions) and np.array_equal(a.velocities, b.velocities)

    assert same(states[-1], listed[8]) and same(states[-9], listed[0])
    for part, want in ((states[2:7:2], listed[2:7:2]), (states[::-1], listed[::-1]), (states[5:], listed[5:])):
        assert len(part) == len(want)
        assert all(same(a, b) for a, b in zip(part, want))
    for st in states[1:3]:
        assert not st.positions.flags.writeable and not st.velocities.flags.writeable
    with pytest.raises(IndexError):
        states[9]
    with pytest.raises(TypeError):
        states[0] = listed[0]


@pytest.mark.parametrize("g", [None, GeneralizedParams(0.0, 1.3), GeneralizedParams(0.2, 0.9), "pair"])
def test_trajectory_from_exact_states_matches_per_sample_loop(g):
    from planebody.exact import _pair_states

    rng = np.random.default_rng(46)
    times = np.linspace(-1.0, 3.0, 41)
    pair = g == "pair"
    if pair:
        # the pair grid, and its PairStates restacked plus family first
        states = _pair_states(pair_solve(*_pair_case(rng, 3)), times)
    else:
        sol = spectral_solve(random_couplings(rng, 3), to_complex(random_state(rng, 3)))
        states = exact_states(sol, times, g=g)
    got = trajectory_from_states(times, states)
    want = trajectory_from_states(times, list(states), pair=pair)  # stacked one sample at a time
    assert got.pair == want.pair == pair
    for a, b in ((got.positions, want.positions), (got.velocities, want.velocities)):
        assert a.shape == b.shape == (41, 6 if pair else 3, 2)
        assert np.array_equal(a.view(np.int64), b.view(np.int64))

def _pair_case(rng, n):
    p = PairSpec(base=random_couplings(rng, n), lam=rng.standard_normal(n),
                 omega=rng.standard_normal(n))
    plus = random_state(rng, n)
    minus = PlaneState(plus.positions + rng.standard_normal((n, 2)) + 2.0,
                       0.5 * rng.standard_normal((n, 2)))
    return p, PairState(plus=plus, minus=minus)


def test_pair_grid_matches_per_sample_evaluation():
    from planebody.exact import _pair_states

    rng = np.random.default_rng(45)
    p, s0 = _pair_case(rng, 3)
    ps = pair_solve(p, s0)
    times = np.linspace(-1.0, 3.0, 61)
    states = _pair_states(ps, times)
    assert len(states) == len(times)
    for t, st in zip(times, states):
        # the per-sample composition of the relative and centre parts
        rel = eval_z(ps.relative, float(t))
        zsum, zdotsum = eval_center(ps.center, float(t))
        for fam, sign in ((st.plus, 1.0), (st.minus, -1.0)):
            z = fam.positions[:, 0] + 1j * fam.positions[:, 1]
            zdot = fam.velocities[:, 0] + 1j * fam.velocities[:, 1]
            assert _max_rel(z, 0.5 * (zsum + sign * rel.z)) <= 1e-13
            assert _max_rel(zdot, 0.5 * (zdotsum + sign * rel.zdot)) <= 1e-13
            assert not fam.positions.flags.writeable and not fam.velocities.flags.writeable
        one = eval_pair_solution(ps, float(t))
        assert _max_rel(one.plus.positions, st.plus.positions) <= 1e-13
        assert _max_rel(one.minus.velocities, st.minus.velocities) <= 1e-13


def _collapsing_pair():
    # the relative coordinate decays as exp(-40 t): the families coincide
    # exactly near t = 1, long before the exponent leaves the range at t = 17.5
    p = PairSpec(base=zero_couplings(1), lam=np.array([0.0]), omega=np.array([0.0]))
    s0 = PairState(plus=PlaneState([[1.0, 1.0]], [[-20.0, 0.0]]),
                   minus=PlaneState([[0.0, 1.0]], [[20.0, 0.0]]))
    return pair_solve(p, s0)


def test_pair_grid_exact_coincidence_raises_before_later_blowup():
    from planebody.errors import PairCollisionError
    from planebody.exact import _pair_states

    ps = _collapsing_pair()
    with pytest.raises(PairCollisionError):
        eval_pair_solution(ps, 1.0)
    with pytest.raises(PairCollisionError):
        _pair_states(ps, np.linspace(0.0, 20.0, 201))
    with pytest.raises(BlowupError):
        eval_pair_solution(ps, 20.0)


def test_pair_grid_coincidence_reports_first_coinciding_time():
    from planebody.errors import PairCollisionError
    from planebody.exact import _pair_states

    ps = _collapsing_pair()
    times = np.linspace(0.0, 20.0, 201)
    first = None
    for t in times:
        try:
            eval_pair_solution(ps, float(t))
        except PairCollisionError:
            first = float(t)
            break
    assert first is not None and 0.0 < first < 17.5
    with pytest.raises(PairCollisionError) as info:
        _pair_states(ps, times)
    assert info.value.time == first


def test_pair_family_overflow_raises_blowup():
    from planebody.exact import _pair_states

    # both parts grow as exp(400 t); the centre velocity 1e10 exp(400 t)
    # overflows near t = 1.717, before the relative exponent reaches 700
    p = PairSpec(base=zero_couplings(1), lam=np.array([400.0]), omega=np.array([0.0]))
    s0 = PairState(plus=PlaneState([[1.0, 1.0]], [[0.5e10 + 200.0, 0.0]]),
                   minus=PlaneState([[0.0, 1.0]], [[0.5e10 - 200.0, 0.0]]))
    ps = pair_solve(p, s0)
    with pytest.raises(BlowupError) as info:
        eval_pair_solution(ps, 1.72)
    assert info.value.time == 1.72
    with pytest.raises(BlowupError) as info:
        _pair_states(ps, np.linspace(0.0, 2.0, 201))
    assert 1.7 < info.value.time < 1.75
    assert "plus/minus state overflows" in str(info.value)


def test_spectral_solve_guard_names_the_particle_and_scale():
    # particle 2 at relative radius 1e-13 of the largest radius, 2
    initial = ComplexState(np.array([1.0, 2e-13j, 2.0]), np.zeros(3))
    with pytest.raises(OriginError, match=r"particle 2 radius 2\.000e-13 .*scale 2\.000e\+00"):
        spectral_solve(zero_couplings(3), initial)


@pytest.mark.parametrize("pair", [False, True])
def test_trajectory_arrays_from_grids_are_c_ordered(monkeypatch, pair):
    import planebody.exact as exact

    grids = []
    real = exact._state_grid

    def capturing(z, zdot, pair=False):
        grids.append((z, zdot))
        return real(z, zdot, pair)

    monkeypatch.setattr(exact, "_state_grid", capturing)
    rng = np.random.default_rng(58)
    times = np.linspace(-1.0, 3.0, 41)
    if pair:
        states = exact._pair_states(pair_solve(*_pair_case(rng, 3)), times)
    else:
        sol = spectral_solve(random_couplings(rng, 3), to_complex(random_state(rng, 3)))
        states = exact_states(sol, times, g=GeneralizedParams(0.2, 0.9))
    traj = trajectory_from_states(times, states)
    [(z, zdot)] = grids
    for got, a in ((traj.positions, z), (traj.velocities, zdot)):
        want = np.stack([a.real.T, a.imag.T], axis=2)
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_position_underflow_is_an_origin_error_at_its_time():
    # z = 1e-160 exp(-400 t) underflows to exactly 0 at t = 1
    sol = spectral_solve(zero_couplings(1), ComplexState([1e-160 + 0.0j], [-4e-158 + 0.0j]))
    assert sol.n == 1
    with pytest.raises(OriginError, match=r"^particle 1 position underflows to the origin at t = 1\.0$") as info:
        exact_states(sol, np.linspace(0.0, 1.0, 11))
    assert info.value.time == 1.0


def _reference_phi1(x):
    """phi1 as the series inside |x| < 1e-4 and (exp(x) - 1) / x outside,
    each branch on its own gathered entries, with exp(x) - 1 formed from
    expm1(Re x), cos(Im x), sin(Im x / 2), exp(Re x) and sin(Im x)."""
    arr = np.asarray(x, dtype=np.complex128)
    out = np.empty_like(arr)
    small = np.abs(arr) < 1e-4
    xs = arr[small]
    out[small] = 1.0 + xs * (1.0 / 2.0 + xs * (1.0 / 6.0 + xs * (1.0 / 24.0 + xs / 120.0)))
    xl = arr[~small]
    a, b = xl.real, xl.imag
    re = np.expm1(a) * np.cos(b) - 2.0 * np.sin(b / 2.0) ** 2
    out[~small] = (re + 1j * (np.exp(a) * np.sin(b))) / xl
    return out


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("with_series", [True, False])
def test_phi1_exp_matches_phi1_and_cexp_bit_for_bit(seed, with_series):
    rng = np.random.default_rng(seed)
    w = 3.0 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    s = rng.uniform(-300.0, 300.0, 400)
    if with_series:
        s[0] = 0.0  # a whole column inside the series radius
    x = np.multiply.outer(w, s)
    x[1, 1:6] = [705.0, -720.0 + 3.0j, 1e3 + 1e3j, -1e4j, 709.9 - 0.5j]  # exponents past +-700
    if with_series:
        x[2, 1:5] = [1e-5, -3e-5j, 9.99e-5 + 1e-7j, 1e-300]
    assert bool(np.any(np.abs(x) < 1e-4)) == with_series
    with np.errstate(over="ignore", invalid="ignore"):
        phi, ex = _phi1_exp(x)
        assert _same_bits(phi, phi1(x))
        assert _same_bits(phi, _reference_phi1(x))
        assert _same_bits(ex, _cexp(x))


@pytest.mark.parametrize(
    "beta, t_end, m",
    [(1.0, 800.0, 2), (1.0, 12.0, 401), (2.0, 50.0, 101), (-1.5, 30.0, 401), (1.0, 20.0, 3)],
)
def test_exact_states_failure_matches_the_phi1_reference(beta, t_end, m):
    c = CouplingSpec([[beta, 0.0], [0.0, 0.5]], [[0.3, 0.0], [0.0, 1.0]])
    sol = spectral_solve(c, ComplexState(np.array([1.0 + 0j, 0.5j]), np.array([1.0 + 0.2j, 0.3 + 0j])))
    t = np.linspace(0.0, t_end, m)
    with np.errstate(over="ignore", invalid="ignore"):
        at = np.multiply.outer(sol.eigenvalues, t)
        exponent = sol.coefficients @ (t * _reference_phi1(at))
        z = sol.z0[:, None] * _cexp(exponent)
        zdot = (sol.coefficients @ _cexp(at)) * z
    with pytest.raises((BlowupError, OriginError)) as want:
        _check_grid(exponent, z, zdot, t)
    with pytest.raises(type(want.value)) as got:
        exact_states(sol, t)
    assert str(got.value) == str(want.value)
    assert got.value.time == want.value.time


def _synthetic_grid(n=3, m=4):
    """A passing closed-form grid of n particles at the times 0, 1, ..., m - 1."""
    ones = np.ones((n, m), complex)
    return np.zeros((n, m), complex), ones, ones.copy(), np.arange(float(m))


def test_check_grid_exponent_rule_wins_a_tie_and_names_the_largest_exponent():
    exponent, z, zdot, t = _synthetic_grid()
    exponent[1, 2], exponent[2, 2] = 750.0, -800.0
    zdot[0, 2] = np.inf
    z[0, 3] = 0.0  # a later sample fails too
    with pytest.raises(BlowupError) as err:
        _check_grid(exponent, z, zdot, t)
    assert str(err.value) == (
        "particle 3 exponent -800 exceeds the representable range at t = 2.0 (double-exponential collapse)"
    )
    assert err.value.time == 2.0


def test_check_grid_velocity_rule_wins_a_tie_with_the_origin_rule():
    exponent, z, zdot, t = _synthetic_grid()
    z[0, 1] = 0.0
    zdot[1, 1] = np.nan
    exponent[0, 2] = 1e3
    with pytest.raises(BlowupError) as err:
        _check_grid(exponent, z, zdot, t)
    assert str(err.value) == (
        "particle 2 velocity overflows at t = 1.0 (exponent 0, double-exponential overflow)"
    )
    assert err.value.time == 1.0


def _synthetic_pair(n=2, m=4):
    """A passing pair grid: relative part and the (2n, m) states of both families."""
    exponent, rel, reldot, t = _synthetic_grid(n, m)
    z = np.vstack([np.ones((n, m)), -np.ones((n, m))]).astype(complex)
    return exponent, rel, reldot, t, z, np.ones((2 * n, m), complex)


def test_check_grid_relative_failure_wins_a_tie_with_a_pair_overflow():
    exponent, rel, reldot, t, z, zdot = _synthetic_pair()
    rel[1, 2] = 0.0
    z[3, 2] = np.inf
    with pytest.raises(OriginError) as err:
        _check_grid(exponent, rel, reldot, t, _pair_rules(z, zdot))
    assert str(err.value) == "particle 2 position underflows to the origin at t = 2.0"
    assert err.value.time == 2.0


def test_check_grid_pair_overflow_wins_a_tie_with_a_coincidence():
    from planebody.errors import PairCollisionError

    exponent, rel, reldot, t, z, zdot = _synthetic_pair()
    z[0, 1] = z[2, 1]
    zdot[3, 1] = np.inf
    exponent[0, 2] = 1e3
    with pytest.raises(BlowupError) as err:
        _check_grid(exponent, rel, reldot, t, _pair_rules(z, zdot))
    assert str(err.value) == "a plus/minus state overflows at t = 1.0"
    assert err.value.time == 1.0
    zdot[3, 1] = 1.0  # the coincidence alone still precedes the exponent at t = 2
    with pytest.raises(PairCollisionError, match=r"coincides exactly at t = 1\.0$"):
        _check_grid(exponent, rel, reldot, t, _pair_rules(z, zdot))


@pytest.mark.parametrize("lam, omega", [(0.3, 1.0), (-0.2, 0.0), (1e-6, 2.0), (2.0, -1.5), (25.0, 1.0)])
def test_tau_map_and_center_grid_match_the_phi1_reference(lam, omega):
    t = np.linspace(0.0, 40.0, 2001)  # t = 0 lies in the series radius; lam = 25 overflows
    mu = complex(lam, omega)
    with np.errstate(over="ignore", invalid="ignore"):
        tau, rate = _time_substitution(GeneralizedParams(lam=lam, omega=omega), t)
        assert _same_bits(tau, t * _reference_phi1(mu * t))
        assert _same_bits(rate, _cexp(mu * t))
        assert _same_bits(tau_map(GeneralizedParams(lam=lam, omega=omega), t), tau)
        rates = np.array([mu, 0.5 - 0.25j, 0.0])
        cs = CenterSolution(
            z0=np.array([1.0 + 0.5j, -0.3j, 2.0]), zdot0=np.array([0.2 - 1.0j, 1.5, 0.7j]), mu=rates
        )
        z, zdot = _center_grid(cs, t)
        mt = np.multiply.outer(rates, t)
        assert _same_bits(z, cs.z0[:, None] + cs.zdot0[:, None] * (t * _reference_phi1(mt)))
        assert _same_bits(zdot, cs.zdot0[:, None] * _cexp(mt))


# dyadic times: (T0 + s) - T0 == s, so a solution that holds its data at T0
# and one that holds them at 0 evaluate at the same s
T0 = 5.0
DYADIC = np.arange(-16, 49) / 8.0


@pytest.mark.parametrize("case", ["base", "generalized", "rotating", "pair"])
def test_a_solution_at_t0_evaluated_at_t0_plus_s_is_the_one_at_0_evaluated_at_s(case):
    from planebody.exact import _pair_states

    rng = np.random.default_rng(2424)
    t = T0 + DYADIC
    assert np.array_equal(t - T0, DYADIC)
    if case == "pair":
        p, s0 = _pair_case(rng, 3)
        at0, at5 = pair_solve(p, s0), pair_solve(p, s0, T0)
        assert at5.relative.t0 == T0
        got, want = _pair_states(at5, t), _pair_states(at0, DYADIC)
        one, other = eval_pair_solution(at5, T0 + 1.25), eval_pair_solution(at0, 1.25)
        assert _same_bits(one.plus.positions, other.plus.positions)
        assert _same_bits(one.minus.velocities, other.minus.velocities)
    else:
        g = {"base": None, "generalized": GeneralizedParams(0.2, 0.9), "rotating": GeneralizedParams(0.0, 1.3)}[case]
        c, initial = random_couplings(rng, 3), to_complex(random_state(rng, 3))
        at0, at5 = spectral_solve(c, initial), spectral_solve(c, initial, T0)
        assert at0.t0 == 0.0 and at5.t0 == T0
        got, want = exact_states(at5, t, g=g), exact_states(at0, DYADIC, g=g)
        for s in (-2.0, 0.0, 1.25, 6.0):
            assert _same_bits(eval_f(at5, T0 + s), eval_f(at0, s))
            one, other = eval_z(at5, T0 + s), eval_z(at0, s)
            assert _same_bits(one.z, other.z) and _same_bits(one.zdot, other.zdot)
            if g is not None:
                one, other = eval_generalized(at5, g, T0 + s), eval_generalized(at0, g, s)
                assert _same_bits(one.z, other.z) and _same_bits(one.zdot, other.zdot)
    assert _same_bits(got.times, t)
    assert _same_bits(got.positions, want.positions)
    assert _same_bits(got.velocities, want.velocities)


@pytest.mark.parametrize("case", ["base", "generalized", "pair"])
def test_a_failure_at_t0_plus_s_reports_the_time_of_the_failure_at_s(case):
    from planebody.errors import PairCollisionError
    from planebody.exact import _pair_states

    s = np.arange(0, 161) / 8.0
    if case == "pair":
        # the families coincide exactly near s = 1 (see _collapsing_pair)
        p = PairSpec(base=zero_couplings(1), lam=np.array([0.0]), omega=np.array([0.0]))
        s0 = PairState(plus=PlaneState([[1.0, 1.0]], [[-20.0, 0.0]]),
                       minus=PlaneState([[0.0, 1.0]], [[20.0, 0.0]]))
        error = PairCollisionError

        def run(t0, times):
            return _pair_states(pair_solve(p, s0, t0), times)
    else:
        # log|z| = e^s - 1 (base) or e^{tau(s)} - 1 with real tau (lam = 0.3) escapes past 700
        g = GeneralizedParams(0.3, 0.0) if case == "generalized" else None
        c, initial = CouplingSpec([[1.0]], [[0.0]]), ComplexState(np.array([1.0 + 0j]), np.array([1.0 + 0j]))
        error = BlowupError

        def run(t0, times):
            return exact_states(spectral_solve(c, initial, t0), times, g=g)
    with pytest.raises(error) as at0:
        run(0.0, s)
    with pytest.raises(error) as at5:
        run(T0, T0 + s)
    assert 0.0 < at0.value.time < s[-1]
    assert at5.value.time == T0 + at0.value.time


def test_generalized_closed_form_from_t0_takes_the_couplings_at_t0():
    # the couplings of the generalized model rotate, alpha e^{mu t}; a
    # solution that starts at t0 expands its initial data in the ones at
    # t0, alpha e^{mu t0}, which the caller passes to spectral_solve
    rng = np.random.default_rng(7)
    c, s0 = random_couplings(rng, 2), random_state(rng, 2)
    g, t0 = GeneralizedParams(lam=0.1, omega=0.8), 2.0
    cfg = IntegratorConfig(t_span=(t0, 5.0), sample_count=31, rtol=1e-11, atol=1e-12)
    numeric = integrate(lambda t, s: rhs_generalized(c, g, t, s), s0, cfg)
    at_t0 = alpha_matrix(c) * np.exp(complex(g.lam, g.omega) * t0)
    sol = spectral_solve(CouplingSpec(at_t0.real, at_t0.imag), to_complex(s0), t0)
    exact = exact_states(sol, numeric.times, g)
    assert np.max(np.abs(exact.positions - numeric.positions)) < 1e-9
    assert np.max(np.abs(exact.velocities - numeric.velocities)) < 1e-9
    end = eval_generalized(sol, g, 5.0)
    assert np.max(np.abs(end.z - numeric.positions[-1] @ [1.0, 1.0j])) < 1e-9
