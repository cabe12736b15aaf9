"""Eigenvalue and linear-solve machinery against frozen values and numpy."""
import numpy as np
import pytest

from planebody import BlowupError, ConvergenceError, DefectiveMatrixError, SingularMatrixError, eig, eigenvalues, solve_linear
from planebody.linalg import MAX_DIMENSION, _eig_raw

from _util import match_distance, random_complex_matrix


def test_solve_linear_frozen():
    # [[2, 1], [1, 3]] x = [5, 10] has the exact solution [1, 3]
    x = solve_linear([[2.0, 1.0], [1.0, 3.0]], [5.0, 10.0])
    assert np.allclose(x, [1.0, 3.0], rtol=0.0, atol=1e-14)
    # complex 3x3 with a known inverse action
    m = np.array([[1.0, 1j, 0.0], [0.0, 2.0, 0.0], [1.0, 0.0, 1.0 + 1j]])
    expected = np.array([1.0 + 0.5j, -2.0, 0.25j])
    x = solve_linear(m, m @ expected)
    assert np.max(np.abs(x - expected)) < 1e-14


def test_solve_linear_matrix_rhs():
    rng = np.random.default_rng(11)
    m = random_complex_matrix(rng, 5)
    b = random_complex_matrix(rng, 5)
    x = solve_linear(m, b)
    assert np.max(np.abs(m @ x - b)) < 1e-12 * np.max(np.abs(b))


def test_solve_linear_random_residual():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = random_complex_matrix(rng, n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = solve_linear(m, b)
        assert np.max(np.abs(m @ x - b)) < 1e-11 * max(1.0, np.max(np.abs(b)))


def test_solve_linear_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])
    with pytest.raises(SingularMatrixError):
        solve_linear(np.zeros((3, 3)), np.ones(3))


def test_eigenvalues_frozen_small():
    # rotation generator: spectrum {-i, +i}, sorted by (real, imag)
    w = eigenvalues([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(w, [-1j, 1j], atol=1e-14)
    # companion matrix of (x-1)(x-2)(x-3)
    comp = [[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    w = eigenvalues(comp)
    assert np.allclose(w, [1.0, 2.0, 3.0], atol=1e-10)
    # diagonal complex: returned already sorted
    w = eigenvalues(np.diag([2.0 - 1j, -1.0, 2.0 + 1j]))
    assert np.allclose(w, [-1.0, 2.0 - 1j, 2.0 + 1j], atol=1e-14)
    # 1x1 passthrough
    assert eigenvalues([[3.0 + 4.0j]])[0] == 3.0 + 4.0j


def test_eigenvalues_match_numpy():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        a = random_complex_matrix(rng, n)
        mine = eigenvalues(a)
        ref = np.linalg.eigvals(a)
        scale = max(np.max(np.abs(ref)), 1.0)
        assert match_distance(mine, ref) < 1e-9 * scale


def test_eigenvalues_real_matrices_conjugate_pairs():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        w = eigenvalues(a)
        # real input: the spectrum must be closed under conjugation
        assert match_distance(w, np.conj(w)) < 1e-9 * max(np.max(np.abs(w)), 1.0)


def test_eig_residual_and_reconstruction():
    rng = np.random.default_rng(15)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        a = random_complex_matrix(rng, n)
        dec = eig(a)
        w, v = dec.eigenvalues, dec.eigenvectors
        fro = np.linalg.norm(a)
        assert np.max(np.abs(a @ v - v * w)) < 1e-11 * fro
        rebuilt = v @ np.diag(w) @ np.linalg.inv(v)
        assert np.max(np.abs(rebuilt - a)) < 1e-8 * fro
        assert np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-12)


def test_eig_hermitian_spectrum_real():
    rng = np.random.default_rng(16)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        b = random_complex_matrix(rng, n)
        h = b + b.conj().T
        dec = eig(h)
        assert np.max(np.abs(dec.eigenvalues.imag)) < 1e-10 * max(np.max(np.abs(dec.eigenvalues)), 1.0)
        assert dec.condition_estimate < 1e3


def test_eig_badly_scaled():
    # balancing must keep a wildly scaled similarity of diag(1, 2, 3) accurate
    d = np.diag([1e8, 1.0, 1e-8])
    dinv = np.diag([1e-8, 1.0, 1e8])
    a = d @ np.array([[1.0, 1.0, 0.0], [0.5, 2.0, 0.25], [0.0, 1.0, 3.0]]) @ dinv
    w = eigenvalues(a)
    ref = np.linalg.eigvals(a)
    assert match_distance(w, ref) < 1e-7


def test_eig_deterministic():
    rng = np.random.default_rng(17)
    a = random_complex_matrix(rng, 6)
    d1 = eig(a)
    d2 = eig(a.copy())
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_eig_defective_raises():
    for a in (
        [[0.0, 1.0], [0.0, 0.0]],
        [[1.0, 1.0], [0.0, 1.0]],
        [[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]],
        [[1.0, -1.0], [1.0, -1.0]],
    ):
        with pytest.raises(DefectiveMatrixError) as info:
            eig(a)
        assert info.value.condition_estimate > 1e8


def test_eigenvalues_defined_for_defective():
    w = eigenvalues([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(w, [0.0, 0.0], atol=1e-12)
    w = eigenvalues([[1.0, -1.0], [1.0, -1.0]])
    assert np.allclose(w, [0.0, 0.0], atol=1e-12)


def test_eig_raw_reports_condition():
    w, v, cond = _eig_raw([[0.0, 1.0], [0.0, 0.0]])
    assert cond > 1e8
    assert v.shape == (2, 2)


def test_eig_near_defective_still_ok():
    # eigenvalue gap 1e-3 is clustered but diagonalizable
    a = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-3]])
    dec = eig(a)
    assert match_distance(dec.eigenvalues, [1.0, 1.0 + 1e-3]) < 1e-9
    assert np.max(np.abs(np.asarray(a) @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues)) < 1e-10


def test_eig_repeated_eigenvalue_diagonalizable():
    # identity-like: repeated eigenvalues with a full eigenbasis must pass
    dec = eig(np.diag([2.0, 2.0, 5.0]))
    assert np.allclose(dec.eigenvalues, [2.0, 2.0, 5.0], atol=1e-12)
    assert dec.condition_estimate < 10.0


def test_dimension_guard():
    with pytest.raises(ValueError):
        eigenvalues(np.eye(MAX_DIMENSION + 1))
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues([[np.nan, 0.0], [0.0, 1.0]])


def test_largest_supported_dimension():
    rng = np.random.default_rng(18)
    a = random_complex_matrix(rng, MAX_DIMENSION, scale=0.3)
    w = eigenvalues(a)
    ref = np.linalg.eigvals(a)
    assert match_distance(w, ref) < 1e-8 * max(np.max(np.abs(ref)), 1.0)


def test_eigenvalue_order_ignores_rounding_in_real_parts():
    # a rotated rotation generator has real parts of order 1e-17 either side
    # of zero; they must not decide the order of -i and +i
    rng = np.random.default_rng(3)
    for _ in range(20):
        q, _r = np.linalg.qr(rng.standard_normal((2, 2)))
        a = q @ np.array([[0.0, 1.0], [-1.0, 0.0]]) @ q.T
        assert np.allclose(eigenvalues(a), [-1j, 1j], atol=1e-14)


def _ldexp(w, e):
    """ldexp of the real and imaginary parts of a complex array."""
    out = np.empty_like(w)
    out.real, out.imag = np.ldexp(w.real, e), np.ldexp(w.imag, e)
    return out


@pytest.mark.parametrize("n", [2, 8, 32])
def test_scaled_spectrum_is_the_power_of_two_multiple_bit_for_bit(n):
    rng = np.random.default_rng(160 + n)
    b = random_complex_matrix(rng, n)
    b *= 0.75 / np.max(np.abs(b.view(np.float64)))  # the largest part lies in [0.5, 1)
    big = _ldexp(b, 1000)
    assert np.array_equal(eigenvalues(big), _ldexp(eigenvalues(b), 1000))
    w, v, cond = _eig_raw(big)
    w0, v0, cond0 = _eig_raw(b)
    assert np.array_equal(w, _ldexp(w0, 1000)) and np.array_equal(v, v0) and cond == cond0


@pytest.mark.parametrize("n", [2, 8, 32])
@pytest.mark.parametrize("k", [459, 480, 500])
def test_spectrum_between_2_458_and_2_500_is_the_power_of_two_multiple_bit_for_bit(n, k):
    # zgeev scales a matrix whose largest modulus exceeds 2**459 itself, and rounds it
    rng = np.random.default_rng(190 + n)
    b = random_complex_matrix(rng, n)
    b *= 0.75 / np.max(np.abs(b.view(np.float64)))  # the largest part lies in [0.5, 1)
    big = _ldexp(b, k)
    assert np.array_equal(eigenvalues(big), _ldexp(eigenvalues(b), k))
    w, v, cond = _eig_raw(big)
    w0, v0, cond0 = _eig_raw(b)
    assert np.array_equal(w, _ldexp(w0, k)) and np.array_equal(v, v0) and cond == cond0


def test_eigenvalue_past_the_float64_range_is_infinite_or_overflow_not_nan():
    # entries near the float64 limit: LAPACK's norm of the unscaled matrix
    # is infinite, and its eigenvalues came back NaN
    beta = np.array([[1.7e308, 1.7e308], [-1.7e308, 1.7e308]])
    gamma = np.array([[1.7e308, -1.7e308], [1.7e308, 1.7e308]])
    a = beta + 1j * gamma
    w = eigenvalues(a)
    assert not np.isnan(w).any()
    assert np.isinf(w[-1].real) and np.isinf(w[-1].imag)  # 1.89 * 2**1024 (1 + i)
    with pytest.raises(BlowupError, match="eigenvalue 2 lies outside the float64 range"):
        eig(a)
    # a spectrum that fits is exact up to the limit
    assert np.array_equal(eigenvalues(np.diag([1.7e308, -1.7e308j])), [-1.7e308j, 1.7e308])


def test_solve_linear_rejects_a_bad_right_hand_side():
    m = [[2.0, 1.0], [1.0, 3.0]]
    with pytest.raises(ValueError, match="does not match matrix"):
        solve_linear(m, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="non-finite"):
        solve_linear(m, [1.0, np.nan])


def test_lapack_nonconvergence_is_a_convergence_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    monkeypatch.setattr(np.linalg, "eig", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        eigenvalues([[1.0]])
    with pytest.raises(ConvergenceError, match="did not converge"):
        _eig_raw([[1.0]])


@pytest.mark.parametrize("n", [2, 8, 32])
@pytest.mark.parametrize("k", [460, 700, 900])
def test_tiny_spectrum_is_the_power_of_two_multiple_bit_for_bit(n, k):
    # below 2**-459 zgeev would scale the matrix itself, and round it
    rng = np.random.default_rng(180 + n)
    b = random_complex_matrix(rng, n)
    b *= 0.75 / np.max(np.abs(b.view(np.float64)))  # the largest part lies in [0.5, 1)
    w0 = eigenvalues(b)
    for parts in (b.view(np.float64), w0.view(np.float64)):
        assert np.min(np.abs(parts[parts != 0.0])) >= 2.0 ** (k - 1022)  # stays normal
    tiny = _ldexp(b, -k)
    assert np.array_equal(eigenvalues(tiny), _ldexp(w0, -k))
    w, v, cond = _eig_raw(tiny)
    w1, v1, cond1 = _eig_raw(b)
    assert np.array_equal(w, _ldexp(w1, -k)) and np.array_equal(v, v1) and cond == cond1
