"""Dense complex linear algebra for small matrices (n <= 64).

Thin wrappers over LAPACK (numpy.linalg) that fix the package's
conventions: eigenvalues sorted by (real, imag), with real parts that
agree to rounding treated as equal, unit-norm eigenvector columns whose
largest entry is real and positive, a 1-norm condition estimate of the
eigenvector basis that flags defective matrices, and the package's own
error types in place of numpy's LinAlgError.  A matrix with entries
above 2**458, or nonzero ones all below 2**-459, is scaled by a power of
two for LAPACK, so its spectrum is exact up to the float64 limit.

Equal inputs give bitwise equal outputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, ConvergenceError, DefectiveMatrixError, SingularMatrixError

MAX_DIMENSION = 64
DEFECT_THRESHOLD = 1e8
PIVOT_RTOL = 1e-14
# a nonzero matrix whose largest part lies outside [_SCALE_FLOOR, _SCALE_LIMIT]
# is scaled by a power of two for LAPACK: zgeev scales a matrix itself, and not
# exactly, when its largest modulus (up to sqrt(2) times the largest part) lies
# outside [sqrt(safmin) / eps, eps / sqrt(safmin)] = [2**-459, 2**459]
_SCALE_LIMIT = 2.0 ** 458
_SCALE_FLOOR = 2.0 ** -459

# real parts closer than this (relative to max |eigenvalue|) do not decide the order
_SORT_RTOL = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (sorted), matching eigenvector columns, basis condition estimate."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    condition_estimate: float


def as_complex_matrix(a, name: str = "matrix") -> tuple[np.ndarray, float]:
    """Coerce to a square complex128 array, rejecting non-finite entries;
    returns it with the largest absolute real or imaginary part."""
    m = np.array(a, dtype=np.complex128, order="C")  # for the float64 view
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"{name} must be square with at least one row, got shape {m.shape}")
    # one pass: the largest part is finite exactly when every entry is
    big = float(np.abs(m.view(np.float64)).max())
    if not math.isfinite(big):
        raise ValueError(f"{name} contains non-finite entries")
    return m, big


def _eigen_input(a) -> tuple[np.ndarray, int]:
    """A as a checked complex matrix, and the power of two e it was scaled
    down by: 0 unless its largest part exceeds 2**458 or is nonzero and
    below 2**-459, where zgeev would rescale it inexactly; then its
    largest part is brought into [0.5, 1).  The scaling and its inverse
    on the eigenvalues are exact, but for values that are or become
    subnormal, which are negligible against the largest."""
    m, big = as_complex_matrix(a, "A")
    n = m.shape[0]
    if n > MAX_DIMENSION:
        raise ValueError(f"matrix dimension {n} exceeds the supported maximum {MAX_DIMENSION}")
    if _SCALE_FLOOR <= big <= _SCALE_LIMIT or big == 0.0:
        return m, 0
    e = math.frexp(big)[1]
    return np.ldexp(m.view(np.float64), -e).view(np.complex128), e


def _scaled_back(w: np.ndarray, e: int) -> np.ndarray:
    """Eigenvalues w of A * 2**-e as eigenvalues of A; one that leaves
    the float64 range comes back with an infinite part."""
    if not e:
        return w
    with np.errstate(over="ignore"):  # an overflow is an infinite part
        return np.ldexp(w.view(np.float64), e).view(np.complex128)


def _sort_order(w: np.ndarray) -> np.ndarray:
    """Indices sorting w by (real, imag); real parts within rounding of the
    largest finite |w| count as equal, and so do infinite ones of one sign."""
    by_real = np.argsort(w.real, kind="stable")
    tol = _SORT_RTOL * float(np.abs(w[np.isfinite(w)]).max(initial=0.0))
    with np.errstate(invalid="ignore"):  # inf - inf is NaN: not a new group
        group = np.concatenate([[0], np.cumsum(np.diff(w.real[by_real]) > tol)])
    return by_real[np.lexsort((w.imag[by_real], group))]


def solve_linear(m, b) -> np.ndarray:
    """Solve M x = b; accepts a vector or a matrix right-hand side.

    Raises SingularMatrixError when the 1-norm condition number of M
    exceeds 1 / PIVOT_RTOL.
    """
    mm, _ = as_complex_matrix(m, "M")
    bb = np.array(b, dtype=np.complex128)
    if bb.shape[0] != mm.shape[0] or bb.ndim not in (1, 2):
        raise ValueError(f"right-hand side shape {bb.shape} does not match matrix {mm.shape}")
    if not np.all(np.isfinite(bb)):
        raise ValueError("right-hand side contains non-finite entries")
    cond = float(np.linalg.cond(mm, 1))  # inf when M is exactly singular
    if not cond * PIVOT_RTOL <= 1.0:
        raise SingularMatrixError(
            f"condition number {cond:.3e} exceeds 1/{PIVOT_RTOL:.0e}; matrix is numerically singular"
        )
    return np.linalg.solve(mm, bb)


def eigenvalues(a) -> np.ndarray:
    """Sorted eigenvalues only (defined even for defective matrices); an
    eigenvalue past the float64 range has an infinite part."""
    m, e = _eigen_input(a)
    try:
        w = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from None
    return _scaled_back(w[_sort_order(w)], e)


def _eig_raw(a):
    """Full decomposition without the defectiveness gate; returns (w, v, cond).
    An eigenvalue past the float64 range is a BlowupError."""
    m, e = _eigen_input(a)
    try:
        w, v = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from None
    order = _sort_order(w)
    w, v = w[order], v[:, order]
    # columns come back unit norm; rotate each so its largest entry is real positive
    big = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    v = v * (np.conj(big) / np.abs(big))
    cond = float(np.linalg.cond(v, 1))  # inf when v is singular
    w = _scaled_back(w, e)
    if e and not np.isfinite(w).all():
        k = int(np.argmin(np.isfinite(w)))
        raise BlowupError(f"eigenvalue {k + 1} lies outside the float64 range")
    return w, v, cond


def eig(a) -> EigenDecomposition:
    """Eigendecomposition of a square complex matrix, n <= 64.

    Returns
    -------
    EigenDecomposition
        Eigenvalues sorted by (real, imag), unit-norm eigenvector
        columns in matching order (largest entry real and positive),
        and a 1-norm condition estimate of the eigenvector matrix.

    Raises
    ------
    DefectiveMatrixError
        If the condition estimate exceeds 1e8, i.e. the matrix is
        defective or too close to defective for a reliable eigenbasis.
    ConvergenceError
        If LAPACK's eigenvalue iteration fails to converge.
    BlowupError
        If an eigenvalue lies outside the float64 range.
    """
    w, v, cond = _eig_raw(a)
    if cond > DEFECT_THRESHOLD:
        raise DefectiveMatrixError(
            f"eigenvector basis condition estimate {cond:.3e} exceeds "
            f"{DEFECT_THRESHOLD:.0e}; matrix is numerically defective",
            condition_estimate=cond,
        )
    return EigenDecomposition(eigenvalues=w, eigenvectors=v, condition_estimate=cond)
