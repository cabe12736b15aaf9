"""Accuracy of the closed form over long times, against a 60-digit reference.

The reference evaluates z = z0 exp(E) and z' = f z dtau/dt from one
mpmath.expm of the augmented matrix [[tau A, tau f0], [0, 0]], whose
top-left block is exp(tau A) and whose last column holds the exponent
E = tau phi1(tau A) f0.  tau is s for the base model and
(e^{mu s} - 1)/mu for the generalized one, and s = t - t0 is the float
time since the initial data that the closed form itself evaluates at.

The bound, for the relative error (2-norm over the particles) of the
positions and of the velocities at every sample:

    B(s) = 16 n eps cond(V)^2 (1 + max|a| |s|) (1 + max|E|)

with eps = 2^-52, n particles, cond(V) the 2-norm condition number of
the eigenvector matrix, a over the eigenvalues of alpha and, for the
generalized model, mu = lam + i omega, and max|E| the largest exponent
modulus over the particles and the grid (its real part is
log|z / z0|, its imaginary part the phase; both round alike).  Why:
LAPACK's eigenvalues are exact for a matrix within a small multiple of
eps |alpha| <= eps cond(V) max|a|, and Bauer-Fike moves them by
cond(V) times that; an eigenvalue error da moves e^{a s} by |s| da
relative, so the exponent's terms, of size up to max|E|, and f move by
about eps cond(V)^2 max|a| |s|, and the rounding of E itself adds
eps max|E| to the relative error of z.

The draws have purely imaginary spectra (the periodic class the long
times matter for) and, for the generalized model, lam in [-5e-4, 0], so
no velocity decays below the float64 range by s = 1e4.
"""
import mpmath
import numpy as np
import pytest

from planebody import ComplexState, CouplingSpec, GeneralizedParams, exact_states, spectral_solve

EPS = 2.0 ** -52
DIGITS = 60
S = np.array([0.0, 0.7, 31.3, 977.1, 9999.3])


def _bound(n, cond, amax, s, emax):
    return 16 * n * EPS * cond**2 * (1.0 + amax * abs(s)) * (1.0 + emax)


def _draw(seed, n, generalized):
    """Couplings V diag(a) V^-1 with cond(V) <= 50 and a purely
    imaginary spectrum a, initial data, cond(V), a, and the generalized
    model's parameters (None for the base model)."""
    rng = np.random.default_rng(seed)
    while True:
        v = np.eye(n) + 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        cond = np.linalg.cond(v)
        if cond <= 50.0:
            break
    w = 1j * rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 3.0, n)
    alpha = (v * w) @ np.linalg.inv(v)
    z0 = rng.uniform(0.5, 1.5, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    zdot0 = 0.2 * z0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    g = None
    if generalized:
        g = GeneralizedParams(-rng.uniform(0.0, 5e-4), rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    return CouplingSpec(alpha.real, alpha.imag), ComplexState(z0, zdot0), cond, w, g


def _mpc(x):
    return mpmath.mpc(float(x.real), float(x.imag))


def _reference(c, initial, g, s):
    """z and z' at the float time s since the initial data, and E."""
    n = c.n
    a = [[_mpc(c.beta[i, j] + 1j * c.gamma[i, j]) for j in range(n)] for i in range(n)]
    z0 = [_mpc(x) for x in initial.z]
    f0 = [_mpc(zd) / _mpc(z) for z, zd in zip(initial.z, initial.zdot)]
    s = mpmath.mpf(float(s))
    if g is None:
        tau, rate = s, mpmath.mpf(1)
    else:
        mu = mpmath.mpc(g.lam, g.omega)
        rate = mpmath.exp(mu * s)
        tau = (rate - 1) / mu
    m = mpmath.zeros(n + 1, n + 1)
    for i in range(n):
        for j in range(n):
            m[i, j] = tau * a[i][j]
        m[i, n] = tau * f0[i]
    x = mpmath.expm(m)
    e = [x[i, n] for i in range(n)]
    f = [mpmath.fsum(x[i, j] * f0[j] for j in range(n)) for i in range(n)]
    z = [z0[i] * mpmath.exp(e[i]) for i in range(n)]
    zdot = [f[i] * z[i] * rate for i in range(n)]
    return (np.array([complex(v) for v in vals]) for vals in (z, zdot, e))


def _rel(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@pytest.mark.parametrize("t0", [0.0, 1e6])
@pytest.mark.parametrize(
    "seed, n, generalized",
    [(1401, 2, False), (1402, 3, False), (1422, 3, False), (1403, 2, True), (1404, 3, True)],
)
def test_exact_states_meet_the_stated_bound_against_a_60_digit_reference(seed, n, generalized, t0):
    c, initial, cond, w, g = _draw(seed, n, generalized)
    amax = max(np.max(np.abs(w)), abs(complex(g.lam, g.omega)) if g else 0.0)
    times = t0 + S
    s = times - t0  # the float times the closed form evaluates at
    traj = exact_states(spectral_solve(c, initial, t0), times, g=g)
    z = traj.positions[..., 0] + 1j * traj.positions[..., 1]
    zdot = traj.velocities[..., 0] + 1j * traj.velocities[..., 1]
    with mpmath.workdps(DIGITS):
        refs = [tuple(_reference(c, initial, g, sk)) for sk in s]
    emax = max(np.max(np.abs(e)) for _, _, e in refs)
    for k, (zr, zdr, _) in enumerate(refs):
        bound = _bound(n, cond, amax, s[k], emax)
        assert _rel(z[k], zr) <= bound, (k, _rel(z[k], zr), bound)
        assert _rel(zdot[k], zdr) <= bound, (k, _rel(zdot[k], zdr), bound)
