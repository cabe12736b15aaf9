"""Shared helpers for the test suite: seeded generators and matchers."""
from __future__ import annotations

import numpy as np

from planebody import CouplingSpec, PlaneState, to_complex


def random_couplings(rng: np.random.Generator, n: int, scale: float = 0.5) -> CouplingSpec:
    return CouplingSpec(
        scale * rng.standard_normal((n, n)),
        scale * rng.standard_normal((n, n)),
    )


def random_state(rng: np.random.Generator, n: int, vel_scale: float = 0.5) -> PlaneState:
    """Random plane state kept safely away from the origin."""
    while True:
        pos = rng.standard_normal((n, 2))
        r = np.sqrt(np.sum(pos * pos, axis=1))
        if np.min(r) > 0.3:
            break
    return PlaneState(pos, vel_scale * rng.standard_normal((n, 2)))


def random_complex_matrix(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def match_distance(w1, w2) -> float:
    """Largest distance in a greedy pairing of two eigenvalue multisets."""
    a = list(np.asarray(w1, dtype=np.complex128).ravel())
    b = list(np.asarray(w2, dtype=np.complex128).ravel())
    assert len(a) == len(b)
    worst = 0.0
    for x in a:
        j = int(np.argmin([abs(x - y) for y in b]))
        worst = max(worst, abs(x - b[j]))
        b.pop(j)
    return worst


def state_distance(s1: PlaneState, s2: PlaneState) -> float:
    """Max euclidean deviation over particles, positions and velocities."""
    dp = np.sqrt(np.sum((s1.positions - s2.positions) ** 2, axis=1))
    dv = np.sqrt(np.sum((s1.velocities - s2.velocities) ** 2, axis=1))
    return float(max(np.max(dp), np.max(dv)))


def complex_state_of(s: PlaneState):
    return to_complex(s)


def count_frozen_arrays(monkeypatch) -> list:
    """Count calls of the validating array constructor behind PlaneState:
    the returned list grows by one per call."""
    import planebody.model as model

    calls = []
    real = model._frozen_array

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "_frozen_array", counting)
    return calls
