"""Shared draw helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from bellcat import CatCoefficients, CatState, Direction, SpinQuantum


def random_direction(rng: np.random.Generator) -> Direction:
    """Uniform draw over the sphere (cos(theta) uniform)."""
    cos_t = rng.uniform(-1.0, 1.0)
    return Direction(math.acos(cos_t), rng.uniform(0.0, 2.0 * math.pi))


def random_directions(rng: np.random.Generator, count: int) -> list[Direction]:
    """count successive random_direction draws, from one rng.random call.

    uniform(low, high) is low + (high - low) * random(), so mapping one
    batch of 2 * count uniforms in random_direction's order reproduces its
    Directions bit for bit and leaves rng in the same state.
    """
    u = rng.random(2 * count)
    cos_t = (-1.0 + 2.0 * u[0::2]).tolist()
    phi = (2.0 * math.pi * u[1::2]).tolist()
    return [Direction(math.acos(c), p) for c, p in zip(cos_t, phi)]


def random_state(rng: np.random.Generator, two_s: int) -> CatState:
    alpha, g1, g2 = rng.uniform(-math.pi, math.pi, 3)
    return CatState(SpinQuantum(two_s), CatCoefficients(alpha, g1, g2))


def nondegenerate_pair(rng: np.random.Generator,
                       min_dot: float = -0.9) -> tuple[Direction, Direction]:
    """Direction pair suitable for geometric-phase checks.

    Rejects near-antipodal pairs (overlap modulus vanishes there, making
    its phase ill-conditioned) and pairs where either leg sits on the
    reference pole or the two legs are near-parallel.
    """
    while True:
        n1 = random_direction(rng)
        n2 = random_direction(rng)
        if n1.dot(n2) <= min_dot:
            continue
        ok = all(0.05 < n.theta < math.pi - 0.05 for n in (n1, n2))
        if ok and np.linalg.norm(np.cross(n1.unit_vector(), n2.unit_vector())) > 1e-6:
            return n1, n2
