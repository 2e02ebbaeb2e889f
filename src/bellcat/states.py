"""Bipartite spin-s cat states.

The state of interest superposes two back-to-back product configurations,

    |psi> = c1 |m=+s> x |m=-s>  +  c2 |m=-s> x |m=+s>,

with c1 = cos(alpha) e^(i gamma1) and c2 = sin(alpha) e^(i gamma2).  Its
density matrix splits into a local part (two product dyads, diagonal in the
configuration labels) and a non-local interference part (two cross dyads),
and every correlation quantity downstream reports against that split.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spins import DickeKet, SpinMismatchError, SpinQuantum, extreme_state, inner

__all__ = [
    "CatCoefficients",
    "CatState",
    "ProductKet",
    "DensityDyads",
    "singlet",
    "density_dyads",
    "full_matrix",
]


@dataclass(frozen=True)
class CatCoefficients:
    """Superposition parameters (alpha, gamma1, gamma2).

    alpha mixes the two branches; gamma1 and gamma2 are branch phases, and
    only their difference delta = gamma1 - gamma2 is observable.
    """

    alpha: float
    gamma1: float = 0.0
    gamma2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha", "gamma1", "gamma2"):
            v = getattr(self, name)
            if not math.isfinite(float(v)):
                raise ValueError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, float(v))

    @property
    def c1(self) -> complex:
        return math.cos(self.alpha) * cmath.exp(1j * self.gamma1)

    @property
    def c2(self) -> complex:
        return math.sin(self.alpha) * cmath.exp(1j * self.gamma2)

    @cached_property
    def delta(self) -> float:
        return self.gamma1 - self.gamma2

    @cached_property
    def weight1(self) -> float:
        """|c1|^2 = cos(alpha)^2."""
        return math.cos(self.alpha) ** 2

    @cached_property
    def weight2(self) -> float:
        """|c2|^2 = sin(alpha)^2."""
        return math.sin(self.alpha) ** 2

    @cached_property
    def interference(self) -> float:
        """sin(2*alpha) = 2 cos(alpha) sin(alpha), the cross-term prefactor."""
        return math.sin(2.0 * self.alpha)


@dataclass(frozen=True)
class CatState:
    """A spin quantum number together with cat coefficients."""

    s: SpinQuantum
    coeffs: CatCoefficients

    def to_dict(self) -> dict:
        return {
            "two_s": self.s.two_s,
            "alpha": self.coeffs.alpha,
            "gamma1": self.coeffs.gamma1,
            "gamma2": self.coeffs.gamma2,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "CatState":
        known = {"two_s", "alpha", "gamma1", "gamma2"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown state fields: {sorted(extra)}")
        if "two_s" not in data:
            raise ValueError("state requires two_s")
        return cls(
            SpinQuantum(int(data["two_s"])),
            CatCoefficients(
                float(data.get("alpha", -math.pi / 4.0)),
                float(data.get("gamma1", 0.0)),
                float(data.get("gamma2", 0.0)),
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "CatState":
        return cls.from_dict(json.loads(text))


def singlet(s: SpinQuantum) -> CatState:
    """The antisymmetric-like cat state with c1 = 1/sqrt(2), c2 = -1/sqrt(2).

    For s = 1/2 this is the spin singlet; for higher s it is the natural
    generalization with the same coefficients.
    """
    return CatState(s, CatCoefficients(-math.pi / 4.0, 0.0, 0.0))


@dataclass(frozen=True)
class ProductKet:
    """Uncorrelated two-particle state |first> x |second>."""

    first: DickeKet
    second: DickeKet

    def __post_init__(self) -> None:
        if self.first.s != self.second.s:
            raise SpinMismatchError(
                f"parties carry different spins: 2s={self.first.s.two_s} "
                f"vs 2s={self.second.s.two_s}"
            )

    @property
    def s(self) -> SpinQuantum:
        return self.first.s

    def overlap(self, other: "ProductKet") -> complex:
        """<self|other>, factorizing over the two parties."""
        return inner(self.first, other.first) * inner(self.second, other.second)

    def vector(self) -> np.ndarray:
        """Amplitudes in the product basis, first particle as the slow index."""
        return np.kron(self.first.amps, self.second.amps)


@dataclass(frozen=True)
class DensityDyads:
    """Density matrix of a cat state as a sum of weighted dyads |u><v|.

    local holds the two diagonal-in-branch terms |1><1| and |2><2| with
    weights |c1|^2 and |c2|^2; cross holds the interference terms |1><2|
    and |2><1| with weights c1 conj(c2) and c2 conj(c1).  The full density
    matrix is the sum of all four.
    """

    local: tuple[tuple[complex, ProductKet, ProductKet], ...]
    cross: tuple[tuple[complex, ProductKet, ProductKet], ...]

    def terms(self) -> tuple[tuple[complex, ProductKet, ProductKet], ...]:
        return self.local + self.cross


def _branches(state: CatState) -> tuple[ProductKet, ProductKet]:
    s = state.s
    up = extreme_state(s, +1)
    down = extreme_state(s, -1)
    return ProductKet(up, down), ProductKet(down, up)


def density_dyads(state: CatState) -> DensityDyads:
    """Split the cat-state density matrix into local and cross dyads."""
    b1, b2 = _branches(state)
    c1 = state.coeffs.c1
    c2 = state.coeffs.c2
    local = (
        (complex(abs(c1) ** 2), b1, b1),
        (complex(abs(c2) ** 2), b2, b2),
    )
    cross = (
        (c1 * c2.conjugate(), b1, b2),
        (c2 * c1.conjugate(), b2, b1),
    )
    return DensityDyads(local, cross)


def full_matrix(state: CatState) -> np.ndarray:
    """Dense density matrix in the product Dicke basis, for cross-checks."""
    b1, b2 = _branches(state)
    psi = state.coeffs.c1 * b1.vector() + state.coeffs.c2 * b2.vector()
    return np.outer(psi, psi.conj())
