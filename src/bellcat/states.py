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
import math
from functools import cached_property

from .spins import SpinQuantum, _Record

__all__ = [
    "CatCoefficients",
    "CatState",
    "singlet",
]


class CatCoefficients(_Record):
    """Superposition parameters (alpha, gamma1, gamma2).

    alpha mixes the two branches; gamma1 and gamma2 are branch phases, and
    only their difference delta = gamma1 - gamma2 is observable.
    """

    alpha: float
    gamma1: float
    gamma2: float

    def __init__(self, alpha: float, gamma1: float = 0.0, gamma2: float = 0.0) -> None:
        for name, v in (("alpha", alpha), ("gamma1", gamma1), ("gamma2", gamma2)):
            if not math.isfinite(float(v)):
                raise ValueError(f"{name} must be finite, got {v}")
            self.__dict__[name] = float(v)

    @property
    def c1(self) -> complex:
        return math.cos(self.alpha) * cmath.exp(1j * self.gamma1)

    @property
    def c2(self) -> complex:
        return math.sin(self.alpha) * cmath.exp(1j * self.gamma2)

    @property
    def delta(self) -> float:
        return self.gamma1 - self.gamma2

    @property
    def weight1(self) -> float:
        """|c1|^2 = cos(alpha)^2."""
        return math.cos(self.alpha) ** 2

    @property
    def weight2(self) -> float:
        """|c2|^2 = sin(alpha)^2."""
        return math.sin(self.alpha) ** 2

    @property
    def interference(self) -> float:
        """sin(2*alpha) = 2 cos(alpha) sin(alpha), the cross-term prefactor."""
        return math.sin(2.0 * self.alpha)


class CatState(_Record):
    """A spin quantum number together with cat coefficients."""

    s: SpinQuantum
    coeffs: CatCoefficients

    def __init__(self, s: SpinQuantum, coeffs: CatCoefficients) -> None:
        d = self.__dict__
        d["s"], d["coeffs"] = s, coeffs

    @cached_property
    def closed_constants(self) -> tuple[float, float, float, int, float, int]:
        """(w1, w2, sin(2 alpha), 2s, delta, (-1)^(2s)), the constants of the
        closed-form diagonal elements, read once per state."""
        c, s = self.coeffs, self.s
        return c.weight1, c.weight2, c.interference, s.two_s, c.delta, s.parity


def singlet(s: SpinQuantum) -> CatState:
    """The antisymmetric-like cat state with c1 = 1/sqrt(2), c2 = -1/sqrt(2).

    For s = 1/2 this is the spin singlet; for higher s it is the natural
    generalization with the same coefficients.
    """
    return CatState(s, CatCoefficients(-math.pi / 4.0, 0.0, 0.0))
