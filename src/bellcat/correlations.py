"""Joint measurement statistics for two spins measured along tilted axes.

Each party measures the spin projection along its own axis and the run is
kept only when the outcomes are extremal (m = +s or m = -s); the four
conclusive outcomes are ordered

    1: (+a, +b)   2: (+a, -b)   3: (-a, +b)   4: (-a, -b).

Every diagonal element of the density matrix in that outcome basis splits
into a local contribution (from the branch dyads) and a non-local one (from
the interference dyads), and the +-1 product correlation inherits the same
split.  The closed forms below are cross-checked against a brute-force
dyad-summation oracle in tests/reference.py.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

from .spins import Direction, SpinQuantum, _Record, spin_matrices
from .states import CatState

__all__ = [
    "DiagonalElements",
    "CorrelationBreakdown",
    "DegeneratePostselectionError",
    "InternalConsistencyError",
    "rho_elements_closed",
    "correlation",
    "lc_correlation_closed",
    "wigner_joint",
    "unrestricted_correlation",
]

# Below this conclusive weight, postselected correlations are undefined.
WEIGHT_TOL = 1e-12

_IMAG_TOL = 1e-12


class DegeneratePostselectionError(ValueError):
    """Conclusive-outcome weight too small to condition on."""


class InternalConsistencyError(RuntimeError):
    """A quantity that must be real came out with a significant imaginary part."""


class DiagonalElements(_Record):
    """Outcome probabilities split into local and non-local parts.

    lc[i] and nlc[i] are the two contributions to <i|rho|i> for outcome
    i+1 in basis order; their sums over i give the conclusive weight.
    Local entries are non-negative; non-local entries may have either sign.
    """

    lc: np.ndarray
    nlc: np.ndarray

    def __init__(self, lc: np.ndarray, nlc: np.ndarray) -> None:
        import numpy as np

        for name, v in (("lc", lc), ("nlc", nlc)):
            arr = np.asarray(v, dtype=float)
            if arr.shape != (4,):
                raise ValueError(f"{name} must have shape (4,), got {arr.shape}")
            arr.setflags(write=False)
            self.__dict__[name] = arr

    @property
    def totals(self) -> np.ndarray:
        return self.lc + self.nlc

    @property
    def weight(self) -> float:
        """Total conclusive probability, the mass kept by postselection."""
        return float(_weight(self.lc, self.nlc))


class CorrelationBreakdown(_Record):
    """The +-1 product correlation and its local/non-local split.

    In raw mode inconclusive outcomes count as zero and p_total lies in
    [-1, 1], up to an ulp when cos(alpha)^2 + sin(alpha)^2 rounds above 1;
    in postselected mode all three correlation fields are divided
    by the conclusive weight.  postselect_weight always reports the raw
    conclusive weight.
    """

    p_total: float
    p_lc: float
    p_nlc: float
    postselect_weight: float
    mode: str

    def __init__(self, p_total: float, p_lc: float, p_nlc: float,
                 postselect_weight: float, mode: str) -> None:
        d = self.__dict__
        d["p_total"], d["p_lc"], d["p_nlc"] = p_total, p_lc, p_nlc
        d["postselect_weight"], d["mode"] = postselect_weight, mode

    def to_dict(self) -> dict:
        return self._asdict()


def _axis(two_s: int, theta: float, phi: float) -> tuple[float, float, float]:
    """One axis's factors in the closed forms: (K, G, phi) with
    K = cos(theta/2)^(2s) and G = sin(theta/2)^(2s).

    Python floats, not numpy: float64 array powers can differ from
    float ** int in the last bit.
    """
    return math.cos(theta / 2.0) ** two_s, math.sin(theta / 2.0) ** two_s, phi


def _elements(consts: tuple, fa: tuple, fb: tuple) -> tuple[tuple, tuple]:
    """rho_elements_closed's closed forms as (lc, nlc) 4-tuples, from the
    state's closed_constants and the _axis factors of a and b."""
    w1, w2, interference, two_s, delta, parity = consts
    ka, ga, phi_a = fa
    kb, gb, phi_b = fb
    ka2, ga2, kb2, gb2 = ka * ka, ga * ga, kb * kb, gb * gb
    lc = (w1 * ka2 * gb2 + w2 * ga2 * kb2, w1 * ka2 * kb2 + w2 * ga2 * gb2,
          w1 * ga2 * gb2 + w2 * ka2 * kb2, w1 * ga2 * kb2 + w2 * ka2 * gb2)
    cross = interference * math.cos(two_s * (phi_a - phi_b) + delta) * ka * ga * kb * gb
    flipped = parity * cross
    return lc, (cross, flipped, flipped, cross)


def _closed_parts(state: CatState, a: Direction, b: Direction) -> tuple[tuple, tuple]:
    """_elements for the axes a and b."""
    consts = state.closed_constants
    two_s = consts[3]
    return _elements(consts, _axis(two_s, a.theta, a.phi), _axis(two_s, b.theta, b.phi))


def _weight(lc: tuple, nlc: tuple) -> float:
    """The conclusive weight: lc and nlc each summed left to right, numpy's
    order for a 4-vector.  The one sum behind DiagonalElements.weight and
    every kernel that divides by the weight."""
    return (((lc[0] + lc[1]) + lc[2]) + lc[3]) + (((nlc[0] + nlc[1]) + nlc[2]) + nlc[3])


def _conclusive(weight: float) -> float:
    """weight, which a postselected value divides by; the one check that
    raises DegeneratePostselectionError below WEIGHT_TOL."""
    if weight < WEIGHT_TOL:
        raise DegeneratePostselectionError(
            f"conclusive weight {weight:.3e} below {WEIGHT_TOL:.0e}"
        )
    return weight


def _split(lc: tuple, nlc: tuple, postselected: bool) -> tuple[float, float, float]:
    """(p_lc, p_nlc, weight) of correlation, divided by the weight when
    postselected; DegeneratePostselectionError below WEIGHT_TOL."""
    # Fixed association (v1 - v2) + (v4 - v3) so equal-and-opposite pairs
    # cancel to exactly 0.0 in floating point.
    p_lc = (lc[0] - lc[1]) + (lc[3] - lc[2])
    p_nlc = (nlc[0] - nlc[1]) + (nlc[3] - nlc[2])
    weight = _weight(lc, nlc)
    if postselected:
        _conclusive(weight)
        p_lc /= weight
        p_nlc /= weight
    return p_lc, p_nlc, weight


def pair_kernel(state: CatState, part: str, mode: str,
                joint: bool) -> tuple[Callable[[float, float], object],
                                      Callable[[object, object], float]]:
    """(prepare, pair) for the correlation, or the (+,+) joint when joint is set.

    prepare(theta, phi) turns one canonical axis into its factors, and
    pair(fa, fb) returns from two axes' factors the float that
    lc_correlation_closed (part "lc") or correlation(...).p_total (part
    "full"), or wigner_joint(..., +1, +1, part), returns for the same axes,
    raising as they do.  A postselected "full" joint is divided by the
    conclusive weight, and raises DegeneratePostselectionError below
    WEIGHT_TOL as correlation does.  Factors computed once per axis serve
    every pair it is in.
    """
    consts = state.closed_constants
    two_s = consts[3]
    postselected = mode == "postselected"
    if not joint and part == "lc":
        def pair(xa, xb):
            return -xa * xb
        return partial(_lc_axis, two_s), pair
    if not joint and postselected:
        def pair(fa, fb):
            p_lc, p_nlc, _ = _split(*_elements(consts, fa, fb), True)
            return p_lc + p_nlc
    elif not joint:
        # _split's p_lc + p_nlc, without the weight raw mode never reads
        def pair(fa, fb):
            lc, nlc = _elements(consts, fa, fb)
            return ((lc[0] - lc[1]) + (lc[3] - lc[2])) + ((nlc[0] - nlc[1]) + (nlc[3] - nlc[2]))
    elif part == "lc":
        def pair(fa, fb):
            return _elements(consts, fa, fb)[0][0]
    else:
        def pair(fa, fb):
            lc, nlc = _elements(consts, fa, fb)
            p = lc[0] + nlc[0]
            if postselected:
                p /= _conclusive(_weight(lc, nlc))
            return p
    return partial(_axis, two_s), pair


def rho_elements_closed(state: CatState, a: Direction, b: Direction) -> DiagonalElements:
    """Diagonal elements from the closed forms.

    With Ka = cos(theta_a/2)^(2s), Ga = sin(theta_a/2)^(2s) (same for b),
    w1 = |c1|^2, w2 = |c2|^2:

        lc = (w1 Ka^2 Gb^2 + w2 Ga^2 Kb^2,  w1 Ka^2 Kb^2 + w2 Ga^2 Gb^2,
              w1 Ga^2 Gb^2 + w2 Ka^2 Kb^2,  w1 Ga^2 Kb^2 + w2 Ka^2 Gb^2)

        nlc_1 = nlc_4 = sin(2 alpha) cos(2s (phi_a - phi_b) + delta) Ka Ga Kb Gb
        nlc_2 = nlc_3 = (-1)^(2s) * nlc_1

    The (-1)^(2s) factor is the geometric phase picked up when one party's
    outcome is flipped; it is what makes integer and half-integer spins
    behave differently.
    """
    import numpy as np

    lc, nlc = _closed_parts(state, a, b)
    return DiagonalElements(np.array(lc), np.array(nlc))


def correlation(state: CatState, a: Direction, b: Direction,
                mode: str = "raw") -> CorrelationBreakdown:
    """Correlation of the +-1 outcome products for axes a and b.

    Parameters
    ----------
    state : CatState
    a, b : Direction
        Measurement axes of the two parties.
    mode : str
        "raw" counts inconclusive runs as zero product; "postselected"
        conditions on the conclusive outcomes by dividing through by the
        conclusive weight.

    Raises
    ------
    DegeneratePostselectionError
        In postselected mode when the conclusive weight is below WEIGHT_TOL.
    """
    if mode not in ("raw", "postselected"):
        raise ValueError(f"mode must be 'raw' or 'postselected', got {mode!r}")
    lc, nlc = _closed_parts(state, a, b)
    p_lc, p_nlc, weight = _split(lc, nlc, mode == "postselected")
    return CorrelationBreakdown(p_lc + p_nlc, p_lc, p_nlc, weight, mode)


def lc_correlation_closed(s: SpinQuantum, a: Direction, b: Direction) -> float:
    """Local part of the correlation; independent of the cat coefficients.

    Equals -(Ka^2 - Ga^2)(Kb^2 - Gb^2) with the same K, G shorthand as
    rho_elements_closed, i.e. -cos(theta_a) cos(theta_b) for s = 1/2.
    """
    return -_lc_axis(s.two_s, a.theta) * _lc_axis(s.two_s, b.theta)


def _lc_axis(two_s: int, theta: float, phi: float = 0.0) -> float:
    """One axis's factor in lc_correlation_closed: K^2 - G^2 as
    cos(theta/2)^(4s) - sin(theta/2)^(4s); phi does not enter."""
    return math.cos(theta / 2.0) ** (2 * two_s) - math.sin(theta / 2.0) ** (2 * two_s)


# Outcome pairs in the order of the diagonal elements and sampling.CATEGORIES.
_SIGN_INDEX = {(+1, +1): 0, (+1, -1): 1, (-1, +1): 2, (-1, -1): 3}


def _sign_index(sign_a: int, sign_b: int) -> int:
    if (sign_a, sign_b) not in _SIGN_INDEX:
        raise ValueError(f"signs must be +1 or -1, got {(sign_a, sign_b)}")
    return _SIGN_INDEX[sign_a, sign_b]


def wigner_joint(state: CatState, a: Direction, b: Direction,
                 sign_a: int = +1, sign_b: int = +1, part: str = "lc") -> float:
    """Joint probability of the outcome pair (sign_a at a, sign_b at b).

    part selects the local contribution alone ("lc", the probability a
    local hidden-variable mixture of the two branches would assign) or the
    full quantum value ("full").
    """
    i = _sign_index(sign_a, sign_b)
    if part not in ("lc", "full"):
        raise ValueError(f"part must be 'lc' or 'full', got {part!r}")
    lc, nlc = _closed_parts(state, a, b)
    return lc[i] if part == "lc" else lc[i] + nlc[i]


def unrestricted_correlation(state: CatState, a: Direction, b: Direction) -> float:
    """Expectation <(S.a)(S.b)> without restricting to extremal outcomes.

    Computed directly from the spin matrices, so it holds for any cat
    coefficients.  For s >= 1 the closed result is
    -s^2 cos(theta_a) cos(theta_b); transverse spin components only
    connect m values differing by 1, and the two branches differ by 2s.
    """
    import numpy as np

    mats = spin_matrices(state.s)
    op_a = mats.along(a)
    op_b = mats.along(b)
    dim = state.s.dim
    c = state.coeffs
    psi = np.zeros((dim, dim), dtype=complex)
    psi[0, -1] = c.c1
    psi[-1, 0] = c.c2
    # <psi|(A x B)|psi> via the reshape identity (A x B) vec(M) = vec(A M B^T)
    value = np.sum(psi.conj() * (op_a @ psi @ op_b.T))
    if abs(value.imag) > _IMAG_TOL:
        raise InternalConsistencyError(
            f"unrestricted correlation has imaginary part {value.imag:.3e}"
        )
    return float(value.real)
