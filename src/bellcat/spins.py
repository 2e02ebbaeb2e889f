"""Single-particle spin-s algebra.

Dicke-basis kets, spin coherent states pointing along arbitrary unit
vectors, spin operator matrices built from ladder operators, and the signed
spherical-triangle area that fixes the geometric (Berry) phase of
coherent-state overlaps.
"""

from __future__ import annotations

import cmath
import math
from functools import total_ordering

__all__ = [
    "SpinQuantum",
    "Direction",
    "DickeKet",
    "SpinMatrices",
    "DegenerateTriangleError",
    "coherent_state",
    "spin_matrices",
    "overlap_plus",
    "berry_area",
]

# Angular tolerance below which a spherical triangle vertex is treated as
# sitting on top of another (or on the reference pole).
DEGENERACY_TOL = 1e-9

# Above this 2s the binomial amplitude prefactors are assembled in log space
# to avoid overflow in comb() and underflow in the half-angle powers.
_LOG_SPACE_2S = 60


class DegenerateTriangleError(ValueError):
    """Spherical triangle has coincident or antipodal vertices, area undefined."""


class BudgetExceededError(ValueError):
    """A request exceeds spins.COHERENT_DIM_LIMIT, sampling.SHOT_LIMIT,
    optimize.EXPORT_ROW_LIMIT or optimize.EVALUATION_LIMIT."""


class _Record:
    """Immutable value type whose fields are the subclass's own annotations,
    filled by its __init__ through self.__dict__.  Equal for the same class
    and field tuple, hashed as that tuple, printed as Name(field=value, ...)."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def _values(self) -> tuple:
        return tuple([self.__dict__[name] for name in self._fields])

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{self.__class__.__qualname__} is immutable: {name!r} cannot change")

    __delattr__ = __setattr__


@total_ordering
class SpinQuantum(_Record):
    """Spin quantum number, stored exactly as the integer 2s.

    Keeping 2s as an int makes half-integer spins representable without
    rounding, so the parity factor (-1)^(2s) that separates integer from
    half-integer spin is computed exactly.
    """

    two_s: int

    def __init__(self, two_s: int) -> None:
        if not isinstance(two_s, int) or isinstance(two_s, bool):
            raise TypeError(f"two_s must be an int, got {type(two_s).__name__}")
        if two_s < 1:
            raise ValueError(f"two_s must be >= 1, got {two_s}")
        self.__dict__["two_s"] = two_s

    def __lt__(self, other):
        return self.two_s < other.two_s if other.__class__ is self.__class__ else NotImplemented

    @property
    def s(self) -> float:
        return self.two_s / 2.0

    @property
    def dim(self) -> int:
        """Dimension 2s + 1 of the one-particle Hilbert space."""
        return self.two_s + 1

    @property
    def is_integer(self) -> bool:
        return self.two_s % 2 == 0

    @property
    def parity(self) -> int:
        """(-1)^(2s): +1 for integer spin, -1 for half-integer spin."""
        return 1 if self.two_s % 2 == 0 else -1

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in storage order: s, s-1, ..., -s."""
        import numpy as np

        return self.s - np.arange(self.dim, dtype=float)


def canonical_angles(theta: float, phi: float) -> tuple[float, float]:
    """(theta, phi) as Python floats with theta in [0, pi] and phi in [0, 2*pi).

    The canonicalization every Direction applies on construction, for
    callers that need the angles without the object.  Raises ValueError
    for a non-finite angle.
    """
    t = float(theta)
    p = float(phi)
    if not (math.isfinite(t) and math.isfinite(p)):
        raise ValueError(f"angles must be finite, got ({theta}, {phi})")
    t = t % (2.0 * math.pi)
    if t > math.pi:
        t = 2.0 * math.pi - t
        p = p + math.pi
    p = p % (2.0 * math.pi)
    if p == 2.0 * math.pi:
        # the remainder of a tiny negative p rounds up to 2*pi itself
        p = 0.0
    return t, p


class Direction(_Record):
    """Point on the unit sphere given by polar angle theta and azimuth phi.

    Input angles may be any finite floats; they are canonicalized on
    construction to theta in [0, pi] and phi in [0, 2*pi), which keeps every
    downstream closed form single-valued.
    """

    theta: float
    phi: float

    def __init__(self, theta: float, phi: float) -> None:
        d = self.__dict__
        d["theta"], d["phi"] = canonical_angles(theta, phi)

    def unit_vector(self) -> np.ndarray:
        """Cartesian components (sin t cos p, sin t sin p, cos t)."""
        import numpy as np

        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )

    def dot(self, other: "Direction") -> float:
        import numpy as np

        return float(np.dot(self.unit_vector(), other.unit_vector()))


class DickeKet(_Record):
    """One-particle state expanded in the s_z eigenbasis.

    Amplitudes are stored with m descending: amps[0] multiplies |s, m=+s>
    and amps[2s] multiplies |s, m=-s>, matching the diagonal of the s_z
    matrix returned by spin_matrices().
    """

    s: SpinQuantum
    amps: np.ndarray

    def __init__(self, s: SpinQuantum, amps: np.ndarray) -> None:
        import numpy as np

        a = np.array(amps, dtype=complex)
        if a.shape != (s.dim,):
            raise ValueError(f"expected {s.dim} amplitudes, got shape {a.shape}")
        a.setflags(write=False)
        d = self.__dict__
        d["s"], d["amps"] = s, a


def _binom_halfpowers(two_s: int, k: int, cos_half: float, sin_half: float,
                      cos_exp: int, sin_exp: int) -> float:
    """sqrt(C(2s, k)) * cos_half**cos_exp * sin_half**sin_exp, overflow-safe."""
    if two_s <= _LOG_SPACE_2S:
        return math.sqrt(math.comb(two_s, k)) * cos_half**cos_exp * sin_half**sin_exp
    if (cos_half == 0.0 and cos_exp > 0) or (sin_half == 0.0 and sin_exp > 0):
        return 0.0
    log_mag = 0.5 * (
        math.lgamma(two_s + 1) - math.lgamma(k + 1) - math.lgamma(two_s - k + 1)
    )
    if cos_exp:
        log_mag += cos_exp * math.log(cos_half)
    if sin_exp:
        log_mag += sin_exp * math.log(sin_half)
    return math.exp(log_mag)


# Ceiling on the dimension 2s + 1 of one coherent_state ket.
COHERENT_DIM_LIMIT = 10**6


def coherent_state(s: SpinQuantum, direction: Direction, sign: int = +1) -> DickeKet:
    """Spin coherent state along +direction (sign=+1) or -direction (sign=-1).

    Parameters
    ----------
    s : SpinQuantum
        Spin of the particle.
    direction : Direction
        Unit vector the spin points along (for sign=+1) or against.
    sign : int
        +1 or -1.  The two signs use one consistent phase convention, fixed
        by the closed-form binomial expansion in the s_z basis:

            <s,m | +n> = sqrt(C(2s, s+m)) K^(s+m) G^(s-m) exp(i (s-m) phi)
            <s,m | -n> = sqrt(C(2s, s+m)) K^(s-m) G^(s+m) exp(i (s-m) (phi+pi))

        with K = cos(theta/2), G = sin(theta/2).  The pair is orthonormal
        for every direction.

    Returns
    -------
    DickeKet
        Normalized eigenket of n.S with eigenvalue sign * s.

    Raises
    ------
    BudgetExceededError
        If 2s + 1 exceeds COHERENT_DIM_LIMIT; nothing is allocated.
    """
    import numpy as np

    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if s.dim > COHERENT_DIM_LIMIT:
        raise BudgetExceededError(
            f"dimension {s.dim} exceeds the coherent-state limit {COHERENT_DIM_LIMIT:.0e}"
        )
    two_s = s.two_s
    chalf = math.cos(direction.theta / 2.0)
    shalf = math.sin(direction.theta / 2.0)
    phase_step = direction.phi if sign > 0 else direction.phi + math.pi
    amps = np.empty(s.dim, dtype=complex)
    for i in range(s.dim):
        # storage index i corresponds to m = s - i, so s+m = 2s-i and s-m = i
        if sign > 0:
            mag = _binom_halfpowers(two_s, i, chalf, shalf, two_s - i, i)
        else:
            mag = _binom_halfpowers(two_s, i, chalf, shalf, i, two_s - i)
        amps[i] = mag * cmath.exp(1j * i * phase_step)
    return DickeKet(s, amps)


def overlap_plus(s: SpinQuantum, n1: Direction, n2: Direction) -> complex:
    """Closed-form overlap <+n1|+n2> between same-sign coherent states.

    Equals (K1 K2 + G1 G2 exp(i (phi2 - phi1)))^(2s); its modulus is
    ((1 + n1.n2)/2)^s and its phase is s times the signed area of the
    spherical triangle (pole, n1, n2), mod 2*pi.
    """
    k1, g1 = math.cos(n1.theta / 2.0), math.sin(n1.theta / 2.0)
    k2, g2 = math.cos(n2.theta / 2.0), math.sin(n2.theta / 2.0)
    base = k1 * k2 + g1 * g2 * cmath.exp(1j * (n2.phi - n1.phi))
    return base ** s.two_s


class SpinMatrices(_Record):
    """Matrix representations of (sx, sy, sz) in the descending-m basis."""

    s: SpinQuantum
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray

    def __init__(self, s: SpinQuantum, sx: np.ndarray, sy: np.ndarray, sz: np.ndarray) -> None:
        for m in (sx, sy, sz):
            m.setflags(write=False)
        d = self.__dict__
        d["s"], d["sx"], d["sy"], d["sz"] = s, sx, sy, sz

    def along(self, direction: Direction) -> np.ndarray:
        """Component n.S of the spin along a unit vector."""
        nx, ny, nz = direction.unit_vector()
        return nx * self.sx + ny * self.sy + nz * self.sz


def spin_matrices(s: SpinQuantum) -> SpinMatrices:
    """Spin operator matrices for spin s, from the ladder construction.

    sz is diagonal with entries s, s-1, ..., -s.  The raising operator has
    <m+1|S+|m> = sqrt(s(s+1) - m(m+1)); sx and sy follow as the Hermitian
    combinations (S+ + S-)/2 and (S+ - S-)/(2i).
    """
    import numpy as np

    dim = s.dim
    m = s.m_values()
    sz = np.diag(m.astype(complex))
    sp = np.zeros((dim, dim), dtype=complex)
    sval = s.s
    for i in range(1, dim):
        # S+ maps storage row i (m = s-i) up to row i-1 (m = s-i+1)
        mi = sval - i
        sp[i - 1, i] = math.sqrt(sval * (sval + 1.0) - mi * (mi + 1.0))
    sm = sp.conj().T
    sx = (sp + sm) / 2.0
    sy = (sp - sm) / 2j
    return SpinMatrices(s, sx, sy, sz)


def berry_area(n1: Direction, n2: Direction) -> float:
    """Signed area of the spherical triangle with vertices (pole, n1, n2).

    Computed with the Van Oosterom-Strackee solid-angle formula, which is
    numerically stable for small triangles.  The sign follows the vertex
    order pole -> n1 -> n2 (positive when that circuit is counterclockwise
    seen from outside the sphere), and the result lies in (-2*pi, 2*pi).
    The geometric phase of <+n1|+n2> is s times this area, mod 2*pi.

    Raises
    ------
    DegenerateTriangleError
        If either direction is within DEGENERACY_TOL of the pole or the two
        directions are within DEGENERACY_TOL of parallel or antiparallel:
        the triangle then collapses and the area is not unique.
    """
    import numpy as np

    for n in (n1, n2):
        if n.theta < DEGENERACY_TOL or math.pi - n.theta < DEGENERACY_TOL:
            raise DegenerateTriangleError(
                f"direction (theta={n.theta:.3g}) coincides with the reference pole"
            )
    v1 = n1.unit_vector()
    v2 = n2.unit_vector()
    cross = np.cross(v1, v2)
    if float(np.linalg.norm(cross)) < DEGENERACY_TOL:
        raise DegenerateTriangleError("directions are parallel or antiparallel")
    # z is the pole vertex: triple product z.(v1 x v2) and the three dot products
    numer = float(cross[2])
    denom = 1.0 + float(np.dot(v1, v2)) + float(v1[2]) + float(v2[2])
    return 2.0 * math.atan2(numer, denom)
