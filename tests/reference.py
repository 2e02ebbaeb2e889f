"""Brute-force reference implementations the tests compare bellcat against.

Everything here expands states as explicit vectors and sums dyads or
matrices directly, so it shares no arithmetic with the closed forms in
bellcat: product kets and the cat state's density dyads, the dense
density matrix, coherent states built by rotation, spin moments, and the
dyad-summation oracle for the diagonal elements.  It also keeps the
numpy bookkeeping of the five sampling categories that bellcat replaced
with float arithmetic, and a per-pair reader loop for the inequality
checks, which read providers through their kernels, for bit-identity
tests, and a sweep that scores every grid combination one at a time.
Tests import it the way they import conftest
(``from reference import ...``); pytest does not collect it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from bellcat import (AngleConfig, CatState, CorrelationProvider, DickeKet, Direction,
                     InequalityReport, SpinQuantum, coherent_state, sampling, spin_matrices)
from bellcat.correlations import _IMAG_TOL, DiagonalElements, InternalConsistencyError
from bellcat.inequalities import VIOLATION_TOL, evaluator, inequality


# --- spins ----------------------------------------------------------------


class SpinMismatchError(ValueError):
    """Two kets with different spin quantum numbers were combined."""


def extreme_state(s: SpinQuantum, sign: int) -> DickeKet:
    """The stretched state |s, m=+s> (sign=+1) or |s, m=-s> (sign=-1)."""
    amps = np.zeros(s.dim, dtype=complex)
    amps[0 if sign > 0 else -1] = 1.0
    return DickeKet(s, amps)


def coherent_state_by_rotation(s: SpinQuantum, direction: Direction,
                               sign: int = +1) -> DickeKet:
    """Coherent state built by rotating a stretched state, for cross-checks.

    Applies exp(i theta m.S) with m = (sin phi, -cos phi, 0), the axis that
    carries the pole onto `direction`, to |s, +s> or |s, -s>.  Agrees with
    coherent_state() up to a direction-dependent global phase for sign=-1;
    physical quantities are insensitive to that phase.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    mats = spin_matrices(s)
    axis = math.sin(direction.phi) * mats.sx - math.cos(direction.phi) * mats.sy
    w, v = np.linalg.eigh(direction.theta * axis)
    unitary = (v * np.exp(1j * w)) @ v.conj().T
    return DickeKet(s, unitary @ extreme_state(s, sign).amps)


def inner(bra: DickeKet, ket: DickeKet) -> complex:
    """Inner product <bra|ket>; conjugation acts on the first argument."""
    if bra.s != ket.s:
        raise SpinMismatchError(
            f"cannot combine kets with 2s={bra.s.two_s} and 2s={ket.s.two_s}"
        )
    return complex(np.vdot(bra.amps, ket.amps))


@dataclass(frozen=True)
class SpinMoments:
    """First and second moments of the spin components in a given state."""

    mean: np.ndarray       # (<sx>, <sy>, <sz>)
    second: np.ndarray     # (<sx^2>, <sy^2>, <sz^2>)

    def __post_init__(self) -> None:
        self.mean.setflags(write=False)
        self.second.setflags(write=False)

    @property
    def total_second(self) -> float:
        """<sx^2 + sy^2 + sz^2>, equal to s(s+1) for any normalized state."""
        return float(self.second.sum())


def spin_moments(ket: DickeKet) -> SpinMoments:
    """Expectation values of the spin components and their squares."""
    mats = spin_matrices(ket.s)
    v = ket.amps
    mean = np.empty(3)
    second = np.empty(3)
    for i, op in enumerate((mats.sx, mats.sy, mats.sz)):
        mean[i] = np.vdot(v, op @ v).real
        second[i] = np.vdot(v, op @ (op @ v)).real
    return SpinMoments(mean, second)


# --- states ---------------------------------------------------------------


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


# --- correlations ---------------------------------------------------------


@dataclass(frozen=True)
class OutcomeBasis:
    """The four conclusive product states for axes a and b, in outcome order."""

    s: SpinQuantum
    a: Direction
    b: Direction
    kets: tuple[ProductKet, ProductKet, ProductKet, ProductKet]


def outcome_basis(s: SpinQuantum, a: Direction, b: Direction) -> OutcomeBasis:
    """Build |+a,+b>, |+a,-b>, |-a,+b>, |-a,-b> from coherent states."""
    pa = coherent_state(s, a, +1)
    ma = coherent_state(s, a, -1)
    pb = coherent_state(s, b, +1)
    mb = coherent_state(s, b, -1)
    kets = (
        ProductKet(pa, pb),
        ProductKet(pa, mb),
        ProductKet(ma, pb),
        ProductKet(ma, mb),
    )
    return OutcomeBasis(s, a, b, kets)


def rho_elements_oracle(state: CatState, a: Direction, b: Direction) -> DiagonalElements:
    """Diagonal elements by direct dyad summation.

    Slow reference path: expands every coherent state and sums
    <i|u><v|i> over the four dyads.  Exists to pin down phase conventions;
    production code uses rho_elements_closed.
    """
    basis = outcome_basis(state.s, a, b)
    dyads = density_dyads(state)
    lc = np.empty(4)
    nlc = np.empty(4)
    for i, ket in enumerate(basis.kets):
        for target, terms in ((lc, dyads.local), (nlc, dyads.cross)):
            val = 0.0 + 0.0j
            for weight, u, v in terms:
                val += weight * ket.overlap(u) * v.overlap(ket)
            if abs(val.imag) > _IMAG_TOL:
                raise InternalConsistencyError(
                    f"diagonal element {i + 1} has imaginary part {val.imag:.3e}"
                )
            target[i] = val.real
    return DiagonalElements(lc, nlc)


# --- sampling -------------------------------------------------------------


def outcome_probabilities_numpy(state: CatState, a: Direction, b: Direction) -> np.ndarray:
    """sampling.outcome_probabilities as numpy array bookkeeping.

    Reads the closed-form parts through sampling's _closed_parts binding,
    so a test that patches it feeds both versions.
    """
    lc, nlc = sampling._closed_parts(state, a, b)
    totals = DiagonalElements(np.array(lc), np.array(nlc)).totals
    probs = np.empty(5)
    for i, p in enumerate(totals):
        p = float(p)
        if p < -sampling._NEG_TOL:
            raise sampling.NegativeProbabilityError(
                f"outcome {sampling.CATEGORIES[i]} has probability {p:.3e}"
            )
        probs[i] = 0.0 if p < sampling.PROB_SNAP else p
    if state.s.two_s == 1:
        # every outcome is extremal for s = 1/2, so nothing is discarded
        probs[4] = 0.0
    else:
        leftover = 1.0 - float(probs[:4].sum())
        if leftover < -sampling._NEG_TOL:
            raise sampling.NegativeProbabilityError(
                f"conclusive probabilities sum to {1.0 - leftover:.17g} > 1"
            )
        probs[4] = 0.0 if leftover < sampling.PROB_SNAP else leftover
    return probs


# --- inequalities ---------------------------------------------------------


def reader_evaluate(provider: CorrelationProvider, kind: str,
                    config: tuple[Direction, ...]) -> tuple:
    """(spec, lhs, rhs) at config as a per-pair reader loop.

    Every pair the inequality reads calls the provider's reader on two
    Directions, where inequalities.evaluator prepares each direction once
    for the provider's kernel; the two must agree bit for bit, errors
    included.
    """
    spec = inequality(kind)
    if len(config) != spec.arity:
        raise ValueError(f"{kind} takes {spec.arity} directions, got {len(config)}")
    read = spec.reader(provider)
    lhs, rhs = spec.sides(*[read(config[i], config[j]) for i, j in spec.pairs])
    return spec, lhs, rhs


def reader_sides(provider: CorrelationProvider, kind: str, x) -> tuple:
    """inequalities.evaluator's (lhs, rhs) at the interleaved angles x.

    The reader is fetched before any Direction is built, as the evaluator
    fetches its kernel before it reads angles, so a provider without joint
    probabilities fails first for a joint inequality.
    """
    inequality(kind).reader(provider)
    return reader_evaluate(provider, kind, AngleConfig.from_flat(x).directions)[1:]


def reader_check(provider: CorrelationProvider, kind: str,
                 *config: Direction) -> InequalityReport:
    """inequalities.check through reader_evaluate."""
    spec, lhs, rhs = reader_evaluate(provider, kind, config)
    margin = spec.margin(lhs, rhs)
    return InequalityReport(kind, lhs, rhs, margin, margin < -VIOLATION_TOL, config)


def reader_objective_value(provider: CorrelationProvider, kind: str,
                           config: AngleConfig) -> float:
    """optimize.objective_value through reader_evaluate."""
    spec, lhs, rhs = reader_evaluate(provider, kind, config.directions)
    return spec.objective(lhs, rhs)


# --- optimize -------------------------------------------------------------


def sweep_oracle(provider: CorrelationProvider, kind: str,
                 resolution: int) -> tuple[float, AngleConfig]:
    """optimize.grid_sweep's (best_value, best_config) by brute force.

    objective_value at every combination of grid directions, listed in
    lexicographic order and read through one evaluator; the winner is the
    first combination with the largest value that is not NaN, or the first
    combination if every value is NaN.  The grid is rebuilt here: theta on
    linspace(0, pi), phi on the same inclusive spacing over 2 pi, and the
    pole alone at resolution 1.
    """
    if resolution == 1:
        grid = [Direction(0.0, 0.0)]
    else:
        grid = [Direction(t, j * 2.0 * math.pi / (resolution - 1))
                for t in np.linspace(0.0, math.pi, resolution) for j in range(resolution)]
    configs = [AngleConfig(dirs)
               for dirs in itertools.product(grid, repeat=inequality(kind).arity)]
    spec, lhs_rhs = evaluator(provider, kind)
    values = [spec.objective(*lhs_rhs(config.flat())) for config in configs]
    numbers = [v for v in values if not math.isnan(v)]
    k = values.index(max(numbers)) if numbers else 0
    return values[k], configs[k]
