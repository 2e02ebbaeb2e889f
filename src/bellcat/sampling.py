"""Seeded Monte Carlo emulation of joint spin measurements.

Each run draws one of five categories per shot: the four conclusive
outcome pairs in basis order, then "inconclusive" for the probability mass
the extremal-outcome postselection discards (absent for s = 1/2, where
every outcome is extremal).  Each shot takes one raw word of the
deterministic SplitMix64 stream; the words are counted against integer
thresholds, one per CDF entry a caller needs, which gives exactly the
counts of an inverse-CDF lookup of the word's uniform (rng.uniforms).
A (state, angles, n, seed) tuple fixes the counts exactly.
"""

from __future__ import annotations

import math

from . import rng
from .correlations import DegeneratePostselectionError, _closed_parts
# Unused here, but the benchmark's tracer patches this binding by name (ROADMAP item 5).
from .correlations import rho_elements_closed  # noqa: F401
from .spins import BudgetExceededError, Direction, _Record
from .states import CatState

__all__ = [
    "CATEGORIES",
    "SampleStats",
    "PhotonEmulation",
    "NegativeProbabilityError",
    "ZeroConclusiveError",
    "UnsupportedScenarioError",
    "outcome_probabilities",
    "sample_outcomes",
    "photon_emulation",
]

CATEGORIES = ("++", "+-", "-+", "--", "inconclusive")

# Probabilities smaller than this are snapped to zero so that outcomes the
# physics forbids can never be drawn through CDF rounding.
PROB_SNAP = 1e-14

_NEG_TOL = 1e-12

# Shots drawn per block: the words and their scratch buffer stay about 1 MB
# whatever n is.
_BLOCK = 1 << 16


class NegativeProbabilityError(ValueError):
    """A category probability is negative beyond rounding noise."""


class ZeroConclusiveError(DegeneratePostselectionError):
    """Postselected statistics requested but every draw was inconclusive."""


class UnsupportedScenarioError(ValueError):
    """The requested emulation is defined for a different spin."""


class SampleStats(_Record):
    """Counts and the correlation estimate from one sampling run.

    estimate averages the +-1 outcome product, counting inconclusive shots
    as zero in raw mode and discarding them in postselect mode.  stderr is
    the sample standard deviation of the averaged quantity divided by the
    square root of the number of shots entering the average.
    """

    n_total: int
    counts: dict[str, int]
    estimate: float
    stderr: float
    seed: int
    postselect: bool

    def __init__(self, n_total, counts, estimate, stderr, seed, postselect) -> None:
        d = self.__dict__
        d["n_total"], d["counts"], d["estimate"] = n_total, counts, estimate
        d["stderr"], d["seed"], d["postselect"] = stderr, seed, postselect

    @property
    def n_conclusive(self) -> int:
        return self.n_total - self.counts["inconclusive"]

    def to_dict(self) -> dict:
        return {**self._asdict(), "counts": dict(self.counts)}


def outcome_probabilities(state: CatState, a: Direction, b: Direction) -> np.ndarray:
    """The five category probabilities for one measurement scenario.

    Entries follow CATEGORIES order.  The inconclusive entry is pinned to
    exactly 0.0 for s = 1/2.
    """
    import numpy as np

    return np.array(_probabilities(*_closed_parts(state, a, b), state.s.two_s == 1))


def _probabilities(lc, nlc, half: bool) -> tuple[float, float, float, float, float]:
    """The five category probabilities from a pair's closed-form parts
    (correlations._elements): the four totals lc[i] + nlc[i], tiny entries
    snapped to 0.0, negative ones refused.  half is s = 1/2, which discards
    nothing.  The one path from a pair to the probabilities it is drawn from."""
    totals = (lc[0] + nlc[0], lc[1] + nlc[1], lc[2] + nlc[2], lc[3] + nlc[3])
    for i, p in enumerate(totals):
        if p < -_NEG_TOL:
            raise NegativeProbabilityError(
                f"outcome {CATEGORIES[i]} has probability {p:.3e}"
            )
    p0, p1, p2, p3 = (0.0 if p < PROB_SNAP else p for p in totals)
    if half:
        # every outcome is extremal for s = 1/2, so nothing is discarded
        p4 = 0.0
    else:
        # numpy's order for a 4-element sum
        leftover = 1.0 - (((p0 + p1) + p2) + p3)
        if leftover < -_NEG_TOL:
            raise NegativeProbabilityError(
                f"conclusive probabilities sum to {1.0 - leftover:.17g} > 1"
            )
        p4 = 0.0 if leftover < PROB_SNAP else leftover
    return p0, p1, p2, p3, p4


def _count_below(probs, n: int, seed: int, entries) -> list:
    """[b0, b1, b2, b3], where b_k counts the n shots of stream seed that fall
    below CDF entry k, for each k in entries; the others are None.  Only the
    entries asked for cost a pass over the words, and none is drawn when
    every such entry is 0 or 1."""
    import numpy as np

    p0, p1, p2, p3, p4 = probs
    # np.cumsum's sequential order
    c1 = p0 + p1
    c2 = c1 + p2
    # no inconclusive mass: make the last bin swallow CDF rounding slack
    cdf = (p0, c1, c2, 1.0 if p4 == 0.0 else c2 + p3)
    # Shots are counted, not categorized: word w's uniform (w >> 11) * 2**-53
    # lies below a cdf entry c exactly when w < ceil(c * 2**53) << 11, since
    # scaling by a power of two is exact; a limit of 2**53 or more takes
    # every word (its shifted form would not fit in 64 bits).  The shots
    # below entry k are the ones searchsorted(cdf, u, side="right") puts in
    # categories 0..k, also when the pinned last entry sits under an entry
    # rounded above 1 (no uniform reaches 1), so the counts are the
    # differences of the four running totals.
    below = [None] * 4
    thresholds = []
    for k in entries:
        limit = math.ceil(cdf[k] * 2.0**53)
        if 0 < limit < 1 << 53:
            below[k] = 0
            thresholds.append((k, np.uint64(limit << 11)))
        else:
            below[k] = n if limit >= 1 << 53 else 0
    if not thresholds:
        return below
    # one set of block buffers per call, reused by every block
    size = min(_BLOCK, n)
    words = np.empty(size, dtype=np.uint64)
    scratch = np.empty_like(words)
    mask = np.empty(size, dtype=bool)
    for start in range(0, n, _BLOCK):
        m = min(_BLOCK, n - start)
        block = rng.integers(seed, m, start, out=words[:m], scratch=scratch[:m])
        for k, threshold in thresholds:
            below[k] += int(np.count_nonzero(np.less(block, threshold, mask[:m])))
    return below


def _denominator(conclusive: int, n: int, postselect: bool) -> int:
    """The shots an estimate or a joint frequency is taken over: all n, or
    the conclusive ones in postselect mode, where none raises
    ZeroConclusiveError."""
    if not postselect:
        return n
    if conclusive == 0:
        raise ZeroConclusiveError("all draws were inconclusive")
    return conclusive


def _estimate(signed: int, conclusive: int, n: int, postselect: bool) -> float:
    """The averaged +-1 outcome product, from signed = c0 - c1 - c2 + c3 in
    integers, inconclusive shots counting zero in raw mode and dropped in
    postselect mode."""
    return float(signed) / _denominator(conclusive, n, postselect)


def _stats_from_counts(counts: list, n: int, seed: int, postselect: bool) -> SampleStats:
    conclusive = n - counts[4]
    estimate = _estimate(counts[0] - counts[1] - counts[2] + counts[3], conclusive, n,
                         postselect)
    denom, mean_square = (conclusive, 1.0) if postselect else (n, conclusive / n)
    variance = max(mean_square - estimate * estimate, 0.0)
    if denom > 1:
        variance *= denom / (denom - 1)
    stderr = math.sqrt(variance / denom)
    count_map = dict(zip(CATEGORIES, counts))
    return SampleStats(n, count_map, estimate, stderr, seed, postselect)


# Ceiling on the shots of one sample_outcomes call (about 5 ns each), and
# on the total a sampled_provider draws.
SHOT_LIMIT = 10**10


def _check_shots(n: int) -> None:
    """Refuse a shot count below 1 or above SHOT_LIMIT."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > SHOT_LIMIT:
        raise BudgetExceededError(f"{n} shots exceed the shot limit {SHOT_LIMIT:.0e}")


def sample_outcomes(state: CatState, a: Direction, b: Direction, n: int,
                    seed: int, postselect: bool = False) -> SampleStats:
    """Draw n measurement shots and summarize them.

    Parameters
    ----------
    state : CatState
    a, b : Direction
        Measurement axes.
    n : int
        Number of shots, at least 1.
    seed : int
        Stream seed in [0, 2**64); equal seeds reproduce counts exactly.
    postselect : bool
        When True the estimate conditions on conclusive shots.

    Raises
    ------
    ValueError
        If n < 1 or seed is out of range; nothing is drawn.
    BudgetExceededError
        If n exceeds SHOT_LIMIT; nothing is drawn.
    ZeroConclusiveError
        In postselect mode when no shot was conclusive.
    """
    _check_shots(n)
    rng.check_seed(seed)
    probs = _probabilities(*_closed_parts(state, a, b), state.s.two_s == 1)
    b0, b1, b2, b3 = _count_below(probs, n, seed, (0, 1, 2, 3))
    return _stats_from_counts([b0, b1 - b0, b2 - b1, b3 - b2, n - b3], n, seed, postselect)


class PhotonEmulation(_Record):
    """Spin-1 sampling summarized the way a photon-pair experiment would.

    stats.estimate is the coincidence-based correlation (the per-shot
    product, inconclusive shots counting zero).  product_estimate instead
    multiplies the two single-side intensity differences, the quantity a
    beam-splitter intensity measurement reports; the two differ because
    the product of averages is not the average product.
    """

    stats: SampleStats
    joint: tuple[float, float, float, float]
    product_estimate: float

    def __init__(self, stats, joint, product_estimate) -> None:
        d = self.__dict__
        d["stats"], d["joint"], d["product_estimate"] = stats, joint, product_estimate

    def to_dict(self) -> dict:
        return {
            "stats": self.stats.to_dict(),
            "joint": list(self.joint),
            "product_estimate": self.product_estimate,
        }


def photon_emulation(state: CatState, a: Direction, b: Direction, n: int,
                     seed: int) -> PhotonEmulation:
    """Sample a spin-1 cat state and report photon-experiment estimators."""
    if state.s.two_s != 2:
        raise UnsupportedScenarioError(
            f"photon pair emulation is defined for 2s=2, got 2s={state.s.two_s}"
        )
    stats = sample_outcomes(state, a, b, n, seed, postselect=False)
    c = stats.counts
    joint = tuple(c[k] / n for k in CATEGORIES[:4])
    plus_a = (c["++"] + c["+-"]) / n
    minus_a = (c["-+"] + c["--"]) / n
    plus_b = (c["++"] + c["-+"]) / n
    minus_b = (c["+-"] + c["--"]) / n
    product = (plus_a - minus_a) * (plus_b - minus_b)
    return PhotonEmulation(stats, joint, product)
