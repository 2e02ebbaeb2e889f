"""Bell-type inequality checks against pluggable correlation sources.

Every check consumes a CorrelationProvider, so the same code paths test
exact local-model predictions, full quantum values, and Monte Carlo
estimates.  A report's margin is positive when the inequality is satisfied
with room to spare and negative when violated; "violated" applies a small
tolerance so exact boundary cases do not flip on rounding.  Each
inequality is one INEQUALITIES entry.  One evaluator reads it at a
configuration's angles, through Inequality.kernel, for check and for the
searches in optimize alike.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence

from .correlations import (
    _axis,
    _closed_parts,
    _conclusive,
    _elements,
    _sign_index,
    _weight,
    correlation,
    lc_correlation_closed,
    pair_kernel,
    wigner_joint,
)
# Unused here, but the benchmark's tracer patches this binding by name, and
# tests/test_exports.py::test_tracer_bindings_exist pins it, until the tracer
# reads counters instead (ROADMAP item 3).
from .correlations import rho_elements_closed  # noqa: F401
from .spins import Direction, _Record, canonical_angles
from .states import CatState

__all__ = [
    "CorrelationProvider",
    "InequalityReport",
    "lc_provider",
    "full_provider",
    "sampled_provider",
    "check",
    "INEQUALITIES",
]

VIOLATION_TOL = 1e-9

# Most direction pairs a sampled_provider keeps estimates for; past it the
# oldest pair is dropped.  Above the 625 pairs of a resolution-5 sweep, so a
# sweep's report() still finds its pairs, while refine, which asks for a new
# pair at nearly every evaluation, cannot grow the cache without bound.
SAMPLED_CACHE_LIMIT = 4096


class CorrelationProvider(_Record):
    """Source of pair correlations P(a, b) and joint probabilities.

    provenance is one of "lc-only", "full", "sampled".  joint(a, b,
    sign_a, sign_b) is required by the Wigner check only and may be None
    for providers that cannot supply it.

    axes is an optional per-axis kernel that lets the searches reuse work
    shared by every pair an axis is in.  axes(joint) returns (prepare,
    pair): prepare(theta, phi) turns one canonical axis (Direction's
    angles) into factors, and pair(fa, fb) must return, bit for bit, the
    float that correlation(a, b) returns, or joint(a, b, +1, +1) when
    joint is set, for the Directions with those angles, and raise as it
    does.  Without axes, check and the searches use (Direction, the reader
    itself), so a custom provider needs only correlation and joint.
    """

    provenance: str
    correlation: Callable[[Direction, Direction], float]
    joint: Optional[Callable[[Direction, Direction, int, int], float]]
    axes: Optional[Callable[[bool], tuple[Callable, Callable]]]

    def __init__(self, provenance, correlation, joint=None, axes=None) -> None:
        d = self.__dict__
        d["provenance"], d["correlation"] = provenance, correlation
        d["joint"], d["axes"] = joint, axes


def lc_provider(state: CatState) -> CorrelationProvider:
    """Predictions of the local part alone: what a classical mixture of the
    two branches would produce."""
    s = state.s

    def corr(a: Direction, b: Direction) -> float:
        return lc_correlation_closed(s, a, b)

    def joint(a: Direction, b: Direction, sign_a: int, sign_b: int) -> float:
        return wigner_joint(state, a, b, sign_a, sign_b, part="lc")

    return CorrelationProvider("lc-only", corr, joint,
                               partial(pair_kernel, state, "lc", "raw"))


def full_provider(state: CatState, mode: str = "raw") -> CorrelationProvider:
    """Exact quantum correlations, raw or postselected; a postselected value
    raises DegeneratePostselectionError below the conclusive weight WEIGHT_TOL."""
    if mode not in ("raw", "postselected"):
        raise ValueError(f"mode must be 'raw' or 'postselected', got {mode!r}")

    def corr(a: Direction, b: Direction) -> float:
        return correlation(state, a, b, mode=mode).p_total

    def joint(a: Direction, b: Direction, sign_a: int, sign_b: int) -> float:
        p = wigner_joint(state, a, b, sign_a, sign_b, part="full")
        if mode == "postselected":
            p /= _conclusive(_weight(*_closed_parts(state, a, b)))
        return p

    return CorrelationProvider("full", corr, joint, partial(pair_kernel, state, "full", mode))


def sampled_provider(state: CatState, n: int, seed: int,
                     postselect: bool = False) -> CorrelationProvider:
    """Monte Carlo estimates with n draws per distinct direction pair.

    Each pair gets its own deterministic substream derived from (seed, a,
    b), so estimates for different pairs are independent and a repeated
    pair reproduces its first estimate exactly.  Every value equals the
    one sample_outcomes gives for the pair's n shots and substream seed.
    The provider caches each pair's counts, not its estimate, for the
    SAMPLED_CACHE_LIMIT most recently added pairs; a pair dropped from the
    cache is drawn again from the same substream, to the same counts.  A
    postselected pair with no conclusive shot raises ZeroConclusiveError
    on every read, from its cached counts.

    The provider counts the shots it draws.  A draw that would take the
    total past optimize.SHOT_LIMIT raises BudgetExceededError before
    drawing; cached pairs are still served, at no cost.  A seed outside
    [0, 2**64) raises ValueError here.
    """
    from . import optimize, rng
    from .sampling import _check_shots, _count_below, _denominator, _estimate, _probabilities

    rng.check_seed(seed)
    consts = state.closed_constants
    two_s = consts[3]
    # (theta_a, phi_a, theta_b, phi_b) -> [b0, b1, b2, b3], b_k the shots below
    # CDF entry k.  Every read but a mixed-sign joint needs b0, b2 and b3
    # only, so b1 is counted when such a joint first asks for it.
    cache: dict[tuple[float, float, float, float], list] = {}
    drawn = 0

    def prepare(theta: float, phi: float) -> tuple:
        return theta, phi, _axis(two_s, theta, phi)

    def below(fa: tuple, fb: tuple, mixed: bool = False) -> list:
        nonlocal drawn
        key = (fa[0], fa[1], fb[0], fb[1])
        counts = cache.get(key)
        if counts is not None and (counts[1] is not None or not mixed):
            return counts
        if counts is None:
            if drawn + n > optimize.SHOT_LIMIT:
                raise optimize.BudgetExceededError(
                    f"{n} more shots would take the sampled provider past the shot "
                    f"limit {optimize.SHOT_LIMIT:.0e} ({drawn} drawn)"
                )
            drawn += n
        pair_seed = rng.derive(seed, *key)
        _check_shots(n)
        # DiagonalElements.totals' adds, on _elements' floats
        lc, nlc = _elements(consts, fa[2], fb[2])
        probs = _probabilities((lc[0] + nlc[0], lc[1] + nlc[1], lc[2] + nlc[2],
                                lc[3] + nlc[3]), two_s == 1)
        if counts is not None:
            # the pair's own shots again, for the entry its first draw skipped
            counts[1] = _count_below(probs, n, pair_seed, (1,))[1]
            return counts
        counts = _count_below(probs, n, pair_seed, (0, 1, 2, 3) if mixed else (0, 2, 3))
        if len(cache) >= SAMPLED_CACHE_LIMIT:
            del cache[next(iter(cache))]
        cache[key] = counts
        return counts

    def estimate(fa: tuple, fb: tuple) -> float:
        b0, _, b2, b3 = below(fa, fb)
        # c0 - c1 - c2 + c3 with c_k = b_k - b_(k-1)
        return _estimate(2 * b0 - 2 * b2 + b3, b3, n, postselect)

    def plus_plus(fa: tuple, fb: tuple) -> float:
        counts = below(fa, fb)
        return counts[0] / _denominator(counts[3], n, postselect)

    def corr(a: Direction, b: Direction) -> float:
        return estimate(prepare(a.theta, a.phi), prepare(b.theta, b.phi))

    def joint(a: Direction, b: Direction, sign_a: int, sign_b: int) -> float:
        i = _sign_index(sign_a, sign_b)
        counts = below(prepare(a.theta, a.phi), prepare(b.theta, b.phi), i in (1, 2))
        count = counts[i] - counts[i - 1] if i else counts[0]
        return count / _denominator(counts[3], n, postselect)

    def axes(reads_joint: bool) -> tuple[Callable, Callable]:
        return prepare, plus_plus if reads_joint else estimate

    return CorrelationProvider("sampled", corr, joint, axes)


class InequalityReport(_Record):
    """Outcome of one inequality check at one angle configuration.

    margin >= 0 means satisfied; violated is margin < -VIOLATION_TOL.  The
    margin is rhs - lhs, or lhs - rhs for an inequality that bounds its
    left side from below (quadratic); see INEQUALITIES.
    """

    kind: str
    lhs: float
    rhs: float
    margin: float
    violated: bool
    config: tuple[Direction, ...]

    def __init__(self, kind, lhs, rhs, margin, violated, config) -> None:
        d = self.__dict__
        d["kind"], d["lhs"], d["rhs"], d["margin"] = kind, lhs, rhs, margin
        d["violated"], d["config"] = violated, config

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "violated": self.violated,
            "config": [[d.theta, d.phi] for d in self.config],
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict())


class Inequality(_Record):
    """One Bell-type inequality, written once for every caller.

    The inequality reads one value per direction-index pair in pairs:
    P(+,+) from provider.joint when joint is set, else the correlation
    P(a, b).  sides maps those values, in pair order, to (lhs, rhs); it is
    elementwise, so the grid sweep feeds it broadcast arrays.  The
    inequality is lhs <= rhs, or lhs >= rhs when lower is set.  A search
    maximizes lhs itself when maximize_lhs is set (chsh, whose bound is a
    constant), otherwise the overshoot -margin.
    """

    arity: int
    pairs: tuple[tuple[int, int], ...]
    joint: bool
    sides: Callable[..., tuple]
    lower: bool
    maximize_lhs: bool

    def __init__(self, arity, pairs, joint, sides, lower=False, maximize_lhs=False) -> None:
        d = self.__dict__
        d["arity"], d["pairs"], d["joint"], d["sides"] = arity, pairs, joint, sides
        d["lower"], d["maximize_lhs"] = lower, maximize_lhs

    def reader(self, provider: CorrelationProvider) -> Callable[[Direction, Direction], float]:
        """The provider callable this inequality reads, as a function of two axes."""
        if not self.joint:
            return provider.correlation
        joint = provider.joint
        if joint is None:
            raise ValueError(f"provider {provider.provenance!r} supplies no joint probabilities")
        return lambda a, b: joint(a, b, +1, +1)

    def kernel(self, provider: CorrelationProvider) -> tuple[Callable, Callable]:
        """(prepare, pair) for the value this inequality reads: the provider's
        axes kernel, or (Direction, the reader) for a provider without one.
        Either way pair(prepare(*a_angles), prepare(*b_angles)) is the
        reader's value at the Directions with those angles.  The only way
        the package reads a provider."""
        if provider.axes is None:
            return Direction, self.reader(provider)
        return provider.axes(self.joint)

    def margin(self, lhs, rhs):
        return lhs - rhs if self.lower else rhs - lhs

    def objective(self, lhs, rhs):
        """Value a search maximizes; for the overshoot, positive means violated."""
        if self.maximize_lhs:
            return lhs
        # -margin, written out so an exact tie reads 0.0 rather than -0.0.
        return rhs - lhs if self.lower else lhs - rhs


INEQUALITIES: dict[str, Inequality] = {
    # |P(a,b) - P(a,c)| <= 1 + P(b,c)
    "bell": Inequality(3, ((0, 1), (0, 2), (1, 2)), False,
                       lambda ab, ac, bc: (abs(ab - ac), 1.0 + bc)),
    # |P(a,b) + P(a,c) + P(d,b) - P(d,c)| <= 2
    "chsh": Inequality(4, ((0, 1), (0, 2), (3, 1), (3, 2)), False,
                       lambda ab, ac, db, dc: (abs(ab + ac + db - dc), 2.0),
                       maximize_lhs=True),
    # P(+b,+c) <= P(+a,+b) + P(+a,+c)
    "wigner": Inequality(3, ((1, 2), (0, 1), (0, 2)), True,
                         lambda bc, ab, ac: (bc, ab + ac)),
    # 4 |P(b,c)| >= 4 P(a,b) P(a,c)
    "quadratic": Inequality(3, ((1, 2), (0, 1), (0, 2)), False,
                            lambda bc, ab, ac: (4.0 * abs(bc), 4.0 * ab * ac),
                            lower=True),
}


def inequality(kind: str) -> Inequality:
    """The INEQUALITIES entry for kind; ValueError if there is none."""
    spec = INEQUALITIES.get(kind)
    if spec is None:
        raise ValueError(f"unknown inequality kind {kind!r}")
    return spec


def evaluator(provider: CorrelationProvider, kind: str,
              ) -> tuple[Inequality, Callable[[Sequence[float]], tuple]]:
    """The spec of kind and its (lhs, rhs) as a function of one configuration's
    interleaved angles (theta_1, phi_1, theta_2, phi_2, ...), any finite floats.

    The function canonicalizes each direction's angles as Direction does,
    prepares each direction once through the spec's kernel and reads each
    pair from two prepared directions: it returns the reader's (lhs, rhs)
    at the Directions with those angles, bit for bit, errors included.
    check and both searches read every configuration through it.  Raises
    ValueError for an unknown kind; the function raises it for a
    configuration of the wrong arity.
    """
    spec = inequality(kind)
    prepare, pair = spec.kernel(provider)
    pairs, sides, size = spec.pairs, spec.sides, 2 * spec.arity

    def lhs_rhs(x: Sequence[float]) -> tuple:
        if len(x) != size:
            raise ValueError(f"{kind} takes {size // 2} directions, got {len(x) // 2}")
        factors = [prepare(*canonical_angles(x[k], x[k + 1])) for k in range(0, size, 2)]
        return sides(*[pair(factors[i], factors[j]) for i, j in pairs])

    return spec, lhs_rhs


def check(provider: CorrelationProvider, kind: str,
          *config: Direction) -> InequalityReport:
    """Evaluate the named inequality at config and report its margin."""
    spec, lhs_rhs = evaluator(provider, kind)
    lhs, rhs = lhs_rhs([v for d in config for v in (d.theta, d.phi)])
    margin = spec.margin(lhs, rhs)
    return InequalityReport(kind, lhs, rhs, margin, margin < -VIOLATION_TOL, config)
