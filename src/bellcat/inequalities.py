"""Bell-type inequality checks against pluggable correlation sources.

Every check consumes a CorrelationProvider, so the same code paths test
exact local-model predictions, full quantum values, and Monte Carlo
estimates.  A report's margin is positive when the inequality is satisfied
with room to spare and negative when violated; "violated" applies a small
tolerance so exact boundary cases do not flip on rounding.  Each
inequality is one INEQUALITIES entry, which check and the searches in
optimize both read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

from .correlations import (
    correlation,
    lc_correlation_closed,
    rho_elements_closed,
    wigner_joint,
)
from .spins import Direction
from .states import CatState

__all__ = [
    "CorrelationProvider",
    "InequalityReport",
    "lc_provider",
    "full_provider",
    "sampled_provider",
    "bell_check",
    "chsh_check",
    "wigner_check",
    "quadratic_check",
    "check",
    "evaluate",
    "Inequality",
    "INEQUALITIES",
    "inequality",
    "VIOLATION_TOL",
]

VIOLATION_TOL = 1e-9


@dataclass(frozen=True)
class CorrelationProvider:
    """Source of pair correlations P(a, b) and joint probabilities.

    provenance is one of "lc-only", "full", "sampled".  joint(a, b,
    sign_a, sign_b) is required by the Wigner check only and may be None
    for providers that cannot supply it.
    """

    provenance: str
    correlation: Callable[[Direction, Direction], float]
    joint: Optional[Callable[[Direction, Direction, int, int], float]] = None


def lc_provider(state: CatState) -> CorrelationProvider:
    """Predictions of the local part alone: what a classical mixture of the
    two branches would produce."""
    s = state.s

    def corr(a: Direction, b: Direction) -> float:
        return lc_correlation_closed(s, a, b)

    def joint(a: Direction, b: Direction, sign_a: int, sign_b: int) -> float:
        return wigner_joint(state, a, b, sign_a, sign_b, part="lc")

    return CorrelationProvider("lc-only", corr, joint)


def full_provider(state: CatState, mode: str = "raw") -> CorrelationProvider:
    """Exact quantum correlations, raw or postselected."""
    if mode not in ("raw", "postselected"):
        raise ValueError(f"mode must be 'raw' or 'postselected', got {mode!r}")

    def corr(a: Direction, b: Direction) -> float:
        return correlation(state, a, b, mode=mode).p_total

    def joint(a: Direction, b: Direction, sign_a: int, sign_b: int) -> float:
        p = wigner_joint(state, a, b, sign_a, sign_b, part="full")
        if mode == "postselected":
            p /= rho_elements_closed(state, a, b).weight
        return p

    return CorrelationProvider("full", corr, joint)


def sampled_provider(state: CatState, n: int, seed: int,
                     postselect: bool = False) -> CorrelationProvider:
    """Monte Carlo estimates with n draws per distinct direction pair.

    Each pair gets its own deterministic substream derived from (seed, a,
    b), so estimates for different pairs are independent and a repeated
    pair reproduces its first estimate exactly (results are cached).
    """
    from . import rng
    from .sampling import sample_outcomes

    cache: dict[tuple[float, float, float, float], object] = {}

    def stats_for(a: Direction, b: Direction):
        key = (a.theta, a.phi, b.theta, b.phi)
        hit = cache.get(key)
        if hit is None:
            pair_seed = rng.derive(seed, *key)
            hit = sample_outcomes(state, a, b, n, pair_seed, postselect=postselect)
            cache[key] = hit
        return hit

    def corr(a: Direction, b: Direction) -> float:
        return stats_for(a, b).estimate

    labels = {(+1, +1): "++", (+1, -1): "+-", (-1, +1): "-+", (-1, -1): "--"}

    def joint(a: Direction, b: Direction, sign_a: int, sign_b: int) -> float:
        stats = stats_for(a, b)
        count = stats.counts[labels[(int(sign_a), int(sign_b))]]
        denom = stats.n_conclusive if postselect else stats.n_total
        return count / denom

    return CorrelationProvider("sampled", corr, joint)


@dataclass(frozen=True)
class InequalityReport:
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
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "InequalityReport":
        return cls(
            str(data["kind"]),
            float(data["lhs"]),
            float(data["rhs"]),
            float(data["margin"]),
            bool(data["violated"]),
            tuple(Direction(t, p) for t, p in data["config"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "InequalityReport":
        return cls.from_dict(json.loads(text))

    def csv_header(self) -> str:
        labels = "abcd"[: len(self.config)]
        cols = [f"theta_{x},phi_{x}" for x in labels]
        return "kind," + ",".join(cols) + ",lhs,rhs,margin,violated"

    def csv_row(self) -> str:
        angles = [repr(v) for d in self.config for v in (d.theta, d.phi)]
        return ",".join(
            [self.kind, *angles, repr(self.lhs), repr(self.rhs),
             repr(self.margin), str(self.violated).lower()]
        )


@dataclass(frozen=True)
class Inequality:
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
    lower: bool = False
    maximize_lhs: bool = False

    def reader(self, provider: CorrelationProvider) -> Callable[[Direction, Direction], float]:
        """The provider callable this inequality reads, as a function of two axes."""
        if not self.joint:
            return provider.correlation
        joint = provider.joint
        if joint is None:
            raise ValueError(f"provider {provider.provenance!r} supplies no joint probabilities")
        return lambda a, b: joint(a, b, +1, +1)

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


def evaluate(provider: CorrelationProvider, kind: str,
             config: tuple[Direction, ...]) -> tuple[Inequality, float, float]:
    """The spec of kind and its (lhs, rhs) at config; checks kind and arity."""
    spec = inequality(kind)
    if len(config) != spec.arity:
        raise ValueError(f"{kind} takes {spec.arity} directions, got {len(config)}")
    pair = spec.reader(provider)
    lhs, rhs = spec.sides(*[pair(config[i], config[j]) for i, j in spec.pairs])
    return spec, lhs, rhs


def check(provider: CorrelationProvider, kind: str,
          *config: Direction) -> InequalityReport:
    """Evaluate the named inequality at config and report its margin."""
    spec, lhs, rhs = evaluate(provider, kind, config)
    margin = spec.margin(lhs, rhs)
    return InequalityReport(kind, lhs, rhs, margin, margin < -VIOLATION_TOL, config)


# Per-kind shorthands for check(provider, kind, *axes).
def bell_check(provider: CorrelationProvider, a: Direction, b: Direction,
               c: Direction) -> InequalityReport:
    return check(provider, "bell", a, b, c)


def chsh_check(provider: CorrelationProvider, a: Direction, b: Direction,
               c: Direction, d: Direction) -> InequalityReport:
    return check(provider, "chsh", a, b, c, d)


def wigner_check(provider: CorrelationProvider, a: Direction, b: Direction,
                 c: Direction) -> InequalityReport:
    return check(provider, "wigner", a, b, c)


def quadratic_check(provider: CorrelationProvider, a: Direction, b: Direction,
                    c: Direction) -> InequalityReport:
    return check(provider, "quadratic", a, b, c)
