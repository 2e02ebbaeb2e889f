"""The scalar correlation path equals the numpy closed forms bit for bit.

The reference below is the array form of the closed-form diagonal
elements and of correlation, as the library computed them before its
scalar path moved to plain Python floats.  Every scalar reader must
reproduce it exactly, including the sign of zeros and which inputs raise.
Each provider's (prepare, pair) must in turn reproduce the
Direction-based readers, and the evaluator that check, objective_value
and the searches read configurations through, fed raw angles, the
per-pair reader loop kept in tests/reference.py.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import reader_check, reader_objective_value, reader_sides

from bellcat import (
    CATEGORIES,
    INEQUALITIES,
    AngleConfig,
    CatCoefficients,
    CatState,
    CorrelationProvider,
    DegeneratePostselectionError,
    Direction,
    SpinQuantum,
    check,
    correlation,
    full_provider,
    lc_provider,
    objective_value,
    rho_elements_closed,
    rng,
    sample_outcomes,
    sampled_provider,
    singlet,
    wigner_joint,
)
from bellcat.correlations import WEIGHT_TOL
from bellcat.inequalities import evaluator

SIGNS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))


def reference_elements(state, a, b):
    """(lc, nlc) as float64 arrays, built from the cat coefficients directly."""
    two_s = state.s.two_s
    ka = math.cos(a.theta / 2.0) ** two_s
    ga = math.sin(a.theta / 2.0) ** two_s
    kb = math.cos(b.theta / 2.0) ** two_s
    gb = math.sin(b.theta / 2.0) ** two_s
    ka2, ga2, kb2, gb2 = ka * ka, ga * ga, kb * kb, gb * gb
    c = state.coeffs
    w1 = math.cos(c.alpha) ** 2
    w2 = math.sin(c.alpha) ** 2
    lc = np.array([
        w1 * ka2 * gb2 + w2 * ga2 * kb2,
        w1 * ka2 * kb2 + w2 * ga2 * gb2,
        w1 * ga2 * gb2 + w2 * ka2 * kb2,
        w1 * ga2 * kb2 + w2 * ka2 * gb2,
    ])
    cross = (
        math.sin(2.0 * c.alpha)
        * math.cos(two_s * (a.phi - b.phi) + (c.gamma1 - c.gamma2))
        * ka * ga * kb * gb
    )
    par = state.s.parity
    return lc, np.array([cross, par * cross, par * cross, cross])


def reference_weight(lc, nlc):
    return float(lc.sum() + nlc.sum())


def reference_conclusive(lc, nlc):
    """The conclusive weight a postselected value divides by, refused below
    WEIGHT_TOL."""
    weight = reference_weight(lc, nlc)
    if weight < WEIGHT_TOL:
        raise DegeneratePostselectionError(
            f"conclusive weight {weight:.3e} below {WEIGHT_TOL:.0e}"
        )
    return weight


def signed_sum(values):
    return (float(values[0]) - float(values[1])) + (float(values[3]) - float(values[2]))


def reference_correlation(state, a, b, mode):
    lc, nlc = reference_elements(state, a, b)
    p_lc = signed_sum(lc)
    p_nlc = signed_sum(nlc)
    weight = reference_weight(lc, nlc)
    if mode == "postselected":
        reference_conclusive(lc, nlc)
        p_lc /= weight
        p_nlc /= weight
    return (p_lc + p_nlc, p_lc, p_nlc, weight)


def breakdown(state, a, b, mode):
    br = correlation(state, a, b, mode)
    assert br.mode == mode
    return (br.p_total, br.p_lc, br.p_nlc, br.postselect_weight)


def reference_joint(state, a, b, sign_a, sign_b, part, postselected=False):
    lc, nlc = reference_elements(state, a, b)
    idx = SIGNS.index((sign_a, sign_b))
    p = float(lc[idx]) if part == "lc" else float((lc + nlc)[idx])
    if postselected:
        p /= reference_conclusive(lc, nlc)
    return p


def outcome(fn, *args, **kwargs):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (ArithmeticError, ValueError) as exc:
        return (type(exc), str(exc))


def same(x, y) -> bool:
    """Equal, and for floats also equal in the sign of zero."""
    if isinstance(x, tuple) and isinstance(y, tuple):
        return len(x) == len(y) and all(same(u, v) for u, v in zip(x, y))
    if isinstance(x, float) and isinstance(y, float):
        return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
    return type(x) is type(y) and x == y


special = st.sampled_from([0.0, math.pi / 2, math.pi])
angle = st.one_of(special, st.floats(allow_nan=False, allow_infinity=False))
direction = st.builds(Direction, angle, angle)
coefficient = st.one_of(st.sampled_from([0.0, math.pi / 4, -math.pi / 4, math.pi / 2]),
                        st.floats(-10.0, 10.0))
spin = st.sampled_from([1, 2, 3, 4, 5, 6, 59, 60, 61]).map(SpinQuantum)
state = st.builds(CatState, spin, st.builds(CatCoefficients, coefficient, coefficient,
                                            coefficient))
kernel = settings(max_examples=300, deadline=None)


@kernel
@given(state=state, a=direction, b=direction)
def test_correlation_matches_reference(state, a, b):
    for mode in ("raw", "postselected"):
        got = outcome(breakdown, state, a, b, mode)
        want = outcome(reference_correlation, state, a, b, mode)
        assert same(got, want), (mode, got, want)


@kernel
@given(state=state, a=direction, b=direction)
def test_rho_elements_closed_matches_reference(state, a, b):
    elements = rho_elements_closed(state, a, b)
    lc, nlc = reference_elements(state, a, b)
    assert same(tuple(elements.lc.tolist()), tuple(lc.tolist()))
    assert same(tuple(elements.nlc.tolist()), tuple(nlc.tolist()))
    assert same(elements.weight, reference_weight(lc, nlc))


@kernel
@given(state=state, a=direction, b=direction)
def test_wigner_joint_matches_reference(state, a, b):
    for sign_a, sign_b in SIGNS:
        for part in ("lc", "full"):
            got = wigner_joint(state, a, b, sign_a, sign_b, part)
            assert same(got, reference_joint(state, a, b, sign_a, sign_b, part))


@kernel
@given(state=state, a=direction, b=direction)
def test_nlc_correlation_closed_matches_reference(state, a, b):
    # the raw non-local part: exactly 0.0 for integer spin, four times the
    # first interference element for half-integer spin
    if state.s.is_integer:
        want = 0.0
    else:
        want = 4.0 * float(reference_elements(state, a, b)[1][0])
    assert same(correlation(state, a, b).p_nlc, want)


@kernel
@given(state=state, a=direction, b=direction)
def test_full_provider_joint_matches_reference(state, a, b):
    for mode in ("raw", "postselected"):
        joint = full_provider(state, mode).joint
        for sign_a, sign_b in SIGNS:
            got = outcome(joint, a, b, sign_a, sign_b)
            want = outcome(reference_joint, state, a, b, sign_a, sign_b, "full",
                           postselected=mode == "postselected")
            assert same(got, want), (mode, sign_a, sign_b, got, want)


@kernel
@given(two_s=st.sampled_from([2, 4, 6, 60]),
       coeffs=st.tuples(coefficient, coefficient, coefficient), a=direction, b=direction)
def test_integer_spin_interference_part_is_exactly_zero(two_s, coeffs, a, b):
    cat = CatState(SpinQuantum(two_s), CatCoefficients(*coeffs))
    assert correlation(cat, a, b).p_nlc == 0.0
    postselected = outcome(correlation, cat, a, b, "postselected")
    if not isinstance(postselected, tuple):
        assert postselected.p_nlc == 0.0


PROVIDERS = {
    "raw": lambda cat: full_provider(cat),
    "postselected": lambda cat: full_provider(cat, "postselected"),
    "lc": lc_provider,
    "sampled": lambda cat: sampled_provider(cat, 40, 5),
    "sampled postselected": lambda cat: sampled_provider(cat, 40, 5, postselect=True),
}
# Poles, theta outside [0, pi], angles past +-2 pi, negative and tiny negative
# phi, signed zeros, subnormals; the evaluator also sees non-finite angles.
raw_angle = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi / 2, math.pi, -math.pi, 1.5 * math.pi,
                     2 * math.pi, -2 * math.pi, 4 * math.pi, -1e-20, 5e-324, -5e-324,
                     7.0, -7.0, -2.5]),
    st.floats(-20.0, 20.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
flat_angle = st.one_of(raw_angle, st.sampled_from([math.inf, -math.inf, math.nan]))
# a = (pi/2, 0), b = (pi/2, pi/2) at 2s = 2, alpha = pi/4: conclusive weight 0.0
DEGENERATE = CatState(SpinQuantum(2), CatCoefficients(math.pi / 4))


def without_axes(cat):
    full = full_provider(cat, "postselected")
    return CorrelationProvider("full", full.correlation, full.joint)


# Every way a provider is read: the built-in providers through their axes
# kernels, the others through the Direction fallback, with or without joint.
ORACLE_PROVIDERS = {
    **PROVIDERS,
    "no axes": without_axes,
    "no joint": lambda cat: CorrelationProvider("full", full_provider(cat).correlation),
}


def report_fields(report):
    return (report.lhs, report.rhs, report.margin, report.violated)


def evaluated(provider, kind, x):
    return evaluator(provider, kind)[1](x)


@settings(max_examples=400, deadline=None)
@given(state=state, kind=st.sampled_from(sorted(INEQUALITIES)),
       label=st.sampled_from(sorted(ORACLE_PROVIDERS)),
       angles=st.lists(flat_angle, min_size=8, max_size=8))
@example(state=DEGENERATE, kind="bell", label="postselected",
         angles=[math.pi / 2, 0.0, math.pi / 2, math.pi / 2, 0.3, 0.2] + [0.0] * 2)
@example(state=DEGENERATE, kind="wigner", label="postselected",
         angles=[0.3, 0.2, math.pi / 2, 0.0, math.pi / 2, math.pi / 2] + [0.0] * 2)
@example(state=DEGENERATE, kind="wigner", label="no axes",
         angles=[0.3, 0.2 - 2 * math.pi, -1.5 * math.pi, 4 * math.pi, math.pi / 2,
                 -7 * math.pi / 2] + [0.0] * 2)
@example(state=DEGENERATE, kind="quadratic", label="sampled postselected",
         angles=[-0.0, -0.0, math.pi, -0.0, 2 * math.pi, -1e-20] + [0.0] * 2)
@example(state=DEGENERATE, kind="wigner", label="no joint",
         angles=[math.inf, 0.0, 0.3, 0.2, 0.1, 0.0] + [0.0] * 2)
@example(state=DEGENERATE, kind="chsh", label="lc",
         angles=[0.1, math.nan, 0.3, 0.2, 0.1, 0.0, 1.0, 2.0])
def test_evaluator_matches_reader_oracle(state, kind, label, angles):
    x = angles[:2 * INEQUALITIES[kind].arity]
    make = ORACLE_PROVIDERS[label]
    got = outcome(evaluated, make(state), kind, x)
    want = outcome(reader_sides, make(state), kind, x)
    assert same(got, want), (got, want)
    # numpy angles, as refine's start passes them, read the same
    assert same(outcome(evaluated, make(state), kind, np.array(x)), want)


@settings(max_examples=400, deadline=None)
@given(state=state, kind=st.sampled_from(sorted(INEQUALITIES)),
       label=st.sampled_from(sorted(ORACLE_PROVIDERS)),
       angles=st.lists(raw_angle, min_size=8, max_size=8))
@example(state=DEGENERATE, kind="bell", label="postselected",
         angles=[math.pi / 2, 0.0, math.pi / 2, math.pi / 2, 0.3, 0.2] + [0.0] * 2)
@example(state=DEGENERATE, kind="wigner", label="no axes",
         angles=[0.3, 0.2, math.pi / 2, 0.0, math.pi / 2, math.pi / 2] + [0.0] * 2)
@example(state=DEGENERATE, kind="quadratic", label="sampled postselected",
         angles=[0.3, 0.2, math.pi / 2, 0.0, math.pi / 2, math.pi / 2] + [0.0] * 2)
@example(state=DEGENERATE, kind="wigner", label="no joint",
         angles=[-0.0, 0.0, math.pi] * 2 + [0.0] * 2)
def test_kernel_path_matches_reader_oracle(state, kind, label, angles):
    x = angles[:2 * INEQUALITIES[kind].arity]
    config = AngleConfig.from_flat(x)
    make = ORACLE_PROVIDERS[label]
    got = outcome(lambda: report_fields(check(make(state), kind, *config.directions)))
    want = outcome(lambda: report_fields(reader_check(make(state), kind, *config.directions)))
    assert same(got, want), (got, want)
    if label == "no joint" and INEQUALITIES[kind].joint:
        assert got == (ValueError, "provider 'full' supplies no joint probabilities")
    want = outcome(reader_objective_value, make(state), kind, config)
    got = outcome(objective_value, make(state), kind, config)
    assert same(got, want), (got, want)


@kernel
@given(state=state, label=st.sampled_from(sorted(PROVIDERS)),
       a=st.builds(Direction, raw_angle, raw_angle), b=st.builds(Direction, raw_angle, raw_angle))
@example(state=DEGENERATE, label="postselected",
         a=Direction(math.pi / 2, 0.0), b=Direction(math.pi / 2, math.pi / 2))
@example(state=singlet(SpinQuantum(2)), label="sampled postselected",
         a=Direction(math.pi / 2, 0.0), b=Direction(math.pi / 2, 0.0))
def test_kernel_pair_matches_reader(state, label, a, b):
    provider = PROVIDERS[label](state)
    for joint in (False, True):
        spec = next(spec for spec in INEQUALITIES.values() if spec.joint == joint)
        prepare, pair = spec.kernel(provider)
        got = outcome(lambda: pair(prepare(a.theta, a.phi), prepare(b.theta, b.phi)))
        want = outcome(spec.reader(provider), a, b)
        assert same(got, want), (joint, got, want)


def test_degenerate_weight_raises_as_before():
    # the postselected correlation and (+,+) joint refuse the same weight with
    # the same error and message, through the reader and the kernel alike
    a, b = Direction(math.pi / 2, 0.0), Direction(math.pi / 2, math.pi / 2)
    provider = full_provider(DEGENERATE, "postselected")
    weight = rho_elements_closed(DEGENERATE, a, b).weight
    message = "^" + re.escape(f"conclusive weight {weight:.3e} below 1e-12") + "$"
    for joint in (False, True):
        spec = next(spec for spec in INEQUALITIES.values() if spec.joint == joint)
        prepare, pair = spec.kernel(provider)
        with pytest.raises(DegeneratePostselectionError, match=message):
            spec.reader(provider)(a, b)
        with pytest.raises(DegeneratePostselectionError, match=message):
            pair(prepare(a.theta, a.phi), prepare(b.theta, b.phi))


def test_providers_without_kernel_fall_back_to_the_reader():
    cat = CatState(SpinQuantum(1), CatCoefficients(math.pi / 4))
    full = full_provider(cat)
    a, b = Direction(0.1, 0.2), Direction(0.3, 0.4)
    provider = CorrelationProvider("full", full.correlation, full.joint)
    for spec in INEQUALITIES.values():
        prepare, pair = spec.kernel(provider)
        assert prepare is Direction
        assert pair(a, b) == spec.reader(provider)(a, b)


# The provider's reads: the estimate, then each joint in SIGNS order.
READS = (None, *SIGNS)


@kernel
@given(two_s=st.sampled_from([1, 2, 3, 4, 59, 60, 61]),
       coeffs=st.tuples(coefficient, coefficient, coefficient),
       a=st.builds(Direction, raw_angle, raw_angle), b=st.builds(Direction, raw_angle, raw_angle),
       n=st.sampled_from([1, 2, 40, 700]), seed=st.integers(0, 2**64 - 1),
       postselect=st.booleans(), order=st.permutations(READS))
@example(two_s=2, coeffs=(math.pi / 4, math.pi, 0.0), a=Direction(math.pi / 2, 0.0),
         b=Direction(math.pi / 2, 0.0), n=100, seed=1, postselect=True, order=READS)
@example(two_s=3, coeffs=(0.2, 0.1, 0.2), a=Direction(-0.0, -0.0), b=Direction(math.pi, 0.0),
         n=700, seed=5, postselect=False, order=READS[::-1])
def test_sampled_provider_reads_what_sample_outcomes_draws(two_s, coeffs, a, b, n, seed,
                                                          postselect, order):
    # each value, in any read order, is sample_outcomes' for the pair's own
    # substream: the estimate, and each count over the shots it averages
    state = CatState(SpinQuantum(two_s), CatCoefficients(*coeffs))
    provider = sampled_provider(state, n, seed, postselect=postselect)
    pair_seed = rng.derive(seed, a.theta, a.phi, b.theta, b.phi)
    stats = outcome(sample_outcomes, state, a, b, n, pair_seed, postselect)
    for signs in order:
        if signs is None:
            got = outcome(provider.correlation, a, b)
            want = stats if isinstance(stats, tuple) else stats.estimate
        else:
            got = outcome(provider.joint, a, b, *signs)
            want = stats if isinstance(stats, tuple) else (
                stats.counts[CATEGORIES[SIGNS.index(signs)]]
                / (stats.n_conclusive if postselect else n))
        assert same(got, want), (signs, got, want)
