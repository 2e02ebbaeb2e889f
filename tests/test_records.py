"""bellcat's value types behave as the frozen dataclasses they replace.

Every record compares, hashes and prints through its field tuple, in the
field order written out in FIELDS, refuses assignment and deletion with
AttributeError, and survives pickle and deepcopy.  The dataclasses
helpers (fields, asdict, replace, is_dataclass) do not accept them.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from bellcat import (
    AngleConfig,
    CatCoefficients,
    CatState,
    CorrelationBreakdown,
    CorrelationProvider,
    DiagonalElements,
    DickeKet,
    Direction,
    InequalityReport,
    OptimizationResult,
    PhotonEmulation,
    SampleStats,
    SpinMatrices,
    SpinQuantum,
    check,
    coherent_state,
    correlation,
    full_provider,
    photon_emulation,
    rho_elements_closed,
    sample_outcomes,
    spin_matrices,
)
from bellcat.inequalities import Inequality
from bellcat.spins import _Record

# Each record type's fields, in the order its repr, equality and hash read them.
FIELDS = {
    SpinQuantum: ("two_s",),
    Direction: ("theta", "phi"),
    DickeKet: ("s", "amps"),
    SpinMatrices: ("s", "sx", "sy", "sz"),
    CatCoefficients: ("alpha", "gamma1", "gamma2"),
    CatState: ("s", "coeffs"),
    DiagonalElements: ("lc", "nlc"),
    CorrelationBreakdown: ("p_total", "p_lc", "p_nlc", "postselect_weight", "mode"),
    CorrelationProvider: ("provenance", "correlation", "joint", "axes"),
    InequalityReport: ("kind", "lhs", "rhs", "margin", "violated", "config"),
    Inequality: ("arity", "pairs", "joint", "sides", "lower", "maximize_lhs"),
    SampleStats: ("n_total", "counts", "estimate", "stderr", "seed", "postselect"),
    PhotonEmulation: ("stats", "joint", "product_estimate"),
    AngleConfig: ("directions",),
    OptimizationResult: ("kind", "best_config", "best_value", "evaluations", "converged",
                         "trace"),
}


def chsh_sides(ab, ac, db, dc):
    return abs(ab + ac + db - dc), 2.0


def planar_correlation(a, b):
    return -math.cos(a.theta - b.theta)


def planar_joint(a, b, sign_a, sign_b):
    return (1.0 + sign_a * sign_b * planar_correlation(a, b)) / 4.0


def make(cls):
    """One instance of cls whose fields all pickle."""
    s = SpinQuantum(2)
    state = CatState(s, CatCoefficients(0.7, 0.3, -0.4))
    a, b, c, d = Direction(0.3, 1.2), Direction(2.0, 4.0), Direction(1.1, 0.2), Direction(0.5, 3.0)
    config = AngleConfig((a, b, c, d))
    return {
        SpinQuantum: lambda: s,
        Direction: lambda: a,
        DickeKet: lambda: coherent_state(s, a),
        SpinMatrices: lambda: spin_matrices(s),
        CatCoefficients: lambda: state.coeffs,
        CatState: lambda: state,
        DiagonalElements: lambda: rho_elements_closed(state, a, b),
        CorrelationBreakdown: lambda: correlation(state, a, b, "postselected"),
        CorrelationProvider: lambda: CorrelationProvider("planar", planar_correlation,
                                                         planar_joint),
        InequalityReport: lambda: check(full_provider(state), "chsh", a, b, c, d),
        Inequality: lambda: Inequality(4, ((0, 1), (0, 2), (3, 1), (3, 2)), False, chsh_sides,
                                       maximize_lhs=True),
        SampleStats: lambda: sample_outcomes(state, a, b, 200, 5),
        PhotonEmulation: lambda: photon_emulation(state, a, b, 200, 5),
        AngleConfig: lambda: config,
        OptimizationResult: lambda: OptimizationResult("chsh", config, 2.5, 17, False,
                                                       ((0, 2.0), (1, 2.5))),
    }[cls]()


def values(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


def outcome(thunk):
    """thunk's value, or the type of the exception it raised."""
    try:
        return "value", thunk()
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return "raised", type(exc)


def same(x, y) -> bool:
    """Field-by-field equality that reads arrays by value."""
    return type(x) is type(y) and all(
        np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v
        for u, v in zip(values(x), values(y)))


RECORDS = list(FIELDS)


def test_every_record_type_is_listed():
    import bellcat

    exported = [getattr(bellcat, name) for name in bellcat.__all__]
    records = {x for x in exported if isinstance(x, type) and issubclass(x, _Record)}
    assert records | {Inequality} == set(FIELDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestRecord:
    def test_repr_lists_the_fields_in_order(self, cls):
        x = make(cls)
        body = ", ".join(f"{name}={getattr(x, name)!r}" for name in FIELDS[cls])
        assert repr(x) == f"{cls.__name__}({body})"

    def test_equality_and_hash_read_the_field_tuple(self, cls):
        x = make(cls)
        fresh = cls(*values(x))
        assert outcome(lambda: x == fresh) == outcome(lambda: values(x) == values(fresh))
        assert outcome(lambda: x != fresh) == outcome(lambda: values(x) != values(fresh))
        assert outcome(lambda: hash(x)) == outcome(lambda: hash(values(x)))
        assert x == x
        if outcome(lambda: hash(x))[0] == "value":
            assert hash(fresh) == hash(x)

    def test_other_types_and_plain_tuples_compare_unequal(self, cls):
        x = make(cls)
        other = make(Direction if cls is not Direction else SpinQuantum)
        assert x != other and not x == other
        assert x != values(x) and not x == values(x)

    def test_pickle_and_deepcopy_round_trip(self, cls):
        x = make(cls)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert same(pickle.loads(pickle.dumps(x, protocol)), x)
        assert same(copy.deepcopy(x), x)
        assert copy.copy(x) is not x and same(copy.copy(x), x)

    def test_fields_cannot_be_set_or_deleted(self, cls):
        x = make(cls)
        before = repr(x)
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.not_a_field = 1
        assert repr(x) == before

    def test_keyword_construction(self, cls):
        x = make(cls)
        assert same(cls(**dict(zip(FIELDS[cls], values(x)))), x)

    def test_dataclass_helpers_refuse_it(self, cls):
        x = make(cls)
        assert not dataclasses.is_dataclass(x)
        for helper in (dataclasses.fields, dataclasses.asdict, dataclasses.replace):
            with pytest.raises(TypeError):
                helper(x)


def test_defaults():
    assert CatCoefficients(alpha=0.5) == CatCoefficients(0.5, 0.0, 0.0)
    assert repr(CatCoefficients(alpha=1)) == "CatCoefficients(alpha=1.0, gamma1=0.0, gamma2=0.0)"
    provider = CorrelationProvider(provenance="custom", correlation=math.hypot)
    assert (provider.joint, provider.axes) == (None, None)
    spec = Inequality(arity=4, pairs=((0, 1),), joint=False, sides=chsh_sides)
    assert (spec.lower, spec.maximize_lhs) == (False, False)
    result = OptimizationResult(kind="chsh", best_config=AngleConfig(()), best_value=2.0,
                                evaluations=1, converged=True)
    assert result.trace is None


def test_spin_quanta_sort_by_two_s():
    one, two, three = SpinQuantum(1), SpinQuantum(2), SpinQuantum(3)
    assert sorted([three, one, two]) == [one, two, three]
    assert one < two <= two < three and three > two >= two > one
    assert not (two < two) and not (two > two)
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(one, op)(1) is NotImplemented
    with pytest.raises(TypeError):
        one < 2


def test_to_dict_copies_what_asdict_copied():
    stats = make(SampleStats)
    as_dict = stats.to_dict()
    assert as_dict == dict(zip(FIELDS[SampleStats], values(stats)))
    assert as_dict["counts"] is not stats.counts
    breakdown = make(CorrelationBreakdown)
    assert breakdown.to_dict() == dict(zip(FIELDS[CorrelationBreakdown], values(breakdown)))


def test_cached_state_constants_are_not_fields():
    state = make(CatState)
    fresh = CatState(state.s, state.coeffs)
    state.closed_constants
    assert state == fresh and hash(state) == hash(fresh) and repr(state) == repr(fresh)
