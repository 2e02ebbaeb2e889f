"""Deterministic uniforms and Monte Carlo measurement sampling."""

import hashlib
import json
import math
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import random_direction
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import outcome_probabilities_numpy

from bellcat import (
    CATEGORIES,
    BudgetExceededError,
    CatCoefficients,
    CatState,
    DegeneratePostselectionError,
    DiagonalElements,
    Direction,
    NegativeProbabilityError,
    SampleStats,
    SpinQuantum,
    UnsupportedScenarioError,
    ZeroConclusiveError,
    correlation,
    grid_sweep,
    outcome_probabilities,
    photon_emulation,
    rho_elements_closed,
    sample_outcomes,
    sampled_provider,
    singlet,
)
from bellcat import rng, sampling

PI = math.pi
EQ = Direction(PI / 2, 0.0)

_MASK = (1 << 64) - 1


def reference_word(seed: int, index: int) -> int:
    """Independent pure-integer SplitMix64, used to pin the stream."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def reference_uniform(seed: int, index: int) -> float:
    return (reference_word(seed, index) >> 11) * 2.0 ** -53


@st.composite
def draw_cases(draw):
    """(probs, n, seed, block) for _count_below, with cdfs built to hit its edges.

    Each cdf entry is a uniform the draw itself produces or one of its two
    float neighbours, a repeat of another entry (a zero-probability
    category), 1.0 or the float above it, or any float in [0, 1].  n is 1,
    on either side of a block edge, or anywhere in four blocks.
    """
    block = draw(st.sampled_from([1, 7, 64, sampling._BLOCK]))
    edge = max(1, draw(st.integers(0, 3)) * block + draw(st.integers(-1, 1)))
    n = draw(st.one_of(st.just(1), st.just(edge), st.integers(1, 4 * block)))
    seed = draw(st.integers(0, 2**64 - 1))
    u = rng.uniforms(seed, n)
    targets = []
    for _ in range(4):
        kind = draw(st.sampled_from(["uniform", "repeat", "one", "float"]))
        if kind == "uniform":
            x = float(u[draw(st.integers(0, n - 1))])
            x = draw(st.sampled_from([math.nextafter(x, -1.0), x, math.nextafter(x, 2.0)]))
        elif kind == "repeat":
            x = targets[-1] if targets else 0.0
        elif kind == "one":
            x = draw(st.sampled_from([1.0, math.nextafter(1.0, 2.0)]))
        else:
            x = draw(st.floats(0.0, 1.0))
        targets.append(max(x, 0.0))
    targets.sort()
    # cumsum lands on each target exactly wherever float addition can reach
    # it; where ties to even skip it, the entry lands one ulp away.  An entry
    # is never negative, as _probabilities guarantees: once the total has
    # passed a target, the category is a repeat.
    probs, total = [], 0.0
    for x in targets:
        d = x - total
        p = next((p for p in (d, math.nextafter(d, -1.0), math.nextafter(d, 2.0))
                  if p >= 0.0 and total + p == x), max(d, 0.0))
        probs.append(p)
        total += p
    # a zero inconclusive entry pins the last bin to 1.0, as for 2s = 1
    pinned = draw(st.booleans())
    probs.append(0.0 if pinned else max(1.0 - total, 5e-324))
    probs = np.array(probs)
    return probs, n, seed, block


class TestRng:
    def test_frozen_first_values(self):
        assert rng.uniforms(0, 3).tolist() == [
            0.8833108082136426, 0.43152799704850997, 0.026433771592597743,
        ]
        assert rng.uniforms(1, 3).tolist() == [
            0.5665615751722809, 0.7457817572627011, 0.9710027535867962,
        ]

    def test_matches_pure_integer_reference(self):
        for seed in (0, 7, 2**63 - 1, -5):
            got = rng.uniforms(seed, 40)
            want = [reference_uniform(seed, i) for i in range(40)]
            assert got.tolist() == want

    def test_words_match_pure_integer_reference(self):
        for seed in (0, -5, 2**63 - 1, 2**64 - 1):
            for start in (0, 3, 2**32 + 7):
                for count in (0, 1, 70_000):  # 70,000 spans more than one draw block
                    got = rng.integers(seed, count, start)
                    assert got.dtype == np.uint64
                    want = [reference_word(seed, start + i) for i in range(count)]
                    assert got.tolist() == want

    def test_word_arrays_are_fresh(self):
        first = rng.integers(3, 1000)
        second = rng.integers(3, 1000)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, second)

    def test_reused_buffers_match_reference_across_chunk_edges(self):
        chunk = rng._CHUNK
        words = np.empty(3 * chunk, dtype=np.uint64)
        scratch = np.empty_like(words)
        # one buffer pair for every seed, start and count, so a stale word
        # from an earlier draw would show
        for seed, start in ((0, 0), (2**64 - 1, 2**32 - 2), (-5, 2**63 - chunk)):
            want = [reference_word(seed, start + i) for i in range(3 * chunk)]
            for count in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk):
                got = rng.integers(seed, count, start,
                                   out=words[:count], scratch=scratch[:count])
                assert got.base is words
                assert got.tolist() == want[:count]

    def test_step_table_is_read_only(self):
        rng.integers(1, 100)
        assert not rng._steps.flags.writeable
        with pytest.raises(ValueError):
            rng._steps[0] = 0

    def test_step_table_is_lazy_and_sized_to_the_largest_chunk(self):
        # a fresh interpreter, since earlier tests have grown the table
        code = ("from bellcat import rng\n"
                "sizes = [len(rng._steps)]\n"
                "rng.uniforms(1, 48)\n"
                "sizes.append(len(rng._steps))\n"
                "rng.integers(1, 10 * rng._CHUNK)\n"
                "sizes.append(len(rng._steps) == rng._CHUNK)\n"
                "print(sizes)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 48, True]"

    def test_no_floating_point_or_overflow_signals(self):
        # the uint64 arithmetic wraps mod 2**64 without numpy warnings
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for seed in (0, -1, 2**64 - 1):
                for count in (1, 3, rng._CHUNK + 5):
                    rng.integers(seed, count, 2**64 - 2)
                    rng.uniforms(seed, count, 2**63)

    def test_range_and_determinism(self):
        u = rng.uniforms(99, 10000)
        assert np.all((0.0 <= u) & (u < 1.0))
        assert np.array_equal(u, rng.uniforms(99, 10000))
        assert 0.45 < u.mean() < 0.55

    def test_indexed_stream_slices(self):
        whole = rng.uniforms(7, 10)
        tail = rng.uniforms(7, 7, start=3)
        assert np.array_equal(whole[3:], tail)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            rng.uniforms(0, -1)

    def test_derive_distinguishes_labels(self):
        a = rng.derive(1, 0.5, 0.25)
        assert a == rng.derive(1, 0.5, 0.25)
        assert a != rng.derive(1, 0.25, 0.5)
        assert a != rng.derive(2, 0.5, 0.25)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           pair=st.lists(st.tuples(*[st.one_of(
               st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                math.pi, 2 * math.pi]),
               st.floats(allow_nan=False)) for _ in range(4)]),
               min_size=2, max_size=2, unique_by=lambda t: struct.pack("<4d", *t)))
    def test_derive_separates_distinct_angle_tuples(self, seed, pair):
        # distinct by IEEE-754 bits, so 0.0 and -0.0 are different labels
        first, second = pair
        assert rng.derive(seed, *first) != rng.derive(seed, *second)
        assert rng.derive(seed, *first) == rng.derive(seed, *first)
        for i in range(4):
            if first[i] == 0.0:
                flipped = first[:i] + (-first[i],) + first[i + 1:]
                assert rng.derive(seed, *flipped) != rng.derive(seed, *first)


SNAP, NEG = sampling.PROB_SNAP, sampling._NEG_TOL
# entries on either side of the snap and negative-tolerance edges
EDGES = [0.0, -0.0, 5e-324, SNAP, math.nextafter(SNAP, 0.0), math.nextafter(SNAP, 1.0),
         -NEG, math.nextafter(-NEG, 0.0), math.nextafter(-NEG, -1.0)]
edge_entry = st.one_of(st.sampled_from(EDGES), st.floats(-2e-12, 1.0))
pole_angle = st.one_of(st.sampled_from([0.0, -0.0, PI, -PI, 2 * PI]),
                       st.floats(-2 * PI, 2 * PI))


@st.composite
def element_totals(draw):
    """Four diagonal totals; the last one may leave a leftover at an edge."""
    totals = [draw(edge_entry) for _ in range(3)]
    if draw(st.booleans()):
        gap = draw(st.one_of(st.sampled_from(EDGES), st.floats(-2e-12, 2e-14)))
        totals.append(1.0 - ((totals[0] + totals[1]) + totals[2]) - gap)
    else:
        totals.append(draw(edge_entry))
    return totals


def assert_same_as_numpy_reference(state, a, b):
    """outcome_probabilities equals the numpy reference byte for byte,
    raises included."""
    outcomes = []
    for function in (outcome_probabilities, outcome_probabilities_numpy):
        try:
            probs = function(state, a, b)
            outcomes.append((probs.dtype, probs.shape, probs.tobytes()))
        except NegativeProbabilityError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


class TestOutcomeProbabilities:
    @settings(max_examples=400, deadline=None)
    @given(two_s=st.sampled_from([1, 2, 3, 4, 5, 6, 59, 60, 61]),
           coeffs=st.tuples(*[st.floats(-PI, PI)] * 3),
           angles=st.tuples(pole_angle, st.floats(-2 * PI, 2 * PI),
                            pole_angle, st.floats(-2 * PI, 2 * PI)))
    def test_matches_numpy_reference(self, two_s, coeffs, angles):
        state = CatState(SpinQuantum(two_s), CatCoefficients(*coeffs))
        assert_same_as_numpy_reference(state, Direction(*angles[:2]), Direction(*angles[2:]))

    @settings(max_examples=400, deadline=None)
    @given(two_s=st.sampled_from([1, 2]), totals=element_totals())
    @example(two_s=2, totals=[0.25, 0.25, 0.25, 0.25 - 5e-15])  # the leftover snaps
    @example(two_s=2, totals=[0.25, 0.25, 0.25, 0.25 + 2e-12])  # the sum exceeds 1
    @example(two_s=1, totals=[0.5, -2e-12, 0.5, 0.0])  # a negative outcome
    def test_edge_entries_match_numpy_reference(self, two_s, totals):
        # -0.0 keeps every total's sign of zero
        parts = (tuple(totals), (-0.0,) * 4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "_closed_parts", lambda *_: parts)
            assert_same_as_numpy_reference(singlet(SpinQuantum(two_s)), EQ, EQ)

    def test_half_spin_has_no_inconclusive_mass(self):
        rng_np = np.random.default_rng(3)
        st = singlet(SpinQuantum(1))
        for _ in range(30):
            p = outcome_probabilities(st, random_direction(rng_np), random_direction(rng_np))
            assert p[4] == 0.0
            assert p[:4].sum() == pytest.approx(1.0, abs=1e-12)

    def test_higher_spin_mass_matches_weight(self):
        st = singlet(SpinQuantum(4))
        a, b = Direction(1.0, 0.3), Direction(2.2, 1.7)
        p = outcome_probabilities(st, a, b)
        weight = rho_elements_closed(st, a, b).weight
        assert p[4] == pytest.approx(1.0 - weight, abs=1e-12)

    def test_negative_probability_flagged(self, monkeypatch):
        # simulate an upstream bug handing over a negative diagonal element
        import bellcat.sampling as sampling_mod

        broken = ((-0.01, 0.5, 0.5, 0.01), (-0.0,) * 4)
        monkeypatch.setattr(sampling_mod, "_closed_parts", lambda *_: broken)
        with pytest.raises(NegativeProbabilityError):
            outcome_probabilities(singlet(SpinQuantum(1)), EQ, EQ)

    @settings(max_examples=300, deadline=None)
    @given(two_s=st.sampled_from([1, 2, 3, 4, 5, 6, 59, 60, 61]),
           coeffs=st.tuples(*[st.floats(-PI, PI)] * 3),
           angles=st.tuples(*[st.floats(-2 * PI, 2 * PI)] * 4))
    def test_five_categories_form_a_distribution(self, two_s, coeffs, angles):
        # 2s = 59/60/61 straddles the log-space amplitude switch at 60
        state = CatState(SpinQuantum(two_s), CatCoefficients(*coeffs))
        a, b = Direction(*angles[:2]), Direction(*angles[2:])
        probs = outcome_probabilities(state, a, b)
        assert np.all(probs >= 0.0)
        assert abs(float(probs.sum()) - 1.0) <= 1e-12

    def test_tiny_probabilities_snap_to_zero(self):
        st = singlet(SpinQuantum(1))
        z = Direction(0.0, 0.0)
        tilted = Direction(1e-8, 0.0)
        p = outcome_probabilities(st, z, tilted)
        # the ++ outcome has probability ~ 2.5e-17; it must never be drawn
        assert p[0] == 0.0


class TestSampleOutcomes:
    def test_deterministic(self):
        st = singlet(SpinQuantum(2))
        a, b = Direction(0.8, 0.1), Direction(1.7, 2.9)
        s1 = sample_outcomes(st, a, b, 5000, 31)
        s2 = sample_outcomes(st, a, b, 5000, 31)
        assert s1 == s2
        s3 = sample_outcomes(st, a, b, 5000, 32)
        assert s3.counts != s1.counts

    def test_perfect_anticorrelation(self):
        st = singlet(SpinQuantum(1))
        z = Direction(0.0, 0.0)
        stats = sample_outcomes(st, z, z, 20000, 5)
        assert stats.estimate == -1.0
        assert stats.stderr == 0.0
        assert stats.counts["++"] == 0 and stats.counts["--"] == 0
        assert stats.counts["inconclusive"] == 0
        assert stats.counts["+-"] + stats.counts["-+"] == 20000

    def test_half_spin_never_inconclusive(self):
        rng_np = np.random.default_rng(41)
        st = singlet(SpinQuantum(1))
        for k in range(5):
            stats = sample_outcomes(st, random_direction(rng_np),
                                    random_direction(rng_np), 2000, 100 + k)
            assert stats.counts["inconclusive"] == 0
            assert stats.n_conclusive == 2000

    def test_orthogonal_axes_estimate_near_zero(self):
        st = singlet(SpinQuantum(1))
        stats = sample_outcomes(st, Direction(0.0, 0.0), EQ, 100_000, 8)
        assert stats.stderr > 0.0
        assert abs(stats.estimate) <= 5.0 * stats.stderr

    def test_estimate_tracks_exact_value(self):
        rng_np = np.random.default_rng(43)
        for two_s in (1, 2, 3):
            st = singlet(SpinQuantum(two_s))
            a, b = random_direction(rng_np), random_direction(rng_np)
            exact = correlation(st, a, b).p_total
            stats = sample_outcomes(st, a, b, 200_000, 77 + two_s)
            assert abs(stats.estimate - exact) <= 5.0 * max(stats.stderr, 1e-12)

    def test_inconclusive_fraction_tracks_weight(self):
        st = singlet(SpinQuantum(2))
        a, b = Direction(1.1, 0.4), Direction(2.0, 2.6)
        n = 200_000
        stats = sample_outcomes(st, a, b, n, 13)
        expected = 1.0 - rho_elements_closed(st, a, b).weight
        observed = stats.counts["inconclusive"] / n
        band = 5.0 * math.sqrt(expected * (1.0 - expected) / n)
        assert abs(observed - expected) <= band

    def test_coverage_over_repeated_runs(self):
        # the 2-sigma interval should cover the true value in >= 90 of 100 runs
        st = singlet(SpinQuantum(1))
        a, b = Direction(0.9, 0.0), Direction(1.8, 1.1)
        exact = correlation(st, a, b).p_total
        hits = 0
        for k in range(100):
            stats = sample_outcomes(st, a, b, 5000, 1000 + k)
            if abs(stats.estimate - exact) <= 2.0 * stats.stderr:
                hits += 1
        assert hits >= 90

    def test_postselect_conditions_on_conclusive(self):
        st = singlet(SpinQuantum(3))
        a, b = Direction(1.2, 0.5), Direction(1.9, 2.2)
        exact = correlation(st, a, b, mode="postselected").p_total
        stats = sample_outcomes(st, a, b, 300_000, 21, postselect=True)
        assert stats.postselect
        assert stats.n_conclusive < stats.n_total
        assert abs(stats.estimate - exact) <= 5.0 * stats.stderr

    def test_postselect_with_zero_conclusive_mass(self):
        # spin-1 cat at identical equatorial axes: every draw is inconclusive
        st = singlet(SpinQuantum(2))
        with pytest.raises(ZeroConclusiveError, match="^all draws were inconclusive$") as exc:
            sample_outcomes(st, EQ, EQ, 100, 3, postselect=True)
        # an undefined postselected value, which the searches read as NaN
        assert isinstance(exc.value, DegeneratePostselectionError)
        assert isinstance(exc.value, ValueError)
        raw = sample_outcomes(st, EQ, EQ, 100, 3)
        assert raw.counts["inconclusive"] == 100
        assert raw.estimate == 0.0

    def test_estimate_stays_in_range(self):
        rng_np = np.random.default_rng(47)
        for k in range(10):
            st = singlet(SpinQuantum(1 + k % 3))
            stats = sample_outcomes(st, random_direction(rng_np),
                                    random_direction(rng_np), 500, k)
            assert -1.0 <= stats.estimate <= 1.0

    @pytest.mark.parametrize("two_s", [1, 2])
    def test_block_draws_match_one_shot_draw(self, monkeypatch, two_s):
        st = singlet(SpinQuantum(two_s))
        a, b = Direction(0.7, 0.1), Direction(1.9, 2.2)
        n, seed = 3500, 77
        probs = outcome_probabilities(st, a, b)
        cdf = np.cumsum(probs[:4])
        if probs[4] == 0.0:
            cdf[3] = 1.0
        cats = np.searchsorted(cdf, rng.uniforms(seed, n), side="right")
        one_shot = dict(zip(CATEGORIES, np.bincount(cats, minlength=5).tolist()))
        # three full blocks and a partial one
        monkeypatch.setattr(sampling, "_BLOCK", 1000)
        assert sample_outcomes(st, a, b, n, seed).counts == one_shot

    @settings(max_examples=400, deadline=None)
    @given(case=draw_cases())
    # the second entry lands one ulp above the first uniform of seed 0, and a
    # repeat of that target follows: the strategy once drew -2^-53 for it
    @example(case=(np.array([0.3273257642181257, 0.555985043995517, 0.0, 0.0,
                             0.11668919178635728]), 8, 0, 7))
    def test_counted_draws_match_searchsorted(self, case):
        probs, n, seed, block = case
        cdf = np.cumsum(probs[:4])
        if probs[4] == 0.0:
            cdf[3] = 1.0
        cats = np.searchsorted(cdf, rng.uniforms(seed, n), side="right")
        one_shot = np.bincount(cats, minlength=5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "_BLOCK", block)
            b0, b1, b2, b3 = sampling._count_below(probs.tolist(), n, seed, (0, 1, 2, 3))
        assert [b0, b1 - b0, b2 - b1, b3 - b2, n - b3] == one_shot.tolist()

    @pytest.mark.parametrize("two_s, counts", [
        (1, {"++": 1582084, "+-": 975580, "-+": 363837, "--": 78499, "inconclusive": 0}),
        (3, {"++": 578044, "+-": 72807, "-+": 399, "--": 28061, "inconclusive": 2320689}),
    ])
    def test_golden_counts_for_large_draw(self, two_s, counts):
        # fixed values: a change to how shots are drawn must reproduce them
        st = CatState(SpinQuantum(two_s), CatCoefficients(0.2, 0.1, 0.2))
        stats = sample_outcomes(st, Direction(0.7, 0.1), Direction(1.9, 2.2),
                                3_000_000, 2**63 + 5)
        assert stats.counts == counts

    def test_shot_limit_checked_before_any_word(self, monkeypatch):
        def no_words(*args, **kwargs):
            raise AssertionError("words were drawn")

        st = singlet(SpinQuantum(2))
        monkeypatch.setattr(sampling, "SHOT_LIMIT", 1000)
        assert sample_outcomes(st, EQ, EQ, 1000, 3).n_total == 1000
        monkeypatch.setattr(rng, "integers", no_words)
        with pytest.raises(BudgetExceededError, match="shot limit"):
            sample_outcomes(st, EQ, EQ, 1001, 3)
        assert issubclass(BudgetExceededError, ValueError)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            sample_outcomes(singlet(SpinQuantum(1)), EQ, EQ, 0, 1)

    @pytest.mark.parametrize("draw", [
        lambda st, seed: sample_outcomes(st, EQ, EQ, 100, seed).n_total,
        lambda st, seed: sampled_provider(st, 100, seed).correlation(EQ, EQ),
    ], ids=["sample_outcomes", "sampled_provider"])
    def test_seed_is_a_64_bit_word_checked_before_any_word(self, monkeypatch, draw):
        # the stream reduces seeds modulo 2**64, so two seeds would share draws
        def no_words(*args, **kwargs):
            raise AssertionError("words were drawn")

        st = singlet(SpinQuantum(2))
        for seed in (0, 2**64 - 1):
            draw(st, seed)
        monkeypatch.setattr(rng, "integers", no_words)
        for seed in (-1, 2**64, 5 - 2**64, 5 + 2**64, 5.0):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
                draw(st, seed)

    def test_json_round_trip(self):
        # the dict the CLI prints carries every field
        stats = sample_outcomes(singlet(SpinQuantum(2)), Direction(0.7, 0.0),
                                Direction(1.1, 0.8), 4000, 55)
        again = SampleStats(**json.loads(json.dumps(stats.to_dict())))
        assert again == stats


# Recorded before draws reused their buffers; a change to how shots are
# drawn or counted must reproduce them.  The digest covers every sweep
# value as little-endian float64 bytes, block by block.
SWEEP_GOLDEN = {
    (1, False): (2.1846666666666668, -0.18466666666666676,
                 [(0.7853981633974483, 0.0), (2.356194490192345, 3.141592653589793),
                  (0.0, 1.5707963267948966), (3.141592653589793, 4.71238898038469)],
                 "cc13fdaa45fdce6aefa96606a2924034"),
    (2, False): (2.049, -0.04899999999999993,
                 [(0.0, 3.141592653589793), (0.0, 0.0),
                  (1.5707963267948966, 0.0), (0.0, 4.71238898038469)],
                 "6eeff79dff0d80807850648db6e59bc2"),
    (3, False): (2.0473333333333334, -0.04733333333333345,
                 [(0.0, 4.71238898038469), (1.5707963267948966, 1.5707963267948966),
                  (0.0, 0.0), (3.141592653589793, 0.0)],
                 "37655eca66922bf13c71dfcf689f0fce"),
    (3, True): (2.2579051716971836, -0.25790517169718363,
                [(0.0, 1.5707963267948966), (0.7853981633974483, 0.0),
                 (0.7853981633974483, 3.141592653589793),
                 (1.5707963267948966, 3.141592653589793)],
                "4f815cf4f28b4ec9b9b8367d2d3415cf"),
}


class TestSampledSweepGolden:
    @pytest.mark.parametrize("two_s, postselect", list(SWEEP_GOLDEN))
    def test_resolution_5_chsh_sweep(self, two_s, postselect):
        value, margin, config, digest = SWEEP_GOLDEN[(two_s, postselect)]
        state = CatState(SpinQuantum(two_s), CatCoefficients(0.2, 0.1, 0.2))
        provider = sampled_provider(state, 3000, 2**63 + 11, postselect=postselect)
        h = hashlib.sha256()
        result = grid_sweep(provider, "chsh", 5,
                            sink=lambda block, _angles: h.update(block.astype("<f8").tobytes()))
        config = [list(d) for d in config]
        assert result.to_dict() == {"kind": "chsh", "best_config": config, "best_value": value,
                                    "evaluations": 390625, "converged": True, "trace": None}
        assert result.report(provider).to_dict() == {
            "kind": "chsh", "lhs": value, "rhs": 2.0, "margin": margin, "violated": True,
            "config": config}
        assert h.hexdigest()[:32] == digest


class TestPhotonEmulation:
    def test_requires_spin_one(self):
        for two_s in (1, 3, 4):
            with pytest.raises(UnsupportedScenarioError):
                photon_emulation(singlet(SpinQuantum(two_s)), EQ, EQ, 100, 1)

    def test_aligned_poles(self):
        st = singlet(SpinQuantum(2))
        z = Direction(0.0, 0.0)
        record = photon_emulation(st, z, z, 50_000, 12)
        # coincidences see the perfect anticorrelation...
        assert record.stats.estimate == -1.0
        assert record.joint[0] == 0.0 and record.joint[3] == 0.0
        assert record.joint[1] + record.joint[2] == pytest.approx(1.0, abs=1e-12)
        # ...while the product of one-sided intensity differences does not
        assert abs(record.product_estimate) < 0.05

    def test_consistent_with_sample_outcomes(self):
        st = singlet(SpinQuantum(2))
        a, b = Direction(0.6, 0.3), Direction(2.1, 1.2)
        record = photon_emulation(st, a, b, 30_000, 77)
        direct = sample_outcomes(st, a, b, 30_000, 77)
        assert record.stats == direct

    def test_payload_shape(self):
        st = singlet(SpinQuantum(2))
        record = photon_emulation(st, Direction(0.4, 0.0), Direction(1.0, 0.5),
                                  2000, 9)
        d = record.to_dict()
        assert set(d) == {"stats", "joint", "product_estimate"}
        assert len(d["joint"]) == 4


class TestCategories:
    def test_declared_order(self):
        assert CATEGORIES == ("++", "+-", "-+", "--", "inconclusive")


class TestOneProbabilityPath:
    """Every sampled pair takes its five probabilities from
    sampling._probabilities on the closed-form parts, so no sampling path
    builds a DiagonalElements, however it is reached."""

    @pytest.fixture(autouse=True)
    def no_diagonal_elements(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a DiagonalElements was built")

        monkeypatch.setattr(DiagonalElements, "__init__", refuse)

    STATE = CatState(SpinQuantum(3), CatCoefficients(0.2, 0.1, 0.2))
    A, B = Direction(0.7, 0.1), Direction(1.9, 2.2)

    @pytest.mark.parametrize("postselect", [False, True], ids=["raw", "postselected"])
    @pytest.mark.parametrize("two_s", [1, 2, 3])
    def test_sample_outcomes(self, two_s, postselect):
        state = CatState(SpinQuantum(two_s), CatCoefficients(0.2, 0.1, 0.2))
        stats = sample_outcomes(state, self.A, self.B, 2000, 5, postselect)
        assert sum(stats.counts.values()) == 2000

    def test_photon_emulation(self):
        record = photon_emulation(singlet(SpinQuantum(2)), self.A, self.B, 2000, 5)
        assert record.stats.n_total == 2000

    def test_outcome_probabilities(self):
        probs = outcome_probabilities(self.STATE, self.A, self.B)
        assert abs(float(probs.sum()) - 1.0) <= 1e-12

    def test_sampled_sweep_and_report(self):
        provider = sampled_provider(self.STATE, 500, 3)
        result = grid_sweep(provider, "chsh", 3)
        assert result.report(provider).lhs == result.best_value

    def test_mixed_sign_sampled_joint(self):
        joint = sampled_provider(self.STATE, 500, 3).joint
        assert 0.0 <= joint(self.A, self.B, +1, -1) <= 1.0

    def test_command_line_sample(self, capsys):
        from bellcat.cli import main

        code = main(["sample", "--two-s", "2", "--a", "0.4,0.2", "--b", "2.1,5.0",
                     "--n", "300", "--seed", "5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["n_total"] == 300


class TestSampledProviderShots:
    def test_bad_n_refused_when_built(self):
        state = singlet(SpinQuantum(2))
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            sampled_provider(state, 0, 1)
        with pytest.raises(BudgetExceededError, match="shot limit"):
            sampled_provider(state, sampling.SHOT_LIMIT + 1, 1)
