from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rafpref as rp
from rafpref import (
    PreferenceSpec,
    Raf,
    bottom,
    build_oracle,
    strictly_prefers,
    top,
)


class TestPreferenceSpec:
    def test_unknown_kind(self):
        with pytest.raises(rp.ValidationError, match="unknown preference kind"):
            PreferenceSpec(kind="bogus")

    def test_additive_needs_weights(self):
        with pytest.raises(rp.ValidationError, match="weights"):
            PreferenceSpec(kind="additive")

    def test_weights_must_be_positive(self):
        with pytest.raises(rp.ValidationError, match="strictly positive"):
            PreferenceSpec(kind="additive", weights=(1.0, 0.0))

    @pytest.mark.parametrize("bad", [float("nan"), "0.5", True])
    def test_weights_must_be_real_numbers(self, bad):
        # NaN once slipped through: abs(nan - 1) > tol is False.
        with pytest.raises(rp.ValidationError, match="real number"):
            PreferenceSpec(kind="additive", weights=(bad, 0.5, 0.5))

    @pytest.mark.parametrize(
        "params",
        [
            {"kind": "lexicographic", "priority": 5},
            {"kind": "lexicographic", "priority": "abc"},  # not split into a, b, c
            {"kind": "additive", "weights": 5},
            {"kind": "additive", "weights": {0.75, 0.25}},  # a set has no order
        ],
        ids=["priority-number", "priority-string", "weights-number", "weights-set"],
    )
    def test_parameter_lists_must_be_lists(self, params):
        with pytest.raises(rp.ValidationError, match="must be a list"):
            PreferenceSpec(**params)

    def test_numpy_weights_are_accepted(self):
        spec = PreferenceSpec(kind="additive", weights=np.array([0.5, 0.3, 0.2]))
        assert spec.weights == (0.5, 0.3, 0.2)
        assert all(type(w) is float for w in spec.weights)

    def test_numpy_scalar_weights_and_cutoff_are_accepted(self):
        spec = PreferenceSpec(kind="additive", weights=(np.float32(0.5), np.float64(0.25), 0.25))
        assert spec.weights == (0.5, 0.25, 0.25)
        assert all(type(w) is float for w in spec.weights)
        spec = PreferenceSpec(kind="threshold", cutoff=np.float32(0.25))
        assert spec.cutoff == 0.25 and type(spec.cutoff) is float

    @pytest.mark.parametrize("bad", [np.bool_(True), np.float32("nan")])
    def test_numpy_bools_and_nan_are_refused(self, bad):
        with pytest.raises(rp.ValidationError, match="weight must be a real number"):
            PreferenceSpec(kind="additive", weights=(bad, 0.5, 0.5))
        with pytest.raises(rp.ValidationError, match="cutoff must be a real number"):
            PreferenceSpec(kind="threshold", cutoff=bad)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(rp.ValidationError, match="sum to 1"):
            PreferenceSpec(kind="additive", weights=(0.5, 0.6))

    def test_weights_whose_sum_overflows_are_refused(self):
        # Each weight is finite, but math.fsum raises OverflowError on their sum.
        with pytest.raises(rp.ValidationError, match="sum to 1.*got inf"):
            PreferenceSpec(kind="additive", weights=(1e308, 1e308))

    def test_weights_sum_tolerance_is_tight(self):
        # A third three times misses 1.0 by an ulp or so; that must pass.
        PreferenceSpec(kind="additive", weights=(1 / 3, 1 / 3, 1 / 3))

    def test_cutoff_must_be_interior(self):
        with pytest.raises(rp.ValidationError, match="strictly inside"):
            PreferenceSpec(kind="threshold", cutoff=0.0)
        with pytest.raises(rp.ValidationError, match="strictly inside"):
            PreferenceSpec(kind="threshold", cutoff=1.0)

    def test_parameters_must_match_kind(self):
        with pytest.raises(rp.ValidationError, match="does not take"):
            PreferenceSpec(kind="min", weights=(0.5, 0.5))
        with pytest.raises(rp.ValidationError, match="does not take"):
            PreferenceSpec(kind="additive", weights=(0.5, 0.5), cutoff=0.5)

    def test_round_trip(self):
        for spec in (
            PreferenceSpec(kind="additive", weights=(0.5, 0.5)),
            PreferenceSpec(kind="min"),
            PreferenceSpec(kind="geometric"),
            PreferenceSpec(kind="lexicographic", priority=("b", "a")),
            PreferenceSpec(kind="anti_monotone"),
            PreferenceSpec(kind="threshold", cutoff=0.25),
        ):
            assert PreferenceSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_stray_fields(self):
        with pytest.raises(rp.ValidationError, match="unexpected"):
            PreferenceSpec.from_dict({"kind": "min", "gamma": 2})

    def test_from_dict_rejects_stray_fields_of_mixed_types(self):
        # Sorting 1 and "x" together once raised TypeError.
        with pytest.raises(rp.ValidationError, match=r"unexpected preference spec fields: \[1, 'x'\]"):
            PreferenceSpec.from_dict({"kind": "min", 1: 2, "x": 3})

    def test_stray_string_fields_keep_their_order(self):
        with pytest.raises(rp.ValidationError, match=r"\['a', 'a b', 'b'\]"):
            PreferenceSpec.from_dict({"kind": "min", "b": 0, "a b": 0, "a": 0})


class TestBuildOracle:
    def test_weight_count_must_match_alternatives(self, alts3):
        spec = PreferenceSpec(kind="additive", weights=(0.5, 0.5))
        with pytest.raises(rp.ValidationError, match="need 3 weights"):
            build_oracle(spec, alts3)

    def test_priority_must_be_a_permutation(self, alts3):
        spec = PreferenceSpec(kind="lexicographic", priority=("a", "b", "b"))
        with pytest.raises(rp.ValidationError, match="permutation"):
            build_oracle(spec, alts3)
        spec = PreferenceSpec(kind="lexicographic", priority=("a", "b"))
        with pytest.raises(rp.ValidationError, match="permutation"):
            build_oracle(spec, alts3)

    def test_mismatched_operands_rejected(self, alts2, alts3, oracle_factory):
        oracle = oracle_factory("min", alts2)
        with pytest.raises(rp.AlternativeSetMismatchError):
            oracle.weak_prefers(top(alts2), top(alts3))

    @pytest.mark.parametrize(
        "spec, name",
        [
            (PreferenceSpec(kind="additive", weights=(0.5, 0.5)), "additive[0.5,0.5]"),
            (PreferenceSpec(kind="min"), "min"),
            (PreferenceSpec(kind="geometric"), "geometric"),
            (PreferenceSpec(kind="lexicographic", priority=("b", "a", "c")), "lexicographic[b>a>c]"),
            (PreferenceSpec(kind="anti_monotone"), "anti_monotone"),
            (PreferenceSpec(kind="threshold", cutoff=0.25), "threshold[0.25]"),
        ],
        ids=["additive", "min", "geometric", "lexicographic", "anti_monotone", "threshold"],
    )
    def test_names_are_stable(self, alts2, alts3, spec, name):
        alts = alts2 if spec.weights else alts3
        assert build_oracle(spec, alts).name == name

    @pytest.mark.parametrize(
        "spec, hint, form",
        [
            (
                PreferenceSpec(kind="additive", weights=(0.5, 0.3, 0.2)),
                0.5 * 0.9 + 0.3 * 0.4 + 0.2 * 0.7,
                lambda v: math.fsum([0.5 * v[0], 0.3 * v[1], 0.2 * v[2]]),
            ),
            (PreferenceSpec(kind="min"), 0.4, min),
            (
                PreferenceSpec(kind="geometric"),
                (0.9 * 0.4 * 0.7) ** (1 / 3),
                lambda v: (v[0] * v[1] * v[2]) ** (1 / 3),
            ),
            (
                PreferenceSpec(kind="lexicographic", priority=("b", "a", "c")),
                0.4,
                lambda v: v[1],
            ),
            (
                PreferenceSpec(kind="threshold", cutoff=0.25),
                (0.9 + 0.4 + 0.7) / 3,
                lambda v: math.fsum(v) / 3 if math.fsum(v) / 3 >= 0.25 else 0.0,
            ),
            (  # below the cutoff
                PreferenceSpec(kind="threshold", cutoff=0.8),
                0.0,
                lambda v: math.fsum(v) / 3 if math.fsum(v) / 3 >= 0.8 else 0.0,
            ),
            (PreferenceSpec(kind="anti_monotone"), None, None),
        ],
        ids=[
            "additive", "min", "geometric", "lexicographic",
            "threshold-above", "threshold-below", "anti_monotone",
        ],
    )
    def test_diagonal_hint_is_the_closed_form(self, alts3, spec, hint, form):
        oracle = build_oracle(spec, alts3)
        if hint is None:
            assert oracle.diagonal is None
            return
        assert oracle.diagonal(Raf(alts3, (0.9, 0.4, 0.7))) == pytest.approx(hint, abs=1e-15)
        for t in (0.0, 0.3, 0.375, 0.9, 1.0):
            level = t if spec.cutoff is None or t >= spec.cutoff else 0.0
            assert oracle.diagonal(rp.scale_top(t, alts3)) == pytest.approx(level, abs=1e-15)
        # The hint is the closed form itself, float for float.
        for raf in rp.RafSampler(alts3, 0).rafs(500):
            assert oracle.diagonal(raf) == form(raf.values)


class TestBuiltinOrders:
    def test_additive_prefers_higher_weighted_mean(self, alts2, oracle_factory):
        oracle = oracle_factory("additive", alts2)
        a = Raf(alts2, (0.9, 0.1))
        b = Raf(alts2, (0.4, 0.4))
        assert oracle.weak_prefers(a, b)
        assert strictly_prefers(oracle, a, b)

    def test_min_prefers_better_worst_case(self, alts2, oracle_factory):
        oracle = oracle_factory("min", alts2)
        a = Raf(alts2, (0.9, 0.1))
        b = Raf(alts2, (0.4, 0.4))
        assert not oracle.weak_prefers(a, b)
        assert strictly_prefers(oracle, b, a)

    def test_min_indifference_on_equal_minima(self, alts2, oracle_factory):
        oracle = oracle_factory("min", alts2)
        a, b = Raf(alts2, (0.3, 0.9)), Raf(alts2, (0.3, 0.4))
        assert oracle.weak_prefers(a, b) and oracle.weak_prefers(b, a)

    def test_additive_indifference_on_mirrored_pair(self, alts2, oracle_factory):
        oracle = oracle_factory("additive", alts2)
        a, b = Raf(alts2, (0.9, 0.1)), Raf(alts2, (0.1, 0.9))
        assert oracle.weak_prefers(a, b) and oracle.weak_prefers(b, a)

    def test_geometric_prefers_larger_product(self, alts2, oracle_factory):
        oracle = oracle_factory("geometric", alts2)
        a = Raf(alts2, (0.9, 0.4))  # product 0.36
        b = Raf(alts2, (0.6, 0.5))  # product 0.30
        assert strictly_prefers(oracle, a, b)

    def test_lexicographic_ignores_lower_priority_on_a_gap(self, alts2, oracle_factory):
        oracle = oracle_factory("lexicographic", alts2, priority=("a", "b"))
        a = Raf(alts2, (0.6, 0.0))
        b = Raf(alts2, (0.5, 1.0))
        assert strictly_prefers(oracle, a, b)

    def test_lexicographic_breaks_ties_downstream(self, alts2, oracle_factory):
        oracle = oracle_factory("lexicographic", alts2, priority=("a", "b"))
        a = Raf(alts2, (0.5, 0.9))
        b = Raf(alts2, (0.5, 0.1))
        assert strictly_prefers(oracle, a, b)

    def test_anti_monotone_prefers_less_availability(self, alts3, oracle_factory):
        oracle = oracle_factory("anti_monotone", alts3)
        assert oracle.weak_prefers(bottom(alts3), top(alts3))
        assert strictly_prefers(oracle, bottom(alts3), top(alts3))

    def test_threshold_rewards_meeting_the_cutoff(self, alts2, oracle_factory):
        oracle = oracle_factory("threshold", alts2, cutoff=0.5)
        met = Raf(alts2, (0.5, 0.5))
        missed = Raf(alts2, (0.4, 0.4))
        assert strictly_prefers(oracle, met, missed)

    def test_threshold_punishes_a_near_miss(self, alts2, oracle_factory):
        # Below the cutoff the order reverses: almost reaching the
        # aspiration level reads as worse than clearly missing it.
        oracle = oracle_factory("threshold", alts2, cutoff=0.5)
        near_miss = Raf(alts2, (0.49, 0.49))
        clear_miss = Raf(alts2, (0.1, 0.1))
        assert strictly_prefers(oracle, clear_miss, near_miss)

    def test_reflexive_for_every_kind(self, alts3, oracle_factory):
        raf = Raf(alts3, (0.3, 0.7, 0.5))
        for kind in sorted(rp.KINDS):
            oracle = oracle_factory(kind, alts3)
            assert oracle.weak_prefers(raf, raf)

    def test_exactly_one_of_strict_reverse_indifferent(self, alts2, oracle_factory):
        # On a coarse grid, each ordered pair falls in exactly one bucket.
        grid = [
            Raf(alts2, v) for v in itertools.product((0.0, 0.3, 0.5, 0.8, 1.0), repeat=2)
        ]
        for kind in sorted(rp.KINDS):
            oracle = oracle_factory(kind, alts2)
            for a, b in itertools.product(grid, repeat=2):
                buckets = [
                    strictly_prefers(oracle, a, b),
                    strictly_prefers(oracle, b, a),
                    oracle.weak_prefers(a, b) and oracle.weak_prefers(b, a),
                ]
                assert sum(buckets) == 1

    def test_score_kinds_agree_with_their_keys(self, alts3, oracle_factory):
        sampler = rp.RafSampler(alts3, 411)
        for kind in ("additive", "min", "geometric", "anti_monotone"):
            oracle = oracle_factory(kind, alts3)
            for _ in range(50):
                a, b = sampler.raf(), sampler.raf()
                assert oracle.weak_prefers(a, b) == (oracle.key(a) >= oracle.key(b))


SPECS = {
    "additive": PreferenceSpec(kind="additive", weights=(0.5, 0.3, 0.2)),
    "min": PreferenceSpec(kind="min"),
    "geometric": PreferenceSpec(kind="geometric"),
    "lexicographic": PreferenceSpec(kind="lexicographic", priority=("b", "a", "c")),
    "anti_monotone": PreferenceSpec(kind="anti_monotone"),
    "threshold": PreferenceSpec(kind="threshold", cutoff=0.5),
}
UNIT = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0)


class TestQueryMemo:
    """Every built-in answer is ``key(a) >= key(b)``, under repeated, interleaved,
    equal-but-distinct and reentrant queries."""

    @given(
        kind=st.sampled_from(sorted(SPECS)),
        pool=st.lists(st.tuples(UNIT, UNIT, UNIT), min_size=1, max_size=6),
        queries=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.booleans()), max_size=40
        ),
    )
    def test_answers_match_the_key_comparison(self, kind, pool, queries):
        alts = rp.AlternativeSet(("a", "b", "c"))
        oracle = build_oracle(SPECS[kind], alts)
        rafs = [Raf(alts, values) for values in pool]
        for i, j, copy in queries:
            a, b = rafs[i % len(rafs)], rafs[j % len(rafs)]
            if copy:  # equal values, a distinct object: the answer must not change
                b = Raf(alts, b.values)
            assert oracle.weak_prefers(a, b) == (oracle.key(a) >= oracle.key(b))
            assert oracle.weak_prefers(b, a) == (oracle.key(b) >= oracle.key(a))

    def test_a_query_inside_a_key_computation(self, alts2, oracle_factory):
        # Another query may run while this one is computing a key; neither
        # answer may change.  Reading ``values`` runs that query here.
        oracle = oracle_factory("additive", alts2)
        low, mid = Raf(alts2, (0.2, 0.2)), Raf(alts2, (0.5, 0.5))
        interrupts = []

        class Interrupting(rp.Raf):
            def __getattribute__(self, name):
                if name == "values" and interrupts:
                    interrupts.pop()()
                return super().__getattribute__(name)

        high = Interrupting(alts2, (0.8, 0.8))
        interrupts.append(lambda: oracle.weak_prefers(mid, low))
        assert not oracle.weak_prefers(mid, high)
        assert interrupts == []
        assert oracle.weak_prefers(mid, low)
        assert not oracle.weak_prefers(mid, high)


#: Point coordinates: any float in [0, 1], with the cube's corners, two
#: subnormals and the smallest normal float drawn often.
COORDINATE = st.sampled_from([0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308]) | st.floats(
    min_value=0.0, max_value=1.0
)


@st.composite
def additive_weights(draw, k):
    """Weights of a valid additive spec: positive, normalised to sum to 1."""
    raw = draw(st.lists(st.floats(min_value=5e-324, max_value=1.0), min_size=k, max_size=k))
    total = sum(raw)
    weights = tuple(w / total for w in raw)
    assume(all(w > 0.0 for w in weights))  # a subnormal over a large total is 0
    return weights


def reference_key(spec, alts, values):
    """The keys written from their definitions, with Python-level loops and
    correctly rounded sums."""
    if spec.kind == "additive":
        return math.fsum(w * v for w, v in zip(spec.weights, values))
    if spec.kind == "geometric":
        out = 1.0
        for v in values:
            out *= v
        return out
    if spec.kind == "anti_monotone":
        return -math.fsum(values) / len(values)
    if spec.kind == "threshold":
        mean = math.fsum(values) / len(values)
        return (1, mean) if mean >= spec.cutoff else (0, -mean)
    order = tuple(alts.index(label) for label in spec.priority)
    return tuple(values[i] for i in order)


class TestKeyFormulas:
    """The built-in keys equal their reference formulas exactly, not nearly."""

    @settings(max_examples=300)
    @given(data=st.data(), k=st.integers(2, 8))
    def test_keys_are_bit_identical_to_the_references(self, data, k):
        alts = rp.AlternativeSet(tuple(f"x{i}" for i in range(k)))
        values = tuple(data.draw(st.lists(COORDINATE, min_size=k, max_size=k)))
        raf = Raf(alts, values)
        specs = [
            PreferenceSpec(kind="additive", weights=data.draw(additive_weights(k))),
            PreferenceSpec(kind="geometric"),
            PreferenceSpec(kind="lexicographic", priority=data.draw(st.permutations(alts.labels))),
            PreferenceSpec(kind="anti_monotone"),
            PreferenceSpec(kind="threshold", cutoff=data.draw(st.sampled_from([0.25, 0.5, 0.75]))),
        ]
        for spec in specs:
            key = build_oracle(spec, alts).key(raf)
            expected = reference_key(spec, alts, values)
            # Coordinates are finite and nonnegative, so == is bit identity.
            assert key == expected and type(key) is type(expected), spec.kind
