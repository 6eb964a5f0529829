from __future__ import annotations

import itertools

import numpy as np
import pytest

import rafpref as rp
from rafpref import (
    PreferenceSpec,
    bottom,
    build_oracle,
    indifferent,
    make_raf,
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

    def test_weights_must_sum_to_one(self):
        with pytest.raises(rp.ValidationError, match="sum to 1"):
            PreferenceSpec(kind="additive", weights=(0.5, 0.6))

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

    def test_names_are_stable(self, alts2):
        oracle = build_oracle(PreferenceSpec(kind="additive", weights=(0.5, 0.5)), alts2)
        assert oracle.name == "additive[0.5,0.5]"
        assert oracle.kind == "additive"


class TestBuiltinOrders:
    def test_additive_prefers_higher_weighted_mean(self, alts2, oracle_factory):
        oracle = oracle_factory("additive", alts2)
        a = make_raf(alts2, (0.9, 0.1))
        b = make_raf(alts2, (0.4, 0.4))
        assert oracle.weak_prefers(a, b)
        assert strictly_prefers(oracle, a, b)

    def test_min_prefers_better_worst_case(self, alts2, oracle_factory):
        oracle = oracle_factory("min", alts2)
        a = make_raf(alts2, (0.9, 0.1))
        b = make_raf(alts2, (0.4, 0.4))
        assert not oracle.weak_prefers(a, b)
        assert strictly_prefers(oracle, b, a)

    def test_min_indifference_on_equal_minima(self, alts2, oracle_factory):
        oracle = oracle_factory("min", alts2)
        assert indifferent(oracle, make_raf(alts2, (0.3, 0.9)), make_raf(alts2, (0.3, 0.4)))

    def test_additive_indifference_on_mirrored_pair(self, alts2, oracle_factory):
        oracle = oracle_factory("additive", alts2)
        assert indifferent(oracle, make_raf(alts2, (0.9, 0.1)), make_raf(alts2, (0.1, 0.9)))

    def test_geometric_prefers_larger_product(self, alts2, oracle_factory):
        oracle = oracle_factory("geometric", alts2)
        a = make_raf(alts2, (0.9, 0.4))  # product 0.36
        b = make_raf(alts2, (0.6, 0.5))  # product 0.30
        assert strictly_prefers(oracle, a, b)

    def test_lexicographic_ignores_lower_priority_on_a_gap(self, alts2, oracle_factory):
        oracle = oracle_factory("lexicographic", alts2, priority=("a", "b"))
        a = make_raf(alts2, (0.6, 0.0))
        b = make_raf(alts2, (0.5, 1.0))
        assert strictly_prefers(oracle, a, b)

    def test_lexicographic_breaks_ties_downstream(self, alts2, oracle_factory):
        oracle = oracle_factory("lexicographic", alts2, priority=("a", "b"))
        a = make_raf(alts2, (0.5, 0.9))
        b = make_raf(alts2, (0.5, 0.1))
        assert strictly_prefers(oracle, a, b)

    def test_anti_monotone_prefers_less_availability(self, alts3, oracle_factory):
        oracle = oracle_factory("anti_monotone", alts3)
        assert oracle.weak_prefers(bottom(alts3), top(alts3))
        assert strictly_prefers(oracle, bottom(alts3), top(alts3))

    def test_threshold_rewards_meeting_the_cutoff(self, alts2, oracle_factory):
        oracle = oracle_factory("threshold", alts2, cutoff=0.5)
        met = make_raf(alts2, (0.5, 0.5))
        missed = make_raf(alts2, (0.4, 0.4))
        assert strictly_prefers(oracle, met, missed)

    def test_threshold_punishes_a_near_miss(self, alts2, oracle_factory):
        # Below the cutoff the order reverses: almost reaching the
        # aspiration level reads as worse than clearly missing it.
        oracle = oracle_factory("threshold", alts2, cutoff=0.5)
        near_miss = make_raf(alts2, (0.49, 0.49))
        clear_miss = make_raf(alts2, (0.1, 0.1))
        assert strictly_prefers(oracle, clear_miss, near_miss)

    def test_reflexive_for_every_kind(self, alts3, oracle_factory):
        raf = make_raf(alts3, (0.3, 0.7, 0.5))
        for kind in sorted(rp.KINDS):
            oracle = oracle_factory(kind, alts3)
            assert oracle.weak_prefers(raf, raf)

    def test_exactly_one_of_strict_reverse_indifferent(self, alts2, oracle_factory):
        # On a coarse grid, each ordered pair falls in exactly one bucket.
        grid = [
            make_raf(alts2, v) for v in itertools.product((0.0, 0.3, 0.5, 0.8, 1.0), repeat=2)
        ]
        for kind in sorted(rp.KINDS):
            oracle = oracle_factory(kind, alts2)
            for a, b in itertools.product(grid, repeat=2):
                buckets = [
                    strictly_prefers(oracle, a, b),
                    strictly_prefers(oracle, b, a),
                    indifferent(oracle, a, b),
                ]
                assert sum(buckets) == 1

    def test_score_kinds_agree_with_their_keys(self, alts3, oracle_factory):
        sampler = rp.RafSampler(alts3, 411)
        for kind in ("additive", "min", "geometric", "anti_monotone"):
            oracle = oracle_factory(kind, alts3)
            for _ in range(50):
                a, b = sampler.raf(), sampler.raf()
                assert oracle.weak_prefers(a, b) == (oracle.key(a) >= oracle.key(b))
