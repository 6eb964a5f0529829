from __future__ import annotations

import pytest

import rafpref as rp
from rafpref import (
    PreferenceOracle,
    Raf,
    RafSampler,
    bottom,
    builtin_families,
    check_order_axioms,
    falsify_weak_continuity,
    falsify_weak_dominance,
    pointwise_dominates,
    strictly_dominates,
    strictly_prefers,
    sup_distance,
    top,
)

SEED = 20250815


def never_oracle(alts):
    return PreferenceOracle("never", alts, lambda a, b: False)


def partial_order_oracle(alts):
    # Pointwise dominance as the weak relation: reflexive and transitive but
    # full of incomparable pairs.
    return PreferenceOracle("pointwise", alts, pointwise_dominates)


def cyclic_oracle(alts):
    # Mean binned into thirds, with each bin beating the one below it and
    # the bottom bin beating the top: reflexive and connected but cyclic.
    def bin_of(raf: Raf) -> int:
        return min(2, int(3.0 * sum(raf.values) / len(raf.values)))

    return PreferenceOracle(
        "cyclic", alts, lambda a, b: (bin_of(a) - bin_of(b)) % 3 in (0, 1)
    )


class TestOrderAxioms:
    @pytest.mark.parametrize(
        "kind", ["additive", "min", "geometric", "lexicographic", "anti_monotone", "threshold"]
    )
    def test_builtins_pass_sampled(self, alts3, oracle_factory, kind):
        oracle = oracle_factory(kind, alts3)
        report = check_order_axioms(oracle, RafSampler(alts3, SEED), 300, 300)
        assert report.all_passed
        assert report.oracle == oracle.name
        assert report.seed == SEED
        for check in report.checks:
            assert check.verdict == rp.PASSED_SAMPLED
            assert check.witness is None

    def test_counts_must_be_positive(self, alts3, oracle_factory):
        oracle = oracle_factory("min", alts3)
        with pytest.raises(rp.ValidationError, match="positive"):
            check_order_axioms(oracle, RafSampler(alts3, SEED), 0, 10)
        with pytest.raises(rp.ValidationError, match="positive"):
            check_order_axioms(oracle, RafSampler(alts3, SEED), 10, 0)

    def test_reflexivity_falsified_with_replayed_witness(self, alts3):
        oracle = never_oracle(alts3)
        report = check_order_axioms(oracle, RafSampler(alts3, SEED), 50, 50)
        check = report.check("reflexivity")
        assert check.verdict == rp.FALSIFIED
        assert check.samples == 1
        witness = Raf.from_dict(check.witness["raf"])
        assert not oracle.weak_prefers(witness, witness)
        assert not report.all_passed

    def test_connectedness_falsified_on_a_partial_order(self, alts3):
        oracle = partial_order_oracle(alts3)
        report = check_order_axioms(oracle, RafSampler(alts3, SEED), 200, 1)
        check = report.check("connectedness")
        assert check.verdict == rp.FALSIFIED
        a = Raf.from_dict(check.witness["first"])
        b = Raf.from_dict(check.witness["second"])
        assert not oracle.weak_prefers(a, b)
        assert not oracle.weak_prefers(b, a)

    def test_transitivity_falsified_on_a_cycle(self, alts3):
        oracle = cyclic_oracle(alts3)
        report = check_order_axioms(oracle, RafSampler(alts3, SEED), 1, 2000)
        check = report.check("transitivity")
        assert check.verdict == rp.FALSIFIED
        x = Raf.from_dict(check.witness["first"])
        y = Raf.from_dict(check.witness["second"])
        z = Raf.from_dict(check.witness["third"])
        assert oracle.weak_prefers(x, y)
        assert oracle.weak_prefers(y, z)
        assert not oracle.weak_prefers(x, z)

    def test_report_serializes(self, alts3, oracle_factory):
        oracle = oracle_factory("additive", alts3)
        report = check_order_axioms(oracle, RafSampler(alts3, SEED), 5, 5)
        doc = report.to_dict()
        assert doc["all_passed"] is True
        assert {c["axiom"] for c in doc["checks"]} == {
            "reflexivity",
            "connectedness",
            "transitivity",
        }


class TestWeakDominance:
    @pytest.mark.parametrize("kind", ["additive", "min", "geometric", "lexicographic"])
    def test_monotone_builtins_not_falsified(self, alts3, oracle_factory, kind):
        oracle = oracle_factory(kind, alts3)
        assert falsify_weak_dominance(oracle, RafSampler(alts3, SEED), 1000) is None

    def test_anti_monotone_fails_on_the_canonical_pair(self, alts3, oracle_factory):
        oracle = oracle_factory("anti_monotone", alts3)
        hit = falsify_weak_dominance(oracle, RafSampler(alts3, SEED), 1)
        assert hit == (1, (top(alts3), bottom(alts3)))

    def test_threshold_fails_below_the_cutoff(self, alts3, oracle_factory):
        oracle = oracle_factory("threshold", alts3, cutoff=0.5)
        hit = falsify_weak_dominance(oracle, RafSampler(alts3, SEED), 500)
        assert hit is not None
        samples, (a, b) = hit
        # The canonical pair is preferred, so the witness is a sampled pair.
        assert 1 < samples <= 501
        assert strictly_dominates(a, b)
        assert not strictly_prefers(oracle, a, b)

    def test_anti_monotone_draws_nothing(self, alts3, oracle_factory):
        # The canonical pair is the witness, so no sampled pair is drawn and
        # the sampler's next draw is a fresh sampler's first.
        sampler = RafSampler(alts3, SEED)
        falsify_weak_dominance(oracle_factory("anti_monotone", alts3), sampler, 1000)
        assert sampler.unit() == RafSampler(alts3, SEED).unit()

    def test_needs_a_positive_pair_count(self, alts3, oracle_factory):
        oracle = oracle_factory("min", alts3)
        with pytest.raises(rp.ValidationError, match="positive"):
            falsify_weak_dominance(oracle, RafSampler(alts3, SEED), 0)


class TestWeakContinuity:
    @pytest.mark.parametrize("kind", ["additive", "min", "geometric", "anti_monotone"])
    def test_continuous_builtins_not_falsified_at_depth_100(self, alts3, oracle_factory, kind):
        oracle = oracle_factory(kind, alts3)
        assert falsify_weak_continuity(oracle, builtin_families(alts3), 100) is None

    def test_lexicographic_witness_is_the_coordinate_bump(self, alts2, oracle_factory):
        oracle = oracle_factory("lexicographic", alts2, priority=("a", "b"))
        witness = falsify_weak_continuity(oracle, builtin_families(alts2), 10)
        assert witness is not None
        limit_first, limit_second = witness.family.limits
        assert limit_first.values == (0.5, 0.0)
        assert limit_second.values == (0.5, 1.0)
        # Replay the full witness through the public predicates.
        for n in range(1, witness.depth + 1):
            first, second = witness.family.term(n)
            assert strictly_prefers(oracle, first, second)
        assert strictly_prefers(oracle, limit_second, limit_first)

    def test_threshold_witness_straddles_the_cutoff(self, alts3, oracle_factory):
        oracle = oracle_factory("threshold", alts3, cutoff=0.5)
        witness = falsify_weak_continuity(oracle, builtin_families(alts3, loci=(0.5,)), 10)
        assert witness is not None
        for n in range(1, witness.depth + 1):
            first, second = witness.family.term(n)
            assert strictly_prefers(oracle, first, second)
        limit_first, limit_second = witness.family.limits
        assert strictly_prefers(oracle, limit_second, limit_first)

    def test_witness_serializes(self, alts2, oracle_factory):
        oracle = oracle_factory("lexicographic", alts2, priority=("a", "b"))
        witness = falsify_weak_continuity(oracle, builtin_families(alts2), 3)
        doc = witness.to_dict()
        assert doc["depth"] == 3
        assert set(doc) == {"family", "depth", "term_1", "limit_first", "limit_second"}

    def test_depth_must_be_positive(self, alts2, oracle_factory):
        oracle = oracle_factory("min", alts2)
        with pytest.raises(rp.ValidationError, match="positive"):
            falsify_weak_continuity(oracle, builtin_families(alts2), 0)

    def test_family_terms_are_valid_rafs(self, alts3):
        for family in builtin_families(alts3, loci=(0.5, 0.3)):
            for n in (1, 7, 100):
                first, second = family.term(n)
                assert first.alts == alts3 and second.alts == alts3

    @pytest.mark.parametrize("labels", [("a", "b"), ("a", "b", "c")])
    def test_terms_approach_the_limits(self, labels):
        # The limits are the term at n = inf; this keeps that honest.
        families = builtin_families(rp.AlternativeSet(labels), loci=(0.5, 0.3))
        assert len(families) == 2 * (3 + 2 * 2 + len(labels))
        for family in families:
            limits = family.limits
            for n in (1, 10, 1000, 10**6):
                for side, term in enumerate(family.term(n)):
                    assert sup_distance(term, limits[side]) <= 1.0 / n

    def test_locus_must_be_interior(self, alts3):
        with pytest.raises(rp.ValidationError, match="strictly inside"):
            builtin_families(alts3, loci=(1.0,))
        with pytest.raises(rp.ValidationError, match="real number"):
            builtin_families(alts3, loci=("x",))


def first_ask_oracle(alts, first, later, calls):
    # Answers each ordered pair with ``first`` the first time it is asked
    # and with ``later`` on every repeat, so a violation seen by a probe
    # does not survive its replay.  Every query is counted in ``calls``.
    seen = set()

    def query(a, b):
        calls.append((a, b))
        if (a.values, b.values) in seen:
            return later(a, b)
        seen.add((a.values, b.values))
        return first(a, b)

    return PreferenceOracle("first-ask", alts, query)


class TestReplayGuard:
    """A witness that does not replay is dropped, at a fixed query cost."""

    @staticmethod
    def run(scenario, oracle):
        alts3, alts2 = rp.AlternativeSet(("a", "b", "c")), rp.AlternativeSet(("a", "b"))
        if scenario in ("reflexivity", "connectedness", "transitivity"):
            report = check_order_axioms(oracle(alts3), RafSampler(alts3, 5), 20, 40)
            return report.check(scenario).verdict == rp.FALSIFIED
        if scenario == "dominance":
            return falsify_weak_dominance(oracle(alts3), RafSampler(alts3, 5), 20) is not None
        return falsify_weak_continuity(oracle(alts2), builtin_families(alts2), 10) is not None

    # The counts pin what probing and replaying cost on this path; a
    # refactor of the checks must not change them.
    @pytest.mark.parametrize(
        "scenario, broken, queries",
        [
            ("reflexivity", never_oracle, 350),
            ("connectedness", never_oracle, 350),
            ("transitivity", cyclic_oracle, 292),
            ("dominance", never_oracle, 63),
            ("continuity", "lexicographic", 50),
        ],
    )
    def test_unreplayed_witness_is_dropped(self, scenario, broken, queries, oracle_factory):
        def truthful(alts):
            return oracle_factory("additive", alts)

        def flawed(alts):
            if broken == "lexicographic":
                return oracle_factory("lexicographic", alts, priority=alts.labels)
            return broken(alts)

        calls = []

        def first_ask(alts):
            return first_ask_oracle(
                alts, flawed(alts).weak_prefers, truthful(alts).weak_prefers, calls
            )

        assert self.run(scenario, flawed)
        assert not self.run(scenario, first_ask)
        assert len(calls) == queries
