from __future__ import annotations

import functools
import json
from fractions import Fraction
from itertools import permutations, product

import numpy as np
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
        checks = check_order_axioms(oracle, RafSampler(alts3, SEED), 300, 300)
        assert all(c["verdict"] != rp.FALSIFIED for c in checks)
        for check in checks:
            assert check["verdict"] == rp.PASSED_SAMPLED
            assert check["witness"] is None

    def test_counts_must_be_positive(self, alts3, oracle_factory):
        oracle = oracle_factory("min", alts3)
        with pytest.raises(rp.ValidationError, match="positive"):
            check_order_axioms(oracle, RafSampler(alts3, SEED), 0, 10)
        with pytest.raises(rp.ValidationError, match="positive"):
            check_order_axioms(oracle, RafSampler(alts3, SEED), 10, 0)

    @pytest.mark.parametrize("key", ["lexicographic", "raises"])
    def test_sampler_over_other_alternatives_is_refused(self, alts3, alts5, oracle_factory, key):
        # The lexicographic key reads coordinate "e", which a point over a,
        # b, c lacks; reflexivity's query comes first and refuses the point
        # before any key is read.
        oracle = oracle_factory("lexicographic", alts5, priority=tuple("edcba"))
        if key == "raises":
            def unread(raf):
                raise AssertionError("the key was read")

            oracle.key = unread
        with pytest.raises(rp.AlternativeSetMismatchError):
            check_order_axioms(oracle, RafSampler(alts3, SEED), 5, 5)

    def test_reflexivity_falsified_with_replayed_witness(self, alts3):
        oracle = never_oracle(alts3)
        checks = check_order_axioms(oracle, RafSampler(alts3, SEED), 50, 50)
        check = checks[0]
        assert check["verdict"] == rp.FALSIFIED
        assert check["samples"] == 1
        witness = Raf.from_dict(check["witness"]["raf"])
        assert not oracle.weak_prefers(witness, witness)
        assert any(c["verdict"] == rp.FALSIFIED for c in checks)

    def test_connectedness_falsified_on_a_partial_order(self, alts3):
        oracle = partial_order_oracle(alts3)
        _, check, _ = check_order_axioms(oracle, RafSampler(alts3, SEED), 200, 1)
        assert check["verdict"] == rp.FALSIFIED
        a = Raf.from_dict(check["witness"]["first"])
        b = Raf.from_dict(check["witness"]["second"])
        assert not oracle.weak_prefers(a, b)
        assert not oracle.weak_prefers(b, a)

    def test_transitivity_falsified_on_a_cycle(self, alts3):
        oracle = cyclic_oracle(alts3)
        _, _, check = check_order_axioms(oracle, RafSampler(alts3, SEED), 1, 2000)
        assert check["verdict"] == rp.FALSIFIED
        x = Raf.from_dict(check["witness"]["first"])
        y = Raf.from_dict(check["witness"]["second"])
        z = Raf.from_dict(check["witness"]["third"])
        assert oracle.weak_prefers(x, y)
        assert oracle.weak_prefers(y, z)
        assert not oracle.weak_prefers(x, z)

    def test_report_serializes(self, alts3, oracle_factory):
        oracle = oracle_factory("additive", alts3)
        checks = check_order_axioms(oracle, RafSampler(alts3, SEED), 5, 5)
        docs = json.loads(json.dumps(checks))
        assert all(c["verdict"] != rp.FALSIFIED for c in checks)
        assert [d["axiom"] for d in docs] == ["reflexivity", "connectedness", "transitivity"]
        assert all(d["verdict"] == rp.PASSED_SAMPLED and d["samples"] == 5 for d in docs)


def reference_broken_order(weak, triple):
    """The transitivity probe as first written: the six answers in a dict,
    then the orderings scanned in ``permutations`` order."""
    rel = {(x, y): weak(triple[x], triple[y]) for x in range(3) for y in range(3) if x != y}
    return next(
        (
            (triple[x], triple[y], triple[z])
            for x, y, z in permutations(range(3))
            if rel[(x, y)] and rel[(y, z)] and not rel[(x, z)]
        ),
        None,
    )


class FixedSampler:
    """Serves three fixed points as every triple and the first one otherwise."""

    seed = 0

    def __init__(self, points):
        self.points = points

    def rafs(self, n):
        return list(self.points) if n == 3 else [self.points[0]] * n

    def _groups(self, size, n):
        return [tuple(self.rafs(size))] * n


def table_oracle(alts, points, answers, log, key=None):
    # Answers each ordered pair of distinct points from ``answers``, every
    # point is preferred to itself, and each query is logged by position.
    # ``key``, if given, is each point's key by position.
    position = {p.values: i for i, p in enumerate(points)}

    def query(a, b):
        i, j = position[a.values], position[b.values]
        log.append((i, j))
        return i == j or answers[(i, j)]

    ranking = None if key is None else (lambda p: key[position[p.values]])
    return PreferenceOracle("table", alts, query, key=ranking)


PAIRS = [(x, y) for x in range(3) for y in range(3) if x != y]
PATTERNS = list(product((False, True), repeat=6))
# No key, the six strict key rankings of a triple, a tie and NaN.
KEYS = [None, *permutations((0.1, 0.5, 0.9)), (0.5, 0.5, 0.5), (float("nan"),) * 3]


def intransitive(rel):
    """Whether the answers ``rel``, one per pair of PAIRS, break transitivity."""
    at = dict(zip(PAIRS, rel))
    return any(at[x, y] and at[y, z] and not at[x, z] for x, y, z in permutations(range(3)))


def fits(state, rel):
    return all(s is None or s == r for s, r in zip(state, rel))


@functools.cache
def settled(state):
    """Whether the partial answers ``state`` (None where unasked) decide transitivity."""
    return len({intransitive(p) for p in PATTERNS if fits(state, p)}) == 1


def settled_after(probe, answers):
    """How many of the probe's first queries settle the triple, or None."""
    state = [None] * 6
    for k, pair in enumerate(probe):
        if settled(tuple(state)):
            return k
        state[PAIRS.index(pair)] = answers[pair]
    return len(probe) if settled(tuple(state)) else None


def test_transitivity_probe_matches_the_reference_on_every_answer_pattern(alts2):
    # Whatever the key, right, wrong, tied or NaN, the probe finds the
    # reference's verdict and witness and follows the same rules.
    points = [Raf(alts2, (v, v)) for v in (0.1, 0.5, 0.9)]
    roles = ("first", "second", "third")
    for key, pattern in product(KEYS, PATTERNS):
        case = (key, pattern)
        answers = dict(zip(PAIRS, pattern))
        log = []
        oracle = table_oracle(alts2, points, answers, log, key)
        _, _, check = check_order_axioms(oracle, FixedSampler(points), 1, 1)
        reference = table_oracle(alts2, points, answers, [])
        witness = reference_broken_order(reference.weak_prefers, points)
        # Reflexivity and connectedness ask (0, 0) once each; then the probe
        # and, after a witness, its replay.
        assert log[:2] == [(0, 0), (0, 0)], case
        if witness is None:
            probe = log[2:]
            assert check["verdict"] == rp.PASSED_SAMPLED, case
        else:
            probe, replay = log[2:-3], log[-3:]
            x, y, z = (points.index(p) for p in witness)
            assert check["verdict"] == rp.FALSIFIED and check["samples"] == 1, case
            assert check["witness"] == {r: p.to_dict() for r, p in zip(roles, witness)}, case
            assert replay == [(x, y), (y, z), (x, z)], case
        assert len(set(probe)) == len(probe) <= 6, case
        # The probe stops as soon as its answers settle the triple; an
        # intransitive one then has its other pairs asked in PAIRS order.
        k = settled_after(probe, answers)
        assert k is not None, case
        rest = [] if witness is None else [p for p in PAIRS if p not in probe[:k]]
        assert probe[k:] == rest, case


def probe_cost(points, answers, key=None):
    """Queries the transitivity probe asks on one triple."""
    log = []
    oracle = table_oracle(points[0].alts, points, answers, log, key)
    check_order_axioms(oracle, FixedSampler(points), 1, 1)
    return len(log) - 2  # after reflexivity's and connectedness' one query each


def ranking_answers(rank):
    # The answers of a weak order: a point is weakly preferred to another
    # when its rank is at least as high.
    return {(i, j): rank[i] >= rank[j] for i, j in PAIRS}


def least_mean_cost():
    """The least mean cost over the six strict rankings of any probe that
    settles every answer pattern: an exhaustive search over the 3**6
    partial-answer states."""
    strict = [tuple(r[x] > r[y] for x, y in PAIRS) for r in permutations(range(3))]

    @functools.cache
    def least(state):
        if settled(state):
            return 0
        here = sum(fits(state, r) for r in strict)
        return min(
            here + sum(least(state[:q] + (a,) + state[q + 1:]) for a in (False, True))
            for q in range(6)
            if state[q] is None
        )

    return Fraction(least((None,) * 6), len(strict))


def test_transitivity_probe_cost_is_the_least_possible(alts2):
    points = [Raf(alts2, (v, v)) for v in (0.1, 0.5, 0.9)]
    costs = [probe_cost(points, ranking_answers(r)) for r in permutations(range(3))]
    assert Fraction(sum(costs), len(costs)) == least_mean_cost() == Fraction(25, 6)
    weak_orders = {tuple(sorted(ranking_answers(r).items())) for r in product(range(3), repeat=3)}
    assert len(weak_orders) == 13
    assert {probe_cost(points, dict(w)) for w in weak_orders} <= {4, 5, 6}


def least_certificate(answers):
    """The fewest of ``answers``, one per pair of PAIRS, that settle the
    triple: an exhaustive search over the 64 subsets of pairs."""
    return min(
        sum(asked)
        for asked in PATTERNS
        if settled(tuple(a if ask else None for a, ask in zip(answers, asked)))
    )


def test_a_correctly_hinted_triple_asks_the_least_certificate(alts2):
    # No 3 answers settle a strict triple, and a key that ranks the points
    # as the oracle does makes the probe ask exactly 4 on every ranking.
    points = [Raf(alts2, (v, v)) for v in (0.1, 0.5, 0.9)]
    for rank in permutations(range(3)):
        answers = ranking_answers(rank)
        assert least_certificate(tuple(answers[p] for p in PAIRS)) == 4, rank
        key = tuple(0.2 + 0.3 * r for r in rank)
        assert probe_cost(points, answers, key) == 4, rank


def logging_oracle(truth, log, key=None, diagonal=None):
    """``truth``'s answers with the given key and hint; each query is logged
    by its points' values."""

    def query(a, b):
        log.append((a.values, b.values))
        return truth.weak_prefers(a, b)

    return PreferenceOracle("logged", truth.alts, query, key=key, diagonal=diagonal)


# Ranks points in the reverse of the order of their values.
reversed_order = functools.cmp_to_key(lambda x, y: (x < y) - (x > y))


@pytest.mark.parametrize("kind", sorted(rp.KINDS))
def test_connectedness_asks_once_per_pair_when_the_hint_is_right(alts3, oracle_factory, kind):
    n = 200
    truth = oracle_factory(kind, alts3)
    sampler = RafSampler(alts3, SEED)
    sampler.rafs(n)  # reflexivity's points
    drawn = {tuple(p.values for p in sampler.rafs(2)) for _ in range(n)}
    costs = {}
    for name, key in (
        ("right", truth.key),
        ("none", None),
        ("wrong", lambda raf: reversed_order(truth.key(raf))),
    ):
        log = []
        oracle = logging_oracle(truth, log, key)
        checks = check_order_axioms(oracle, RafSampler(alts3, SEED), n, 1)
        assert all(c["verdict"] != rp.FALSIFIED for c in checks), name
        asked = [q for q in log if q in drawn or q[::-1] in drawn]
        costs[name] = len(asked)
        if name == "right":
            # The point keyed higher is asked first, and its "yes" settles the pair.
            assert all(truth.weak_prefers(Raf(alts3, a), Raf(alts3, b)) for a, b in asked)
    # A reversed key asks both questions of every pair, as many as any order can.
    assert costs["right"] == n < costs["none"] < costs["wrong"] == 2 * n


@pytest.mark.parametrize("bad", [None, float("nan"), float("inf"), -0.5, 2.0])
def test_an_unusable_hint_asks_what_no_hint_asks(alts3, oracle_factory, bad):
    # The order checks read no hint, so the right hint and an unusable one
    # ask exactly what no hint asks.  A key ranks two points only when one
    # value is strictly greater, so a key that ties at 1/2, or is NaN on
    # half the points and 1/2 on the others, asks what no key asks.
    truth = oracle_factory("min", alts3)
    logs = []
    for key, diagonal in (
        (None, None),
        (None, truth.diagonal),
        (None, lambda raf: bad),
        (lambda raf: 0.5, None),
        (lambda raf: float("nan") if raf.values[0] < 0.5 else 0.5, None),
    ):
        log = []
        oracle = logging_oracle(truth, log, key, diagonal)
        checks = check_order_axioms(oracle, RafSampler(alts3, SEED), 100, 100)
        logs.append((log, checks))
    assert all(run == logs[0] for run in logs)


def stream_points(alts, seed, count):
    """The stream's first ``count`` points, one generator call each, and the
    generator after them, as an unbuffered sampler reads them."""
    rng = np.random.default_rng(seed)
    return [tuple(float(v) for v in rng.random(len(alts))) for _ in range(count)], rng


def failing_oracle(alts, axiom, bad):
    # Min, but ``axiom`` fails on the points whose values are ``bad``:
    # the one point is not preferred to itself, the pair is incomparable, or
    # the triple is a cycle.
    key = rp.build_oracle(rp.PreferenceSpec(kind="min"), alts).key

    def query(a, b):
        if a.values in bad and b.values in bad:
            if axiom == "reflexivity":
                return False
            if axiom == "connectedness":
                return a.values == b.values
            return (bad.index(b.values) - bad.index(a.values)) % 3 in (0, 1)
        return key(a) >= key(b)

    return PreferenceOracle(f"fails {axiom}", alts, query)


class TestOrderSamplingIsLazy:
    """Sampling stops at the first replayed witness, so later stages read
    from the stream where an unbuffered sampler would stand."""

    N = 300  # pairs and triples; at k = 5 the points span several refills

    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize(
        "axiom, at",
        list(product(("reflexivity", "connectedness", "transitivity"), (1, 137, 300))),
    )
    def test_the_stream_stops_at_the_witness(self, k, axiom, at):
        n = self.N
        alts = rp.AlternativeSet(tuple(f"x{i}" for i in range(k)))
        size = {"reflexivity": 1, "connectedness": 2, "transitivity": 3}[axiom]
        before = {"reflexivity": 0, "connectedness": n, "transitivity": 3 * n}[axiom]
        start = before + size * (at - 1)
        # Points read in all: the stages before, the failing one up to its
        # witness, and every candidate of the stages after.
        read = {
            "reflexivity": at + 5 * n,
            "connectedness": 4 * n + 2 * at,
            "transitivity": 3 * n + 3 * at,
        }
        points, rng = stream_points(alts, SEED, read[axiom])
        bad = points[start : start + size]

        sampler = RafSampler(alts, SEED)
        checks = check_order_axioms(failing_oracle(alts, axiom, bad), sampler, n, n)
        found = [(c["axiom"], c["samples"]) for c in checks if c["verdict"] == rp.FALSIFIED]
        assert found == [(axiom, at)]

        logged = []
        key = rp.build_oracle(rp.PreferenceSpec(kind="min"), alts).key

        def logging(a, b):
            logged.append((a.values, b.values))
            return key(a) >= key(b)

        check = falsify_weak_dominance(PreferenceOracle("log", alts, logging), sampler, 5)
        assert check["verdict"] != rp.FALSIFIED
        expected = []
        for _ in range(5):
            upper, lower = [], []
            for _ in range(k):
                v = float(rng.random())
                while v == 0.0:
                    v = float(rng.random())
                upper.append(v)
                lower.append(v * float(rng.uniform(0.0, 1.0 - RafSampler.STRICT_GAP)))
            expected.append((tuple(upper), tuple(lower)))
        # Two queries per candidate; the first candidate is (top, bottom).
        assert logged[2::2] == expected


def pair_of(check):
    """The two points of a check's ``{"first", "second"}`` witness record."""
    return Raf.from_dict(check["witness"]["first"]), Raf.from_dict(check["witness"]["second"])


def family_of(check, families):
    """The family a continuity check's witness record names."""
    (family,) = [f for f in families if f.description == check["witness"]["family"]]
    return family


class TestWeakDominance:
    @pytest.mark.parametrize("kind", ["additive", "min", "geometric", "lexicographic"])
    def test_monotone_builtins_not_falsified(self, alts3, oracle_factory, kind):
        oracle = oracle_factory(kind, alts3)
        check = falsify_weak_dominance(oracle, RafSampler(alts3, SEED), 1000)
        assert check["verdict"] != rp.FALSIFIED

    def test_anti_monotone_fails_on_the_canonical_pair(self, alts3, oracle_factory):
        oracle = oracle_factory("anti_monotone", alts3)
        check = falsify_weak_dominance(oracle, RafSampler(alts3, SEED), 1)
        assert (check["verdict"], check["samples"]) == (rp.FALSIFIED, 1)
        assert pair_of(check) == (top(alts3), bottom(alts3))

    def test_threshold_fails_below_the_cutoff(self, alts3, oracle_factory):
        oracle = oracle_factory("threshold", alts3, cutoff=0.5)
        check = falsify_weak_dominance(oracle, RafSampler(alts3, SEED), 500)
        assert check["verdict"] == rp.FALSIFIED
        a, b = pair_of(check)
        # The canonical pair is preferred, so the witness is a sampled pair.
        assert 1 < check["samples"] <= 501
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
        check = falsify_weak_continuity(oracle, builtin_families(alts3), 100)
        assert check["verdict"] != rp.FALSIFIED

    def test_lexicographic_witness_is_the_coordinate_bump(self, alts2, oracle_factory):
        oracle = oracle_factory("lexicographic", alts2, priority=("a", "b"))
        families = builtin_families(alts2)
        check = falsify_weak_continuity(oracle, families, 10)
        assert check["verdict"] == rp.FALSIFIED
        limit_first = Raf.from_dict(check["witness"]["limit_first"])
        limit_second = Raf.from_dict(check["witness"]["limit_second"])
        assert limit_first.values == (0.5, 0.0)
        assert limit_second.values == (0.5, 1.0)
        # Replay the full witness through the public predicates.
        family = family_of(check, families)
        assert family.limits == (limit_first, limit_second)
        for n in range(1, check["witness"]["depth"] + 1):
            first, second = family.term(n)
            assert strictly_prefers(oracle, first, second)
        assert strictly_prefers(oracle, limit_second, limit_first)

    def test_threshold_witness_straddles_the_cutoff(self, alts3, oracle_factory):
        oracle = oracle_factory("threshold", alts3, cutoff=0.5)
        families = builtin_families(alts3, loci=(0.5,))
        check = falsify_weak_continuity(oracle, families, 10)
        assert check["verdict"] == rp.FALSIFIED
        family = family_of(check, families)
        for n in range(1, check["witness"]["depth"] + 1):
            first, second = family.term(n)
            assert strictly_prefers(oracle, first, second)
        limit_first = Raf.from_dict(check["witness"]["limit_first"])
        limit_second = Raf.from_dict(check["witness"]["limit_second"])
        assert family.limits == (limit_first, limit_second)
        assert strictly_prefers(oracle, limit_second, limit_first)

    def test_witness_serializes(self, alts2, oracle_factory):
        oracle = oracle_factory("lexicographic", alts2, priority=("a", "b"))
        check = falsify_weak_continuity(oracle, builtin_families(alts2), 3)
        doc = check["witness"]
        assert json.loads(json.dumps(check))["witness"] == doc
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

    @pytest.mark.parametrize("loci", [0.5, "0.5", {0.5, 0.3}], ids=["float", "str", "set"])
    def test_loci_must_be_a_list(self, alts3, loci):
        with pytest.raises(rp.ValidationError, match="^loci must be a list, got "):
            builtin_families(alts3, loci=loci)

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
            checks = check_order_axioms(oracle(alts3), RafSampler(alts3, 5), 20, 40)
            return {c["axiom"]: c for c in checks}[scenario]["verdict"] == rp.FALSIFIED
        if scenario == "dominance":
            check = falsify_weak_dominance(oracle(alts3), RafSampler(alts3, 5), 20)
        else:
            check = falsify_weak_continuity(oracle(alts2), builtin_families(alts2), 10)
        return check["verdict"] == rp.FALSIFIED

    # The counts pin what probing and replaying cost on this path; a
    # refactor of the checks must not change them.
    @pytest.mark.parametrize(
        "scenario, broken, queries",
        [
            ("reflexivity", never_oracle, 310),
            ("connectedness", never_oracle, 310),
            ("transitivity", cyclic_oracle, 281),
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


#: The keys of every check record, sorted.
CHECK_FIELDS = ["axiom", "note", "samples", "verdict", "witness"]


class TestSharedContract:
    """All five checks return a JSON-ready record with the same reading of its fields."""

    N = 40
    DEPTH = 10
    SIZES = {"reflexivity": 1, "connectedness": 2, "transitivity": 3}

    @classmethod
    def run(cls, axiom, oracle):
        alts = oracle.alts
        sampler = RafSampler(alts, SEED)
        if axiom == "weak_dominance":
            return falsify_weak_dominance(oracle, sampler, cls.N)
        if axiom == "weak_continuity":
            return falsify_weak_continuity(oracle, builtin_families(alts), cls.DEPTH)
        checks = check_order_axioms(oracle, sampler, cls.N, cls.N)
        return {c["axiom"]: c for c in checks}[axiom]

    @classmethod
    def candidates(cls, axiom, alts):
        """The check's candidates, drawn as it draws them; the order checks
        before ``axiom`` are taken to pass, as they do on these oracles."""
        sampler = RafSampler(alts, SEED)
        if axiom == "weak_dominance":
            sampled = [sampler.strictly_dominating_pair() for _ in range(cls.N)]
            return [(top(alts), bottom(alts)), *sampled]
        if axiom == "weak_continuity":
            return [(family,) for family in builtin_families(alts)]
        for earlier, size in cls.SIZES.items():
            if earlier == axiom:
                return [tuple(sampler.rafs(size)) for _ in range(cls.N)]
            sampler.rafs(size * cls.N)

    def violated(self, axiom, oracle, candidate):
        weak = oracle.weak_prefers
        if axiom == "reflexivity":
            return not weak(*candidate, *candidate)
        if axiom == "connectedness":
            return not weak(*candidate) and not weak(*candidate[::-1])
        if axiom == "transitivity":
            return any(
                weak(x, y) and weak(y, z) and not weak(x, z)
                for x, y, z in permutations(candidate)
            )
        if axiom == "weak_dominance":
            return not strictly_prefers(oracle, *candidate)
        (family,) = candidate
        limit_first, limit_second = family.limits
        return strictly_prefers(oracle, limit_second, limit_first) and all(
            strictly_prefers(oracle, *family.term(n)) for n in range(1, self.DEPTH + 1)
        )

    @pytest.mark.parametrize("broken", [False, True], ids=["clean", "broken"])
    @pytest.mark.parametrize(
        "axiom, oracle",
        [
            ("reflexivity", never_oracle),
            ("connectedness", partial_order_oracle),
            ("transitivity", cyclic_oracle),
            ("weak_dominance", "threshold"),
            ("weak_continuity", "lexicographic"),
        ],
    )
    def test_samples_witness_and_note(self, alts3, oracle_factory, axiom, oracle, broken):
        if not broken:
            oracle = oracle_factory("additive", alts3)
        elif isinstance(oracle, str):
            oracle = oracle_factory(oracle, alts3)
        else:
            oracle = oracle(alts3)
        check = self.run(axiom, oracle)
        assert type(check) is dict and sorted(check) == CHECK_FIELDS
        assert json.loads(json.dumps(check, sort_keys=True)) == check
        assert check["axiom"] == axiom

        candidates = self.candidates(axiom, alts3)
        hits = [i for i, c in enumerate(candidates, 1) if self.violated(axiom, oracle, c)]
        assert bool(hits) == broken
        assert (check["verdict"] != rp.FALSIFIED) == (not hits)
        passing = {"weak_dominance": self.N + 1, "weak_continuity": len(builtin_families(alts3))}
        assert len(candidates) == passing.get(axiom, self.N)
        assert check["samples"] == (hits[0] if hits else len(candidates))

        assert (check["witness"] is None) == (check["verdict"] != rp.FALSIFIED)
        clean_verdict = rp.NOT_FALSIFIED if axiom == "weak_continuity" else rp.PASSED_SAMPLED
        assert check["verdict"] == (rp.FALSIFIED if hits else clean_verdict)
        has_note = axiom == "weak_continuity" and check["witness"] is None
        assert (check["note"] is not None) == has_note
        if has_note:
            assert "not a verification" in check["note"]

        if hits:
            # The witness is the first violating candidate (an ordering of
            # it, for a triple).
            found = candidates[hits[0] - 1]
            if axiom == "weak_continuity":
                assert check["witness"]["family"] == found[0].description
            else:
                points = [Raf.from_dict(point) for point in check["witness"].values()]
                assert sorted(p.values for p in points) == sorted(p.values for p in found)
