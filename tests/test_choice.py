from __future__ import annotations

import json
from fractions import Fraction
from itertools import permutations, product

import pytest

import rafpref as rp
from rafpref import (
    Menu,
    PreferenceOracle,
    Raf,
    RafSampler,
    bottom,
    choose_by_utility,
    cross_validate_choice,
    maximal_set,
    scale_top,
    strictly_prefers,
    top,
)

SEED = 20250815
TOL = 1e-6


def menu_of(alts, entries):
    labels, rafs = zip(*[(label, Raf(alts, values)) for label, values in entries])
    return Menu(alts, tuple(labels), tuple(rafs))


class TestMenu:
    def test_needs_items(self, alts2):
        with pytest.raises(rp.ValidationError, match="at least one"):
            Menu(alts2, (), ())

    def test_rejects_duplicate_labels(self, alts2):
        with pytest.raises(rp.ValidationError, match="duplicate"):
            menu_of(alts2, [("x", (0.5, 0.5)), ("x", (0.2, 0.2))])

    def test_rejects_foreign_items(self, alts2, alts3):
        with pytest.raises(rp.ValidationError, match="alternative set"):
            Menu(alts2, ("x",), (top(alts3),))

    def test_round_trip(self, alts2):
        menu = menu_of(alts2, [("x", (0.5, 0.5)), ("y", (0.2, 0.9))])
        again = Menu.from_dict(json.loads(json.dumps(menu.to_dict())))
        assert again == menu

    # A string would be split into letters and a set would lose its order.
    @pytest.mark.parametrize(
        "labels, items, name",
        [
            ("xy", lambda a, b: (a, b), "labels"),
            ({"x", "y"}, lambda a, b: (a, b), "labels"),
            (("x", "y"), lambda a, b: {a, b}, "items"),
            (("x", "y"), lambda a, b: a, "items"),
        ],
        ids=["str-labels", "set-labels", "set-items", "one-raf-items"],
    )
    def test_shapes_that_are_not_lists_are_refused(self, alts2, labels, items, name):
        with pytest.raises(rp.ValidationError, match=f"^{name} must be a list, got "):
            Menu(alts2, labels, items(top(alts2), bottom(alts2)))

    @pytest.mark.parametrize("values", ["01", {"a": 0.1, "b": 0.2}, 0.5], ids=["str", "dict", "number"])
    def test_from_dict_refuses_values_that_are_not_lists(self, values):
        with pytest.raises(rp.ValidationError, match="^values must be a list, got "):
            Menu.from_dict({"alts": ["a", "b"], "items": [{"label": "x", "values": values}]})

    def test_from_dict_validates_shape(self):
        with pytest.raises(rp.ValidationError):
            Menu.from_dict({"alts": ["a", "b"], "items": [{"label": "x"}]})
        with pytest.raises(rp.ValidationError, match="must be a list"):  # not split into a, b
            Menu.from_dict({"alts": "ab", "items": [{"label": "x", "values": [0.5, 0.5]}]})


class TestMaximalSet:
    def test_top_beats_bottom(self, alts3, oracle_factory):
        oracle = oracle_factory("additive", alts3)
        menu = Menu(alts3, ("all", "none"), (top(alts3), bottom(alts3)))
        assert maximal_set(oracle, menu) == ("all",)

    def test_singleton_menu(self, alts3, oracle_factory):
        oracle = oracle_factory("min", alts3)
        menu = menu_of(alts3, [("only", (0.4, 0.2, 0.9))])
        assert maximal_set(oracle, menu) == ("only",)

    def test_best_mean_wins(self, alts2, oracle_factory):
        oracle = oracle_factory("additive", alts2)
        menu = menu_of(
            alts2, [("left", (0.9, 0.1)), ("mid", (0.5, 0.5)), ("right", (0.2, 0.9))]
        )
        assert maximal_set(oracle, menu) == ("right",)

    def test_ties_keep_every_winner(self, alts2, oracle_factory):
        oracle = oracle_factory("additive", alts2)
        menu = menu_of(alts2, [("left", (0.9, 0.1)), ("right", (0.1, 0.9))])
        assert maximal_set(oracle, menu) == ("left", "right")

    @pytest.mark.parametrize("kind", ["additive", "min", "geometric", "lexicographic"])
    def test_matches_exact_key_argmax(self, alts3, oracle_factory, kind):
        oracle = oracle_factory(kind, alts3)
        sampler = RafSampler(alts3, SEED)
        for size in (1, 2, 5, 9):
            items = tuple(sampler.raf() for _ in range(size))
            labels = tuple(f"m{i}" for i in range(size))
            menu = Menu(alts3, labels, items)
            best = max(oracle.key(item) for item in items)
            expected = tuple(
                label for label, item in menu.pairs() if oracle.key(item) >= best
            )
            assert maximal_set(oracle, menu) == expected

    def test_incomparable_menu_raises_with_witness(self, alts2):
        oracle = PreferenceOracle("never", alts2, lambda a, b: False)
        menu = menu_of(alts2, [("x", (0.5, 0.5)), ("y", (0.2, 0.2))])
        with pytest.raises(rp.MenuAxiomError) as excinfo:
            maximal_set(oracle, menu)
        assert excinfo.value.kind == "connectedness"
        assert "x" in excinfo.value.witness

    def test_cycle_raises_with_the_cycle(self, alts3):
        def bin_of(raf):
            return min(2, int(3.0 * sum(raf.values) / len(raf.values)))

        oracle = PreferenceOracle(
            "cyclic", alts3, lambda a, b: (bin_of(a) - bin_of(b)) % 3 in (0, 1)
        )
        menu = menu_of(
            alts3,
            [("low", (0.1, 0.1, 0.1)), ("mid", (0.5, 0.5, 0.5)), ("high", (0.9, 0.9, 0.9))],
        )
        with pytest.raises(rp.MenuAxiomError) as excinfo:
            maximal_set(oracle, menu)
        err = excinfo.value
        assert err.kind == "transitivity"
        assert len(err.witness) >= 3
        assert err.witness[0] == err.witness[-1]
        # The witness chain really is a strict-preference cycle.
        by_label = dict(menu.pairs())
        for later, earlier in zip(err.witness[1:], err.witness[:-1]):
            assert strictly_prefers(oracle, by_label[later], by_label[earlier])


def table_menu(alts, n):
    labels = tuple(f"m{i}" for i in range(n))
    return Menu(alts, labels, tuple(scale_top(i / 8, alts) for i in range(n)))


def table_oracle(menu, rel, log):
    # Answers ``rel[i][j]`` for items i and j, logging each query by position.
    position = {item.values: i for i, item in enumerate(menu.items)}

    def query(a, b):
        i, j = position[a.values], position[b.values]
        log.append((i, j))
        return rel[i][j]

    return PreferenceOracle("table", menu.alts, query)


class TestMaximalSetOnEveryRelation:
    """Table oracles over every relation on 1, 2 and 3 items."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_definition_and_one_query_per_pair(self, alts2, n):
        menu = table_menu(alts2, n)
        for bits in product((False, True), repeat=n * n):
            rel = [bits[i * n : (i + 1) * n] for i in range(n)]
            log = []
            oracle = table_oracle(menu, rel, log)
            expected = tuple(menu.labels[i] for i in range(n) if all(rel[i]))
            if expected:
                assert maximal_set(oracle, menu) == expected, rel
            else:
                with pytest.raises(rp.MenuAxiomError) as excinfo:
                    maximal_set(oracle, menu)
                at = {label: i for i, label in enumerate(menu.labels)}
                witness = [at[label] for label in excinfo.value.witness]
                if excinfo.value.kind == "connectedness":
                    i, j = witness
                    assert not rel[i][j] and not rel[j][i], rel
                else:
                    assert witness[0] == witness[-1], rel
                    for i, j in zip(witness[1:], witness[:-1]):
                        assert rel[i][j] and not rel[j][i], rel
            assert len(set(log)) == len(log), rel

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_a_strict_ranking_costs_at_most_3n_minus_3(self, alts2, n):
        # Over all n! rankings: at least 2n - 1 queries, at most 3n - 3, and
        # 2n + H_n + 1/n - 3 on average (H_n the n-th harmonic number).
        menu = table_menu(alts2, n)
        costs = []
        for rank in permutations(range(n)):
            rel = [[rank[i] >= rank[j] for j in range(n)] for i in range(n)]
            log = []
            best = menu.labels[rank.index(n - 1)]
            assert maximal_set(table_oracle(menu, rel, log), menu) == (best,)
            costs.append(len(log))
        harmonic = sum(Fraction(1, k) for k in range(1, n + 1))
        assert Fraction(sum(costs), len(costs)) == 2 * n + harmonic + Fraction(1, n) - 3
        assert min(costs) == 2 * n - 1
        assert max(costs) == 3 * n - 3


class TestChooseByUtility:
    def test_diagonal_menu(self, alts3, oracle_factory):
        oracle = oracle_factory("additive", alts3)
        menu = Menu(alts3, ("low", "high"), (scale_top(0.2, alts3), scale_top(0.8, alts3)))
        band, utilities = choose_by_utility(oracle, menu, TOL)
        assert band == ("high",)
        assert utilities["low"] == pytest.approx(0.2, abs=TOL)
        assert utilities["high"] == pytest.approx(0.8, abs=TOL)

    def test_tied_means_stay_in_the_band(self, alts2, oracle_factory):
        oracle = oracle_factory("additive", alts2)
        menu = menu_of(alts2, [("left", (0.9, 0.1)), ("right", (0.1, 0.9))])
        band, _ = choose_by_utility(oracle, menu, TOL)
        assert band == ("left", "right")

    def test_singleton(self, alts2, oracle_factory):
        oracle = oracle_factory("min", alts2)
        menu = menu_of(alts2, [("only", (0.3, 0.8))])
        band, _ = choose_by_utility(oracle, menu, TOL)
        assert band == ("only",)


class TestCrossValidation:
    def test_score_oracles_agree(self, alts3, oracle_factory):
        sampler = RafSampler(alts3, SEED)
        for kind in ("additive", "min", "geometric"):
            oracle = oracle_factory(kind, alts3)
            for size in (1, 3, 8):
                items = tuple(sampler.raf() for _ in range(size))
                menu = Menu(alts3, tuple(f"m{i}" for i in range(size)), items)
                report = cross_validate_choice(oracle, menu, TOL)
                assert report.agreed
                assert not report.escaped

    def test_lexicographic_band_artifact_is_reported(self, alts2, oracle_factory):
        # Two items tying on the top priority cannot be separated by any
        # bracketed utility: the tournament picks one, the band keeps both.
        oracle = oracle_factory("lexicographic", alts2, priority=("a", "b"))
        menu = menu_of(alts2, [("good_tail", (0.5, 0.9)), ("poor_tail", (0.5, 0.1))])
        report = cross_validate_choice(oracle, menu, TOL)
        assert report.agreed
        assert report.tournament == ("good_tail",)
        assert report.utility_band == ("good_tail", "poor_tail")
        assert report.band_artifacts == ("poor_tail",)
        assert report.escaped == ()

    def test_report_serializes(self, alts2, oracle_factory):
        oracle = oracle_factory("additive", alts2)
        menu = menu_of(alts2, [("x", (0.4, 0.4)), ("y", (0.6, 0.6))])
        report = cross_validate_choice(oracle, menu, TOL)
        doc = report.to_dict()
        assert doc["agreed"] is True
        assert doc["tournament"] == ["y"]
        assert set(doc["utilities"]) == {"x", "y"}
