from __future__ import annotations

import dataclasses
import json
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rafpref as rp
from rafpref import (
    PreferenceOracle,
    Raf,
    RafSampler,
    UtilityResult,
    bottom,
    check_certificate,
    compute_u,
    membership,
    scale_top,
    top,
    validate_representation,
)

SEED = 20250815
TOL = 1e-6


def call_budget(tol: float) -> int:
    return 2 + math.ceil(math.log2(1.0 / tol))


def hintless(oracle: PreferenceOracle) -> PreferenceOracle:
    """The same oracle without its diagonal hint, so ``compute_u`` bisects."""
    oracle.diagonal = None
    return oracle


class FixedSampler:
    """Duck-typed sampler that replays a fixed list of RAFs."""

    def __init__(self, rafs, seed=None):
        self._rafs = list(rafs)
        self.seed = seed

    def raf(self):
        return self._rafs.pop(0)


class TestMembership:
    def test_level_below_the_mean_is_not_member(self, alts3, oracle_factory):
        oracle = oracle_factory("additive", alts3)
        raf = Raf(alts3, (0.9, 0.5, 0.1))
        assert not membership(oracle, raf, 0.3)
        assert membership(oracle, raf, 0.7)

    def test_full_availability_is_member_for_monotone_kinds(self, alts3, oracle_factory):
        raf = Raf(alts3, (0.9, 0.5, 0.1))
        for kind in ("additive", "min", "geometric", "lexicographic"):
            assert membership(oracle_factory(kind, alts3), raf, 1.0)

    def test_parameter_range_is_checked(self, alts3, oracle_factory):
        oracle = oracle_factory("min", alts3)
        with pytest.raises(rp.ValidationError):
            membership(oracle, top(alts3), 1.1)
        with pytest.raises(rp.ValidationError):
            membership(oracle, top(alts3), -0.1)


class TestComputeU:
    def test_additive_matches_the_mean(self, alts3, oracle_factory):
        oracle = oracle_factory("additive", alts3)
        raf = Raf(alts3, (0.9, 0.5, 0.1))
        result = compute_u(oracle, raf, TOL)
        assert result.u == pytest.approx(0.5, abs=TOL)

    def test_min_matches_the_worst_coordinate(self, alts3, oracle_factory):
        oracle = oracle_factory("min", alts3)
        raf = Raf(alts3, (0.9, 0.5, 0.1))
        result = compute_u(oracle, raf, TOL)
        assert result.u == pytest.approx(0.1, abs=TOL)

    def test_geometric_matches_the_geometric_mean(self, alts2, oracle_factory):
        oracle = oracle_factory("geometric", alts2)
        raf = Raf(alts2, (0.25, 1.0))
        result = compute_u(oracle, raf, TOL)
        assert result.u == pytest.approx(0.5, abs=TOL)

    @pytest.mark.parametrize("kind", ["additive", "min", "geometric", "lexicographic"])
    def test_boundaries_are_exact(self, alts3, oracle_factory, kind):
        oracle = oracle_factory(kind, alts3)
        at_top = compute_u(oracle, top(alts3), TOL)
        assert at_top.u == 1.0 and at_top.lo == 1.0 and at_top.hi == 1.0
        at_bottom = compute_u(oracle, bottom(alts3), TOL)
        assert at_bottom.u == 0.0 and at_bottom.lo == 0.0 and at_bottom.hi == 0.0
        assert at_bottom.oracle_calls == 2

    def test_bracket_certifies_the_result(self, alts3, oracle_factory):
        oracle = oracle_factory("additive", alts3)
        raf = Raf(alts3, (0.8, 0.2, 0.5))
        result = compute_u(oracle, raf, TOL)
        assert result.hi - result.lo <= 2.0 * TOL
        assert result.u == 0.5 * (result.lo + result.hi)
        assert membership(oracle, raf, result.hi)
        assert not membership(oracle, raf, result.lo)

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
    def test_call_budget(self, alts5, oracle_factory, tol):
        oracle = oracle_factory("geometric", alts5)
        sampler = RafSampler(alts5, SEED)
        for _ in range(25):
            result = compute_u(oracle, sampler.raf(), tol)
            assert result.oracle_calls <= call_budget(tol)

    def test_tolerance_validation(self, alts3, oracle_factory):
        oracle = oracle_factory("min", alts3)
        for bad in (0.0, -1e-9, 0.6, float("nan")):
            with pytest.raises(rp.ValidationError):
                compute_u(oracle, top(alts3), bad)

    def test_wide_tolerance_yields_the_trivial_bracket(self, alts3, oracle_factory):
        oracle = hintless(oracle_factory("additive", alts3))
        result = compute_u(oracle, Raf(alts3, (0.9, 0.5, 0.1)), 0.5)
        assert (result.lo, result.hi, result.u) == (0.0, 1.0, 0.5)
        assert result.oracle_calls == 2

    def test_anti_monotone_raises_with_the_probed_parameters(self, alts3, oracle_factory):
        oracle = oracle_factory("anti_monotone", alts3)
        raf = Raf(alts3, (0.9, 0.5, 0.1))
        with pytest.raises(rp.DiagonalMonotonicityError) as excinfo:
            compute_u(oracle, raf, TOL)
        err = excinfo.value
        assert err.t_member == 0.0
        assert err.t_nonmember == 1.0
        assert err.raf == raf
        assert "diagonal" in str(err)

    def test_never_oracle_raises_without_a_member(self, alts3):
        oracle = PreferenceOracle("never", alts3, lambda a, b: False)
        with pytest.raises(rp.DiagonalMonotonicityError) as excinfo:
            compute_u(oracle, top(alts3), TOL)
        assert excinfo.value.t_member is None

    def test_indifferent_everywhere_collapses_to_zero(self, alts3):
        oracle = PreferenceOracle("flat", alts3, lambda a, b: True)
        result = compute_u(oracle, Raf(alts3, (0.3, 0.6, 0.9)), TOL)
        assert result.u == 0.0 and result.exact

    def test_diagonal_membership_is_an_up_set(self, alts5, oracle_factory):
        sampler = RafSampler(alts5, SEED)
        for kind in ("additive", "min", "geometric", "lexicographic"):
            oracle = oracle_factory(kind, alts5)
            for _ in range(200):
                raf = sampler.raf()
                t1, t2 = sorted((sampler.unit(), sampler.unit()))
                if membership(oracle, raf, t1):
                    assert membership(oracle, raf, t2)

    def test_utility_is_monotone_under_pointwise_dominance(self, alts5, oracle_factory):
        sampler = RafSampler(alts5, SEED + 1)
        for kind in ("additive", "min", "geometric"):
            oracle = oracle_factory(kind, alts5)
            for _ in range(50):
                upper, lower = sampler.pointwise_dominating_pair()
                u_upper = compute_u(oracle, upper, TOL).u
                u_lower = compute_u(oracle, lower, TOL).u
                assert u_upper + 2.0 * TOL >= u_lower


TOL_FLOOR = 2.0**-54
ONE_ULP_BELOW_ONE = math.nextafter(1.0, 0.0)
ALTS3 = rp.AlternativeSet(("a", "b", "c"))
MONOTONE = {
    "additive": rp.PreferenceSpec(kind="additive", weights=(0.5, 0.3, 0.2)),
    "min": rp.PreferenceSpec(kind="min"),
    "geometric": rp.PreferenceSpec(kind="geometric"),
    "lexicographic": rp.PreferenceSpec(kind="lexicographic", priority=("b", "a", "c")),
}
COORDINATE = st.one_of(
    st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0.0, ONE_ULP_BELOW_ONE, 1.0])
)


class TestTolContract:
    """Every tol in [2**-54, 0.5] is honoured; a finer one is refused up front."""

    @given(
        tol=st.floats(min_value=TOL_FLOOR, max_value=0.5),
        values=st.tuples(COORDINATE, COORDINATE, COORDINATE),
        kind=st.sampled_from(sorted(MONOTONE)),
    )
    @example(tol=TOL_FLOOR, values=(1.0, 1.0, 1.0), kind="min")
    @example(tol=TOL_FLOOR, values=(ONE_ULP_BELOW_ONE,) * 3, kind="min")
    @example(tol=TOL_FLOOR, values=(ONE_ULP_BELOW_ONE, 1.0, 1.0), kind="additive")
    @example(tol=TOL_FLOOR, values=(0.99999, 1.0, 1.0), kind="min")
    def test_bracket_and_budget_hold(self, tol, values, kind):
        oracle = rp.build_oracle(MONOTONE[kind], ALTS3)
        raf = Raf(ALTS3, values)
        result = compute_u(oracle, raf, tol)
        assert result.hi - result.lo <= 2.0 * tol
        assert result.oracle_calls <= call_budget(tol)
        assert check_certificate(oracle, raf, result)

    def test_the_floor_uses_55_of_56_queries(self):
        oracle = hintless(rp.build_oracle(MONOTONE["min"], ALTS3))
        result = compute_u(oracle, Raf(ALTS3, (0.99999, 1.0, 1.0)), TOL_FLOOR)
        assert (result.oracle_calls, call_budget(TOL_FLOOR)) == (55, 56)
        assert result.lo < 0.99999 <= result.hi

    @pytest.mark.parametrize("tol", [math.nextafter(TOL_FLOOR, 0.0), 1e-17, 5e-324])
    def test_a_finer_tol_is_refused_before_any_query(self, tol):
        calls = []

        def query(a, b):
            calls.append((a, b))
            return min(a.values) >= min(b.values)

        oracle = PreferenceOracle("counted-min", ALTS3, query)
        with pytest.raises(rp.ValidationError, match=r"\[2\*\*-54, 0\.5\]"):
            compute_u(oracle, Raf(ALTS3, (0.99999, 1.0, 1.0)), tol)
        assert calls == []


BISECTING = {
    "additive": rp.PreferenceSpec(kind="additive", weights=(0.3, 0.25, 0.2, 0.15, 0.1)),
    "min": rp.PreferenceSpec(kind="min"),
    "geometric": rp.PreferenceSpec(kind="geometric"),
    "lexicographic": rp.PreferenceSpec(kind="lexicographic", priority=("c", "a", "e", "b", "d")),
    "threshold": rp.PreferenceSpec(kind="threshold", cutoff=0.4),
}
POINTS = {
    "interior": (0.3, 0.7, 0.5, 0.9, 0.2),
    "zero-coordinate": (0.0, 0.6, 0.4, 0.8, 0.5),
    "one-coordinate": (1.0, 0.6, 0.4, 0.8, 0.5),
    "all-ones": (1.0,) * 5,
    "diagonal": (0.375,) * 5,
}


def counted_probes(monkeypatch, oracle, raf, tol):
    """Run ``compute_u`` with every ``weak_prefers`` call recorded."""
    counted = []
    query = PreferenceOracle.weak_prefers

    def weak_prefers(self, a, b):
        counted.append((a, b))
        return query(self, a, b)

    monkeypatch.setattr(PreferenceOracle, "weak_prefers", weak_prefers)
    return compute_u(oracle, raf, tol), counted


QUERY_COUNT_CASES = [
    pytest.mark.parametrize("kind", sorted(BISECTING)),
    pytest.mark.parametrize("point", sorted(POINTS)),
    pytest.mark.parametrize("tol", [1e-6, 1e-9, TOL_FLOOR], ids=["1e-6", "1e-9", "2**-54"]),
]


class TestQueryCount:
    """Each membership probe of the bisection is exactly one ``weak_prefers`` call."""

    pytestmark = QUERY_COUNT_CASES

    @staticmethod
    def oracle(spec, alts):
        return hintless(rp.build_oracle(spec, alts))

    def test_counted_queries_equal_oracle_calls(self, monkeypatch, alts5, kind, point, tol):
        oracle = self.oracle(BISECTING[kind], alts5)
        raf = Raf(alts5, POINTS[point])
        result, counted = counted_probes(monkeypatch, oracle, raf, tol)
        assert len(counted) == result.oracle_calls <= call_budget(tol)
        for probe, target in counted:
            assert target is raf
            assert probe == scale_top(probe.values[0], alts5)
        assert len({probe.values[0] for probe, _ in counted}) == len(counted)


class TestHintedQueryCount(TestQueryCount):
    """The hint is not a query: each probe of the hinted cell is one call too."""

    oracle = staticmethod(rp.build_oracle)


HINTED = {**MONOTONE, "threshold": rp.PreferenceSpec(kind="threshold", cutoff=0.4)}
DYADIC = st.integers(0, 54).flatmap(lambda n: st.integers(0, 2**n).map(lambda j: j / 2**n))
POINT3 = st.one_of(
    st.tuples(COORDINATE, COORDINATE, COORDINATE),
    st.one_of(COORDINATE, DYADIC).map(lambda t: (t,) * 3),  # diagonal points
)
ALTS2 = rp.AlternativeSet(("x", "y"))
INSIDE = Raf(ALTS2, (0.5, 0.5))  # not the all-ones point, so nothing ends early


def up_set(level: float, closed: bool, hint: float | None) -> PreferenceOracle:
    """A model that reads only the level: membership holds from ``level`` up."""
    compare = operator.ge if closed else operator.gt
    diagonal = None if hint is None else (lambda raf: hint)
    return PreferenceOracle(
        "up-set", ALTS2, lambda a, b: compare(a.values[0], level), diagonal=diagonal
    )


def bracket(result: UtilityResult) -> tuple[float, float, float]:
    return result.u, result.lo, result.hi


class TestHintedCell:
    """The hint changes how many queries are made, never the bracket."""

    @given(
        tol=st.floats(min_value=TOL_FLOOR, max_value=0.5),
        values=POINT3,
        kind=st.sampled_from(sorted(HINTED)),
    )
    @example(tol=TOL_FLOOR, values=(1.0, 1.0, 1.0), kind="geometric")
    @example(tol=TOL_FLOOR, values=(0.0, 0.5, 1.0), kind="additive")
    @example(tol=1e-9, values=(0.375,) * 3, kind="threshold")
    @example(tol=1e-9, values=(0.4,) * 3, kind="threshold")
    @example(tol=2.0**-10, values=(0.5,) * 3, kind="min")
    @example(tol=TOL_FLOOR, values=(ONE_ULP_BELOW_ONE, 1.0, 1.0), kind="lexicographic")
    def test_bracket_equals_bisection(self, tol, values, kind):
        raf = Raf(ALTS3, values)
        hinted = compute_u(rp.build_oracle(HINTED[kind], ALTS3), raf, tol)
        plain = compute_u(hintless(rp.build_oracle(HINTED[kind], ALTS3)), raf, tol)
        assert bracket(hinted) == bracket(plain)
        assert hinted.oracle_calls <= call_budget(tol)

    @pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
    @pytest.mark.parametrize("scale", [0.5, 0.7], ids=["power-of-two", "not"])
    @pytest.mark.parametrize("cells", [2, 4, 8, 32, 512])
    def test_probe_rule_on_every_cell(self, cells, scale, closed):
        # tol = scale * w gives cells of width w either way; every hinted
        # cell is named by its centre, cells 0 and cells + 1 lying outside
        # [0, 1].  At 512 cells only the hints next to the true cell, around
        # 1/2 and outside are tried, to keep the test short.
        width = 1.0 / cells
        tol = scale * width
        for i in range(1, cells + 1):
            for quarter in range(4):
                level = (i - 1 + quarter / 4) * width
                if not closed and level == 1.0:
                    continue
                plain = compute_u(up_set(level, closed, None), INSIDE, tol)
                hinted_cells = range(cells + 2) if cells <= 32 else {
                    i - 1, i, i + 1, 0, cells // 2, cells // 2 + 1, cells + 1
                }
                for cell in hinted_cells:
                    oracle = up_set(level, closed, (cell - 0.5) * width)
                    result = compute_u(oracle, INSIDE, tol)
                    assert bracket(result) == bracket(plain), (level, cell)
                    assert result.oracle_calls <= call_budget(tol), (level, cell)
                    assert result.oracle_calls <= plain.oracle_calls + 1, (level, cell)
                    if cell * width == plain.hi:  # the right cell: its inner ends only
                        inner = sum(0.0 < end < 1.0 for end in (plain.lo, plain.hi))
                        assert result.oracle_calls == 2 + inner, (level, cell)

    @given(
        tol=st.floats(min_value=TOL_FLOOR, max_value=0.5),
        values=POINT3,
        kind=st.sampled_from(sorted(HINTED)),
        hint=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(min_value=0.0, max_value=1.0),
        ),
    )
    @example(tol=1e-9, values=(0.3, 0.6, 0.9), kind="additive", hint=math.nan)
    @example(tol=1e-9, values=(0.3, 0.6, 0.9), kind="min", hint=math.inf)
    @example(tol=1e-9, values=(0.3, 0.6, 0.9), kind="geometric", hint=-math.inf)
    @example(tol=1e-9, values=(0.3, 0.6, 0.9), kind="lexicographic", hint=-0.5)
    @example(tol=1e-9, values=(0.3, 0.6, 0.9), kind="threshold", hint=2.0)
    def test_a_bad_hint_keeps_the_bracket_and_the_budget(self, tol, values, kind, hint):
        raf = Raf(ALTS3, values)
        oracle = rp.build_oracle(HINTED[kind], ALTS3)
        oracle.diagonal = lambda _: hint
        result = compute_u(oracle, raf, tol)
        plain = compute_u(hintless(rp.build_oracle(HINTED[kind], ALTS3)), raf, tol)
        assert bracket(result) == bracket(plain)
        assert result.oracle_calls <= call_budget(tol)
        if not 0.0 <= hint <= 1.0:  # no hint at all
            assert result.oracle_calls == plain.oracle_calls

    def test_a_contradiction_raises_with_both_levels(self, alts3):
        # Membership at 0 implies membership everywhere above it; the
        # probe at 1 contradicts that before the hint is asked for.
        asked = []
        oracle = PreferenceOracle(
            "member-only-at-0",
            alts3,
            lambda a, b: a.values[0] == 0.0,
            diagonal=lambda raf: asked.append(raf) or 0.5,
        )
        with pytest.raises(rp.DiagonalMonotonicityError) as excinfo:
            compute_u(oracle, Raf(alts3, (0.3, 0.6, 0.9)), TOL)
        assert (excinfo.value.t_member, excinfo.value.t_nonmember) == (0.0, 1.0)
        assert asked == []

    @given(
        seed=st.integers(0, 2**32),
        tol=st.floats(min_value=TOL_FLOOR, max_value=0.5),
        hint=st.floats(min_value=-0.25, max_value=1.25),
    )
    def test_no_probe_can_contradict_an_earlier_answer(self, seed, tol, hint):
        # An arbitrary, non-monotone membership: every interior level is
        # asked only while its answer does not follow from earlier ones, so
        # no answer can contradict another, and the bracket's ends are
        # answered levels.
        asked = {0.0: False, 1.0: True}

        def query(a, b):
            t = a.values[0]
            if t not in asked:
                yes = min(level for level, answer in asked.items() if answer)
                no = max(level for level, answer in asked.items() if not answer)
                assert no < t < yes
                asked[t] = random.Random(f"{seed}:{t!r}").random() < 0.5
            return asked[t]

        oracle = PreferenceOracle("coin", ALTS2, query, diagonal=lambda raf: hint)
        result = compute_u(oracle, INSIDE, tol)
        # The ends were seeded and are asked once each, like every other level.
        assert result.oracle_calls == len(asked) <= call_budget(tol)
        assert asked[result.hi] and not asked[result.lo]


class TestUtilityResult:
    def test_invariants_are_enforced(self):
        with pytest.raises(rp.ValidationError, match="midpoint"):
            UtilityResult(u=0.4, lo=0.5, hi=0.6, tol=0.1, oracle_calls=3)
        with pytest.raises(rp.ValidationError, match="out of order"):
            UtilityResult(u=0.5, lo=0.6, hi=0.4, tol=0.1, oracle_calls=3)
        with pytest.raises(rp.ValidationError, match="wider"):
            UtilityResult(u=0.5, lo=0.0, hi=1.0, tol=0.1, oracle_calls=3)
        with pytest.raises(rp.ValidationError, match="tolerance"):
            UtilityResult(u=0.5, lo=0.5, hi=0.5, tol=0.0, oracle_calls=3)

    def test_exact_flag(self):
        assert UtilityResult(u=1.0, lo=1.0, hi=1.0, tol=0.1, oracle_calls=2).exact
        assert not UtilityResult(u=0.5, lo=0.45, hi=0.55, tol=0.1, oracle_calls=4).exact

    def test_to_dict_lists_the_fields_in_order(self, alts3, oracle_factory):
        result = compute_u(oracle_factory("additive", alts3), Raf(alts3, (0.2, 0.5, 0.9)), TOL)
        doc = result.to_dict()
        assert list(doc) == [f.name for f in dataclasses.fields(UtilityResult)]
        assert doc == dataclasses.asdict(result)


class TestCertificate:
    def test_accepts_a_fresh_result(self, alts3, oracle_factory):
        oracle = oracle_factory("min", alts3)
        raf = Raf(alts3, (0.7, 0.4, 0.9))
        result = compute_u(oracle, raf, TOL)
        assert check_certificate(oracle, raf, result)

    def test_accepts_exact_boundary_results(self, alts3, oracle_factory):
        oracle = oracle_factory("additive", alts3)
        assert check_certificate(oracle, top(alts3), compute_u(oracle, top(alts3), TOL))
        assert check_certificate(oracle, bottom(alts3), compute_u(oracle, bottom(alts3), TOL))

    def test_rejects_after_the_oracle_changes(self, alts3, oracle_factory):
        before = oracle_factory("additive", alts3)
        raf = Raf(alts3, (0.9, 0.5, 0.1))
        result = compute_u(before, raf, TOL)
        after = PreferenceOracle(
            "flipped", alts3, lambda a, b: not before.weak_prefers(a, b)
        )
        assert not check_certificate(after, raf, result)


class TestValidateRepresentation:
    def test_additive_pairs_all_confirmed_or_indeterminate(self, alts5, oracle_factory):
        oracle = oracle_factory("additive", alts5)
        report = validate_representation(oracle, RafSampler(alts5, SEED), 500, TOL)
        assert report.pairs_tested == 500
        assert not report.violations
        assert report.confirmed + report.indeterminate == 500
        assert report.indeterminate_strict == 0

    def test_zero_pairs_yield_an_empty_report(self, alts3, oracle_factory):
        oracle = oracle_factory("min", alts3)
        report = validate_representation(oracle, RafSampler(alts3, SEED), 0, TOL)
        assert report.pairs_tested == 0
        assert report.confirmed == 0
        assert report.indeterminate == 0
        assert not report.violations

    def test_lexicographic_tie_pair_is_indeterminate_but_strict(self, alts2, oracle_factory):
        # Utilities cannot separate two RAFs tying on the top priority, but
        # the oracle still strictly prefers one: the non-representability
        # signature shows up as an indeterminate pair with a strict answer.
        oracle = oracle_factory("lexicographic", alts2, priority=("a", "b"))
        sampler = FixedSampler([Raf(alts2, (0.5, 0.9)), Raf(alts2, (0.5, 0.1))], seed=0)
        report = validate_representation(oracle, sampler, 1, 1e-9)
        assert report.indeterminate == 1
        assert report.indeterminate_strict == 1
        assert not report.violations

    def test_diagonal_failure_names_the_pair(self, alts3, oracle_factory):
        oracle = oracle_factory("anti_monotone", alts3)
        with pytest.raises(rp.DiagonalMonotonicityError, match="while validating the pair") as excinfo:
            validate_representation(oracle, RafSampler(alts3, SEED), 5, TOL)
        # The added context keeps the probed data of the original failure.
        assert excinfo.value.raf is not None
        assert excinfo.value.t_member == 0.0
        assert excinfo.value.t_nonmember == 1.0

    def test_count_validation(self, alts3, oracle_factory):
        oracle = oracle_factory("min", alts3)
        with pytest.raises(rp.ValidationError, match="nonnegative"):
            validate_representation(oracle, RafSampler(alts3, SEED), -1, TOL)

    def test_numpy_pair_count_is_a_plain_int(self, alts3, oracle_factory):
        oracle = oracle_factory("min", alts3)
        report = validate_representation(oracle, RafSampler(alts3, SEED), np.int64(3), TOL)
        assert type(report.pairs_tested) is int and report.pairs_tested == 3
        assert json.loads(json.dumps(report.to_dict()))["pairs_tested"] == 3

    def test_report_serializes(self, alts3, oracle_factory):
        oracle = oracle_factory("geometric", alts3)
        report = validate_representation(oracle, RafSampler(alts3, SEED), 20, TOL)
        doc = report.to_dict()
        assert doc["pairs_tested"] == 20
        assert doc["violations"] == []
        assert doc["seed"] == SEED
