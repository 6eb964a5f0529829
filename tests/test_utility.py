from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rafpref as rp
from rafpref import (
    PreferenceOracle,
    RafSampler,
    UtilityResult,
    bottom,
    check_certificate,
    compute_u,
    make_raf,
    membership,
    scale_top,
    top,
    validate_representation,
)

SEED = 20250815
TOL = 1e-6


def call_budget(tol: float) -> int:
    return 2 + math.ceil(math.log2(1.0 / tol))


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
        raf = make_raf(alts3, (0.9, 0.5, 0.1))
        assert not membership(oracle, raf, 0.3)
        assert membership(oracle, raf, 0.7)

    def test_full_availability_is_member_for_monotone_kinds(self, alts3, oracle_factory):
        raf = make_raf(alts3, (0.9, 0.5, 0.1))
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
        raf = make_raf(alts3, (0.9, 0.5, 0.1))
        result = compute_u(oracle, raf, TOL)
        assert result.u == pytest.approx(0.5, abs=TOL)

    def test_min_matches_the_worst_coordinate(self, alts3, oracle_factory):
        oracle = oracle_factory("min", alts3)
        raf = make_raf(alts3, (0.9, 0.5, 0.1))
        result = compute_u(oracle, raf, TOL)
        assert result.u == pytest.approx(0.1, abs=TOL)

    def test_geometric_matches_the_geometric_mean(self, alts2, oracle_factory):
        oracle = oracle_factory("geometric", alts2)
        raf = make_raf(alts2, (0.25, 1.0))
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
        raf = make_raf(alts3, (0.8, 0.2, 0.5))
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
        oracle = oracle_factory("additive", alts3)
        result = compute_u(oracle, make_raf(alts3, (0.9, 0.5, 0.1)), 0.5)
        assert (result.lo, result.hi, result.u) == (0.0, 1.0, 0.5)
        assert result.oracle_calls == 2

    def test_anti_monotone_raises_with_the_probed_parameters(self, alts3, oracle_factory):
        oracle = oracle_factory("anti_monotone", alts3)
        raf = make_raf(alts3, (0.9, 0.5, 0.1))
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
        result = compute_u(oracle, make_raf(alts3, (0.3, 0.6, 0.9)), TOL)
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
        raf = make_raf(ALTS3, values)
        result = compute_u(oracle, raf, tol)
        assert result.hi - result.lo <= 2.0 * tol
        assert result.oracle_calls <= call_budget(tol)
        assert check_certificate(oracle, raf, result)

    def test_the_floor_uses_55_of_56_queries(self):
        oracle = rp.build_oracle(MONOTONE["min"], ALTS3)
        result = compute_u(oracle, make_raf(ALTS3, (0.99999, 1.0, 1.0)), TOL_FLOOR)
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
            compute_u(oracle, make_raf(ALTS3, (0.99999, 1.0, 1.0)), tol)
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


class TestQueryCount:
    """Each membership probe is exactly one ``weak_prefers`` call."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, TOL_FLOOR], ids=["1e-6", "1e-9", "2**-54"])
    @pytest.mark.parametrize("point", sorted(POINTS))
    @pytest.mark.parametrize("kind", sorted(BISECTING))
    def test_counted_queries_equal_oracle_calls(self, monkeypatch, alts5, kind, point, tol):
        counted = []
        query = PreferenceOracle.weak_prefers

        def weak_prefers(self, a, b):
            counted.append((a, b))
            return query(self, a, b)

        monkeypatch.setattr(PreferenceOracle, "weak_prefers", weak_prefers)
        oracle = rp.build_oracle(BISECTING[kind], alts5)
        raf = make_raf(alts5, POINTS[point])
        result = compute_u(oracle, raf, tol)
        assert len(counted) == result.oracle_calls <= call_budget(tol)
        for probe, target in counted:
            assert target is raf
            assert probe == scale_top(probe.values[0], alts5)


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


class TestCertificate:
    def test_accepts_a_fresh_result(self, alts3, oracle_factory):
        oracle = oracle_factory("min", alts3)
        raf = make_raf(alts3, (0.7, 0.4, 0.9))
        result = compute_u(oracle, raf, TOL)
        assert check_certificate(oracle, raf, result)

    def test_accepts_exact_boundary_results(self, alts3, oracle_factory):
        oracle = oracle_factory("additive", alts3)
        assert check_certificate(oracle, top(alts3), compute_u(oracle, top(alts3), TOL))
        assert check_certificate(oracle, bottom(alts3), compute_u(oracle, bottom(alts3), TOL))

    def test_rejects_after_the_oracle_changes(self, alts3, oracle_factory):
        before = oracle_factory("additive", alts3)
        raf = make_raf(alts3, (0.9, 0.5, 0.1))
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
        sampler = FixedSampler([make_raf(alts2, (0.5, 0.9)), make_raf(alts2, (0.5, 0.1))], seed=0)
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

    def test_report_serializes(self, alts3, oracle_factory):
        oracle = oracle_factory("geometric", alts3)
        report = validate_representation(oracle, RafSampler(alts3, SEED), 20, TOL)
        doc = report.to_dict()
        assert doc["pairs_tested"] == 20
        assert doc["violations"] == []
        assert doc["seed"] == SEED
