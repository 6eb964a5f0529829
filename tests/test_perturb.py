from __future__ import annotations

import math

import pytest

import rafpref as rp
from rafpref import (
    Raf,
    RafSampler,
    bottom,
    perturbation_sequences,
    strictly_dominates,
    sup_distance,
    top,
)

SEED = 20250815


class TestPartition:
    def test_mixed_tie_pattern(self, alts3):
        upper = Raf(alts3, (1.0, 0.6, 0.3))
        lower = Raf(alts3, (1.0, 0.6, 0.2))
        seqs = perturbation_sequences(upper, lower)
        assert seqs.at_one == ("a",)
        assert seqs.at_zero == ()
        assert seqs.tied_interior == ("b",)
        assert seqs.interior_margin == pytest.approx(0.3)

    def test_margin_keeps_interior_terms_positive(self, alts3):
        upper = Raf(alts3, (0.4, 0.01, 1.0))
        lower = Raf(alts3, (0.4, 0.01, 0.5))
        seqs = perturbation_sequences(upper, lower)
        assert seqs.tied_interior == ("a", "b")
        assert seqs.interior_margin == pytest.approx(0.005)
        _, low_term = seqs.term(1)
        assert low_term.values[alts3.index("b")] > 0.0

    def test_equal_rafs_are_allowed(self, alts3):
        raf = bottom(alts3)
        seqs = perturbation_sequences(raf, raf)
        assert seqs.at_zero == ("a", "b", "c")
        assert seqs.interior_margin == 0.5  # placeholder: no interior ties

    def test_hypothesis_failure_names_the_coordinate(self, alts3):
        upper = Raf(alts3, (0.9, 0.2, 0.5))
        lower = Raf(alts3, (0.9, 0.3, 0.5))
        with pytest.raises(rp.DominanceHypothesisError, match="'b'"):
            perturbation_sequences(upper, lower)

    def test_hypothesis_failure_names_the_first_of_two_coordinates(self, alts3):
        upper = Raf(alts3, (0.9, 0.2, 0.4))
        lower = Raf(alts3, (0.9, 0.3, 0.5))
        with pytest.raises(rp.DominanceHypothesisError) as excinfo:
            perturbation_sequences(upper, lower)
        assert str(excinfo.value) == "pointwise dominance fails at 'b': 0.2 < 0.3"

    def test_mismatched_alternative_sets(self, alts2, alts3):
        with pytest.raises(rp.AlternativeSetMismatchError):
            perturbation_sequences(top(alts2), bottom(alts3))


class TestTerms:
    def test_worked_example_term_one(self, alts3):
        seqs = perturbation_sequences(
            Raf(alts3, (1.0, 0.6, 0.3)), Raf(alts3, (1.0, 0.6, 0.2))
        )
        upper_1, lower_1 = seqs.term(1)
        assert upper_1.values == (1.0, 0.6, 0.3)
        assert lower_1.values == pytest.approx((0.5, 0.45, 0.2))

    def test_worked_example_term_ten(self, alts3):
        seqs = perturbation_sequences(
            Raf(alts3, (1.0, 0.6, 0.3)), Raf(alts3, (1.0, 0.6, 0.2))
        )
        upper_10, lower_10 = seqs.term(10)
        assert upper_10.values == (1.0, 0.6, 0.3)
        assert lower_10.values == pytest.approx((0.95, 0.585, 0.2))

    def test_zero_ties_move_the_upper_term(self, alts3):
        seqs = perturbation_sequences(bottom(alts3), bottom(alts3))
        upper_2, lower_2 = seqs.term(2)
        assert upper_2.values == (0.25, 0.25, 0.25)
        assert lower_2.values == (0.0, 0.0, 0.0)

    def test_strict_gaps_leave_terms_constant(self, alts3):
        seqs = perturbation_sequences(top(alts3), bottom(alts3))
        for n in (1, 3, 50):
            upper_n, lower_n = seqs.term(n)
            assert upper_n == top(alts3)
            assert lower_n == bottom(alts3)

    def test_term_index_must_be_positive(self, alts3):
        seqs = perturbation_sequences(top(alts3), bottom(alts3))
        with pytest.raises(rp.ValidationError, match="positive"):
            seqs.term(0)
        with pytest.raises(rp.ValidationError, match="positive"):
            seqs.term(-3)

    def test_term_index_past_the_digit_limit(self, alts3):
        # Python 3.11+ refuses to print an int of more than 4300 digits.
        seqs = perturbation_sequences(top(alts3), bottom(alts3))
        with pytest.raises(rp.ValidationError, match="term index must be a positive integer"):
            seqs.term(-(10**5000))

    def test_term_index_beyond_float_range(self, alts3):
        seqs = perturbation_sequences(top(alts3), bottom(alts3))
        with pytest.raises(rp.ValidationError, match="term index is too large for a float"):
            seqs.term(10**400)

    def test_largest_term_indices_still_strict(self, alts2):
        # 2.0 * n overflows to inf here, yet the step 1/(2n) is a subnormal above 0.
        upper = Raf(alts2, (1.0, 0.0))
        up_n, low_n = perturbation_sequences(upper, upper).term(int(1.5e308))
        assert strictly_dominates(up_n, low_n)
        assert up_n.values[1] == 0.5 / 1.5e308

    def test_term_is_a_function_of_n(self, alts3):
        seqs = perturbation_sequences(bottom(alts3), bottom(alts3))
        assert seqs.term(4) == seqs.term(4)
        assert seqs.term(4) != seqs.term(5)


class TestContract:
    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_sampled_pairs_terms_strictly_dominate_within_the_bound(self, alts5, n):
        sampler = RafSampler(alts5, SEED)
        for _ in range(100):
            upper, lower = sampler.pointwise_dominating_pair()
            seqs = perturbation_sequences(upper, lower)
            upper_n, lower_n = seqs.term(n)
            bound = 1.0 / (2.0 * n)
            assert strictly_dominates(upper_n, lower_n)
            assert sup_distance(upper_n, upper) <= bound
            assert sup_distance(lower_n, lower) <= bound

    def test_terms_move_exactly_the_coordinates_the_partition_names(self, alts5):
        # term reads each coordinate's case from its two values; the moved
        # coordinates must be the ones at_one, at_zero and tied_interior list.
        sampler = RafSampler(alts5, SEED)
        pairs = [sampler.pointwise_dominating_pair() for _ in range(200)]
        mixed = Raf(alts5, (1.0, 0.0, 0.4, 0.7, 0.2)), Raf(alts5, (1.0, 0.0, 0.4, 0.3, 0.2))
        pairs.append(mixed)
        seen = set()
        for upper, lower in pairs:
            seqs = perturbation_sequences(upper, lower)
            for n in (1, 7):
                step = 0.5 / n
                upper_n, lower_n = seqs.term(n)
                for label, uv, lv, uv_n, lv_n in zip(
                    alts5.labels, upper.values, lower.values, upper_n.values, lower_n.values
                ):
                    if label in seqs.at_zero:
                        seen.add("at_zero")
                        assert (uv_n, lv_n) == (uv + step, lv)
                    elif label in seqs.at_one:
                        seen.add("at_one")
                        assert uv_n == uv and lv - lv_n == pytest.approx(step)
                    elif label in seqs.tied_interior:
                        seen.add("tied_interior")
                        margin = seqs.interior_margin
                        assert uv_n == uv and lv - lv_n == pytest.approx(margin * step)
                    else:
                        seen.add("gap")
                        assert (uv_n, lv_n) == (uv, lv)
        assert seen == {"at_zero", "at_one", "tied_interior", "gap"}

    def test_terms_converge_to_the_pair(self, alts3):
        upper = Raf(alts3, (1.0, 0.5, 0.0))
        lower = Raf(alts3, (1.0, 0.5, 0.0))
        seqs = perturbation_sequences(upper, lower)
        distances = [
            max(
                sup_distance(seqs.term(n)[0], upper),
                sup_distance(seqs.term(n)[1], lower),
            )
            for n in (1, 10, 100, 1000)
        ]
        assert distances == sorted(distances, reverse=True)
        assert distances[-1] <= 1.0 / 2000.0

    @pytest.mark.parametrize("tied", [1.0, 0.5, 0.3])
    def test_steps_below_one_ulp_take_the_predecessor(self, alts2, tied):
        # At n = 10**20 the step is far below one ulp of the tied value: the
        # lower term is the next float below it, past the 1/(2n) bound.
        seqs = perturbation_sequences(Raf(alts2, (tied, 0.9)), Raf(alts2, (tied, 0.1)))
        n = 10**20
        upper_n, lower_n = seqs.term(n)
        assert strictly_dominates(upper_n, lower_n)
        assert lower_n.values[0] == math.nextafter(tied, 0.0)
        assert 1.0 / (2.0 * n) < sup_distance(lower_n, seqs.lower) <= math.ulp(tied)

    def test_bound_holds_down_to_a_step_of_one_ulp(self, alts2):
        seqs = perturbation_sequences(Raf(alts2, (1.0, 0.9)), Raf(alts2, (1.0, 0.1)))
        n = 2**51  # step 1/(2n) is exactly one ulp of 1.0
        upper_n, lower_n = seqs.term(n)
        assert strictly_dominates(upper_n, lower_n)
        assert sup_distance(lower_n, seqs.lower) <= 1.0 / (2.0 * n)

    def test_extreme_tied_values_still_strict(self, alts2):
        # Ties close to the cube corners stress the float clamping.
        upper = Raf(alts2, (1e-12, 1.0 - 1e-12))
        lower = Raf(alts2, (1e-12, 1.0 - 1e-12))
        seqs = perturbation_sequences(upper, lower)
        for n in (1, 1000):
            upper_n, lower_n = seqs.term(n)
            assert strictly_dominates(upper_n, lower_n)
            assert sup_distance(lower_n, lower) <= 1.0 / (2.0 * n)
