from __future__ import annotations

import dataclasses
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rafpref as rp
from rafpref import (
    AlternativeSet,
    Raf,
    bottom,
    pointwise_dominates,
    scale_top,
    strictly_dominates,
    sup_distance,
    top,
)

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestAlternativeSet:
    def test_needs_at_least_two(self):
        with pytest.raises(rp.ValidationError, match="at least 2"):
            AlternativeSet(("solo",))

    def test_rejects_duplicates(self):
        with pytest.raises(rp.ValidationError, match="duplicate"):
            AlternativeSet(("a", "b", "a"))

    def test_rejects_empty_label(self):
        with pytest.raises(rp.ValidationError):
            AlternativeSet(("a", ""))

    def test_label_past_the_digit_limit(self):
        # Python 3.11+ refuses to print an int of more than 4300 digits.
        with pytest.raises(rp.ValidationError, match="nonempty strings, got a number too long"):
            AlternativeSet(("a", 10**5000))

    def test_index_and_container_protocol(self, alts3):
        assert alts3.index("b") == 1
        assert len(alts3) == 3
        assert "c" in alts3
        assert "z" not in alts3
        assert list(alts3) == ["a", "b", "c"]

    def test_index_unknown_label(self, alts3):
        with pytest.raises(rp.ValidationError, match="unknown alternative"):
            alts3.index("z")


class TestRafConstruction:
    def test_boundary_values_allowed(self, alts3):
        raf = Raf(alts3, (0.0, 1.0, 0.5))
        assert raf.values == (0.0, 1.0, 0.5)
        assert raf.values[alts3.index("b")] == 1.0

    def test_out_of_range_names_the_alternative(self, alts3):
        with pytest.raises(rp.ValidationError, match="'b'"):
            Raf(alts3, (0.5, 1.2, 0.5))
        with pytest.raises(rp.ValidationError, match="'a'"):
            Raf(alts3, (-0.1, 0.2, 0.5))

    def test_nan_rejected(self, alts3):
        with pytest.raises(rp.ValidationError):
            Raf(alts3, (0.5, float("nan"), 0.5))

    def test_length_mismatch(self, alts3):
        with pytest.raises(rp.ValidationError, match="expected 3 values"):
            Raf(alts3, (0.5, 0.5))

    def test_non_numeric_rejected(self, alts3):
        with pytest.raises(rp.ValidationError):
            Raf(alts3, (0.5, "0.5", 0.5))

    def test_integer_values_coerced(self, alts3):
        raf = Raf(alts3, (0, 1, 1))
        assert raf.values == (0.0, 1.0, 1.0)
        assert all(isinstance(v, float) for v in raf.values)

    def test_numpy_scalars_accepted_as_plain_floats(self, alts3):
        raf = Raf(alts3, (np.float32(0.5), np.int64(1), np.float64(0.25)))
        assert raf.values == (0.5, 1.0, 0.25)
        assert all(type(v) is float for v in raf.values)
        assert raf == Raf(alts3, (0.5, 1.0, 0.25))

    @pytest.mark.parametrize("bad", [True, np.bool_(True), np.float32("nan"), None, 1j])
    def test_bools_nan_and_non_reals_rejected(self, alts3, bad):
        with pytest.raises(rp.ValidationError, match="at 'b' must be a real number"):
            Raf(alts3, (0.5, bad, 0.5))

    @pytest.mark.parametrize("big", [10**400, -(10**400), Fraction(10**400, 3)])
    def test_numbers_beyond_float_range_rejected(self, alts3, big):
        with pytest.raises(rp.ValidationError, match="at 'b' is too large for a float"):
            Raf(alts3, (0.5, big, 0.5))


class TestCorners:
    def test_top_and_bottom(self, alts3):
        assert top(alts3).values == (1.0, 1.0, 1.0)
        assert bottom(alts3).values == (0.0, 0.0, 0.0)

    def test_scale_top_interpolates(self, alts3):
        assert scale_top(0.0, alts3) == bottom(alts3)
        assert scale_top(1.0, alts3) == top(alts3)
        assert scale_top(0.3, alts3).values == (0.3, 0.3, 0.3)

    def test_scale_top_rejects_bad_parameter(self, alts3):
        with pytest.raises(rp.ValidationError):
            scale_top(1.5, alts3)
        with pytest.raises(rp.ValidationError):
            scale_top(-0.2, alts3)
        for bad in (float("nan"), True, "0.5", None, np.float32(2.0)):
            with pytest.raises(rp.ValidationError, match="diagonal parameter"):
                scale_top(bad, alts3)

    @pytest.mark.parametrize("t", [0.0, 2.0**-54, 0.3, 0.5, 1.0, 1, np.float32(0.5), np.int64(1)])
    def test_scale_top_is_the_checked_constant_point(self, alts5, t):
        # scale_top builds its point without Raf's per-coordinate checks; it
        # must still be indistinguishable from the checked construction.
        point, checked = scale_top(t, alts5), Raf(alts5, (t,) * 5)
        assert type(point) is Raf
        assert point == checked and hash(point) == hash(checked)
        assert point.values == checked.values == (float(t),) * 5
        assert all(type(v) is float for v in point.values)
        assert point.alts is alts5
        assert point.to_dict() == checked.to_dict()
        with pytest.raises(dataclasses.FrozenInstanceError):
            point.values = (0.0,) * 5


class TestDominance:
    def test_strict_requires_every_coordinate(self, alts2):
        assert strictly_dominates(Raf(alts2, (0.9, 0.5)), Raf(alts2, (0.5, 0.1)))
        assert not strictly_dominates(Raf(alts2, (0.9, 0.5)), Raf(alts2, (0.5, 0.5)))
        assert not strictly_dominates(Raf(alts2, (0.9, 0.1)), Raf(alts2, (0.5, 0.5)))

    def test_pointwise_allows_ties(self, alts2):
        assert pointwise_dominates(Raf(alts2, (0.9, 0.5)), Raf(alts2, (0.5, 0.5)))
        assert pointwise_dominates(Raf(alts2, (0.5, 0.5)), Raf(alts2, (0.5, 0.5)))
        assert not pointwise_dominates(Raf(alts2, (0.9, 0.4)), Raf(alts2, (0.5, 0.5)))

    def test_top_strictly_dominates_bottom(self, alts5):
        assert strictly_dominates(top(alts5), bottom(alts5))

    def test_mismatched_alternative_sets(self, alts2, alts3):
        with pytest.raises(rp.AlternativeSetMismatchError):
            strictly_dominates(top(alts2), top(alts3))
        with pytest.raises(rp.AlternativeSetMismatchError):
            sup_distance(bottom(alts2), bottom(alts3))

    def test_strict_dominance_on_a_coarse_lattice(self, alts3):
        # Exhaustive over the 27-point lattice: irreflexive, transitive, and
        # strict implies pointwise but never the reverse direction.
        grid = [Raf(alts3, v) for v in itertools.product((0.0, 0.5, 1.0), repeat=3)]
        for a in grid:
            assert not strictly_dominates(a, a)
            for b in grid:
                if strictly_dominates(a, b):
                    assert pointwise_dominates(a, b)
                    assert not pointwise_dominates(b, a)
                for c in grid:
                    if strictly_dominates(a, b) and strictly_dominates(b, c):
                        assert strictly_dominates(a, c)


class TestSupDistance:
    def test_zero_on_equal(self, alts3):
        raf = Raf(alts3, (0.2, 0.4, 0.6))
        assert sup_distance(raf, raf) == 0.0

    def test_corners_are_one_apart(self, alts3):
        assert sup_distance(top(alts3), bottom(alts3)) == 1.0

    def test_picks_the_largest_gap(self, alts2):
        a = Raf(alts2, (0.9, 0.5))
        b = Raf(alts2, (0.5, 0.6))
        assert sup_distance(a, b) == pytest.approx(0.4)

    def test_symmetry(self, alts3):
        a = Raf(alts3, (0.1, 0.7, 0.3))
        b = Raf(alts3, (0.6, 0.2, 0.3))
        assert sup_distance(a, b) == sup_distance(b, a)

    @given(st.lists(UNIT, min_size=3, max_size=3), st.lists(UNIT, min_size=3, max_size=3), st.lists(UNIT, min_size=3, max_size=3))
    def test_triangle_inequality(self, xs, ys, zs):
        alts = AlternativeSet(("a", "b", "c"))
        a, b, c = Raf(alts, xs), Raf(alts, ys), Raf(alts, zs)
        assert sup_distance(a, c) <= sup_distance(a, b) + sup_distance(b, c) + 1e-15


class TestSerialization:
    def test_dict_shape(self, alts2):
        raf = Raf(alts2, (0.25, 0.75))
        assert raf.to_dict() == {"alts": ["a", "b"], "values": [0.25, 0.75]}

    def test_round_trip_is_exact(self, alts3):
        raf = Raf(alts3, (0.1, 0.9999999999999999, 1.0))
        again = Raf.from_dict(json.loads(json.dumps(raf.to_dict())))
        assert again == raf

    def test_from_dict_validates(self):
        with pytest.raises(rp.ValidationError):
            Raf.from_dict({"alts": ["a", "b"]})
        with pytest.raises(rp.ValidationError):
            Raf.from_dict({"alts": ["a", "b"], "values": [0.5, 1.5]})
        with pytest.raises(rp.ValidationError, match="must be a list"):
            Raf.from_dict({"alts": "ab", "values": [0.5, 0.5]})

    # A string would be split into letters, a set would lose its order and a
    # lone number is no list at all: each is an input error, not a TypeError.
    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda ab: AlternativeSet("xy"), "alts"),
            (lambda ab: AlternativeSet({"x", "y"}), "alts"),
            (lambda ab: AlternativeSet(5), "alts"),
            (lambda ab: AlternativeSet(-(10**5000)), "alts"),  # too long for repr
            (lambda ab: Raf(ab, {0.9, 0.1}), "values"),
            (lambda ab: Raf(ab, 0.5), "values"),
            (lambda ab: Raf(ab, "01"), "values"),
            (lambda ab: Raf.from_dict({"alts": ["a", "b"], "values": 0.5}), "values"),
            (lambda ab: Raf(ab, frozenset((0.9, 0.1))), "values"),
        ],
        ids=["str-alts", "set-alts", "int-alts", "long-int-alts", "set-values", "float-values",
             "str-values", "from-dict-float-values", "frozenset-values"],
    )
    def test_shapes_that_are_not_lists_are_refused(self, alts2, build, name):
        with pytest.raises(rp.ValidationError, match=f"^{name} must be a list, got "):
            build(alts2)

    @pytest.mark.parametrize("values", [[0.9, 0.1], (0.9, 0.1), np.array([0.9, 0.1]), iter((0.9, 0.1))])
    def test_ordered_values_of_any_type_are_accepted(self, alts2, values):
        assert Raf(alts2, values).values == (0.9, 0.1)

    @given(st.lists(UNIT, min_size=2, max_size=6))
    def test_round_trip_arbitrary_values(self, values):
        alts = AlternativeSet(tuple(f"x{i}" for i in range(len(values))))
        raf = Raf(alts, values)
        again = Raf.from_dict(json.loads(json.dumps(raf.to_dict())))
        assert again == raf
        assert again.values == raf.values
