from __future__ import annotations

import dataclasses
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rafpref as rp
from rafpref import RafSampler, pointwise_dominates, strictly_dominates, sampling


def test_same_seed_same_draws(alts3):
    first = RafSampler(alts3, 99).rafs(5)
    second = RafSampler(alts3, 99).rafs(5)
    assert first == second


def test_different_seeds_differ(alts3):
    assert RafSampler(alts3, 1).raf() != RafSampler(alts3, 2).raf()


def test_seed_must_be_a_nonnegative_integer(alts3):
    with pytest.raises(rp.ValidationError):
        RafSampler(alts3, -1)
    with pytest.raises(rp.ValidationError):
        RafSampler(alts3, 0.5)


def test_seed_past_the_digit_limit_is_rejected(alts3):
    # Python 3.11+ refuses to print an int of more than 4300 digits.
    with pytest.raises(rp.ValidationError, match="seed must be a nonnegative integer"):
        RafSampler(alts3, -(10**5000))


def test_numpy_integer_seeds_are_plain_ints(alts3):
    sampler = RafSampler(alts3, np.int64(1))
    assert type(sampler.seed) is int and sampler.seed == 1
    assert sampler.rafs(3) == RafSampler(alts3, 1).rafs(3)
    with pytest.raises(rp.ValidationError, match="nonnegative integer"):
        RafSampler(alts3, np.bool_(True))
    with pytest.raises(rp.ValidationError, match="nonnegative integer"):
        RafSampler(alts3, np.int64(-1))


def test_strictly_dominating_pairs_hold_everywhere(alts5):
    sampler = RafSampler(alts5, 7)
    for _ in range(200):
        a, b = sampler.strictly_dominating_pair()
        assert strictly_dominates(a, b)


def test_pointwise_pairs_hold_and_cover_all_tie_cases(alts5):
    sampler = RafSampler(alts5, 8)
    saw = {"one": False, "zero": False, "interior": False, "gap": False}
    for _ in range(200):
        a, b = sampler.pointwise_dominating_pair()
        assert pointwise_dominates(a, b)
        for x, y in zip(a.values, b.values):
            if x == y == 1.0:
                saw["one"] = True
            elif x == y == 0.0:
                saw["zero"] = True
            elif x == y:
                saw["interior"] = True
            else:
                saw["gap"] = True
    assert all(saw.values())


def test_unit_draws_stay_in_range(alts2):
    sampler = RafSampler(alts2, 3)
    assert all(0.0 <= sampler.unit() < 1.0 for _ in range(100))


def test_alts_must_be_an_alternative_set():
    with pytest.raises(rp.ValidationError, match="AlternativeSet"):
        RafSampler(["a", "b"], 1)


class Reference:
    """The unbuffered sampler: one generator call per draw, checked points.

    ``raf`` takes its ``k`` values in one ``random(k)`` call and the other
    methods one value per call, with the lower fraction of a gap drawn by
    ``uniform``, as the sampler did before it read from a buffer.
    """

    def __init__(self, alts, rng):
        self.alts = alts
        self.rng = rng

    def unit(self):
        return float(self.rng.random())

    def positive_unit(self):
        v = self.unit()
        while v == 0.0:
            v = self.unit()
        return v

    def gap(self, v):
        return v * float(self.rng.uniform(0.0, 1.0 - RafSampler.STRICT_GAP))

    def raf(self):
        return rp.Raf(self.alts, tuple(float(v) for v in self.rng.random(len(self.alts))))

    def rafs(self, n):
        return [self.raf() for _ in range(n)]

    def _groups(self, size, n):
        for _ in range(n):
            yield tuple(self.rafs(size))

    def strictly_dominating_pair(self):
        upper, lower = [], []
        for _ in self.alts:
            v = self.positive_unit()
            upper.append(v)
            lower.append(self.gap(v))
        return rp.Raf(self.alts, tuple(upper)), rp.Raf(self.alts, tuple(lower))

    def pointwise_dominating_pair(self):
        upper, lower = [], []
        for case in [int(4 * self.unit()) for _ in self.alts]:
            if case == 0:
                v = w = 1.0
            elif case == 1:
                v = w = 0.0
            elif case == 2:
                v = w = self.positive_unit()
            else:
                v = self.positive_unit()
                w = self.gap(v)
            upper.append(v)
            lower.append(w)
        return rp.Raf(self.alts, tuple(upper)), rp.Raf(self.alts, tuple(lower))


def _run(sampler, ops):
    out = []
    for op, n in ops:
        if op == "rafs":
            out.append(sampler.rafs(n))
        elif op.startswith("groups"):
            # The first n of 2n groups of a fixed size, as check_order_axioms
            # draws candidates and stops at a witness.
            out.extend(islice(sampler._groups(int(op[6:]), 2 * n), n))
        else:
            out.extend(getattr(sampler, op)() for _ in range(n))
    return out


OPS = ["unit", "raf", "rafs", "strictly_dominating_pair", "pointwise_dominating_pair"]
OPS += [f"groups{size}" for size in range(1, 5)]
LONG = [(op, 300) for op in OPS] * 2


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([2, 3, 5, 8]),
    seed=st.integers(0, 2**32),
    block=st.sampled_from([1, 3, 16, sampling._BLOCK]),
    chunk=st.sampled_from([1, 7, sampling._CHUNK]),
    ops=st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 60)), max_size=40),
)
@example(k=2, seed=0, block=sampling._BLOCK, chunk=sampling._CHUNK, ops=LONG)
@example(k=5, seed=1, block=sampling._BLOCK, chunk=sampling._CHUNK, ops=LONG)
@example(k=8, seed=2, block=sampling._BLOCK, chunk=sampling._CHUNK, ops=LONG[::-1])
def test_any_interleaving_reads_the_reference_stream(k, seed, block, chunk, ops):
    # LONG reads at least 3000 * k values, several refills at the real size;
    # the small sizes refill within a single point.  A group op stops
    # halfway through the groups it asked for, inside a chunk when n > 32.
    alts = rp.AlternativeSet(tuple(f"x{i}" for i in range(k)))
    reference = _run(Reference(alts, np.random.default_rng(seed)), ops)
    with mock.patch.object(sampling, "_BLOCK", block), mock.patch.object(sampling, "_CHUNK", chunk):
        assert _run(RafSampler(alts, seed), ops) == reference


@pytest.mark.parametrize("n", [-3, 0])
def test_empty_rafs_draw_nothing(alts3, n):
    sampler = RafSampler(alts3, 21)
    assert sampler.rafs(n) == []
    assert sampler.unit() == RafSampler(alts3, 21).unit()
    sampler.raf()
    assert sampler.rafs(n) == []
    fresh = RafSampler(alts3, 21)
    fresh.unit(), fresh.raf()
    assert sampler.unit() == fresh.unit()


class Scripted:
    """A stand-in generator that returns the given values, then 0.5."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0) if self.values else 0.5
        return np.array([self.random() for _ in range(size)])

    def uniform(self, low, high):
        return low + (high - low) * self.random()


def test_zero_upper_values_are_redrawn_in_stream_order(alts2):
    values = [
        0.0, 0.25, 0.5, 0.0, 0.0, 0.75, 0.5,  # strict pair, both uppers redrawn
        0.6, 0.9, 0.0, 0.4, 0.0, 0.8, 0.3,  # pointwise cases 2 and 3, both redrawn
        0.1, 0.2, 0.0, 0.3, 0.4,  # strict pair, the second upper redrawn
        0.7,
    ]
    ops = [
        ("strictly_dominating_pair", 1),
        ("pointwise_dominating_pair", 1),
        ("strictly_dominating_pair", 1),
        ("unit", 2),
    ]
    sampler = RafSampler(alts2, 0)
    sampler._rng = Scripted(values)
    drawn = _run(sampler, ops)
    assert drawn == _run(Reference(alts2, Scripted(values)), ops)
    assert drawn[:3] == [
        (rp.Raf(alts2, (0.25, 0.75)), rp.Raf(alts2, (0.25 * (0.5 * (1 - 1e-6)), 0.75 * (0.5 * (1 - 1e-6))))),
        (rp.Raf(alts2, (0.4, 0.8)), rp.Raf(alts2, (0.4, 0.8 * (0.3 * (1 - 1e-6))))),
        (rp.Raf(alts2, (0.1, 0.3)), rp.Raf(alts2, (0.1 * (0.2 * (1 - 1e-6)), 0.3 * (0.4 * (1 - 1e-6))))),
    ]
    assert drawn[3:] == [0.7, 0.5]


def test_sampled_points_are_checked_rafs(alts5):
    sampler = RafSampler(alts5, 4)
    points = sampler.rafs(50)
    for _ in range(50):
        points += sampler.strictly_dominating_pair()
        points += sampler.pointwise_dominating_pair()
    for point in points:
        checked = rp.Raf(alts5, point.values)
        assert point == checked and hash(point) == hash(checked)
        assert point.alts is alts5 and type(point.values) is tuple
        assert all(type(v) is float for v in point.values)
    with pytest.raises(dataclasses.FrozenInstanceError):
        points[0].values = (0.5,) * 5


def test_pointwise_stream_is_pinned():
    # Cases int(4 * u): 1, 3, 0, 0 for the first pair and 2, 0, 3, 3 for the
    # second.  A change of this stream shows here first.
    alts = rp.AlternativeSet(("a", "b", "c", "d"))
    sampler = RafSampler(alts, 12)
    first = sampler.pointwise_dominating_pair()
    second = sampler.pointwise_dominating_pair()
    assert [p.values for p in first] == [
        (0.0, 0.3498892405959575, 1.0, 1.0),
        (0.0, 0.08066382103148587, 1.0, 1.0),
    ]
    assert [p.values for p in second] == [
        (0.00282703218662006, 1.0, 0.5414661617187942, 0.2579549587609903),
        (0.00282703218662006, 1.0, 0.05785629136404836, 0.10754029342873117),
    ]
