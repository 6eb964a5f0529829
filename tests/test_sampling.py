from __future__ import annotations

import numpy as np
import pytest

import rafpref as rp
from rafpref import RafSampler, pointwise_dominates, strictly_dominates


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
