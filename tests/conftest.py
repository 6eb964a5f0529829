from __future__ import annotations

import pytest
from hypothesis import settings

import rafpref as rp

# Every property draws the same examples on every run, locally as in CI,
# and none is replayed from a local example database.  No deadline: a
# loaded machine must not turn a slow example into a failure.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def alts2() -> rp.AlternativeSet:
    return rp.AlternativeSet(("a", "b"))


@pytest.fixture
def alts3() -> rp.AlternativeSet:
    return rp.AlternativeSet(("a", "b", "c"))


@pytest.fixture
def alts5() -> rp.AlternativeSet:
    return rp.AlternativeSet(("a", "b", "c", "d", "e"))


@pytest.fixture
def oracle_factory():
    """Build a built-in oracle in one call: factory(kind, alts, **params)."""

    def make(kind: str, alts: rp.AlternativeSet, **params) -> rp.PreferenceOracle:
        if kind == "additive" and "weights" not in params:
            params["weights"] = (1.0 / len(alts),) * len(alts)
        if kind == "lexicographic" and "priority" not in params:
            params["priority"] = alts.labels
        if kind == "threshold" and "cutoff" not in params:
            params["cutoff"] = 0.5
        return rp.build_oracle(rp.PreferenceSpec(kind=kind, **params), alts)

    return make
