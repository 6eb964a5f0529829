"""Seeded samplers feeding the axiom checkers and validators.

Everything is driven by one :class:`numpy.random.Generator`, so a run is
fully reproducible from its seed.  Besides plain uniform draws the sampler
produces structured pairs: strictly dominating ones (every coordinate of the
first exceeds the second by a guaranteed gap) and pointwise dominating ones
that deliberately mix tied and gapped coordinates, including ties at both
cube corners, because those are the cases the perturbation construction has
to treat separately.
"""

from __future__ import annotations

import numpy as np

from .errors import _count
from .raf import AlternativeSet, Raf

__all__ = ["RafSampler"]


class RafSampler:
    """Draws RAFs over a fixed alternative set from a seeded generator."""

    #: Guaranteed per-coordinate gap of :meth:`strictly_dominating_pair`.
    STRICT_GAP = 1e-6

    def __init__(self, alts: AlternativeSet, seed: int) -> None:
        self.alts = alts
        self.seed = _count("seed", seed, 0)
        self._rng = np.random.default_rng(self.seed)

    def unit(self) -> float:
        """One uniform draw from [0, 1)."""
        return float(self._rng.random())

    def _positive_unit(self) -> float:
        v = float(self._rng.random())
        while v == 0.0:
            v = float(self._rng.random())
        return v

    def raf(self) -> Raf:
        """One RAF with independent uniform coordinates."""
        return Raf(self.alts, tuple(float(v) for v in self._rng.random(len(self.alts))))

    def rafs(self, n: int) -> list[Raf]:
        return [self.raf() for _ in range(n)]

    def strictly_dominating_pair(self) -> tuple[Raf, Raf]:
        """A pair where the first RAF strictly dominates the second.

        Each upper coordinate is a positive uniform and the lower one is a
        fraction of it bounded away from 1, so the gap never collapses to a
        tie under rounding.
        """
        upper = []
        lower = []
        for _ in range(len(self.alts)):
            u = self._positive_unit()
            upper.append(u)
            lower.append(u * float(self._rng.uniform(0.0, 1.0 - self.STRICT_GAP)))
        return Raf(self.alts, tuple(upper)), Raf(self.alts, tuple(lower))

    def pointwise_dominating_pair(self) -> tuple[Raf, Raf]:
        """A pair where the first RAF pointwise dominates the second.

        Each coordinate independently lands in one of four cases: tied at 1,
        tied at 0, tied strictly inside (0, 1), or a strict gap.
        """
        upper = []
        lower = []
        for case in self._rng.integers(0, 4, size=len(self.alts)):
            if case == 0:
                u = l = 1.0
            elif case == 1:
                u = l = 0.0
            elif case == 2:
                u = l = self._positive_unit()
            else:
                u = self._positive_unit()
                l = u * float(self._rng.uniform(0.0, 1.0 - self.STRICT_GAP))
            upper.append(u)
            lower.append(l)
        return Raf(self.alts, tuple(upper)), Raf(self.alts, tuple(lower))
