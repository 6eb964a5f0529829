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

from typing import Iterator

from .errors import ValidationError, _count
from .raf import AlternativeSet, Raf, _unchecked

__all__ = ["RafSampler"]

#: Doubles fetched from the generator per refill.  Any size serves the same
#: stream, since ``Generator.random(n)`` returns the next ``n`` single draws.
_BLOCK = 1024

#: Groups of points :meth:`RafSampler._groups` builds at once.
_CHUNK = 64


class RafSampler:
    """Draws RAFs over a fixed alternative set from a seeded generator.

    Every method reads one stream of uniform doubles in ``[0, 1)``, the
    successive draws of ``numpy.random.default_rng(seed).random()``, fetched
    in blocks.  With ``k = len(alts)``:

    - :meth:`unit` is the next value and a point from :meth:`raf` is the
      next ``k``; :meth:`rafs` reads the next ``n * k`` in one read, the
      values of ``n`` calls of :meth:`raf`;
    - :meth:`strictly_dominating_pair` reads two values per coordinate: an
      upper value ``v``, redrawn while it is ``0.0``, then ``u``, and sets
      the lower value to ``v * ((1 - STRICT_GAP) * u)``, which is
      ``v * rng.uniform(0, 1 - STRICT_GAP)`` bit for bit;
    - :meth:`pointwise_dominating_pair` reads ``k`` values first and takes
      coordinate ``i``'s case as ``int(4 * u_i)``, which is exactly uniform
      on ``{0, 1, 2, 3}``, then the values its cases need.
    """

    #: Guaranteed per-coordinate gap of :meth:`strictly_dominating_pair`.
    STRICT_GAP = 1e-6

    def __init__(self, alts: AlternativeSet, seed: int) -> None:
        # Points are built unchecked, so a wrong alts would fail only later.
        if not isinstance(alts, AlternativeSet):
            raise ValidationError(f"alts must be an AlternativeSet, got {type(alts).__name__}")
        self.alts = alts
        self.seed = _count("seed", seed, 0)
        self._k = len(alts)
        # Imported here, so a command that never samples does not load numpy.
        import numpy as np

        self._rng = np.random.default_rng(self.seed)
        self._buffer: tuple[float, ...] = ()
        self._next = 0

    def _take(self, n: int) -> tuple[float, ...]:
        """The next ``n`` values of the stream."""
        start = self._next
        stop = start + n
        if stop > len(self._buffer):
            fresh = self._rng.random(max(n, _BLOCK)).tolist()
            self._buffer = self._buffer[start:] + tuple(fresh)
            start, stop = 0, n
        self._next = stop
        return self._buffer[start:stop]

    def unit(self) -> float:
        """One uniform draw from [0, 1)."""
        return self._take(1)[0]

    def _positive_unit(self) -> float:
        v = self.unit()
        while v == 0.0:
            v = self.unit()
        return v

    def raf(self) -> Raf:
        """One RAF with independent uniform coordinates."""
        return _unchecked(self.alts, self._take(self._k))

    def rafs(self, n: int) -> list[Raf]:
        """``n`` RAFs as from :meth:`raf`; none, and no draw, for ``n <= 0``."""
        if n <= 0:
            # A negative take would move the stream backwards.
            return []
        alts, k = self.alts, self._k
        values = self._take(n * k)
        return [_unchecked(alts, values[i : i + k]) for i in range(0, n * k, k)]

    def _groups(self, size: int, n: int) -> Iterator[tuple[Raf, ...]]:
        """``n`` tuples of ``size >= 1`` points, each the values of ``rafs(size)``.

        The points of up to :data:`_CHUNK` tuples are built at once, but the
        stream moves past a tuple only when it is yielded: a caller that stops
        early leaves the next read where ``n`` calls of :meth:`rafs` would
        have.  No other read may come between two tuples.
        """
        alts, k = self.alts, self._k
        step = size * k
        while n > 0:
            m = min(n, _CHUNK)
            values = self._take(m * step)
            self._next -= m * step
            points = [_unchecked(alts, values[i : i + k]) for i in range(0, m * step, k)]
            for i in range(0, m * size, size):
                self._next += step
                yield tuple(points[i : i + size])
            n -= m

    def strictly_dominating_pair(self) -> tuple[Raf, Raf]:
        """A pair where the first RAF strictly dominates the second.

        Each upper coordinate is a positive uniform and the lower one is a
        fraction of it bounded away from 1, so the gap never collapses to a
        tie under rounding.
        """
        k = self._k
        draws = self._take(2 * k)
        for i in range(0, 2 * k, 2):
            # A zero upper value is redrawn: the values after it move up one
            # place and the next value of the stream closes the pair.
            while draws[i] == 0.0:
                draws = draws[:i] + draws[i + 1 :] + self._take(1)
        upper = draws[::2]
        span = 1.0 - self.STRICT_GAP
        lower = tuple(v * (span * u) for v, u in zip(upper, draws[1::2]))
        return _unchecked(self.alts, upper), _unchecked(self.alts, lower)

    def pointwise_dominating_pair(self) -> tuple[Raf, Raf]:
        """A pair where the first RAF pointwise dominates the second.

        Each coordinate independently lands in one of four cases: tied at 1,
        tied at 0, tied strictly inside (0, 1), or a strict gap.  ``k`` draws
        are read first and coordinate ``i``'s case is ``int(4 * u_i)``, exactly
        uniform; then the values its case needs are read.
        """
        upper = []
        lower = []
        for case in [int(4.0 * u) for u in self._take(self._k)]:
            if case == 0:
                u = l = 1.0
            elif case == 1:
                u = l = 0.0
            elif case == 2:
                u = l = self._positive_unit()
            else:
                u = self._positive_unit()
                l = u * ((1.0 - self.STRICT_GAP) * self.unit())
            upper.append(u)
            lower.append(l)
        return _unchecked(self.alts, tuple(upper)), _unchecked(self.alts, tuple(lower))
