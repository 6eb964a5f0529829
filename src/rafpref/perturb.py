"""Strictly dominating sequences that witness a pointwise dominance.

Given RAFs ``upper`` and ``lower`` with ``upper(x) >= lower(x)`` everywhere,
the construction produces sequences converging to the pair whose terms are
strictly ordered at every coordinate.  Tied coordinates are resolved by a
rule depending on where the tie sits:

* tied at 1: the lower term drops by ``1/(2n)``;
* tied at 0: the upper term rises by ``1/(2n)``;
* tied strictly inside (0, 1): the lower term drops by ``margin/(2n)``,
  where the margin is half the smallest tied interior value, so the term
  stays strictly positive;
* a strict gap already: both terms stay put.

Every term is then a valid RAF and the upper term strictly dominates the
lower one.  Both terms stay within sup distance ``1/(2n)`` of their limits
while each lower step (``1/(2n)`` at 1, ``margin/(2n)`` inside) is at least
one ulp of its tied value.  Past that, the lower term is the next float
below the tied value, at most one ulp away, which can exceed ``1/(2n)``;
strict dominance still holds.  Within that range the bound is delicate at
double precision: subtracting a small step from a coordinate can round to a
point slightly *further* than the step, so the subtraction is clamped by one
representable-float nudge when needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DominanceHypothesisError, ValidationError, _count
from .raf import Raf, _require_same_alts

__all__ = ["PerturbationSequences", "perturbation_sequences"]


def _shrink(value: float, delta: float) -> float:
    """Largest representable point below ``value`` within ``delta`` of it.

    Guarantees ``result < value`` always, and ``value - result <= delta``
    whenever ``delta`` is at least one ulp of ``value``.  For smaller deltas
    the result is the predecessor float, at most one ulp below ``value``,
    which can be further than ``delta`` from it.
    """
    out = value - delta
    if value - out > delta:  # subtraction rounded past the step
        out = math.nextafter(out, value)
    if out >= value:  # delta below float resolution at value
        out = math.nextafter(value, 0.0)
    return out


@dataclass(frozen=True)
class PerturbationSequences:
    """The coordinate partition and margin behind a perturbation pair.

    ``at_one``, ``at_zero`` and ``tied_interior`` list the tied coordinates
    by where the tie sits; coordinates in none of them carry a strict gap
    already.  ``interior_margin`` is the shrink scale used on interior ties
    (half the smallest tied interior value; the placeholder 0.5 when there
    are none).
    """

    upper: Raf
    lower: Raf
    at_one: tuple[str, ...]
    at_zero: tuple[str, ...]
    tied_interior: tuple[str, ...]
    interior_margin: float

    def term(self, n: int) -> tuple[Raf, Raf]:
        """The n-th strictly dominating pair, ``n`` counted from 1."""
        n = _count("term index", n, 1)
        try:
            step = 0.5 / n
        except OverflowError:
            raise ValidationError("term index is too large for a float") from None
        upper_values = []
        lower_values = []
        # Each coordinate's case is read from its two values, as
        # perturbation_sequences classified it.
        for uv, lv in zip(self.upper.values, self.lower.values):
            if uv == lv == 0.0:
                uv += step
            elif uv == lv:
                lv = _shrink(lv, step if lv == 1.0 else self.interior_margin * step)
            upper_values.append(uv)
            lower_values.append(lv)
        return Raf(self.upper.alts, tuple(upper_values)), Raf(self.lower.alts, tuple(lower_values))


def perturbation_sequences(upper: Raf, lower: Raf) -> PerturbationSequences:
    """Partition the tied coordinates of a pointwise dominating pair.

    Raises :class:`DominanceHypothesisError`, naming the first offending
    coordinate, when ``upper`` does not pointwise dominate ``lower``.  The
    two RAFs may be equal; every coordinate is then a tie.
    """
    _require_same_alts(upper, lower)
    at_one = []
    at_zero = []
    tied_interior = []
    # Interior ties lie below 1, so with none the margin is the placeholder 0.5.
    smallest_tie = 1.0
    for label, uv, lv in zip(upper.alts.labels, upper.values, lower.values):
        if uv < lv:
            raise DominanceHypothesisError(
                f"pointwise dominance fails at {label!r}: {uv!r} < {lv!r}"
            )
        if uv == lv == 1.0:
            at_one.append(label)
        elif uv == lv == 0.0:
            at_zero.append(label)
        elif uv == lv:
            tied_interior.append(label)
            smallest_tie = min(smallest_tie, lv)
    return PerturbationSequences(
        upper=upper,
        lower=lower,
        at_one=tuple(at_one),
        at_zero=tuple(at_zero),
        tied_interior=tuple(tied_interior),
        interior_margin=0.5 * smallest_tie,
    )
