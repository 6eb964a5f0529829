"""Value types and pointwise predicates for random availability functions.

A random availability function (RAF) assigns to each alternative in a fixed
finite set the probability that the alternative turns out to be available.
The space of RAFs over ``k`` alternatives is the unit cube ``[0, 1]^k``.  Two
distinguished corners recur throughout the package: :func:`top`, where every
alternative is surely available, and :func:`bottom`, where nothing is.  The
segment between them, parameterised by :func:`scale_top`, is the diagonal ray
used by the utility construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import AlternativeSetMismatchError, ValidationError, _labels, _real, _sequence

__all__ = [
    "AlternativeSet",
    "Raf",
    "make_raf",
    "top",
    "bottom",
    "scale_top",
    "strictly_dominates",
    "pointwise_dominates",
    "sup_distance",
]


@dataclass(frozen=True)
class AlternativeSet:
    """Ordered, duplicate-free collection of alternative labels.

    At least two alternatives are required: with a single alternative the
    cube degenerates to a segment and choice questions trivialise.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = _sequence("alts", self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 2:
            raise ValidationError(
                f"an alternative set needs at least 2 alternatives, got {len(labels)}"
            )
        _labels("alternative", labels)

    def index(self, label: str) -> int:
        """Position of ``label``, raising :class:`ValidationError` if unknown."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown alternative: {label!r}") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self.labels


@dataclass(frozen=True)
class Raf:
    """A random availability function: one availability probability per alternative.

    Values are stored in the order of ``alts.labels``.  Instances are
    immutable and hashable, so they can be shared and cached freely.
    """

    alts: AlternativeSet
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        # Every point of a RAF or menu file comes through here as its JSON list
        # (Menu.from_dict), so a list or tuple skips _sequence's ABC checks.
        raw = self.values if type(self.values) in (tuple, list) else _sequence("values", self.values)
        if len(raw) != len(self.alts):
            raise ValidationError(
                f"expected {len(self.alts)} values for alternatives {self.alts.labels}, "
                f"got {len(raw)}"
            )
        values = []
        for label, v in zip(self.alts.labels, raw):
            v = _real("availability", v, label)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"availability out of [0, 1] at {label!r}: {v!r}")
            values.append(v)
        object.__setattr__(self, "values", tuple(values))

    def value(self, label: str) -> float:
        """Availability of a single alternative."""
        return self.values[self.alts.index(label)]

    def to_dict(self) -> dict:
        """JSON-ready form: ``{"alts": [...], "values": [...]}``."""
        return {"alts": list(self.alts.labels), "values": list(self.values)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Raf":
        """Inverse of :meth:`to_dict`; validates shape and ranges."""
        try:
            alts = data["alts"]
            values = data["values"]
        except (KeyError, TypeError):
            raise ValidationError(
                "a RAF document needs 'alts' and 'values' fields"
            ) from None
        return cls(AlternativeSet(alts), values)


def make_raf(alts: AlternativeSet, values: Sequence[float] | Iterable[float]) -> Raf:
    """Build a RAF over ``alts``, validating length and the [0, 1] range."""
    return Raf(alts, values)


def top(alts: AlternativeSet) -> Raf:
    """The RAF where every alternative is surely available."""
    return Raf(alts, (1.0,) * len(alts))


def bottom(alts: AlternativeSet) -> Raf:
    """The RAF where no alternative is ever available."""
    return Raf(alts, (0.0,) * len(alts))


def _unchecked(alts: AlternativeSet, values: tuple[float, ...]) -> Raf:
    # The caller guarantees a tuple of len(alts) plain floats in [0, 1].
    # Bisections and samplers build one such point per query or draw, so
    # skipping the per-coordinate checks of __post_init__ is most of its cost.
    # The fields are plain instance attributes, so filling the instance dict
    # is what object.__setattr__ would do, at a third of the cost.
    point = object.__new__(Raf)
    fields = point.__dict__
    fields["alts"] = alts
    fields["values"] = values
    return point


def _diagonal(alts: AlternativeSet, t: float) -> Raf:
    # Unchecked: the caller guarantees that t is a float in [0, 1].
    return _unchecked(alts, (t,) * len(alts))


def scale_top(t: float, alts: AlternativeSet) -> Raf:
    """The constant RAF with every availability equal to ``t``.

    ``scale_top(0, alts)`` is :func:`bottom` and ``scale_top(1, alts)`` is
    :func:`top`; in between the function walks the diagonal of the cube.
    """
    t = _real("diagonal parameter", t)
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"diagonal parameter out of [0, 1]: {t!r}")
    return _diagonal(alts, t)


def _require_same_alts(a: Raf, b: Raf) -> None:
    if a.alts is not b.alts and a.alts != b.alts:
        raise AlternativeSetMismatchError(
            f"operands use different alternative sets: "
            f"{a.alts.labels} vs {b.alts.labels}"
        )


def strictly_dominates(a: Raf, b: Raf) -> bool:
    """True when ``a`` exceeds ``b`` in every coordinate."""
    _require_same_alts(a, b)
    return all(x > y for x, y in zip(a.values, b.values))


def pointwise_dominates(a: Raf, b: Raf) -> bool:
    """True when ``a`` is at least ``b`` in every coordinate (ties allowed)."""
    _require_same_alts(a, b)
    return all(x >= y for x, y in zip(a.values, b.values))


def sup_distance(a: Raf, b: Raf) -> float:
    """Largest coordinatewise gap between two RAFs (the sup metric on the cube)."""
    _require_same_alts(a, b)
    return max(abs(x - y) for x, y in zip(a.values, b.values))
