"""Exception hierarchy shared across the package.

Every error raised by this package derives from :class:`RafPrefError`, so
callers can catch the whole family with one clause.  Errors that signal bad
inputs additionally derive from :class:`ValueError`; errors that signal a
property failure discovered at run time derive from :class:`RuntimeError`
and carry the witnessing data.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable, Mapping, Set
from typing import Any

__all__ = [
    "RafPrefError",
    "ValidationError",
    "AlternativeSetMismatchError",
    "DominanceHypothesisError",
    "DiagonalMonotonicityError",
    "MenuAxiomError",
]


class RafPrefError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RafPrefError, ValueError):
    """An input violates a constructor or operation contract."""


def _real(name: str, v: object, at: str | None = None) -> float:
    """``v`` as a plain float; bools, non-numbers, NaN and numbers beyond
    float range (a JSON integer of 400 digits, say) are rejected.

    Any ``numbers.Real`` is accepted, NumPy scalars included.  File points,
    spec parameters, sequence terms and ``scale_top`` levels are checked
    this way; sampled points and diagonal probes are built by
    ``raf._unchecked`` and skip it.  A plain float takes the exact-type test
    first (an ABC ``isinstance`` costs several times more), and ``at`` (a
    label within ``name``) is formatted only on failure.
    """
    if type(v) is float and v == v:
        return v
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or v != v:
        problem = f"must be a real number, got {v!r}"
    else:
        try:
            return float(v)
        except OverflowError:
            problem = "is too large for a float"
    where = "" if at is None else f" at {at!r}"
    raise ValidationError(f"{name}{where} {problem}")


def _count(name: str, v: object, minimum: int) -> int:
    """``v`` as a plain int if it is an integer of at least ``minimum`` (0 or 1).

    Any ``numbers.Integral`` except ``bool`` is accepted, NumPy integers
    included, so counts that reach a report serialize as JSON numbers.
    """
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < minimum:
        kind = "positive" if minimum else "nonnegative"
        raise ValidationError(f"{name} must be a {kind} integer, got {_shown(v)}")
    return int(v)


def _shown(v: object) -> str:
    try:
        return repr(v)
    except ValueError:  # an int past Python's digit limit for repr()
        return f"a {'negative ' if v < 0 else ''}number too long to print"


def _tol(v: object) -> float:
    """A bisection tolerance in [2**-54, 0.5]: finer levels are not exact floats."""
    tol = _real("tolerance", v)
    if not 2.0**-54 <= tol <= 0.5:
        raise ValidationError(f"tolerance must lie in [2**-54, 0.5] (float resolution), got {v!r}")
    return tol


def _labels(what: str, labels: tuple) -> None:
    """Nonempty strings without duplicates; ``what`` names them in messages."""
    seen: set[str] = set()
    for label in labels:
        if not isinstance(label, str) or not label:
            raise ValidationError(f"{what} labels must be nonempty strings, got {_shown(label)}")
        if label in seen:
            raise ValidationError(f"duplicate {what} label: {label!r}")
        seen.add(label)


def _sequence(name: str, v: object) -> tuple:
    """An ordered collection (in a document, a JSON array), as a tuple.

    Strings, mappings and sets are refused: iterating them would split a
    word into letters, keep only the keys or lose the order.
    """
    if isinstance(v, (str, bytes, Mapping, Set)) or not isinstance(v, Iterable):
        raise ValidationError(f"{name} must be a list, got {_shown(v)}")
    return tuple(v)


class AlternativeSetMismatchError(RafPrefError, ValueError):
    """Operands are defined over different alternative sets."""


class DominanceHypothesisError(RafPrefError, ValueError):
    """The perturbation construction requires pointwise dominance and it fails."""


class DiagonalMonotonicityError(RafPrefError, RuntimeError):
    """Membership along the diagonal ray is not monotone.

    Raised by the bisection when the full-availability point fails to be
    weakly preferred to the target, which contradicts the weak-dominance
    hypothesis the construction relies on.  ``t_member`` and ``t_nonmember``
    hold the probed parameters that witness the failure: ``t_member`` is 0
    if level 0 is a member, else the lowest member level of a hinted cell
    probed before the ends, which may lie inside (0, 1), and ``None`` when
    no member was seen before the failure.
    """

    def __init__(
        self,
        message: str,
        *,
        raf: Any = None,
        t_member: float | None = None,
        t_nonmember: float | None = None,
    ) -> None:
        super().__init__(message)
        self.raf = raf
        self.t_member = t_member
        self.t_nonmember = t_nonmember

    def in_context(self, context: str) -> "DiagonalMonotonicityError":
        """The same failure with ``context`` appended to its message."""
        return DiagonalMonotonicityError(
            f"{self} ({context})",
            raf=self.raf,
            t_member=self.t_member,
            t_nonmember=self.t_nonmember,
        )


class MenuAxiomError(RafPrefError, RuntimeError):
    """No menu item is weakly preferred to every other item.

    For a reflexive, connected, transitive oracle a finite menu always has a
    maximal item, so an empty maximal set proves an axiom violation.  ``kind``
    names the violated axiom (``"connectedness"`` or ``"transitivity"``) and
    ``witness`` carries the offending pair or strict-preference cycle as a
    tuple of menu labels.
    """

    def __init__(self, message: str, *, kind: str, witness: tuple[str, ...]) -> None:
        super().__init__(message)
        self.kind = kind
        self.witness = witness
