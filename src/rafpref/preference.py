"""Preference oracles over random availability functions.

A :class:`PreferenceOracle` answers the total weak-preference query "is the
first RAF at least as good as the second?".  Strict preference and
indifference are derived from that single query, never asked directly.

The built-in families cover the regularity landscape on purpose, so the
checkers and falsifiers in :mod:`rafpref.axioms` have known targets:

============== ================================================ ========== ============
kind           comparison                                       dominance  continuity
============== ================================================ ========== ============
additive       weighted sum of availabilities                   yes        yes
min            worst-coordinate availability                    yes        yes
geometric      product of availabilities                        yes        yes
lexicographic  coordinates compared in a fixed priority order   yes        no
anti_monotone  negated mean (less availability is better)       no         yes
threshold      aspiration cutoff on the mean; above the cutoff  no         no
               more is better, below it the order reverses
               (a near miss is worse than a clear miss)
============== ================================================ ========== ============

"dominance" means: coordinatewise strict improvement is strictly preferred.
"continuity" means: limits of termwise strictly preferred sequences stay
weakly preferred.  The two deliberately broken families each violate exactly
one of the hypotheses, which is what makes them useful as counterexamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import itemgetter, mul
from typing import Callable, Mapping

from .errors import AlternativeSetMismatchError, ValidationError, _real, _sequence
from .raf import AlternativeSet, Raf

__all__ = [
    "KINDS",
    "PreferenceSpec",
    "PreferenceOracle",
    "build_oracle",
    "strictly_prefers",
]

KINDS = frozenset(
    {"additive", "min", "geometric", "lexicographic", "anti_monotone", "threshold"}
)

#: Each hinted kind's closed-form diagonal inverse: the level ``t`` whose
#: constant point over ``k`` alternatives has the given key.  It is only a
#: hint for :func:`rafpref.utility.compute_u`, so rounding is harmless;
#: ``anti_monotone`` has none and is bisected.
_LEVELS: dict[str, Callable[[object, int], float]] = {
    "additive": lambda total, k: total,
    "min": lambda worst, k: worst,
    "geometric": lambda product, k: product ** (1.0 / k),
    "lexicographic": lambda key, k: key[0],
    # Below the cutoff the level is 0: membership at 0 already holds there.
    "threshold": lambda key, k: key[1] if key[0] else 0.0,
}

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class PreferenceSpec:
    """Declarative description of a built-in oracle.

    Exactly the parameters of the chosen kind may be present: ``weights``
    for ``additive``, ``priority`` for ``lexicographic`` and ``cutoff`` for
    ``threshold``.  ``weights`` and ``priority`` are ordered collections
    (a list, a tuple or a NumPy array); a string, mapping or set is refused.
    Length and permutation checks that need the alternative set happen in
    :func:`build_oracle`.
    """

    kind: str
    weights: tuple[float, ...] | None = None
    priority: tuple[str, ...] | None = None
    cutoff: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ValidationError(
                f"unknown preference kind {self.kind!r}; expected one of {sorted(KINDS)}"
            )
        if self.weights is not None:
            weights = _sequence("weights", self.weights)
            object.__setattr__(self, "weights", tuple(_real("weight", w) for w in weights))
        if self.priority is not None:
            object.__setattr__(self, "priority", _sequence("priority", self.priority))
        if self.cutoff is not None:
            object.__setattr__(self, "cutoff", _real("cutoff", self.cutoff))

        for field, owner in (("weights", "additive"), ("priority", "lexicographic"), ("cutoff", "threshold")):
            if getattr(self, field) is not None and self.kind != owner:
                raise ValidationError(f"kind {self.kind!r} does not take {field!r}")

        if self.kind == "additive":
            if not self.weights:
                raise ValidationError("additive preferences need a 'weights' list")
            if any(w <= 0.0 for w in self.weights):
                raise ValidationError("additive weights must all be strictly positive")
            if abs(sum(self.weights) - 1.0) > _WEIGHT_SUM_TOL:
                raise ValidationError(
                    f"additive weights must sum to 1 (within {_WEIGHT_SUM_TOL}), "
                    f"got {sum(self.weights)!r}"
                )
        elif self.kind == "lexicographic":
            if not self.priority:
                raise ValidationError("lexicographic preferences need a 'priority' list")
        elif self.kind == "threshold":
            if self.cutoff is None:
                raise ValidationError("threshold preferences need a 'cutoff'")
            if not 0.0 < self.cutoff < 1.0:
                raise ValidationError(f"cutoff must lie strictly inside (0, 1), got {self.cutoff!r}")

    def describe(self) -> str:
        """Canonical short name, stable across runs."""
        if self.kind == "additive":
            return "additive[" + ",".join(repr(w) for w in self.weights or ()) + "]"
        if self.kind == "lexicographic":
            return "lexicographic[" + ">".join(self.priority or ()) + "]"
        if self.kind == "threshold":
            return f"threshold[{self.cutoff!r}]"
        return self.kind

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.weights is not None:
            out["weights"] = list(self.weights)
        if self.priority is not None:
            out["priority"] = list(self.priority)
        if self.cutoff is not None:
            out["cutoff"] = self.cutoff
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "PreferenceSpec":
        if not isinstance(data, Mapping) or "kind" not in data:
            raise ValidationError("a preference spec document needs a 'kind' field")
        known = {f.name for f in fields(cls)}
        # str orders string keys as before; repr breaks ties such as 1 and "1".
        stray = sorted(set(data) - known, key=lambda k: (str(k), repr(k)))
        if stray:
            raise ValidationError(f"unexpected preference spec fields: {stray}")
        return cls(**data)


class PreferenceOracle:
    """Deterministic total weak-preference query over a fixed alternative set.

    Wraps any callable ``(a, b) -> bool``.  Determinism, totality and the
    order axioms are behavioural contracts: they are not enforced here but
    probed by :func:`rafpref.axioms.check_order_axioms`.  ``key`` optionally
    exposes the comparison key of score-based oracles so exact argmax cross
    checks are possible.  ``diagonal`` optionally guesses, as a float, the
    utility of a point: the diagonal level it is indifferent to.  The guess
    is not a query and is never trusted; :func:`rafpref.utility.compute_u`
    checks it with membership queries and costs at most one extra query
    when it is wrong.
    """

    def __init__(
        self,
        name: str,
        alts: AlternativeSet,
        query: Callable[[Raf, Raf], bool],
        *,
        key: Callable[[Raf], object] | None = None,
        diagonal: Callable[[Raf], float] | None = None,
    ) -> None:
        self.name = name
        self.alts = alts
        self.key = key
        self.diagonal = diagonal
        self._query = query

    def weak_prefers(self, a: Raf, b: Raf) -> bool:
        """Is ``a`` at least as good as ``b``?"""
        if (a.alts is not self.alts and a.alts != self.alts) or (
            b.alts is not self.alts and b.alts != self.alts
        ):
            raise AlternativeSetMismatchError(
                f"oracle {self.name!r} is defined over {self.alts.labels}, "
                f"got operands over {a.alts.labels} and {b.alts.labels}"
            )
        return bool(self._query(a, b))

    def __repr__(self) -> str:
        return f"PreferenceOracle({self.name!r}, alts={self.alts.labels})"


def build_oracle(spec: PreferenceSpec, alts: AlternativeSet) -> PreferenceOracle:
    """Instantiate a built-in oracle over ``alts``.

    Raises :class:`ValidationError` when ``spec`` carries parameters that do
    not fit the alternative set (wrong weight count, priority not a
    permutation).  Every kind but ``anti_monotone`` gets a ``diagonal`` hint
    from its closed form.
    """
    k = len(alts)
    key: Callable[[Raf], object]
    if spec.kind == "additive":
        weights = spec.weights or ()
        if len(weights) != k:
            raise ValidationError(
                f"need {k} weights for alternatives {alts.labels}, got {len(weights)}"
            )

        def key(raf: Raf, _w: tuple[float, ...] = weights) -> float:
            return sum(map(mul, _w, raf.values))

    elif spec.kind == "min":

        def key(raf: Raf) -> float:
            return min(raf.values)

    elif spec.kind == "geometric":

        def key(raf: Raf) -> float:
            return math.prod(raf.values)

    elif spec.kind == "lexicographic":
        priority = spec.priority or ()
        if len(priority) != k or any(label not in priority for label in alts.labels):
            raise ValidationError(
                f"priority must be a permutation of {alts.labels}, got {priority}"
            )
        # k >= 2, so the getter always returns a tuple.
        pick = itemgetter(*(alts.index(label) for label in priority))

        def key(raf: Raf, _pick: Callable = pick) -> tuple[float, ...]:
            return _pick(raf.values)

    elif spec.kind == "anti_monotone":

        def key(raf: Raf, _k: int = k) -> float:
            return -sum(raf.values) / _k

    elif spec.kind == "threshold":
        cutoff = float(spec.cutoff)  # type: ignore[arg-type]

        def key(raf: Raf, _k: int = k, _c: float = cutoff) -> tuple[int, float]:
            mean = sum(raf.values) / _k
            # Below the aspiration level the order reverses: having almost
            # reached the cutoff and missed is judged worse than a clear miss.
            return (1, mean) if mean >= _c else (0, -mean)

    else:  # pragma: no cover - PreferenceSpec already rejects unknown kinds
        raise ValidationError(f"unknown preference kind {spec.kind!r}")

    # compute_u asks about the same target ``b`` on every query, so the
    # last target's key is kept.  Raf is immutable and the slot holds a strong
    # reference, so an identity match means the key is still right; the slot
    # is one tuple, replaced whole, so a RAF is never paired with another's key.
    last: tuple[object, object] = (None, None)

    def query(a: Raf, b: Raf) -> bool:
        nonlocal last
        target, target_key = last
        if target is not b:
            target_key = key(b)
            last = (b, target_key)
        return key(a) >= target_key  # type: ignore[operator]

    diagonal = None
    level = _LEVELS.get(spec.kind)
    if level is not None:

        def diagonal(raf: Raf) -> float:
            return level(key(raf), k)

    return PreferenceOracle(spec.describe(), alts, query, key=key, diagonal=diagonal)


def strictly_prefers(oracle: PreferenceOracle, a: Raf, b: Raf) -> bool:
    """Is ``a`` better than ``b``: weakly preferred but not conversely?"""
    return oracle.weak_prefers(a, b) and not oracle.weak_prefers(b, a)
