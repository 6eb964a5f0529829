"""Sampled checks and falsifiers for the order and regularity axioms.

The axioms quantify over an uncountable space, so nothing here proves
anything.  Each of the five checks returns an :class:`AxiomCheck`.  A clean
outcome is ``"passed_sampled"``; a dirty one is ``"falsified"`` and carries a
concrete witness that has been replayed through the public predicates, so a
report is never wrong about a falsification.  Continuity falsification is
additionally only semi-decidable: the fixed family library either exhibits
a witness or says ``"not_falsified"`` at this depth, never "verified".
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain, permutations, repeat
from typing import Callable, Iterable, Sequence

from .errors import ValidationError, _count, _real, _sequence
from .preference import PreferenceOracle, strictly_prefers
from .raf import AlternativeSet, Raf, bottom, scale_top, top
from .sampling import RafSampler

__all__ = [
    "PASSED_SAMPLED",
    "NOT_FALSIFIED",
    "FALSIFIED",
    "AxiomCheck",
    "check_order_axioms",
    "falsify_weak_dominance",
    "SequenceFamily",
    "builtin_families",
    "falsify_weak_continuity",
]

PASSED_SAMPLED = "passed_sampled"
NOT_FALSIFIED = "not_falsified"
FALSIFIED = "falsified"

_NOT_A_VERIFICATION = (
    "not falsified at this depth; the check is semi-decidable and this is not a verification"
)

#: The six ordered pairs of a triple's positions.  :data:`_TREE` names them
#: by place; a probe that finds a triple intransitive asks the pairs it has
#: not asked in this order.
_PAIRS = [(x, y) for x in range(3) for y in range(3) if x != y]

#: Each ordering ``(x, y, z)`` of a triple, in ``permutations`` order, with
#: the places in :data:`_PAIRS` of the answers to ``x >= y``, ``y >= z`` and
#: ``x >= z``.
_PERMS = tuple(
    ((x, y, z), _PAIRS.index((x, y)), _PAIRS.index((y, z)), _PAIRS.index((x, z)))
    for x, y, z in permutations(range(3))
)

_HOLDS, _BROKEN = -1, -2

#: The transitivity probe's decision tree.  Node ``i`` is ``(q, no, yes)``:
#: ask the pair ``_PAIRS[q]``, then go to node ``no`` or ``yes``, or stop at
#: :data:`_HOLDS` (no ordering ``(x, y, z)`` can have ``x >= y``, ``y >= z``
#: and not ``x >= z``) or :data:`_BROKEN` (some ordering must).  It asks 25/6
#: queries on average over the six strict rankings of a triple, the least any
#: tree can, 4 to 6 on every weak order, and never a pair twice.  Of the trees
#: with that mean it asks the fewest queries over all 64 answer patterns.
_TREE = (
    (0, 1, 15),
    (3, 2, 8),
    (1, 3, 6),
    (4, 4, _HOLDS),
    (2, _HOLDS, 5),
    (5, _HOLDS, _BROKEN),
    (2, 7, _BROKEN),
    (5, _HOLDS, _BROKEN),
    (2, 9, 12),
    (4, 10, _BROKEN),
    (1, _HOLDS, 11),
    (5, _HOLDS, _BROKEN),
    (5, _HOLDS, 13),
    (1, 14, _BROKEN),
    (4, _BROKEN, _HOLDS),
    (1, 16, 21),
    (3, 17, _BROKEN),
    (4, 18, 20),
    (2, _HOLDS, 19),
    (5, _HOLDS, _BROKEN),
    (5, _BROKEN, _HOLDS),
    (2, 22, 25),
    (4, _HOLDS, 23),
    (3, 24, _BROKEN),
    (5, _BROKEN, _HOLDS),
    (3, _BROKEN, 26),
    (4, 27, 28),
    (5, _HOLDS, _BROKEN),
    (5, _BROKEN, _HOLDS),
)


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one axiom's sampled check.

    ``samples`` counts the candidates probed, up to the witness if one is
    found; ``witness`` is its JSON-ready record.  ``note`` says when a
    verdict must not be read as a verification.
    """

    axiom: str
    verdict: str
    samples: int
    witness: dict | None = None
    note: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict != FALSIFIED

    def to_dict(self) -> dict:
        return asdict(self)


def _roles(*roles: str) -> Callable[..., dict]:
    """A witness record that names each point of the witness by its role."""
    return lambda *rafs: {role: raf.to_dict() for role, raf in zip(roles, rafs)}


def _search(
    axiom: str,
    candidates: Iterable[tuple],
    violated: Callable[..., bool],
    record: Callable[..., dict],
    find: Callable[[tuple], tuple | None] | None = None,
    clean: str = PASSED_SAMPLED,
    note: str | None = None,
) -> AxiomCheck:
    """``axiom``'s check: the first witness among ``candidates`` that replays.

    ``violated(*witness)`` is the predicate of one violation.  ``find``
    probes a candidate for a witness; by default the candidate is probed
    with ``violated`` and is its own witness.  A witness counts only when
    ``violated`` holds again on replay, and only then is ``record(*witness)``
    built.  Without one the check has the verdict ``clean`` and the ``note``.
    """
    samples = 0
    for samples, candidate in enumerate(candidates, 1):
        if find is None:
            witness = candidate if violated(*candidate) else None
        else:
            witness = find(candidate)
        if witness is not None and violated(*witness):
            return AxiomCheck(axiom, FALSIFIED, samples, record(*witness))
    return AxiomCheck(axiom, clean, samples, note=note)


def check_order_axioms(
    oracle: PreferenceOracle,
    sampler: RafSampler,
    n_pairs: int,
    n_triples: int,
) -> tuple[AxiomCheck, AxiomCheck, AxiomCheck]:
    """Probe reflexivity, connectedness and transitivity on random draws.

    Returns ``(reflexivity, connectedness, transitivity)``, one
    :class:`AxiomCheck` each, in that order.  Reflexivity and connectedness
    each use ``n_pairs`` draws, transitivity uses ``n_triples`` triples.  A
    triple is probed along a decision tree that asks each ordered pair at
    most once and stops as soon as the answers settle transitivity: 25/6
    queries on average over the strict rankings, at most 6.  An
    intransitive triple has all six pairs asked, and its witness is the
    first violated ordering in ``permutations`` order.  The first violation
    of each axiom is re-queried before it is reported.
    """
    n_pairs = _count("n_pairs", n_pairs, 1)
    n_triples = _count("n_triples", n_triples, 1)
    weak = oracle.weak_prefers

    def irreflexive(a: Raf) -> bool:
        return not weak(a, a)

    def incomparable(a: Raf, b: Raf) -> bool:
        return not weak(a, b) and not weak(b, a)

    def intransitive(x: Raf, y: Raf, z: Raf) -> bool:
        return weak(x, y) and weak(y, z) and not weak(x, z)

    def broken_order(triple: Sequence[Raf]) -> tuple[Raf, Raf, Raf] | None:
        # Walk _TREE until the answers settle the triple.  An intransitive
        # one has its other pairs asked too, so the witness is the first
        # violated ordering in permutations order.
        rel = [None] * 6
        node = 0
        while node >= 0:
            q, no, yes = _TREE[node]
            x, y = _PAIRS[q]
            rel[q] = answer = weak(triple[x], triple[y])
            node = yes if answer else no
        if node == _HOLDS:
            return None
        for q, (x, y) in enumerate(_PAIRS):
            if rel[q] is None:
                rel[q] = weak(triple[x], triple[y])
        for (x, y, z), xy, yz, xz in _PERMS:
            if rel[xy] and rel[yz] and not rel[xz]:
                return triple[x], triple[y], triple[z]
        return None

    checks = []
    for axiom, n, roles, violated, find in (
        ("reflexivity", n_pairs, ("raf",), irreflexive, None),
        ("connectedness", n_pairs, ("first", "second"), incomparable, None),
        ("transitivity", n_triples, ("first", "second", "third"), intransitive, broken_order),
    ):
        # Drawn lazily, one read per candidate: sampling stops at the first
        # replayed witness.
        draws = map(sampler.rafs, repeat(len(roles), n))
        checks.append(_search(axiom, draws, violated, _roles(*roles), find))
    return tuple(checks)


def falsify_weak_dominance(
    oracle: PreferenceOracle,
    sampler: RafSampler,
    n_pairs: int,
) -> AxiomCheck:
    """Search for a strictly dominating pair that is not strictly preferred.

    The canonical pair (everything available, nothing available) is always
    probed first as candidate 1; ``n_pairs`` sampled strictly dominating
    pairs follow, so a passed check counts ``n_pairs + 1`` samples.  A
    witness is recorded as ``{"first", "second"}``, the dominating point
    first.
    """
    n_pairs = _count("n_pairs", n_pairs, 1)

    def not_strictly_preferred(a: Raf, b: Raf) -> bool:
        return not strictly_prefers(oracle, a, b)

    # Drawn lazily: sampling stops at the first replayed witness.
    sampled = (sampler.strictly_dominating_pair() for _ in range(n_pairs))
    candidates = chain([(top(oracle.alts), bottom(oracle.alts))], sampled)
    return _search("weak_dominance", candidates, not_strictly_preferred, _roles("first", "second"))


@dataclass(frozen=True)
class SequenceFamily:
    """A parametric pair of RAF sequences together with their limits.

    ``term(n)`` (``n`` from 1) yields the n-th pair.  The limits are the
    term at ``n = math.inf``, so a term must be written such that every part
    that vanishes as ``n`` grows evaluates to exactly ``0.0`` there (as
    ``1.0 / (4.0 * n)`` does).  Families are the probes of the continuity
    falsifier: a witness is a family whose terms are all strictly preferred
    one way while the limits are strictly preferred the other way.
    """

    description: str
    term: Callable[[float], tuple[Raf, Raf]]

    @property
    def limits(self) -> tuple[Raf, Raf]:
        """The pair both sequences converge to: the term at ``n = inf``."""
        return self.term(math.inf)

    def swapped(self) -> "SequenceFamily":
        """The same family with the two sides exchanged."""
        term = self.term
        return SequenceFamily(f"{self.description} (swapped)", lambda n: term(n)[::-1])


def builtin_families(
    alts: AlternativeSet, loci: Sequence[float] = (0.5,)
) -> list[SequenceFamily]:
    """The fixed library of convergent sequence pairs, in both orientations.

    Three shapes are generated: approaches to a point of the diagonal from
    above, straddles of a diagonal locus (a constant anchor on one side of
    the locus against a ray converging to it from the other side, in both
    the low and high variants), and single-coordinate bumps against a
    constant that differs elsewhere.  ``loci`` lists the straddled points
    and replaces the default ``(0.5,)``, so an oracle with a declared
    discontinuity (a threshold cutoff, say) needs ``(0.5, cutoff)`` to keep
    the midpoint straddled as well.
    """
    families = []

    for t0 in (0.25, 0.5, 0.75):
        def term(n: float, _t0: float = t0) -> tuple[Raf, Raf]:
            return scale_top(_t0 + 1.0 / (4.0 * n), alts), scale_top(_t0, alts)

        families.append(SequenceFamily(f"diagonal approach to {t0} from above", term))

    seen = set()
    for locus in _sequence("loci", loci):
        c = _real("straddle locus", locus)
        if not 0.0 < c < 1.0:
            raise ValidationError(f"straddle locus must lie strictly inside (0, 1), got {locus!r}")
        if c in seen:
            continue
        seen.add(c)

        def below_term(n: float, _c: float = c) -> tuple[Raf, Raf]:
            return scale_top(_c / 4.0, alts), scale_top(_c * (1.0 - 1.0 / (2.0 * n)), alts)

        def above_term(n: float, _c: float = c) -> tuple[Raf, Raf]:
            high = _c + 3.0 * (1.0 - _c) / 4.0
            return scale_top(high, alts), scale_top(_c + (1.0 - _c) / (2.0 * n), alts)

        families.append(SequenceFamily(f"low anchor against a ray rising to {c}", below_term))
        families.append(SequenceFamily(f"high anchor against a ray falling to {c}", above_term))

    k = len(alts)
    for i, label in enumerate(alts.labels):
        def bump_term(n: float, _i: int = i) -> tuple[Raf, Raf]:
            moving = tuple(
                (0.5 + 1.0 / (4.0 * n)) if j == _i else 0.0 for j in range(k)
            )
            anchor = tuple(0.5 if j == _i else 1.0 for j in range(k))
            return Raf(alts, moving), Raf(alts, anchor)

        description = f"bump on {label} against a constant that is better elsewhere"
        families.append(SequenceFamily(description, bump_term))

    return families + [f.swapped() for f in families]


def falsify_weak_continuity(
    oracle: PreferenceOracle,
    families: Iterable[SequenceFamily],
    depth: int,
) -> AxiomCheck:
    """Search the family library for a continuity violation.

    A witness requires strict preference of the first side at every term up
    to ``depth`` together with strict preference of the *second* side in the
    limit; its record names the family and gives ``depth``, the first term
    and the limits.  A check without a witness is ``"not_falsified"``, with a
    note that it must not be read as a verification: the library is a fixed
    net, not a dense one.
    """
    depth = _count("depth", depth, 1)

    def reverses_in_the_limit(family: SequenceFamily) -> bool:
        limit_first, limit_second = family.limits
        return strictly_prefers(oracle, limit_second, limit_first) and all(
            strictly_prefers(oracle, *family.term(n)) for n in range(1, depth + 1)
        )

    def record(family: SequenceFamily) -> dict:
        return {
            "family": family.description,
            "depth": depth,
            "term_1": _roles("first", "second")(*family.term(1)),
            **_roles("limit_first", "limit_second")(*family.limits),
        }

    candidates = ((family,) for family in families)
    return _search(
        "weak_continuity", candidates, reverses_in_the_limit, record,
        clean=NOT_FALSIFIED, note=_NOT_A_VERIFICATION,
    )
