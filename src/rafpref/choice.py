"""Choice from finite menus, by tournament and by computed utility.

:func:`maximal_set` asks the oracle directly: an item is chosen when it is
weakly preferred to every item on the menu, so an item with a recorded "no"
is out.  On a uniformly random strict ranking of n items that costs
``2n + H_n + 1/n - 3`` queries on average (``H_n`` the n-th harmonic
number), never fewer than ``2n - 1`` nor more than ``3n - 3``.  For a
reflexive, connected, transitive oracle the set is never empty; when it
comes back empty the function hunts down a witness (an incomparable pair or
a strict-preference cycle) and raises :class:`MenuAxiomError` with it.

:func:`choose_by_utility` goes through the constructed utility instead and
returns every item within ``2 * tol`` of the best one, the resolution the
brackets can actually certify, with every item's utility.  Both return
labels in menu order.  :func:`cross_validate_choice` runs both and checks
containment: tournament winners must land inside the utility band, and a
winner outside it (an escapee) is a genuine disagreement.  The band may
legitimately contain more (items a lexicographic-style oracle separates but
utilities cannot): band artifacts, not failures.  It returns a JSON-ready
record of both routes, the escapees, the band artifacts, every item's
utility and whether the routes agreed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from .errors import (
    DiagonalMonotonicityError, MenuAxiomError, ValidationError, _labels, _sequence, _tol
)
from .preference import PreferenceOracle
from .raf import AlternativeSet, Raf
from .utility import compute_u

__all__ = [
    "Menu",
    "maximal_set",
    "choose_by_utility",
    "cross_validate_choice",
]


@dataclass(frozen=True)
class Menu:
    """A nonempty list of labeled RAFs over a common alternative set."""

    alts: AlternativeSet
    labels: tuple[str, ...]
    items: tuple[Raf, ...]

    def __post_init__(self) -> None:
        labels = _sequence("labels", self.labels)
        items = _sequence("items", self.items)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "items", items)
        if not items:
            raise ValidationError("the list of items is empty; at least one is needed")
        if len(labels) != len(items):
            raise ValidationError(
                f"got {len(labels)} labels for {len(items)} menu items"
            )
        _labels("item", labels)
        for label, item in zip(labels, items):
            if item.alts is not self.alts and item.alts != self.alts:
                raise ValidationError(
                    f"menu item {label!r} uses alternative set {item.alts.labels}, "
                    f"expected {self.alts.labels}"
                )

    def __len__(self) -> int:
        return len(self.items)

    def pairs(self) -> Iterator[tuple[str, Raf]]:
        return iter(zip(self.labels, self.items))

    def to_dict(self) -> dict:
        return {
            "alts": list(self.alts.labels),
            "items": [
                {"label": label, "values": list(item.values)} for label, item in self.pairs()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Menu":
        try:
            alts = AlternativeSet(data["alts"])
            entries = list(data["items"])
            labels = tuple(entry["label"] for entry in entries)
            items = tuple(Raf(alts, entry["values"]) for entry in entries)
        except (KeyError, TypeError):
            raise ValidationError(
                "the document needs 'alts' and 'items' (each with 'label' and 'values')"
            ) from None
        return cls(alts, labels, items)


def _witness_hunt(weak: Callable[[int, int], bool], menu: Menu) -> MenuAxiomError:
    # An empty maximal set on a finite menu proves an axiom violation; find
    # one to report.  First look for an incomparable pair (connectedness,
    # including an item incomparable with itself), then follow strict
    # improvements until they loop (transitivity).  ``weak(i, j)`` answers
    # whether item i is weakly preferred to item j.
    n = len(menu)
    for i in range(n):
        for j in range(i, n):
            if not weak(i, j) and not weak(j, i):
                return MenuAxiomError(
                    "oracle violates connectedness or transitivity on this menu: "
                    f"items {menu.labels[i]!r} and {menu.labels[j]!r} are incomparable",
                    kind="connectedness",
                    witness=(menu.labels[i], menu.labels[j]),
                )

    def improver(i: int) -> int:
        # Some strictly better item exists, else i would have been maximal.
        for j in range(n):
            if weak(j, i) and not weak(i, j):
                return j
        raise AssertionError("unreachable: item was not maximal yet nothing beats it")

    seen: dict[int, int] = {}
    path = [0]
    seen[0] = 0
    while True:
        nxt = improver(path[-1])
        if nxt in seen:
            cycle = path[seen[nxt]:] + [nxt]
            labels = tuple(menu.labels[i] for i in cycle)
            return MenuAxiomError(
                "oracle violates connectedness or transitivity on this menu: "
                f"strict preference cycle {' -> '.join(labels)}",
                kind="transitivity",
                witness=labels,
            )
        seen[nxt] = len(path)
        path.append(nxt)


def maximal_set(oracle: PreferenceOracle, menu: Menu) -> tuple[str, ...]:
    """Labels of the items weakly preferred to every menu item, by direct tournament.

    A champion sweep finds one plausible winner.  An item with a recorded
    "no" is out, so the sweep's beaten challengers are; of the items that
    were champion during the sweep, those weakly preferred to the final
    champion are verified against the whole menu.  Each ordered pair is
    asked at most once per call, the witness hunt included: the candidate
    pass and the verification reuse the sweep's answers.  On a strict
    ranking of n >= 2 items that is ``2n - 3 + R`` queries, plus one when
    the first item wins, where R items were champion: between ``2n - 1`` and
    ``3n - 3``, and ``2n + H_n + 1/n - 3`` on average over all orders.  Cost
    is linear in the menu for well-behaved oracles, quadratic at worst.
    Raises :class:`MenuAxiomError` when no item survives, with a witness of
    the violated axiom.
    """
    items = menu.items
    n = len(items)
    answers: dict[tuple[int, int], bool] = {}

    def weak(i: int, j: int) -> bool:
        answer = answers.get((i, j))
        if answer is None:
            answer = answers[i, j] = oracle.weak_prefers(items[i], items[j])
        return answer

    reigned = [0]  # each item that was champion during the sweep
    for i in range(1, n):
        if weak(i, reigned[-1]):
            reigned.append(i)
    champion = reigned[-1]
    # Every other item has a recorded "no", so it cannot be maximal.
    candidates = [i for i in reigned if weak(i, champion)]
    chosen = [menu.labels[i] for i in candidates if all(weak(i, j) for j in range(n))]
    if not chosen:
        raise _witness_hunt(weak, menu)
    return tuple(chosen)


def _scores(oracle: PreferenceOracle, menu: Menu, tol: float) -> list[dict]:
    """:func:`compute_u` of each item in menu order; a bisection failure names its item."""
    results = []
    for label, item in menu.pairs():
        try:
            results.append(compute_u(oracle, item, tol))
        except DiagonalMonotonicityError as exc:
            raise exc.in_context(f"while scoring item {label!r}") from exc
    return results


def choose_by_utility(
    oracle: PreferenceOracle, menu: Menu, tol: float
) -> tuple[tuple[str, ...], dict[str, float]]:
    """Labels within ``2 * tol`` of the menu's best utility, and every item's utility."""
    utilities = {label: r["u"] for label, r in zip(menu.labels, _scores(oracle, menu, tol))}
    best = max(utilities.values())
    band = tuple(label for label in menu.labels if utilities[label] >= best - 2.0 * tol)
    return band, utilities


def cross_validate_choice(oracle: PreferenceOracle, menu: Menu, tol: float) -> dict:
    """Run both choice routes and check the tournament sits inside the band.

    Returns the JSON-ready record ``{"tournament", "utility_band",
    "escaped", "band_artifacts", "utilities", "agreed"}``.  ``escaped``
    lists the tournament winners outside the band, a genuine disagreement;
    ``band_artifacts`` lists the band items the tournament did not choose,
    artifacts of the band's ``2 * tol`` resolution rather than failures;
    ``utilities`` maps every label to its utility.  The four label
    sequences follow menu order, and ``agreed`` says that nothing escaped.
    """
    tol = _tol(tol)  # refused before the tournament asks anything
    tournament = maximal_set(oracle, menu)
    band, utilities = choose_by_utility(oracle, menu, tol)
    in_band = set(band)
    won = set(tournament)
    escaped = tuple(label for label in tournament if label not in in_band)
    return {
        "tournament": tournament,
        "utility_band": band,
        "escaped": escaped,
        "band_artifacts": tuple(label for label in band if label not in won),
        "utilities": utilities,
        "agreed": not escaped,
    }
