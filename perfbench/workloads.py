"""Seeded request generators for the three workloads.

A workload is an endless sequence of blocks; a block is a short list of
requests whose mix is fixed by construction (every kind, every request type,
a fixed number of boundary points, one menu size per stratum), so that the
figures of a run depend on the seed only through the drawn values, not
through the mix.  Every point is drawn fresh, except the all-ones boundary
point of ``score``, which is a single point of the cube.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ALTS = ["a", "b", "c", "d", "e"]
TOL = 1e-9
#: Kinds that pass weak dominance on the diagonal, so bisection never fails.
SCORED_KINDS = ("additive", "min", "geometric", "lexicographic", "threshold")
ALL_KINDS = (*SCORED_KINDS, "anti_monotone")
CUTOFF = 0.5

BOUNDARY_TYPES = ("zero", "one", "all_ones", "diagonal")

AXIOM_PAIRS, AXIOM_TRIPLES, AXIOM_DEPTH = 1000, 1000, 100
DEMOS_PER_BLOCK = 2
DEMO_TERMS = [1, 2, 3, 5, 10, 100, 1000]

MENUS_PER_BLOCK = 20
MENU_MIN, MENU_MAX = 2, 200
#: Menu sizes are ``2 * 100 ** (u ** MENU_SKEW)`` for uniform ``u``: a
#: continuous law on [2, 200] with median near 10 and about 64% of menus at
#: 20 items or fewer.
MENU_SKEW = 1.5


@dataclass
class Request:
    """One call of ``rafpref.cli.main``: its flags, its input files, and the
    inputs the output checks compare against."""

    op: str
    argv: list[str]
    inputs: dict
    items: int
    out: Path
    files: dict[Path, object] = field(default_factory=dict)
    boundary: int = 0


def _spec(kind: str, rng: np.random.Generator) -> dict:
    spec: dict = {"kind": kind}
    if kind == "additive":
        w = rng.uniform(0.5, 2.0, len(ALTS))
        spec["weights"] = [float(x) for x in w / w.sum()]
    elif kind == "lexicographic":
        spec["priority"] = [str(x) for x in rng.permutation(ALTS)]
    elif kind == "threshold":
        spec["cutoff"] = CUTOFF
    return spec


def _point(rng: np.random.Generator) -> list[float]:
    return [float(v) for v in rng.random(len(ALTS))]


def _boundary_point(kind: str, rng: np.random.Generator) -> list[float]:
    values = _point(rng)
    if kind == "zero":
        values[int(rng.integers(len(ALTS)))] = 0.0
    elif kind == "one":
        values[int(rng.integers(len(ALTS)))] = 1.0
    elif kind == "all_ones":
        values = [1.0] * len(ALTS)
    else:
        values = [float(rng.random())] * len(ALTS)
    return values


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


class Workload:
    """Names the files of block ``n`` under ``directory`` and draws it."""

    name = ""
    #: Blocks every run completes, so that each run has at least 100
    #: requests and ``queries_per_item`` covers the same requests each time.
    min_blocks = 0
    #: Blocks run in each set-up, about half a second of work.
    warmup_blocks = 1

    def __init__(self, seed: int, directory: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.directory = directory
        self.blocks = 0

    def block(self) -> list[Request]:
        where = self.directory / f"b{self.blocks}"
        self.blocks += 1
        requests = self._draw(where)
        order = self.rng.permutation(len(requests))
        return [requests[i] for i in order]

    def _draw(self, where: Path) -> list[Request]:
        raise NotImplementedError


class Score(Workload):
    """``build-utility`` (csv and json) and ``validate`` over the five
    scored kinds; items are points bisected.

    Requests are big enough that bisection, not the command line around it,
    takes about 90% of the time.  The boundary points are 10% of all points
    (30 of each 200-point collection, none of the validated pairs).
    """

    name = "score"
    min_blocks = 7
    points = 200
    boundary_points = 30
    pairs = 100

    def _draw(self, where: Path) -> list[Request]:
        kinds = list(BOUNDARY_TYPES) * math.ceil(
            2 * len(SCORED_KINDS) * self.boundary_points / len(BOUNDARY_TYPES)
        )
        boundary = [kinds[i] for i in self.rng.permutation(len(kinds))]
        requests = []
        for kind in SCORED_KINDS:
            for fmt in ("csv", "json"):
                n = len(requests)
                spec = _spec(kind, self.rng)
                points = [_point(self.rng) for _ in range(self.points - self.boundary_points)]
                points += [_boundary_point(boundary.pop(), self.rng) for _ in range(self.boundary_points)]
                points = [points[i] for i in self.rng.permutation(len(points))]
                rafs = {
                    "alts": ALTS,
                    "items": [{"label": f"p{i}", "values": v} for i, v in enumerate(points)],
                }
                spec_file, rafs_file, out = where / f"{n}.spec.json", where / f"{n}.rafs.json", where / f"{n}.out"
                requests.append(
                    Request(
                        "build-utility",
                        ["build-utility", "--spec", str(spec_file), "--rafs", str(rafs_file),
                         "--tol", repr(TOL), "--format", fmt, "--out", str(out)],
                        {"spec": spec, "rafs": rafs, "tol": TOL, "format": fmt},
                        len(points),
                        out,
                        {spec_file: {**spec, "alts": ALTS}, rafs_file: rafs},
                        self.boundary_points,
                    )
                )
            n = len(requests)
            spec, seed = _spec(kind, self.rng), _seed(self.rng)
            spec_file, out = where / f"{n}.spec.json", where / f"{n}.out"
            requests.append(
                Request(
                    "validate",
                    ["validate", "--spec", str(spec_file), "--pairs", str(self.pairs),
                     "--seed", str(seed), "--tol", repr(TOL), "--out", str(out)],
                    {"spec": spec, "alts": ALTS, "seed": seed, "pairs": self.pairs, "tol": TOL},
                    2 * self.pairs,
                    out,
                    {spec_file: {**spec, "alts": ALTS}},
                )
            )
        return requests


class Screen(Workload):
    """``check-axioms`` on all six kinds plus a minority of
    ``demo-sequences``; items are requests."""

    name = "screen"
    min_blocks = 13

    def _dominating_pair(self) -> tuple[list[float], list[float]]:
        # Each coordinate is tied at 1, tied at 0, tied inside, or gapped.
        upper, lower = [], []
        for case in self.rng.integers(0, 4, size=len(ALTS)):
            u = 1.0 - float(self.rng.random())  # in (0, 1]
            if case == 0:
                u = lo = 1.0
            elif case == 1:
                u = lo = 0.0
            elif case == 2:
                lo = u
            else:
                lo = u * float(self.rng.uniform(0.0, 0.999))
            upper.append(u)
            lower.append(lo)
        return upper, lower

    def _draw(self, where: Path) -> list[Request]:
        requests = []
        for kind in ALL_KINDS:
            n = len(requests)
            spec, seed = _spec(kind, self.rng), _seed(self.rng)
            spec_file, out = where / f"{n}.spec.json", where / f"{n}.out"
            requests.append(
                Request(
                    "check-axioms",
                    ["check-axioms", "--spec", str(spec_file), "--seed", str(seed),
                     "--pairs", str(AXIOM_PAIRS), "--triples", str(AXIOM_TRIPLES),
                     "--depth", str(AXIOM_DEPTH), "--out", str(out)],
                    {"spec": spec, "alts": ALTS, "seed": seed},
                    1,
                    out,
                    {spec_file: {**spec, "alts": ALTS}},
                )
            )
        for _ in range(DEMOS_PER_BLOCK):
            n = len(requests)
            upper, lower = self._dominating_pair()
            out = where / f"{n}.out"
            requests.append(
                Request(
                    "demo-sequences",
                    ["demo-sequences", "--upper", ",".join(map(repr, upper)),
                     "--lower", ",".join(map(repr, lower)),
                     "--terms", ",".join(map(str, DEMO_TERMS)), "--format", "json",
                     "--out", str(out)],
                    {"upper": upper, "lower": lower, "terms": DEMO_TERMS},
                    1,
                    out,
                )
            )
        return requests


def menu_size(u: float) -> int:
    """Menu size at quantile ``u`` of the size law."""
    return min(MENU_MAX, int(MENU_MIN * (MENU_MAX / MENU_MIN) ** (u**MENU_SKEW)))


class Choose(Workload):
    """``choose`` on fresh menus over the five scored kinds; items are menu
    items.  Sizes are drawn one per stratum of the size law, so every block
    has the same spread of sizes; the block is shuffled afterwards."""

    name = "choose"
    min_blocks = 5
    warmup_blocks = 2

    def _draw(self, where: Path) -> list[Request]:
        # Kinds take turns along the strata, so each kind gets every size.
        quantiles = (np.arange(MENUS_PER_BLOCK) + self.rng.random(MENUS_PER_BLOCK)) / MENUS_PER_BLOCK
        sizes = [menu_size(float(q)) for q in quantiles]
        kinds = [SCORED_KINDS[i % len(SCORED_KINDS)] for i in range(MENUS_PER_BLOCK)]
        requests = []
        for n, (kind, size) in enumerate(zip(kinds, sizes)):
            spec = _spec(kind, self.rng)
            menu = {
                "alts": ALTS,
                "items": [{"label": f"m{i}", "values": _point(self.rng)} for i in range(size)],
            }
            spec_file, menu_file, out = where / f"{n}.spec.json", where / f"{n}.menu.json", where / f"{n}.out"
            requests.append(
                Request(
                    "choose",
                    ["choose", "--spec", str(spec_file), "--menu", str(menu_file),
                     "--tol", repr(TOL), "--out", str(out)],
                    {"spec": spec, "menu": menu, "tol": TOL},
                    size,
                    out,
                    {spec_file: {**spec, "alts": ALTS}, menu_file: menu},
                )
            )
        return requests


WORKLOADS = {w.name: w for w in (Score, Screen, Choose)}
