"""The CLI answers any input file or list flag with an exit code, never a traceback.

Spec, RAF and menu documents and the list flags of ``demo-sequences`` are
generated near their valid shapes: the expected keys, but with values of
the wrong type, NaN, infinities, huge integers, nested or empty lists,
stray keys and duplicate labels.  Every subcommand runs in-process on each
draw with small counts.  Each draw also gives one command an invalid
``--pairs``, ``--triples``, ``--depth``, ``--seed`` or ``--tol``, which must
exit 1 with one error line.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rafpref import cli

BIG = 10**400  # an integer beyond float range

LABELS = st.sampled_from(["a", "b", "c", "", "x0"])
UNITS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
NUMBERS = st.one_of(
    UNITS,
    st.sampled_from(
        [-0.5, 1.5, math.nan, math.inf, -math.inf, 1e308, BIG, -BIG, 2, True, None, "0.5"]
    ),
)
VALUES = st.one_of(
    NUMBERS,
    LABELS,
    st.lists(LABELS, max_size=4),
    st.lists(NUMBERS, max_size=4),
    st.lists(st.lists(NUMBERS, max_size=2), max_size=2),
    st.dictionaries(LABELS, NUMBERS, max_size=2),
)

SPECS = st.sampled_from(
    [
        {"kind": "min"},
        {"kind": "geometric", "alts": ["a", "b", "c"]},
        {"kind": "anti_monotone"},
        {"kind": "additive", "weights": [0.25, 0.75]},
        {"kind": "lexicographic", "priority": ["b", "a"]},
        {"kind": "threshold", "cutoff": 0.5, "alts": ["a", "b"]},
    ]
)
SPEC_PATHS = [
    (), ("kind",), ("weights",), ("weights", 0), ("priority",), ("priority", 0), ("cutoff",),
    ("alts",), ("alts", 1), ("stray",),
]
POINTS = st.lists(st.lists(UNITS, min_size=2, max_size=2), min_size=1, max_size=4).map(
    lambda rows: {
        "alts": ["a", "b"],
        "items": [{"label": f"x{i}", "values": values} for i, values in enumerate(rows)],
    }
)
POINT_PATHS = [
    (), ("alts",), ("alts", 0), ("items",), ("items", 0), ("items", 1, "label"),
    ("items", 0, "values"), ("items", 0, "values", 1), ("items", 0, "stray"), ("stray",),
]


def set_path(doc: object, path: tuple, value: object) -> object:
    """A copy of ``doc`` with the field at ``path`` set, where that field can be set."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return doc
    key = path[-1]
    if isinstance(node, dict) or (isinstance(node, list) and type(key) is int and key < len(node)):
        node[key] = value
    return doc


def edited(doc: object, edits: list[tuple[tuple, object]]) -> str:
    for path, value in edits:
        doc = set_path(doc, path, value)
    return json.dumps(doc)


def mutated(docs: st.SearchStrategy, paths: list[tuple]) -> st.SearchStrategy:
    """Valid documents with up to two fields set to any value, as JSON text."""
    edits = st.lists(st.tuples(st.sampled_from(paths), VALUES), max_size=2)
    return st.builds(edited, docs, edits)


def joined(elements: st.SearchStrategy, min_size: int = 0) -> st.SearchStrategy:
    """Comma-separated lists, as a list flag takes them."""
    lists = st.lists(elements, min_size=min_size, max_size=4)
    return lists.map(lambda xs: ",".join(map(str, xs)))


def flags(pairs: list[list[float]], edit: tuple | None) -> tuple[str, str]:
    """--upper and --lower for a pointwise dominating pair, with one entry
    replaced by ``edit`` (upper or lower, position, value) if given."""
    upper = [repr(hi) for lo, hi in pairs]
    lower = [repr(lo) for lo, hi in pairs]
    if edit is not None:
        on_upper, i, value = edit
        (upper if on_upper else lower)[i % len(pairs)] = str(value)
    return ",".join(upper), ",".join(lower)


PAIRS = st.builds(
    flags,
    st.lists(st.lists(UNITS, min_size=2, max_size=2).map(sorted), min_size=2, max_size=4),
    st.none() | st.tuples(st.booleans(), st.integers(0, 3), NUMBERS),
)
TERMS = joined(
    st.one_of(st.integers(1, 12), st.sampled_from([0, -1, BIG, int(1.5e308), "x", ""])), 1
)

HUGE = "1" * 5000  # an integer of 5000 digits, past Python's digit limit for int()

#: Every count flag by command, with the least value it accepts.
COUNT_FLAGS = [
    ("check-axioms", "--pairs", 1),
    ("check-axioms", "--triples", 1),
    ("check-axioms", "--depth", 1),
    ("check-axioms", "--seed", 0),
    ("validate", "--pairs", 0),
    ("validate", "--seed", 0),
]


def bad_counts(least: int) -> st.SearchStrategy:
    """Values a count flag refuses: never a large valid one, which would not end."""
    return st.one_of(
        st.integers(max_value=least - 1).map(str),
        st.sampled_from(["", "x", "1.5", "1e3", "0x10", "-" + HUGE]),
    )


BAD_TOLS = st.sampled_from(["nan", "inf", "-inf", "-0.0", "1e-17", "0.5000001", HUGE, "x", ""])
TOL_COMMANDS = ("validate", "build-utility", "choose")
BAD_FLAGS = st.one_of(
    *[st.tuples(st.just(c), st.just(f), bad_counts(least)) for c, f, least in COUNT_FLAGS],
    *[st.tuples(st.just(c), st.just("--tol"), BAD_TOLS) for c in TOL_COMMANDS],
)

MENU_BIG = '{"alts": ["a", "b"], "items": [{"label": "x", "values": [%d, 0.5]}]}' % BIG


def run(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 1, 2, 3), (argv, rc)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    # 1 and 3 always write one error line; 2 does when a menu has no maximal item.
    expected = {0: [0], 1: [1], 2: [0, 1], 3: [1]}[rc]
    assert len(errors) in expected, (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return rc


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    spec=mutated(SPECS, SPEC_PATHS),
    points=mutated(POINTS, POINT_PATHS),
    pair=PAIRS,
    terms=TERMS,
    alts=st.none() | joined(LABELS),
    fmt=st.sampled_from(["csv", "json"]),
    bad=BAD_FLAGS,
)
@example('{"kind": "min"}', MENU_BIG, ("1,0.5", "0,0.5"), "1" + "0" * 400, None, "csv",
         ("check-axioms", "--seed", "-" + HUGE))
@example('{"kind": "threshold", "cutoff": %d}' % BIG, MENU_BIG, ("1,1", "0,0"), "1", None, "json",
         ("validate", "--tol", "nan"))
@example('{"kind": "min", "x": %s}' % ("1" * 4301), MENU_BIG, ("1,1", "0,0"), "1", "a,b", "csv",
         ("check-axioms", "--depth", "0"))
@example('{"kind": "min"}', "[" * 100_000 + "]" * 100_000, ("1,1", "0,0"), "1", None, "csv",
         ("choose", "--tol", "-0.0"))
@example('{"kind": "additive", "weights": [1e308, 1e308]}', MENU_BIG, ("1,1", "0,0"), "1", None,
         "json", ("build-utility", "--tol", "x"))
def test_every_subcommand_ends_in_an_exit_code(spec, points, pair, terms, alts, fmt, bad):
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, points_path = Path(tmp) / "spec.json", Path(tmp) / "points.json"
        spec_path.write_text(spec, encoding="utf-8")
        points_path.write_text(points, encoding="utf-8")
        s, p = str(spec_path), str(points_path)
        argvs = {
            "check-axioms": [
                "check-axioms", "--spec", s, "--pairs", "5", "--triples", "5", "--depth", "3"
            ],
            "validate": ["validate", "--spec", s, "--pairs", "5"],
            "build-utility": ["build-utility", "--spec", s, "--rafs", p, "--format", fmt],
            "choose": ["choose", "--spec", s, "--menu", p],
        }
        for argv in argvs.values():
            run(argv)
        # An invalid flag value, given last so that it overrides a small count.
        command, flag, value = bad
        assert run([*argvs[command], f"{flag}={value}"]) == 1
        upper, lower = pair
        demo = [f"--upper={upper}", f"--lower={lower}", f"--terms={terms}", "--format", fmt]
        run(["demo-sequences", *demo, *([] if alts is None else [f"--alts={alts}"])])
