"""The golden cases: fixed command lines, their inputs and their recordings.

Each case runs one subcommand on the inputs under ``tests/golden/``; its
exit code, report bytes and stderr text are recorded next to them.  This
module imports neither pytest nor numpy, so ``tests/test_golden.py`` and
the plain replay script ``tests/replay_goldens.py`` share it.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from rafpref import cli

GOLDEN = Path(__file__).parent / "golden"

_AXIOMS = ["--seed", "7", "--pairs", "30", "--triples", "30", "--depth", "5"]

#: name -> (argv without --out, expected exit code)
CASES = {
    "check_axioms_additive": (["check-axioms", "--spec", "spec_additive.json", *_AXIOMS], 0),
    "check_axioms_threshold": (["check-axioms", "--spec", "spec_threshold.json", *_AXIOMS], 2),
    "check_axioms_anti": (["check-axioms", "--spec", "spec_anti.json", *_AXIOMS], 2),
    "check_axioms_lex": (["check-axioms", "--spec", "spec_lex.json", "--alts", "x,y,z", *_AXIOMS], 2),
    "validate_additive": (
        ["validate", "--spec", "spec_additive.json", "--seed", "7", "--pairs", "30", "--tol", "1e-9"],
        0,
    ),
    "validate_lex": (
        ["validate", "--spec", "spec_lex.json", "--seed", "7", "--pairs", "30", "--tol", "0.05"],
        0,
    ),
    "validate_anti": (["validate", "--spec", "spec_anti.json", "--pairs", "30"], 3),
    "build_utility_csv": (
        ["build-utility", "--spec", "spec_additive.json", "--rafs", "rafs.json", "--tol", "1e-9"],
        0,
    ),
    "build_utility_json": (
        ["build-utility", "--spec", "spec_additive.json", "--rafs", "rafs.json", "--tol", "1e-9",
         "--format", "json"],
        0,
    ),
    "build_utility_anti": (["build-utility", "--spec", "spec_anti.json", "--rafs", "rafs.json"], 3),
    "choose_additive": (["choose", "--spec", "spec_additive.json", "--menu", "menu.json"], 0),
    "choose_lex": (["choose", "--spec", "spec_lex.json", "--menu", "menu.json", "--tol", "0.05"], 0),
    "demo_sequences_csv": (
        ["demo-sequences", "--upper", "1.0,0.6,0.3,0.0", "--lower", "1.0,0.6,0.2,0.0",
         "--terms", "1,2,5,10,1000"],
        0,
    ),
    "demo_sequences_json": (
        ["demo-sequences", "--alts", "p,q,r,s", "--upper", "1.0,0.6,0.3,0.0",
         "--lower", "1.0,0.6,0.2,0.0", "--terms", "1,2,5,10,1000", "--format", "json"],
        0,
    ),
}

_INPUTS = {p.name for p in GOLDEN.glob("*.json")}


def inputs(argv: list[str]) -> list[str]:
    """``argv`` with each golden input file name made a path."""
    return [str(GOLDEN / a) if a in _INPUTS else a for a in argv]


def run_case(name: str, out: Path) -> tuple[int, bytes, str]:
    """Run one case; return its exit code, report bytes and stderr text."""
    argv = inputs(CASES[name][0])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([*argv, "--out", str(out)])
    return rc, out.read_bytes() if out.exists() else b"", err.getvalue()


def recording(name: str) -> tuple[int, bytes, str]:
    """The exit code, report bytes and stderr text recorded for one case."""
    return (
        CASES[name][1],
        (GOLDEN / f"{name}.out").read_bytes(),
        (GOLDEN / f"{name}.err").read_text(encoding="utf-8"),
    )
