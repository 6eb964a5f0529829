"""Byte-exact command line output on fixed inputs.

Each case runs one subcommand on the inputs under ``tests/golden/`` and
compares the exit code, the report bytes and the stderr text with the
files recorded next to them.  The determinism tests compare two runs of
the same code; these compare against recorded output, so a refactor that
changes a single byte of a report fails here.

A change that alters output on purpose re-records the files with
``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

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


def run_case(name: str, out: Path) -> tuple[int, bytes, str]:
    """Run one case; return its exit code, report bytes and stderr text."""
    argv, _ = CASES[name]
    argv = [str(GOLDEN / a) if a in _INPUTS else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([*argv, "--out", str(out)])
    return rc, out.read_bytes() if out.exists() else b"", err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_recording(name, tmp_path):
    rc, report, err = run_case(name, tmp_path / "report")
    assert rc == CASES[name][1]
    assert report == (GOLDEN / f"{name}.out").read_bytes()
    assert err == (GOLDEN / f"{name}.err").read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            rc, report, err = run_case(case, Path(tmp) / case)
            if rc != CASES[case][1]:
                sys.exit(f"{case}: exit code {rc}, expected {CASES[case][1]}")
            (GOLDEN / f"{case}.out").write_bytes(report)
            (GOLDEN / f"{case}.err").write_text(err, encoding="utf-8")
