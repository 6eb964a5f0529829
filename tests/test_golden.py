"""Byte-exact command line output on fixed inputs.

Each case of ``tests/golden_cases.py`` runs one subcommand on the inputs
under ``tests/golden/`` and compares the exit code, the report bytes and
the stderr text with the files recorded next to them, once with the report
written to ``--out`` and once to stdout.  The determinism tests compare two
runs of the same code; these compare against recorded output, so a
refactor that changes a single byte of a report fails here.

A change that alters output on purpose re-records the files with
``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

from __future__ import annotations

import builtins
import contextlib
import functools
import io
import math
import operator
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_cases import CASES, GOLDEN, inputs, recording, run_case
from rafpref import cli

@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_recording(name, tmp_path):
    assert run_case(name, tmp_path / "report") == recording(name)


def run_to_stdout(argv: list[str]) -> tuple[int, bytes, str]:
    """Run ``argv`` without ``--out``; return its exit code, stdout bytes and stderr text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(inputs(argv))
    return rc, out.getvalue().encode("utf-8"), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_recording(name):
    assert run_to_stdout(CASES[name][0]) == recording(name)


def test_unwritable_out_exits_one_and_prints_nothing(tmp_path):
    rc, report, err = run_to_stdout([*CASES["choose_additive"][0], "--out", str(tmp_path)])
    assert rc == 1
    assert err.splitlines()[-1].startswith("error: ")
    assert report == b""


def _matches_recording(name: str, out: Path) -> bool:
    out.unlink(missing_ok=True)
    return run_case(name, out) == recording(name)


def test_cases_in_one_process_share_the_parser(tmp_path):
    # ``main`` reuses one parser per process; no call may leave state
    # behind for the next, a failed parse included.
    order = sorted(CASES)
    for name in order + order[::-1]:
        assert _matches_recording(name, tmp_path / "report"), name
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main([*inputs(CASES[name][0]), "--no-such-flag"]) == 1
        assert "unrecognized arguments: --no-such-flag" in err.getvalue()


def compensated_sum(iterable, /, start=0):
    """``sum()`` as Python 3.12 and later compute it: once the total is a
    float, floats are added with Neumaier's compensation and ints as floats;
    anything else is added by ``+``."""
    items = iter(iterable)
    total = start
    if type(total) is not float:
        for item in items:
            total = total + item
            if type(total) is float:
                break
        else:
            return total
    carry = 0.0
    for item in items:
        if type(item) is float:
            t = total + item
            carry += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
            total = t
        elif isinstance(item, int):
            total += float(item)
        else:
            if carry and math.isfinite(carry):
                total += carry
            return functools.reduce(operator.add, items, total + item)
    if carry and math.isfinite(carry):
        total += carry
    return total


def test_compensated_sum_matches_python_3_12():
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e100, 1.0, -1e100, 1.0]) == 2.0
    assert compensated_sum([0.5, 0.25], 1.0) == 1.75
    assert compensated_sum([1, 2, True]) == 4 and type(compensated_sum([1, 2])) is int
    assert compensated_sum([[1], [2]], []) == [1, 2]


def test_recordings_do_not_depend_on_which_sum_runs(monkeypatch, tmp_path):
    # Python 3.12 changed how sum() adds floats, so a report that went
    # through sum() could differ in its last bits between versions.
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    for name in sorted(CASES):
        assert _matches_recording(name, tmp_path / "report"), name


#: The flags each subcommand reads, with values it accepts.  Counts stay
#: small so that every example runs in milliseconds.
_FLAGS = {
    "check-axioms": {
        "--spec": ["spec_additive.json", "spec_threshold.json", "spec_lex.json", "spec_anti.json"],
        "--alts": ["x,y,z"],
        "--seed": ["0", "7"],
        "--pairs": ["1", "4"],
        "--triples": ["1", "2"],
        "--depth": ["1", "3"],
    },
    "build-utility": {
        "--spec": ["spec_additive.json", "spec_lex.json", "spec_anti.json"],
        "--rafs": ["rafs.json"],
        "--tol": ["1e-6", "0.05", "2e-9"],
        "--format": ["csv", "json"],
    },
    "validate": {
        "--spec": ["spec_additive.json", "spec_lex.json", "spec_threshold.json"],
        "--alts": ["x,y,z"],
        "--seed": ["0", "3"],
        "--tol": ["1e-6", "0.05"],
        "--pairs": ["1", "3"],
    },
    "choose": {
        "--spec": ["spec_additive.json", "spec_lex.json", "spec_threshold.json"],
        "--menu": ["menu.json"],
        "--tol": ["1e-6", "0.05", "0.5"],
    },
    "demo-sequences": {
        "--upper": ["1,0.5,0.5", "1,0.7,0.5"],
        "--lower": ["1,0.2,0.5", "0.5,0.5,0"],
        "--alts": ["x,y,z", "p,q,r"],
        "--terms": ["1,2,5", "99999999999999999999", "1"],
        "--format": ["csv", "json"],
    },
}
#: Values no flag accepts, or accepts only in some places.
_BAD = ["", "x", "-1", "0", "nan", "1e999", "1e-300", "1,,2", "x,x", "rafs.json", "nope.json"]
#: Counts left out take their defaults (up to 1000), which would be slow.
_ALWAYS_GIVEN = {"--pairs", "--triples", "--depth"}


@st.composite
def _argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag in draw(st.permutations(sorted(_FLAGS[command]))):
        how = draw(st.sampled_from(["good"] * 8 + ["bad", "absent"]))
        if how == "absent" and flag not in _ALWAYS_GIVEN:
            continue
        values = _FLAGS[command][flag] if how != "bad" else _BAD
        argv += [flag, draw(st.sampled_from(values))]
    tail = draw(st.sampled_from([[]] * 4 + [["--help"], ["--tol"], ["--seed"], ["--depth", "2"]]))
    return inputs(argv + tail)


@settings(max_examples=80, deadline=None)
@given(argv=_argvs(), golden=st.sampled_from(sorted(CASES)))
def test_any_flags_exit_with_a_code_and_leave_the_parser_intact(
    argv, golden, tmp_path_factory
):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc == 1:
        assert err.getvalue().startswith("error: ")
    elif "--help" in argv:  # reached only when every earlier flag parsed
        assert rc == 0 and out.getvalue().startswith("usage: rafpref")
    assert _matches_recording(golden, tmp_path_factory.getbasetemp() / "golden.out")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            rc, report, err = run_case(case, Path(tmp) / case)
            if rc != CASES[case][1]:
                sys.exit(f"{case}: exit code {rc}, expected {CASES[case][1]}")
            (GOLDEN / f"{case}.out").write_bytes(report)
            (GOLDEN / f"{case}.err").write_text(err, encoding="utf-8")
