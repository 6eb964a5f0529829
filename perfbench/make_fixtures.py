"""Record real outputs of the program for the self-tests of ``checks.py``.

    python3 perfbench/make_fixtures.py

Runs one block of each workload (of ``score``, with 20-point collections;
of ``choose``, the smallest menu of each kind) through ``rafpref.cli.main`` and writes inputs, exit codes, query
counts and output text to ``perfbench/fixtures/outputs.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "outputs.json"
SEED = 7


def smallest_menus(block):
    """The smallest menu of each kind in a ``choose`` block."""
    smallest = {}
    for req in block:
        kind = req.inputs["spec"]["kind"]
        if kind not in smallest or req.items < smallest[kind].items:
            smallest[kind] = req
    return list(smallest.values())


def main() -> int:
    cli = run.load_program()
    queries = run.count_queries(sys.modules["rafpref.preference"].PreferenceOracle)
    work = run.OUT / "fixtures-work"
    records = []
    try:
        for name in WORKLOADS:
            workload = WORKLOADS[name](SEED, work / name)
            if name == "score":  # smaller requests keep the fixtures short
                workload.points, workload.boundary_points, workload.pairs = 20, 3, 10
            block = workload.block()
            block = run.write_inputs(smallest_menus(block) if name == "choose" else block)
            for req in block:
                before = queries[0]
                with contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(req.argv)
                records.append(
                    {
                        "op": req.op,
                        "inputs": req.inputs,
                        "rc": rc,
                        "queries": queries[0] - before,
                        "out": req.out.read_text(encoding="utf-8"),
                    }
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    FIXTURES.parent.mkdir(exist_ok=True)
    FIXTURES.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} outputs to {FIXTURES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
