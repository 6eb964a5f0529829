"""Replay the golden cases through ``cli.main`` under the running interpreter.

    python3.13 tests/replay_goldens.py

Needs neither pytest nor numpy.  ``build-utility``, ``choose`` and
``demo-sequences`` never import numpy, so their cases replay on any
supported Python; the cases of the subcommands that sample run only where
numpy is installed, and are named as skipped elsewhere.  Prints one line
per case, and exits 1 when a case differs from its recording in exit code,
report bytes or stderr, or when a case that does not sample imports numpy.
"""

from __future__ import annotations

import importlib.util
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from golden_cases import CASES, recording, run_case  # noqa: E402

#: The subcommands that draw sampled points, and so need numpy.
SAMPLED = ("check-axioms", "validate")


def main() -> int:
    has_numpy = importlib.util.find_spec("numpy") is not None
    # Cases that do not sample go first, so an import of numpy is theirs.
    order = sorted(CASES, key=lambda name: (CASES[name][0][0] in SAMPLED, name))
    failed = skipped = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in order:
            sampled = CASES[name][0][0] in SAMPLED
            if sampled and not has_numpy:
                print(f"skipped  {name} (numpy is not installed)")
                skipped += 1
                continue
            if run_case(name, Path(tmp) / name) != recording(name):
                verdict = "DIFFERS"
            elif not sampled and "numpy" in sys.modules:
                verdict = "DIFFERS (imported numpy)"
            else:
                verdict = "matches"
            failed += verdict != "matches"
            print(f"{verdict:8} {name}")
    python = ".".join(map(str, sys.version_info[:3]))
    print(f"Python {python}: {failed} differ, {skipped} skipped, of {len(CASES)} cases")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
