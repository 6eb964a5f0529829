"""Self-tests of the benchmark: each output check accepts real outputs of the
program and rejects a corrupted copy; the tracer's self times add up; the
query count repeats for a seed.

    python3 -m pytest perfbench

The outputs in ``fixtures/outputs.json`` were recorded from the program by
``make_fixtures.py``.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from tracer import LAYER_METRICS, Tracer, self_times

HERE = Path(__file__).resolve().parent
RECORDS = json.loads((HERE / "fixtures" / "outputs.json").read_text(encoding="utf-8"))


def records(op: str, **inputs) -> list[dict]:
    found = [
        r for r in RECORDS
        if r["op"] == op and all(r["inputs"].get(k, r["inputs"].get("spec", {}).get(k)) == v for k, v in inputs.items())
    ]
    assert found, f"no recorded {op} output with {inputs}"
    return found


def check(record: dict, out: str | bytes | None = None) -> list[str]:
    out = record["out"] if out is None else out
    data = out if isinstance(out, bytes) else out.encode("utf-8")
    return checks.CHECKS[record["op"]](record["inputs"], record["rc"], data)


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_fixtures_cover_every_request_type():
    assert {r["op"] for r in RECORDS} == set(checks.CHECKS)
    assert {r["inputs"]["format"] for r in records("build-utility")} == {"csv", "json"}


@pytest.mark.parametrize("index", range(len(RECORDS)))
def test_accepts_recorded_output(index):
    assert check(RECORDS[index]) == []


def _interior_row(rows, tol):
    return next(i for i, row in enumerate(rows) if 3 * tol < row["lo"] and row["hi"] < 1 - 3 * tol)


def test_rejects_utility_moved_by_three_tol_in_json():
    for record in records("build-utility", format="json"):
        doc = json.loads(record["out"])
        tol = record["inputs"]["tol"]
        row = doc["rows"][_interior_row(doc["rows"], tol)]
        for field in ("u", "lo", "hi"):  # keep the bracket valid, move it
            row[field] += 3 * tol
        assert any("not within tol" in p for p in check(record, dumps(doc)))


def test_rejects_utility_moved_by_three_tol_in_csv():
    for record in records("build-utility", format="csv"):
        table = list(csv.reader(io.StringIO(record["out"])))
        tol = record["inputs"]["tol"]
        rows = [{"lo": float(r[-3]), "hi": float(r[-2])} for r in table[1:]]
        rec = table[1 + _interior_row(rows, tol)]
        for col in (-4, -3, -2):
            rec[col] = repr(float(rec[col]) + 3 * tol)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(table)
        assert any("not within tol" in p for p in check(record, buf.getvalue()))


def test_rejects_bracket_too_wide_or_over_budget():
    record = records("build-utility", format="json")[0]
    doc = json.loads(record["out"])
    wide, costly = copy.deepcopy(doc), copy.deepcopy(doc)
    wide["rows"][0]["lo"] -= 4 * record["inputs"]["tol"]
    costly["rows"][0]["oracle_calls"] = checks.budget(record["inputs"]["tol"]) + 1
    assert check(record, dumps(wide))
    assert any("budget" in p for p in check(record, dumps(costly)))


def test_rejects_utility_moved_by_three_tol_in_choose():
    for record in records("choose"):
        doc = json.loads(record["out"])
        label = record["inputs"]["menu"]["items"][0]["label"]
        doc["result"]["utilities"][label] += 3 * record["inputs"]["tol"]
        assert any("closed form" in p for p in check(record, dumps(doc)))


def test_rejects_extra_chosen_label():
    for record in records("choose"):
        doc = json.loads(record["out"])
        labels = [item["label"] for item in record["inputs"]["menu"]["items"]]
        extra = next(label for label in labels if label not in doc["result"]["tournament"])
        doc["result"]["tournament"].append(extra)
        assert any("argmax" in p for p in check(record, dumps(doc)))


def test_rejects_validate_report_that_does_not_partition_or_violates():
    for record in records("validate"):
        doc = json.loads(record["out"])
        short, violated = copy.deepcopy(doc), copy.deepcopy(doc)
        short["report"]["confirmed"] -= 1
        violated["report"]["violations"] = [{"u_first": 0.1, "u_second": 0.2}]
        assert any("partition" in p for p in check(record, dumps(short)))
        assert any("violations" in p for p in check(record, dumps(violated)))


def test_rejects_validate_report_that_confirms_too_few():
    record = records("validate", kind="min")[0]
    doc = json.loads(record["out"])
    moved = doc["report"]["confirmed"]
    doc["report"]["confirmed"] -= moved
    doc["report"]["indeterminate"] += moved
    assert any("separated" in p for p in check(record, dumps(doc)))


@pytest.mark.parametrize(
    "kind, hypothesis, flipped",
    [
        ("additive", "weak_continuity", "falsified"),
        ("min", "weak_dominance", "falsified"),
        ("anti_monotone", "weak_dominance", "passed_sampled"),
        ("lexicographic", "weak_continuity", "not_falsified"),
        ("threshold", "weak_dominance", "passed_sampled"),
    ],
)
def test_rejects_flipped_verdict(kind, hypothesis, flipped):
    record = records("check-axioms", kind=kind)[0]
    doc = json.loads(record["out"])
    doc[hypothesis]["verdict"] = flipped
    assert any("expected" in p for p in check(record, dumps(doc)))


def test_rejects_flipped_order_axiom():
    record = records("check-axioms", kind="geometric")[0]
    doc = json.loads(record["out"])
    doc["order_axioms"]["checks"][2]["verdict"] = "falsified"
    assert any("transitivity" in p for p in check(record, dumps(doc)))


def test_rejects_dominance_witness_that_does_not_replay():
    record = records("check-axioms", kind="threshold")[0]
    doc = json.loads(record["out"])
    witness = doc["weak_dominance"]["witness"]
    # A dominating point above the cutoff is strictly preferred: no witness.
    witness["first"]["values"] = [0.9] * len(witness["first"]["values"])
    assert any("does not replay" in p for p in check(record, dumps(doc)))


@pytest.mark.parametrize("kind", ["lexicographic", "threshold"])
def test_rejects_continuity_witness_that_does_not_replay(kind):
    record = records("check-axioms", kind=kind)[0]
    doc = json.loads(record["out"])
    witness = doc["weak_continuity"]["witness"]
    witness["limit_first"], witness["limit_second"] = witness["limit_second"], witness["limit_first"]
    assert any("does not replay" in p for p in check(record, dumps(doc)))


def test_rejects_demo_term_that_does_not_dominate_or_strays():
    record = records("demo-sequences")[0]
    doc = json.loads(record["out"])
    crossed, far = copy.deepcopy(doc), copy.deepcopy(doc)
    crossed["terms"][0]["lower"][0] = crossed["terms"][0]["upper"][0]
    far["terms"][-1]["upper"] = [min(1.0, v + 0.01) for v in far["terms"][-1]["upper"]]
    assert any("strictly dominate" in p for p in check(record, dumps(crossed)))
    assert any("further than" in p for p in check(record, dumps(far)))


def test_rejects_unexpected_exit_code():
    record = records("check-axioms", kind="threshold")[0]
    assert any("exit code" in p for p in checks.check_axioms(record["inputs"], 0, record["out"].encode()))


@pytest.mark.parametrize("index", range(0, len(RECORDS), 7))
def test_rejects_one_changed_byte(index):
    out = RECORDS[index]["out"].encode("utf-8")
    changed = bytearray(out)
    changed[len(out) // 2] ^= 0x01
    assert checks.check_identical(out, out) == []
    assert checks.check_identical(out, bytes(changed))


def test_query_count_matches_reported_calls():
    for record in records("build-utility"):
        out = record["out"].encode("utf-8")
        assert checks.check_queries(record["inputs"], out, record["queries"]) == []
        assert checks.check_queries(record["inputs"], out, record["queries"] + 1)


def test_self_times_subtract_direct_children():
    # main [0, 10) -> a [1, 4) -> b [2, 3); main -> c [5, 9)
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(end - start, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_nested_spans_and_restores():
    cli = run.load_program()
    utility = sys.modules["rafpref.utility"]
    original = utility.compute_u
    out = run.OUT / "tracer-test.json"
    out.parent.mkdir(exist_ok=True)
    tracer = Tracer()
    tracer.install("rafpref")
    try:
        tracer.begin_request()
        assert cli.main(["demo-sequences", "--upper", "1,0.5", "--lower", "0.5,0.5", "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
        out.unlink(missing_ok=True)
    assert utility.compute_u is original
    spans = tracer.spans()
    names = [spans["names"][i] for i in spans["name"]]
    assert names[0] == "cli.main" and spans["parent"][0] == -1
    terms = [i for i, n in enumerate(names) if n == "perturb.PerturbationSequences.term"]
    assert len(terms) == 4
    assert all(names[spans["parent"][i]] == "cli.main" for i in terms)
    assert (spans["request"] == 0).all()


@pytest.mark.parametrize("workload", ["score", "screen", "choose"])
def test_queries_per_item_repeats_for_a_seed(workload):
    def queries_per_item() -> float:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "0.2", "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=170,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        return result["metrics"]["queries_per_item"]["value"]

    assert queries_per_item() == queries_per_item()


def test_benchmark_json_lists_the_metrics_the_runs_report():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in LAYER_METRICS.items()
    }
