from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rafpref as rp
from rafpref import cli


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def additive_spec(tmp_path):
    return write_json(
        tmp_path / "additive.json", {"kind": "additive", "weights": [0.5, 0.5]}
    )


@pytest.fixture
def anti_spec(tmp_path):
    return write_json(tmp_path / "anti.json", {"kind": "anti_monotone"})


@pytest.fixture
def lex_spec(tmp_path):
    return write_json(
        tmp_path / "lex.json",
        {"kind": "lexicographic", "priority": ["a", "b"], "alts": ["a", "b"]},
    )


@pytest.fixture
def rafs_file(tmp_path):
    return write_json(
        tmp_path / "rafs.json",
        {
            "alts": ["a", "b"],
            "items": [
                {"label": "all", "values": [1.0, 1.0]},
                {"label": "none", "values": [0.0, 0.0]},
                {"label": "mixed", "values": [0.9, 0.1]},
            ],
        },
    )


@pytest.fixture
def menu_file(tmp_path):
    return write_json(
        tmp_path / "menu.json",
        {
            "alts": ["a", "b"],
            "items": [
                {"label": "left", "values": [0.9, 0.1]},
                {"label": "mid", "values": [0.5, 0.5]},
                {"label": "right", "values": [0.2, 0.9]},
            ],
        },
    )


class TestCheckAxioms:
    def test_clean_spec_exits_zero(self, additive_spec, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.main(
            [
                "check-axioms",
                "--spec",
                additive_spec,
                "--pairs",
                "50",
                "--triples",
                "50",
                "--depth",
                "10",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is True
        assert payload["config"]["seed"] == 0
        assert payload["oracle"] == "additive[0.5,0.5]"
        assert list(payload["order_axioms"]) == ["checks"]
        assert [c["axiom"] for c in payload["order_axioms"]["checks"]] == [
            "reflexivity",
            "connectedness",
            "transitivity",
        ]
        assert payload["weak_dominance"]["verdict"] == "passed_sampled"
        assert payload["weak_continuity"]["verdict"] == "not_falsified"
        assert "not a verification" in payload["weak_continuity"]["note"]
        assert payload["config"]["seed"] == 0

    def test_anti_monotone_exits_two_with_witness(self, anti_spec, tmp_path):
        out = tmp_path / "report.json"
        rc = cli.main(
            [
                "check-axioms",
                "--spec",
                anti_spec,
                "--pairs",
                "20",
                "--triples",
                "20",
                "--depth",
                "5",
                "--out",
                str(out),
            ]
        )
        assert rc == 2
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is False
        assert payload["weak_dominance"]["verdict"] == "falsified"
        witness = payload["weak_dominance"]["witness"]
        assert witness["first"]["values"] == [1.0] * 5
        assert witness["second"]["values"] == [0.0] * 5

    def test_lexicographic_continuity_witness(self, lex_spec, tmp_path):
        out = tmp_path / "report.json"
        rc = cli.main(
            ["check-axioms", "--spec", lex_spec, "--pairs", "20", "--triples", "20", "--depth", "10", "--out", str(out)]
        )
        assert rc == 2
        payload = json.loads(out.read_text())
        assert payload["weak_continuity"]["verdict"] == "falsified"
        assert payload["weak_continuity"]["witness"]["depth"] == 10

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "additive", "weights": [0.5, 0.3, 0.2]},
            {"kind": "threshold", "cutoff": 0.4},
            {"kind": "lexicographic", "priority": ["c", "a", "b"]},
        ],
        ids=lambda spec: spec["kind"],
    )
    def test_hypothesis_sections_are_the_library_checks(self, spec, tmp_path, capsys):
        path = write_json(tmp_path / "spec.json", spec)
        argv = ["check-axioms", "--spec", path, "--alts", "a,b,c", "--seed", "7"]
        cli.main([*argv, "--pairs", "30", "--triples", "30", "--depth", "12"])
        payload = json.loads(capsys.readouterr().out)

        alts = rp.AlternativeSet(("a", "b", "c"))
        parsed = rp.PreferenceSpec.from_dict(spec)
        oracle = rp.build_oracle(parsed, alts)
        sampler = rp.RafSampler(alts, 7)
        order = rp.check_order_axioms(oracle, sampler, 30, 30)
        dominance = rp.falsify_weak_dominance(oracle, sampler, 30)
        loci = (0.5,) if parsed.cutoff is None else (0.5, parsed.cutoff)
        families = rp.builtin_families(alts, loci=loci)
        continuity = rp.falsify_weak_continuity(oracle, families, 12)

        sections = [*payload["order_axioms"]["checks"], payload["weak_dominance"],
                    payload["weak_continuity"]]
        for check, section in zip((*order, dominance, continuity), sections, strict=True):
            assert type(check) is dict
            assert sorted(check) == ["axiom", "note", "samples", "verdict", "witness"]
            assert json.dumps(check, sort_keys=True) == json.dumps(section, sort_keys=True)
        assert payload["config"]["families"] == len(families)

    def test_missing_file_exits_one(self, tmp_path, capsys):
        rc = cli.main(["check-axioms", "--spec", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        rc = cli.main(["check-axioms", "--spec", str(bad)])
        assert rc == 1
        assert "malformed JSON" in capsys.readouterr().err

    def test_unknown_kind_exits_one(self, tmp_path, capsys):
        spec = write_json(tmp_path / "odd.json", {"kind": "mystery"})
        rc = cli.main(["check-axioms", "--spec", spec])
        assert rc == 1
        assert "unknown preference kind" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, additive_spec, capsys):
        rc = cli.main(["check-axioms", "--spec", additive_spec, "--frobnicate"])
        assert rc == 1

    @pytest.mark.parametrize(
        "content",
        [
            b'{"kind": "min", "alts": 5}',
            b'{"kind": "min", "alts": "xyz"}',
            b'{"kind": "lexicographic", "priority": 5}',
            b'{"kind": "lexicographic", "priority": ["a", 1], "alts": ["a", "b"]}',
            b'{"kind": "additive", "weights": 0.5}',
            b'{"kind": "additive", "weights": [NaN, 0.5, 0.5]}',
            b'{"kind": []}',
            '{"kind": "min", "alts": ["\u00e9", "b"]}'.encode("latin-1"),
        ],
        ids=[
            "alts-number", "alts-string", "priority-number", "priority-mixed",
            "weights-number", "weights-nan", "kind-list", "not-utf8",
        ],
    )
    def test_malformed_spec_exits_one(self, tmp_path, capsys, content):
        spec = tmp_path / "spec.json"
        spec.write_bytes(content)
        rc = cli.main(["check-axioms", "--spec", str(spec), "--pairs", "5", "--triples", "5"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestLabelAgreement:
    """Labels named in more than one place must be equal and in the same order."""

    @pytest.mark.parametrize(
        "labels, rc",
        [(["x", "y", "z"], 0), (["z", "y", "x"], 1), (["x", "y"], 1)],
        ids=["equal", "reordered", "fewer"],
    )
    @pytest.mark.parametrize(
        "command, other",
        [
            ("check-axioms", "--alts"),
            ("validate", "--alts"),
            ("build-utility", "RAF file"),
            ("choose", "menu file"),
        ],
    )
    def test_labels_must_agree(self, tmp_path, capsys, command, other, labels, rc):
        spec = {"kind": "additive", "weights": [0.6, 0.3, 0.1]}
        points = {
            "alts": ["x", "y", "z"],
            "items": [{"label": "p", "values": [1.0, 0.0, 0.0]}],
        }
        if other == "--alts":
            spec["alts"] = ["x", "y", "z"]
            extra = ["--alts", ",".join(labels), "--pairs", "3"]
            if command == "check-axioms":
                extra += ["--triples", "3", "--depth", "2"]
        else:
            spec["alts"] = labels
            flag = "--rafs" if command == "build-utility" else "--menu"
            extra = [flag, write_json(tmp_path / "points.json", points)]
        spec_file = write_json(tmp_path / "spec.json", spec)
        out = tmp_path / "out"
        assert cli.main([command, "--spec", spec_file, *extra, "--out", str(out)]) == rc
        err = capsys.readouterr().err
        if rc:
            assert not out.exists()
            assert "spec file" in err and other in err and "same order" in err
        elif command == "build-utility":
            # The weights land on the labels they were given with: x scores 0.6.
            u = float(out.read_text().splitlines()[1].split(",")[4])
            assert u == pytest.approx(0.6, abs=1e-6)


class TestPointFileErrors:
    """A bad RAF or menu file is named as such, in the one error line."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({}, "needs 'alts' and 'items'"),
            ({"alts": ["a", "b"], "items": []}, "at least one"),
            ({"alts": ["a", "b"], "items": [{"label": "x", "values": "01"}]}, "values must be a list"),
            ({"alts": ["a", "b"], "items": [{"label": "x", "values": 0.5}]}, "values must be a list"),
        ],
        ids=["empty-object", "no-items", "str-values", "number-values"],
    )
    @pytest.mark.parametrize(
        "command, flag, what",
        [("build-utility", "--rafs", "RAF file"), ("choose", "--menu", "menu file")],
    )
    def test_errors_name_the_file(self, tmp_path, capsys, command, flag, what, doc, message):
        spec = write_json(tmp_path / "spec.json", {"kind": "min"})
        points = write_json(tmp_path / "points.json", doc)
        rc = cli.main([command, "--spec", spec, flag, points])
        err = capsys.readouterr().err
        assert rc == 1
        assert [line for line in err.splitlines() if line.startswith("error:")] == [err.strip()]
        assert err.startswith(f"error: {what} {points}: ") and message in err
        if command == "build-utility":
            assert "menu" not in err.replace(points, "")


class TestBuildUtility:
    def test_csv_table(self, additive_spec, rafs_file, tmp_path, capsys):
        out = tmp_path / "table.csv"
        rc = cli.main(
            ["build-utility", "--spec", additive_spec, "--rafs", rafs_file, "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "label,a,b,u,lo,hi,oracle_calls"
        assert lines[1] == "all,1.0,1.0,1.0,1.0,1.0,2"
        assert lines[2] == "none,0.0,0.0,0.0,0.0,0.0,2"
        mixed = lines[3].split(",")
        assert abs(float(mixed[3]) - 0.5) <= 1e-6
        assert "not been screened" in capsys.readouterr().err

    def test_json_rows(self, additive_spec, rafs_file, tmp_path):
        out = tmp_path / "table.json"
        rc = cli.main(
            [
                "build-utility",
                "--spec",
                additive_spec,
                "--rafs",
                rafs_file,
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert [row["label"] for row in payload["rows"]] == ["all", "none", "mixed"]
        assert payload["rows"][0]["u"] == 1.0
        # Each row holds the CSV columns; the tolerance is stated once, in config.
        columns = sorted(["label", "values", "u", "lo", "hi", "oracle_calls"])
        assert [sorted(row) for row in payload["rows"]] == [columns] * 3
        assert payload["config"] == {"tol": 1e-6}

    def test_diagonal_violation_exits_three(self, anti_spec, rafs_file, capsys):
        rc = cli.main(["build-utility", "--spec", anti_spec, "--rafs", rafs_file])
        assert rc == 3
        err = capsys.readouterr().err
        assert "diagonal" in err
        assert "membership(1.0)=False" in err

    def test_weight_count_mismatch_exits_one(self, tmp_path, rafs_file, capsys):
        spec = write_json(
            tmp_path / "wide.json", {"kind": "additive", "weights": [0.25, 0.25, 0.25, 0.25]}
        )
        rc = cli.main(["build-utility", "--spec", spec, "--rafs", rafs_file])
        assert rc == 1

    def test_bad_tol_writes_only_its_error_line(self, additive_spec, rafs_file, capsys):
        rc = cli.main(["build-utility", "--spec", additive_spec, "--rafs", rafs_file, "--tol=-1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: tolerance must lie in")


class TestValidate:
    def test_additive_exits_zero(self, additive_spec, tmp_path):
        out = tmp_path / "validate.json"
        rc = cli.main(
            ["validate", "--spec", additive_spec, "--pairs", "50", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["pairs_tested"] == 50
        assert payload["report"]["violations"] == []
        assert payload["oracle"] == "additive[0.5,0.5]"
        assert not {"oracle", "seed", "tol"} & set(payload["report"])

    def test_lexicographic_with_loose_tol_flags_indeterminates(self, lex_spec, tmp_path):
        out = tmp_path / "validate.json"
        rc = cli.main(
            [
                "validate",
                "--spec",
                lex_spec,
                "--pairs",
                "200",
                "--tol",
                "0.05",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["indeterminate"] > 0
        assert payload["report"]["indeterminate_strict"] > 0

    def test_anti_monotone_exits_three(self, anti_spec, capsys):
        rc = cli.main(["validate", "--spec", anti_spec, "--pairs", "5"])
        assert rc == 3


class TestChoose:
    def test_best_mean_wins(self, additive_spec, menu_file, tmp_path):
        out = tmp_path / "choice.json"
        rc = cli.main(
            ["choose", "--spec", additive_spec, "--menu", menu_file, "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["tournament"] == ["right"]
        assert payload["result"]["utility_band"] == ["right"]
        assert payload["result"]["agreed"] is True
        assert payload["oracle"] == "additive[0.5,0.5]"
        assert not {"oracle", "seed", "tol"} & set(payload["result"])

    def test_only_commands_that_sample_import_numpy(self, additive_spec, menu_file, tmp_path):
        src = Path(rp.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        code = (
            "import sys; from rafpref import cli; "
            "print(cli.main(sys.argv[1:]), 'numpy' in sys.modules)"
        )
        out = str(tmp_path / "report.json")
        for argv, loaded in (
            (["choose", "--spec", additive_spec, "--menu", menu_file], False),
            (["validate", "--spec", additive_spec, "--pairs", "2"], True),
        ):
            proc = subprocess.run(
                [sys.executable, "-c", code, *argv, "--out", out],
                capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == f"0 {loaded}\n", argv[0]

    def test_lexicographic_band_artifact(self, tmp_path):
        spec = write_json(
            tmp_path / "lex.json", {"kind": "lexicographic", "priority": ["a", "b"]}
        )
        menu = write_json(
            tmp_path / "tied.json",
            {
                "alts": ["a", "b"],
                "items": [
                    {"label": "good_tail", "values": [0.5, 0.9]},
                    {"label": "poor_tail", "values": [0.5, 0.1]},
                ],
            },
        )
        out = tmp_path / "choice.json"
        rc = cli.main(["choose", "--spec", spec, "--menu", menu, "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["tournament"] == ["good_tail"]
        assert payload["result"]["band_artifacts"] == ["poor_tail"]
        assert payload["result"]["agreed"] is True

    def test_axiom_violation_exits_two(self, additive_spec, menu_file, capsys, monkeypatch):
        def broken_oracle(spec, alts):
            return rp.PreferenceOracle("broken", alts, lambda a, b: False)

        monkeypatch.setattr(cli, "build_oracle", broken_oracle)
        rc = cli.main(["choose", "--spec", additive_spec, "--menu", menu_file])
        assert rc == 2
        assert "incomparable" in capsys.readouterr().err

    def test_diagonal_violation_names_the_item(self, capsys):
        golden = Path(__file__).parent / "golden"
        rc = cli.main(
            ["choose", "--spec", str(golden / "spec_anti.json"), "--menu", str(golden / "menu.json")]
        )
        assert rc == 3
        assert capsys.readouterr().err.endswith("(while scoring item 'left')\n")

    def test_csv_format_is_rejected(self, additive_spec, menu_file, capsys):
        rc = cli.main(
            ["choose", "--spec", additive_spec, "--menu", menu_file, "--format", "csv"]
        )
        assert rc == 1


class TestDemoSequences:
    def test_worked_example_rows(self, capsys):
        rc = cli.main(
            [
                "demo-sequences",
                "--alts",
                "a,b,c",
                "--upper",
                "1.0,0.6,0.3",
                "--lower",
                "1.0,0.6,0.2",
                "--terms",
                "1,10",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("n,upper_a")
        first = lines[1].split(",")
        assert first[:7] == ["1", "1.0", "0.6", "0.3", "0.5", "0.45", "0.2"]
        assert first[7] == "True"
        tenth = lines[2].split(",")
        assert tenth[0] == "10"
        assert float(tenth[9]) <= float(tenth[10])  # dist_lower <= bound

    def test_labels_default_to_generated_names(self, tmp_path):
        out = tmp_path / "seq.json"
        rc = cli.main(
            [
                "demo-sequences",
                "--upper",
                "1.0,0.6,0.3",
                "--lower",
                "0.5,0.6,0.2",
                "--terms",
                "1",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["alts"] == ["a", "b", "c"]

    def test_json_payload_carries_the_partition(self, tmp_path):
        out = tmp_path / "seq.json"
        rc = cli.main(
            [
                "demo-sequences",
                "--alts",
                "a,b",
                "--upper",
                "1.0,0.5",
                "--lower",
                "1.0,0.5",
                "--terms",
                "2",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["partition"]["at_one"] == ["a"]
        assert payload["partition"]["tied_interior"] == ["b"]
        assert payload["terms"][0]["strictly_dominates"] is True

    def test_hypothesis_failure_exits_one(self, capsys):
        rc = cli.main(
            [
                "demo-sequences",
                "--alts",
                "a,b",
                "--upper",
                "0.4,0.5",
                "--lower",
                "0.6,0.5",
            ]
        )
        assert rc == 1
        assert "pointwise dominance fails" in capsys.readouterr().err

    def test_bad_values_exit_one(self, capsys):
        rc = cli.main(
            ["demo-sequences", "--alts", "a,b", "--upper", "1.0,oops", "--lower", "0.5,0.5"]
        )
        assert rc == 1


class TestNoTraceback:
    """Numbers beyond float range and undecodable JSON end in one error line."""

    BIG = "1" + "0" * 400
    MENU = '{"alts": ["a", "b"], "items": [{"label": "x", "values": [%s, 0.5]}]}' % BIG

    @staticmethod
    def assert_one_error(capsys, rc, message):
        err = capsys.readouterr().err
        assert rc == 1
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [err.strip()]
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [("choose", "--menu"), ("build-utility", "--rafs")])
    def test_point_value_beyond_float_range(self, tmp_path, capsys, command, flag):
        spec = write_json(tmp_path / "spec.json", {"kind": "min"})
        points = tmp_path / "points.json"
        points.write_text(self.MENU, encoding="utf-8")
        rc = cli.main([command, "--spec", spec, flag, str(points)])
        self.assert_one_error(capsys, rc, "availability at 'a' is too large for a float")

    def test_cutoff_beyond_float_range(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "threshold", "cutoff": %s}' % self.BIG, encoding="utf-8")
        rc = cli.main(["check-axioms", "--spec", str(spec), "--pairs", "5", "--triples", "5"])
        self.assert_one_error(capsys, rc, "cutoff is too large for a float")

    @pytest.mark.parametrize(
        "content",
        ['{"kind": "min", "x": %s}' % ("1" * 4301), "[" * 100_000 + "]" * 100_000],
        ids=["integer-of-4301-digits", "nested-100000-deep"],
    )
    def test_undecodable_json(self, tmp_path, capsys, content):
        spec = tmp_path / "spec.json"
        spec.write_text(content, encoding="utf-8")
        rc = cli.main(["check-axioms", "--spec", str(spec)])
        self.assert_one_error(capsys, rc, f"malformed JSON in {spec}")

    def test_term_index_beyond_float_range(self, capsys):
        rc = cli.main(["demo-sequences", "--upper", "1,1", "--lower", "0,0", "--terms", self.BIG])
        self.assert_one_error(capsys, rc, "term index is too large for a float")


class TestFlags:
    # Flags parse before any file is opened, so the paths need not exist.
    REQUIRED = {
        "check-axioms": ["--spec", "spec.json"],
        "validate": ["--spec", "spec.json"],
        "build-utility": ["--spec", "spec.json", "--rafs", "rafs.json"],
        "choose": ["--spec", "spec.json", "--menu", "menu.json"],
        "demo-sequences": ["--upper", "1,1", "--lower", "0,0"],
    }

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("check-axioms", "--tol", "0.1"),
            ("check-axioms", "--format", "json"),
            ("validate", "--format", "json"),
            ("build-utility", "--seed", "1"),
            ("choose", "--seed", "1"),
            ("choose", "--format", "json"),
            ("demo-sequences", "--seed", "1"),
            ("demo-sequences", "--tol", "0.1"),
        ],
    )
    def test_flags_a_command_does_not_read_are_rejected(self, command, flag, value, capsys):
        rc = cli.main([command, *self.REQUIRED[command], flag, value])
        assert rc == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value, kind",
        [
            ("check-axioms", "--pairs", "0", "positive"),
            ("check-axioms", "--triples", "0", "positive"),
            ("check-axioms", "--depth", "0", "positive"),
            ("check-axioms", "--seed", "-1", "nonnegative"),
            ("validate", "--pairs", "-1", "nonnegative"),
            ("validate", "--seed", "-1", "nonnegative"),
        ],
    )
    def test_a_count_below_its_bound_names_the_flag(self, command, flag, value, kind, capsys):
        rc = cli.main([command, *self.REQUIRED[command], flag, value])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: argument {flag}: must be a {kind} integer, got {value}\n"
        )


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv_tail",
        [
            ["check-axioms", "--pairs", "30", "--triples", "30", "--depth", "5"],
            ["validate", "--pairs", "30"],
        ],
    )
    def test_reports_are_byte_identical_across_runs(
        self, additive_spec, tmp_path, argv_tail
    ):
        first = tmp_path / "first.out"
        second = tmp_path / "second.out"
        base = [argv_tail[0], "--spec", additive_spec, "--seed", "42", *argv_tail[1:]]
        assert cli.main([*base, "--out", str(first)]) == cli.main(
            [*base, "--out", str(second)]
        )
        assert first.read_bytes() == second.read_bytes()

    def test_utility_tables_are_byte_identical(self, additive_spec, rafs_file, tmp_path):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        base = ["build-utility", "--spec", additive_spec, "--rafs", rafs_file]
        cli.main([*base, "--out", str(first)])
        cli.main([*base, "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()


class TestInProcess:
    @pytest.mark.parametrize("argv", [["--help"], ["choose", "--help"]])
    def test_help_returns_zero(self, argv, capsys):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: rafpref")

    def test_entrypoint_exits_with_the_code(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["rafpref", "choose", "--help"])
        with pytest.raises(SystemExit) as exc:
            cli.entrypoint()
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rafpref choose")

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_runs_without_docstrings(self, tmp_path):
        src = Path(rp.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = ["demo-sequences", "--upper", "1,0.5", "--lower", "1,0.2", "--terms", "1,2"]
        proc = subprocess.run(
            [sys.executable, "-OO", "-m", "rafpref.cli", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.startswith("n,upper_a,upper_b,lower_a,lower_b")
