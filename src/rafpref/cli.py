"""Command line interface.

Five subcommands cover the package's workflows:

* ``check-axioms``: screen a preference spec against the order axioms and
  the two regularity hypotheses, writing a JSON report.
* ``build-utility``: bisect the utility of every RAF in a labeled
  collection, writing a CSV (or JSON) table.
* ``validate``: compare computed utilities against direct oracle answers on
  sampled pairs.
* ``choose``: pick from a menu by tournament and by utility, cross
  validating the two routes.
* ``demo-sequences``: print the strictly dominating sequence terms for a
  pointwise dominating pair.

Exit codes: 0 success, 1 input error, 2 axiom or representation finding,
3 diagonal monotonicity failure inside a bisection.  Each handler returns
its report text and exit code, and ``main`` writes the text, to ``--out``
or to stdout.  Reports embed the seed and counts that produced them and
contain nothing volatile, so a rerun with the same flags writes
byte-identical payloads.

The argument parser is built once per process, at the first ``main`` call,
and reused: parsing does not change it, and every call gets a fresh
namespace.  Callers that run ``main`` many times in one process, such as a
benchmark, a test suite or a program that embeds the CLI, skip the build
on every later call (about 1.3 ms on a 2-vCPU VM); a console run builds
the parser once either way.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path
from typing import Mapping, Sequence

from .axioms import (
    AxiomCheck,
    builtin_families,
    check_order_axioms,
    falsify_weak_continuity,
    falsify_weak_dominance,
)
from .choice import Menu, _scores, cross_validate_choice
from .errors import (
    DiagonalMonotonicityError,
    MenuAxiomError,
    RafPrefError,
    ValidationError,
    _sequence,
    _tol,
)
from .perturb import perturbation_sequences
from .preference import PreferenceOracle, PreferenceSpec, build_oracle
from .raf import AlternativeSet, Raf, strictly_dominates, sup_distance
from .sampling import RafSampler
from .utility import validate_representation

__all__ = ["main", "entrypoint"]


class _Parser(argparse.ArgumentParser):
    # Argparse exits with status 2 on bad flags; here 2 means "axiom
    # finding", so flag problems are rerouted to the input-error path.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValidationError(message)


def _load_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc
        # ValueError covers decode errors and integers past Python's digit
        # limit; RecursionError, arrays or objects nested too deep.
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"malformed JSON in {path}: {exc}") from exc


def _load_spec(path: str) -> tuple[PreferenceSpec, tuple[str, ...] | None]:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"spec file {path} must contain a JSON object")
    doc = dict(doc)
    file_alts = doc.pop("alts", None)
    if file_alts is not None:
        file_alts = _sequence("alts", file_alts)
    return PreferenceSpec.from_dict(doc), file_alts


def _generated_labels(k: int) -> tuple[str, ...]:
    if k <= 26:
        return tuple(chr(ord("a") + i) for i in range(k))
    return tuple(f"x{i + 1}" for i in range(k))


def _agreed_labels(named: Mapping[str, Sequence[str] | None]) -> tuple[str, ...] | None:
    """The labels every place in ``named`` (a flag or a file) gives, or None if none does."""
    given = [(where, tuple(labels)) for where, labels in named.items() if labels is not None]
    for where, labels in given[1:]:
        if labels != given[0][1]:
            raise ValidationError(
                f"{given[0][0]} names the alternatives {list(given[0][1])} but {where} "
                f"names {list(labels)}; they must be equal and in the same order"
            )
    return given[0][1] if given else None


def _sampled_setup(args: argparse.Namespace) -> tuple[PreferenceSpec, PreferenceOracle, RafSampler]:
    """Labels from ``--alts`` or the spec file, else the kind's defaults."""
    spec, file_alts = _load_spec(args.spec)
    flag = None if args.alts is None else args.alts.split(",")
    labels = _agreed_labels({"--alts": flag, f"spec file {args.spec}": file_alts})
    if labels is None:
        if spec.kind == "additive" and spec.weights:
            labels = _generated_labels(len(spec.weights))
        elif spec.kind == "lexicographic" and spec.priority:
            labels = spec.priority
        else:
            labels = _generated_labels(5)
    alts = AlternativeSet(labels)
    return spec, build_oracle(spec, alts), RafSampler(alts, args.seed)


def _labeled_setup(
    args: argparse.Namespace, path: str, what: str
) -> tuple[PreferenceSpec, Menu, PreferenceOracle]:
    """Labeled points from ``path``, called ``what`` in errors, over the spec file's labels."""
    spec, file_alts = _load_spec(args.spec)
    doc = _load_json(path)
    try:
        points = Menu.from_dict(doc)
    except ValidationError as exc:
        raise ValidationError(f"{what} {path}: {exc}") from None
    _agreed_labels({f"spec file {args.spec}": file_alts, f"{what} {path}": points.alts.labels})
    return spec, points, build_oracle(spec, points.alts)


def _to_json(payload: Mapping) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _table_report(
    fmt: str,
    header: Sequence[str],
    columns: Sequence[str],
    rows: Sequence[Mapping],
    payload: Mapping,
) -> str:
    """``payload`` as JSON, or for ``fmt`` ``"csv"`` the JSON-ready ``rows``
    flattened under ``header``: a list-valued column fills one cell per entry."""
    if fmt == "json":
        return _to_json(payload)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        cells: list = []
        for column in columns:
            value = row[column]
            cells.extend(value if isinstance(value, list) else [value])
        writer.writerow(cells)
    return buf.getvalue()


def _fields(check: AxiomCheck, *names: str) -> dict:
    return {name: getattr(check, name) for name in names}


def _cmd_check_axioms(args: argparse.Namespace) -> tuple[str, int]:
    spec, oracle, sampler = _sampled_setup(args)

    order = check_order_axioms(oracle, sampler, args.pairs, args.triples)
    dominance = falsify_weak_dominance(oracle, sampler, args.pairs)
    loci = (0.5, spec.cutoff) if spec.cutoff is not None else (0.5,)
    families = builtin_families(oracle.alts, loci=loci)
    continuity = falsify_weak_continuity(oracle, families, args.depth)

    all_passed = all(c.passed for c in (*order, dominance, continuity))
    payload = {
        "command": "check-axioms",
        "config": {
            "seed": args.seed,
            "pairs": args.pairs,
            "triples": args.triples,
            "depth": args.depth,
        },
        "alts": list(oracle.alts.labels),
        "spec": spec.to_dict(),
        "oracle": oracle.name,
        "order_axioms": {
            "oracle": oracle.name,
            "seed": sampler.seed,
            "all_passed": all(c.passed for c in order),
            "checks": [c.to_dict() for c in order],
        },
        "weak_dominance": _fields(dominance, "verdict", "samples", "witness"),
        "weak_continuity": {
            **_fields(continuity, "verdict", "witness", "note"),
            "families": len(families),
            "depth": args.depth,
        },
        "all_passed": all_passed,
    }
    return _to_json(payload), 0 if all_passed else 2


def _cmd_build_utility(args: argparse.Namespace) -> tuple[str, int]:
    spec, collection, oracle = _labeled_setup(args, args.rafs, "RAF file")
    _tol(args.tol)  # a bad flag ends in its error line alone, without the note
    print(
        f"note: {oracle.name} has not been screened here; run check-axioms first "
        "(the bisection detects only diagonal violations)",
        file=sys.stderr,
    )
    rows = [
        {"label": label, "values": list(raf.values), **result.to_dict()}
        for (label, raf), result in zip(collection.pairs(), _scores(oracle, collection, args.tol))
    ]
    header = ["label", *collection.alts.labels, "u", "lo", "hi", "oracle_calls"]
    columns = ("label", "values", "u", "lo", "hi", "oracle_calls")
    payload = {
        "command": "build-utility",
        "config": {"tol": args.tol},
        "alts": list(collection.alts.labels),
        "spec": spec.to_dict(),
        "oracle": oracle.name,
        "rows": rows,
    }
    return _table_report(args.format, header, columns, rows, payload), 0


def _cmd_validate(args: argparse.Namespace) -> tuple[str, int]:
    spec, oracle, sampler = _sampled_setup(args)
    report = validate_representation(oracle, sampler, args.pairs, args.tol)
    payload = {
        "command": "validate",
        "config": {"seed": args.seed, "tol": args.tol, "pairs": args.pairs},
        "alts": list(oracle.alts.labels),
        "spec": spec.to_dict(),
        "report": report.to_dict(),
    }
    return _to_json(payload), 0 if not report.violations else 2


def _cmd_choose(args: argparse.Namespace) -> tuple[str, int]:
    spec, menu, oracle = _labeled_setup(args, args.menu, "menu file")
    report = cross_validate_choice(oracle, menu, args.tol)
    payload = {
        "command": "choose",
        "config": {"tol": args.tol},
        "spec": spec.to_dict(),
        "menu": menu.to_dict(),
        "oracle": oracle.name,
        "result": report.to_dict(),
    }
    return _to_json(payload), 0 if report.agreed else 2


def _parse_list(text: str, what: str, kind: type = float) -> tuple:
    try:
        return tuple(kind(part) for part in text.split(","))
    except ValueError:
        items = "integers" if kind is int else "numbers"
        raise ValidationError(f"{what} must be comma-separated {items}, got {text!r}") from None


def _cmd_demo_sequences(args: argparse.Namespace) -> tuple[str, int]:
    upper_values = _parse_list(args.upper, "--upper")
    if args.alts is not None:
        alts = AlternativeSet(tuple(args.alts.split(",")))
    else:
        alts = AlternativeSet(_generated_labels(len(upper_values)))
    upper = Raf(alts, upper_values)
    lower = Raf(alts, _parse_list(args.lower, "--lower"))
    indices = _parse_list(args.terms, "--terms", int)

    sequences = perturbation_sequences(upper, lower)
    rows = []
    for n in indices:
        up_n, low_n = sequences.term(n)
        rows.append(
            {
                "n": n,
                "upper": list(up_n.values),
                "lower": list(low_n.values),
                "strictly_dominates": strictly_dominates(up_n, low_n),
                "dist_upper": sup_distance(up_n, upper),
                "dist_lower": sup_distance(low_n, lower),
                "bound": 0.5 / n,
            }
        )
    header = [
        "n",
        *[f"upper_{label}" for label in alts.labels],
        *[f"lower_{label}" for label in alts.labels],
        "strictly_dominates",
        "dist_upper",
        "dist_lower",
        "bound",
    ]
    columns = ("n", "upper", "lower", "strictly_dominates", "dist_upper", "dist_lower", "bound")
    payload = {
        "command": "demo-sequences",
        "alts": list(alts.labels),
        "upper": list(upper.values),
        "lower": list(lower.values),
        "partition": {
            "at_one": list(sequences.at_one),
            "at_zero": list(sequences.at_zero),
            "tied_interior": list(sequences.tied_interior),
            "interior_margin": sequences.interior_margin,
        },
        "terms": rows,
    }
    return _table_report(args.format, header, columns, rows, payload), 0


@functools.cache
def _build_parser() -> _Parser:
    # A literal, not the docstring: ``python -OO`` strips docstrings.
    parser = _Parser(prog="rafpref", description="Command line interface.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand takes only the shared flags its handler reads.
    def command(
        name, handler, summary, *, spec=True, seed=False, tol=False, formats=False, alts=False
    ):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if seed:
            p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        if tol:
            p.add_argument(
                "--tol", type=float, default=1e-6,
                help="bisection tolerance in [2**-54, 0.5] (default 1e-6)",
            )
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if formats:
            p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
        if spec:
            p.add_argument("--spec", required=True, help="preference spec JSON file")
        if alts:
            p.add_argument("--alts", default=None, help="comma-separated alternative labels")
        return p

    p = command(
        "check-axioms", _cmd_check_axioms, "screen a spec against the axioms", seed=True, alts=True
    )
    p.add_argument("--pairs", type=int, default=1000, help="sampled pairs per axiom")
    p.add_argument("--triples", type=int, default=1000, help="sampled triples for transitivity")
    p.add_argument("--depth", type=int, default=100, help="sequence depth for continuity")

    p = command(
        "build-utility", _cmd_build_utility, "tabulate utilities for a RAF collection",
        tol=True, formats=True,
    )
    p.add_argument("--rafs", required=True, help="labeled RAF collection JSON file")

    p = command(
        "validate", _cmd_validate, "check utilities against oracle answers",
        seed=True, tol=True, alts=True,
    )
    p.add_argument("--pairs", type=int, default=1000, help="sampled pairs to compare")

    p = command("choose", _cmd_choose, "choose from a menu, cross-validating both routes", tol=True)
    p.add_argument("--menu", required=True, help="menu JSON file")

    p = command(
        "demo-sequences", _cmd_demo_sequences, "print strictly dominating sequence terms",
        spec=False, formats=True,
    )
    p.add_argument("--alts", help="comma-separated alternative labels (default: derived from --upper)")
    p.add_argument("--upper", required=True, help="comma-separated values of the dominating RAF")
    p.add_argument("--lower", required=True, help="comma-separated values of the dominated RAF")
    p.add_argument("--terms", default="1,2,5,10", help="comma-separated term indices")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, run the handler and write its report; returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
        text, code = args.handler(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text, encoding="utf-8")
        return code
    except SystemExit as exc:  # argparse exits after printing --help
        return exc.code
    except DiagonalMonotonicityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MenuAxiomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RafPrefError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # pragma: no cover - console script shim
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
