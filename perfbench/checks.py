"""Output checks that do not use the code under test.

Every check takes a request's inputs (the plain dicts the benchmark wrote to
its input files) and the bytes the program wrote, and returns a list of
problems; an empty list means the output is correct.  The references are the
closed forms of the built-in preference kinds, written here from their
definitions in the README, so a defect in ``rafpref`` cannot hide in the
check that is meant to catch it.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

#: Slack on top of ``tol`` when a bisected utility is compared with its
#: closed form: the closed forms and the oracle keys round differently.
FLOAT_SLACK = 1e-12

#: Kinds that fail weak dominance, and kinds that fail weak continuity, per
#: the README table.  Every kind passes the order axioms.
NOT_DOMINANT = frozenset({"anti_monotone", "threshold"})
NOT_CONTINUOUS = frozenset({"lexicographic", "threshold"})


def budget(tol: float) -> int:
    """Most membership queries one bisection may spend."""
    return 2 + math.ceil(math.log2(1.0 / tol))


def _mean(values) -> float:
    return sum(values) / len(values)


def key(spec: dict, alts: list[str], values) -> object:
    """The comparison key of ``spec`` on a point; larger is better."""
    kind = spec["kind"]
    if kind == "additive":
        return sum(w * v for w, v in zip(spec["weights"], values))
    if kind == "min":
        return min(values)
    if kind == "geometric":
        return math.prod(values)
    if kind == "lexicographic":
        return tuple(values[alts.index(label)] for label in spec["priority"])
    if kind == "anti_monotone":
        return -_mean(values)
    if kind == "threshold":
        mean = _mean(values)
        return (1, mean) if mean >= spec["cutoff"] else (0, -mean)
    raise ValueError(f"no reference for kind {kind!r}")


def strictly_prefers(spec: dict, alts: list[str], a, b) -> bool:
    """Is ``a`` strictly better than ``b`` under the reference key?"""
    return key(spec, alts, a) > key(spec, alts, b)


def utilities(spec: dict, alts: list[str], values) -> tuple[float, ...]:
    """Every value the diagonal utility of ``values`` may take.

    One value, except for ``threshold`` points whose mean sits within float
    noise of the cutoff, where both sides of the cutoff are accepted.
    """
    kind = spec["kind"]
    if kind == "additive":
        return (sum(w * v for w, v in zip(spec["weights"], values)),)
    if kind == "min":
        return (min(values),)
    if kind == "geometric":
        return (math.prod(values) ** (1.0 / len(values)),)
    if kind == "lexicographic":
        return (values[alts.index(spec["priority"][0])],)
    if kind == "threshold":
        mean = _mean(values)
        if abs(mean - spec["cutoff"]) <= FLOAT_SLACK:
            return (mean, 0.0)
        return (mean,) if mean >= spec["cutoff"] else (0.0,)
    raise ValueError(f"kind {kind!r} has no diagonal utility")


def _near(spec, alts, values, u, tol) -> bool:
    return any(abs(u - ref) <= tol + FLOAT_SLACK for ref in utilities(spec, alts, values))


def _parse_json(out: bytes, problems: list[str]) -> dict | None:
    try:
        doc = json.loads(out.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        problems.append(f"output is not JSON: {exc}")
        return None
    if not isinstance(doc, dict):
        problems.append("output is not a JSON object")
        return None
    return doc


def _exit(rc: int, expected: int, problems: list[str]) -> None:
    if rc != expected:
        problems.append(f"exit code {rc}, expected {expected}")


def check_bracket(row: dict, tol: float) -> list[str]:
    """``lo <= hi``, width at most ``2 tol``, queries within the budget."""
    problems = []
    lo, hi, calls = row["lo"], row["hi"], row["oracle_calls"]
    if not 0.0 <= lo <= hi <= 1.0:
        problems.append(f"{row['label']}: bracket out of order [{lo!r}, {hi!r}]")
    if hi - lo > 2.0 * tol:
        problems.append(f"{row['label']}: bracket width {hi - lo!r} > 2*tol")
    if not 0 < calls <= budget(tol):
        problems.append(f"{row['label']}: {calls} oracle calls, budget {budget(tol)}")
    return problems


def _utility_rows(out: bytes, fmt: str, alts: list[str], problems: list[str]) -> list[dict]:
    if fmt == "json":
        doc = _parse_json(out, problems)
        return [] if doc is None else list(doc.get("rows", []))
    try:
        table = list(csv.reader(io.StringIO(out.decode("utf-8"))))
        header = ["label", *alts, "u", "lo", "hi", "oracle_calls"]
        if not table or table[0] != header:
            problems.append(f"CSV header {table[:1]} != {header}")
            return []
        return [
            {
                "label": rec[0],
                "values": [float(x) for x in rec[1 : 1 + len(alts)]],
                "u": float(rec[-4]),
                "lo": float(rec[-3]),
                "hi": float(rec[-2]),
                "oracle_calls": int(rec[-1]),
            }
            for rec in table[1:]
        ]
    except (UnicodeDecodeError, ValueError, IndexError) as exc:
        problems.append(f"unreadable CSV: {exc}")
        return []


def check_build_utility(inputs: dict, rc: int, out: bytes) -> list[str]:
    """Each row echoes its point and carries a bracketed, closed-form utility."""
    problems: list[str] = []
    _exit(rc, 0, problems)
    spec, tol, collection = inputs["spec"], inputs["tol"], inputs["rafs"]
    alts = collection["alts"]
    rows = _utility_rows(out, inputs["format"], alts, problems)
    items = collection["items"]
    if len(rows) != len(items):
        problems.append(f"{len(rows)} rows for {len(items)} points")
        return problems
    for row, item in zip(rows, items):
        if row["label"] != item["label"] or list(row["values"]) != item["values"]:
            problems.append(f"row {row['label']!r} does not echo point {item['label']!r}")
            continue
        problems += check_bracket(row, tol)
        if row["u"] != 0.5 * (row["lo"] + row["hi"]):
            problems.append(f"{row['label']}: u is not the bracket midpoint")
        if not _near(spec, alts, item["values"], row["u"], tol):
            problems.append(
                f"{row['label']}: u={row['u']!r} is not within tol of "
                f"{utilities(spec, alts, item['values'])}"
            )
    return problems


def sampled_points(seed: int, k: int, n: int):
    """The ``n`` points a ``RafSampler(alts, seed)`` draws first.

    The sampler's documented stream: one generator seeded with ``seed``,
    ``k`` uniforms per point.
    """
    rng = np.random.default_rng(seed)
    return [tuple(float(v) for v in rng.random(k)) for _ in range(n)]


def check_validate(inputs: dict, rc: int, out: bytes) -> list[str]:
    """The pairs are partitioned, none is violated, and the split between
    confirmed and indeterminate pairs fits the reference utilities."""
    problems: list[str] = []
    _exit(rc, 0, problems)
    doc = _parse_json(out, problems)
    if doc is None:
        return problems
    spec, tol, pairs, alts = inputs["spec"], inputs["tol"], inputs["pairs"], inputs["alts"]
    report = doc.get("report", {})
    tested = report.get("pairs_tested")
    confirmed, indeterminate = report.get("confirmed"), report.get("indeterminate")
    violations = report.get("violations")
    if tested != pairs:
        problems.append(f"pairs_tested={tested}, requested {pairs}")
    if violations != []:
        problems.append(f"violations reported: {violations!r}")
        return problems
    if confirmed + indeterminate != tested:
        problems.append(f"{confirmed} + {indeterminate} does not partition {tested} pairs")
    if not 0 <= report.get("indeterminate_strict", -1) <= indeterminate:
        problems.append("indeterminate_strict outside [0, indeterminate]")
    # Each bisected utility is within tol of its closed form, so a pair whose
    # closed forms differ by more than 4 tol must come out confirmed.
    points = sampled_points(inputs["seed"], len(alts), 2 * pairs)
    separated = 0
    for a, b in zip(points[::2], points[1::2]):
        gaps = [
            abs(ua - ub)
            for ua in utilities(spec, alts, a)
            for ub in utilities(spec, alts, b)
        ]
        separated += min(gaps) > 4.0 * tol + 2.0 * FLOAT_SLACK
    if confirmed < separated:
        problems.append(f"confirmed={confirmed}, but {separated} pairs are separated")
    return problems


def _replays_dominance(spec, alts, witness) -> bool:
    first, second = witness["first"]["values"], witness["second"]["values"]
    dominates = all(x > y for x, y in zip(first, second))
    return dominates and not strictly_prefers(spec, alts, first, second)


def _replays_continuity(spec, alts, witness) -> bool:
    term = witness["term_1"]
    return strictly_prefers(
        spec, alts, term["first"]["values"], term["second"]["values"]
    ) and strictly_prefers(
        spec, alts, witness["limit_second"]["values"], witness["limit_first"]["values"]
    )


def check_axioms(inputs: dict, rc: int, out: bytes) -> list[str]:
    """Verdicts follow the README table and every witness replays."""
    problems: list[str] = []
    doc = _parse_json(out, problems)
    if doc is None:
        return problems
    spec, alts = inputs["spec"], inputs["alts"]
    kind = spec["kind"]
    for check in doc.get("order_axioms", {}).get("checks", []):
        if check.get("verdict") != "passed_sampled" or check.get("witness") is not None:
            problems.append(f"{kind}: order axiom {check.get('axiom')} not passed")
    if len(doc.get("order_axioms", {}).get("checks", [])) != 3:
        problems.append(f"{kind}: expected three order-axiom checks")
    expected = {
        "weak_dominance": "falsified" if kind in NOT_DOMINANT else "passed_sampled",
        "weak_continuity": "falsified" if kind in NOT_CONTINUOUS else "not_falsified",
    }
    replays = {"weak_dominance": _replays_dominance, "weak_continuity": _replays_continuity}
    for hypothesis, verdict in expected.items():
        section = doc.get(hypothesis, {})
        if section.get("verdict") != verdict:
            problems.append(f"{kind}: {hypothesis} {section.get('verdict')!r}, expected {verdict!r}")
            continue
        witness = section.get("witness")
        if verdict == "falsified":
            if not witness or not replays[hypothesis](spec, alts, witness):
                problems.append(f"{kind}: {hypothesis} witness does not replay")
        elif witness is not None:
            problems.append(f"{kind}: {hypothesis} passed but carries a witness")
    finding = kind in NOT_DOMINANT | NOT_CONTINUOUS
    if doc.get("all_passed") is not (not finding):
        problems.append(f"{kind}: all_passed={doc.get('all_passed')!r}")
    _exit(rc, 2 if finding else 0, problems)
    return problems


def witnesses(out: bytes) -> int:
    """Number of falsification witnesses a check-axioms report carries."""
    problems: list[str] = []
    doc = _parse_json(out, problems) or {}
    return sum(
        isinstance(doc.get(h), dict) and doc[h].get("witness") is not None
        for h in ("weak_dominance", "weak_continuity")
    )


def check_choose(inputs: dict, rc: int, out: bytes) -> list[str]:
    """The tournament is the argmax of the reference key, inside the band,
    and every utility is within tol of its closed form."""
    problems: list[str] = []
    _exit(rc, 0, problems)
    doc = _parse_json(out, problems)
    if doc is None:
        return problems
    spec, tol, menu = inputs["spec"], inputs["tol"], inputs["menu"]
    alts = menu["alts"]
    result = doc.get("result", {})
    if doc.get("menu") != menu:
        problems.append("report does not echo the menu")
    keys = [key(spec, alts, item["values"]) for item in menu["items"]]
    best = max(keys)
    argmax = [item["label"] for item, k in zip(menu["items"], keys) if k == best]
    if result.get("tournament") != argmax:
        problems.append(f"tournament {result.get('tournament')} != argmax {argmax}")
    if result.get("agreed") is not True or result.get("escaped") != []:
        problems.append("tournament and utility band disagree")
    band = set(result.get("utility_band", []))
    if not set(argmax) <= band:
        problems.append(f"band {sorted(band)} misses an argmax item")
    utils = result.get("utilities", {})
    for item in menu["items"]:
        u = utils.get(item["label"])
        if u is None or not _near(spec, alts, item["values"], u, tol):
            problems.append(f"{item['label']}: utility {u!r} is not within tol of its closed form")
    return problems


def check_demo(inputs: dict, rc: int, out: bytes) -> list[str]:
    """Every term strictly dominates and is within ``1/(2n)`` of its limit."""
    problems: list[str] = []
    _exit(rc, 0, problems)
    doc = _parse_json(out, problems)
    if doc is None:
        return problems
    upper, lower, terms = inputs["upper"], inputs["lower"], inputs["terms"]
    got = doc.get("terms", [])
    if [t.get("n") for t in got] != terms:
        problems.append(f"terms {[t.get('n') for t in got]} != requested {terms}")
        return problems
    for term in got:
        n, up, low = term["n"], term["upper"], term["lower"]
        bound = 1.0 / (2.0 * n)
        if not all(0.0 <= x <= 1.0 for x in (*up, *low)):
            problems.append(f"term {n} leaves the cube")
        if not all(x > y for x, y in zip(up, low)) or term.get("strictly_dominates") is not True:
            problems.append(f"term {n} does not strictly dominate")
        if max(abs(x - y) for x, y in zip(up, upper)) > bound:
            problems.append(f"term {n}: upper is further than 1/(2n) from its limit")
        if max(abs(x - y) for x, y in zip(low, lower)) > bound:
            problems.append(f"term {n}: lower is further than 1/(2n) from its limit")
    return problems


def check_identical(first: bytes, rerun: bytes) -> list[str]:
    """A rerun of the same request writes the same bytes."""
    if first == rerun:
        return []
    at = next((i for i, (x, y) in enumerate(zip(first, rerun)) if x != y), min(len(first), len(rerun)))
    return [f"rerun output differs from the first run at byte {at}"]


def check_queries(inputs: dict, out: bytes, counted: int) -> list[str]:
    """Queries counted at the oracle equal the ``oracle_calls`` reported."""
    rows = _utility_rows(out, inputs["format"], inputs["rafs"]["alts"], [])
    reported = sum(row["oracle_calls"] for row in rows)
    if reported == counted:
        return []
    return [f"{counted} queries counted at the oracle, {reported} reported"]


CHECKS = {
    "build-utility": check_build_utility,
    "validate": check_validate,
    "check-axioms": check_axioms,
    "choose": check_choose,
    "demo-sequences": check_demo,
}
