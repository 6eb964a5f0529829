"""Acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and pins the tolerances it asserts, so this module doubles as the package's
executable scorecard:

1.  closed-form agreement of bisected utilities for the three score kinds;
2.  exactness at the cube corners and along the diagonal grid;
3.  diagonal membership is an up-set;
4.  utilities reproduce oracle answers on sampled pairs;
5.  perturbation terms strictly dominate within the 1/(2n) bound;
6.  bisection query budget at tol 1e-9;
7.  the counterexample suite: known-bad oracles are caught, known-good
    oracles are not falsified;
8.  tournament choice sits inside the utility band and matches exact
    score argmax;
9.  CLI reports are byte-identical across reruns.
"""

from __future__ import annotations

import json
import math
import time

import rafpref as rp
from rafpref import (
    Menu,
    Raf,
    RafSampler,
    bottom,
    builtin_families,
    compute_u,
    cross_validate_choice,
    falsify_weak_continuity,
    falsify_weak_dominance,
    membership,
    scale_top,
    strictly_prefers,
    top,
)
from rafpref import cli

SEED = 20250815
ALTS5 = rp.AlternativeSet(("a", "b", "c", "d", "e"))

DOMINANT_KINDS = ("additive", "min", "geometric", "lexicographic")


def _oracle(kind: str, alts=ALTS5) -> rp.PreferenceOracle:
    params = {}
    if kind == "additive":
        params["weights"] = (1.0 / len(alts),) * len(alts)
    if kind == "lexicographic":
        params["priority"] = alts.labels
    if kind == "threshold":
        params["cutoff"] = 0.5
    return rp.build_oracle(rp.PreferenceSpec(kind=kind, **params), alts)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def test_closed_form_agreement():
    # 1000 uniform RAFs per kind at tol 1e-6; the bisected utility must sit
    # within 1e-6 of the independent closed form, in under 5 seconds.
    tol = 1e-6
    closed_forms = {
        "additive": lambda raf: sum(raf.values) / len(raf.values),
        "min": lambda raf: min(raf.values),
        "geometric": lambda raf: math.prod(raf.values) ** (1.0 / len(raf.values)),
    }
    start = time.perf_counter()
    worst = 0.0
    for kind, closed in closed_forms.items():
        oracle = _oracle(kind)
        sampler = RafSampler(ALTS5, SEED)
        for raf in sampler.rafs(1000):
            gap = abs(compute_u(oracle, raf, tol).u - closed(raf))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _report(
        "closed-form agreement",
        worst <= 1e-6 and elapsed < 5.0,
        f"worst gap {worst:.3g}, {elapsed:.2f}s",
    )


def test_boundary_exactness():
    # Corners are exact for every weakly dominant kind; the 101-point
    # diagonal grid is reproduced within the bisection tolerance.
    tol = 1e-6
    ok = True
    worst = 0.0
    for kind in DOMINANT_KINDS:
        oracle = _oracle(kind)
        at_top = compute_u(oracle, top(ALTS5), tol)
        at_bottom = compute_u(oracle, bottom(ALTS5), tol)
        ok = ok and at_top.u == 1.0 and at_top.lo == at_top.hi == 1.0
        ok = ok and at_bottom.u == 0.0 and at_bottom.lo == at_bottom.hi == 0.0
        for i in range(101):
            t = i / 100.0
            gap = abs(compute_u(oracle, scale_top(t, ALTS5), tol).u - t)
            worst = max(worst, gap)
    _report(
        "boundary exactness",
        ok and worst <= tol,
        f"worst grid gap {worst:.3g}",
    )


def test_upset_monotonicity():
    # 10,000 sampled (raf, t < t') probes across the dominant kinds: a
    # member level never turns into a non-member above it.
    violations = 0
    for kind in DOMINANT_KINDS:
        oracle = _oracle(kind)
        sampler = RafSampler(ALTS5, SEED)
        for _ in range(2500):
            raf = sampler.raf()
            t_low, t_high = sorted((sampler.unit(), sampler.unit()))
            if membership(oracle, raf, t_low) and not membership(oracle, raf, t_high):
                violations += 1
    _report("up-set membership", violations == 0, f"{violations} violations in 10000")


def test_representation_equivalence():
    # 10,000 pairs per kind at tol 1e-9: zero violations, under 1%
    # indeterminate, under 60 seconds all told.
    tol = 1e-9
    start = time.perf_counter()
    ok = True
    details = []
    for kind in ("additive", "geometric"):
        oracle = _oracle(kind)
        report = rp.validate_representation(oracle, RafSampler(ALTS5, SEED), 10000, tol)
        ok = ok and not report.violations and report.indeterminate < 100
        details.append(f"{kind}: {len(report.violations)} viol, {report.indeterminate} indet")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report("representation equivalence", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_perturbation_contract():
    # 1000 sampled pointwise dominating pairs, terms 1..100: every term is a
    # valid RAF, strictly dominates, and stays within 1/(2n) of its limit.
    sampler = RafSampler(ALTS5, SEED)
    failures = 0
    for _ in range(1000):
        upper, lower = sampler.pointwise_dominating_pair()
        seqs = rp.perturbation_sequences(upper, lower)
        for n in range(1, 101):
            upper_n, lower_n = seqs.term(n)
            bound = 1.0 / (2.0 * n)
            if not (
                rp.strictly_dominates(upper_n, lower_n)
                and rp.sup_distance(upper_n, upper) <= bound
                and rp.sup_distance(lower_n, lower) <= bound
            ):
                failures += 1
    _report("perturbation contract", failures == 0, f"{failures} failing terms")


def test_query_budget():
    # At tol 1e-9 every bisection from the first two checks' instance sets
    # stays within 32 membership queries.
    tol = 1e-9
    budget = 32
    worst = 0
    for kind in ("additive", "min", "geometric"):
        oracle = _oracle(kind)
        sampler = RafSampler(ALTS5, SEED)
        for raf in sampler.rafs(1000):
            worst = max(worst, compute_u(oracle, raf, tol).oracle_calls)
    for kind in DOMINANT_KINDS:
        oracle = _oracle(kind)
        for i in range(101):
            result = compute_u(oracle, scale_top(i / 100.0, ALTS5), tol)
            worst = max(worst, result.oracle_calls)
        worst = max(worst, compute_u(oracle, top(ALTS5), tol).oracle_calls)
        worst = max(worst, compute_u(oracle, bottom(ALTS5), tol).oracle_calls)
    _report("query budget", worst <= budget, f"worst {worst} of {budget}")


def test_counterexample_suite():
    # Known-bad oracles must be caught with verified witnesses; known-good
    # ones must come back clean at depth 100.
    ok = True
    details = []

    anti = _oracle("anti_monotone")
    hit = falsify_weak_dominance(anti, RafSampler(ALTS5, SEED), 1)
    caught = not hit.passed and hit.samples == 1
    if caught:
        first, second = (rp.Raf.from_dict(hit.witness[role]) for role in ("first", "second"))
        caught = (first, second) == (top(ALTS5), bottom(ALTS5))
    ok = ok and caught
    details.append(f"anti_monotone dominance witness on canonical probe: {caught}")

    for kind, loci in (("lexicographic", (0.5,)), ("threshold", (0.5,))):
        oracle = _oracle(kind)
        families = builtin_families(ALTS5, loci=loci)
        found = falsify_weak_continuity(oracle, families, 10)
        verified = not found.passed
        if verified:
            (family,) = [f for f in families if f.description == found.witness["family"]]
            limit_first = rp.Raf.from_dict(found.witness["limit_first"])
            limit_second = rp.Raf.from_dict(found.witness["limit_second"])
            verified = (
                family.limits == (limit_first, limit_second)
                and strictly_prefers(oracle, limit_second, limit_first)
                and all(
                    strictly_prefers(oracle, *family.term(n))
                    for n in range(1, found.witness["depth"] + 1)
                )
            )
        ok = ok and verified
        details.append(f"{kind} continuity witness verified: {verified}")

    for kind in ("additive", "min", "geometric"):
        oracle = _oracle(kind)
        clean = falsify_weak_continuity(oracle, builtin_families(ALTS5), 100).passed
        clean = clean and falsify_weak_dominance(oracle, RafSampler(ALTS5, SEED), 1000).passed
        ok = ok and clean
        details.append(f"{kind} clean: {clean}")

    _report("counterexample suite", ok, "; ".join(details))


def test_choice_coherence():
    # 200 sampled menus (size up to 20): the tournament equals the exact
    # score argmax and sits inside the utility band; plus the documented
    # lexicographic band artifact on a tied-top-priority menu.
    tol = 1e-6
    sampler = RafSampler(ALTS5, SEED)
    sizes = [1 + int(20.0 * sampler.unit()) for _ in range(200)]
    discrepancies = 0
    for kind in ("additive", "min"):
        oracle = _oracle(kind)
        for size in sizes[:100]:
            items = tuple(sampler.raf() for _ in range(size))
            menu = Menu(ALTS5, tuple(f"m{i}" for i in range(size)), items)
            best = max(oracle.key(item) for item in items)
            argmax = tuple(
                label for label, item in menu.pairs() if oracle.key(item) >= best
            )
            report = cross_validate_choice(oracle, menu, tol)
            if report.tournament != argmax or not report.agreed:
                discrepancies += 1

    alts2 = rp.AlternativeSet(("a", "b"))
    lex = rp.build_oracle(
        rp.PreferenceSpec(kind="lexicographic", priority=("a", "b")), alts2
    )
    tied_menu = Menu(
        alts2,
        ("good_tail", "poor_tail"),
        (Raf(alts2, (0.5, 0.9)), Raf(alts2, (0.5, 0.1))),
    )
    report = cross_validate_choice(lex, tied_menu, tol)
    lex_ok = (
        report.agreed
        and report.tournament == ("good_tail",)
        and report.band_artifacts == ("poor_tail",)
    )
    _report(
        "choice coherence",
        discrepancies == 0 and lex_ok,
        f"{discrepancies} discrepancies in 200 menus; lexicographic band artifact: {lex_ok}",
    )


def test_cli_determinism(tmp_path):
    # Same flags, same seed: byte-identical payloads on rerun.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"kind": "additive", "weights": [0.2, 0.2, 0.2, 0.2, 0.2]}),
        encoding="utf-8",
    )
    rafs_path = tmp_path / "rafs.json"
    rafs_path.write_text(
        json.dumps(
            {
                "alts": ["a", "b", "c", "d", "e"],
                "items": [
                    {"label": "all", "values": [1, 1, 1, 1, 1]},
                    {"label": "half", "values": [0.5, 0.5, 0.5, 0.5, 0.5]},
                    {"label": "skew", "values": [0.9, 0.1, 0.8, 0.2, 0.7]},
                ],
            }
        ),
        encoding="utf-8",
    )
    runs = {
        "check-axioms": [
            "check-axioms", "--spec", str(spec_path), "--seed", "123",
            "--pairs", "50", "--triples", "50", "--depth", "10",
        ],
        "validate": ["validate", "--spec", str(spec_path), "--seed", "123", "--pairs", "50"],
        "build-utility": ["build-utility", "--spec", str(spec_path), "--rafs", str(rafs_path)],
    }
    ok = True
    for name, argv in runs.items():
        first = tmp_path / f"{name}-first.out"
        second = tmp_path / f"{name}-second.out"
        rc_first = cli.main([*argv, "--out", str(first)])
        rc_second = cli.main([*argv, "--out", str(second)])
        ok = ok and rc_first == rc_second == 0 and first.read_bytes() == second.read_bytes()
    _report("cli determinism", ok)
