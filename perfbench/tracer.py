"""Runtime spans around the public functions and methods of ``rafpref``.

:class:`Tracer` replaces every public function of the package, every public
method of its classes and every ``__post_init__`` with a wrapper that records
a span (name, start, end, parent span) in flat arrays.  Nothing under
``src/`` changes: the wrappers are rebound in the package's module
namespaces, so calls between modules go through them too.  Spans stay in
memory until the run ends; :func:`layer_metrics` turns them into the
per-layer figures of the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

from checks import budget

#: Per-layer metrics: name -> (unit, better, the end-to-end metric it should
#: move and on which workload).
LAYER_METRICS = {
    "cli.self_ms": ("ms", "lower", "request_p50_ms on choose (about 70% at 2 items); a small share on score"),
    "cli.out_bytes": ("bytes", "lower", "request_p50_ms on choose"),
    "choice.tournament_ms": ("ms", "lower", "request_p50_ms on choose"),
    "choice.tournament_queries_per_item": ("count", "lower", "request_p50_ms on choose"),
    "choice.band_ms": ("ms", "lower", "request_p50_ms on choose"),
    "utility.compute_u_calls": ("count", "lower", "items_per_s on score, request_p50_ms on choose; zero on screen"),
    "utility.compute_u_us": ("us", "lower", "items_per_s on score, request_p50_ms on choose; zero on screen"),
    "utility.queries_per_point": ("count", "lower", "items_per_s on score, request_p50_ms on choose; zero on screen"),
    "utility.budget_use": ("ratio", "lower", "items_per_s on score, request_p50_ms on choose; zero on screen"),
    "utility.validate_self_ms": ("ms", "lower", "items_per_s on score; zero on screen"),
    "utility.errors": ("count", "lower", "items_per_s on score, request_p50_ms on choose; zero on screen"),
    "preference.queries": ("count", "lower", "queries_per_item on all workloads"),
    "preference.query_us": ("us", "lower", "items_per_s on screen and score"),
    "preference.busy_share": ("ratio", "lower", "items_per_s on screen and score"),
    "raf.constructions": ("count", "lower", "items_per_s on screen"),
    "raf.post_init_us": ("us", "lower", "items_per_s on screen"),
    "raf.scale_top_calls": ("count", "lower", "items_per_s on score"),
    "raf.diagonal_cache_hit_ratio": ("ratio", "higher", "items_per_s on score"),
    "raf.busy_share": ("ratio", "lower", "items_per_s on score (cache), on screen (constructions)"),
    "sampling.draws": ("count", "lower", "items_per_s on screen; small on score (validate only)"),
    "sampling.draw_us": ("us", "lower", "items_per_s on screen; small on score (validate only)"),
    "axioms.order_ms": ("ms", "lower", "request_p50_ms on screen"),
    "axioms.dominance_ms": ("ms", "lower", "request_p50_ms on screen"),
    "axioms.continuity_ms": ("ms", "lower", "request_p50_ms on screen"),
    "axioms.replay_ratio": ("ratio", "higher", "request_p50_ms on screen"),
    "perturb.terms": ("count", "lower", "request_p90_ms on screen"),
    "perturb.term_us": ("us", "lower", "request_p90_ms on screen"),
    "trace.overhead_items_per_s": ("1/s", "lower", "none: the cost of tracing itself"),
}


def _targets(modules):
    """(owner, attribute, function) for every callable to wrap."""
    for module in modules:
        for name, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                yield module, name, obj
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_") and attr != "__post_init__":
                        continue
                    if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
                        yield obj, attr, member


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.raised: list[int] = []
        self.request_starts: list[int] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, label: str):
        name_id = len(self.names)
        self.names.append(label)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, raised, clock = self._stack, self.raised, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.append(idx)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, package: str) -> None:
        """Wrap the package's public callables and rebind them everywhere."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith(package + ".")]
        replaced: dict[int, object] = {}
        for owner, attr, member in _targets(modules):
            layer = (owner.__module__ if inspect.isclass(owner) else owner.__name__).split(".")[-1]
            if isinstance(member, (classmethod, staticmethod)):
                fn = member.__func__
                wrapper = type(member)(self._wrap(fn, f"{layer}.{fn.__qualname__}"))
            else:
                fn = member
                wrapper = self._wrap(fn, f"{layer}.{fn.__qualname__}")
                replaced[id(fn)] = wrapper
            self._undo.append((owner, attr, member))
            setattr(owner, attr, wrapper)
        # Names imported from one module into another still point at the
        # original functions; rebind them so cross-module calls are traced.
        for module in [sys.modules[package], *modules]:
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced and getattr(module, name) is not replaced[id(obj)]:
                    self._undo.append((module, name, obj))
                    setattr(module, name, replaced[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def begin_request(self) -> None:
        self.request_starts.append(len(self.start))

    def spans(self) -> dict[str, np.ndarray]:
        """Every span as columns, with the request each belongs to.

        The columns are views of the recording buffers, so nothing may be
        recorded once they have been taken.
        """
        index = np.arange(len(self.start))
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "request": np.searchsorted(np.array(self.request_starts), index, side="right") - 1,
            "raised": np.array(self.raised, dtype=np.int64),
        }


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """A span's duration minus the durations of its direct children."""
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
    return duration - covered


def _under(parent: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Spans that have an ancestor in ``target``."""
    flag = np.zeros(len(parent), dtype=bool)
    cur = parent.copy()
    live = cur >= 0
    while live.any():
        flag[live] |= target[cur[live]]
        cur[live] = parent[cur[live]]
        live = cur >= 0
    return flag


def layer_metrics(spans: dict, requests: int, items_by_op: dict, extra: dict, tol: float) -> dict:
    """The per-layer figures of :data:`LAYER_METRICS` from recorded spans.

    ``extra`` carries the figures measured outside the spans: output bytes,
    witnesses, the ``scale_top`` cache counters and the tracing overhead.
    """
    names = list(spans["names"])
    name, parent = spans["name"], spans["parent"]
    duration = spans["end"] - spans["start"]
    own = self_times(duration, parent)
    layer_of = np.array([n.split(".")[0] for n in names])[name]

    def is_(label: str) -> np.ndarray:
        return name == names.index(label) if label in names else np.zeros(len(name), dtype=bool)

    def per(total: float, count: float) -> float:
        return float(total / count) if count else 0.0

    main = is_("cli.main")
    busy = duration[main].sum()
    query = is_("preference.PreferenceOracle.weak_prefers")
    compute_u = is_("utility.compute_u")
    tournament = is_("choice.maximal_set")
    post_init = is_("raf.Raf.__post_init__")
    term = is_("perturb.PerturbationSequences.term")
    sampling = layer_of == "sampling"
    draws = sampling & ~np.isin(parent, np.flatnonzero(sampling))
    raised = np.zeros(len(name), dtype=bool)
    raised[spans["raised"]] = True
    points = compute_u.sum()
    queries_per_point = per(query[_under(parent, compute_u)].sum(), points)
    return {
        "cli.self_ms": per(own[main].sum() * 1e3, requests),
        "cli.out_bytes": per(extra["out_bytes"], requests),
        "choice.tournament_ms": per(duration[tournament].sum() * 1e3, requests),
        "choice.tournament_queries_per_item": per(
            query[_under(parent, tournament)].sum(), items_by_op.get("choose", 0)
        ),
        "choice.band_ms": per(duration[is_("choice.choose_by_utility")].sum() * 1e3, requests),
        "utility.compute_u_calls": per(points, requests),
        "utility.compute_u_us": per(own[compute_u].sum() * 1e6, points),
        "utility.queries_per_point": queries_per_point,
        "utility.budget_use": queries_per_point / budget(tol),
        "utility.validate_self_ms": per(own[is_("utility.validate_representation")].sum() * 1e3, requests),
        "utility.errors": per((compute_u & raised).sum(), requests),
        "preference.queries": per(query.sum(), requests),
        "preference.query_us": per(own[query].sum() * 1e6, query.sum()),
        "preference.busy_share": per(own[layer_of == "preference"].sum(), busy),
        "raf.constructions": per(post_init.sum(), requests),
        "raf.post_init_us": per(own[post_init].sum() * 1e6, post_init.sum()),
        "raf.scale_top_calls": per(is_("raf.scale_top").sum(), requests),
        "raf.diagonal_cache_hit_ratio": per(extra["cache_hits"], extra["cache_lookups"]),
        "raf.busy_share": per(own[layer_of == "raf"].sum(), busy),
        "sampling.draws": per(draws.sum(), requests),
        "sampling.draw_us": per(own[sampling].sum() * 1e6, draws.sum()),
        "axioms.order_ms": per(duration[is_("axioms.check_order_axioms")].sum() * 1e3, requests),
        "axioms.dominance_ms": per(duration[is_("axioms.falsify_weak_dominance")].sum() * 1e3, requests),
        "axioms.continuity_ms": per(duration[is_("axioms.falsify_weak_continuity")].sum() * 1e3, requests),
        "axioms.replay_ratio": per(extra["witnesses_replayed"], extra["witnesses_found"]),
        "perturb.terms": per(term.sum(), requests),
        "perturb.term_us": per(own[term].sum() * 1e6, term.sum()),
        "trace.overhead_items_per_s": extra["overhead_items_per_s"],
    }
