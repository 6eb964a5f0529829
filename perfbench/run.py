"""Closed-loop benchmark of the ``rafpref`` command line.

One client in one single-threaded process calls ``rafpref.cli.main(argv)``
on inputs drawn from ``--seed``, sends the next request only when the last
one has returned, and checks every output against references that do not
use the code under test (``checks.py``), outside the timed interval.

    python3 perfbench/run.py --workload score --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an untraced
window and then a traced one of ``--seconds / 2`` each, writes the spans to
``.perfbench_out/`` and prints the per-layer metrics.  The last line of
standard output is the result object; the line before it describes the run
(environment, sample counts, input properties).  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from tracer import LAYER_METRICS, Tracer, layer_metrics
from workloads import TOL, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: Set-up is repeated and its median reported, so that one slow import
#: does not decide the figure.
SETUP_REPS = 5


def load_program():
    """Import ``rafpref`` afresh from the checkout's sources; return its CLI."""
    src = ROOT / "src"
    if not (src / "rafpref" / "__init__.py").is_file():
        raise SystemExit(f"error: no rafpref sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "rafpref" or n.startswith("rafpref.")]:
        del sys.modules[name]
    cli = importlib.import_module("rafpref.cli")
    if Path(cli.__file__).resolve().parent != src / "rafpref":
        raise SystemExit(f"error: imported rafpref from {cli.__file__}, not from {src}")
    return cli


def count_queries(oracle_class) -> list[int]:
    """Count calls of ``weak_prefers``, the oracle's one query entry point."""
    box = [0]
    query = oracle_class.weak_prefers

    @functools.wraps(query)
    def weak_prefers(self, a, b):
        box[0] += 1
        return query(self, a, b)

    oracle_class.weak_prefers = weak_prefers
    return box


def write_inputs(block):
    """Write the input files of a block of requests; return the block."""
    for req in block:
        req.out.parent.mkdir(parents=True, exist_ok=True)
        for path, doc in req.files.items():
            path.write_text(json.dumps(doc), encoding="utf-8")
    return block


@dataclass
class Done:
    """A request that ran, with what the loop measured about it."""

    op: str
    items: int
    latency: float
    queries: int
    rc: int | None
    out_bytes: int
    witnesses: int
    replayed: int


class Bench:
    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = WORKLOADS[workload](seed, work)
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reran = False
        self.boundary = 0
        self.items = 0

    def setup(self) -> float:
        """Import the program, write the warm-up blocks of inputs and run them."""
        start = time.perf_counter()
        self.cli = load_program()
        self.queries = count_queries(sys.modules["rafpref.preference"].PreferenceOracle)
        blocks = [write_inputs(self.workload.block()) for _ in range(self.workload.warmup_blocks)]
        ran = [[self._execute(req) for req in block] for block in blocks]
        elapsed = time.perf_counter() - start
        for block, results in zip(blocks, ran):
            self._finish(block, results)
        return elapsed

    def window(self, seconds: float, min_blocks: int = 1) -> list[list[Done]]:
        """Run whole blocks until ``seconds`` of request time have passed."""
        blocks: list[list[Done]] = []
        busy = 0.0
        while busy < seconds or len(blocks) < min_blocks:
            block = write_inputs(self.workload.block())
            ran = [self._execute(req) for req in block]
            blocks.append(self._finish(block, ran))
            busy += sum(d.latency for d in blocks[-1])
        return blocks

    def _execute(self, req):
        q0 = self.queries[0]
        stderr = io.StringIO()
        if self.tracer is not None:
            self.tracer.begin_request()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                rc = self.cli.main(req.argv)
        except Exception:  # a crash is a failed request, not a failed run
            rc = None
            stderr.write(traceback.format_exc())
        return rc, time.perf_counter() - start, self.queries[0] - q0, stderr.getvalue()

    def _finish(self, block, ran) -> list[Done]:
        """Check every output of a block, then delete its files."""
        done = []
        for req, (rc, latency, queries, stderr) in zip(block, ran):
            out = req.out.read_bytes() if req.out.exists() else b""
            try:
                problems = checks.CHECKS[req.op](req.inputs, rc, out)
            except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
                problems = [f"malformed output: {exc!r}"]
            if "Traceback" in stderr:
                problems.append("traceback on stderr")
            if req.op == "build-utility" and not problems:
                problems += checks.check_queries(req.inputs, out, queries)
            self._record(req, problems)
            found = checks.witnesses(out) if req.op == "check-axioms" else 0
            replayed = 0 if problems else found
            done.append(Done(req.op, req.items, latency, queries, rc, len(out), found, replayed))
            self.items += req.items
            self.boundary += req.boundary
        if not self.reran:
            self.reran = True
            first = block[0].out.read_bytes() if block[0].out.exists() else b""
            self._execute(block[0])
            rerun = block[0].out.read_bytes() if block[0].out.exists() else b""
            self._record(block[0], checks.check_identical(first, rerun))
        shutil.rmtree(block[0].out.parent)
        return done

    def _record(self, req, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{req.op} {' '.join(req.argv)}: {p}" for p in problems[:3]]


def rate(blocks: list[list[Done]]) -> float:
    """Items completed per second of request time."""
    done = [d for b in blocks for d in b]
    return sum(d.items for d in done) / sum(d.latency for d in done)


def end_to_end(bench: Bench, setups: list[float], blocks: list[list[Done]]) -> dict:
    latencies = [d.latency for b in blocks for d in b]
    counted = [d for b in blocks[: bench.workload.min_blocks] for d in b]
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": rate(blocks),
        "request_p50_ms": statistics.median(latencies) * 1e3,
        "request_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "queries_per_item": sum(d.queries for d in counted) / sum(d.items for d in counted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "queries_per_item": "count",
    "peak_rss_mb": "MB",
}


def _cache_counts() -> tuple[int, int]:
    """Hits and lookups of the ``scale_top`` cache; zeros when there is none."""
    cache = getattr(sys.modules["rafpref.raf"], "_diagonal", None)
    if cache is None or not hasattr(cache, "cache_info"):
        return 0, 0
    info = cache.cache_info()
    return info.hits, info.hits + info.misses


def traced(bench: Bench, seconds: float, name: str, seed: int) -> tuple[dict, list]:
    """An untraced and a traced window; the per-layer metrics of the second."""
    plain = bench.window(seconds / 2)
    hits0, lookups0 = _cache_counts()
    bench.tracer = Tracer()
    bench.tracer.install("rafpref")
    try:
        blocks = bench.window(seconds / 2)
    finally:
        bench.tracer.uninstall()
    hits1, lookups1 = _cache_counts()
    spans = bench.tracer.spans()
    OUT.mkdir(exist_ok=True)
    np.savez(OUT / f"trace-{name}-{seed}.npz", **spans)
    done = [d for b in blocks for d in b]
    extra = {
        "out_bytes": sum(d.out_bytes for d in done),
        "witnesses_found": sum(d.witnesses for d in done),
        "witnesses_replayed": sum(d.replayed for d in done),
        "cache_hits": hits1 - hits0,
        "cache_lookups": lookups1 - lookups0,
        "overhead_items_per_s": rate(plain) - rate(blocks),
    }
    items_by_op: dict[str, int] = {}
    for d in done:
        items_by_op[d.op] = items_by_op.get(d.op, 0) + d.items
    metrics = layer_metrics(spans, len(done), items_by_op, extra, TOL)
    return metrics, blocks


def properties(bench: Bench, blocks: list[list[Done]]) -> dict:
    """Measured input properties the workload was built to have."""
    done = [d for b in blocks for d in b]
    props = {}
    if bench.workload.name == "score":
        props["boundary_point_share"] = bench.boundary / bench.items
    reports = [d for d in done if d.op == "check-axioms"]
    if reports:
        props["finding_share"] = sum(d.rc == 2 for d in reports) / len(reports)
        props["demo_share"] = sum(d.op == "demo-sequences" for d in done) / len(done)
    sizes = [d.items for d in done if d.op == "choose"]
    if sizes:
        props["menu_size_quartiles"] = statistics.quantiles(sizes, n=4)
        props["menus_at_most_20"] = sum(s <= 20 for s in sizes) / len(sizes)
    return props


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_before = os.getloadavg()
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, work)
    try:
        setups = [bench.setup() for _ in range(SETUP_REPS)]
        if args.trace:
            metrics, blocks = traced(bench, args.seconds, args.workload, args.seed)
            units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        else:
            blocks = bench.window(args.seconds, bench.workload.min_blocks)
            metrics, units = end_to_end(bench, setups, blocks), UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "loop": "closed, one client",
        "setup_reps_s": setups,
        "timed_requests": sum(len(b) for b in blocks),
        "blocks": len(blocks),
        "properties": properties(bench, blocks),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    for problem in bench.problems[:20]:
        print(problem, file=sys.stderr)
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
