"""Governed-query benchmark: one command, every metric, checked answers.

Run from the repository root::

    python3 govbench/run.py --workload adhoc_walks --seed 1 --seconds 25
    python3 govbench/run.py --workload release_churn --seed 1 \\
        --seconds 25 --trace 1

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` repeats the same run with spans recorded around
the system's public callables and reports the per-layer metrics. Both
print a human-readable report followed, as the last line, by one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. See
``govbench/README.md`` for the metric → layer → workload table.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable

from quiet import QuietGate

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".govbench"

#: fewest episodes a run makes; ``setup_s`` is their median set-up
MIN_EPISODES = 3

#: span name of each client request → the request kind it opens
ROOT_SPANS = {"client.query": "query", "coda.query": "query",
              "client.release": "release"}


def _import_system() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"govbench: no governed system under {src}; run from "
                 "a checkout of the repository")
    sys.path.insert(0, str(src))


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else math.nan
    return statistics.quantiles(values, n=100)[pct - 1]


def _beyond(values: list[float], pct: int) -> int:
    return len(values) - math.ceil(len(values) * pct / 100)


def _stopwatch(gate: QuietGate) -> Callable[[], float]:
    """Seconds from now, less the gate's waits in between."""
    waited, started = gate.waited, time.perf_counter()
    return lambda: time.perf_counter() - started - (gate.waited - waited)


def _stats(service) -> dict[str, tuple[int, int]]:
    """(hits, lookups) of the three cache tiers, plus streaming
    (fallbacks, patch attempts)."""
    answers = service.answer_cache.stats
    rewrites = service.mdm.engine.cache.stats
    scans = service.scan_cache.stats
    return {
        "answer": (answers.hits, answers.lookups),
        "rewrite": (rewrites.hits, rewrites.lookups),
        "scan": (scans.hits, scans.hits + scans.misses),
        "patch": (answers.fallbacks, answers.patches + answers.fallbacks),
    }


def _ratio(counters: dict, key: str) -> float:
    hits, total = counters[key]
    return hits / total if total else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_system()
    from scenarios import WORKLOADS, Record
    from spans import QUERY_LAYERS, RELEASE_LAYERS, Tracer, self_times
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    workdir = OUT / "state"
    workdir.mkdir(parents=True, exist_ok=True)

    # -- episodes: set-up, the stream, the steward coda -----------------
    # Each episode builds a fresh instance of the workload from the
    # seed, times its set-up, serves the workload's fixed stream and
    # runs the coda. Every episode does the same work, so a run's
    # samples do not depend on how fast the host ran; episodes repeat
    # until streams and codas have taken ``--seconds``. The oracle
    # checks and the tracing-overhead pairs run last, on the last
    # instance, after everything measured.
    # The gate holds timed operations back while the host reads
    # contended (see quiet.py); its waits are excluded from every time.
    rec = Record()
    gate = QuietGate()
    gate.calibrate()
    tracer = Tracer()
    tracing = tracer.installed if args.trace else nullcontext
    setup_s: list[float] = []
    wall = measured = 0.0
    journal_bytes = releases = 0
    counters = dict.fromkeys(("answer", "rewrite", "scan", "patch"),
                             (0, 0))
    live = None
    try:
        while len(setup_s) < MIN_EPISODES or measured < args.seconds:
            if live is not None:
                live.close()
                live = None
            gc.collect()
            gate.settle()
            elapsed = _stopwatch(gate)
            live = workload_cls(args.seed, str(workdir))
            live.settle = gate.settle
            live.setup()
            setup_s.append(elapsed())
            rec.add_attempts(live.warm)
            live.tracer = tracer
            before = _stats(live.service)
            journal = live.mdm.journal.path
            size, count = os.path.getsize(journal), len(rec.release_ms)
            with tracing():
                elapsed = _stopwatch(gate)
                live.measure(rec)
                wall += elapsed()
                live.coda(rec)
                measured += elapsed()
            after = _stats(live.service)
            counters = {key: tuple(total + a - b for total, a, b in zip(
                counters[key], after[key], before[key]))
                for key in counters}
            journal_bytes += os.path.getsize(journal) - size
            releases += len(rec.release_ms) - count
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        # Untimed, and after the peak is read: the naive oracle's own
        # memory does not count. Its queries count as attempts, not as
        # stream samples.
        side = Record()
        live.settle = lambda: None
        live.check(side)
        # tracing overhead: each operation untraced and traced
        live.settle = gate.settle
        live.tracer = Tracer()
        pairs = live.overhead_pairs(live.tracer, live.OVERHEAD_PAIRS,
                                    side)
        rec.add_attempts(side)
    finally:
        if live is not None:
            live.close()
    overhead_pct = 100 * (statistics.median(
        t / u for u, t in pairs if u > 0) - 1)

    # -- report ------------------------------------------------------------
    q = rec.query_ms
    print(f"govbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  set-up: {' '.join(f'{s:.3f}' for s in setup_s)} s "
          f"(median of {len(setup_s)})")
    print(f"  analyst queries: {len(q)} in {wall:.2f} s; percentiles "
          f"from n={len(q)}: p50 has {_beyond(q, 50)} beyond, "
          f"p90 has {_beyond(q, 90)} beyond")
    print(f"  releases: {len(rec.release_ms)} (p50 from "
          f"n={len(rec.release_ms)}); first queries after a release: "
          f"{len(rec.post_release_ms)} (p50 from "
          f"n={len(rec.post_release_ms)})")
    failed_ratio = rec.failed / rec.attempted if rec.attempted else 1.0
    print(f"  operations attempted: {rec.attempted}, failed: "
          f"{rec.failed}, failed_ratio = {failed_ratio:.6f}")
    for failure in rec.failures:
        print(f"    failure: {failure}")
    print(f"  host gate: waited {gate.waited:.2f} s over {gate.probes} "
          f"probes (fastest probe {gate.best_ms:.3f} ms)")
    print(f"  tracing overhead: {overhead_pct:+.1f}% (median traced / "
          f"untraced latency over {len(pairs)} paired operations)")

    if not args.trace:
        metrics = {
            "setup_s": _metric(statistics.median(setup_s), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "queries_per_s": _metric(len(q) / wall, "1/s"),
            "query_p50_ms": _metric(_percentile(q, 50), "ms"),
            "query_p90_ms": _metric(_percentile(q, 90), "ms"),
            "release_p50_ms": _metric(
                _percentile(rec.release_ms, 50), "ms"),
            "post_release_query_p50_ms": _metric(
                _percentile(rec.post_release_ms, 50), "ms"),
        }
    else:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(spans_path))
        table = self_times(tracer.spans, ROOT_SPANS)
        metrics = {}
        print(f"  {len(tracer.spans)} spans written to "
              f"{spans_path.relative_to(ROOT)}")
        print(f"  {'layer':<24}{'kind':<9}{'calls':>8}{'calls/req':>10}"
              f"{'self ms':>11}{'self ms/req':>13}")
        for kind, layers in (("query", QUERY_LAYERS),
                             ("release", RELEASE_LAYERS)):
            for layer in layers:
                entry = table.get((kind, layer), {
                    "calls": 0, "self_ns": 0, "per_request_ms": 0.0,
                    "calls_median": 0, "rows": 0})
                print(f"  {layer:<24}{kind:<9}{entry['calls']:>8}"
                      f"{entry['calls_median']:>10g}"
                      f"{entry['self_ns'] / 1e6:>11.2f}"
                      f"{entry['per_request_ms']:>13.4f}")
                if layer != "query.parse":   # memoized: often never called
                    metrics[f"{layer}_ms"] = _metric(
                        entry["per_request_ms"], "ms")
                if layer in ("core.fingerprint", "query.parse",
                             "query.rewrite", "query.plan",
                             "rdf.union_graph", "wrappers.fetch"):
                    metrics[f"{layer}_calls"] = _metric(
                        entry["calls_median"], "count")
        fetched = table.get(("query", "wrappers.fetch"), {}).get("rows", 0)
        metrics.update({
            "relational.scan_cache_hit_ratio": _metric(
                _ratio(counters, "scan"), "ratio"),
            "query.answer_cache_hit_ratio": _metric(
                _ratio(counters, "answer"), "ratio"),
            "query.rewrite_cache_hit_ratio": _metric(
                _ratio(counters, "rewrite"), "ratio"),
            "streaming.fallback_ratio": _metric(
                _ratio(counters, "patch"), "ratio"),
            "wrappers.rows_fetched_per_row_returned": _metric(
                fetched / rec.rows_returned if rec.rows_returned else 0.0,
                "ratio"),
            "storage.journal_bytes_per_release": _metric(
                journal_bytes / releases if releases else 0.0, "B"),
            "api.wire_ms": _metric(
                statistics.fmean(rec.wire_ms) if rec.wire_ms else 0.0,
                "ms"),
            "trace.overhead_pct": _metric(overhead_pct, "%"),
        })

    print(json.dumps({"correct": rec.failed == 0,
                      "attempted": rec.attempted,
                      "failed": rec.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
