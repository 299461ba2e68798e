"""The benchmark's workloads over the governed system.

Every workload drives a durable :class:`~repro.service.serving.
GovernedService` (journal in a fresh state directory) through
:class:`~repro.api.client.GovernedClient` sessions, and only through
the system's public entry points. Inputs — rows, query mixes, release
order — come from the seed; the system only ever sees those inputs.

A workload has four phases, each called by ``run.py``:

``setup``
    steward commands and releases that build the ontology, the data,
    the service (plus the HTTP gateway for ``release_churn``) and a
    warm pass that fills the caches. This is what ``setup_s`` times.
``measure``
    the episode's analyst stream: a closed loop with one client over a
    fixed number of operations, so every episode does the same work
    and grows the ontology the same way, however fast the host runs.
``coda``
    in ``adhoc_walks``, whose stream never writes: steward releases,
    each followed by a query touching the released source, so that
    workload reports release latency and the first query after a
    release too.
``check``
    untimed oracle comparisons against the naive logical evaluator,
    once per run, after everything measured.

Every instance (one per episode) of a workload built from one seed gets
the same data, the same set-up and the same analyst stream.
"""

from __future__ import annotations

import itertools
import random
import shutil
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Sequence

from repro.api import GovernedClient, HttpGateway
from repro.mdm.system import MDM
from repro.query.engine import QueryEngine
from repro.rdf.namespace import Namespace
from repro.service.serving import GovernedService
from repro.service.workload import IND

from spans import Tracer

__all__ = ["Record", "WORKLOADS"]

#: the five §6.3 / Table 6 APIs and the response fields each serves
TABLE6_APIS: dict[str, tuple[str, ...]] = {
    "google_calendar": ("summary", "start", "attendees"),
    "google_gadgets": ("title", "height"),
    "amazon_mws": ("sku", "price", "quantity"),
    "twitter_api": ("text", "retweets"),
    "sina_weibo": ("body", "reposts"),
}
ROWS_PER_VERSION = 24
#: rows one source append (CDC) adds
APPEND_ROWS = 4

HUB = Namespace("urn:govbench:walks:")
HUB_ROWS = 1000
SATELLITES = 12
FANOUT = 4         # satellite rows per hub id: 4³ = 64 joined rows per id
METRIC_SPACE = 4   # duplicate-heavy metrics, collapsed by DISTINCT

#: request ids, unique across every instance in the process
_REQUEST_IDS = itertools.count(1)


@dataclass
class Record:
    """What one run observed."""

    query_ms: list[float] = field(default_factory=list)
    release_ms: list[float] = field(default_factory=list)
    post_release_ms: list[float] = field(default_factory=list)
    #: per analyst query: client round trip minus server ``elapsed_ms``
    wire_ms: list[float] = field(default_factory=list)
    rows_returned: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def add_attempts(self, other: "Record") -> None:
        """Count another record's attempts and failures in this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures[:10 - len(self.failures)]


def _omq(concept: str, features: Sequence[str]) -> str:
    """The Code-3 template OMQ projecting *features* of one concept."""
    variables = " ".join(f"?v{i}" for i in range(1, len(features) + 1))
    values = " ".join(f"<{f}>" for f in features)
    triples = " .\n    ".join(f"<{concept}> G:hasFeature <{f}>"
                              for f in features)
    return (f"SELECT {variables} WHERE {{\n"
            f"    VALUES ({variables}) {{ ({values}) }}\n"
            f"    {triples}\n}}")


def _bag(rows: Sequence[dict]) -> Counter:
    return Counter(tuple(sorted(row.items())) for row in rows)


class Workload:
    """Shared plumbing: durable service, clients, timed operations."""

    name = ""
    #: traced/untraced operation pairs that estimate tracing overhead
    OVERHEAD_PAIRS = 10
    #: answers larger than this stream in pages
    page_size: int | None = None

    def __init__(self, seed: int, workdir: str) -> None:
        #: drives the data, the set-up and the coda
        self.rng = random.Random(seed)
        #: drives the analyst stream
        self.stream_rng = random.Random(f"{seed}/stream")
        self.state_dir = tempfile.mkdtemp(prefix=f"{self.name}-",
                                          dir=workdir)
        self.mdm = MDM.open(self.state_dir)
        self.service = GovernedService(self.mdm)
        self.client = GovernedClient(self.service)
        self.steward = self.client
        self.tracer: Tracer | None = None
        #: called before every timed operation (see ``quiet.py``)
        self.settle: Callable[[], None] = lambda: None
        #: the set-up's warm-pass queries, counted like any other
        self.warm = Record()

    def close(self) -> None:
        self.client.close()
        self.service.close()
        self.mdm.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)

    # -- tracing -------------------------------------------------------------

    def _request(self, name: str, request_id: str) -> ContextManager:
        tracer = self.tracer
        if tracer is None or not tracer.active:
            return nullcontext()
        return tracer.span(name, request_id, root=True)

    # -- timed operations ----------------------------------------------------

    def query(self, text: str, rec: Record, *, expect: int | None = None,
              root: str = "client.query",
              ) -> tuple[float, list[dict] | None]:
        """One analyst query, all pages; returns (ms, rows or None).

        *expect* is the exact ``total_rows`` the answer must have.
        """
        self.settle()
        rid = f"q{next(_REQUEST_IDS)}"
        rec.attempted += 1
        wire = 0.0
        started = time.perf_counter()
        try:
            with self._request(root, rid):
                sent = time.perf_counter()
                page = self.client.query(text, page_size=self.page_size,
                                         request_id=rid)
                wire += _wire(sent, page)
                rows = list(page.rows)
                while page.cursor is not None:
                    sent = time.perf_counter()
                    page = self.client.fetch_page(page.cursor,
                                                  request_id=rid)
                    wire += _wire(sent, page)
                    rows.extend(page.rows)
            ms = (time.perf_counter() - started) * 1e3
        except Exception as exc:  # an error envelope is a failed op
            rec.fail(f"{rid}: {type(exc).__name__}: {exc}")
            return 0.0, None
        if len(rows) != page.total_rows or (
                expect is not None and page.total_rows != expect):
            rec.fail(f"{rid}: {page.total_rows} rows (streamed "
                     f"{len(rows)}), expected {expect}")
            return ms, None
        rec.wire_ms.append(wire)
        rec.rows_returned += len(rows)
        return ms, rows

    def release(self, rec: Record, **fields: Any) -> int | None:
        """One steward release; records its ack latency, returns the
        epoch it produced."""
        self.settle()
        rid = f"r{next(_REQUEST_IDS)}"
        rec.attempted += 1
        started = time.perf_counter()
        try:
            with self._request("client.release", rid):
                response = self.steward.submit_release(request_id=rid,
                                                       **fields)
        except Exception as exc:
            rec.fail(f"{rid}: {type(exc).__name__}: {exc}")
            return None
        rec.release_ms.append((time.perf_counter() - started) * 1e3)
        return response.epoch

    def append(self, rec: Record, wrapper: str, rows: list[dict]) -> None:
        """A source append (CDC) on a live wrapper."""
        rec.attempted += 1
        try:
            self.mdm.ontology.physical_wrapper(wrapper).append_rows(rows)
        except Exception as exc:
            rec.fail(f"append {wrapper}: {type(exc).__name__}: {exc}")

    def oracle(self, text: str, rec: Record) -> None:
        """Serve *text* again, on the instance's current state, and
        bag-compare the answer with the naive logical evaluator, which
        rewrites from the ontology itself: it shares no cache with the
        served engine, so a stale cached rewriting shows."""
        served = self.query(text, rec)[1]
        rec.attempted += 1
        naive = QueryEngine(self.mdm.ontology, use_cache=False,
                            use_planner=False, use_answer_cache=False)
        try:
            expected = naive.answer(text).rows
        except Exception as exc:
            rec.fail(f"oracle: {type(exc).__name__}: {exc}")
            return
        if served is None or _bag(served) != _bag(expected):
            rec.fail(f"oracle mismatch: served "
                     f"{None if served is None else len(served)} rows, "
                     f"naive {len(expected)}")

    # -- phases (overridden) -------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def check(self, rec: Record) -> None:
        """Untimed oracle checks, after everything measured."""

    def measure(self, rec: Record) -> None:
        """Serve the episode's stream."""
        raise NotImplementedError

    def coda(self, rec: Record) -> None:
        """Steward releases after the stream."""

    def overhead_op(self, i: int, rec: Record) -> Callable[[], float]:
        """The *i*-th operation the tracing overhead is measured on."""
        raise NotImplementedError

    def overhead_pairs(self, tracer: Tracer, pairs: int, rec: Record,
                       ) -> list[tuple[float, float]]:
        """(untraced ms, traced ms) of the same operation run twice,
        back to back, the traced side first in every other pair."""
        out = []
        for i in range(pairs):
            op = self.overhead_op(i, rec)
            if i % 2:
                with tracer.installed():
                    traced = op()
                untraced = op()
            else:
                untraced = op()
                with tracer.installed():
                    traced = op()
            out.append((untraced, traced))
        return out


def _wire(sent: float, page: Any) -> float:
    return (time.perf_counter() - sent) * 1e3 - (page.elapsed_ms or 0.0)


# ---------------------------------------------------------------------------
# Table 6 APIs with version history (release_churn)
# ---------------------------------------------------------------------------


class ReleaseChurn(Workload):
    """The five Table 6 APIs, each released ``VERSIONS`` times at set-up;
    paged history queries over HTTP, a release every few queries."""

    name = "release_churn"
    VERSIONS = 8
    page_size = 128
    #: release rounds per episode
    ROUNDS = 12
    #: analyst operations per steward release
    OPS_PER_RELEASE = 5
    #: ops within a release round that append to the API released in
    #: the previous round and then re-check its history
    APPEND_AT = (2, 4)

    def _concept(self, slug: str) -> str:
        return str(IND[slug.title().replace("_", "")])

    def _features(self, slug: str) -> list[str]:
        return [str(IND[f"{slug}/id"])] + [
            str(IND[f"{slug}/{f}"]) for f in TABLE6_APIS[slug]]

    def _version_rows(self, slug: str, version: int) -> list[dict]:
        base = (version - 1) * ROWS_PER_VERSION
        return [{"id": base + i,
                 **{f: f"{slug}/{f}/{self.rng.randrange(10 ** 6)}"
                    for f in TABLE6_APIS[slug]}}
                for i in range(ROWS_PER_VERSION)]

    def _append_rows(self, slug: str) -> list[dict]:
        start = 10 ** 6 + self.appended[slug]
        return [{"id": start + i,
                 **{f: f"{slug}/cdc/{f}/{start + i}"
                    for f in TABLE6_APIS[slug]}}
                for i in range(APPEND_ROWS)]

    def release_fields(self, slug: str, version: int) -> dict[str, Any]:
        """A declarative wire release of *slug* v*version*, rows inline."""
        fields = TABLE6_APIS[slug]
        hints = {"id": str(IND[f"{slug}/id"]),
                 **{f: str(IND[f"{slug}/{f}"]) for f in fields}}
        return dict(source=slug, wrapper=f"{slug}_v{version}",
                    id_attributes=["id"], non_id_attributes=list(fields),
                    feature_hints=hints,
                    rows=self._version_rows(slug, version))

    def build_history(self) -> None:
        rec = Record()
        for slug, fields in TABLE6_APIS.items():
            concept = self._concept(slug)
            self.mdm.add_concept(concept)
            self.mdm.add_feature(concept, IND[f"{slug}/id"], is_id=True)
            for f in fields:
                self.mdm.add_feature(concept, IND[f"{slug}/{f}"])
        for version in range(1, self.VERSIONS + 1):
            for slug in TABLE6_APIS:
                extra = ({"absorbed_concepts": [self._concept(slug)]}
                         if version == 1 else {})
                self.release(rec, **self.release_fields(slug, version),
                             **extra)
        if rec.failed:
            raise RuntimeError(f"set-up release failed: {rec.failures}")
        self.versions = {slug: self.VERSIONS for slug in TABLE6_APIS}
        self.appended = {slug: 0 for slug in TABLE6_APIS}

    def history_query(self, slug: str) -> str:
        return _omq(self._concept(slug), self._features(slug))

    def expected_rows(self, slug: str) -> int:
        return self.versions[slug] * ROWS_PER_VERSION + self.appended[slug]

    def setup(self) -> None:
        self.build_history()
        self.gateway = HttpGateway(self.service, workers=2)
        url = self.gateway.start()
        self.client = GovernedClient(url)
        self.steward = GovernedClient(url)
        for slug in TABLE6_APIS:
            self.query(self.history_query(slug), self.warm,
                       expect=self.expected_rows(slug))

    def close(self) -> None:
        self.steward.close()
        self.gateway.stop()
        super().close()

    def measure(self, rec: Record) -> None:
        """``ROUNDS`` rounds of: the steward lands the next version of
        one API (in a fixed order) and the analyst checks that API's
        history; then seeded history reads, with two appends to the
        previous round's API, each checked by a read. The schedule
        counts operations, so every episode grows the ontology the same
        way."""
        slugs = list(TABLE6_APIS)
        for round_no in range(self.ROUNDS):
            slug = slugs[round_no % len(slugs)]
            version = self.versions[slug] + 1
            if self.release(rec, **self.release_fields(slug, version)) \
                    is not None:
                self.versions[slug] = version
            ms = self._read(slug, rec)
            if ms:
                rec.post_release_ms.append(ms)
            previous = slugs[(round_no - 1) % len(slugs)]
            for op in range(1, self.OPS_PER_RELEASE):
                if op in self.APPEND_AT and round_no > 0:
                    rows = self._append_rows(previous)
                    self.append(rec, f"{previous}_v"
                                f"{self.versions[previous]}", rows)
                    self.appended[previous] += len(rows)
                    self._read(previous, rec)
                else:
                    self._read(self.stream_rng.choice(slugs), rec)

    def _read(self, slug: str, rec: Record) -> float:
        ms, _ = self.query(self.history_query(slug), rec,
                           expect=self.expected_rows(slug))
        if ms:
            rec.query_ms.append(ms)
        return ms

    def overhead_op(self, i: int, rec: Record) -> Callable[[], float]:
        slug = list(TABLE6_APIS)[i % len(TABLE6_APIS)]

        def op() -> float:
            return self.query(self.history_query(slug), rec,
                              expect=self.expected_rows(slug))[0]
        op()   # both sides of the pair then read a warm cache
        return op


# ---------------------------------------------------------------------------
# Hub/satellite walks (adhoc_walks)
# ---------------------------------------------------------------------------


class AdhocWalks(Workload):
    """Distinct 4-concept walks: every query rewrites, plans, executes."""

    name = "adhoc_walks"
    OVERHEAD_PAIRS = 4
    WARM_QUERIES = 4
    #: walks per episode
    WALKS = 20
    ORACLE_SAMPLE = 2
    CODA_RELEASES = 6

    def setup(self) -> None:
        rec = Record()
        mdm = self.mdm
        self.hub_ids = [f"app-{i:05d}" for i in range(HUB_ROWS)]
        mdm.add_concept(HUB.Hub)
        mdm.add_feature(HUB.Hub, HUB.hid, is_id=True)
        mdm.add_feature(HUB.Hub, HUB.hubMetric)
        self.release(rec, source="SH", wrapper="wHub",
                     id_attributes=["hid"],
                     non_id_attributes=["hubMetric"],
                     feature_hints={"hid": str(HUB.hid),
                                    "hubMetric": str(HUB.hubMetric)},
                     rows=[{"hid": h, "hubMetric":
                            f"lag-{self.rng.randrange(100):02d}"}
                           for h in self.hub_ids],
                     absorbed_concepts=[str(HUB.Hub)])
        for i in range(SATELLITES):
            mdm.add_concept(HUB[f"Sat{i}"])
            mdm.add_feature(HUB[f"Sat{i}"], HUB[f"m{i}"])
            mdm.add_property(HUB.Hub, HUB[f"links{i}"], HUB[f"Sat{i}"])
            self.release(rec, **self._satellite(i, f"wSat{i}", FANOUT),
                         absorbed_concepts=[str(HUB.Hub),
                                            str(HUB[f"Sat{i}"])])
        if rec.failed:
            raise RuntimeError(f"set-up release failed: {rec.failures}")
        space = list(itertools.permutations(range(SATELLITES), 3))
        self.rng.shuffle(space)
        for walk in space[:self.WARM_QUERIES]:
            self.query(self._walk(walk), self.warm)
        # The stream never repeats a walk, the warm pass's included.
        self.fresh = space[self.WARM_QUERIES:]
        self.stream_rng.shuffle(self.fresh)
        self.pending = iter(self.fresh)
        self.sampled: list[str] = []

    def _satellite(self, i: int, wrapper: str,
                   fanout: int) -> dict[str, Any]:
        return dict(source=f"SS{i}", wrapper=wrapper,
                    id_attributes=["hid"], non_id_attributes=["m"],
                    feature_hints={"hid": str(HUB.hid),
                                   "m": str(HUB[f"m{i}"])},
                    rows=[{"hid": h,
                           "m": f"qos-{self.rng.randrange(METRIC_SPACE)}"}
                          for h in self.hub_ids for _ in range(fanout)])

    @staticmethod
    def _walk(sats: Sequence[int]) -> str:
        """Hub → three satellites, projecting the hub's and their
        metrics."""
        features = [str(HUB.hubMetric)] + [str(HUB[f"m{i}"]) for i in sats]
        variables = " ".join(f"?v{i}" for i in range(len(features)))
        values = " ".join(f"<{f}>" for f in features)
        triples = [f"<{HUB.Hub}> G:hasFeature <{HUB.hubMetric}>"] + [
            t for i in sats for t in (
                f"<{HUB.Hub}> <{HUB[f'links{i}']}> <{HUB[f'Sat{i}']}>",
                f"<{HUB[f'Sat{i}']}> G:hasFeature <{HUB[f'm{i}']}>")]
        return (f"SELECT {variables} WHERE {{\n"
                f"    VALUES ({variables}) {{ ({values}) }}\n    "
                + " .\n    ".join(triples) + "\n}")

    def measure(self, rec: Record) -> None:
        sample_at = set(self.stream_rng.sample(range(self.WALKS),
                                               self.ORACLE_SAMPLE))
        for op in range(self.WALKS):
            text = self._walk(next(self.pending))
            ms, _ = self.query(text, rec)
            if ms:
                rec.query_ms.append(ms)
            if op in sample_at:
                self.sampled.append(text)

    def check(self, rec: Record) -> None:
        for text in self.sampled:
            self.oracle(text, rec)

    def coda(self, rec: Record) -> None:
        """Release a second version of the first satellites and query a
        walk through each."""
        # The same walks every run, so the figures compare across seeds.
        # Each walk crosses one released satellite and two that are not
        # released in the coda, so every walk unions the same number of
        # versions and costs about the same; a walk across two released
        # satellites costs about twice as much, and the median of a mix
        # jumps between the two.
        rest = SATELLITES - self.CODA_RELEASES
        for i in range(self.CODA_RELEASES):
            wrapper = f"wSat{i}_v2"
            if self.release(rec, **self._satellite(i, wrapper, 1)) is None:
                continue
            text = self._walk([i, self.CODA_RELEASES + i % rest,
                               self.CODA_RELEASES + (i + 3) % rest])
            ms, _ = self.query(text, rec, root="coda.query")
            if ms:
                rec.post_release_ms.append(ms)

    def overhead_op(self, i: int, rec: Record) -> Callable[[], float]:
        text = self._walk(next(self.pending))

        def cold() -> float:
            # Each side starts from the same cold caches.
            self.service.answer_cache.clear()
            self.service.scan_cache.clear()
            self.mdm.engine.clear_cache()
            return self.query(text, rec)[0]
        return cold


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (AdhocWalks, ReleaseChurn)}
