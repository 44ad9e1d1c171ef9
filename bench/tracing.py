"""Request-scoped timing spans installed from outside, and their analysis.

:func:`install` monkeypatches the public functions at each layer boundary of
the running service so that every call made while an HTTP request is being
handled records a span ``[name, start, end, parent]`` in that request's list.
The current request and span live in a ``contextvar``, so the handler
threads of ``ThreadingHTTPServer`` never see each other's spans.  Garbage
collection pauses (``gc.callbacks``) become ``gc<generation>`` spans under
whichever span was open in the thread that triggered them.

Spans are timed with the handling thread's CPU clock, not the wall clock.
The server runs two requests at once under one interpreter lock, so a wall
clock would charge whichever span happened to be waiting for the lock with
the other request's work (a gen-2 collection in one thread shows up as a
second of "HTTP" time in the other).  Per request, the self CPU times of all
spans add up to the request's CPU time, and ``wait`` (wall time minus CPU
time: waiting for the lock, the socket or a collection in another thread)
makes up the rest of the wall time.

Nothing under ``src/`` knows about this module; :mod:`bench.traced_serve`
installs it and then runs the ordinary ``serve`` entry point.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from collections import defaultdict
from contextvars import ContextVar
from pathlib import Path
from time import perf_counter, thread_time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_current: ContextVar[Optional[Tuple["Request", int]]] = ContextVar("bench_span", default=None)

# Spans recorded even outside a request (boot work), on the wall clock.
_OUTSIDE_REQUESTS = frozenset({"snapshot.load"})


class Request:
    """Spans and counters of one HTTP request; span 0 is the root."""

    __slots__ = ("method", "path", "phase", "wall", "spans", "counts")

    def __init__(self, method: str, path: str, phase: str) -> None:
        self.method = method
        self.path = path
        self.phase = phase
        self.wall = [perf_counter(), 0.0]
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, int] = defaultdict(int)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "method": self.method,
            "path": self.path,
            "phase": self.phase,
            "wall": self.wall,
            "spans": self.spans,
            "counts": dict(self.counts),
        }


class Recorder:
    """Holds every finished request and the boot spans in memory."""

    def __init__(self) -> None:
        self.requests: List[Request] = []
        self.boot: List[List[Any]] = []
        self._gc_start = 0.0

    def root(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap an HTTP handler method: one root span per request."""

        @functools.wraps(fn)
        def wrapper(handler: Any, *args: Any, **kwargs: Any) -> Any:
            phase = handler.headers.get("X-Bench-Phase", "")
            request = Request(handler.command, handler.path, phase)
            entry = ["request", thread_time(), 0.0, -1]
            request.spans.append(entry)
            token = _current.set((request, 0))
            try:
                return fn(handler, *args, **kwargs)
            finally:
                entry[2] = thread_time()
                request.wall[1] = perf_counter()
                _current.reset(token)
                self.requests.append(request)

        return wrapper

    def span(
        self,
        name: str,
        fn: Callable[..., Any],
        count: Optional[Tuple[str, Callable[[Any], int]]] = None,
    ) -> Callable[..., Any]:
        """Wrap ``fn`` in a span; ``count`` adds ``count[1](result)`` to counter ``count[0]``."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = _current.get()
            if state is None:
                if name not in _OUTSIDE_REQUESTS:
                    return fn(*args, **kwargs)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.boot.append([name, start, perf_counter()])
            request, parent = state
            spans = request.spans
            index = len(spans)
            entry = [name, thread_time(), 0.0, parent]
            spans.append(entry)
            token = _current.set((request, index))
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = thread_time()
                _current.reset(token)
            if count is not None:
                request.counts[count[0]] += count[1](result)
            return result

        return wrapper

    def on_gc(self, phase: str, info: Dict[str, int]) -> None:
        now = thread_time()
        if phase == "start":
            self._gc_start = now
            return
        state = _current.get()
        if state is not None:
            request, parent = state
            request.spans.append([f"gc{info['generation']}", self._gc_start, now, parent])

    def dump(self, path: Path) -> None:
        payload = {"requests": [request.to_dict() for request in self.requests], "boot": self.boot}
        path.write_text(json.dumps(payload), encoding="utf-8")


def _patch(
    owner: Any, attribute: str, wrap: Callable[[Callable[..., Any]], Callable[..., Any]]
) -> None:
    # The class __dict__ keeps a classmethod wrapped; getattr would bind it.
    raw = vars(owner)[attribute]
    if isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(wrap(raw.__func__)))
    else:
        setattr(owner, attribute, wrap(raw))


def install(recorder: Recorder) -> None:
    """Put spans around the layer boundaries of the ``repro`` service."""
    import repro.search.engine as engine_module
    import repro.service.http as http_module
    import repro.service.service as service_module
    from repro.comparison.table import ComparisonTable
    from repro.core.generator import DFSGenerator
    from repro.features.extractor import FeatureExtractor
    from repro.service import protocol
    from repro.storage.corpus import Corpus
    from repro.storage.inverted_index import InvertedIndex
    from repro.storage.lazy_store import LazyDocumentStore

    def span(name: str, count: Optional[Tuple[str, Callable[[Any], int]]] = None):
        return lambda fn: recorder.span(name, fn, count)

    handler = http_module._Handler
    for method in ("do_GET", "do_POST", "do_DELETE"):
        _patch(handler, method, recorder.root)
    # Body encoding, gzip and the socket write of every response.
    for method in ("_respond", "_respond_not_modified"):
        _patch(handler, method, span("http"))

    service = service_module.SearchService
    for method in ("search", "search_many", "compare", "updated_since", "health", "stats"):
        _patch(service, method, span("service"))
    for method in ("ingest", "ingest_many", "delete_document"):
        _patch(service, method, span("service.write"))
    for module in (service_module, http_module):
        for function in ("encode_cursor", "decode_cursor"):
            if hasattr(module, function):
                _patch(module, function, span("cursor"))
    _patch(service_module, "serialize", span("serialize"))
    _patch(service_module, "parse_xml", span("parse"))
    # Results served are counted where they leave the service: the items of
    # a search page, the compared results of a comparison.
    served_items = span("protocol", ("served", lambda data: len(data["items"])))
    served_results = span("protocol", ("served", lambda data: len(data["results"])))
    _patch(protocol.SearchResponse, "to_dict", served_items)
    _patch(protocol.CompareResponse, "to_dict", served_results)
    for response in (
        protocol.IngestResponse,
        protocol.BulkIngestResponse,
        protocol.ChangeFeedResponse,
    ):
        _patch(response, "to_dict", span("protocol"))

    for method in ("search", "search_page"):
        _patch(engine_module.SearchEngine, method, span("engine"))
    _patch(
        InvertedIndex,
        "keyword_node_lists",
        span("index", ("postings", lambda lists: sum(len(bucket) for bucket in lists))),
    )
    _patch(engine_module, "infer_return_subtree", span("xseek"))
    _patch(engine_module, "rank_results", span("ranking", ("ranked", len)))

    # Match semantics are resolved per evaluation through the registry, so
    # wrap the function of whatever registration the engine looks up.
    resolve = engine_module.get_registration
    wrapped: Dict[Tuple[str, int], Any] = {}

    def traced_registration(name: str) -> Any:
        registration = resolve(name)
        key = (name, id(registration.fn))
        if key not in wrapped:
            traced = recorder.span("match", registration.fn)
            wrapped[key] = dataclasses.replace(registration, fn=traced)
        return wrapped[key]

    engine_module.get_registration = traced_registration

    _patch(LazyDocumentStore, "get", span("store"))
    _patch(FeatureExtractor, "extract", span("features"))
    _patch(DFSGenerator, "generate", span("core"))
    _patch(ComparisonTable, "from_dfs_set", span("table"))
    for method in ("begin_generation", "add_document", "remove_document", "finalize"):
        _patch(Corpus, method, span(f"corpus.{method}"))
    _patch(Corpus, "load", span("snapshot.load"))


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #
def _covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def _innermost(spans: Sequence[Sequence[Any]], start: float, end: float) -> int:
    """Index of the latest-starting non-GC span whose interval holds ``[start, end]``.

    A collection is recorded under the span open in the contextvar, which for
    a few bytecodes around a wrapper's clock reads is the parent of the span
    whose interval actually holds it; containment decides instead.
    """
    best = 0
    for index, (name, low, high, _) in enumerate(spans):
        if not name.startswith("gc") and low <= start and end <= high and low >= spans[best][1]:
            best = index
    return best


def self_times(spans: Sequence[Sequence[Any]]) -> Dict[str, float]:
    """Self time per span name: duration minus the time its children cover.

    The root span's self time is reported under ``request``: work inside the
    request that no instrumented layer accounts for.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if name.startswith("gc"):
            parent = _innermost(spans, start, end)
        if parent >= 0:
            children[parent].append((start, end))
    result: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        result[name] += (end - start) - _covered(children.get(index, ()), start, end)
    return result


def engine_misses(spans: Sequence[Sequence[Any]]) -> Tuple[int, int]:
    """(engine calls, calls that evaluated the query) — a miss looks up postings."""
    engines = {index for index, span in enumerate(spans) if span[0] == "engine"}
    evaluated = {span[3] for span in spans if span[0] == "index" and span[3] in engines}
    return len(engines), len(evaluated)


# Per-request mean self time (ms) reported for each span name.
SELF_TIME_METRICS = {
    "http": "http.self_ms",
    "service": "service.self_ms",
    "cursor": "cursor.self_ms",
    "protocol": "protocol.to_dict_ms",
    "serialize": "xmlmodel.serialize_ms",
    "engine": "engine.self_ms",
    "index": "index.lookup_ms",
    "match": "match.self_ms",
    "xseek": "xseek.self_ms",
    "ranking": "ranking.self_ms",
    "store": "store.get_ms",
    "features": "features.extract_ms",
    "core": "core.generate_ms",
    "table": "comparison.table_ms",
    "parse": "xmlmodel.parse_ms",
    "corpus.begin_generation": "corpus.begin_generation_ms",
    "corpus.add_document": "corpus.add_document_ms",
    "corpus.remove_document": "corpus.remove_document_ms",
    "corpus.finalize": "corpus.finalize_ms",
    "service.write": "service.write_self_ms",
    "request": "unattributed_ms",
    "wait": "wait_ms",
}


def analyse(payload: Dict[str, Any], phase: str) -> Tuple[Dict[str, float], float]:
    """Per-layer metrics of the requests tagged ``phase``.

    Times are means per request.  Returns the metrics and the largest
    per-request gap between the root's CPU time and the sum of all self
    times, as a share of the request's wall time (0 when spans nest).
    """
    requests = [request for request in payload["requests"] if request["phase"] == phase]
    count = len(requests)
    if not count:
        raise ValueError(f"no traced requests in phase {phase!r}")
    totals: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    wall_time = 0.0
    gen2: List[float] = []
    worst_gap = 0.0
    engine_calls = misses = xseek_calls = 0
    for request in requests:
        spans = request["spans"]
        times = self_times(spans)
        wall = request["wall"][1] - request["wall"][0]
        cpu = spans[0][2] - spans[0][1]
        wall_time += wall
        totals["wait"] += wall - cpu
        if wall > 0:
            worst_gap = max(worst_gap, abs(sum(times.values()) - cpu) / wall)
        for name, value in times.items():
            totals["gc" if name.startswith("gc") else name] += value
        for name, value in request["counts"].items():
            counts[name] += value
        gen2.extend(end - start for name, start, end, _ in spans if name == "gc2")
        calls, evaluated = engine_misses(spans)
        engine_calls += calls
        misses += evaluated
        xseek_calls += sum(1 for span in spans if span[0] == "xseek")
    metrics = {
        metric: totals.get(name, 0.0) * 1000.0 / count for name, metric in SELF_TIME_METRICS.items()
    }
    ranked = counts.get("ranked", 0)
    metrics.update(
        {
            "engine.cache_hit_ratio": 1.0 - misses / engine_calls if engine_calls else 0.0,
            "engine.useful_ratio": counts.get("served", 0) / ranked if ranked else 0.0,
            "index.postings_per_result": counts.get("postings", 0) / ranked if ranked else 0.0,
            "xseek.calls_per_req": xseek_calls / count,
            "gc.pause_share": totals.get("gc", 0.0) / wall_time if wall_time else 0.0,
            "gc.gen2_count": float(len(gen2)),
            "gc.gen2_max_ms": max(gen2, default=0.0) * 1000.0,
            "trace.requests": float(count),
        }
    )
    loads = [end - start for name, start, end in payload["boot"] if name == "snapshot.load"]
    if loads:
        metrics["snapshot.load_s"] = loads[0]
    return metrics, worst_gap
