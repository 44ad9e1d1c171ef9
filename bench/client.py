"""The load generator: keep-alive connections, op execution and the closed loop."""

from __future__ import annotations

import gzip
import http.client
import json
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import quote, urlencode

from bench.oracle import Checker
from bench.spec import STRUCTURED_PARAMS, Op

REQUEST_TIMEOUT = 60.0
# How long an aborted load phase waits for the request each worker has in flight.
ABORT_GRACE = 5.0
WORKERS = 2
READ_KINDS = frozenset({"search", "page", "compare"})


@dataclass(frozen=True)
class Sample:
    """One HTTP request: ``latency`` is ``inf`` when it failed."""

    phase: str
    kind: str  # search, page (the cursor request), compare, ingest or delete
    latency: float
    size: int


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self._connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)

    def request(
        self, method: str, path: str, phase: str, payload: Optional[dict] = None
    ) -> Tuple[int, Optional[dict], int]:
        """Send one request; returns (status, decoded JSON body, bytes received)."""
        headers = {"Accept-Encoding": "gzip", "X-Bench-Phase": phase}
        body = None
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self._connection.close()
            raise
        size = len(raw)
        if response.getheader("Content-Encoding") == "gzip":
            raw = gzip.decompress(raw)
        return response.status, (json.loads(raw) if raw else None), size

    def close(self) -> None:
        self._connection.close()


def search_path(query: str, structured: bool = False) -> str:
    params: List[Tuple[str, str]] = [("q", query)]
    if structured:
        params.extend(STRUCTURED_PARAMS)
    return "/search?" + urlencode(params)


class Executor:
    """Runs ops, checks every response and records samples, failures and write acks."""

    def __init__(self, checker: Checker, heldout_xml: Sequence[str]) -> None:
        self.checker = checker
        self.heldout_xml = heldout_xml
        self.samples: List[Sample] = []
        self.failures: List[str] = []
        # Acknowledged mutations: (corpus version, doc id, action).
        self.acks: List[Tuple[int, str, str]] = []
        self._ingested: Dict[str, threading.Event] = {}
        self._lock = threading.Lock()

    def _record(self, phase: str, kind: str, start: float, size: int, error: Optional[str]) -> None:
        latency = time.perf_counter() - start if error is None else math.inf
        with self._lock:
            self.samples.append(Sample(phase, kind, latency, size))
            if error is not None:
                self.failures.append(f"{phase}/{kind}: {error}")

    def _ingest_event(self, doc_id: str) -> threading.Event:
        with self._lock:
            return self._ingested.setdefault(doc_id, threading.Event())

    def run(self, connection: Connection, op: Op, start: float, phase: str) -> None:
        """Execute ``op``; latency of its first request counts from ``start``."""
        try:
            self._run(connection, op, start, phase)
        except (OSError, http.client.HTTPException, ValueError, KeyError, TypeError) as exc:
            self._record(phase, op.kind, start, 0, f"{type(exc).__name__}: {exc}")

    def _run(self, connection: Connection, op: Op, start: float, phase: str) -> None:
        if op.kind in ("search", "page"):
            path = search_path(op.query, op.structured)
            status, body, size = connection.request("GET", path, phase)
            error = self._search_error(status, body, None if op.structured else op.query)
            self._record(phase, "search", start, size, error)
            if op.kind == "page" and error is None and body["next_cursor"] is not None:
                start = time.perf_counter()
                path = "/search?" + urlencode([("cursor", body["next_cursor"])])
                status, body, size = connection.request("GET", path, phase)
                self._record(phase, "page", start, size, self._search_error(status, body, None))
        elif op.kind == "compare":
            payload = {"query": op.query, "top": op.top}
            status, body, size = connection.request("POST", "/compare", phase, payload)
            if status != 200:
                error = f"status {status}"
            else:
                error = self.checker.compare(op.query, op.top, body)
            self._record(phase, "compare", start, size, error)
        elif op.kind == "ingest":
            xml = self.heldout_xml[op.source % len(self.heldout_xml)]
            payload = {"doc_id": op.doc_id, "xml": xml}
            try:
                status, body, size = connection.request("POST", "/documents", phase, payload)
                error = None if status == 201 else f"status {status}"
                if error is None:
                    with self._lock:
                        self.acks.append((body["corpus_version"], op.doc_id, "add"))
            finally:
                # Set even on failure: the delete then fails fast instead of waiting.
                self._ingest_event(op.doc_id).set()
            self._record(phase, "ingest", start, size, error)
        elif op.kind == "delete":
            # The ingest this delete undoes was issued DELETE_LAG ops earlier,
            # possibly on the other connection: wait for its acknowledgement.
            if not self._ingest_event(op.doc_id).wait(REQUEST_TIMEOUT):
                self._record(phase, "delete", start, 0, f"ingest of {op.doc_id} never acknowledged")
                return
            path = "/documents/" + quote(op.doc_id, safe="")
            status, body, size = connection.request("DELETE", path, phase)
            error = None if status == 200 else f"status {status}"
            if error is None:
                with self._lock:
                    self.acks.append((body["corpus_version"], op.doc_id, "delete"))
            self._record(phase, "delete", start, size, error)
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")

    def _search_error(
        self, status: int, body: Optional[dict], query: Optional[str]
    ) -> Optional[str]:
        if status != 200 or body is None:
            return f"status {status}"
        return self.checker.search(query, body)


def _drive(
    port: int,
    worker: Callable[[Connection, threading.Event], None],
    alive: Callable[[], None],
) -> None:
    """Run ``worker`` on WORKERS threads, each with its own connection.

    ``alive`` raises when the server died.  On that or any other exception
    (SIGTERM included) the workers are told to stop, get a moment to finish
    their request, and the exception propagates.  The connections are closed
    either way: the server's shutdown waits for every open connection.
    """
    stop = threading.Event()
    connections = [Connection(port) for _ in range(WORKERS)]
    threads = [
        threading.Thread(target=worker, args=(connection, stop), daemon=True)
        for connection in connections
    ]
    for thread in threads:
        thread.start()
    try:
        while any(thread.is_alive() for thread in threads):
            alive()
            for thread in threads:
                thread.join(0.1)
    finally:
        stop.set()
        for thread in threads:
            thread.join(ABORT_GRACE)
        for connection in connections:
            connection.close()


def closed_loop(
    port: int,
    executor: Executor,
    ops: Iterator[Op],
    seconds: float,
    phase: str,
    alive: Callable[[], None],
) -> float:
    """Each connection sends its next op as soon as the last one completed.

    Ops are started until ``seconds`` have passed (or ``ops`` runs out);
    returns the wall time until the last one completed.
    """
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds
    finished: List[float] = []

    def worker(connection: Connection, stop: threading.Event) -> None:
        while not stop.is_set() and time.perf_counter() < deadline:
            with lock:
                op = next(ops, None)
            if op is None:
                break
            executor.run(connection, op, time.perf_counter(), phase)
        with lock:
            finished.append(time.perf_counter())

    _drive(port, worker, alive)
    return max(finished, default=time.perf_counter()) - start
