"""HTTP JSON front-end over a :class:`~repro.service.service.SearchService`.

The paper's demo is a web application; this module reproduces its serving
surface on the stdlib only (``http.server``), so the system is reachable with
nothing but ``curl``:

* ``GET /search?q=...&semantics=...&page_size=...&cursor=...`` — one page of
  ranked results (:class:`~repro.service.protocol.SearchResponse` as JSON).
  Follow ``next_cursor`` for the next page; the query may be omitted when a
  cursor is given.  Structural constraints ride along as ``within=`` (may
  repeat; each value a slash-separated tag path), ``axis=`` and
  ``axis_tag=`` — any of them turns the request into a structured query
  evaluated under ``slca_struct`` unless ``semantics`` says otherwise.
* ``POST /compare`` — body is a
  :class:`~repro.service.protocol.CompareRequest` JSON object; answers with
  the comparison table as plain data.
* ``POST /documents`` — ingest one document (body is an
  :class:`~repro.service.protocol.IngestRequest` JSON object); ``201`` with
  the new corpus version on success, ``409`` on a duplicate id, ``403``
  when the service is read-only.
* ``POST /documents:bulk`` — NDJSON batch ingest: one ``IngestRequest``
  object per line (blank lines ignored).  A line that is not valid JSON
  fails the whole request with ``400`` naming the line; per-document errors
  (duplicates, unparsable XML) are reported per line in the ``200``
  response instead, and the successful lines are published as one
  generation swap.
* ``DELETE /documents/{id}`` — remove one document; ``404`` if absent.
* ``GET /documents/updated-since?version=V`` — the change feed: every
  mutation applied after corpus version ``V``, oldest first, with
  ``complete=false`` when the in-memory feed no longer reaches back to
  ``V`` (full resync required).
* ``GET /healthz`` — liveness probe.
* ``GET /stats`` — request counters and per-engine cache hit/miss statistics.
* ``GET /`` — endpoint directory, so an unconfigured probe gets a map
  instead of a bare 404.

The server is a :class:`~http.server.ThreadingHTTPServer`: every request runs
in its own thread against the one shared, thread-safe service.  Errors map to
JSON bodies ``{"error": {"type": ..., "message": ...}}`` with conventional
status codes — 400 for malformed requests, 404 for unknown paths and
documents, 410 for stale/undecodable cursors (the resource genuinely went
away: the corpus moved on), 500 for everything unexpected.

Conditional GET: ``/search`` and ``/stats`` responses carry an ``ETag``
derived from the corpus version (plus, for ``/search``, the semantics name
and its registration generation — everything server-side that can change the
representation of a fixed URL).  A request presenting the same tag via
``If-None-Match`` is answered ``304 Not Modified`` without evaluating the
query or serialising a body; after any corpus mutation the version bump
changes the tag and the next conditional request gets a full ``200``.  The
``/stats`` tag deliberately tracks corpus state, not the monotonically
ticking request counters — a client polling stats for *corpus* changes
revalidates for free, and one that wants fresh counters simply omits the
header.

Compression: JSON bodies are gzip-compressed when the client offers it via
``Accept-Encoding`` (``gzip`` or ``x-gzip``, honouring ``q=0`` opt-outs) and
the body is large enough to benefit; every compressible response carries
``Vary: Accept-Encoding`` so shared caches key on the negotiation.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.errors import (
    DocumentNotFoundError,
    DuplicateDocumentError,
    InvalidCursorError,
    ProtocolError,
    ReadOnlyServiceError,
    ReproError,
)
from repro.search.semantics import semantics_generation
from repro.service.cursor import decode_cursor
from repro.service.protocol import CompareRequest, IngestRequest, SearchRequest
from repro.service.service import SearchService

__all__ = ["XsactHTTPServer", "create_server"]

_ENDPOINTS = {
    "GET /search": (
        "paginated keyword search (q, semantics, page_size, cursor; "
        "structural: within, axis, axis_tag)"
    ),
    "POST /compare": "comparison table for a query's results (JSON body)",
    "POST /documents": "ingest one document (IngestRequest JSON body; writable services)",
    "POST /documents:bulk": "batch ingest (NDJSON: one IngestRequest per line)",
    "DELETE /documents/{id}": "remove one document (writable services)",
    "GET /documents/updated-since": "change feed of mutations after ?version=V",
    "GET /healthz": "liveness probe",
    "GET /stats": "request counters and cache statistics",
}


class XsactHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`SearchService`."""

    # Worker threads must not keep a dying process alive.
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: SearchService, out=None):
        super().__init__(address, _Handler)
        self.service = service
        self.out = out

    def log_line(self, message: str) -> None:
        """Write one access-log line to the configured stream, if any."""
        if self.out is not None:
            print(message, file=self.out, flush=True)


def create_server(
    service: SearchService, host: str = "127.0.0.1", port: int = 8080, out=None
) -> XsactHTTPServer:
    """Bind an HTTP server to ``host:port`` (``port=0`` picks a free port).

    The caller owns the life cycle: ``serve_forever()`` to run,
    ``shutdown()`` + ``server_close()`` to stop.  ``out`` receives one access
    line per request (``None`` disables logging).
    """
    return XsactHTTPServer((host, port), service, out=out)


_MAX_BODY_BYTES = 1 << 20  # 1 MiB: far beyond any legitimate CompareRequest

# Bulk ingest legitimately carries many documents per request; still bounded
# so one request cannot buffer unbounded client bytes in memory.
_MAX_BULK_BODY_BYTES = 8 << 20

# Bodies below this stay identity-encoded: gzip's ~20-byte envelope plus the
# extra header lines can *grow* tiny JSON payloads, and the CPU spend saves
# nothing on a response that fits in one packet anyway.
_GZIP_MIN_BYTES = 256


class _Handler(BaseHTTPRequestHandler):
    server_version = "XsactService/1.0"
    protocol_version = "HTTP/1.1"
    # Socket timeout per connection: a client that stalls mid-body (or never
    # sends one) must not park a handler thread forever.
    timeout = 60

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        split = urlsplit(self.path)
        if split.path == "/healthz":
            self._handle(lambda: self._respond(200, self._service.health()))
        elif split.path == "/stats":
            self._handle(self._stats)
        elif split.path == "/search":
            self._handle(lambda: self._search(split.query))
        elif split.path == "/documents/updated-since":
            self._handle(lambda: self._updated_since(split.query))
        elif split.path == "/":
            self._handle(
                lambda: self._respond(200, {"service": "xsact", "endpoints": _ENDPOINTS})
            )
        else:
            self._handle(lambda: self._error(404, "NotFound", f"unknown path: {split.path}"))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        # Per-request state: the handler instance persists across keep-alive
        # requests, so this must not leak from an earlier request.
        self._body_consumed = False
        split = urlsplit(self.path)
        if split.path == "/compare":
            self._handle(self._compare)
        elif split.path == "/documents":
            self._handle(self._ingest)
        elif split.path == "/documents:bulk":
            self._handle(self._ingest_bulk)
        else:
            self._handle(lambda: self._error(404, "NotFound", f"unknown path: {split.path}"))

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        split = urlsplit(self.path)
        prefix = "/documents/"
        if split.path.startswith(prefix) and len(split.path) > len(prefix):
            doc_id = unquote(split.path[len(prefix):])
            self._handle(lambda: self._delete_document(doc_id))
        else:
            self._handle(lambda: self._error(404, "NotFound", f"unknown path: {split.path}"))

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def _search(self, raw_query_string: str) -> None:
        params = parse_qs(raw_query_string)
        within_values = params.get("within")
        request = SearchRequest(
            query=self._param(params, "q") or self._param(params, "query") or "",
            semantics=self._param(params, "semantics"),
            page_size=self._int_param(params, "page_size"),
            cursor=self._param(params, "cursor"),
            # All repeats are kept (unlike single-valued params): each is one
            # or more slash-separated steps of the tag path.
            within=tuple(within_values) if within_values else None,
            axis=self._param(params, "axis"),
            axis_tag=self._param(params, "axis_tag"),
        )
        etag = self._search_etag(request)
        if etag is not None and self._if_none_match_hit(etag):
            # The client already holds this page for this corpus version:
            # skip query evaluation and result serialisation entirely.
            self._respond_not_modified(etag)
            return
        response = self._service.search(request)
        # The emitted tag is derived from the response, not from the
        # pre-evaluation probe above: if the corpus mutates between the two
        # reads, the probe's tag would label post-mutation content with the
        # pre-mutation version and a later If-None-Match would revalidate
        # the wrong bytes.  The response's version is, by the generation
        # contract, exactly the corpus state that produced the items.
        emitted = (
            f'"search/v{response.corpus_version}/{response.semantics}'
            f'.{semantics_generation(response.semantics)}"'
        )
        self._respond(200, response.to_dict(), etag=emitted)

    def _stats(self) -> None:
        etag = f'"stats/v{self._service.corpus.version}"'
        if self._if_none_match_hit(etag):
            self._respond_not_modified(etag)
            return
        self._respond(200, self._service.stats(), etag=etag)

    def _compare(self) -> None:
        request = CompareRequest.from_dict(self._read_json_body())
        self._respond(200, self._service.compare(request).to_dict())

    def _ingest(self) -> None:
        request = IngestRequest.from_dict(self._read_json_body())
        self._respond(201, self._service.ingest(request).to_dict())

    def _ingest_bulk(self) -> None:
        body = self._read_body(limit=_MAX_BULK_BODY_BYTES)
        if not body.strip():
            raise ProtocolError("request body is empty; expected NDJSON (one object per line)")
        try:
            text = body.decode("utf-8")
        except UnicodeError as exc:
            raise ProtocolError(f"request body is not valid UTF-8: {exc}") from exc
        requests: List[IngestRequest] = []
        # Strict framing: a line that is not a valid IngestRequest object
        # fails the whole request *before* anything is ingested — a framing
        # error means the client and server disagree about where documents
        # begin, and applying a prefix of that stream would be a partial
        # write the client cannot reason about.  (Per-document failures —
        # duplicates, bad XML — are data, not framing, and are reported per
        # line in the 200 response.)
        line_numbers: List[int] = []
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                requests.append(IngestRequest.from_dict(json.loads(line)))
            except (ValueError, RecursionError, ProtocolError) as exc:
                raise ProtocolError(f"NDJSON line {number}: {exc}") from exc
            line_numbers.append(number)
        if not requests:
            raise ProtocolError("request body has no NDJSON objects")
        response = self._service.ingest_many(requests)
        if response.errors and line_numbers != list(range(1, len(requests) + 1)):
            # The service numbers errors by request position; blank lines in
            # the NDJSON stream shift that away from the physical line the
            # client sent, so map the numbers back before responding.
            response = replace(
                response,
                errors=tuple(
                    replace(error, line=line_numbers[error.line - 1])
                    for error in response.errors
                ),
            )
        self._respond(200, response.to_dict())

    def _delete_document(self, doc_id: str) -> None:
        self._respond(200, self._service.delete_document(doc_id).to_dict())

    def _updated_since(self, raw_query_string: str) -> None:
        params = parse_qs(raw_query_string)
        version = self._int_param(params, "version")
        if version is None:
            raise ProtocolError("query parameter 'version' is required")
        self._respond(200, self._service.updated_since(version).to_dict())

    def _search_etag(self, request: SearchRequest) -> Optional[str]:
        """Validator for a /search URL: corpus version + semantics identity.

        The URL itself pins the query, cursor and page size, so the tag only
        has to cover the server-side state that can change the answer for a
        fixed URL: the corpus version (any mutation re-ranks) and which
        function the semantics name currently resolves to (its registration
        generation).  The semantics comes from the explicit parameter, else
        from the cursor, else it is the service default; an undecodable
        cursor yields no tag and falls through to the normal 410 path.
        """
        semantics = request.semantics
        if semantics is None and request.cursor is not None:
            try:
                semantics = decode_cursor(request.cursor).semantics
            except InvalidCursorError:
                return None
        if semantics is None:
            # Mirror the service's unspecified-semantics default: structural
            # constraints flip it to the structure-aware semantics.
            semantics = (
                "slca_struct" if (request.within or request.axis is not None) else "slca"
            )
        version = self._service.corpus.version
        return f'"search/v{version}/{semantics}.{semantics_generation(semantics)}"'

    def _if_none_match_hit(self, etag: str) -> bool:
        """True when the request's ``If-None-Match`` matches ``etag``.

        Weak comparison: a ``W/`` prefix on either side is ignored, per RFC
        9110 — the tags guard cache freshness, not byte-range reuse.
        """
        header = self.headers.get("If-None-Match")
        if header is None:
            return False
        if header.strip() == "*":
            return True
        own = etag[2:] if etag.startswith("W/") else etag
        for candidate in header.split(","):
            candidate = candidate.strip()
            if candidate.startswith("W/"):
                candidate = candidate[2:]
            if candidate == own:
                return True
        return False

    # ------------------------------------------------------------------ #
    # Request plumbing
    # ------------------------------------------------------------------ #
    @property
    def _service(self) -> SearchService:
        return self.server.service  # type: ignore[attr-defined]

    def _handle(self, endpoint) -> None:
        """Run an endpoint, mapping library errors to JSON status responses.

        The outermost catch swallows client-disconnect errors: a peer that
        drops the connection mid-write (page closed, curl killed) raises
        ``BrokenPipeError``/``ConnectionResetError`` out of ``wfile.write``
        — including out of an ``_error`` response already being written —
        and answering *that* with another write would raise again and spill
        a traceback for what is normal client behaviour.  The connection is
        simply closed.
        """
        try:
            try:
                endpoint()
            except InvalidCursorError as error:
                self._error(410, type(error).__name__, str(error))
            except DocumentNotFoundError as error:
                self._error(404, type(error).__name__, str(error))
            except DuplicateDocumentError as error:
                self._error(409, type(error).__name__, str(error))
            except ReadOnlyServiceError as error:
                self._error(403, type(error).__name__, str(error))
            except ReproError as error:
                self._error(400, type(error).__name__, str(error))
            except Exception as error:  # pragma: no cover - defensive
                self._error(500, type(error).__name__, str(error))
        except (BrokenPipeError, ConnectionResetError):
            # The client is gone; there is no socket left to apologise on.
            self.close_connection = True

    def _read_body(self, limit: int = _MAX_BODY_BYTES) -> bytes:
        """Read and return the request body, bounded by ``limit``."""
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise ProtocolError(
                f"Content-Length must be an integer, got {raw_length!r}"
            ) from None
        if length > limit:
            # Client-supplied, so never trusted as a buffer size.
            raise ProtocolError(f"request body too large: {length} bytes (limit {limit})")
        body = self.rfile.read(length) if length > 0 else b""
        self._body_consumed = True
        return body

    def _read_json_body(self) -> Any:
        body = self._read_body()
        if not body:
            raise ProtocolError("request body is empty; expected a JSON object")
        try:
            return json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeError, RecursionError) as exc:
            # RecursionError: JSON nested deeper than the decoder can recurse.
            raise ProtocolError(f"request body is not valid JSON: {exc}") from exc

    @staticmethod
    def _param(params: Dict[str, list], name: str) -> Optional[str]:
        values = params.get(name)
        return values[-1] if values else None

    def _int_param(self, params: Dict[str, list], name: str) -> Optional[int]:
        text = self._param(params, name)
        if text is None:
            return None
        try:
            return int(text)
        except ValueError:
            raise ProtocolError(f"query parameter {name!r} must be an integer, got {text!r}")

    # ------------------------------------------------------------------ #
    # Response plumbing
    # ------------------------------------------------------------------ #
    def _accepts_gzip(self) -> bool:
        """Whether the request's ``Accept-Encoding`` allows a gzip body.

        Token scan with q-value handling: ``gzip;q=0`` is an explicit opt-out
        and ``*`` is deliberately not treated as consent — only a client that
        names gzip (or its legacy ``x-gzip`` alias) gets compressed bytes.
        """
        header = self.headers.get("Accept-Encoding")
        if header is None:
            return False
        for token in header.split(","):
            coding, _, params = token.partition(";")
            if coding.strip().lower() not in ("gzip", "x-gzip"):
                continue
            q_text = params.strip()
            if q_text.lower().startswith("q="):
                try:
                    return float(q_text[2:]) > 0
                except ValueError:
                    return False
            return True
        return False

    def _respond(self, status: int, payload: Dict[str, Any], etag: Optional[str] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        # The representation varies with Accept-Encoding even when this
        # particular response stayed identity (too small, or consent came and
        # went): caches must always key on the header.
        compressed = len(body) >= _GZIP_MIN_BYTES and self._accepts_gzip()
        if compressed:
            # mtime=0 keeps the gzip envelope deterministic, so equal JSON
            # bodies stay byte-identical across requests (and in tests).
            body = gzip.compress(body, mtime=0)
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        if compressed:
            self.send_header("Content-Encoding", "gzip")
        self.send_header("Vary", "Accept-Encoding")
        self.send_header("Content-Length", str(len(body)))
        if etag is not None:
            self.send_header("ETag", etag)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _respond_not_modified(self, etag: str) -> None:
        # 304 carries no body by definition; the ETag is echoed so caches
        # can refresh their validator, and Content-Length 0 keeps pipelined
        # keep-alive clients from waiting for bytes that never come.
        self.send_response(304)
        self.send_header("ETag", etag)
        self.send_header("Content-Length", "0")
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()

    def _error(self, status: int, error_type: str, message: str) -> None:
        # A POST rejected before its body was read leaves the body bytes on
        # the keep-alive connection, where they would be parsed as the next
        # request line.  Closing the connection keeps the stream in sync;
        # per-request error responses are rare enough that the reconnect
        # cost is irrelevant.
        if self.command == "POST" and not getattr(self, "_body_consumed", False):
            self.close_connection = True
        self._respond(status, {"error": {"type": error_type, "message": message}})

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - http.server API
        self.server.log_line(  # type: ignore[attr-defined]
            f"{self.address_string()} {format % args}"
        )
