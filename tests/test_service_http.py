"""End-to-end tests of the HTTP JSON front-end.

A real :class:`~repro.service.http.XsactHTTPServer` is bound to an ephemeral
port and exercised with ``urllib`` over actual sockets: search with cursor
pagination (the second request must be served from the engine cache),
compare via POST, the health and stats endpoints, and the error mapping.
"""

import gzip
import json
import threading
import urllib.error
import urllib.parse
import urllib.request
from base64 import urlsafe_b64encode

import pytest

from repro.service.http import create_server
from repro.service.protocol import SearchResponse
from repro.service.service import SearchService


@pytest.fixture(scope="module")
def server(small_product_corpus):
    service = SearchService(small_product_corpus, default_page_size=2)
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture(scope="module")
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        assert response.headers["Content-Type"].startswith("application/json")
        return response.status, json.loads(response.read().decode("utf-8"))


def post_json(url, payload):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def error_response(call):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        call()
    payload = json.loads(excinfo.value.read().decode("utf-8"))
    return excinfo.value.code, payload


class TestSearchEndpoint:
    def test_search_first_page(self, base_url):
        status, payload = get_json(f"{base_url}/search?q=gps")
        assert status == 200
        response = SearchResponse.from_dict(payload)  # valid wire format
        assert response.offset == 0
        assert len(response.items) == 2  # service default page size
        assert response.items[0].result_id == "R1"
        assert response.next_cursor

    def test_cursor_page_is_cache_hit(self, base_url, server):
        hits_before = server.service.stats()["cache"]["hits"]
        _, first = get_json(f"{base_url}/search?q=camera&page_size=1")
        cursor = urllib.parse.quote(first["next_cursor"])
        _, second = get_json(f"{base_url}/search?cursor={cursor}")
        assert second["offset"] == 1
        assert second["items"][0]["result_id"] == "R2"
        hits_after = server.service.stats()["cache"]["hits"]
        assert hits_after > hits_before  # no re-evaluation for page two

    def test_search_with_semantics(self, base_url):
        status, payload = get_json(f"{base_url}/search?q=gps&semantics=elca&page_size=100")
        assert status == 200
        assert payload["semantics"] == "elca"

    def test_empty_query_rejected(self, base_url):
        code, payload = error_response(lambda: get_json(f"{base_url}/search"))
        assert code == 400
        assert payload["error"]["type"] == "QueryError"

    def test_unknown_semantics_rejected(self, base_url):
        code, payload = error_response(
            lambda: get_json(f"{base_url}/search?q=gps&semantics=bogus")
        )
        assert code == 400
        assert payload["error"]["type"] == "SearchError"
        assert "available" in payload["error"]["message"]

    def test_bad_cursor_is_410(self, base_url):
        code, payload = error_response(
            lambda: get_json(f"{base_url}/search?cursor=garbage")
        )
        assert code == 410
        assert payload["error"]["type"] == "InvalidCursorError"

    def test_bad_page_size_rejected(self, base_url):
        code, payload = error_response(
            lambda: get_json(f"{base_url}/search?q=gps&page_size=many")
        )
        assert code == 400
        assert payload["error"]["type"] == "ProtocolError"


class TestCompareEndpoint:
    def test_compare(self, base_url):
        status, payload = post_json(
            f"{base_url}/compare", {"query": "gps", "top": 2, "size_limit": 4}
        )
        assert status == 200
        assert payload["dod"] > 0
        assert len(payload["column_ids"]) == 2
        assert payload["rows"]

    def test_compare_malformed_body(self, base_url):
        code, payload = error_response(
            lambda: post_json(f"{base_url}/compare", {"query": 42})
        )
        assert code == 400
        assert payload["error"]["type"] == "ProtocolError"

    def test_compare_empty_body(self, base_url):
        request = urllib.request.Request(f"{base_url}/compare", data=b"", method="POST")

        def call():
            with urllib.request.urlopen(request, timeout=10):
                pass

        code, _ = error_response(call)
        assert code == 400

    def test_oversized_body_rejected(self, base_url):
        request = urllib.request.Request(
            f"{base_url}/compare",
            data=b'{"query": "gps"}',
            headers={"Content-Length": str(2 << 20)},  # 2 MiB claim
            method="POST",
        )

        def call():
            with urllib.request.urlopen(request, timeout=10):
                pass

        with pytest.raises((urllib.error.HTTPError, ConnectionError, urllib.error.URLError)):
            call()

    def test_error_on_unread_body_keeps_stream_usable(self, base_url, server):
        # A POST rejected before its body is read must not leave body bytes
        # behind to be parsed as the next request on a keep-alive connection.
        import http.client

        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(
                "POST", "/nope", body=b'{"query": "gps"}',
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            response.read()
            # http.client reconnects transparently after Connection: close.
            connection.request("GET", "/healthz")
            follow_up = connection.getresponse()
            assert follow_up.status == 200
            assert json.loads(follow_up.read())["status"] == "ok"
        finally:
            connection.close()

    def test_compare_too_few_results(self, base_url):
        code, payload = error_response(
            lambda: post_json(f"{base_url}/compare", {"query": "gps", "top": 1})
        )
        assert code == 400
        assert payload["error"]["type"] == "ComparisonError"


class TestOperationalEndpoints:
    def test_healthz(self, base_url, small_product_corpus):
        status, payload = get_json(f"{base_url}/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["documents"] == len(small_product_corpus.store)

    def test_stats(self, base_url):
        get_json(f"{base_url}/search?q=gps")
        status, payload = get_json(f"{base_url}/stats")
        assert status == 200
        assert payload["requests"]["search"] >= 1
        assert "slca" in payload["engines"]
        for key in ("entries", "cached_results", "hits", "misses"):
            assert key in payload["cache"]

    def test_root_lists_endpoints(self, base_url):
        status, payload = get_json(f"{base_url}/")
        assert status == 200
        assert "GET /search" in payload["endpoints"]

    def test_unknown_path_is_404(self, base_url):
        code, payload = error_response(lambda: get_json(f"{base_url}/nope"))
        assert code == 404
        assert payload["error"]["type"] == "NotFound"

    def test_unknown_post_path_is_404(self, base_url):
        code, _ = error_response(lambda: post_json(f"{base_url}/nope", {}))
        assert code == 404

    def test_parallel_requests(self, base_url):
        from concurrent.futures import ThreadPoolExecutor

        def fetch(_):
            return get_json(f"{base_url}/search?q=gps&page_size=100")

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(fetch, range(12)))
        first = results[0]
        assert all(result == first for result in results)


class TestStructuredSearch:
    def test_structured_query_end_to_end(self, base_url):
        status, payload = get_json(
            f"{base_url}/search?q=gps&within=product&axis=descendant&axis_tag=review&page_size=5"
        )
        assert status == 200
        assert payload["semantics"] == "slca_struct"
        assert payload["total"] > 0
        assert payload["items"]

    def test_within_alone_defaults_to_structural_semantics(self, base_url):
        status, payload = get_json(f"{base_url}/search?q=gps&within=product&page_size=1")
        assert status == 200
        assert payload["semantics"] == "slca_struct"

    def test_within_repeats_and_tag_paths_agree(self, base_url):
        _, slash = get_json(f"{base_url}/search?q=gps&within=reviews/review&page_size=100")
        _, repeats = get_json(
            f"{base_url}/search?q=gps&within=reviews&within=review&page_size=100"
        )
        assert slash["items"] == repeats["items"]
        assert slash["total"] == repeats["total"]

    def test_structured_cursor_walk_over_the_wire(self, base_url):
        _, first = get_json(
            f"{base_url}/search?q=gps&within=product&axis=descendant&axis_tag=review&page_size=1"
        )
        assert first["semantics"] == "slca_struct"
        cursor = urllib.parse.quote(first["next_cursor"])
        _, second = get_json(f"{base_url}/search?cursor={cursor}")
        assert second["semantics"] == "slca_struct"
        assert second["offset"] == 1
        assert second["items"][0]["result_id"] == "R2"

    def test_invalid_axis_rejected(self, base_url):
        code, payload = error_response(
            lambda: get_json(f"{base_url}/search?q=gps&axis=sideways&axis_tag=review")
        )
        assert code == 400
        assert payload["error"]["type"] == "QueryError"

    def test_bad_within_path_rejected(self, base_url):
        code, payload = error_response(
            lambda: get_json(f"{base_url}/search?q=gps&within=a//b")
        )
        assert code == 400
        assert payload["error"]["type"] == "QueryError"

    def test_slca_with_constraints_rejected(self, base_url):
        code, payload = error_response(
            lambda: get_json(f"{base_url}/search?q=gps&within=product&semantics=slca")
        )
        assert code == 400
        assert payload["error"]["type"] == "SearchError"
        assert "structural constraints" in payload["error"]["message"]

    def test_etag_varies_with_constraints(self, base_url):
        _, plain_tag, _ = conditional_get(f"{base_url}/search?q=gps")
        _, constrained_tag, _ = conditional_get(f"{base_url}/search?q=gps&within=product")
        assert plain_tag != constrained_tag
        assert "slca_struct" in constrained_tag


def raw_get(url, headers=None):
    """GET without urllib's transparent handling: (status, headers, raw body)."""
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, response.headers, response.read()


class TestGzipNegotiation:
    LARGE = "/search?q=gps&page_size=100"

    def test_gzip_applied_when_accepted(self, base_url):
        _, _, identity = raw_get(f"{base_url}{self.LARGE}")
        assert len(identity) >= 256  # big enough to qualify for compression
        status, headers, body = raw_get(
            f"{base_url}{self.LARGE}", headers={"Accept-Encoding": "gzip"}
        )
        assert status == 200
        assert headers["Content-Encoding"] == "gzip"
        assert headers["Content-Length"] == str(len(body))
        assert len(body) < len(identity)
        assert gzip.decompress(body) == identity

    def test_identity_without_accept_encoding(self, base_url):
        _, headers, body = raw_get(f"{base_url}{self.LARGE}")
        assert headers.get("Content-Encoding") is None
        json.loads(body)  # readable as-is

    def test_vary_header_always_present(self, base_url):
        _, plain_headers, _ = raw_get(f"{base_url}{self.LARGE}")
        assert plain_headers["Vary"] == "Accept-Encoding"
        _, gzip_headers, _ = raw_get(
            f"{base_url}{self.LARGE}", headers={"Accept-Encoding": "gzip"}
        )
        assert gzip_headers["Vary"] == "Accept-Encoding"

    def test_qvalue_zero_disables_gzip(self, base_url):
        _, headers, _ = raw_get(
            f"{base_url}{self.LARGE}", headers={"Accept-Encoding": "gzip;q=0"}
        )
        assert headers.get("Content-Encoding") is None

    def test_positive_qvalue_and_x_gzip_accepted(self, base_url):
        for accept in ("gzip;q=0.5", "x-gzip", "deflate, gzip;q=0.8, br"):
            _, headers, _ = raw_get(
                f"{base_url}{self.LARGE}", headers={"Accept-Encoding": accept}
            )
            assert headers["Content-Encoding"] == "gzip", accept

    def test_wildcard_is_not_gzip_consent(self, base_url):
        _, headers, _ = raw_get(
            f"{base_url}{self.LARGE}", headers={"Accept-Encoding": "*"}
        )
        assert headers.get("Content-Encoding") is None

    def test_small_bodies_stay_identity(self, base_url):
        status, headers, body = raw_get(
            f"{base_url}/healthz", headers={"Accept-Encoding": "gzip"}
        )
        assert status == 200
        assert len(body) < 256
        assert headers.get("Content-Encoding") is None
        assert json.loads(body)["status"] == "ok"

    def test_compression_is_deterministic(self, base_url):
        bodies = {
            raw_get(f"{base_url}{self.LARGE}", headers={"Accept-Encoding": "gzip"})[2]
            for _ in range(3)
        }
        assert len(bodies) == 1  # mtime=0: byte-identical across responses


def conditional_get(url, etag=None):
    """GET returning (status, etag, body); 304/4xx come back as values."""
    request = urllib.request.Request(url)
    if etag is not None:
        request.add_header("If-None-Match", etag)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.headers.get("ETag"), response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("ETag"), error.read()


@pytest.fixture()
def mutable_server():
    """A server over a private two-document corpus that tests may mutate."""
    from repro.storage.corpus import Corpus
    from repro.storage.document_store import DocumentStore
    from repro.xmlmodel.parser import parse_xml

    store = DocumentStore()
    store.add("p1", parse_xml("<product><name>TomTom Go GPS</name></product>"))
    store.add("p2", parse_xml("<product><name>Garmin Nuvi GPS</name></product>"))
    service = SearchService(Corpus(store, name="mutable"))
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield server, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestConditionalGet:
    def test_search_carries_etag(self, base_url):
        status, etag, _ = conditional_get(f"{base_url}/search?q=gps")
        assert status == 200
        assert etag and etag.startswith('"search/v')

    def test_search_if_none_match_is_304(self, base_url):
        _, etag, _ = conditional_get(f"{base_url}/search?q=gps")
        status, echoed, body = conditional_get(f"{base_url}/search?q=gps", etag=etag)
        assert status == 304
        assert echoed == etag  # validator echoed for cache refresh
        assert body == b""  # 304 carries no body

    def test_weak_and_star_validators_match(self, base_url):
        _, etag, _ = conditional_get(f"{base_url}/search?q=gps")
        status, _, _ = conditional_get(f"{base_url}/search?q=gps", etag=f"W/{etag}")
        assert status == 304
        status, _, _ = conditional_get(f"{base_url}/search?q=gps", etag="*")
        assert status == 304

    def test_etag_varies_with_semantics(self, base_url):
        _, slca, _ = conditional_get(f"{base_url}/search?q=gps")
        _, elca, _ = conditional_get(f"{base_url}/search?q=gps&semantics=elca")
        assert slca != elca
        assert "elca" in elca

    def test_cursor_page_shares_the_query_etag(self, base_url):
        _, first = get_json(f"{base_url}/search?q=camera&page_size=1")
        cursor = urllib.parse.quote(first["next_cursor"])
        _, etag_page1, _ = conditional_get(f"{base_url}/search?q=camera&page_size=1")
        status, etag_page2, _ = conditional_get(f"{base_url}/search?cursor={cursor}")
        assert status == 200
        assert etag_page2 == etag_page1  # semantics recovered from the cursor
        status, _, _ = conditional_get(f"{base_url}/search?cursor={cursor}", etag=etag_page1)
        assert status == 304

    def test_undecodable_cursor_still_410_despite_validator(self, base_url):
        # A garbage cursor yields no ETag, so even If-None-Match: * cannot
        # short-circuit the 410 the client needs to see.
        status, _, body = conditional_get(f"{base_url}/search?cursor=garbage", etag="*")
        assert status == 410
        assert json.loads(body)["error"]["type"] == "InvalidCursorError"

    def test_stats_if_none_match_is_304(self, base_url):
        status, etag, _ = conditional_get(f"{base_url}/stats")
        assert status == 200
        assert etag and etag.startswith('"stats/v')
        status, _, body = conditional_get(f"{base_url}/stats", etag=etag)
        assert status == 304
        assert body == b""

    def test_mutation_invalidates_etags(self, mutable_server):
        from repro.xmlmodel.parser import parse_xml

        server, base_url = mutable_server
        _, search_tag, _ = conditional_get(f"{base_url}/search?q=gps")
        _, stats_tag, _ = conditional_get(f"{base_url}/stats")
        assert conditional_get(f"{base_url}/search?q=gps", etag=search_tag)[0] == 304
        server.service.corpus.add_document(
            "p3", parse_xml("<product><name>Magellan GPS</name></product>")
        )
        status, new_search_tag, _ = conditional_get(
            f"{base_url}/search?q=gps", etag=search_tag
        )
        assert status == 200  # stale validator: full response again
        assert new_search_tag != search_tag
        status, new_stats_tag, _ = conditional_get(f"{base_url}/stats", etag=stats_tag)
        assert status == 200
        assert new_stats_tag != stats_tag

    def test_etag_matches_served_body_when_corpus_mutates_mid_request(
        self, mutable_server
    ):
        # The race this pins: the handler used to stamp the 200 with a tag
        # computed from the corpus version read *before* evaluation.  A
        # mutation in the window between that read and the search meant the
        # response body came from the new corpus while the ETag named the
        # old one — so a later If-None-Match with that tag would 304 against
        # different bytes.  The emitted tag is now derived from the response.
        from repro.service.protocol import IngestRequest

        server, base_url = mutable_server
        service = server.service
        service.writable = True  # enable the mutation used by the hook
        original = service.search
        fired = []

        def mutate_then_search(request):
            if not fired:
                fired.append(True)
                service.ingest(
                    IngestRequest(
                        doc_id="race", xml="<product><name>Race GPS</name></product>"
                    )
                )
            return original(request)

        service.search = mutate_then_search
        try:
            status, etag, body = conditional_get(f"{base_url}/search?q=gps")
        finally:
            del service.search
        assert status == 200
        served_version = json.loads(body)["corpus_version"]
        assert fired and served_version == service.corpus.version
        assert f"/v{served_version}/" in etag  # tag names the served body
        # And the validator round-trips: same tag now revalidates to 304.
        assert conditional_get(f"{base_url}/search?q=gps", etag=etag)[0] == 304


class TestClientDisconnect:
    def test_disconnect_during_write_is_swallowed(self):
        # The bug this pins: a client that dropped the connection mid-write
        # raised BrokenPipeError out of the endpoint, the 500 path then wrote
        # to the same dead socket, and the second BrokenPipeError escaped the
        # handler as a logged traceback.  _handle now swallows both.
        from repro.service.http import _Handler

        for exception in (BrokenPipeError, ConnectionResetError):
            handler = object.__new__(_Handler)
            handler.close_connection = False

            def dead_socket_write(*args, **kwargs):
                raise exception("peer went away")

            # Any response write hits the dead socket, including the error
            # response the inner handlers would send.
            handler._error = dead_socket_write

            def endpoint():
                raise exception("peer went away")

            handler._handle(endpoint)  # must not raise
            assert handler.close_connection

    def test_disconnect_during_error_response_is_swallowed(self):
        from repro.service.http import _Handler

        handler = object.__new__(_Handler)
        handler.close_connection = False

        def dead_socket_write(*args, **kwargs):
            raise BrokenPipeError("peer went away")

        handler._error = dead_socket_write

        def endpoint():
            raise ValueError("server-side failure while the peer is gone")

        handler._handle(endpoint)  # 500 path writes to the dead socket
        assert handler.close_connection

    def test_server_survives_client_hangup(self, base_url, server):
        # Socket-level sanity: open a connection, send a request, hang up
        # without reading; the server must keep serving other clients.
        import socket

        host, port = server.server_address[:2]
        for _ in range(3):
            raw = socket.create_connection((host, port), timeout=5)
            raw.sendall(b"GET /search?q=gps&page_size=100 HTTP/1.1\r\n"
                        b"Host: test\r\n\r\n")
            raw.close()  # disappear before the response is written
        status, payload = get_json(f"{base_url}/healthz")
        assert status == 200
        assert payload["status"] == "ok"


@pytest.fixture()
def writable_server():
    """A writable service over a private corpus, with mutation endpoints."""
    from repro.storage.corpus import Corpus
    from repro.storage.document_store import DocumentStore
    from repro.xmlmodel.parser import parse_xml

    store = DocumentStore()
    store.add("p1", parse_xml("<product><name>TomTom Go GPS</name></product>"))
    store.add("p2", parse_xml("<product><name>Garmin Nuvi GPS</name></product>"))
    service = SearchService(Corpus(store, name="writable"), default_page_size=1, writable=True)
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield server, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def post_raw(url, body, method="POST"):
    request = urllib.request.Request(url, data=body, method=method)
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


class TestMutationEndpoints:
    NEW_DOC = {"doc_id": "p9", "xml": "<product><name>Magellan GPS</name></product>"}

    def test_ingest_document_and_requery(self, writable_server):
        _, base_url = writable_server
        _, before = get_json(f"{base_url}/search?q=gps&page_size=10")
        request = urllib.request.Request(
            f"{base_url}/documents", data=json.dumps(self.NEW_DOC).encode(), method="POST"
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 201
            payload = json.loads(response.read())
        assert payload["action"] == "add"
        assert payload["corpus_version"] == before["corpus_version"] + 1
        _, after = get_json(f"{base_url}/search?q=gps&page_size=10")
        assert after["total"] == before["total"] + 1
        assert "p9" in {item["doc_id"] for item in after["items"]}

    def test_duplicate_ingest_is_409(self, writable_server):
        _, base_url = writable_server
        body = json.dumps(self.NEW_DOC).encode()
        post_raw(f"{base_url}/documents", body)
        code, payload = error_response(lambda: post_raw(f"{base_url}/documents", body))
        assert code == 409
        assert payload["error"]["type"] == "DuplicateDocumentError"
        assert "p9" in payload["error"]["message"]

    def test_unparsable_xml_is_400(self, writable_server):
        _, base_url = writable_server
        body = json.dumps({"doc_id": "bad", "xml": "<broken"}).encode()
        code, payload = error_response(lambda: post_raw(f"{base_url}/documents", body))
        assert code == 400
        assert payload["error"]["type"] == "XMLParseError"

    def test_read_only_service_is_403(self, base_url):
        body = json.dumps(self.NEW_DOC).encode()
        code, payload = error_response(lambda: post_raw(f"{base_url}/documents", body))
        assert code == 403
        assert payload["error"]["type"] == "ReadOnlyServiceError"
        code, _ = error_response(
            lambda: post_raw(f"{base_url}/documents/p1", b"", method="DELETE")
        )
        assert code == 403

    def test_delete_document(self, writable_server):
        _, base_url = writable_server
        status, payload = post_raw(f"{base_url}/documents/p1", None, method="DELETE")
        assert status == 200
        assert payload["action"] == "delete"
        assert payload["documents"] == 1
        code, payload = error_response(
            lambda: post_raw(f"{base_url}/documents/p1", None, method="DELETE")
        )
        assert code == 404
        assert payload["error"]["type"] == "DocumentNotFoundError"

    def test_bulk_ingest_ndjson(self, writable_server):
        _, base_url = writable_server
        lines = [
            json.dumps({"doc_id": "b1", "xml": "<product><name>Bulk GPS one</name></product>"}),
            "",  # blank lines are ignored
            json.dumps({"doc_id": "p1", "xml": "<a/>"}),  # duplicate: per-line error
            json.dumps({"doc_id": "b2", "xml": "<product><name>Bulk GPS two</name></product>"}),
        ]
        status, payload = post_raw(
            f"{base_url}/documents:bulk", "\n".join(lines).encode()
        )
        assert status == 200
        assert payload["ingested"] == 2
        # Error lines are *physical* NDJSON lines: the blank line 2 counts.
        assert [error["line"] for error in payload["errors"]] == [3]
        assert payload["errors"][0]["doc_id"] == "p1"
        _, after = get_json(f"{base_url}/search?q=gps&page_size=10")
        assert {"b1", "b2"} <= {item["doc_id"] for item in after["items"]}

    def test_bulk_framing_error_is_400_naming_the_line(self, writable_server):
        _, base_url = writable_server
        body = b'{"doc_id": "ok", "xml": "<a/>"}\n{"doc_id": broken'
        code, payload = error_response(lambda: post_raw(f"{base_url}/documents:bulk", body))
        assert code == 400
        assert "line 2" in payload["error"]["message"]
        # Framing errors reject the whole batch: nothing was ingested.
        _, feed = get_json(f"{base_url}/documents/updated-since?version=0")
        assert feed["entries"] == []

    def test_change_feed_over_the_wire(self, writable_server):
        _, base_url = writable_server
        post_raw(f"{base_url}/documents", json.dumps(self.NEW_DOC).encode())
        post_raw(f"{base_url}/documents/p2", None, method="DELETE")
        status, feed = get_json(f"{base_url}/documents/updated-since?version=0")
        assert status == 200
        assert feed["complete"] is True
        assert [(entry["doc_id"], entry["action"]) for entry in feed["entries"]] == [
            ("p9", "add"),
            ("p2", "delete"),
        ]
        code, payload = error_response(
            lambda: get_json(f"{base_url}/documents/updated-since")
        )
        assert code == 400
        assert "version" in payload["error"]["message"]

    def test_mutation_invalidates_cursor_with_410(self, writable_server):
        _, base_url = writable_server
        _, first = get_json(f"{base_url}/search?q=gps&page_size=1")
        cursor = urllib.parse.quote(first["next_cursor"])
        post_raw(f"{base_url}/documents", json.dumps(self.NEW_DOC).encode())
        code, payload = error_response(lambda: get_json(f"{base_url}/search?cursor={cursor}"))
        assert code == 410
        assert payload["error"]["type"] == "InvalidCursorError"
        assert "stale" in payload["error"]["message"]

    def test_root_lists_mutation_endpoints(self, base_url):
        _, payload = get_json(f"{base_url}/")
        assert "POST /documents" in payload["endpoints"]
        assert "GET /documents/updated-since" in payload["endpoints"]


NESTED_JSON = b"[" * 100_000
NESTED_XML = "<a>" * 600 + "</a>" * 600
BULK_LINE = json.dumps({"doc_id": "b1", "xml": "<product><name>Bulk GPS</name></product>"})


def ingest_body(doc_id, xml):
    return json.dumps({"doc_id": doc_id, "xml": xml}).encode()


class TestRejectedInput:
    """Nesting past a decoder's recursion depth, and ids that DELETE cannot
    address, are client errors — never a 500 or a stored document."""

    @pytest.mark.parametrize(
        "method, path, body, status, error_type",
        [
            ("POST", "/compare", NESTED_JSON, 400, "ProtocolError"),
            ("POST", "/documents", NESTED_JSON, 400, "ProtocolError"),
            ("POST", "/documents:bulk", NESTED_JSON, 400, "ProtocolError"),
            ("POST", "/documents", ingest_body("deep", NESTED_XML), 400, "XMLParseError"),
            (
                "GET",
                "/search?cursor=" + urlsafe_b64encode(b"[" * 3000).decode(),
                None,
                410,
                "InvalidCursorError",
            ),
            ("POST", "/documents", ingest_body("", "<a>gps</a>"), 400, "ProtocolError"),
        ],
        ids=["compare-json", "ingest-json", "bulk-json", "ingest-xml", "cursor-json", "empty-id"],
    )
    def test_rejected_with_4xx(self, writable_server, method, path, body, status, error_type):
        _, base_url = writable_server
        code, payload = error_response(lambda: post_raw(base_url + path, body, method=method))
        assert code == status
        assert payload["error"]["type"] == error_type

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            (ingest_body("deep", NESTED_XML).decode(), "nests too deeply"),
            (ingest_body("", "<a>gps</a>").decode(), "doc_id"),
        ],
        ids=["nested-xml", "empty-id"],
    )
    def test_bulk_bad_line_is_a_per_line_error(self, writable_server, bad_line, message):
        _, base_url = writable_server
        body = "\n".join([bad_line, BULK_LINE]).encode()
        status, payload = post_raw(f"{base_url}/documents:bulk", body)
        assert status == 200
        assert payload["ingested"] == 1
        assert [error["line"] for error in payload["errors"]] == [1]
        assert message in payload["errors"][0]["error"]
        _, after = get_json(f"{base_url}/search?q=bulk&page_size=10")
        assert [item["doc_id"] for item in after["items"]] == ["b1"]
