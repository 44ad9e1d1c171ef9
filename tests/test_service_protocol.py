"""Tests for the service-layer JSON protocol codecs.

Two layers of protection:

* **Round-trip property tests** — ``from_dict(to_dict(x)) == x`` for every
  request/response type over hypothesis-generated instances, and the encoded
  form is always ``json.dumps``-able.
* **Golden fixtures** — exact JSON strings for one representative instance of
  every type.  If a field is renamed, added, removed or re-typed, these fail
  and force a deliberate wire-format decision instead of a silent drift.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.service.protocol import (
    BulkIngestError,
    BulkIngestResponse,
    ChangeEntry,
    ChangeFeedResponse,
    CompareCell,
    CompareRequest,
    CompareResponse,
    CompareRow,
    IngestRequest,
    IngestResponse,
    ResultItem,
    SearchRequest,
    SearchResponse,
)

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
text = st.text(max_size=30)
name = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")), min_size=1, max_size=12
)
score = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0, max_value=10**6)

search_requests = st.builds(
    SearchRequest,
    query=text,
    semantics=st.none() | name,
    page_size=st.none() | st.integers(min_value=1, max_value=1000),
    cursor=st.none() | text,
)

result_items = st.builds(
    ResultItem,
    result_id=name,
    doc_id=name,
    title=text,
    score=score,
    match_label=text,
    return_label=text,
    subtree_xml=text,
)

search_responses = st.builds(
    SearchResponse,
    query=text,
    semantics=name,
    total=counts,
    offset=counts,
    items=st.lists(result_items, max_size=4).map(tuple),
    next_cursor=st.none() | text,
    corpus_version=counts,
)

compare_requests = st.builds(
    CompareRequest,
    query=text,
    semantics=name,
    top=st.integers(min_value=0, max_value=50),
    result_ids=st.none() | st.lists(name, max_size=4).map(tuple),
    size_limit=st.none() | st.integers(min_value=1, max_value=50),
    algorithm=st.none() | name,
)

compare_cells = st.builds(
    CompareCell,
    value=st.none() | text,
    occurrences=counts,
    population=counts,
)

compare_rows = st.builds(
    CompareRow,
    feature_type=text,
    differentiating=st.booleans(),
    cells=st.lists(compare_cells, max_size=4).map(tuple),
)

ingest_requests = st.builds(
    IngestRequest,
    doc_id=name,
    xml=text,
    metadata=st.none() | st.dictionaries(name, text, max_size=3),
)

ingest_responses = st.builds(
    IngestResponse,
    doc_id=name,
    action=st.sampled_from(["add", "delete"]),
    corpus_version=counts,
    documents=counts,
)

bulk_ingest_errors = st.builds(
    BulkIngestError,
    line=st.integers(min_value=1, max_value=10**6),
    error=text,
    doc_id=st.none() | name,
)

bulk_ingest_responses = st.builds(
    BulkIngestResponse,
    requested=counts,
    ingested=counts,
    corpus_version=counts,
    documents=counts,
    errors=st.lists(bulk_ingest_errors, max_size=3).map(tuple),
)

change_entries = st.builds(
    ChangeEntry,
    version=counts,
    doc_id=name,
    action=st.sampled_from(["add", "delete"]),
)

change_feed_responses = st.builds(
    ChangeFeedResponse,
    since=counts,
    corpus_version=counts,
    complete=st.booleans(),
    entries=st.lists(change_entries, max_size=4).map(tuple),
)

compare_responses = st.builds(
    CompareResponse,
    query=text,
    semantics=name,
    dod=counts,
    column_ids=st.lists(name, max_size=4).map(tuple),
    column_titles=st.lists(text, max_size=4).map(tuple),
    rows=st.lists(compare_rows, max_size=3).map(tuple),
    results=st.lists(result_items, max_size=3).map(tuple),
)


class TestRoundTrip:
    """``from_dict(to_dict(x)) == x`` and the dict is JSON-native."""

    @given(search_requests)
    def test_search_request(self, request):
        encoded = request.to_dict()
        json.dumps(encoded)
        assert SearchRequest.from_dict(encoded) == request

    @given(result_items)
    def test_result_item(self, item):
        encoded = item.to_dict()
        json.dumps(encoded)
        assert ResultItem.from_dict(encoded) == item

    @given(search_responses)
    def test_search_response(self, response):
        encoded = response.to_dict()
        json.dumps(encoded)
        assert SearchResponse.from_dict(encoded) == response

    @given(compare_requests)
    def test_compare_request(self, request):
        encoded = request.to_dict()
        json.dumps(encoded)
        assert CompareRequest.from_dict(encoded) == request

    @given(compare_cells)
    def test_compare_cell(self, cell):
        encoded = cell.to_dict()
        json.dumps(encoded)
        assert CompareCell.from_dict(encoded) == cell

    @given(compare_rows)
    def test_compare_row(self, row):
        encoded = row.to_dict()
        json.dumps(encoded)
        assert CompareRow.from_dict(encoded) == row

    @given(compare_responses)
    def test_compare_response(self, response):
        encoded = response.to_dict()
        json.dumps(encoded)
        assert CompareResponse.from_dict(encoded) == response

    @given(ingest_requests)
    def test_ingest_request(self, request):
        encoded = request.to_dict()
        json.dumps(encoded)
        assert IngestRequest.from_dict(encoded) == request

    @given(ingest_responses)
    def test_ingest_response(self, response):
        encoded = response.to_dict()
        json.dumps(encoded)
        assert IngestResponse.from_dict(encoded) == response

    @given(bulk_ingest_errors)
    def test_bulk_ingest_error(self, error):
        encoded = error.to_dict()
        json.dumps(encoded)
        assert BulkIngestError.from_dict(encoded) == error

    @given(bulk_ingest_responses)
    def test_bulk_ingest_response(self, response):
        encoded = response.to_dict()
        json.dumps(encoded)
        assert BulkIngestResponse.from_dict(encoded) == response

    @given(change_entries)
    def test_change_entry(self, entry):
        encoded = entry.to_dict()
        json.dumps(encoded)
        assert ChangeEntry.from_dict(encoded) == entry

    @given(change_feed_responses)
    def test_change_feed_response(self, response):
        encoded = response.to_dict()
        json.dumps(encoded)
        assert ChangeFeedResponse.from_dict(encoded) == response

    @given(search_responses)
    def test_through_json_text(self, response):
        # The full wire path: object -> dict -> JSON text -> dict -> object.
        wire = json.dumps(response.to_dict())
        assert SearchResponse.from_dict(json.loads(wire)) == response


# --------------------------------------------------------------------- #
# Golden fixtures: the exact wire format
# --------------------------------------------------------------------- #
GOLDEN_SEARCH_REQUEST = (
    '{"cursor": null, "page_size": 5, "query": "tomtom gps", "semantics": "elca"}'
)

GOLDEN_RESULT_ITEM = (
    '{"doc_id": "product-7", "match_label": "0.2.1", "result_id": "R1", '
    '"return_label": "0.2", "score": 1.25, "subtree_xml": '
    '"<review><pros><compact>yes</compact></pros></review>", '
    '"title": "TomTom Go 630"}'
)

GOLDEN_SEARCH_RESPONSE = (
    '{"corpus_version": 3, "items": [' + GOLDEN_RESULT_ITEM + '], '
    '"next_cursor": "abc123", "offset": 10, "query": "tomtom gps", '
    '"semantics": "slca", "total": 42}'
)

GOLDEN_COMPARE_REQUEST = (
    '{"algorithm": "multi_swap", "query": "tomtom gps", '
    '"result_ids": ["R1", "R3"], "semantics": "slca", "size_limit": 6, "top": 2}'
)

GOLDEN_COMPARE_RESPONSE = (
    '{"column_ids": ["R1", "R3"], "column_titles": ["TomTom Go 630", "Garmin 255W"], '
    '"dod": 7, "query": "tomtom gps", "results": [], "rows": '
    '[{"cells": [{"occurrences": 8, "population": 11, "value": "compact"}, '
    '{"occurrences": 0, "population": 0, "value": null}], '
    '"differentiating": true, "feature_type": "review.pro"}], '
    '"semantics": "slca"}'
)


GOLDEN_INGEST_REQUEST = (
    '{"doc_id": "product-9", "metadata": {"source": "crawler"}, '
    '"xml": "<product><name>TomTom Go 630</name></product>"}'
)

GOLDEN_INGEST_RESPONSE = (
    '{"action": "add", "corpus_version": 4, "doc_id": "product-9", "documents": 7}'
)

GOLDEN_BULK_INGEST_RESPONSE = (
    '{"corpus_version": 6, "documents": 9, "errors": '
    '[{"doc_id": "product-9", "error": "duplicate document id: \'product-9\'", "line": 2}], '
    '"ingested": 2, "requested": 3}'
)

GOLDEN_CHANGE_FEED_RESPONSE = (
    '{"complete": true, "corpus_version": 6, "entries": '
    '[{"action": "add", "doc_id": "product-9", "version": 5}, '
    '{"action": "delete", "doc_id": "product-2", "version": 6}], "since": 4}'
)


def golden_wire(value) -> str:
    return json.dumps(value.to_dict(), sort_keys=True)


class TestGoldenFixtures:
    def test_search_request(self):
        request = SearchRequest(query="tomtom gps", semantics="elca", page_size=5)
        assert golden_wire(request) == GOLDEN_SEARCH_REQUEST
        assert SearchRequest.from_dict(json.loads(GOLDEN_SEARCH_REQUEST)) == request

    def test_result_item(self):
        item = ResultItem(
            result_id="R1",
            doc_id="product-7",
            title="TomTom Go 630",
            score=1.25,
            match_label="0.2.1",
            return_label="0.2",
            subtree_xml="<review><pros><compact>yes</compact></pros></review>",
        )
        assert golden_wire(item) == GOLDEN_RESULT_ITEM
        assert ResultItem.from_dict(json.loads(GOLDEN_RESULT_ITEM)) == item

    def test_search_response(self):
        response = SearchResponse(
            query="tomtom gps",
            semantics="slca",
            total=42,
            offset=10,
            items=(ResultItem.from_dict(json.loads(GOLDEN_RESULT_ITEM)),),
            next_cursor="abc123",
            corpus_version=3,
        )
        assert golden_wire(response) == GOLDEN_SEARCH_RESPONSE
        assert SearchResponse.from_dict(json.loads(GOLDEN_SEARCH_RESPONSE)) == response

    def test_compare_request(self):
        request = CompareRequest(
            query="tomtom gps",
            semantics="slca",
            top=2,
            result_ids=("R1", "R3"),
            size_limit=6,
            algorithm="multi_swap",
        )
        assert golden_wire(request) == GOLDEN_COMPARE_REQUEST
        assert CompareRequest.from_dict(json.loads(GOLDEN_COMPARE_REQUEST)) == request

    def test_compare_response(self):
        response = CompareResponse(
            query="tomtom gps",
            semantics="slca",
            dod=7,
            column_ids=("R1", "R3"),
            column_titles=("TomTom Go 630", "Garmin 255W"),
            rows=(
                CompareRow(
                    feature_type="review.pro",
                    differentiating=True,
                    cells=(
                        CompareCell(value="compact", occurrences=8, population=11),
                        CompareCell(value=None),
                    ),
                ),
            ),
        )
        assert golden_wire(response) == GOLDEN_COMPARE_RESPONSE
        assert CompareResponse.from_dict(json.loads(GOLDEN_COMPARE_RESPONSE)) == response

    def test_ingest_request(self):
        request = IngestRequest(
            doc_id="product-9",
            xml="<product><name>TomTom Go 630</name></product>",
            metadata={"source": "crawler"},
        )
        assert golden_wire(request) == GOLDEN_INGEST_REQUEST
        assert IngestRequest.from_dict(json.loads(GOLDEN_INGEST_REQUEST)) == request

    def test_ingest_request_omits_unset_metadata(self):
        # The two-field form is the common wire shape; metadata must not
        # appear as an explicit null.
        request = IngestRequest(doc_id="product-9", xml="<a/>")
        assert "metadata" not in request.to_dict()

    def test_ingest_response(self):
        response = IngestResponse(
            doc_id="product-9", action="add", corpus_version=4, documents=7
        )
        assert golden_wire(response) == GOLDEN_INGEST_RESPONSE
        assert IngestResponse.from_dict(json.loads(GOLDEN_INGEST_RESPONSE)) == response

    def test_bulk_ingest_response(self):
        response = BulkIngestResponse(
            requested=3,
            ingested=2,
            corpus_version=6,
            documents=9,
            errors=(
                BulkIngestError(
                    line=2,
                    error="duplicate document id: 'product-9'",
                    doc_id="product-9",
                ),
            ),
        )
        assert golden_wire(response) == GOLDEN_BULK_INGEST_RESPONSE
        assert (
            BulkIngestResponse.from_dict(json.loads(GOLDEN_BULK_INGEST_RESPONSE)) == response
        )

    def test_change_feed_response(self):
        response = ChangeFeedResponse(
            since=4,
            corpus_version=6,
            complete=True,
            entries=(
                ChangeEntry(version=5, doc_id="product-9", action="add"),
                ChangeEntry(version=6, doc_id="product-2", action="delete"),
            ),
        )
        assert golden_wire(response) == GOLDEN_CHANGE_FEED_RESPONSE
        assert (
            ChangeFeedResponse.from_dict(json.loads(GOLDEN_CHANGE_FEED_RESPONSE)) == response
        )


# --------------------------------------------------------------------- #
# Malformed input
# --------------------------------------------------------------------- #
class TestValidation:
    def test_non_mapping_rejected(self):
        for decoder in (
            SearchRequest,
            ResultItem,
            SearchResponse,
            CompareRequest,
            CompareCell,
            CompareRow,
            CompareResponse,
            IngestRequest,
            IngestResponse,
            BulkIngestError,
            BulkIngestResponse,
            ChangeEntry,
            ChangeFeedResponse,
        ):
            with pytest.raises(ProtocolError):
                decoder.from_dict(["not", "an", "object"])

    def test_ingest_metadata_must_map_strings_to_strings(self):
        with pytest.raises(ProtocolError, match="strings to strings"):
            IngestRequest.from_dict(
                {"doc_id": "d", "xml": "<a/>", "metadata": {"source": 7}}
            )

    def test_ingest_metadata_must_be_an_object(self):
        with pytest.raises(ProtocolError):
            IngestRequest.from_dict({"doc_id": "d", "xml": "<a/>", "metadata": "crawler"})

    def test_change_feed_complete_must_be_boolean(self):
        with pytest.raises(ProtocolError, match="'complete' must be a boolean"):
            ChangeFeedResponse.from_dict(
                {"since": 0, "corpus_version": 1, "complete": 1, "entries": []}
            )

    def test_change_feed_entries_validated(self):
        with pytest.raises(ProtocolError):
            ChangeFeedResponse.from_dict(
                {
                    "since": 0,
                    "corpus_version": 1,
                    "complete": True,
                    "entries": [{"version": 1}],
                }
            )

    def test_missing_required_field(self):
        with pytest.raises(ProtocolError, match="missing required field 'doc_id'"):
            ResultItem.from_dict(
                {
                    "result_id": "R1",
                    "title": "x",
                    "score": 1.0,
                    "match_label": "0",
                    "return_label": "0",
                    "subtree_xml": "<a/>",
                }
            )

    def test_wrong_type_rejected(self):
        with pytest.raises(ProtocolError, match="'total' must be int"):
            SearchResponse.from_dict(
                {"query": "q", "semantics": "slca", "total": "42", "offset": 0, "items": []}
            )

    def test_bool_does_not_pass_as_int(self):
        with pytest.raises(ProtocolError):
            SearchResponse.from_dict(
                {"query": "q", "semantics": "slca", "total": True, "offset": 0, "items": []}
            )

    def test_int_does_not_pass_as_bool(self):
        with pytest.raises(ProtocolError, match="'differentiating' must be a boolean"):
            CompareRow.from_dict({"feature_type": "a.b", "differentiating": 1, "cells": []})

    def test_nested_item_validated(self):
        with pytest.raises(ProtocolError):
            SearchResponse.from_dict(
                {
                    "query": "q",
                    "semantics": "slca",
                    "total": 1,
                    "offset": 0,
                    "items": [{"result_id": "R1"}],
                }
            )

    def test_string_list_rejects_non_strings(self):
        with pytest.raises(ProtocolError, match="only strings"):
            CompareResponse.from_dict(
                {
                    "query": "q",
                    "semantics": "slca",
                    "dod": 0,
                    "column_ids": ["R1", 2],
                    "column_titles": [],
                    "rows": [],
                    "results": [],
                }
            )

    def test_unknown_keys_ignored(self):
        # Forward compatibility: old clients must survive new response fields.
        request = SearchRequest.from_dict({"query": "gps", "new_field": "ignored"})
        assert request.query == "gps"

    def test_defaults_applied_on_decode(self):
        request = SearchRequest.from_dict({})
        assert request == SearchRequest(query="")
        assert request.semantics is None  # unspecified, resolved by the service
