"""Typed request/response protocol of the service layer.

Everything that crosses the service boundary is one of the dataclasses below:
plain data — strings, numbers, booleans, lists — never live
:class:`~repro.xmlmodel.node.XMLNode` graphs or engine internals.  Each type
carries a ``to_dict``/``from_dict`` pair forming the JSON codec; the HTTP
front-end is a thin shell over these codecs, and any other transport (a
message queue, say) can reuse them unchanged.

Codec contract, enforced by property tests:

* ``T.from_dict(x.to_dict()) == x`` for every instance ``x`` of every type;
* ``to_dict`` emits only JSON-native values, so ``json.dumps`` always works;
* ``from_dict`` validates field presence and types and raises
  :class:`~repro.errors.ProtocolError` on malformed input — it never
  constructs a half-valid object;
* unknown keys are ignored on decode, so the wire format can gain fields
  without breaking old clients.

Result subtrees travel as serialised XML strings
(:func:`~repro.xmlmodel.serializer.serialize`); Dewey labels as their dotted
string form.  Both are stable, human-readable and round-trippable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type, Union

from repro.errors import ProtocolError

__all__ = [
    "SearchRequest",
    "ResultItem",
    "SearchResponse",
    "CompareRequest",
    "CompareCell",
    "CompareRow",
    "CompareResponse",
    "IngestRequest",
    "IngestResponse",
    "BulkIngestError",
    "BulkIngestResponse",
    "ChangeEntry",
    "ChangeFeedResponse",
]


# --------------------------------------------------------------------- #
# Decode helpers
# --------------------------------------------------------------------- #
_MISSING = object()


def _get(
    data: Mapping[str, Any],
    name: str,
    types: Union[type, Tuple[type, ...]],
    *,
    where: str,
    default: Any = _MISSING,
) -> Any:
    """Fetch and type-check one field of a decoded mapping.

    ``bool`` is a subclass of ``int`` in Python, so an explicit check keeps
    ``True`` from sneaking into integer fields and vice versa.
    """
    if name not in data:
        if default is _MISSING:
            raise ProtocolError(f"{where}: missing required field {name!r}")
        return default
    value = data[name]
    expected = types if isinstance(types, tuple) else (types,)
    if bool in expected:
        if not isinstance(value, bool):
            raise ProtocolError(
                f"{where}: field {name!r} must be a boolean, got {type(value).__name__}"
            )
        return value
    if isinstance(value, bool) or not isinstance(value, expected):
        names = "/".join(t.__name__ for t in expected)
        raise ProtocolError(
            f"{where}: field {name!r} must be {names}, got {type(value).__name__}"
        )
    return value


def _get_optional(
    data: Mapping[str, Any],
    name: str,
    types: Union[type, Tuple[type, ...]],
    *,
    where: str,
) -> Any:
    """Like :func:`_get` but the field may be absent or ``null``."""
    if data.get(name) is None:
        return None
    return _get(data, name, types, where=where)


def _mapping(data: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise ProtocolError(f"{where}: expected a JSON object, got {type(data).__name__}")
    return data


def _decode_list(data: Mapping[str, Any], name: str, item_type: Type, *, where: str) -> List[Any]:
    raw = _get(data, name, list, where=where)
    return [item_type.from_dict(item) for item in raw]


def _str_mapping(data: Mapping[str, Any], name: str, *, where: str) -> Optional[Dict[str, str]]:
    """Decode an optional string→string object field (document metadata)."""
    raw = data.get(name)
    if raw is None:
        return None
    mapping = _mapping(raw, f"{where}.{name}")
    for key, value in mapping.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise ProtocolError(
                f"{where}: field {name!r} must map strings to strings, got "
                f"{type(key).__name__} -> {type(value).__name__}"
            )
    return dict(mapping)


def _str_list(data: Mapping[str, Any], name: str, *, where: str) -> List[str]:
    raw = _get(data, name, list, where=where)
    for item in raw:
        if not isinstance(item, str):
            raise ProtocolError(
                f"{where}: field {name!r} must contain only strings, "
                f"got {type(item).__name__}"
            )
    return list(raw)


# --------------------------------------------------------------------- #
# Search
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SearchRequest:
    """One paginated search request.

    Attributes
    ----------
    query:
        The raw keyword query string.  May be empty when ``cursor`` is given —
        the cursor already pins the normalised query identity.
    semantics:
        Registered match semantics to evaluate under (per request; the engine
        is no longer frozen to one semantics).  ``None`` means unspecified:
        the service default (``"slca"``) on a fresh search, or whatever the
        cursor pins on a continuation.  Naming a semantics that contradicts
        the cursor is rejected.
    page_size:
        Results per page; ``None`` asks for the service default.
    cursor:
        Opaque continuation token from a previous response's ``next_cursor``;
        ``None`` starts at the first page.
    within:
        Structural tag-path filter: each entry is one tag step, together a
        path suffix (``("movie", "cast")``).  ``None`` means no filter.  Any
        structural constraint turns the request into a
        :class:`~repro.search.structural.StructuredQuery` and the default
        semantics into ``"slca_struct"``.
    axis:
        XPath-style axis step applied to each match: ``"self"``, ``"child"``,
        ``"descendant"`` or ``"ancestor"``; ``None`` means none.
    axis_tag:
        Tag the axis step selects (required by every axis but ``"self"``).

    The structural fields are serialised only when set, so requests without
    them stay byte-identical to the pre-structural wire format.
    """

    query: str = ""
    semantics: Optional[str] = None
    page_size: Optional[int] = None
    cursor: Optional[str] = None
    within: Optional[Tuple[str, ...]] = None
    axis: Optional[str] = None
    axis_tag: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "query": self.query,
            "semantics": self.semantics,
            "page_size": self.page_size,
            "cursor": self.cursor,
        }
        if self.within is not None:
            data["within"] = list(self.within)
        if self.axis is not None:
            data["axis"] = self.axis
        if self.axis_tag is not None:
            data["axis_tag"] = self.axis_tag
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "SearchRequest":
        data = _mapping(data, "SearchRequest")
        within: Optional[Tuple[str, ...]] = None
        if data.get("within") is not None:
            within = tuple(_str_list(data, "within", where="SearchRequest"))
        return cls(
            query=_get(data, "query", str, where="SearchRequest", default=""),
            semantics=_get_optional(data, "semantics", str, where="SearchRequest"),
            page_size=_get_optional(data, "page_size", int, where="SearchRequest"),
            cursor=_get_optional(data, "cursor", str, where="SearchRequest"),
            within=within,
            axis=_get_optional(data, "axis", str, where="SearchRequest"),
            axis_tag=_get_optional(data, "axis_tag", str, where="SearchRequest"),
        )


@dataclass(frozen=True)
class ResultItem:
    """One search result as plain data.

    The service boundary never exposes live tree nodes: the subtree is a
    serialised XML string and the node positions are dotted Dewey labels, so
    a response can be stored, shipped and replayed without holding corpus
    references.
    """

    result_id: str
    doc_id: str
    title: str
    score: float
    match_label: str
    return_label: str
    subtree_xml: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "result_id": self.result_id,
            "doc_id": self.doc_id,
            "title": self.title,
            "score": self.score,
            "match_label": self.match_label,
            "return_label": self.return_label,
            "subtree_xml": self.subtree_xml,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "ResultItem":
        data = _mapping(data, "ResultItem")
        return cls(
            result_id=_get(data, "result_id", str, where="ResultItem"),
            doc_id=_get(data, "doc_id", str, where="ResultItem"),
            title=_get(data, "title", str, where="ResultItem"),
            score=float(_get(data, "score", (int, float), where="ResultItem")),
            match_label=_get(data, "match_label", str, where="ResultItem"),
            return_label=_get(data, "return_label", str, where="ResultItem"),
            subtree_xml=_get(data, "subtree_xml", str, where="ResultItem"),
        )


@dataclass(frozen=True)
class SearchResponse:
    """One page of ranked results.

    Attributes
    ----------
    query:
        The raw query echoed back (reconstructed from the cursor when the
        request carried no query text).
    semantics:
        The semantics the results were computed under.
    total:
        Total ranked results for the query, across all pages.
    offset:
        Zero-based rank of the first item of this page.
    items:
        The page's results, in rank order.
    next_cursor:
        Opaque token for the next page; ``None`` on the last page.
    corpus_version:
        The corpus version the page was computed against.  Cursors are only
        valid within one version — see
        :class:`~repro.errors.InvalidCursorError`.
    """

    query: str
    semantics: str
    total: int
    offset: int
    items: Tuple[ResultItem, ...] = ()
    next_cursor: Optional[str] = None
    corpus_version: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query": self.query,
            "semantics": self.semantics,
            "total": self.total,
            "offset": self.offset,
            "items": [item.to_dict() for item in self.items],
            "next_cursor": self.next_cursor,
            "corpus_version": self.corpus_version,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "SearchResponse":
        data = _mapping(data, "SearchResponse")
        return cls(
            query=_get(data, "query", str, where="SearchResponse"),
            semantics=_get(data, "semantics", str, where="SearchResponse"),
            total=_get(data, "total", int, where="SearchResponse"),
            offset=_get(data, "offset", int, where="SearchResponse"),
            items=tuple(_decode_list(data, "items", ResultItem, where="SearchResponse")),
            next_cursor=_get_optional(data, "next_cursor", str, where="SearchResponse"),
            corpus_version=_get(data, "corpus_version", int, where="SearchResponse", default=0),
        )


# --------------------------------------------------------------------- #
# Ingestion
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class IngestRequest:
    """One document to add to the live corpus.

    Attributes
    ----------
    doc_id:
        Identifier the document will be stored and searchable under; must not
        collide with an existing document (duplicates map to HTTP 409).
    xml:
        The document as serialised XML; parsed on ingest with the library's
        own parser and rejected (HTTP 400) when malformed.
    metadata:
        Optional provenance annotations stored on the document (source URL,
        dataset name, …).

    ``metadata`` makes instances unhashable (it is a plain dict); the codec
    and equality contracts are unaffected.
    """

    doc_id: str
    xml: str
    metadata: Optional[Dict[str, str]] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"doc_id": self.doc_id, "xml": self.xml}
        if self.metadata is not None:
            data["metadata"] = dict(self.metadata)
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "IngestRequest":
        data = _mapping(data, "IngestRequest")
        return cls(
            doc_id=_get(data, "doc_id", str, where="IngestRequest"),
            xml=_get(data, "xml", str, where="IngestRequest"),
            metadata=_str_mapping(data, "metadata", where="IngestRequest"),
        )


@dataclass(frozen=True)
class IngestResponse:
    """Acknowledgement of one applied mutation (add or delete).

    Attributes
    ----------
    doc_id:
        The document the mutation applied to.
    action:
        ``"add"`` or ``"delete"``.
    corpus_version:
        The corpus version the mutation produced.  Every search response and
        cursor issued before this version is now stale; clients resync the
        change feed from their last seen version.
    documents:
        Corpus size after the mutation.
    """

    doc_id: str
    action: str
    corpus_version: int
    documents: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "doc_id": self.doc_id,
            "action": self.action,
            "corpus_version": self.corpus_version,
            "documents": self.documents,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "IngestResponse":
        data = _mapping(data, "IngestResponse")
        return cls(
            doc_id=_get(data, "doc_id", str, where="IngestResponse"),
            action=_get(data, "action", str, where="IngestResponse"),
            corpus_version=_get(data, "corpus_version", int, where="IngestResponse"),
            documents=_get(data, "documents", int, where="IngestResponse"),
        )


@dataclass(frozen=True)
class BulkIngestError:
    """One rejected line of a bulk (NDJSON) ingest.

    ``line`` is 1-based over the request body's non-empty lines; ``doc_id``
    is ``None`` when the line failed before an id could be read.
    """

    line: int
    error: str
    doc_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"line": self.line, "error": self.error, "doc_id": self.doc_id}

    @classmethod
    def from_dict(cls, data: Any) -> "BulkIngestError":
        data = _mapping(data, "BulkIngestError")
        return cls(
            line=_get(data, "line", int, where="BulkIngestError"),
            error=_get(data, "error", str, where="BulkIngestError"),
            doc_id=_get_optional(data, "doc_id", str, where="BulkIngestError"),
        )


@dataclass(frozen=True)
class BulkIngestResponse:
    """Outcome of a bulk ingest: per-line errors, one generation swap.

    All accepted documents become visible atomically — readers observe either
    none of the batch or the whole accepted subset; ``corpus_version`` is the
    version after the swap (unchanged when every line failed).
    """

    requested: int
    ingested: int
    corpus_version: int
    documents: int
    errors: Tuple[BulkIngestError, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requested": self.requested,
            "ingested": self.ingested,
            "corpus_version": self.corpus_version,
            "documents": self.documents,
            "errors": [error.to_dict() for error in self.errors],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "BulkIngestResponse":
        data = _mapping(data, "BulkIngestResponse")
        return cls(
            requested=_get(data, "requested", int, where="BulkIngestResponse"),
            ingested=_get(data, "ingested", int, where="BulkIngestResponse"),
            corpus_version=_get(data, "corpus_version", int, where="BulkIngestResponse"),
            documents=_get(data, "documents", int, where="BulkIngestResponse"),
            errors=tuple(
                _decode_list(data, "errors", BulkIngestError, where="BulkIngestResponse")
            ),
        )


@dataclass(frozen=True)
class ChangeEntry:
    """One mutation in the change feed: what happened at which version."""

    version: int
    doc_id: str
    action: str

    def to_dict(self) -> Dict[str, Any]:
        return {"version": self.version, "doc_id": self.doc_id, "action": self.action}

    @classmethod
    def from_dict(cls, data: Any) -> "ChangeEntry":
        data = _mapping(data, "ChangeEntry")
        return cls(
            version=_get(data, "version", int, where="ChangeEntry"),
            doc_id=_get(data, "doc_id", str, where="ChangeEntry"),
            action=_get(data, "action", str, where="ChangeEntry"),
        )


@dataclass(frozen=True)
class ChangeFeedResponse:
    """Mutations after a client's last seen version (replica sync protocol).

    Attributes
    ----------
    since:
        The version the client asked about, echoed back.
    corpus_version:
        The server's current version; equal to ``since`` means up to date.
    complete:
        Whether ``entries`` covers *every* mutation after ``since``.  The
        in-memory feed starts at service boot and is bounded, so a client
        whose ``since`` predates the feed's horizon gets ``False`` and must
        resync in full instead of applying the (gapped) entries.
    entries:
        The known mutations with ``version > since``, oldest first.
    """

    since: int
    corpus_version: int
    complete: bool
    entries: Tuple[ChangeEntry, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "since": self.since,
            "corpus_version": self.corpus_version,
            "complete": self.complete,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "ChangeFeedResponse":
        data = _mapping(data, "ChangeFeedResponse")
        return cls(
            since=_get(data, "since", int, where="ChangeFeedResponse"),
            corpus_version=_get(data, "corpus_version", int, where="ChangeFeedResponse"),
            complete=_get(data, "complete", bool, where="ChangeFeedResponse"),
            entries=tuple(
                _decode_list(data, "entries", ChangeEntry, where="ChangeFeedResponse")
            ),
        )


# --------------------------------------------------------------------- #
# Compare
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class CompareRequest:
    """One comparison request: search, select, differentiate.

    Attributes
    ----------
    query:
        The keyword query whose results are compared.
    semantics:
        Match semantics for the search stage.
    top:
        Compare the top-``top`` ranked results (the demo's default of ticking
        the first checkboxes).  Ignored when ``result_ids`` is given.
    result_ids:
        Explicit result ids to compare (the checkbox selection), as returned
        in :attr:`ResultItem.result_id` for the same query and semantics.
    size_limit:
        Optional DFS size bound ``L`` override.
    algorithm:
        Optional DFS construction algorithm override.
    """

    query: str
    semantics: str = "slca"
    top: int = 2
    result_ids: Optional[Tuple[str, ...]] = None
    size_limit: Optional[int] = None
    algorithm: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query": self.query,
            "semantics": self.semantics,
            "top": self.top,
            "result_ids": list(self.result_ids) if self.result_ids is not None else None,
            "size_limit": self.size_limit,
            "algorithm": self.algorithm,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "CompareRequest":
        data = _mapping(data, "CompareRequest")
        result_ids: Optional[Tuple[str, ...]] = None
        if data.get("result_ids") is not None:
            result_ids = tuple(_str_list(data, "result_ids", where="CompareRequest"))
        return cls(
            query=_get(data, "query", str, where="CompareRequest"),
            semantics=_get(data, "semantics", str, where="CompareRequest", default="slca"),
            top=_get(data, "top", int, where="CompareRequest", default=2),
            result_ids=result_ids,
            size_limit=_get_optional(data, "size_limit", int, where="CompareRequest"),
            algorithm=_get_optional(data, "algorithm", str, where="CompareRequest"),
        )


@dataclass(frozen=True)
class CompareCell:
    """One cell of the comparison table: a value with occurrence statistics.

    ``value is None`` means the column's DFS has no feature of the row's type
    (rendered as "—" by the UI layers).
    """

    value: Optional[str] = None
    occurrences: int = 0
    population: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "value": self.value,
            "occurrences": self.occurrences,
            "population": self.population,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "CompareCell":
        data = _mapping(data, "CompareCell")
        return cls(
            value=_get_optional(data, "value", str, where="CompareCell"),
            occurrences=_get(data, "occurrences", int, where="CompareCell", default=0),
            population=_get(data, "population", int, where="CompareCell", default=0),
        )


@dataclass(frozen=True)
class CompareRow:
    """One row of the comparison table: a feature type across all columns."""

    feature_type: str
    differentiating: bool
    cells: Tuple[CompareCell, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "feature_type": self.feature_type,
            "differentiating": self.differentiating,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "CompareRow":
        data = _mapping(data, "CompareRow")
        return cls(
            feature_type=_get(data, "feature_type", str, where="CompareRow"),
            differentiating=_get(data, "differentiating", bool, where="CompareRow"),
            cells=tuple(_decode_list(data, "cells", CompareCell, where="CompareRow")),
        )


@dataclass(frozen=True)
class CompareResponse:
    """The comparison table as plain data, plus the compared results."""

    query: str
    semantics: str
    dod: int
    column_ids: Tuple[str, ...] = ()
    column_titles: Tuple[str, ...] = ()
    rows: Tuple[CompareRow, ...] = ()
    results: Tuple[ResultItem, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query": self.query,
            "semantics": self.semantics,
            "dod": self.dod,
            "column_ids": list(self.column_ids),
            "column_titles": list(self.column_titles),
            "rows": [row.to_dict() for row in self.rows],
            "results": [item.to_dict() for item in self.results],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "CompareResponse":
        data = _mapping(data, "CompareResponse")
        return cls(
            query=_get(data, "query", str, where="CompareResponse"),
            semantics=_get(data, "semantics", str, where="CompareResponse"),
            dod=_get(data, "dod", int, where="CompareResponse"),
            column_ids=tuple(_str_list(data, "column_ids", where="CompareResponse")),
            column_titles=tuple(_str_list(data, "column_titles", where="CompareResponse")),
            rows=tuple(_decode_list(data, "rows", CompareRow, where="CompareResponse")),
            results=tuple(_decode_list(data, "results", ResultItem, where="CompareResponse")),
        )
