"""Service layer: the system's public request/response API.

This package fronts the search and comparison cores with a stable, versionable
serving surface — the reproduction of the demo paper's web application tier:

* :mod:`~repro.service.protocol` — typed request/response dataclasses with
  JSON codecs (plain data across the boundary, never live tree nodes);
* :mod:`~repro.service.cursor` — opaque, corpus-version-guarded pagination
  cursors;
* :mod:`~repro.service.service` — the thread-safe :class:`SearchService`
  façade (per-request semantics, batch execution, cache statistics);
* :mod:`~repro.service.http` — the stdlib HTTP JSON front-end behind
  ``repro-xsact serve``.
"""

from repro.service.cursor import Cursor, decode_cursor, encode_cursor
from repro.service.http import XsactHTTPServer, create_server
from repro.service.protocol import (
    CompareCell,
    CompareRequest,
    CompareResponse,
    CompareRow,
    ResultItem,
    SearchRequest,
    SearchResponse,
)
from repro.service.service import SearchService

__all__ = [
    "SearchService",
    # Protocol types
    "SearchRequest",
    "SearchResponse",
    "ResultItem",
    "CompareRequest",
    "CompareResponse",
    "CompareRow",
    "CompareCell",
    # Pagination
    "Cursor",
    "encode_cursor",
    "decode_cursor",
    # HTTP front-end
    "XsactHTTPServer",
    "create_server",
]
