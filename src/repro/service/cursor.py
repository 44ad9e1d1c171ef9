"""Opaque, self-describing pagination cursors.

A cursor pins everything needed to serve "the next page of *that* result
list" without the client re-sending (or even knowing) the service's internal
state:

* the **normalised query identity** — the engine cache key
  (:attr:`~repro.search.query.KeywordQuery.cache_key`), so the continuation
  targets exactly the ranked list the first page came from and the follow-up
  request is a guaranteed cache hit while the entry lives;
* the **semantics** the list was computed under, together with its
  registration *generation* — re-registering a custom semantics
  (``register_semantics(..., replace=True)``) changes what the name computes,
  so a cursor that straddles the swap is rejected like a stale corpus
  version instead of re-slicing a different ranked list;
* the **offset** of the next page;
* the **page size** the walk was started with, so a cursor-only continuation
  keeps the caller's page boundaries instead of silently reverting to the
  service default (an explicit ``page_size`` on the follow-up still wins);
* the **corpus version** the list was computed against.  Ranked positions
  are only stable within one version, so a cursor that survives a corpus
  mutation is rejected with :class:`~repro.errors.InvalidCursorError` instead
  of silently skipping or repeating results.

The encoding is URL-safe base64 over compact JSON.  It is *opaque, not
secret*: clients must treat it as a token, and the decoder treats it as
untrusted input — anything that does not decode to exactly the expected
shape raises :class:`~repro.errors.InvalidCursorError`.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import InvalidCursorError

__all__ = ["Cursor", "encode_cursor", "decode_cursor"]

_CURSOR_VERSION = 1


@dataclass(frozen=True)
class Cursor:
    """The decoded contents of a pagination cursor.

    ``within``/``axis``/``axis_tag`` carry the structural constraints of a
    :class:`~repro.search.structural.StructuredQuery` walk; they are encoded
    only when set, so cursors for plain keyword walks are byte-identical to
    the pre-structural format (old tokens keep decoding, and old clients
    never see unfamiliar keys unless they issue structured queries).
    """

    keywords: Tuple[str, ...]
    semantics: str
    offset: int
    corpus_version: int
    page_size: int
    semantics_generation: int = 0
    within: Tuple[str, ...] = ()
    axis: Optional[str] = None
    axis_tag: Optional[str] = None

    def encode(self) -> str:
        """Serialise to the opaque wire token."""
        data: Dict[str, Any] = {
            "v": _CURSOR_VERSION,
            "k": list(self.keywords),
            "s": self.semantics,
            "o": self.offset,
            "cv": self.corpus_version,
            "ps": self.page_size,
            "sg": self.semantics_generation,
        }
        if self.within:
            data["w"] = list(self.within)
        if self.axis is not None:
            data["a"] = self.axis
        if self.axis_tag is not None:
            data["at"] = self.axis_tag
        payload = json.dumps(data, separators=(",", ":"))
        return base64.urlsafe_b64encode(payload.encode("utf-8")).decode("ascii")


def encode_cursor(
    keywords: Tuple[str, ...],
    semantics: str,
    offset: int,
    corpus_version: int,
    page_size: int,
    semantics_generation: int = 0,
    *,
    within: Tuple[str, ...] = (),
    axis: Optional[str] = None,
    axis_tag: Optional[str] = None,
) -> str:
    """Build and encode a cursor in one call."""
    return Cursor(
        keywords=tuple(keywords),
        semantics=semantics,
        offset=offset,
        corpus_version=corpus_version,
        page_size=page_size,
        semantics_generation=semantics_generation,
        within=tuple(within),
        axis=axis,
        axis_tag=axis_tag,
    ).encode()


def decode_cursor(token: str) -> Cursor:
    """Decode an opaque cursor token.

    Raises
    ------
    InvalidCursorError
        If the token is not valid base64/JSON, was produced by a different
        cursor format version, or any field has the wrong shape.  Staleness
        (corpus-version mismatch) is *not* checked here — only the service
        knows the live corpus version.
    """
    try:
        payload = base64.urlsafe_b64decode(token.encode("ascii"))
        data = json.loads(payload.decode("utf-8"))
    except (ValueError, binascii.Error, UnicodeError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the decoder can recurse.
        raise InvalidCursorError(f"undecodable cursor: {token!r}") from exc
    if not isinstance(data, dict) or data.get("v") != _CURSOR_VERSION:
        raise InvalidCursorError(f"unsupported cursor format: {token!r}")
    keywords = data.get("k")
    semantics = data.get("s")
    offset = data.get("o")
    corpus_version = data.get("cv")
    page_size = data.get("ps")
    generation = data.get("sg")
    within = data.get("w", [])
    axis = data.get("a")
    axis_tag = data.get("at")
    if (
        not isinstance(within, list)
        or not all(isinstance(step, str) and step for step in within)
        or not (axis is None or isinstance(axis, str))
        or not (axis_tag is None or isinstance(axis_tag, str))
    ):
        raise InvalidCursorError(f"malformed cursor payload: {token!r}")
    if (
        not isinstance(keywords, list)
        or not keywords
        or not all(isinstance(keyword, str) for keyword in keywords)
        or not isinstance(semantics, str)
        or isinstance(offset, bool)
        or not isinstance(offset, int)
        or offset < 0
        or isinstance(corpus_version, bool)
        or not isinstance(corpus_version, int)
        or isinstance(page_size, bool)
        or not isinstance(page_size, int)
        or page_size <= 0
        or isinstance(generation, bool)
        or not isinstance(generation, int)
        or generation < 0
    ):
        raise InvalidCursorError(f"malformed cursor payload: {token!r}")
    return Cursor(
        keywords=tuple(keywords),
        semantics=semantics,
        offset=offset,
        corpus_version=corpus_version,
        page_size=page_size,
        semantics_generation=generation,
        within=tuple(within),
        axis=axis,
        axis_tag=axis_tag,
    )
