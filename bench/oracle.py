"""Corpus snapshot, expected answers and response checks.

The snapshot and the expected answers depend only on the program under test,
not on the run seed, so they are built once per source tree and cached under
``.bench_build/`` in the checkout, keyed by a hash of ``src/`` and of the
benchmark files that decide the corpus and the sample.  The
expected answers come from the library in-process (``SearchService`` over
the same snapshot), so every check compares the served HTTP answer with what
the same code computes without the server in between.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from bench.spec import CORPUS_MOVIES, CORPUS_SEED, PAGE_SIZE, popularity_order

ORACLE_QUERIES = 24
# (popularity rank, top) of the checked comparisons: the Zipf head, where
# compare_topk spends most of its requests.
ORACLE_COMPARES = ((0, 2), (0, 4), (0, 8), (1, 2), (1, 4), (1, 8), (2, 4), (3, 4))
PROBE_QUERY = "drama war"


def compare_key(query: str, top: int) -> str:
    return f"{top}|{query}"


def source_hash(repo: Path) -> str:
    """Hash of the program sources and of the files deciding the sample."""
    digest = hashlib.sha256()
    deciding = [repo / "bench" / "spec.py", repo / "bench" / "oracle.py"]
    for path in sorted([*(repo / "src").rglob("*.py"), *deciding]):
        digest.update(str(path.relative_to(repo)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build_snapshot(path: Path, movies: int = CORPUS_MOVIES) -> None:
    from repro.datasets.imdb import ImdbConfig, generate_imdb_corpus

    generate_imdb_corpus(ImdbConfig(num_movies=movies, seed=CORPUS_SEED)).save(path)


def compute_oracle(
    snapshot: Path, queries: Sequence[str], compares: Sequence[Tuple[str, int]]
) -> Dict[str, Dict[str, object]]:
    """Expected answers of the library, in-process, for the given sample."""
    from repro.service.protocol import CompareRequest, SearchRequest
    from repro.service.service import SearchService
    from repro.storage.corpus import Corpus

    service = SearchService(Corpus.load(snapshot), default_page_size=PAGE_SIZE)
    searches: Dict[str, object] = {}
    for query in queries:
        response = service.search(SearchRequest(query=query))
        searches[query] = {
            "total": response.total,
            "items": [[item.doc_id, item.return_label, item.score] for item in response.items],
        }
    expected_compares: Dict[str, object] = {}
    for query, top in compares:
        outcome = service.compare(CompareRequest(query=query, top=top))
        expected_compares[compare_key(query, top)] = {
            "dod": outcome.dod,
            "column_ids": list(outcome.column_ids),
        }
    return {"searches": searches, "compares": expected_compares}


def oracle_sample() -> Tuple[List[str], List[Tuple[str, int]]]:
    ranked = popularity_order()
    return list(ranked[:ORACLE_QUERIES]), [(ranked[rank], top) for rank, top in ORACLE_COMPARES]


def prepare(repo: Path) -> Tuple[Path, Dict[str, Dict[str, object]]]:
    """The cached (snapshot path, oracle) of this source tree; builds them on first use."""
    directory = repo / ".bench_build" / source_hash(repo)
    snapshot = directory / "imdb.snap"
    oracle_path = directory / "oracle.json"
    if not oracle_path.exists():
        staging = directory.with_name(f"{directory.name}.tmp{os.getpid()}")
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        build_snapshot(staging / "imdb.snap")
        queries, compares = oracle_sample()
        oracle = compute_oracle(staging / "imdb.snap", queries, compares)
        (staging / "oracle.json").write_text(json.dumps(oracle, sort_keys=True), encoding="utf-8")
        try:
            staging.rename(directory)
        except OSError:
            # Another run finished the same build first; use its copy.
            shutil.rmtree(staging, ignore_errors=True)
    return snapshot, json.loads(oracle_path.read_text(encoding="utf-8"))


class Checker:
    """Checks every response against the oracle and the page invariants.

    ``base_version`` is the corpus version of the snapshot: only responses
    computed at that version can be compared with the oracle (a writable
    server moves past it).  ``check_compares`` is off for writable servers,
    whose compare responses carry no version.
    """

    def __init__(
        self,
        oracle: Dict[str, Dict[str, object]],
        base_version: int,
        check_compares: bool,
    ) -> None:
        self.searches = oracle["searches"]
        self.compares = oracle["compares"] if check_compares else {}
        self.base_version = base_version
        self.oracle_hits = 0

    def search(self, query: Optional[str], body: dict) -> Optional[str]:
        """Error message for a bad search page, ``None`` when it is right."""
        items = body.get("items")
        if not isinstance(items, list) or not isinstance(body.get("total"), int):
            return "search response lacks items/total"
        if len(items) > PAGE_SIZE:
            return f"page of {len(items)} items exceeds page size {PAGE_SIZE}"
        scores = [item["score"] for item in items]
        if any(later > earlier for earlier, later in zip(scores, scores[1:])):
            return f"scores not non-increasing: {scores}"
        if body["total"] < body["offset"] + len(items):
            return f"total {body['total']} < offset {body['offset']} + {len(items)} items"
        expected = self.searches.get(query) if query is not None else None
        if expected is None or body["offset"] != 0 or body["corpus_version"] != self.base_version:
            return None
        self.oracle_hits += 1
        got = [[item["doc_id"], item["return_label"], item["score"]] for item in items]
        if body["total"] != expected["total"] or got != expected["items"]:
            return f"oracle mismatch for {query!r}: total {body['total']} != {expected['total']}"
        return None

    def compare(self, query: str, top: int, body: dict) -> Optional[str]:
        columns = body.get("column_ids")
        if not isinstance(body.get("dod"), int) or not isinstance(columns, list):
            return "compare response lacks dod/column_ids"
        if not 2 <= len(columns) <= top:
            return f"compare of top {top} returned {len(columns)} columns"
        expected = self.compares.get(compare_key(query, top))
        if expected is None:
            return None
        self.oracle_hits += 1
        if body["dod"] != expected["dod"] or body["column_ids"] != expected["column_ids"]:
            return f"oracle mismatch for compare {query!r} top {top}"
        return None
