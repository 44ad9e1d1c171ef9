"""Ad-hoc structural-index probe backing docs/structure.md.

Run with ``PYTHONPATH=src python benchmarks/structure_probe.py``; not
collected by pytest (no ``test_`` prefix).  On the 1000-movie IMDB corpus it
measures the three claims the structural subsystem makes:

* **containment** — the O(1) pre/post interval test vs the O(depth) Dewey
  prefix comparison, over a fixed sample of node pairs;
* **tag-window scans** — ``descendants_with_tag`` (two binary searches into
  a per-tag occurrence list) vs the Dewey prefix walk over the whole label
  table, from document-root anchors;
* **end-to-end** — cold representative structured queries, and the
  snapshot restore path (structures decoded from the v2 section) vs lazy
  recomputation on first access.
"""

import random
import tempfile
import time
from pathlib import Path

from repro.datasets.imdb import ImdbConfig, generate_imdb_corpus
from repro.search.engine import SearchEngine
from repro.search.structural import StructuredQuery
from repro.storage.corpus import Corpus
from repro.storage.snapshot import save_corpus

STRUCTURED = (
    ("drama war", ("movie",), "descendant", "actor"),
    ("comedy actor", ("movie",), "descendant", "cast"),
    ("thriller director", ("movie",), "child", "title"),
)
PAIR_SAMPLE = 20_000
ROUNDS = 5


def best_of(call, rounds=ROUNDS):
    timings = []
    for _ in range(rounds):
        start = time.perf_counter()
        call()
        timings.append(time.perf_counter() - start)
    return min(timings) * 1000


def main() -> None:
    corpus = generate_imdb_corpus(ImdbConfig(num_movies=1000))
    doc_ids = corpus.store.document_ids()

    def rebuild():
        corpus.structure.clear()
        for doc_id in doc_ids:
            corpus.structure.get(doc_id)

    build_ms = best_of(rebuild, 3)
    stats = corpus.structure.stats()
    elements = sum(len(corpus.structure.get(doc_id)) for doc_id in doc_ids)
    print(
        f"index build: {len(doc_ids)} docs, {elements} elements, "
        f"{stats['tags']} tags in {build_ms:.1f} ms"
    )

    # Containment: sample random node pairs inside the largest document.
    largest = max(doc_ids, key=lambda doc_id: len(corpus.structure.get(doc_id)))
    structure = corpus.structure.get(largest)
    labels = structure.labels
    rng = random.Random(11)
    pairs = [
        (rng.randrange(len(labels)), rng.randrange(len(labels))) for _ in range(PAIR_SAMPLE)
    ]
    interval_ms = best_of(lambda: [structure.is_descendant(a, b) for a, b in pairs])
    dewey_ms = best_of(lambda: [labels[a].is_descendant_of(labels[b]) for a, b in pairs])
    print(
        f"containment ({PAIR_SAMPLE} pairs, {len(labels)}-element doc): "
        f"interval {interval_ms:.1f} ms | dewey prefix {dewey_ms:.1f} ms "
        f"({dewey_ms / interval_ms:.1f}x)"
    )

    # Tag-window scan from every document root vs the prefix walk.
    tag_id = corpus.structure.tags.lookup("actor")

    def window_scan():
        total = 0
        for doc_id in doc_ids:
            total += len(corpus.structure.get(doc_id).descendants_with_tag(0, tag_id))
        return total

    def prefix_walk():
        total = 0
        for doc_id in doc_ids:
            doc_structure = corpus.structure.get(doc_id)
            root = doc_structure.labels[0]
            total += sum(
                1
                for pre, label in enumerate(doc_structure.labels)
                if doc_structure.tag_ids[pre] == tag_id and label.is_descendant_of(root)
            )
        return total

    assert window_scan() == prefix_walk()
    window_ms = best_of(window_scan)
    walk_ms = best_of(prefix_walk)
    print(
        f"descendants_with_tag('actor') from {len(doc_ids)} roots: "
        f"window {window_ms:.1f} ms | prefix walk {walk_ms:.1f} ms "
        f"({walk_ms / window_ms:.1f}x)"
    )

    for text, within, axis, axis_tag in STRUCTURED:
        query = StructuredQuery.from_parts(text, within=within, axis=axis, axis_tag=axis_tag)
        engine = SearchEngine(corpus, semantics="slca_struct", cache_size=0)
        count = len(list(engine.search(query)))
        structured_ms = best_of(
            lambda: SearchEngine(corpus, semantics="slca_struct", cache_size=0).search(query)
        )
        print(
            f"structured {text!r} within={'/'.join(within)} {axis}::{axis_tag}: "
            f"{structured_ms:.1f} ms ({count} results)"
        )

    # Snapshot: restored structures vs lazy recomputation on first access.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "probe.snap"
        save_corpus(corpus, path)

        def restored_access():
            loaded = Corpus.load(path)
            assert loaded.structure.stats()["restored"] == len(doc_ids)
            for doc_id in doc_ids:
                loaded.structure.get(doc_id)

        def lazy_access():
            loaded = Corpus.load(path)
            loaded.structure.clear()
            for doc_id in doc_ids:
                loaded.structure.get(doc_id)

        print(
            f"snapshot structures, {len(doc_ids)} docs: "
            f"restored {best_of(restored_access, 3):.1f} ms | "
            f"recomputed {best_of(lazy_access, 3):.1f} ms (both incl. load)"
        )


if __name__ == "__main__":
    main()
