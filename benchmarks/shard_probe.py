"""Ad-hoc sharding probe used to fill the ROADMAP sharding table.

Run with ``PYTHONPATH=src python benchmarks/shard_probe.py``; not collected by
pytest (no ``test_`` prefix).  Measures, on the same 1000-movie IMDB corpus as
``perf_probe.py``:

* sharded build time at 2/4 shards against the monolithic :class:`Corpus`
  build baseline;
* query fan-out latency — cold SLCA/ELCA queries through a 4-shard
  :class:`ShardedSearchEngine` vs a single :class:`SearchEngine`, plus the
  paginated first-page path.
"""

import os
import time

from repro.datasets.imdb import ImdbConfig, generate_imdb_corpus
from repro.search.engine import SearchEngine
from repro.search.sharded_engine import ShardedSearchEngine
from repro.storage.corpus import Corpus
from repro.storage.sharded import ShardedCorpus

QUERIES = ("drama war", "comedy actor", "thriller director actress")


def best_of(call, rounds=5):
    timings = []
    for _ in range(rounds):
        start = time.perf_counter()
        call()
        timings.append(time.perf_counter() - start)
    return min(timings) * 1000


def main() -> None:
    print(f"cpu_count: {os.cpu_count()}")

    source = generate_imdb_corpus(ImdbConfig(num_movies=1000))
    documents = [
        (document.doc_id, document.root, dict(document.metadata))
        for document in source.store
    ]

    print(f"monolithic build 1000: {best_of(lambda: Corpus(source.store), 3):.1f} ms")
    for shard_count in (2, 4):
        elapsed = best_of(lambda: ShardedCorpus.build(documents, shard_count), 3)
        print(f"sharded build 1000, {shard_count} shards: {elapsed:.1f} ms")

    sharded_corpus = ShardedCorpus.build(documents, 4)
    for semantics in ("slca", "elca"):
        single = SearchEngine(source, semantics=semantics, cache_size=0)
        fanout = ShardedSearchEngine(sharded_corpus, semantics=semantics, cache_size=0)
        for query in QUERIES:
            single_ms = best_of(lambda: single.search(query))
            fanout_ms = best_of(lambda: fanout.search(query))
            print(
                f"cold {semantics} {query!r}: single {single_ms:.1f} ms | "
                f"4-shard {fanout_ms:.1f} ms"
            )

    # First-page pagination through the fan-out (the serve hot path).
    engine = ShardedSearchEngine(sharded_corpus, cache_size=0)
    reference = SearchEngine(source, cache_size=0)
    print(
        f"page(0, 10) 'drama war': single "
        f"{best_of(lambda: reference.search_page('drama war', 0, 10)):.1f} ms | "
        f"4-shard {best_of(lambda: engine.search_page('drama war', 0, 10)):.1f} ms"
    )


if __name__ == "__main__":
    main()
