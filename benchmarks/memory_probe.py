"""Cold-start and memory probe: eager vs lazy snapshot loads.

Run with ``PYTHONPATH=src python benchmarks/memory_probe.py``; not collected
by pytest (no ``test_`` prefix).  Fills the cold-start/RSS table in
``docs/benchmarks.md``.

The parent process generates one IMDB corpus, saves it plain and with
per-record compression, then measures each load scenario in a **fresh
subprocess**: peak RSS (``resource.getrusage(RUSAGE_SELF).ru_maxrss``) is
monotonic per process, so eager and lazy loads can only be compared across
process boundaries.  Each child reports, as JSON on stdout:

* ``load_ms`` — ``Corpus.load`` wall time (the head-only read for lazy loads),
* ``first_query_ms`` — one cold ``SearchEngine.search("drama war")``,
* ``peak_rss_kb`` — process peak resident set after load + first query,
* ``store`` — the store's ``stats()`` (backend and, for lazy, the
  decode/eviction/materialisation counters).

The verdict line reads straight off the table: the lazy
``load_ms + first_query_ms`` must be at most half of the eager ``load_ms``.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
QUERY = "drama war"


def child(snapshot: str, eager: bool, max_materialised) -> None:
    """Load one snapshot, run one query, report the process's own costs."""
    from repro.search.engine import SearchEngine
    from repro.storage.corpus import Corpus

    start = time.perf_counter()
    corpus = Corpus.load(snapshot, eager=eager, max_materialised=max_materialised)
    load_ms = (time.perf_counter() - start) * 1000

    start = time.perf_counter()
    results = SearchEngine(corpus, cache_size=0).search(QUERY)
    first_query_ms = (time.perf_counter() - start) * 1000

    print(
        json.dumps(
            {
                "load_ms": round(load_ms, 2),
                "first_query_ms": round(first_query_ms, 2),
                "results": len(results),
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "store": corpus.store.stats(),
            }
        )
    )


def run_scenario(label: str, snapshot: Path, *, eager: bool = False, max_materialised=None):
    command = [
        sys.executable,
        __file__,
        "--child",
        str(snapshot),
    ]
    if eager:
        command.append("--eager")
    if max_materialised is not None:
        command.extend(["--max-materialised", str(max_materialised)])
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    completed = subprocess.run(
        command, capture_output=True, text=True, env=env, check=True
    )
    report = json.loads(completed.stdout)
    return label, report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--movies", type=int, default=1000, help="IMDB corpus size")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--eager", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--max-materialised", type=int, default=None, help=argparse.SUPPRESS)
    arguments = parser.parse_args()

    if arguments.child:
        child(arguments.child, arguments.eager, arguments.max_materialised)
        return

    from repro.datasets.imdb import ImdbConfig, generate_imdb_corpus

    print(f"generating IMDB corpus ({arguments.movies} movies)...")
    corpus = generate_imdb_corpus(ImdbConfig(num_movies=arguments.movies))

    with tempfile.TemporaryDirectory() as scratch:
        plain = Path(scratch) / "imdb.snap"
        compressed = Path(scratch) / "imdb_z.snap"
        corpus.save(plain)
        corpus.save(compressed, compress=True)
        for path in (plain, compressed):
            print(f"  {path.name}: {path.stat().st_size / 1e6:.2f} MB")

        rows = [
            run_scenario("eager", plain, eager=True),
            run_scenario("lazy (default LRU)", plain),
            run_scenario("lazy (LRU=32)", plain, max_materialised=32),
            run_scenario("lazy compressed", compressed),
        ]

    header = f"{'scenario':<22} {'load ms':>9} {'query ms':>9} {'ready ms':>9} {'peak RSS MB':>12}  store"
    print()
    print(header)
    print("-" * len(header))
    for label, report in rows:
        store = report["store"]
        if store["backend"] == "lazy":
            detail = (
                f"lazy: {store['decodes']} decode(s), "
                f"{store['materialised']} materialised, {store['evictions']} evicted"
            )
        else:
            detail = "eager"
        ready = report["load_ms"] + report["first_query_ms"]
        print(
            f"{label:<22} {report['load_ms']:>9.1f} {report['first_query_ms']:>9.1f} "
            f"{ready:>9.1f} {report['peak_rss_kb'] / 1024:>12.1f}  {detail}"
        )

    eager_load = dict(rows)["eager"]["load_ms"]
    lazy = dict(rows)["lazy (default LRU)"]
    ready = lazy["load_ms"] + lazy["first_query_ms"]
    verdict = "PASS" if ready <= eager_load * 0.5 else "FAIL"
    print()
    print(
        f"first-query-ready (lazy) {ready:.1f} ms vs eager load {eager_load:.1f} ms "
        f"-> {ready / eager_load * 100:.0f}% ({verdict}: target <= 50%)"
    )


if __name__ == "__main__":
    main()
