"""Command-line interface for the XSACT reproduction.

The demo system is a web application; this CLI offers the equivalent
interactions from a terminal so the system can be exercised without writing
Python:

* ``repro-xsact search``  — run a keyword query against one of the synthetic
  corpora and list the ranked results (the demo's result page).
* ``repro-xsact compare`` — run a query and build the comparison table for the
  top-N results (the demo's "comparison" button), optionally writing HTML.
* ``repro-xsact serve``   — start the HTTP JSON front-end (the demo's web
  application itself): ``GET /search`` with cursor pagination,
  ``POST /compare``, ``GET /healthz``, ``GET /stats``.
* ``repro-xsact figure4`` — regenerate the Figure 4 experiment table.
* ``repro-xsact save-snapshot`` — persist a corpus as one binary snapshot
  file, so later invocations cold-start with ``--snapshot`` in a fraction of
  the parse-and-index time.
* ``repro-xsact lint`` — run the project's static-analysis battery
  (:mod:`repro.analysis`) over the source tree; the CI gate runs exactly
  this command.

Every command that reads a corpus accepts exactly one of three sources: a
generated ``--dataset``, a ``--corpus-dir`` of ``.xml`` files, or a
``--snapshot`` file written by ``save-snapshot``.  The sources are mutually
exclusive — naming two explicitly is an argument error (``--dataset
products`` with no explicit source remains the default).

All corpus-reading commands go through the service layer
(:class:`~repro.service.service.SearchService`), the same entry point the
HTTP front-end uses.

Examples
--------
::

    python -m repro.cli search --dataset products --query "tomtom gps"
    python -m repro.cli compare --dataset products --query "tomtom gps" --top 2 --size-limit 6
    python -m repro.cli figure4
    python -m repro.cli save-snapshot --dataset imdb --output imdb.snap
    python -m repro.cli search --snapshot imdb.snap --query "drama war"
    python -m repro.cli serve --snapshot imdb.snap --port 8080
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import Callable, Dict, Optional, Sequence

from repro.analysis.runner import add_lint_arguments, run_lint
from repro.core.config import DFSConfig
from repro.datasets.imdb import generate_imdb_corpus
from repro.datasets.outdoor_retailer import generate_outdoor_corpus
from repro.datasets.product_reviews import generate_product_reviews_corpus
from repro.errors import ReproError
from repro.experiments.figure4 import run_figure4
from repro.experiments.report import format_measurements
from repro.search.structural import AXES, StructuredQuery, parse_tag_path
from repro.service.http import create_server
from repro.service.service import SearchService
from repro.storage.corpus import Corpus

__all__ = ["build_parser", "main"]

_DATASETS: Dict[str, Callable[[], Corpus]] = {
    "products": generate_product_reviews_corpus,
    "outdoor": generate_outdoor_corpus,
    "imdb": generate_imdb_corpus,
}

_DEFAULT_DATASET = "products"


def _non_negative_int(text: str) -> int:
    """Argparse type for counts: rejects negatives with a clear message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive_int(text: str) -> int:
    """Argparse type for sizes that must be at least one."""
    value = _non_negative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be positive, got 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-xsact",
        description="XSACT (VLDB 2010) reproduction: compare structured search results.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    search = subparsers.add_parser("search", help="run a keyword query and list results")
    _add_corpus_arguments(search)
    search.add_argument("--query", required=True, help="keyword query, e.g. 'tomtom gps'")
    search.add_argument(
        "--semantics",
        default=None,
        help="match semantics: slca, elca or slca_struct "
        "(default: slca, or slca_struct when a structural constraint is given)",
    )
    search.add_argument(
        "--limit",
        type=_non_negative_int,
        default=None,
        help="maximum number of results to list",
    )
    search.add_argument(
        "--within",
        action="append",
        default=None,
        metavar="TAG[/TAG...]",
        help="structural filter: re-anchor matches to their innermost enclosing "
        "element whose tag path ends with this path (repeatable; repeats extend "
        "the path)",
    )
    search.add_argument(
        "--axis",
        default=None,
        choices=list(AXES),
        help="axis step applied to each match (use with --axis-tag)",
    )
    search.add_argument(
        "--axis-tag",
        default=None,
        metavar="TAG",
        help="tag the axis step selects, e.g. --axis descendant --axis-tag review",
    )

    compare = subparsers.add_parser("compare", help="compare the top results of a query")
    _add_corpus_arguments(compare)
    compare.add_argument("--query", required=True, help="keyword query, e.g. 'tomtom gps'")
    compare.add_argument(
        "--semantics",
        default="slca",
        help="match semantics: slca (default), elca or slca_struct",
    )
    compare.add_argument(
        "--top", type=_non_negative_int, default=2, help="number of top results to compare"
    )
    compare.add_argument("--size-limit", type=int, default=5, help="DFS size bound L")
    compare.add_argument(
        "--algorithm",
        default="multi_swap",
        choices=["top_significance", "random", "greedy", "single_swap", "multi_swap"],
        help="DFS construction algorithm",
    )
    compare.add_argument(
        "--format",
        default="text",
        choices=["text", "markdown", "html"],
        help="output format of the comparison table",
    )
    compare.add_argument("--output", default=None, help="write the table to this file instead of stdout")

    serve = subparsers.add_parser(
        "serve", help="start the HTTP JSON front-end over a corpus"
    )
    _add_corpus_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1", help="address to bind (default: 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=_non_negative_int,
        default=8080,
        help="port to bind; 0 picks a free port (default: 8080)",
    )
    serve.add_argument(
        "--page-size",
        type=_positive_int,
        default=10,
        help="default /search page size (default: 10)",
    )
    serve.add_argument(
        "--writable",
        action="store_true",
        help="enable the mutation endpoints (POST/DELETE /documents); "
        "read-only services answer them with 403",
    )
    serve.add_argument(
        "--snapshot-every",
        type=_positive_int,
        default=None,
        help="with --writable: re-snapshot the corpus in the background after every "
        "N applied mutations (requires --snapshot-path or --snapshot)",
    )
    serve.add_argument(
        "--snapshot-path",
        default=None,
        help="file the background re-snapshot writes to "
        "(default: the --snapshot file the corpus was loaded from)",
    )

    figure4 = subparsers.add_parser("figure4", help="regenerate the Figure 4 experiment")
    figure4.add_argument("--size-limit", type=int, default=5, help="DFS size bound L")

    save_snapshot = subparsers.add_parser(
        "save-snapshot",
        help="persist a corpus as one binary snapshot file for fast cold start",
    )
    _add_corpus_arguments(save_snapshot)
    save_snapshot.add_argument(
        "--output", required=True, help="path of the snapshot file to write"
    )
    save_snapshot.add_argument(
        "--compress",
        action="store_true",
        help="zlib-compress individual document records",
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the project static-analysis battery (see docs/analysis.md)",
    )
    add_lint_arguments(lint)
    return parser


def _add_corpus_arguments(parser: argparse.ArgumentParser) -> None:
    # All three corpus sources live in one mutually exclusive group, so an
    # explicit `--dataset imdb --snapshot x.snap` is an argument error
    # instead of the dataset flag being silently ignored.  argparse only
    # flags *explicitly supplied* group members as conflicts, so the
    # `--dataset` default keeps working when another source is chosen.
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--dataset",
        default=_DEFAULT_DATASET,
        choices=sorted(_DATASETS),
        help="synthetic corpus to search (default: products)",
    )
    source.add_argument(
        "--corpus-dir",
        default=None,
        help="load a corpus from a directory of .xml files instead of generating one",
    )
    source.add_argument(
        "--snapshot",
        default=None,
        help="load a corpus from a binary snapshot file (see the save-snapshot "
        "command); documents are decoded lazily on first access",
    )
    # Outside the exclusive group: it tunes --snapshot rather than competing
    # with it, and is simply ignored for the other sources, whose documents
    # are all resident.
    parser.add_argument(
        "--max-materialised",
        type=_non_negative_int,
        default=None,
        help="with --snapshot: LRU bound on concurrently decoded documents "
        "(0 disables eviction; default 1024)",
    )


def _load_corpus(arguments: argparse.Namespace) -> Corpus:
    if arguments.snapshot:
        return Corpus.load(arguments.snapshot, max_materialised=arguments.max_materialised)
    if arguments.corpus_dir:
        return Corpus.from_directory(arguments.corpus_dir)
    return _DATASETS[arguments.dataset]()


def _command_search(arguments: argparse.Namespace, out) -> int:
    service = SearchService(_load_corpus(arguments))
    within: tuple = ()
    if arguments.within:
        within = tuple(
            step for part in arguments.within for step in parse_tag_path(part)
        )
    constrained = bool(within) or arguments.axis is not None
    if constrained:
        query: "str | StructuredQuery" = StructuredQuery.from_parts(
            arguments.query,
            within=within,
            axis=arguments.axis,
            axis_tag=arguments.axis_tag,
        )
    else:
        if arguments.axis_tag is not None:
            raise ReproError("--axis-tag requires --axis")
        query = arguments.query
    semantics = arguments.semantics
    if semantics is None:
        # Same default rule as the HTTP front-end: structural constraints
        # need the structure-aware semantics.
        semantics = "slca_struct" if constrained else "slca"
    result_set = service.search_results(query, semantics=semantics, limit=arguments.limit)
    print(
        f'{len(result_set)} result(s) for query "{arguments.query}" '
        f"on corpus {service.corpus.name!r} under {semantics}:",
        file=out,
    )
    for result in result_set:
        print(f"  [{result.result_id}] {result.title}  (doc={result.doc_id}, score={result.score:.3f})", file=out)
    return 0


def _command_compare(arguments: argparse.Namespace, out) -> int:
    config = DFSConfig(size_limit=arguments.size_limit)
    service = SearchService(_load_corpus(arguments), config=config, algorithm=arguments.algorithm)
    outcome = service.search_and_compare(
        arguments.query,
        top=arguments.top,
        size_limit=arguments.size_limit,
        semantics=arguments.semantics,
    )
    if arguments.format == "markdown":
        rendered = outcome.to_markdown()
    elif arguments.format == "html":
        rendered = outcome.to_html()
    else:
        rendered = outcome.to_text()
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
            handle.write("\n")
        print(f"comparison table (DoD={outcome.dod}) written to {arguments.output}", file=out)
    else:
        print(rendered, file=out)
    return 0


def _command_serve(arguments: argparse.Namespace, out) -> int:
    corpus = _load_corpus(arguments)
    snapshot_path = arguments.snapshot_path or arguments.snapshot
    if arguments.snapshot_every is not None and not arguments.writable:
        print("error: --snapshot-every needs --writable", file=out, flush=True)
        return 2
    if arguments.snapshot_every is not None and snapshot_path is None:
        print(
            "error: --snapshot-every needs --snapshot-path (or a --snapshot to reuse)",
            file=out,
            flush=True,
        )
        return 2
    service = SearchService(
        corpus,
        default_page_size=arguments.page_size,
        writable=arguments.writable,
        snapshot_path=snapshot_path if arguments.snapshot_every is not None else None,
        snapshot_every=arguments.snapshot_every,
    )
    server = create_server(service, host=arguments.host, port=arguments.port, out=out)
    host, port = server.server_address[:2]
    backend = corpus.store.stats()["backend"]
    mode = "writable" if arguments.writable else "read-only"
    print(
        f"serving corpus {corpus.name!r} ({len(corpus.store)} documents, {backend} store, "
        f"{mode}) on http://{host}:{port} — GET /search, POST /compare, "
        f"POST /documents, GET /healthz, GET /stats",
        file=out,
        flush=True,
    )
    # Service managers stop a server with SIGTERM: take the Ctrl-C path, so
    # the shutdown below runs for it too.
    previous_handler = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous_handler)
        server.server_close()
        # Mutations already answered 201 must reach the snapshot being
        # written; its thread is a daemon and would die with the process.
        service.wait_for_snapshot()
        stats = service.stats()
        cache = stats["cache"]
        requests = stats["requests"]
        print(
            f"served {requests['search']} search / {requests['compare']} compare "
            f"request(s); cache: {cache['hits']} hit(s), {cache['misses']} miss(es), "
            f"{cache['entries']} entr(ies) holding {cache['cached_results']} result(s)",
            file=out,
            flush=True,
        )
    return 0


def _command_figure4(arguments: argparse.Namespace, out) -> int:
    rows = run_figure4(config=DFSConfig(size_limit=arguments.size_limit))
    print(format_measurements(rows, title="Figure 4: DoD and construction time per query"), file=out)
    return 0


def _command_save_snapshot(arguments: argparse.Namespace, out) -> int:
    corpus = _load_corpus(arguments)
    written = corpus.save(arguments.output, compress=arguments.compress)
    print(
        f"snapshot of corpus {corpus.name!r} ({len(corpus.store)} documents, "
        f"{written.stat().st_size} bytes) written to {written}",
        file=out,
    )
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    arguments = parser.parse_args(argv)
    handlers = {
        "search": _command_search,
        "compare": _command_compare,
        "serve": _command_serve,
        "figure4": _command_figure4,
        "save-snapshot": _command_save_snapshot,
        "lint": run_lint,
    }
    try:
        return handlers[arguments.command](arguments, out)
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
