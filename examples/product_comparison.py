"""Product Reviews scenario: XSACT's DFSs vs frequency snippets (Figures 1 & 2).

Run with::

    python examples/product_comparison.py

For each product query the script prints

* the DoD achieved by eXtract-style per-result snippets (the baseline the
  paper argues is "generally not comparable"), and
* the DoD achieved by XSACT's single-swap and multi-swap DFSs,

then shows the full comparison table for the paper's running query
``{TomTom, GPS}``, including the HTML rendering written next to this script.
"""

from __future__ import annotations

from pathlib import Path

from repro import (
    DFSConfig,
    DFSGenerator,
    FeatureExtractor,
    SearchEngine,
    SearchService,
    generate_product_reviews_corpus,
)
from repro.experiments.report import format_rows
from repro.snippets import snippet_dod
from repro.workloads.queries import PRODUCT_QUERIES


def main() -> None:
    corpus = generate_product_reviews_corpus()
    config = DFSConfig(size_limit=6)
    engine = SearchEngine(corpus)
    extractor = FeatureExtractor(statistics=corpus.statistics)
    generator = DFSGenerator(config)

    rows = []
    for spec in PRODUCT_QUERIES:
        results = engine.search(spec.query(), limit=spec.max_results)
        features = [extractor.extract(result) for result in results]
        if len(features) < 2:
            continue
        rows.append(
            {
                "query": spec.name,
                "text": spec.text,
                "results": len(features),
                "dod_snippets": snippet_dod(features, query=spec.query(), config=config),
                "dod_single_swap": generator.generate(features, algorithm="single_swap").dod,
                "dod_multi_swap": generator.generate(features, algorithm="multi_swap").dod,
            }
        )
    print(format_rows(rows, title="Snippets vs XSACT on the Product Reviews corpus (L=6)"))

    # The Figure 2 walk-through for the paper's running query.
    service = SearchService(corpus, config=config)
    outcome = service.search_and_compare("tomtom gps", top=2, size_limit=6)
    print(f"\nComparison table for {{TomTom, GPS}} (DoD = {outcome.dod}):\n")
    print(outcome.to_text())

    html_path = Path(__file__).with_name("product_comparison.html")
    html_path.write_text(outcome.to_html(), encoding="utf-8")
    print(f"\nHTML comparison table written to {html_path}")


if __name__ == "__main__":
    main()
