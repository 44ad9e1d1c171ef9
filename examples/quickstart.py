"""Quickstart: search a structured corpus and compare two results with XSACT.

Run with::

    python examples/quickstart.py

The script generates the synthetic Product Reviews corpus (the stand-in for the
paper's buzzillions.com dataset), issues the paper's running query
``{TomTom, GPS}``, and prints the list of results followed by the comparison
table of the top two — the programmatic equivalent of the demo's web UI flow.
"""

from __future__ import annotations

from repro import DFSConfig, SearchService, generate_product_reviews_corpus


def main() -> None:
    corpus = generate_product_reviews_corpus()
    print(f"Corpus: {corpus.name} — {corpus.describe()}")

    service = SearchService(corpus, config=DFSConfig(size_limit=6))

    # Step 1: keyword search (the "Search Engine" box of the architecture).
    result_set = service.search_results("tomtom gps")
    print(f'\nResults for query "{result_set.query}":')
    for result in result_set:
        print(f"  [{result.result_id}] {result.title}  (score {result.score:.3f})")

    if len(result_set) < 2:
        print("Need at least two results to compare; try a broader query such as 'gps'.")
        return

    # Steps 2-5: select results, extract features, generate DFSs, build the table.
    outcome = service.compare_selected(result_set, result_ids=["R1", "R2"], size_limit=6)
    print(f"\nComparison table (DoD = {outcome.dod}, algorithm = {outcome.generation.algorithm}):\n")
    print(outcome.to_text())


if __name__ == "__main__":
    main()
