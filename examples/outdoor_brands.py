"""Outdoor Retailer scenario: comparing brands for the "men, jackets" query.

Run with::

    python examples/outdoor_brands.py

Reproduces the demo walk-through of Section 3: a user searching for men's
jackets compares brands rather than individual products, and the comparison
table reveals each brand's focus (one brand mostly sells rain jackets, another
insulated ski jackets) without the user having to browse hundreds of items.
"""

from __future__ import annotations

from collections import Counter

from repro import DFSConfig, SearchEngine, SearchService, generate_outdoor_corpus


def main() -> None:
    corpus = generate_outdoor_corpus()
    engine = SearchEngine(corpus)

    # Which brands have matching men's jackets at all?
    result_set = engine.search("men jackets")
    brands_with_matches = Counter(result.doc_id for result in result_set)
    print(f'Query "men jackets" matched items from {len(brands_with_matches)} brand document(s):')
    for doc_id, matches in brands_with_matches.most_common():
        brand_name = corpus.store.get(doc_id).root.find_child("brand_name").direct_text()
        print(f"  {brand_name:12s} ({doc_id}) — {matches} matching item group(s)")

    # Compare the three brands with the most matches, as whole documents.
    selected = [doc_id for doc_id, _count in brands_with_matches.most_common(3)]
    if len(selected) < 2:
        selected = corpus.store.document_ids()[:3]

    service = SearchService(corpus, config=DFSConfig(size_limit=6))
    outcome = service.compare_documents(selected, query="men jackets", size_limit=6)
    print(f"\nBrand comparison table (DoD = {outcome.dod}):\n")
    print(outcome.to_text())

    print(
        "\nReading the table: the dominant item.subcategory / item.category values per column"
        "\nexpose each brand's focus, which is exactly the guidance the demo scenario promises."
    )


if __name__ == "__main__":
    main()
