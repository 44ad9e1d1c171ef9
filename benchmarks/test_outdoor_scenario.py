"""E5 — Outdoor Retailer brand-focus scenario (Section 3's "men, jackets" demo).

Compares three brands of the Outdoor Retailer corpus as whole documents, the
way the demo walk-through does, and reports the resulting comparison table.
Expected shape: the table surfaces item-level attributes (subcategory, gender,
material, ...) whose dominant values differ across brands — the "Marmot sells
rain jackets, Columbia insulated ski jackets" effect.
"""

from repro.core.config import DFSConfig
from repro.service import SearchService


def test_outdoor_brand_comparison(benchmark, outdoor_corpus, report):
    service = SearchService(outdoor_corpus, config=DFSConfig(size_limit=6))
    brand_ids = outdoor_corpus.store.document_ids()[:3]

    def compare_brands():
        return service.compare_documents(brand_ids, query="men jackets", size_limit=6)

    outcome = benchmark.pedantic(compare_brands, rounds=3, iterations=1)

    report(
        "Outdoor Retailer: brand comparison for the 'men, jackets' scenario (L=6)",
        outcome.to_text(),
    )

    assert len(outcome.results) == 3
    assert outcome.dod > 0
    labels = {row.label() for row in outcome.table.rows}
    assert any(label.startswith("item") for label in labels)
