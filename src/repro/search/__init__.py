"""Keyword search engine over XML corpora (the paper's XSeek substrate).

The XSACT demo plugs into "any existing search engine for structured data"; the
paper itself uses XSeek [3, 4].  This package implements that substrate from
scratch:

* :class:`~repro.search.query.KeywordQuery` — parsed keyword queries.
* :mod:`~repro.search.slca` / :mod:`~repro.search.elca` — the classic Smallest /
  Exclusive Lowest Common Ancestor semantics for XML keyword search, operating
  on Dewey-labelled posting lists.
* :mod:`~repro.search.xseek` — XSeek-style return-node inference: given a match
  node, decide which surrounding subtree constitutes the *result* the user
  should see (the entity subtree that contains the matches).
* :mod:`~repro.search.ranking` — TF-IDF result ranking so result lists have a
  stable, relevance-flavoured order.
* :mod:`~repro.search.structural` — :class:`StructuredQuery` (keywords plus
  axis constraints and tag-path filters) and the ``slca_struct`` semantics,
  which filters SLCA matches through those constraints on the pre-order
  structural encoding of :mod:`repro.structure`.
* :mod:`~repro.search.semantics` — the fixed table of the three match
  semantics (``slca``, ``elca``, ``slca_struct``).
* :class:`~repro.search.engine.SearchEngine` — the facade used by XSACT's
  pipeline and by the experiments.
"""

from repro.search.elca import compute_elca
from repro.search.engine import SearchEngine
from repro.search.query import KeywordQuery
from repro.search.ranking import rank_results
from repro.search.result import SearchResult, SearchResultSet
from repro.search.semantics import available_semantics
from repro.search.slca import compute_slca
from repro.search.structural import StructuredQuery, compute_slca_struct, parse_tag_path
from repro.search.xseek import infer_return_subtree

__all__ = [
    "KeywordQuery",
    "StructuredQuery",
    "parse_tag_path",
    "compute_slca",
    "compute_slca_struct",
    "compute_elca",
    "infer_return_subtree",
    "SearchResult",
    "SearchResultSet",
    "SearchEngine",
    "rank_results",
    "available_semantics",
]
