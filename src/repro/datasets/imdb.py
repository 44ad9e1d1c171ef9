"""Synthetic IMDB-style movie corpus (substitute for the IMDB plain-text dump).

The paper's Figure 4 experiment runs eight keyword queries (QM1-QM8) over "a
movie data set extracted from IMDB".  The original dump
(``ftp://ftp.sunet.se/pub/tv+movies/imdb/``) is no longer distributed in that
form, so this module generates a synthetic corpus with the same structural
ingredients the dump provides per title:

* flat metadata: title, year, rating, votes, certificate, runtime, studio;
* multi-valued metadata: genres, plot keywords, countries, languages;
* a cast of actors (a repeating sub-entity with name / character / billing);
* an awards list (a repeating sub-entity with category / outcome / year).

The cast and awards sub-entities give results a non-trivial occurrence-count
structure (different feature types of the same entity have different counts),
which is what makes the validity constraint bite and lets the multi-swap
algorithm's budget allocation outperform single swaps — the effect Figure 4(a)
shows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.datasets.vocabulary import MovieVocabulary
from repro.errors import DatasetError
from repro.storage.corpus import Corpus
from repro.storage.document_store import DocumentStore
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel.node import XMLNode

__all__ = ["ImdbConfig", "generate_imdb_corpus"]


@dataclass(frozen=True)
class ImdbConfig:
    """Parameters of the IMDB generator.

    Attributes
    ----------
    num_movies:
        Number of movie documents to generate.
    min_cast / max_cast:
        Range of the cast size per movie.
    max_awards:
        Maximum number of award entries per movie (minimum is zero).
    seed:
        Seed of the generator's private random stream.
    """

    num_movies: int = 200
    min_cast: int = 4
    max_cast: int = 18
    max_awards: int = 8
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_movies < 1:
            raise DatasetError("num_movies must be >= 1")
        if not (1 <= self.min_cast <= self.max_cast):
            raise DatasetError("cast range must satisfy 1 <= min <= max")
        if self.max_awards < 0:
            raise DatasetError("max_awards must be >= 0")


def generate_imdb_corpus(
    config: Optional[ImdbConfig] = None,
    vocabulary: Optional[MovieVocabulary] = None,
) -> Corpus:
    """Generate the IMDB movie corpus (one document per movie)."""
    config = config or ImdbConfig()
    vocabulary = vocabulary or MovieVocabulary()
    rng = random.Random(config.seed)
    store = DocumentStore()

    for movie_number in range(1, config.num_movies + 1):
        doc_id = f"movie_{movie_number:05d}"
        root = _build_movie(movie_number, config, vocabulary, rng)
        store.add(doc_id, root, metadata={"dataset": "imdb"})
    return Corpus(store, name="imdb")


# ---------------------------------------------------------------------- #
# Document construction
# ---------------------------------------------------------------------- #
def _build_movie(
    movie_number: int,
    config: ImdbConfig,
    vocabulary: MovieVocabulary,
    rng: random.Random,
) -> XMLNode:
    title = f"{rng.choice(vocabulary.title_heads)} {rng.choice(vocabulary.title_tails)} {movie_number}"
    genres = rng.sample(list(vocabulary.genres), k=rng.randint(1, 3))
    keywords = rng.sample(list(vocabulary.keywords), k=rng.randint(3, 8))

    builder = TreeBuilder("movie")
    builder.leaf("title", title)
    builder.leaf("year", rng.randint(1950, 2009))
    builder.leaf("rating", f"{rng.uniform(3.0, 9.5):.1f}")
    builder.leaf("votes", rng.randint(50, 250_000))
    builder.leaf("certificate", rng.choice(vocabulary.certificates))
    builder.leaf("runtime_minutes", rng.randint(70, 190))
    builder.leaf("studio", rng.choice(vocabulary.studios))
    builder.leaf("color", rng.choice(["color", "black_and_white"]))

    with builder.element("genres"):
        for genre in genres:
            builder.leaf("genre", genre)
    with builder.element("keywords"):
        for keyword in keywords:
            builder.leaf("keyword", keyword)
    with builder.element("countries"):
        for country in rng.sample(list(vocabulary.countries), k=rng.randint(1, 3)):
            builder.leaf("country", country)
    with builder.element("languages"):
        for language in rng.sample(list(vocabulary.languages), k=rng.randint(1, 2)):
            builder.leaf("language", language)
    with builder.element("directors"):
        builder.leaf("director", _person_name(vocabulary, rng))

    _build_cast(builder, config, vocabulary, rng)
    _build_awards(builder, config, rng)
    return builder.finish()


def _build_cast(
    builder: TreeBuilder,
    config: ImdbConfig,
    vocabulary: MovieVocabulary,
    rng: random.Random,
) -> None:
    cast_size = rng.randint(config.min_cast, config.max_cast)
    # A per-movie skew in how many cast members are credited as leads vs
    # supporting vs uncredited: this is the count-bearing attribute of the
    # actor entity (different movies have very different lead/support ratios).
    lead_fraction = rng.uniform(0.1, 0.6)
    with builder.element("cast"):
        for billing in range(1, cast_size + 1):
            with builder.element("actor"):
                builder.leaf("actor_name", _person_name(vocabulary, rng))
                builder.leaf("character", f"{rng.choice(vocabulary.title_tails)} {billing}")
                builder.leaf("billing", billing)
                if rng.random() < lead_fraction:
                    credit = "lead"
                elif rng.random() < 0.8:
                    credit = "supporting"
                else:
                    credit = "uncredited"
                builder.leaf("credit", credit)


def _build_awards(builder: TreeBuilder, config: ImdbConfig, rng: random.Random) -> None:
    award_count = rng.randint(0, config.max_awards)
    if award_count == 0:
        return
    win_probability = rng.uniform(0.1, 0.7)
    categories = (
        "best_picture",
        "best_director",
        "best_actor",
        "best_actress",
        "best_screenplay",
        "best_score",
    )
    with builder.element("awards"):
        for _ in range(award_count):
            with builder.element("award"):
                builder.leaf("award_category", rng.choice(categories))
                builder.leaf("outcome", "won" if rng.random() < win_probability else "nominated")
                builder.leaf("award_year", rng.randint(1950, 2010))


def _person_name(vocabulary: MovieVocabulary, rng: random.Random) -> str:
    return f"{rng.choice(vocabulary.first_names)} {rng.choice(vocabulary.last_names)}"
