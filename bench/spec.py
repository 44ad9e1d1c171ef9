"""Workload definitions: the query universe, Zipf sampling and op lists.

Everything here is a pure function of its arguments, so the same ``--seed``
always yields byte-identical op lists.

A run sends two op lists to one freshly booted server, each over two
connections as fast as the server answers (a closed loop):

* a **warm-up** list, identical on every seed, which decodes documents,
  fills the caches and grows the heap to the same state every time;
* a **measured** list: a fixed multiset of ops in seeded order.  Its
  throughput and median latency are end-to-end metrics.

Why the seed only orders a fixed multiset: a fifth to a half of the server's
time goes to gen-2 garbage collections of up to 1.9 s each, which a short run
meets only a handful of times.  When each seed drew its own queries, the
number of those pauses in a phase moved throughput by up to 2x from seed to
seed.  With one multiset every seed allocates the same objects and meets the
same number of collections; seeds differ in the order requests arrive, hit
the caches and meet a pause.

The traffic shares below (Zipf exponent, page-through, ``top`` and
read/ingest/delete shares) are assumptions, not fitted to any log: no query
log of XSACT or of another XML keyword-search service is available.
"""

from __future__ import annotations

import bisect
import functools
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Tuple

CORPUS_MOVIES = 1000
CORPUS_SEED = 42
POPULARITY_SEED = 42
# Seed of the op multisets, the same for every run (see the module docstring).
MULTISET_SEED = 0
ZIPF_EXPONENT = 1.0

# Default /search page size of `serve`; responses must never exceed it.
PAGE_SIZE = 10

# Structural constraint attached to a share of search_cold's queries.
STRUCTURED_PARAMS = (("within", "movie"), ("axis", "descendant"), ("axis_tag", "actor"))

# A delete targets an id ingested at least this many ops earlier, so with two
# connections the ingest is almost always acknowledged before its delete is
# sent (the client still waits for the acknowledgement when it is not).
DELETE_LAG = 6

# Draws per stratified block (see `stratified`).
STRATUM_BLOCK = 32


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one server configuration (``why`` is in BENCHMARK.json).

    Both sizes are frozen (README.md, *Calibration*).  ``warmup`` is the
    length of the warm-up list.  The measured list holds ``closed_rate`` ops
    per second of ``--seconds``: the capacity of the reference host at its
    slowest, so that the measured loop takes at most about ``--seconds`` and
    a run stays within the time budget.
    """

    name: str
    server_flags: Tuple[str, ...]
    warmup: int
    closed_rate: float


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("search_zipf", (), warmup=18, closed_rate=9.5),
        Workload("search_cold", ("--max-materialised", "200"), warmup=8, closed_rate=3.2),
        Workload("compare_topk", (), warmup=10, closed_rate=4.5),
        Workload("mixed_rw", ("--writable",), warmup=12, closed_rate=6.0),
    )
}


@dataclass(frozen=True)
class Op:
    """One client operation (a page-through issues two requests)."""

    kind: str  # "search", "page", "compare", "ingest" or "delete"
    query: str = ""
    structured: bool = False
    top: int = 0
    doc_id: str = ""
    source: int = -1  # ingest: index of the held-out movie supplying the XML
    after: int = -1  # delete: list position of the ingest it undoes


@functools.lru_cache(maxsize=1)
def query_families() -> Tuple[Tuple[str, ...], ...]:
    """The ~1.7k keyword queries every workload draws from, one tuple per family.

    Families: genre x keyword, genre x keyword x country, genre x country,
    keyword x language and first x last name (actor and director names).
    """
    from repro.datasets.vocabulary import MovieVocabulary

    v = MovieVocabulary()
    return (
        tuple(f"{g} {k}" for g in v.genres for k in v.keywords),
        tuple(f"{g} {k} {c}" for g in v.genres for k in v.keywords for c in v.countries),
        tuple(f"{g} {c}" for g in v.genres for c in v.countries),
        tuple(f"{k} {lang}" for k in v.keywords for lang in v.languages),
        tuple(f"{first} {last}" for first in v.first_names for last in v.last_names),
    )


@functools.lru_cache(maxsize=1)
def query_universe() -> Tuple[str, ...]:
    """Every query, in family order."""
    return tuple(query for family in query_families() for query in family)


@functools.lru_cache(maxsize=1)
def popularity_order() -> Tuple[str, ...]:
    """The universe in popularity order (rank 1 first), fixed for every run.

    Each family is shuffled, then the families are interleaved so that the
    first ``n`` ranks hold each family in proportion to its size.
    """
    rng = random.Random(POPULARITY_SEED)
    families = [rng.sample(family, len(family)) for family in query_families()]
    total = sum(len(family) for family in families)
    taken = [0] * len(families)
    order: List[str] = []
    for position in range(1, total + 1):
        behind = [
            len(family) * position / total - taken[index] for index, family in enumerate(families)
        ]
        index = max(range(len(families)), key=behind.__getitem__)
        order.append(families[index][taken[index]])
        taken[index] += 1
    return tuple(order)


def stratified(rng: random.Random, block: int = STRATUM_BLOCK) -> Iterator[float]:
    """Uniform draws on [0, 1) in shuffled blocks with one draw per 1/block stratum.

    Each draw is uniform on its own, but every block of ``block`` draws covers
    the unit interval evenly, so even a short op list holds popular and rare
    queries, query families and op kinds in proportion.
    """
    while True:
        points = [(stratum + rng.random()) / block for stratum in range(block)]
        rng.shuffle(points)
        yield from points


class Zipf:
    """Ranks ``0..n-1`` with probability proportional to ``1/(rank+1)^s``."""

    def __init__(self, n: int, exponent: float = ZIPF_EXPONENT) -> None:
        self._cumulative = list(accumulate(1.0 / (rank + 1) ** exponent for rank in range(n)))

    def rank(self, uniform: float) -> int:
        """Inverse CDF: the rank a uniform draw on [0, 1) selects."""
        point = uniform * self._cumulative[-1]
        return min(bisect.bisect_right(self._cumulative, point), len(self._cumulative) - 1)


def phase_rng(workload: str, phase: str, seed: int, stream: str) -> random.Random:
    # String seeds hash through SHA-512, so they are stable across processes
    # and independent of PYTHONHASHSEED.
    return random.Random(f"{workload}/{phase}/{stream}/{seed}")


def op_stream(workload: str, seed: int, phase: str) -> Iterator[Op]:
    """Unbounded, deterministic op sequence drawn from the workload's distribution.

    Queries, op kinds and compare sizes each come from their own stratified
    stream.  Ingest ids embed the phase, so they are unique within a run.
    """

    def uniforms(stream: str) -> Iterator[float]:
        return stratified(phase_rng(workload, phase, seed, stream))

    popular = popularity_order()
    zipf = Zipf(len(popular))
    queries, kinds = uniforms("query"), uniforms("kind")
    if workload == "search_zipf":
        while True:
            kind = "page" if next(kinds) < 0.15 else "search"
            yield Op(kind, popular[zipf.rank(next(queries))])
    elif workload == "search_cold":
        # Family order, so the strata spread the draws evenly over the families.
        universe = query_universe()
        while True:
            query = universe[int(next(queries) * len(universe))]
            yield Op("search", query, structured=next(kinds) < 0.10)
    elif workload == "compare_topk":
        while True:
            top = (2, 4, 4, 8)[int(next(kinds) * 4)]
            yield Op("compare", popular[zipf.rank(next(queries))], top=top)
    elif workload == "mixed_rw":
        rng = phase_rng(workload, phase, seed, "delete")
        live: List[Tuple[int, str]] = []  # (position, doc id) of undeleted ingests
        position = 0
        ingests = 0
        while True:
            draw = next(kinds)
            eligible = [entry for entry in live if entry[0] <= position - DELETE_LAG]
            if draw < 0.15 and eligible:
                after, doc_id = eligible[rng.randrange(len(eligible))]
                live.remove((after, doc_id))
                yield Op("delete", doc_id=doc_id, after=after)
            elif draw < 0.50:
                doc_id = f"bench-{phase}-{ingests:05d}"
                live.append((position, doc_id))
                yield Op("ingest", doc_id=doc_id, source=ingests)
                ingests += 1
            else:
                yield Op("search", popular[zipf.rank(next(queries))])
            position += 1
    else:
        raise ValueError(f"unknown workload: {workload!r}")


def take(stream: Iterator[Op], count: int) -> List[Op]:
    return [next(stream) for _ in range(count)]


def phase_ops(workload: str, phase: str, count: int, seed: int) -> List[Op]:
    """The phase's fixed multiset of ``count`` ops, in the order of ``seed``.

    Writes keep their order (a delete must follow its ingest); the reads are
    shuffled among the read positions.
    """
    ops = take(op_stream(workload, MULTISET_SEED, phase), count)
    reads = [index for index, op in enumerate(ops) if op.kind not in ("ingest", "delete")]
    order = list(reads)
    phase_rng(workload, phase, seed, "order").shuffle(order)
    shuffled = list(ops)
    for position, index in zip(reads, order):
        shuffled[position] = ops[index]
    return shuffled


def warmup_ops(workload: str) -> List[Op]:
    """The warm-up op list, identical on every seed."""
    return take(op_stream(workload, MULTISET_SEED, "warmup"), WORKLOADS[workload].warmup)


def workload_names(selected: Optional[str] = None) -> List[str]:
    if selected is None:
        return list(WORKLOADS)
    if selected not in WORKLOADS:
        raise SystemExit(f"unknown workload {selected!r}; choose from {sorted(WORKLOADS)}")
    return [selected]
