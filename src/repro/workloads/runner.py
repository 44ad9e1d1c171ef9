"""Workload execution: search, extract features, run DFS algorithms, measure.

The runner produces one :class:`QueryMeasurement` per (query, algorithm) pair,
holding the DoD and the construction time — exactly the two series Figure 4
plots — plus context (result count, feature-type counts) that the experiment
reports include so that the synthetic-vs-paper comparison is interpretable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import DFSConfig
from repro.core.generator import DFSGenerator
from repro.errors import ExperimentError
from repro.features.extractor import FeatureExtractor
from repro.features.statistics import ResultFeatures
from repro.search.engine import SearchEngine
from repro.storage.corpus import Corpus
from repro.workloads.queries import QuerySpec, Workload

__all__ = ["QueryMeasurement", "WorkloadRunner"]


@dataclass(frozen=True)
class QueryMeasurement:
    """The measurement of one algorithm on one query.

    Attributes
    ----------
    query_name:
        Workload query identifier (``"QM1"``...).
    algorithm:
        DFS construction algorithm name.
    num_results:
        How many results were compared.
    total_feature_types:
        Sum of feature-type counts over the compared results (problem size).
    dod:
        Total degree of differentiation achieved.
    construction_seconds:
        Wall-clock time of DFS construction only (the quantity of Figure 4(b)).
    search_seconds:
        Wall-clock time of search plus feature extraction (context only).
    """

    query_name: str
    algorithm: str
    num_results: int
    total_feature_types: int
    dod: int
    construction_seconds: float
    search_seconds: float

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary form used by reports."""
        return {
            "query": self.query_name,
            "algorithm": self.algorithm,
            "results": self.num_results,
            "feature_types": self.total_feature_types,
            "dod": self.dod,
            "time_s": round(self.construction_seconds, 6),
            "search_s": round(self.search_seconds, 6),
        }


class WorkloadRunner:
    """Runs a workload's queries against its corpus for a set of algorithms."""

    def __init__(
        self,
        workload: Workload,
        config: Optional[DFSConfig] = None,
        corpus: Optional[Corpus] = None,
    ):
        self.workload = workload
        self.config = config or DFSConfig()
        self.corpus = corpus if corpus is not None else workload.build_corpus()
        self.engine = SearchEngine(self.corpus)
        self.extractor = FeatureExtractor(statistics=self.corpus.statistics)
        self.generator = DFSGenerator(self.config)
        self._feature_cache: Dict[str, List[ResultFeatures]] = {}

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def result_features(self, spec: QuerySpec) -> List[ResultFeatures]:
        """Search one query and extract features for its results (cached)."""
        if spec.name not in self._feature_cache:
            result_set = self.engine.search(spec.query(), limit=spec.max_results)
            features = [self.extractor.extract(result) for result in result_set]
            self._feature_cache[spec.name] = features
        return self._feature_cache[spec.name]

    def run_query(self, spec: QuerySpec, algorithm: str) -> QueryMeasurement:
        """Run one algorithm on one query and return its measurement.

        Raises
        ------
        ExperimentError
            If the query yields fewer than two results (nothing to compare) —
            a sign the corpus or query definitions are misconfigured.
        """
        search_start = time.perf_counter()
        features = self.result_features(spec)
        search_elapsed = time.perf_counter() - search_start

        if len(features) < 2:
            raise ExperimentError(
                f"query {spec.name!r} ({spec.text!r}) returned {len(features)} result(s); "
                "need at least two to measure differentiation"
            )
        outcome = self.generator.generate(features, algorithm=algorithm)
        return QueryMeasurement(
            query_name=spec.name,
            algorithm=algorithm,
            num_results=len(features),
            total_feature_types=sum(len(result) for result in features),
            dod=outcome.dod,
            construction_seconds=outcome.elapsed_seconds,
            search_seconds=search_elapsed,
        )

    def run(self, algorithms: Sequence[str] = ("single_swap", "multi_swap")) -> List[QueryMeasurement]:
        """Run every workload query with every algorithm."""
        measurements: List[QueryMeasurement] = []
        for spec in self.workload.queries:
            for algorithm in algorithms:
                measurements.append(self.run_query(spec, algorithm))
        return measurements
