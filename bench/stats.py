"""Percentiles, quartiles and the better/worse/unchanged/unresolved verdict."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100) of ``values``.

    Failed requests enter as ``inf``; a percentile that lands on or between
    them is ``inf`` too, so a failure can only make a latency look worse.
    """
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high or ordered[low] == ordered[high]:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) by ``statistics.quantiles(values, n=4, method="inclusive")``.

    The inclusive method keeps the quartiles inside the data.  The default
    (exclusive) one extrapolates past the extremes for the two or three runs
    per side that ``compare`` usually sees, which would call every metric
    unresolved.
    """
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


@dataclass(frozen=True)
class Verdict:
    verdict: str  # "better", "worse", "unchanged" or "unresolved"
    change: float  # signed share of the base median; positive means worse
    wins: int  # pairs in which the candidate reads better
    pairs: int


def judge(
    base: Sequence[float],
    candidate: Sequence[float],
    better: str,
    bound: float,
    check_spread: bool = True,
) -> Verdict:
    """Compare candidate runs against base runs of one (metric, workload).

    * ``unresolved`` when ``check_spread`` is set and either side's
      run-to-run spread is wider than the bound, unless every candidate run
      reads better than every base run;
    * ``worse`` when the candidate median is worse by more than the bound;
    * ``better`` when the candidate wins at least nine tenths of all pairs
      (ties count for neither) and the medians differ by more than the
      base's own interquartile distance;
    * ``unchanged`` otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0

    def reads_better(new: float, old: float) -> bool:
        return sign * (new - old) < 0

    base_q1, base_median, base_q3 = quartiles(base)
    _, candidate_median, _ = quartiles(candidate)
    change = sign * (candidate_median - base_median) / abs(base_median) if base_median else 0.0
    pairs: List[Tuple[float, float]] = [(new, old) for new in candidate for old in base]
    wins = sum(1 for new, old in pairs if reads_better(new, old))
    spread = max(relative_spread(base), relative_spread(candidate))
    dominates = all(reads_better(new, old) for new, old in pairs)
    if check_spread and spread > bound:
        verdict = "better" if dominates else "unresolved"
    elif change > bound:
        verdict = "worse"
    elif wins >= 0.9 * len(pairs) and abs(candidate_median - base_median) > base_q3 - base_q1:
        verdict = "better"
    else:
        verdict = "unchanged"
    return Verdict(verdict, change, wins, len(pairs))
