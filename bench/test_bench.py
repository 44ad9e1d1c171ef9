"""Tests of the load harness: ``python -m pytest bench -q`` (not part of tier 1)."""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict
from pathlib import Path

import pytest

from bench.oracle import build_snapshot, compute_oracle
from bench.runner import SETUP_BOOTS, Plan, make_plan, run_workload
from bench.spec import Op, Zipf, op_stream, phase_ops, stratified, take
from bench.stats import judge, percentile, quartiles
from bench.tracing import analyse, self_times

REPO = Path(__file__).resolve().parents[1]


def _inputs(workload: str, seed: int) -> str:
    plan = make_plan(workload, seed, 20)
    return json.dumps(
        {
            "warmup": [asdict(op) for op in plan.warmup_ops],
            "closed": [asdict(op) for op in plan.closed_ops],
        }
    )


@pytest.mark.parametrize("workload", ["search_zipf", "search_cold", "compare_topk", "mixed_rw"])
def test_same_seed_same_inputs_and_other_seed_other_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


def test_mixed_rw_deletes_only_earlier_undeleted_ingests():
    ingested, deleted = {}, set()
    for position, op in enumerate(take(op_stream("mixed_rw", 3, "closed"), 2000)):
        if op.kind == "ingest":
            ingested[op.doc_id] = position
        elif op.kind == "delete":
            assert ingested[op.doc_id] == op.after <= position - 6
            assert op.doc_id not in deleted
            deleted.add(op.doc_id)
    kinds = [op.kind for op in take(op_stream("mixed_rw", 3, "closed"), 2000)]
    assert kinds.count("search") / len(kinds) == pytest.approx(0.50, abs=0.03)
    assert kinds.count("delete") / len(kinds) == pytest.approx(0.15, abs=0.03)


def test_zipf_head_share():
    zipf = Zipf(1000)
    harmonic = [0.0]
    for rank in range(1, 1001):
        harmonic.append(harmonic[-1] + 1.0 / rank)
    rng = random.Random(5)
    draws = [zipf.rank(rng.random()) for _ in range(40000)]
    for head in (1, 10, 100):
        share = sum(rank < head for rank in draws) / len(draws)
        assert share == pytest.approx(harmonic[head] / harmonic[1000], abs=0.01)
    assert min(draws) == 0 and max(draws) < 1000
    assert zipf.rank(0.0) == 0 and zipf.rank(0.999999) == 999


def test_stratified_blocks_cover_every_stratum():
    draws = stratified(random.Random(1), block=8)
    for _ in range(3):
        block = [next(draws) for _ in range(8)]
        assert sorted(int(value * 8) for value in block) == list(range(8))


def test_warmup_is_the_same_on_every_seed():
    for workload in ("search_zipf", "mixed_rw"):
        assert make_plan(workload, 1, 20).warmup_ops == make_plan(workload, 2, 20).warmup_ops


def test_seeds_reorder_one_multiset_and_keep_writes_in_order():
    for workload in ("search_zipf", "mixed_rw"):
        one, other = phase_ops(workload, "closed", 300, 1), phase_ops(workload, "closed", 300, 2)
        assert one != other
        assert sorted(map(repr, one)) == sorted(map(repr, other))
        writes = [op for op in one if op.kind in ("ingest", "delete")]
        assert writes == [op for op in other if op.kind in ("ingest", "delete")]


def test_percentile():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile(list(range(1, 101)), 90) == pytest.approx(90.1)
    assert percentile([5.0], 90) == 5.0
    assert percentile([1.0, 2.0, math.inf], 50) == 2.0
    assert math.isinf(percentile([1.0, math.inf, math.inf], 50))
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([1.0, 3.0]) == (1.5, 2.0, 2.5)


def test_self_time_of_nested_and_sibling_spans():
    spans = [
        ["request", 0.0, 10.0, -1],
        ["service", 1.0, 8.0, 0],
        ["engine", 2.0, 5.0, 1],
        ["store", 3.0, 4.0, 2],
        ["cursor", 6.0, 7.0, 1],
        ["store", 7.0, 7.5, 1],
        ["http", 8.5, 9.5, 0],
    ]
    times = self_times(spans)
    assert times == {
        "request": 2.0,  # not covered by any child: unattributed
        "service": 2.5,
        "engine": 2.0,
        "store": 1.5,
        "cursor": 1.0,
        "http": 1.0,
    }
    assert sum(times.values()) == 10.0


def test_self_time_charges_a_collection_to_the_span_that_holds_it():
    # Recorded under "service", but it ran inside "engine"'s interval.
    spans = [
        ["request", 0.0, 10.0, -1],
        ["service", 1.0, 8.0, 0],
        ["engine", 2.0, 5.0, 1],
        ["gc2", 3.0, 4.0, 1],
    ]
    times = self_times(spans)
    assert times == {"request": 3.0, "service": 4.0, "engine": 2.0, "gc2": 1.0}
    assert sum(times.values()) == 10.0


def test_analyse_per_request_means_and_engine_ratios():
    hit = [["request", 0.0, 1.0, -1], ["engine", 0.2, 0.4, 0]]
    miss = [
        ["request", 0.0, 3.0, -1],
        ["engine", 0.5, 2.5, 0],
        ["index", 0.6, 0.8, 1],
        ["xseek", 1.0, 1.5, 1],
        ["gc2", 1.1, 1.3, 3],
    ]
    # Span times are CPU times; "wall" is the request's wall-clock interval.
    payload = {
        "requests": [
            {"phase": "closed", "wall": [0.0, 1.5], "spans": hit, "counts": {"served": 10}},
            {
                "phase": "closed",
                "wall": [2.0, 5.5],
                "spans": miss,
                "counts": {"served": 10, "ranked": 40, "postings": 80},
            },
            {"phase": "warmup", "wall": [9.0, 12.0], "spans": miss, "counts": {}},
        ],
        "boot": [["snapshot.load", 1.0, 1.25]],
    }
    metrics, gap = analyse(payload, "closed")
    assert gap < 1e-9
    assert metrics["trace.requests"] == 2
    assert metrics["unattributed_ms"] == pytest.approx((0.8 + 1.0) / 2 * 1000)
    assert metrics["wait_ms"] == pytest.approx((0.5 + 0.5) / 2 * 1000)
    assert metrics["engine.self_ms"] == pytest.approx((0.2 + 1.3) / 2 * 1000)
    assert metrics["xseek.self_ms"] == pytest.approx(0.3 / 2 * 1000)
    assert metrics["engine.cache_hit_ratio"] == 0.5
    assert metrics["engine.useful_ratio"] == 0.5
    assert metrics["index.postings_per_result"] == 2.0
    assert metrics["xseek.calls_per_req"] == 0.5
    assert metrics["gc.gen2_count"] == 1 and metrics["gc.gen2_max_ms"] == pytest.approx(200)
    assert metrics["gc.pause_share"] == pytest.approx(0.2 / 5.0)
    assert metrics["snapshot.load_s"] == 0.25


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5]
    assert judge(base, [100.2, 99.8, 100.9, 99.5], "lower", 0.1).verdict == "unchanged"
    assert judge(base, [130.0, 131.0, 129.0, 130.5], "lower", 0.1).verdict == "worse"
    assert judge(base, [90.0, 91.0, 89.0, 90.5], "lower", 0.1).verdict == "better"
    assert judge(base, [90.0, 91.0, 89.0, 90.5], "higher", 0.1).verdict == "unchanged"
    wide = [60.0, 140.0, 80.0, 120.0]
    assert judge(base, wide, "lower", 0.1).verdict == "unresolved"
    # A wide spread is still "better" when every candidate run beats every base run.
    assert judge(base, [50.0, 90.0, 70.0, 80.0], "lower", 0.1).verdict == "better"
    verdict = judge(base, [90.0, 91.0, 89.0, 90.5], "lower", 0.1)
    assert (verdict.wins, verdict.pairs) == (16, 16)
    assert verdict.change == pytest.approx(-0.1, abs=0.01)
    # Without the spread check (setup_s) only the medians decide.
    assert judge(base, wide, "lower", 0.1, check_spread=False).verdict == "unchanged"
    slower = [130.0, 160.0, 110.0, 150.0]
    assert judge(wide, slower, "lower", 0.1, check_spread=False).verdict == "worse"


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A 50-movie snapshot and its oracle for one query and one comparison."""
    snapshot = tmp_path_factory.mktemp("tiny") / "imdb50.snap"
    build_snapshot(snapshot, movies=50)
    oracle = compute_oracle(snapshot, ["drama war"], [("drama war", 2)])
    return snapshot, oracle


def _tiny_plan(warmup_ops, closed_ops):
    return Plan(warmup_ops=warmup_ops, closed_ops=closed_ops, closed_seconds=10.0)


def test_tiny_end_to_end_read_only(tiny):
    snapshot, oracle = tiny
    plan = _tiny_plan(
        [Op("search", "drama war"), Op("page", "actor"), Op("compare", "drama war", top=2)],
        [Op("search", "drama war"), Op("search", "war", structured=True)],
    )
    result = run_workload(REPO, "search_zipf", 1, 1.0, False, snapshot, oracle, plan=plan)
    assert result["correct"], result["failures"]
    assert result["attempted"] == 6  # warm-up 4 (a page-through is two), closed 2
    assert result["extra"]["oracle_checks"] == 3
    assert len(result["extra"]["setup_runs_s"]) == SETUP_BOOTS
    assert set(result["metrics"]) == {"setup_s", "throughput_rps", "read_p50_ms", "rss_mb"}
    assert all(value > 0 for value in result["metrics"].values())


def test_tiny_end_to_end_catches_a_wrong_answer(tiny):
    snapshot, oracle = tiny
    wrong = json.loads(json.dumps(oracle))
    wrong["searches"]["drama war"]["total"] += 1
    plan = _tiny_plan([Op("search", "drama war")], [Op("search", "comedy")])
    result = run_workload(REPO, "search_zipf", 1, 1.0, False, snapshot, wrong, plan=plan)
    assert not result["correct"] and result["failed"] == 1
    assert "oracle mismatch" in result["failures"][0]


def test_tiny_end_to_end_writes_reconcile(tiny):
    snapshot, oracle = tiny
    plan = _tiny_plan(
        [
            Op("ingest", doc_id="t-0", source=0),
            Op("search", "drama"),
            Op("ingest", doc_id="t-1", source=1),
        ],
        [
            Op("delete", doc_id="t-0", after=0),
            Op("search", "war"),
            Op("ingest", doc_id="t-2", source=2),
        ],
    )
    result = run_workload(REPO, "mixed_rw", 1, 1.0, False, snapshot, oracle, plan=plan)
    assert result["correct"], result["failures"]
    assert "write_p50_ms" in result["extra"] and "write_p90_ms" in result["extra"]


def test_tiny_traced_run(tiny):
    snapshot, oracle = tiny
    # Queries the warm-up and the readiness probe have not cached yet.
    plan = _tiny_plan([], [Op("search", "comedy war"), Op("compare", "drama", top=2)] * 3)
    result = run_workload(REPO, "search_zipf", 1, 1.0, True, snapshot, oracle, plan=plan)
    assert result["correct"], result["failures"]
    metrics = result["metrics"]
    assert metrics["trace.requests"] == 6
    assert metrics["trace.max_sum_gap"] < 0.01
    for name in ("http.self_ms", "service.self_ms", "engine.self_ms", "features.extract_ms",
                 "core.generate_ms", "comparison.table_ms", "xmlmodel.serialize_ms"):
        assert metrics[name] > 0, name
    assert metrics["snapshot.load_s"] > 0
    assert metrics["engine.cache_hit_ratio"] == pytest.approx(4 / 6)
