"""One benchmark run of one workload: set-up boots, warm-up, measured closed loop, checks.

Untraced runs report the end-to-end metrics.  Traced runs load an untraced
and then a traced server with the same inputs and report the per-layer
metrics of the traced closed loop (see :mod:`bench.tracing`).
"""

from __future__ import annotations

import json
import math
import statistics
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from bench.client import READ_KINDS, Connection, Executor, closed_loop, search_path
from bench.oracle import PROBE_QUERY, Checker
from bench.server import Server
from bench.spec import WORKLOADS, Op, Workload, phase_ops, warmup_ops
from bench.stats import percentile
from bench.tracing import analyse

SETUP_BOOTS = 3
HELDOUT_MOVIES = 48
# A load phase starts no op after this many times the measured list's planned
# duration, so a host far slower than the reference one still finishes in time.
CLOSED_CAP_FACTOR = 1.5


@dataclass
class Plan:
    """Every input of one run, generated from the seed before the server boots."""

    warmup_ops: List[Op]
    closed_ops: List[Op]
    closed_seconds: float  # the measured list is sized for this long on the reference host


def make_plan(workload: str, seed: int, seconds: float, trace: bool = False) -> Plan:
    """The seeded inputs of one run.

    A traced run loads two servers, so each measured list is sized for half
    of ``seconds``.
    """
    closed_seconds = seconds / 2 if trace else seconds
    return Plan(
        warmup_ops=warmup_ops(workload),
        closed_ops=phase_ops(
            workload, "closed", round(WORKLOADS[workload].closed_rate * closed_seconds), seed
        ),
        closed_seconds=closed_seconds,
    )


def heldout_documents(seed: int, count: int = HELDOUT_MOVIES) -> List[str]:
    """XML of movies the served corpus does not hold, for mixed_rw's ingests."""
    from repro.datasets.imdb import ImdbConfig, generate_imdb_corpus
    from repro.xmlmodel.serializer import serialize

    corpus = generate_imdb_corpus(ImdbConfig(num_movies=count, seed=seed + 1000))
    return [serialize(document.root) for document in corpus.store]


class _Admin:
    """Untimed requests (/healthz, /stats, the change feed) on their own connection."""

    def __init__(self, port: int) -> None:
        self.connection = Connection(port)

    def get(self, path: str) -> dict:
        status, body, _ = self.connection.request("GET", path, "admin")
        if status != 200 or body is None:
            raise RuntimeError(f"GET {path} answered {status}")
        return body


def _boot(
    repo: Path, snapshot: Path, workload: Workload, log: Path, spans_out: Optional[Path] = None
) -> Server:
    server = Server(repo, snapshot, workload.server_flags, log, spans_out)
    try:
        server.wait_ready(search_path(PROBE_QUERY))
    except BaseException:
        server.stop()
        raise
    return server


def _reconcile(admin: _Admin, executor: Executor, base: dict) -> List[str]:
    """mixed_rw's end-of-run check: document count and change feed match the acks."""
    errors = []
    acks = sorted(executor.acks)
    added = sum(1 for _, _, action in acks if action == "add")
    expected = base["documents"] + added - (len(acks) - added)
    documents = admin.get("/healthz")["documents"]
    if documents != expected:
        errors.append(f"healthz reports {documents} documents, acks imply {expected}")
    feed = admin.get(f"/documents/updated-since?version={base['corpus_version']}")
    entries = [(entry["version"], entry["doc_id"], entry["action"]) for entry in feed["entries"]]
    if not feed["complete"] or entries != acks:
        errors.append(f"change feed lists {len(entries)} mutations, {len(acks)} were acknowledged")
    return errors


@dataclass
class _Load:
    """What the warm-up and the measured closed loop against one server produced."""

    executor: Executor
    setup_seconds: float
    wall: float  # measured closed loop
    before: dict  # /stats before and after the closed loop
    after: dict
    rss_mb: float  # median VmRSS over the measured closed loop
    peak_rss_mb: float  # VmHWM at its end
    errors: List[str]

    def closed(self) -> List[float]:
        return [s.latency for s in self.executor.samples if s.phase == "closed"]

    def throughput(self) -> float:
        return sum(1 for latency in self.closed() if not math.isinf(latency)) / self.wall


def _load(
    repo: Path,
    workload: Workload,
    plan: Plan,
    snapshot: Path,
    oracle: Dict[str, Dict[str, object]],
    heldout: Sequence[str],
    log: Path,
    spans_out: Optional[Path] = None,
) -> _Load:
    """Boot a server, warm it up, run the measured closed loop against it, check, stop."""
    server = _boot(repo, snapshot, workload, log, spans_out)
    writable = "--writable" in workload.server_flags
    with server:
        admin = _Admin(server.port)
        base = admin.get("/healthz")
        executor = Executor(Checker(oracle, base["corpus_version"], not writable), heldout)
        cap = CLOSED_CAP_FACTOR * plan.closed_seconds
        closed_loop(server.port, executor, iter(plan.warmup_ops), cap, "warmup", server.check_alive)
        rss: List[float] = []

        def alive() -> None:
            # Polled about every 0.1 s.  VmHWM depends on when a gen-2
            # collection frees the generations that writes clone (its spread
            # over 10 seeds was 0.14-0.23 on mixed_rw); the median VmRSS
            # spread 0.16-0.17.
            server.check_alive()
            rss.append(server.memory_mb("VmRSS"))

        before = admin.get("/stats")
        wall = closed_loop(server.port, executor, iter(plan.closed_ops), cap, "closed", alive)
        after = admin.get("/stats")
        alive()
        peak_rss = server.memory_mb("VmHWM")
        errors = _reconcile(admin, executor, base) if writable else []
        admin.connection.close()
        server.check_alive()
    if server.process.returncode != 0:
        errors.append(f"server exited with code {server.process.returncode}")
    return _Load(
        executor, server.setup_seconds, wall, before, after,
        statistics.median(rss), peak_rss, errors,
    )


def _latencies(samples, phase: str, reads: bool) -> List[float]:
    return [s.latency for s in samples if s.phase == phase and (s.kind in READ_KINDS) == reads]


def run_untraced(
    repo: Path,
    workload: Workload,
    plan: Plan,
    snapshot: Path,
    oracle: Dict[str, Dict[str, object]],
    heldout: Sequence[str],
    tmp: Path,
) -> dict:
    """Boot SETUP_BOOTS times for the set-up time, then load the last server."""
    setups = []
    for boot in range(SETUP_BOOTS - 1):
        server = _boot(repo, snapshot, workload, tmp / f"boot{boot}.log")
        try:
            setups.append(server.setup_seconds)
        finally:  # also on SIGTERM, so that no server outlives the run
            server.stop(kill=True)
    load = _load(repo, workload, plan, snapshot, oracle, heldout, tmp / "serve.log")
    setups.append(load.setup_seconds)

    samples = load.executor.samples
    reads = _latencies(samples, "closed", reads=True)
    failed = sum(1 for s in samples if math.isinf(s.latency)) + len(load.errors)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_rps": load.throughput(),
        "read_p50_ms": percentile(reads, 50) * 1000.0,
        "rss_mb": load.rss_mb,
    }
    extra: Dict[str, object] = {
        "read_p90_ms": percentile(reads, 90) * 1000.0,
        "peak_rss_mb": load.peak_rss_mb,
        "error_rate": failed / len(samples),
        "closed_requests": len(load.closed()),
        "closed_wall_s": load.wall,
        "warmup_requests": sum(1 for s in samples if s.phase == "warmup"),
        "setup_runs_s": setups,
        "oracle_checks": load.executor.checker.oracle_hits,
        "closed_cache_hits": load.after["cache"]["hits"] - load.before["cache"]["hits"],
        "closed_cache_misses": load.after["cache"]["misses"] - load.before["cache"]["misses"],
        "cache_entries": load.after["cache"]["entries"],
    }
    writes = _latencies(samples, "closed", reads=False)
    if writes:
        extra["write_p50_ms"] = percentile(writes, 50) * 1000.0
        extra["write_p90_ms"] = percentile(writes, 90) * 1000.0
    return {
        "metrics": metrics,
        "extra": extra,
        "attempted": len(samples),
        "failed": failed,
        "failures": (load.executor.failures + load.errors)[:10],
    }


def run_traced(
    repo: Path,
    workload: Workload,
    plan: Plan,
    snapshot: Path,
    oracle: Dict[str, Dict[str, object]],
    heldout: Sequence[str],
    tmp: Path,
) -> dict:
    """Load an untraced, then a traced server; per-layer metrics from the spans."""
    untraced = _load(repo, workload, plan, snapshot, oracle, heldout, tmp / "untraced.log")
    spans_path = tmp / "spans.json"
    traced = _load(repo, workload, plan, snapshot, oracle, heldout, tmp / "traced.log", spans_path)
    metrics, gap = analyse(json.loads(spans_path.read_text(encoding="utf-8")), "closed")
    count = metrics["trace.requests"]
    before, after = traced.before["corpus"]["store"], traced.after["corpus"]["store"]
    metrics.update(
        {
            "http.bytes_out": statistics.fmean(
                s.size for s in traced.executor.samples if s.phase == "closed"
            ),
            "store.decodes_per_req": (after["decodes"] - before["decodes"]) / count,
            "store.evictions_per_req": (after["evictions"] - before["evictions"]) / count,
            "trace.overhead": 1.0 - traced.throughput() / untraced.throughput(),
            "trace.max_sum_gap": gap,
        }
    )
    samples = untraced.executor.samples + traced.executor.samples
    errors = untraced.errors + traced.errors
    failed = sum(1 for s in samples if math.isinf(s.latency)) + len(errors)
    return {
        "metrics": metrics,
        "extra": {"untraced_rps": untraced.throughput(), "traced_rps": traced.throughput()},
        "attempted": len(samples),
        "failed": failed,
        "failures": (untraced.executor.failures + traced.executor.failures + errors)[:10],
    }


def run_workload(
    repo: Path,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    snapshot: Path,
    oracle: Dict[str, Dict[str, object]],
    plan: Optional[Plan] = None,
) -> dict:
    """One run of workload ``name``; ``plan`` replaces the seeded inputs (tests)."""
    workload = WORKLOADS[name]
    plan = plan or make_plan(name, seed, seconds, trace)
    heldout = heldout_documents(seed) if "--writable" in workload.server_flags else []
    (repo / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=repo / ".bench_build") as scratch:
        tmp = Path(scratch)
        if trace:
            result = run_traced(repo, workload, plan, snapshot, oracle, heldout, tmp)
        else:
            result = run_untraced(repo, workload, plan, snapshot, oracle, heldout, tmp)
    result.update({"workload": name, "seed": seed, "seconds": seconds, "trace": trace})
    result["correct"] = result["failed"] == 0
    return result
