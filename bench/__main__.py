"""Entry point: ``python -m bench`` runs workloads, ``python -m bench compare`` judges runs.

Run (from the repository root)::

    python -m bench --seed 1 --out R.json            # all workloads, untraced
    python -m bench --seed 1 --trace --out T.json    # per-layer metrics
    python -m bench --workload search_zipf --seed 3 --seconds 14 --trace 0
    python -m bench compare A.json [A2.json ...] -- B.json [B2.json ...]

The third form is how the benchmark contract invokes ``BENCHMARK.json``'s
``command``: one workload per process, with ``--seconds`` set to
``run_seconds``, which is also the default.  Every metric is printed as
``workload metric value unit``; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

REPO = Path(__file__).resolve().parents[1]


def _definition() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git_sha() -> Optional[str]:
    """HEAD's commit from ``.git`` (no git subprocess: it would search parent dirs)."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _meta(seed: int, seconds: float) -> Dict[str, object]:
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in (REPO / "src").rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_lines": src_lines,
        "seed": seed,
        "seconds": seconds,
    }


def _print_run(run: dict, units: Dict[str, str]) -> None:
    """Every metric as ``workload metric value unit``, then the run's details as comments.

    Metrics of a traced run that ``BENCHMARK.json`` does not declare are the
    layers only some workloads exercise (compare, write, cursor); they print
    here with the rest but stay out of the final JSON line.
    """
    name = run["workload"]
    for metric, value in run["metrics"].items():
        unit = units.get(metric, "ms" if metric.endswith("_ms") else "-")
        print(f"{name} {metric} {value:.6g} {unit}")
    for key, value in run["extra"].items():
        print(f"# {name} {key} {value}")
    print(f"# {name} attempted {run['attempted']} failed {run['failed']} correct {run['correct']}")
    for failure in run["failures"]:
        print(f"# {name} failure: {failure}")


def run(arguments: argparse.Namespace) -> int:
    if not (REPO / "src" / "repro").is_dir():
        print(f"error: no repro sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    from bench.oracle import prepare
    from bench.runner import run_workload
    from bench.spec import workload_names

    definition = _definition()
    declared = definition["per_layer"] if arguments.trace else definition["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    snapshot, oracle = prepare(REPO)
    runs: List[dict] = []
    for name in workload_names(arguments.workload):
        result = run_workload(
            REPO, name, arguments.seed, arguments.seconds, bool(arguments.trace), snapshot, oracle
        )
        _print_run(result, units)
        runs.append(result)
    if arguments.out is not None:
        document = {"meta": _meta(arguments.seed, arguments.seconds), "runs": runs}
        arguments.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")

    def reported(result: dict, prefix: str) -> Dict[str, dict]:
        return {
            prefix + metric: {"value": result["metrics"][metric], "unit": unit}
            for metric, unit in units.items()
        }

    metrics: Dict[str, dict] = {}
    for result in runs:
        metrics.update(reported(result, "" if len(runs) == 1 else result["workload"] + "/"))
    correct = all(result["correct"] for result in runs)
    summary = {
        "correct": correct,
        "attempted": sum(result["attempted"] for result in runs),
        "failed": sum(result["failed"] for result in runs),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


def _load_runs(paths: Sequence[Path], seconds: Set[float]) -> Dict[tuple, List[float]]:
    """Metric values per (workload, metric); adds each run's ``seconds`` to ``seconds``."""
    values: Dict[tuple, List[float]] = {}
    for path in paths:
        document = json.loads(path.read_text(encoding="utf-8"))
        for result in document["runs"]:
            seconds.add(result["seconds"])
            for metric, value in result["metrics"].items():
                values.setdefault((result["workload"], metric), []).append(value)
    return values


def compare(argv: Sequence[str]) -> int:
    from bench.stats import judge, quartiles

    if "--" not in argv:
        print("usage: python -m bench compare A.json [A2.json ...] -- B.json [B2.json ...]")
        return 2
    split = list(argv).index("--")
    seconds: Set[float] = set()
    base = _load_runs([Path(path) for path in argv[:split]], seconds)
    candidate = _load_runs([Path(path) for path in argv[split + 1:]], seconds)
    if len(seconds) > 1:
        # --seconds sizes the measured op list, so such runs did different work.
        print(f"error: the runs were made with different --seconds: {sorted(seconds)}")
        return 2
    definition = _definition()
    widths = (13, 26, 30, 30, 22, 7, 6)
    header = ("workload", "metric", "base median [Q1, Q3]", "candidate median [Q1, Q3]",
              "median change (of base)", "wins", "bound")
    print(" ".join(cell.ljust(width) for cell, width in zip(header, widths)) + " verdict")
    status = 0
    for metric in definition["end_to_end"] + definition["per_layer"]:
        for workload in sorted({key[0] for key in base}):
            key = (workload, metric["name"])
            if key not in base or key not in candidate:
                continue
            bound = metric.get("bound")
            # Set-up time is judged on its median only: boots are short, and
            # their spread across runs exceeds any usable bound.
            verdict = judge(
                base[key], candidate[key], metric["better"], bound or 0.0,
                check_spread=metric["name"] != "setup_s",
            )
            b1, bm, b3 = quartiles(base[key])
            c1, cm, c3 = quartiles(candidate[key])
            cells = (
                workload,
                metric["name"],
                f"{bm:.4g} [{b1:.4g}, {b3:.4g}]",
                f"{cm:.4g} [{c1:.4g}, {c3:.4g}]",
                f"{(cm - bm) / bm:+.1%} (of {bm:.4g})" if bm else "-",
                f"{verdict.wins}/{verdict.pairs}",
                f"{bound:.0%}" if bound is not None else "-",
            )
            label = verdict.verdict if bound is not None else "per-layer: no verdict"
            print(" ".join(cell.ljust(width) for cell, width in zip(cells, widths)) + " " + label)
            if bound is not None and verdict.verdict in ("worse", "unresolved"):
                status = 1
    return status


def _terminate(signum: int, frame: object) -> None:
    # Unwind through the `with server:` blocks, which stop every server started.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=_definition()["run_seconds"],
        help="size of the measured op list (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: replay the closed loop traced and report per-layer metrics",
    )
    parser.add_argument("--out", type=Path, default=None, help="write all runs as JSON here")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
