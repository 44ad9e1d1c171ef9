"""Tests for the command-line interface and the experiment export helpers."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ExperimentError
from repro.experiments.export import read_json, rows_to_dicts, write_csv, write_json
from repro.experiments.figure4 import Figure4Row


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        arguments = parser.parse_args(["search", "--query", "gps"])
        assert arguments.command == "search"
        assert arguments.dataset == "products"

    def test_compare_defaults(self):
        arguments = build_parser().parse_args(["compare", "--query", "gps"])
        assert arguments.top == 2
        assert arguments.size_limit == 5
        assert arguments.algorithm == "multi_swap"
        assert arguments.format == "text"

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--dataset", "nope", "--query", "x"])

    def test_negative_limit_rejected(self):
        # Regression: a negative --limit used to reach the engine and slice
        # results from the wrong end; argparse now rejects it up front.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--query", "gps", "--limit", "-1"])

    def test_negative_top_rejected(self):
        # Same bug class on the compare side: --top -1 used to silently
        # compare all-but-the-last result.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--query", "gps", "--top", "-1"])

    def test_zero_and_positive_limits_accepted(self):
        assert build_parser().parse_args(["search", "--query", "gps", "--limit", "0"]).limit == 0
        assert build_parser().parse_args(["search", "--query", "gps", "--limit", "3"]).limit == 3

    def test_save_snapshot_subcommand_registered(self):
        arguments = build_parser().parse_args(["save-snapshot", "--output", "x.snap"])
        assert arguments.command == "save-snapshot"
        assert arguments.output == "x.snap"
        assert arguments.dataset == "products"

    def test_serve_subcommand_registered(self):
        arguments = build_parser().parse_args(["serve", "--port", "0"])
        assert arguments.command == "serve"
        assert arguments.host == "127.0.0.1"
        assert arguments.port == 0
        assert arguments.page_size == 10
        assert arguments.dataset == "products"

    def test_serve_rejects_bad_page_size(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--page-size", "0"])

    def test_semantics_flag(self):
        arguments = build_parser().parse_args(["search", "--query", "gps", "--semantics", "elca"])
        assert arguments.semantics == "elca"
        # Unspecified stays None at parse time: the command resolves it to
        # "slca", or "slca_struct" when a structural constraint is present.
        assert build_parser().parse_args(["search", "--query", "gps"]).semantics is None

    def test_structural_flags(self):
        arguments = build_parser().parse_args(
            [
                "search", "--query", "gps",
                "--within", "product", "--within", "reviews/review",
                "--axis", "descendant", "--axis-tag", "pros",
            ]
        )
        assert arguments.within == ["product", "reviews/review"]
        assert arguments.axis == "descendant"
        assert arguments.axis_tag == "pros"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--query", "gps", "--axis", "sideways"])

    def test_explicit_corpus_source_conflicts_rejected(self):
        # Regression: --dataset used to be silently ignored when --corpus-dir
        # or --snapshot was also given; the three sources are now a proper
        # mutually exclusive choice.
        for command in (["search", "--query", "gps"], ["save-snapshot", "--output", "o"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    command + ["--dataset", "imdb", "--snapshot", "x.snap"]
                )
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    command + ["--dataset", "imdb", "--corpus-dir", "somewhere"]
                )
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    command + ["--corpus-dir", "somewhere", "--snapshot", "x.snap"]
                )

    def test_default_dataset_does_not_conflict(self):
        # The default --dataset must keep working when another source is
        # chosen explicitly — only *explicit* conflicts are errors.
        arguments = build_parser().parse_args(["search", "--query", "gps", "--snapshot", "x.snap"])
        assert arguments.snapshot == "x.snap"
        arguments = build_parser().parse_args(["search", "--query", "gps", "--corpus-dir", "d"])
        assert arguments.corpus_dir == "d"


class TestCliOnSavedCorpus:
    @pytest.fixture(scope="class")
    def corpus_dir(self, tmp_path_factory):
        # Save the small generated corpus once so CLI runs stay fast.
        from repro.datasets.product_reviews import ProductReviewsConfig, generate_product_reviews_corpus

        corpus = generate_product_reviews_corpus(
            ProductReviewsConfig(products_per_category=2, min_reviews=4, max_reviews=10, seed=21)
        )
        directory = tmp_path_factory.mktemp("corpus")
        corpus.store.save_to_directory(directory)
        return directory

    def test_search_command(self, corpus_dir):
        out = io.StringIO()
        code = main(["search", "--corpus-dir", str(corpus_dir), "--query", "gps"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "result(s) for query" in text
        assert "[R1]" in text

    def test_compare_command_text(self, corpus_dir):
        out = io.StringIO()
        code = main(
            [
                "compare",
                "--corpus-dir",
                str(corpus_dir),
                "--query",
                "gps",
                "--top",
                "2",
                "--size-limit",
                "4",
            ],
            out=out,
        )
        assert code == 0
        assert "Degree of differentiation" in out.getvalue()

    def test_compare_command_html_to_file(self, corpus_dir, tmp_path):
        output = tmp_path / "table.html"
        out = io.StringIO()
        code = main(
            [
                "compare",
                "--corpus-dir",
                str(corpus_dir),
                "--query",
                "gps",
                "--format",
                "html",
                "--output",
                str(output),
            ],
            out=out,
        )
        assert code == 0
        assert output.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
        assert "written to" in out.getvalue()

    def test_error_paths_return_nonzero(self, corpus_dir):
        out = io.StringIO()
        code = main(
            ["compare", "--corpus-dir", str(corpus_dir), "--query", "zzznotindexed"],
            out=out,
        )
        assert code == 1
        assert "error:" in out.getvalue()

    def test_search_with_unknown_semantics_reports_error(self, corpus_dir):
        out = io.StringIO()
        code = main(
            ["search", "--corpus-dir", str(corpus_dir), "--query", "gps", "--semantics", "nope"],
            out=out,
        )
        assert code == 1
        assert "unknown result semantics" in out.getvalue()

    @pytest.mark.parametrize("signal_name", ["SIGINT", "SIGTERM"])
    def test_serve_command_end_to_end(self, corpus_dir, signal_name):
        # Boot the real `serve` subcommand in a subprocess (port 0 = pick a
        # free port), hit /healthz and /search over real sockets, then stop
        # it the way Ctrl-C or a service manager does and check the orderly
        # shutdown ran: exit 0 and a log that surfaces the cache counters.
        import json
        import os
        import re
        import signal
        import subprocess
        import sys
        import threading
        import urllib.request
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--corpus-dir",
                str(corpus_dir),
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=str(repo_root),
        )
        lines = []

        def read_line():
            lines.append(process.stdout.readline())

        try:
            reader = threading.Thread(target=read_line, daemon=True)
            reader.start()
            reader.join(timeout=60)
            assert lines and lines[0], "serve did not print its listening line"
            match = re.search(r"http://[^:]+:(\d+)", lines[0])
            assert match, f"no port in serve banner: {lines[0]!r}"
            base = f"http://127.0.0.1:{match.group(1)}"
            with urllib.request.urlopen(f"{base}/healthz", timeout=10) as response:
                assert json.loads(response.read())["status"] == "ok"
            with urllib.request.urlopen(f"{base}/search?q=gps&page_size=1", timeout=10) as response:
                payload = json.loads(response.read())
            assert payload["items"][0]["result_id"] == "R1"
        finally:
            process.send_signal(getattr(signal, signal_name))
            try:
                remaining, _ = process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                remaining, _ = process.communicate()
        assert process.returncode == 0
        assert "cache:" in remaining  # shutdown log surfaces hit/miss counters

    def test_sigterm_keeps_writes_acknowledged_during_a_snapshot(self, corpus_dir, tmp_path):
        # A write installed while a background save runs must reach disk
        # even when no later write comes: the snapshot thread saves again
        # once its save ends, and SIGTERM waits for it.  Saves are slowed to
        # 2 s so the second write lands inside the first save.
        import json
        import os
        import re
        import signal
        import subprocess
        import sys
        import threading
        import urllib.request
        from pathlib import Path

        from repro.storage.corpus import Corpus

        snapshot = tmp_path / "live.snap"
        script = (
            "import sys, time\n"
            "import repro.storage.snapshot as snapshot\n"
            "from repro.cli import main\n"
            "save = snapshot.save_corpus\n"
            "def slow_save(*args, **kwargs):\n"
            "    time.sleep(2)\n"
            "    return save(*args, **kwargs)\n"
            "snapshot.save_corpus = slow_save\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-c", script, "serve", "--corpus-dir", str(corpus_dir),
                "--port", "0", "--writable", "--snapshot-every", "1",
                "--snapshot-path", str(snapshot),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=str(repo_root),
        )
        lines = []

        def read_line():
            lines.append(process.stdout.readline())

        acknowledged = []
        try:
            reader = threading.Thread(target=read_line, daemon=True)
            reader.start()
            reader.join(timeout=60)
            assert lines and lines[0], "serve did not print its listening line"
            match = re.search(r"http://[^:]+:(\d+)", lines[0])
            assert match, f"no port in serve banner: {lines[0]!r}"
            for doc_id in ("late-1", "late-2"):
                body = json.dumps(
                    {"doc_id": doc_id, "xml": f"<product><name>{doc_id} GPS</name></product>"}
                ).encode()
                request = urllib.request.Request(
                    f"http://127.0.0.1:{match.group(1)}/documents", data=body, method="POST"
                )
                with urllib.request.urlopen(request, timeout=10) as response:
                    assert response.status == 201
                    acknowledged.append(json.loads(response.read())["corpus_version"])
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                remaining, _ = process.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                remaining, _ = process.communicate()
        assert process.returncode == 0, remaining
        assert re.search(r"^served .* request\(s\)", remaining, re.MULTILINE), remaining
        saved = Corpus.load(snapshot)
        assert saved.version == acknowledged[-1], (
            f"snapshot stopped at version {saved.version}, acknowledged {acknowledged[-1]}"
        )
        assert {"late-1", "late-2"} <= set(saved.store.document_ids())

    def test_serve_waits_for_background_snapshot_on_interrupt(
        self, corpus_dir, tmp_path, monkeypatch
    ):
        # Regression: a Ctrl-C while the background snapshot was writing
        # returned at once, and the daemon save died with the process, losing
        # a mutation that had already been answered 201.
        import time

        import repro.cli
        from repro.service.protocol import IngestRequest
        from repro.storage.corpus import Corpus

        snapshot = tmp_path / "live.snap"
        save = Corpus.save

        def slow_save(self, path, **kwargs):
            time.sleep(0.5)
            return save(self, path, **kwargs)

        class InterruptedServer:
            server_address = ("127.0.0.1", 0)

            def __init__(self, service):
                self.service = service

            def serve_forever(self):
                self.service.ingest(
                    IngestRequest(doc_id="late", xml="<product><name>Late GPS</name></product>")
                )
                raise KeyboardInterrupt

            def server_close(self):
                pass

        monkeypatch.setattr(Corpus, "save", slow_save)
        monkeypatch.setattr(
            repro.cli, "create_server", lambda service, **_: InterruptedServer(service)
        )
        code = main(
            [
                "serve",
                "--corpus-dir",
                str(corpus_dir),
                "--writable",
                "--snapshot-every",
                "1",
                "--snapshot-path",
                str(snapshot),
            ],
            out=io.StringIO(),
        )
        assert code == 0
        assert snapshot.exists()
        assert "late" in Corpus.load(snapshot).store


def sample_rows():
    return [
        Figure4Row("QM1", 8, 10, 12, 0.01, 0.02),
        Figure4Row("QM2", 8, 9, 9, 0.015, 0.018),
    ]


class TestExport:
    def test_rows_to_dicts_accepts_objects_and_mappings(self):
        dictionaries = rows_to_dicts(sample_rows() + [{"query": "extra", "dod_multi_swap": 1}])
        assert dictionaries[0]["query"] == "QM1"
        assert dictionaries[-1]["query"] == "extra"
        with pytest.raises(ExperimentError):
            rows_to_dicts([object()])

    def test_write_csv_round_trip(self, tmp_path):
        path = write_csv(sample_rows(), tmp_path / "figure4.csv")
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("query,")
        assert len(lines) == 3

    def test_write_csv_rejects_empty(self, tmp_path):
        with pytest.raises(ExperimentError):
            write_csv([], tmp_path / "empty.csv")

    def test_write_and_read_json(self, tmp_path):
        path = write_json(sample_rows(), tmp_path / "figure4.json")
        rows = read_json(path)
        assert len(rows) == 2
        assert rows[0]["query"] == "QM1"

    def test_read_json_rejects_non_array(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not": "a list"}), encoding="utf-8")
        with pytest.raises(ExperimentError):
            read_json(path)

    def test_union_of_keys_in_csv(self, tmp_path):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        path = write_csv(rows, tmp_path / "union.csv")
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "a,b"
