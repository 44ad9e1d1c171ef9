"""Fixture tests for the static-analysis framework and every project rule.

Each rule gets at least one known-bad snippet that MUST produce a finding
and one known-good snippet that must pass clean, per the adoption contract:
a rule that cannot demonstrate both directions is either vacuous or wrong.
The framework tests cover suppressions, scope tracking, rule selection and
the baseline workflow.
"""

import io
import json
import textwrap
from collections import Counter

import pytest

from repro.analysis import (
    Analyzer,
    Finding,
    apply_baseline,
    default_rules,
    load_baseline,
    registered_rules,
    write_baseline,
)
from repro.analysis.framework import module_name_for, source_root_for
from repro.analysis.runner import main as lint_main
from repro.errors import AnalysisError

EXPECTED_RULES = {
    "layering",
    "error-discipline",
    "lock-discipline",
    "protocol-hygiene",
    "snapshot-determinism",
}


def run(source, module="repro.example", rules=None, path="src/repro/example.py"):
    """Analyze one dedented snippet and return its findings."""
    analyzer = Analyzer(default_rules(rules))
    return analyzer.analyze_source(textwrap.dedent(source), path, module=module)


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


# --------------------------------------------------------------------------- #
# Registry / selection
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_full_battery_is_registered(self):
        assert set(registered_rules()) == EXPECTED_RULES

    def test_rules_carry_id_and_description(self):
        for rule_id, factory in registered_rules().items():
            rule = factory()
            assert rule.rule_id == rule_id
            assert rule.description

    def test_rule_subset_selection(self):
        findings = run(
            """
            from repro.search.engine import create_engine
            raise ValueError("boom")
            """,
            module="repro.storage.corpus",
            rules=["error-discipline"],
        )
        assert rule_ids(findings) == ["error-discipline"]

    def test_unknown_rule_id_is_an_error(self):
        with pytest.raises(AnalysisError):
            default_rules(["no-such-rule"])

    def test_syntax_error_is_an_analysis_error(self):
        with pytest.raises(AnalysisError):
            run("def broken(:\n")


# --------------------------------------------------------------------------- #
# layering
# --------------------------------------------------------------------------- #
class TestLayeringRule:
    def test_upward_import_is_flagged(self):
        findings = run(
            "from repro.search.engine import create_engine\n",
            module="repro.storage.corpus",
        )
        assert rule_ids(findings) == ["layering"]
        assert "strictly down the layer DAG" in findings[0].message

    def test_downward_import_is_clean(self):
        findings = run(
            """
            from repro.storage.corpus import Corpus
            from repro.xmlmodel.node import XmlNode
            from repro.errors import SearchError
            """,
            module="repro.search.engine",
        )
        assert findings == []

    def test_same_rank_peer_import_is_flagged(self):
        findings = run(
            "from repro.entity.identifier import EntityIdentifier\n",
            module="repro.search.engine",
        )
        assert rule_ids(findings) == ["layering"]

    def test_nothing_imports_cli(self):
        findings = run("import repro.cli\n", module="repro.service.service")
        assert rule_ids(findings) == ["layering"]
        assert "nothing may depend on it" in findings[0].message

    def test_package_root_import_is_flagged(self):
        findings = run("import repro\n", module="repro.storage.corpus")
        assert rule_ids(findings) == ["layering"]
        assert "package root" in findings[0].message

    def test_errors_importable_from_everywhere(self):
        findings = run("from repro.errors import ReproError\n", module="repro.xmlmodel.node")
        assert findings == []

    def test_type_checking_imports_are_exempt(self):
        findings = run(
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.search.engine import SearchEngine
            """,
            module="repro.storage.corpus",
        )
        assert findings == []

    def test_relative_import_is_resolved(self):
        # "from ..search import engine" inside repro.storage.corpus resolves
        # to repro.search — still an upward edge.
        findings = run(
            "from ..search import engine\n",
            module="repro.storage.corpus",
        )
        assert rule_ids(findings) == ["layering"]

    def test_foreign_modules_are_ignored(self):
        findings = run("import json\nfrom os import path\n", module="repro.storage.corpus")
        assert findings == []

    def test_files_outside_the_package_are_ignored(self):
        findings = run("from repro.cli import main\n", module="tests.test_cli")
        assert findings == []


# --------------------------------------------------------------------------- #
# error-discipline
# --------------------------------------------------------------------------- #
class TestErrorDisciplineRule:
    def test_builtin_raise_is_flagged(self):
        findings = run('raise ValueError("bad input")\n')
        assert rule_ids(findings) == ["error-discipline"]
        assert "ValueError" in findings[0].message

    def test_bare_except_is_flagged(self):
        findings = run(
            """
            try:
                work()
            except:
                pass
            """
        )
        assert rule_ids(findings) == ["error-discipline"]
        assert "bare 'except:'" in findings[0].message

    def test_typed_raise_is_clean(self):
        findings = run(
            """
            from repro.errors import StorageError

            def load(path):
                raise StorageError(f"cannot load {path}")
            """
        )
        assert findings == []

    def test_reraise_and_variable_raise_are_clean(self):
        findings = run(
            """
            def forward(error):
                try:
                    work()
                except Exception:
                    raise
                raise error
            """
        )
        assert findings == []

    def test_code_outside_repro_may_raise_builtins(self):
        findings = run('raise ValueError("fine in a test")\n', module="tests.helpers")
        assert findings == []


# --------------------------------------------------------------------------- #
# lock-discipline
# --------------------------------------------------------------------------- #
LOCKED_CLASS_BAD = """
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def increment(self):
        with self._lock:
            self._count += 1

    def reset(self):
        self._count = 0
"""

LOCKED_CLASS_GOOD = """
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def increment(self):
        with self._lock:
            self._count += 1

    def reset(self):
        with self._lock:
            self._count = 0
"""


class TestLockDisciplineRule:
    def test_unguarded_write_is_flagged(self):
        findings = run(LOCKED_CLASS_BAD)
        assert rule_ids(findings) == ["lock-discipline"]
        assert "Counter.reset" in findings[0].message
        assert "self._count" in findings[0].message

    def test_guarded_writes_are_clean(self):
        assert run(LOCKED_CLASS_GOOD) == []

    def test_init_is_exempt(self):
        # __init__ writes self._count without the lock in both fixtures and
        # is never flagged: construction is single-threaded by contract.
        findings = run(LOCKED_CLASS_BAD)
        assert all("__init__" not in finding.message for finding in findings)

    def test_locked_suffix_methods_are_exempt(self):
        findings = run(LOCKED_CLASS_BAD.replace("def reset(", "def reset_locked("))
        assert findings == []

    def test_subscript_mutation_is_a_write(self):
        findings = run(
            """
            import threading


            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def put(self, key, value):
                    with self._lock:
                        self._entries[key] = value

                def evict(self, key):
                    del self._entries[key]
            """
        )
        assert rule_ids(findings) == ["lock-discipline"]
        assert "Cache.evict" in findings[0].message

    def test_class_without_lock_is_ignored(self):
        findings = run(
            """
            class Plain:
                def __init__(self):
                    self._count = 0

                def reset(self):
                    self._count = 0
            """
        )
        assert findings == []

    def test_attribute_never_guarded_is_not_flagged(self):
        # An attribute no method ever touches under the lock is not guarded
        # state — flagging it would make the rule fire on every attribute of
        # any class that happens to own a lock.
        findings = run(
            """
            import threading


            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._shared = 0
                    self._label = ""

                def bump(self):
                    with self._lock:
                        self._shared += 1

                def rename(self, label):
                    self._label = label
            """
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# protocol-hygiene
# --------------------------------------------------------------------------- #
class TestProtocolHygieneRule:
    def test_half_codec_is_flagged(self):
        findings = run(
            """
            from dataclasses import dataclass


            @dataclass
            class SearchRequest:
                query: str

                def to_dict(self):
                    return {"query": self.query}
            """,
            module="repro.service.protocol",
        )
        assert rule_ids(findings) == ["protocol-hygiene"]
        assert "from_dict" in findings[0].message

    def test_full_codec_is_clean(self):
        findings = run(
            """
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class SearchRequest:
                query: str

                def to_dict(self):
                    return {"query": self.query}

                @classmethod
                def from_dict(cls, data):
                    return cls(query=data["query"])
            """,
            module="repro.service.protocol",
        )
        assert findings == []

    def test_non_dataclass_is_ignored(self):
        findings = run(
            """
            class Helper:
                pass
            """,
            module="repro.service.protocol",
        )
        assert findings == []

    def test_dataclasses_elsewhere_are_ignored(self):
        findings = run(
            """
            from dataclasses import dataclass


            @dataclass
            class Internal:
                value: int
            """,
            module="repro.core.config",
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# snapshot-determinism
# --------------------------------------------------------------------------- #
class TestSnapshotDeterminismRule:
    def test_time_import_is_flagged(self):
        findings = run("import time\n", module="repro.storage.snapshot")
        assert rule_ids(findings) == ["snapshot-determinism"]

    def test_from_import_is_flagged(self):
        findings = run(
            "from datetime import datetime\n", module="repro.storage.snapshot"
        )
        assert rule_ids(findings) == ["snapshot-determinism"]

    def test_attribute_call_is_flagged(self):
        # A smuggled attribute reference (module object passed in, aliased,
        # re-exported...) still shows up as a time.* / random.* call site.
        findings = run(
            """
            def stamp(time):
                return time.time()
            """,
            module="repro.storage.snapshot",
        )
        assert rule_ids(findings) == ["snapshot-determinism"]
        assert "time.time()" in findings[0].message

    def test_deterministic_imports_are_clean(self):
        findings = run(
            "import struct\nimport zlib\n", module="repro.storage.snapshot"
        )
        assert findings == []

    def test_other_storage_modules_may_use_time(self):
        findings = run("import time\n", module="repro.storage.corpus")
        assert findings == []


# --------------------------------------------------------------------------- #
# Suppressions and scope handling
# --------------------------------------------------------------------------- #
class TestSuppressions:
    def test_same_line_suppression(self):
        findings = run(
            'raise ValueError("known")  # repro: ignore[error-discipline]\n'
        )
        assert findings == []

    def test_standalone_suppression_covers_next_line(self):
        findings = run(
            """
            # repro: ignore[error-discipline]
            raise ValueError("known")
            """
        )
        assert findings == []

    def test_suppression_is_rule_specific(self):
        findings = run(
            'raise ValueError("known")  # repro: ignore[layering]\n'
        )
        assert rule_ids(findings) == ["error-discipline"]

    def test_multiple_rule_ids_in_one_comment(self):
        findings = run(
            "from repro.search.engine import create_engine"
            "  # repro: ignore[layering, error-discipline]\n",
            module="repro.storage.corpus",
        )
        assert findings == []

    def test_suppression_inside_string_literal_is_inert(self):
        # The marker is found with tokenize, so text inside a string literal
        # never suppresses anything.
        findings = run(
            'MESSAGE = "# repro: ignore[error-discipline]"\n'
            'raise ValueError("boom")\n'
        )
        assert rule_ids(findings) == ["error-discipline"]

    def test_unsuppressed_line_still_fires(self):
        findings = run(
            """
            raise ValueError("first")  # repro: ignore[error-discipline]
            raise ValueError("second")
            """
        )
        assert len(findings) == 1
        assert findings[0].line == 3


class TestScopeAndPaths:
    def test_findings_are_sorted_and_carry_locations(self):
        findings = run(
            """
            import repro.cli
            raise ValueError("late")
            """,
            module="repro.storage.corpus",
        )
        assert [finding.line for finding in findings] == [2, 3]
        assert all(finding.file == "src/repro/example.py" for finding in findings)
        text = findings[0].format()
        assert text.startswith("src/repro/example.py:2: [layering]")

    def test_module_name_resolution(self, tmp_path):
        package = tmp_path / "src" / "repro" / "storage"
        package.mkdir(parents=True)
        for directory in (tmp_path / "src" / "repro", package):
            (directory / "__init__.py").write_text("")
        target = package / "corpus.py"
        target.write_text("import json\n")
        assert source_root_for(target) == tmp_path / "src"
        assert module_name_for(target, tmp_path / "src") == "repro.storage.corpus"
        assert (
            module_name_for(package / "__init__.py", tmp_path / "src")
            == "repro.storage"
        )


# --------------------------------------------------------------------------- #
# Baseline workflow
# --------------------------------------------------------------------------- #
class TestBaseline:
    def finding(self, message="raises builtin ValueError", line=10):
        return Finding(
            file="src/repro/old.py", line=line, rule_id="error-discipline", message=message
        )

    def test_missing_file_is_empty_baseline(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == Counter()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline([self.finding()], path)
        baseline = load_baseline(path)
        assert baseline == Counter({self.finding().baseline_key(): 1})

    def test_baselined_finding_is_absorbed_despite_line_shift(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline([self.finding(line=10)], path)
        new, stale = apply_baseline([self.finding(line=99)], load_baseline(path))
        assert new == []
        assert stale == []

    def test_new_finding_is_reported(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline([self.finding()], path)
        fresh = self.finding(message="raises builtin KeyError")
        new, stale = apply_baseline([self.finding(), fresh], load_baseline(path))
        assert new == [fresh]
        assert stale == []

    def test_fixed_finding_leaves_stale_entry(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline([self.finding()], path)
        new, stale = apply_baseline([], load_baseline(path))
        assert new == []
        assert stale == [self.finding().baseline_key()]

    def test_baseline_is_a_multiset(self):
        baseline = Counter({self.finding().baseline_key(): 1})
        duplicates = [self.finding(line=10), self.finding(line=20)]
        new, stale = apply_baseline(duplicates, baseline)
        assert len(new) == 1  # one absorbed, the second is new

    def test_malformed_baseline_is_an_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"findings": "nope"}))
        with pytest.raises(AnalysisError):
            load_baseline(path)


# --------------------------------------------------------------------------- #
# The lint front-end over a temporary tree
# --------------------------------------------------------------------------- #
class TestLintRunner:
    def make_tree(self, tmp_path, corpus_body):
        package = tmp_path / "src" / "repro" / "storage"
        package.mkdir(parents=True)
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "corpus.py").write_text(textwrap.dedent(corpus_body))
        return tmp_path / "src"

    def test_findings_fail_and_update_baseline_grandfathers(self, tmp_path):
        source_dir = self.make_tree(
            tmp_path, "from repro.search.engine import create_engine\n"
        )
        baseline = tmp_path / "baseline.json"
        out = io.StringIO()
        assert lint_main([str(source_dir), "--baseline", str(baseline)], out=out) == 1
        assert "[layering]" in out.getvalue()

        assert (
            lint_main(
                [str(source_dir), "--baseline", str(baseline), "--update-baseline"],
                out=io.StringIO(),
            )
            == 0
        )
        out = io.StringIO()
        assert lint_main([str(source_dir), "--baseline", str(baseline)], out=out) == 0
        assert "1 baselined" in out.getvalue()

    def test_clean_tree_passes(self, tmp_path):
        source_dir = self.make_tree(tmp_path, "import json\n")
        out = io.StringIO()
        code = lint_main(
            [str(source_dir), "--baseline", str(tmp_path / "baseline.json")], out=out
        )
        assert code == 0
        assert "clean" in out.getvalue()

    def test_stale_baseline_entry_fails(self, tmp_path):
        source_dir = self.make_tree(
            tmp_path, "from repro.search.engine import create_engine\n"
        )
        baseline = tmp_path / "baseline.json"
        lint_main(
            [str(source_dir), "--baseline", str(baseline), "--update-baseline"],
            out=io.StringIO(),
        )
        # Fix the finding: its baseline entry goes stale and must fail the run.
        (source_dir / "repro" / "storage" / "corpus.py").write_text("import json\n")
        out = io.StringIO()
        assert lint_main([str(source_dir), "--baseline", str(baseline)], out=out) == 1
        assert "stale" in out.getvalue()

    def test_json_report(self, tmp_path):
        source_dir = self.make_tree(tmp_path, 'raise ValueError("boom")\n')
        out = io.StringIO()
        code = lint_main(
            [
                str(source_dir),
                "--baseline",
                str(tmp_path / "baseline.json"),
                "--format",
                "json",
            ],
            out=out,
        )
        assert code == 1
        report = json.loads(out.getvalue())
        assert report["findings"][0]["rule"] == "error-discipline"
        assert report["stale_baseline_entries"] == []

    def test_list_rules(self, tmp_path):
        out = io.StringIO()
        assert lint_main(["--list-rules"], out=out) == 0
        listed = {line.split(":")[0] for line in out.getvalue().splitlines()}
        assert listed == EXPECTED_RULES

    def test_missing_target_is_a_usage_error(self, tmp_path):
        out = io.StringIO()
        assert lint_main([str(tmp_path / "nowhere.py")], out=out) == 2
        assert "error:" in out.getvalue()
