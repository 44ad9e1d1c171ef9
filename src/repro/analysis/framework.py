"""The analyzer core: rule protocol, registry, and the per-file AST walk.

One :class:`Analyzer` holds a list of :class:`Rule` instances and runs them
over Python sources.  Each file is parsed once and walked once; the walker
tracks whether it is inside an ``if typing.TYPE_CHECKING:`` block and
dispatches every AST node to every rule that declared interest in its type.
Rules report through :meth:`FileContext.report`, which applies inline
suppressions (``# repro: ignore[rule-id]`` on the flagged line, or alone on
the line directly above) before a :class:`~repro.analysis.findings.Finding`
is recorded — a suppressed finding never reaches the baseline or the report.

Rules are registered in a module-level registry keyed by ``rule_id`` so the
CLI can enable subsets by name and the documentation can enumerate the
catalogue; :func:`default_rules` instantiates the full battery.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.analysis.findings import Finding
from repro.errors import AnalysisError

__all__ = [
    "Rule",
    "Scope",
    "FileContext",
    "Analyzer",
    "register_rule",
    "registered_rules",
    "default_rules",
    "module_name_for",
    "source_root_for",
]

#: ``# repro: ignore[rule-a,rule-b]`` — the inline suppression syntax.
_SUPPRESSION_PATTERN = re.compile(r"#\s*repro:\s*ignore\[([A-Za-z0-9_,\- ]+)\]")


@dataclass(frozen=True)
class Scope:
    """Where the node currently being visited sits.

    ``type_checking`` is true inside ``if typing.TYPE_CHECKING:`` blocks,
    where imports exist for annotations only and never execute at runtime.
    """

    type_checking: bool = False


class FileContext:
    """Everything a rule may need about the file under analysis."""

    def __init__(self, path: str, module: str, source: str, tree: ast.Module):
        #: Repo-relative POSIX path, e.g. ``src/repro/storage/corpus.py``.
        self.path = path
        #: Dotted module name, e.g. ``repro.storage.corpus``.
        self.module = module
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self._suppressions = _collect_suppressions(source)
        self.findings: List[Finding] = []

    def report(self, rule_id: str, line: int, message: str) -> None:
        """Record one finding unless an inline suppression covers it."""
        suppressed = self._suppressions.get(line, ())
        if rule_id in suppressed or "*" in suppressed:
            return
        self.findings.append(Finding(file=self.path, line=line, rule_id=rule_id, message=message))

    def is_module(self, *names: str) -> bool:
        """True when the file is one of the given dotted modules."""
        return self.module in names


def _collect_suppressions(source: str) -> Dict[int, Tuple[str, ...]]:
    """Map line number -> rule ids suppressed on that line.

    Comments are found with :mod:`tokenize` so the pattern is never matched
    inside string literals.  A suppression comment that has the whole line to
    itself also covers the *next* line, for statements too long to share a
    line with their annotation.
    """
    suppressed: Dict[int, Tuple[str, ...]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return suppressed
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESSION_PATTERN.search(token.string)
        if match is None:
            continue
        rule_ids = tuple(part.strip() for part in match.group(1).split(",") if part.strip())
        line = token.start[0]
        standalone = token.line[: token.start[1]].strip() == ""
        suppressed[line] = suppressed.get(line, ()) + rule_ids
        if standalone:
            suppressed[line + 1] = suppressed.get(line + 1, ()) + rule_ids
    return suppressed


class Rule:
    """Base class of every analysis rule.

    Subclasses set ``rule_id`` and ``description``, declare the AST node
    types they want in ``interests`` and implement :meth:`visit`.  The
    optional :meth:`begin_file` / :meth:`finish_file` hooks bracket the walk
    for rules that accumulate per-file state.
    """

    rule_id: str = ""
    description: str = ""
    #: Node types dispatched to :meth:`visit`; empty means every node.
    interests: Tuple[Type[ast.AST], ...] = ()

    def begin_file(self, context: FileContext) -> None:
        """Called before the walk of each file."""

    def visit(self, node: ast.AST, scope: Scope, context: FileContext) -> None:
        """Called for every node whose type is in ``interests``."""

    def finish_file(self, context: FileContext) -> None:
        """Called after the walk of each file."""


_REGISTRY: Dict[str, Callable[[], Rule]] = {}


def register_rule(factory: Callable[[], Rule]) -> Callable[[], Rule]:
    """Class decorator: add a rule to the global registry by its ``rule_id``."""
    probe = factory()
    if not probe.rule_id:
        raise AnalysisError(f"rule {factory!r} does not define a rule_id")
    if probe.rule_id in _REGISTRY:
        raise AnalysisError(f"duplicate rule id {probe.rule_id!r}")
    _REGISTRY[probe.rule_id] = factory
    return factory


def registered_rules() -> Dict[str, Callable[[], Rule]]:
    """The registry: rule id -> factory.  Importing the rules package fills it."""
    # Imported here (not at module top) so framework <-> rules stays acyclic:
    # rule modules import this module for the Rule base class.
    import repro.analysis.rules  # noqa: F401  (import populates the registry)

    return dict(_REGISTRY)


def default_rules(only: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the registered battery, optionally restricted to ``only``."""
    registry = registered_rules()
    if only is None:
        selected = sorted(registry)
    else:
        unknown = sorted(set(only) - set(registry))
        if unknown:
            raise AnalysisError(
                f"unknown rule id(s) {', '.join(unknown)}; "
                f"registered: {', '.join(sorted(registry))}"
            )
        selected = list(only)
    return [registry[rule_id]() for rule_id in selected]


def source_root_for(path: Path) -> Path:
    """The directory containing the top-level package of ``path``.

    Walks up while the parent directory is itself a package (has an
    ``__init__.py``): for ``src/repro/storage/corpus.py`` that yields
    ``src``, so the module name resolves to ``repro.storage.corpus``
    regardless of the working directory the analyzer was invoked from.
    """
    directory = path.resolve().parent
    while (directory / "__init__.py").exists() and directory.parent != directory:
        directory = directory.parent
    return directory


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name of ``path`` relative to the source root.

    ``root`` is the directory that *contains* the top-level package (e.g.
    ``src``); ``src/repro/storage/corpus.py`` becomes ``repro.storage.corpus``
    and package ``__init__`` files name the package itself.
    """
    relative = path.resolve().relative_to(root.resolve())
    parts = list(relative.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class Analyzer:
    """Runs a battery of rules over files, one parse and one walk per file."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules = list(rules)

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def analyze_source(self, source: str, path: str, module: Optional[str] = None) -> List[Finding]:
        """Analyze one in-memory source (the unit-test entry point)."""
        if module is None:
            module = Path(path).stem
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise AnalysisError(f"{path}: cannot parse: {exc}") from exc
        context = FileContext(path=path, module=module, source=source, tree=tree)
        self._run_file(context)
        return sorted(context.findings)

    def analyze_file(self, path: Path, root: Optional[Path] = None) -> List[Finding]:
        """Analyze one file on disk.

        ``root`` (the directory containing the top-level package) defaults to
        walking up past package ``__init__.py`` files; findings report the
        path relative to the working directory when possible.
        """
        if root is None:
            root = source_root_for(path)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise AnalysisError(f"cannot read {path}: {exc}") from exc
        resolved = path.resolve()
        try:
            display = resolved.relative_to(Path.cwd()).as_posix()
        except ValueError:
            display = resolved.as_posix()
        return self.analyze_source(source, display, module=module_name_for(path, root))

    def analyze_paths(self, paths: Iterable[Path]) -> List[Finding]:
        """Analyze files and directories (recursing into ``*.py``), sorted output."""
        findings: List[Finding] = []
        for target in paths:
            if target.is_dir():
                for file_path in sorted(target.rglob("*.py")):
                    findings.extend(self.analyze_file(file_path))
            elif target.suffix == ".py" and target.exists():
                findings.extend(self.analyze_file(target))
            else:
                raise AnalysisError(f"not a Python file or directory: {target}")
        return sorted(findings)

    # ------------------------------------------------------------------ #
    # The walk
    # ------------------------------------------------------------------ #
    def _run_file(self, context: FileContext) -> None:
        for rule in self.rules:
            rule.begin_file(context)
        module_scope = Scope()
        for node in context.tree.body:
            self._visit(node, module_scope, context)
        for rule in self.rules:
            rule.finish_file(context)

    def _dispatch(self, node: ast.AST, scope: Scope, context: FileContext) -> None:
        for rule in self.rules:
            if not rule.interests or isinstance(node, rule.interests):
                rule.visit(node, scope, context)

    def _visit(self, node: ast.AST, scope: Scope, context: FileContext) -> None:
        self._dispatch(node, scope, context)
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            guarded = Scope(type_checking=True)
            self._visit(node.test, scope, context)
            for child in node.body:
                self._visit(child, guarded, context)
            for child in node.orelse:
                self._visit(child, scope, context)
        else:
            for child in ast.iter_child_nodes(node):
                self._visit(child, scope, context)


def _is_type_checking_test(test: ast.expr) -> bool:
    """Match ``if TYPE_CHECKING:`` and ``if typing.TYPE_CHECKING:``."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False
