"""Rule framework: registry, module model, two-phase driver, reporters.

Rules come in two shapes.  A per-module :class:`Rule` walks one file's
AST (``check_module``).  A whole-program :class:`ProjectRule` consumes
the merged :class:`~repro.staticcheck.facts.ProjectFacts` base
(``check_project``) — the import-graph rules and the new registry /
async contract passes, which need every file's facts at once.

The driver runs in two phases:

* **Phase 1** — each file is parsed once, serially, and its node list
  (one ``ast.walk``, kept on :class:`ModuleInfo`) is shared by the fact
  collectors and the selected per-module rules.
* **Phase 2** — project rules run over the merged fact base, then the
  engine-level ``SUP-UNUSED`` pass (suppression comments that no
  longer suppress anything).

Exit-code semantics (used by the CLI and CI):

* ``0`` — no unsuppressed findings,
* ``1`` — at least one finding,
* ``2`` — usage or I/O error (unknown rule id, unreadable path).
"""

from __future__ import annotations

import ast
import fnmatch
import json
import os
import re
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.staticcheck.facts import FileFacts, ProjectFacts, collect_facts

#: Inline suppression syntax:  ``# staticcheck: ignore[RULE-A,RULE-B]``
#: (suppresses the named rules on that line) or the blanket
#: ``# staticcheck: ignore`` (suppresses every rule on that line).
_SUPPRESS_RE = re.compile(
    r"#\s*staticcheck:\s*ignore(?:\[([A-Za-z0-9_\-, ]+)\])?")

#: Fixture/override syntax:  ``# staticcheck: module=repro.core.example``
#: pins the dotted module name (and hence the package scope) of a file
#: that does not live under a ``repro/`` source root — used by the test
#: fixtures and usable by out-of-tree scripts that want scoped rules.
#: Honored only within the first few lines (a coding-cookie, so marker
#: text quoted deeper in a file — e.g. in tests — cannot hijack it).
_MODULE_RE = re.compile(r"#\s*staticcheck:\s*module=([A-Za-z0-9_.]+)")
_MODULE_OVERRIDE_MAX_LINE = 5


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: str = "error"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
        }

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} {self.message}")


@dataclass
class ModuleInfo:
    """One parsed source file plus the derived metadata rules need."""

    path: str                      # path as reported in findings
    source: str
    tree: ast.Module
    #: ``list(ast.walk(tree))``, walked once at parse time: rules and
    #: fact collectors that scan the whole file iterate this list.
    nodes: List[ast.AST]
    #: Dotted module name when the file resolves under a ``repro``
    #: source root (or carries a ``# staticcheck: module=`` override),
    #: else None.  ``repro/curves/__init__.py`` → ``repro.curves``.
    module: Optional[str] = None
    #: First component under ``repro`` ("curves", "core", …); the bare
    #: package itself ("repro") for the top-level ``__init__``; None
    #: for files outside the package (tests, scripts).
    package: Optional[str] = None
    #: line number → frozenset of suppressed rule ids, or None for the
    #: blanket ``ignore`` (all rules suppressed on that line).
    suppressions: Dict[int, Optional[FrozenSet[str]]] = field(
        default_factory=dict)

    def suppressed(self, line: int, rule_id: str) -> bool:
        if line not in self.suppressions:
            return False
        ids = self.suppressions[line]
        return ids is None or rule_id in ids

    def facts(self) -> FileFacts:
        """Phase-1 fact summary of this module."""
        return collect_facts(self.tree, self.nodes, self.path,
                             self.module, self.package, self.suppressions)


class Rule:
    """Base class: one named check over a single module's AST.

    ``scope`` restricts a rule to modules whose :attr:`ModuleInfo.package`
    is listed; ``None`` applies everywhere (including files outside the
    ``repro`` tree).  Scoped rules never fire on files whose package is
    unknown.
    """

    id: str = ""
    title: str = ""
    scope: Optional[FrozenSet[str]] = None

    def applies_to(self, module: ModuleInfo) -> bool:
        if self.scope is None:
            return True
        return module.package is not None and module.package in self.scope

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()


class ProjectRule(Rule):
    """A rule that needs the whole-program fact base at once."""

    def check_project(self, project: ProjectFacts) -> Iterable[Finding]:
        return ()


class EnginePass(Rule):
    """Marker for checks implemented inside the driver itself (e.g.
    ``SUP-UNUSED``, which must observe which suppressions fired).  They
    register like any rule so selection, ``--list-rules`` and the
    catalogue stay uniform, but their hooks are no-ops."""


_REGISTRY: Dict[str, Rule] = {}


def register(cls):
    """Class decorator: instantiate and register a rule by its id."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id (stable report order)."""
    return [_REGISTRY[rid] for rid in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    return _REGISTRY[rule_id]


# ----------------------------------------------------------------------
# Module collection and parsing
# ----------------------------------------------------------------------


def _derive_module_name(path: str) -> Optional[str]:
    """Dotted ``repro.*`` module name from a file path, if derivable.

    Uses the right-most ``repro`` path component so checkouts nested
    under directories that happen to be called ``repro`` still resolve.
    """
    parts = os.path.normpath(path).split(os.sep)
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")
    dotted = parts[idx:]
    if not dotted[-1].endswith(".py"):
        return None
    dotted[-1] = dotted[-1][:-3]
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


def _package_of(module: Optional[str]) -> Optional[str]:
    if module is None or not module.startswith("repro"):
        return None
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "repro"


def _iter_comments(source: str) -> Iterable[Tuple[int, str]]:
    """(line, text) of each real comment token.

    Tokenizing (rather than scanning raw lines) keeps directive text
    quoted inside string literals — test sources quoting examples —
    from registering as live suppressions.  Files that fail to
    tokenize fail ``ast.parse`` too, so losing their tail is moot.
    """
    import io
    import tokenize
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return


def _scan_suppressions(source: str
                       ) -> Dict[int, Optional[FrozenSet[str]]]:
    out: Dict[int, Optional[FrozenSet[str]]] = {}
    for lineno, text in _iter_comments(source):
        if "staticcheck" not in text:
            continue
        # Anchored: the comment must *be* the directive, so prose that
        # merely mentions the syntax (docs, rule messages) stays inert.
        match = _SUPPRESS_RE.match(text)
        if not match:
            continue
        if match.group(1) is None:
            out[lineno] = None
        else:
            ids = frozenset(
                part.strip() for part in match.group(1).split(",")
                if part.strip())
            # Merge with a prior directive on the same line (rare).
            prior = out.get(lineno, frozenset())
            out[lineno] = None if prior is None else (prior | ids)
    return out


def parse_module(path: str, source: Optional[str] = None,
                 display_path: Optional[str] = None) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises on syntax error)."""
    if source is None:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    tree = ast.parse(source, filename=path)
    module = _derive_module_name(path)
    head = "\n".join(source.splitlines()[:_MODULE_OVERRIDE_MAX_LINE])
    override = _MODULE_RE.search(head)
    if override:
        module = override.group(1)
    return ModuleInfo(
        path=display_path or path,
        source=source,
        tree=tree,
        nodes=list(ast.walk(tree)),
        module=module,
        package=_package_of(module),
        suppressions=_scan_suppressions(source),
    )


def _iter_python_files(root: str) -> Iterable[str]:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames
                             if d != "__pycache__" and not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _excluded(path: str, patterns: Sequence[str],
              config_root: Optional[str]) -> bool:
    """True when ``path`` matches an exclude glob.

    Patterns are matched against the path relative to the directory
    containing the loaded ``pyproject.toml`` (posix separators), so
    ``tests/staticcheck/fixtures/*`` works from any working directory.
    """
    if not patterns:
        return False
    candidates = {os.path.normpath(path).replace(os.sep, "/")}
    if config_root:
        rel = os.path.relpath(os.path.abspath(path), config_root)
        if not rel.startswith(".."):
            candidates.add(rel.replace(os.sep, "/"))
    for pattern in patterns:
        for candidate in candidates:
            if fnmatch.fnmatch(candidate, pattern):
                return True
    return False


def expand_paths(paths: Sequence[str],
                 exclude: Sequence[str] = (),
                 config_root: Optional[str] = None) -> List[str]:
    """Expand directories to their python files (exclude globs apply
    during the walk); a path given *explicitly as a file* is always
    included, even when an exclude pattern matches it — mirroring the
    convention of mainstream linters, and what lets the test suite
    point the CLI straight at a quarantined fixture."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for file_path in _iter_python_files(path):
                if not _excluded(file_path, exclude, config_root):
                    out.append(file_path)
        else:
            out.append(path)
    return out


def collect_modules(paths: Sequence[str],
                    exclude: Sequence[str] = (),
                    config_root: Optional[str] = None,
                    ) -> Tuple[List[ModuleInfo], List[Finding]]:
    """Expand ``paths`` to parsed modules.

    Unreadable or syntactically invalid files become ``PARSE-ERROR``
    findings instead of aborting the run.
    """
    modules: List[ModuleInfo] = []
    errors: List[Finding] = []
    for path in expand_paths(paths, exclude, config_root):
        try:
            modules.append(parse_module(path))
        except SyntaxError as exc:
            errors.append(Finding(
                path=path, line=exc.lineno or 1, col=exc.offset or 0,
                rule_id="PARSE-ERROR",
                message=f"could not parse: {exc.msg}"))
        except OSError as exc:
            errors.append(Finding(
                path=path, line=1, col=0, rule_id="PARSE-ERROR",
                message=f"could not read: {exc}"))
    return modules, errors


# ----------------------------------------------------------------------
# Phase 1: per-file analysis
# ----------------------------------------------------------------------


@dataclass
class FileAnalysis:
    """Everything phase 2 needs from one file: its facts plus the
    pre-suppression findings of the per-module rules that ran (or its
    one ``PARSE-ERROR``)."""

    path: str
    facts: Optional[FileFacts]                  # None on parse error
    findings: List[Finding]


def _parse_error(path: str, message: str, line: int = 1,
                 col: int = 0) -> FileAnalysis:
    return FileAnalysis(path=path, facts=None, findings=[Finding(
        path=path, line=line, col=col, rule_id="PARSE-ERROR",
        message=message)])


def analyze_file(path: str, rules: Sequence[Rule]) -> FileAnalysis:
    """Parse one file, collect its facts, run the per-module ``rules``
    that apply to it."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        return _parse_error(path, f"could not read: {exc}")
    try:
        module = parse_module(path, source=raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        return _parse_error(path, f"could not decode: {exc}")
    except SyntaxError as exc:
        return _parse_error(path, f"could not parse: {exc.msg}",
                            line=exc.lineno or 1, col=exc.offset or 0)
    findings: List[Finding] = []
    for rule in rules:
        if rule.applies_to(module):
            findings.extend(rule.check_module(module))
    return FileAnalysis(path=path, facts=module.facts(),
                        findings=findings)


# ----------------------------------------------------------------------
# The check driver
# ----------------------------------------------------------------------


@dataclass
class CheckResult:
    """Outcome of one analysis run."""

    findings: List[Finding]
    files_checked: int
    rules_run: List[str]

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.rule_id] = out.get(finding.rule_id, 0) + 1
        return dict(sorted(out.items()))


def _suppression_pass(analyses: Sequence[FileAnalysis],
                      selected_ids: Set[str],
                      used: Set[Tuple[str, int]]) -> List[Finding]:
    """``SUP-UNUSED``: ignore directives that suppressed nothing.

    A *named* directive is judged stale when it names an unknown rule
    id, or when every id it names was in this run's selected set and
    none fired.  A *blanket* directive is judged only when the full
    rule set ran.  Directives that name ``SUP-UNUSED`` itself opt out.
    """
    registered = set(_REGISTRY)
    full_run = registered <= selected_ids
    findings: List[Finding] = []
    for analysis in analyses:
        if analysis.facts is None:
            continue
        for line, ids in sorted(analysis.facts.suppressions.items()):
            if (analysis.path, line) in used:
                continue
            if ids is not None and "SUP-UNUSED" in ids:
                continue
            if ids is None:
                if not full_run:
                    continue
                message = ("blanket '# staticcheck: ignore' suppresses "
                           "nothing on this line — remove it")
            else:
                unknown = sorted(ids - registered)
                if unknown:
                    message = (f"suppression names unknown rule id(s) "
                               f"{', '.join(unknown)} — remove or fix "
                               f"the directive")
                elif ids <= selected_ids:
                    message = (f"suppression for "
                               f"{', '.join(sorted(ids))} no longer "
                               f"matches any finding — remove it")
                else:
                    continue
            findings.append(Finding(
                path=analysis.path, line=line, col=0,
                rule_id="SUP-UNUSED", message=message))
    return findings


def run_check(paths: Sequence[str],
              rules: Optional[Sequence[Rule]] = None,
              exclude: Sequence[str] = (),
              config_root: Optional[str] = None) -> CheckResult:
    """Run ``rules`` (default: all registered) over ``paths``."""
    selected = list(rules) if rules is not None else all_rules()
    selected_ids = {r.id for r in selected}
    module_rules = [r for r in selected
                    if not isinstance(r, (ProjectRule, EnginePass))]
    analyses = [analyze_file(path, module_rules)
                for path in expand_paths(paths, exclude, config_root)]

    findings: List[Finding] = []
    used: Set[Tuple[str, int]] = set()

    def _admit(finding: Finding,
               facts: Optional[FileFacts]) -> None:
        if facts is not None and facts.suppressed(finding.line,
                                                  finding.rule_id):
            used.add((finding.path, finding.line))
            return
        findings.append(finding)

    for analysis in analyses:
        for finding in analysis.findings:
            _admit(finding, analysis.facts)

    project = ProjectFacts([analysis.facts for analysis in analyses
                            if analysis.facts is not None])
    for rule in selected:
        if not isinstance(rule, ProjectRule):
            continue
        for finding in sorted(rule.check_project(project)):
            _admit(finding, project.by_path.get(finding.path))

    if "SUP-UNUSED" in selected_ids:
        for finding in _suppression_pass(analyses, selected_ids, used):
            facts = project.by_path.get(finding.path)
            # A directive naming SUP-UNUSED opted out above; the blanket
            # form is exactly what is being reported, so it cannot
            # re-suppress its own finding.
            if facts is not None:
                ids = facts.suppressions.get(finding.line)
                if ids is not None and "SUP-UNUSED" in ids:
                    continue
            findings.append(finding)

    findings.sort()
    return CheckResult(findings=findings, files_checked=len(analyses),
                       rules_run=[r.id for r in selected])


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------


def render_text(result: CheckResult) -> str:
    lines = [finding.render() for finding in result.findings]
    noun = "finding" if len(result.findings) == 1 else "findings"
    lines.append(f"{len(result.findings)} {noun} "
                 f"({result.files_checked} files checked)")
    return "\n".join(lines)


#: Bump only on a breaking change to the JSON document shape; tests pin
#: the schema.  v3 dropped v2's "cache" and "baselined".
JSON_SCHEMA_VERSION = 3


def render_json(result: CheckResult) -> str:
    document = {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "rules_run": result.rules_run,
        "counts": result.counts(),
        "findings": [finding.to_dict() for finding in result.findings],
    }
    return json.dumps(document, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# Shared AST helpers used by several rules
# ----------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_with_parents(tree: ast.AST):
    """Yield ``(node, parent)`` pairs over the whole tree."""
    stack: List[Tuple[ast.AST, Optional[ast.AST]]] = [(tree, None)]
    while stack:
        node, parent = stack.pop()
        yield node, parent
        for child in ast.iter_child_nodes(node):
            stack.append((child, node))
