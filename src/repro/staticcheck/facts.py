"""Phase-1 fact collection: one context-free summary per source file.

The two-phase engine (see :mod:`repro.staticcheck.engine`) never hands
an AST to a project-level pass.  Instead, phase 1 distills each file
into a :class:`FileFacts` — everything any whole-program rule needs,
expressed as plain data: unresolved import statements, async-function
names, statement-expression calls, ``fault_point`` site definitions and
``FaultSpec``/plan-dict site references, instrument metric definitions /
emits / reads, kernel- and ordering-registry definitions and lookups,
and the inline-suppression map.  Collectors that scan the whole file
iterate the module's shared node list (one ``ast.walk`` per file).

Everything here stays *context-free*: a fact depends only on the file's
own bytes (plus its derived module name), never on which other files
are in the run.  Resolution against the rest of the project (e.g.
``from repro.curves import kernels`` → submodule vs package
``__init__``) happens in phase 2, over the merged fact base.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Attribute names that *emit* a metric when called with the name as the
#: first argument: the recorder interface itself plus the thin
#: ``_record*``-style wrappers front ends keep around their lock.
EMIT_CALL_ATTRS = frozenset({"incr", "record", "event", "span"})

#: String literals longer than this cannot be metric names / registry
#: keys and are not worth collecting.
_MAX_LITERAL_LEN = 80

#: The dotted module whose module-level string constants form the
#: instrument-metric catalogue.
METRIC_NAMES_MODULE = "repro.instrument.names"


@dataclass(frozen=True)
class RawImport:
    """One import statement, unresolved (no project context applied)."""

    kind: str                 # "import" | "from"
    module: str               # target for "import"; prefix for "from"
    names: Tuple[str, ...]    # imported names ("from" only)
    level: int                # relative-import level ("from" only)
    line: int
    lazy: bool                # inside a function/lambda body
    type_only: bool           # inside an `if TYPE_CHECKING:` block


@dataclass(frozen=True)
class StmtCall:
    """A statement-expression call (``foo()`` / ``obj.meth()`` on its
    own line) — the shape an unawaited coroutine takes."""

    name: str                 # bare callee name (attr or function name)
    dotted: Optional[str]     # full dotted chain when derivable
    line: int
    in_async: bool            # lexically inside an `async def`


@dataclass
class FileFacts:
    """The phase-2 interface to one analyzed file."""

    path: str
    module: Optional[str] = None
    package: Optional[str] = None
    suppressions: Dict[int, Optional[FrozenSet[str]]] = field(
        default_factory=dict)
    imports: List[RawImport] = field(default_factory=list)
    #: Bare names of every ``async def`` in the file (methods included).
    async_defs: Tuple[str, ...] = ()
    #: Statement-expression calls, for the unawaited-coroutine pass.
    stmt_calls: List[StmtCall] = field(default_factory=list)
    #: ``fault_point("<site>", ...)`` literal site definitions.
    fault_sites: List[Tuple[str, int]] = field(default_factory=list)
    #: ``fault_point(<non-literal>)`` call count (degrades REG-UNKNOWN-SITE
    #: to silence — a dynamic site could match anything).
    dynamic_fault_sites: int = 0
    #: ``FaultSpec(site=...)`` / ``{"site": "..."}`` literal references
    #: (may be globs).
    fault_refs: List[Tuple[str, int]] = field(default_factory=list)
    #: ``CONST = "value"`` module-level string assignments when this file
    #: is the metric-names module.
    metric_defs: List[Tuple[str, str, int]] = field(default_factory=list)
    #: ``metric.CONST`` / ``names.CONST`` attribute references:
    #: (const, line, is_emit_context).
    metric_refs: List[Tuple[str, int, bool]] = field(default_factory=list)
    #: String literals passed as the first argument of an emit call.
    metric_literal_emits: List[Tuple[str, int]] = field(
        default_factory=list)
    #: Names imported via ``from repro.instrument.names import X`` —
    #: counted as reads (their use context is unknown).
    metric_imports: Tuple[str, ...] = ()
    #: Registry definitions: (kind, name, line); kind in
    #: {"kernel", "ordering"}.
    registry_defs: List[Tuple[str, str, int]] = field(default_factory=list)
    #: Registry lookups with a literal key: (kind, name, line).
    registry_refs: List[Tuple[str, str, int]] = field(default_factory=list)
    #: Every short string literal in the file (sorted, deduplicated) —
    #: membership probes for "is this metric name asserted anywhere".
    string_literals: Tuple[str, ...] = ()

    def suppressed(self, line: int, rule_id: str) -> bool:
        if line not in self.suppressions:
            return False
        ids = self.suppressions[line]
        return ids is None or rule_id in ids


# ----------------------------------------------------------------------
# Collection
# ----------------------------------------------------------------------


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _callee_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _str_arg(call: ast.Call, position: int = 0,
             keyword: Optional[str] = None) -> Optional[Tuple[str, int]]:
    """Literal string at ``position`` (or ``keyword=``), else None."""
    node: Optional[ast.expr] = None
    if len(call.args) > position:
        node = call.args[position]
    elif keyword is not None:
        for kw in call.keywords:
            if kw.arg == keyword:
                node = kw.value
                break
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, node.lineno
    return None


def _is_type_checking_test(test: ast.AST) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def collect_raw_imports(tree: ast.Module) -> List[RawImport]:
    """Every import statement, tagged lazy/type-only, unresolved."""
    out: List[RawImport] = []
    stack: List[Tuple[ast.AST, bool, bool]] = [(tree, False, False)]
    while stack:
        node, lazy, type_only = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append(RawImport(
                    kind="import", module=alias.name, names=(),
                    level=0, line=node.lineno, lazy=lazy,
                    type_only=type_only))
        elif isinstance(node, ast.ImportFrom):
            out.append(RawImport(
                kind="from", module=node.module or "",
                names=tuple(alias.name for alias in node.names),
                level=node.level, line=node.lineno, lazy=lazy,
                type_only=type_only))
        for child in ast.iter_child_nodes(node):
            child_lazy = lazy or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            child_type_only = type_only or (
                isinstance(node, ast.If)
                and _is_type_checking_test(node.test)
                and child in node.body)
            stack.append((child, child_lazy, child_type_only))
    out.sort(key=lambda imp: (imp.line, imp.module))
    return out


def _collect_async(tree: ast.Module, nodes: Sequence[ast.AST]
                   ) -> Tuple[Tuple[str, ...], List[StmtCall]]:
    async_defs = sorted({node.name for node in nodes
                         if isinstance(node, ast.AsyncFunctionDef)})
    calls: List[StmtCall] = []
    stack: List[Tuple[ast.AST, bool]] = [(tree, False)]
    while stack:
        node, in_async = stack.pop()
        if (isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)):
            name = _callee_name(node.value.func)
            if name is not None:
                calls.append(StmtCall(
                    name=name, dotted=_dotted(node.value.func),
                    line=node.value.lineno, in_async=in_async))
        for child in ast.iter_child_nodes(node):
            child_async = in_async
            if isinstance(node, ast.AsyncFunctionDef):
                child_async = True
            elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
                child_async = False
            stack.append((child, child_async))
    calls.sort(key=lambda call: call.line)
    return tuple(async_defs), calls


def _collect_faults(nodes: Sequence[ast.AST]
                    ) -> Tuple[List[Tuple[str, int]], int,
                               List[Tuple[str, int]]]:
    sites: List[Tuple[str, int]] = []
    dynamic = 0
    refs: List[Tuple[str, int]] = []
    for node in nodes:
        if isinstance(node, ast.Call):
            name = _callee_name(node.func)
            if name == "fault_point":
                lit = _str_arg(node, 0, keyword="site")
                if lit is not None:
                    sites.append(lit)
                else:
                    dynamic += 1
            elif name == "FaultSpec":
                lit = _str_arg(node, 0, keyword="site")
                if lit is not None:
                    refs.append(lit)
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (isinstance(key, ast.Constant) and key.value == "site"
                        and isinstance(value, ast.Constant)
                        and isinstance(value.value, str)):
                    refs.append((value.value, value.lineno))
    return sorted(sites), dynamic, sorted(refs)


def _collect_metrics(tree: ast.Module, nodes: Sequence[ast.AST],
                     module: Optional[str]) -> Tuple[
        List[Tuple[str, str, int]], List[Tuple[str, int, bool]],
        List[Tuple[str, int]], Tuple[str, ...]]:
    defs: List[Tuple[str, str, int]] = []
    if module == METRIC_NAMES_MODULE:
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and not node.targets[0].id.startswith("_")
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                defs.append((node.targets[0].id, node.value.value,
                             node.lineno))

    # Attribute refs `metric.CONST` / `names.CONST`, flagged by whether
    # they sit in the first-argument slot of an emit call.
    emit_positions = set()
    literal_emits: List[Tuple[str, int]] = []
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        attr = _callee_name(node.func)
        if attr is None:
            continue
        is_emit = (attr in EMIT_CALL_ATTRS
                   or attr.startswith("_record")
                   or attr == "record_event")
        if not is_emit or not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Attribute):
            emit_positions.add(id(first))
        elif (isinstance(first, ast.Constant)
              and isinstance(first.value, str)):
            literal_emits.append((first.value, first.lineno))

    refs: List[Tuple[str, int, bool]] = []
    for node in nodes:
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("metric", "names")):
            refs.append((node.attr, node.lineno,
                         id(node) in emit_positions))

    imports: List[str] = []
    for node in nodes:
        if (isinstance(node, ast.ImportFrom)
                and node.module == METRIC_NAMES_MODULE):
            imports.extend(alias.name for alias in node.names)

    refs.sort(key=lambda item: (item[1], item[0]))
    literal_emits.sort(key=lambda item: (item[1], item[0]))
    return defs, refs, literal_emits, tuple(sorted(set(imports)))


def _kernel_class_name(node: ast.ClassDef) -> Optional[Tuple[str, int]]:
    """``name = "<literal>"`` from a kernel class body, if present."""
    for stmt in node.body:
        if (isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "name"
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)):
            return stmt.value.value, stmt.lineno
    return None


#: Lookup callables → registry kind.
_REGISTRY_LOOKUPS = {
    "get_kernel": "kernel",
    "resolve_backend": "kernel",
    "get_ordering": "ordering",
}


def _collect_registry(nodes: Sequence[ast.AST]) -> Tuple[
        List[Tuple[str, str, int]], List[Tuple[str, str, int]]]:
    defs: List[Tuple[str, str, int]] = []
    refs: List[Tuple[str, str, int]] = []
    for node in nodes:
        if isinstance(node, ast.ClassDef):
            for deco in node.decorator_list:
                if _callee_name(deco) == "register_kernel" or (
                        isinstance(deco, ast.Call)
                        and _callee_name(deco.func) == "register_kernel"):
                    named = _kernel_class_name(node)
                    if named is not None:
                        defs.append(("kernel", named[0], named[1]))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                if (isinstance(deco, ast.Call)
                        and _callee_name(deco.func) == "register_ordering"):
                    lit = _str_arg(deco, 0, keyword="name")
                    if lit is not None:
                        defs.append(("ordering", lit[0], lit[1]))
        elif isinstance(node, ast.Call):
            name = _callee_name(node.func)
            kind = _REGISTRY_LOOKUPS.get(name or "")
            if kind is not None:
                lit = _str_arg(node, 0, keyword="name")
                if lit is not None:
                    refs.append((kind, lit[0], lit[1]))
    # `register_ordering("x")` may also decorate plain callables or be
    # called directly; count direct calls as definitions too.
    for node in nodes:
        if (isinstance(node, ast.Call)
                and _callee_name(node.func) == "register_ordering"):
            lit = _str_arg(node, 0, keyword="name")
            if lit is not None:
                entry = ("ordering", lit[0], lit[1])
                if entry not in defs:
                    defs.append(entry)
    return sorted(defs), sorted(refs)


def _collect_literals(nodes: Sequence[ast.AST]) -> Tuple[str, ...]:
    out = set()
    for node in nodes:
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and 0 < len(node.value) <= _MAX_LITERAL_LEN):
            out.add(node.value)
    return tuple(sorted(out))


def collect_facts(tree: ast.Module, nodes: Sequence[ast.AST], path: str,
                  module: Optional[str], package: Optional[str],
                  suppressions: Dict[int, Optional[FrozenSet[str]]],
                  ) -> FileFacts:
    """Distill one parsed file into its :class:`FileFacts`; ``nodes``
    is ``list(ast.walk(tree))``."""
    async_defs, stmt_calls = _collect_async(tree, nodes)
    fault_sites, dynamic_sites, fault_refs = _collect_faults(nodes)
    metric_defs, metric_refs, literal_emits, metric_imports = \
        _collect_metrics(tree, nodes, module)
    registry_defs, registry_refs = _collect_registry(nodes)
    return FileFacts(
        path=path,
        module=module,
        package=package,
        suppressions=dict(suppressions),
        imports=collect_raw_imports(tree),
        async_defs=async_defs,
        stmt_calls=stmt_calls,
        fault_sites=fault_sites,
        dynamic_fault_sites=dynamic_sites,
        fault_refs=fault_refs,
        metric_defs=metric_defs,
        metric_refs=metric_refs,
        metric_literal_emits=literal_emits,
        metric_imports=metric_imports,
        registry_defs=registry_defs,
        registry_refs=registry_refs,
        string_literals=_collect_literals(nodes),
    )


# ----------------------------------------------------------------------
# The merged fact base handed to phase-2 rules
# ----------------------------------------------------------------------


class ProjectFacts:
    """Every file's facts, merged, with the derived views phase-2 passes
    share (known module names, resolved import edges)."""

    def __init__(self, files: Sequence[FileFacts]) -> None:
        self.files: List[FileFacts] = sorted(files, key=lambda f: f.path)
        self.by_path: Dict[str, FileFacts] = {f.path: f for f in self.files}
        self._edges: Optional[list] = None

    @property
    def known_modules(self) -> FrozenSet[str]:
        return frozenset(f.module for f in self.files
                         if f.module is not None)

    def edges(self):
        """Resolved :class:`repro.staticcheck.imports.ImportEdge` list
        (cached per instance)."""
        if self._edges is None:
            from repro.staticcheck.imports import resolve_project_edges
            self._edges = resolve_project_edges(self)
        return self._edges

    def async_def_names(self) -> FrozenSet[str]:
        names: set = set()
        for facts in self.files:
            names.update(facts.async_defs)
        return frozenset(names)

    def iter_scoped(self, packages: Optional[FrozenSet[str]]
                    ) -> Iterable[FileFacts]:
        for facts in self.files:
            if packages is None or (facts.package is not None
                                    and facts.package in packages):
                yield facts
