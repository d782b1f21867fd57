"""Async-safety rules for the serving tier (``repro.serve``/``repro.client``).

The asyncio front end multiplexes every connection onto one event
loop; a single blocking call inside a coroutine stalls *all* in-flight
requests, and state shared between the loop and the handler threads
needs a lock.  Three rules police the serving stack's conventions:

``ASYNC-BLOCKING`` — a known-blocking call (``time.sleep``, sync
socket/subprocess/urllib IO, bare ``open``/``input``, an
``OptimizationService``/pool submit, or a no-timeout ``.result()``)
lexically inside an ``async def``.  Blocking work must be pushed off
the loop via ``loop.run_in_executor(...)`` or ``asyncio.to_thread``;
passing the blocking callable *as an argument* to those is fine — only
direct calls are flagged.

``ASYNC-SHARED-MUT`` — an instance attribute mutated both from a
coroutine and from a plain (thread-side) method of the same class with
no ``with <...lock...>:`` protection on the unlocked side.
``__init__`` is exempt (construction happens-before concurrency).

``ASYNC-UNAWAITED`` (phase 2) — a coroutine called as a bare statement
so its result (the coroutine object) is discarded and the body never
runs.  Matches calls to any ``async def`` name known *anywhere* in the
project fact base — the defining file is usually not the calling file —
plus the well-known ``asyncio.*`` coroutine constructors.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.staticcheck.engine import (
    Finding,
    ModuleInfo,
    ProjectRule,
    Rule,
    dotted_name,
    register,
)
from repro.staticcheck.facts import ProjectFacts

#: Packages whose code runs on (or next to) the event loop.
ASYNC_SCOPE = frozenset({"serve", "client"})

#: Exact dotted calls that block the calling thread.
BLOCKING_CALLS = frozenset({
    "time.sleep",
})

#: Dotted prefixes whose calls do synchronous network/process IO.
BLOCKING_PREFIXES = (
    "socket.",
    "subprocess.",
    "urllib.request.",
    "requests.",
)

#: Bare names that block on file/tty IO.
BLOCKING_NAMES = frozenset({"open", "input"})

#: Method names that hand work to the warm pool / service and wait.
POOL_SUBMIT_ATTRS = frozenset({"optimize", "optimize_many", "submit"})

#: Well-known coroutine constructors whose bare-statement call is
#: always a discarded coroutine.
ASYNCIO_COROUTINES = frozenset({
    "asyncio.sleep", "asyncio.gather", "asyncio.wait",
    "asyncio.wait_for", "asyncio.shield", "asyncio.open_connection",
    "asyncio.start_server", "asyncio.to_thread",
})


def _blocking_reason(call: ast.Call) -> Optional[str]:
    dotted = dotted_name(call.func)
    if dotted in BLOCKING_CALLS:
        return f"blocking call {dotted}()"
    if dotted is not None:
        for prefix in BLOCKING_PREFIXES:
            if dotted.startswith(prefix):
                return f"synchronous IO call {dotted}()"
    if isinstance(call.func, ast.Name) and call.func.id in BLOCKING_NAMES:
        return f"blocking builtin {call.func.id}()"
    if isinstance(call.func, ast.Attribute):
        attr = call.func.attr
        if attr in POOL_SUBMIT_ATTRS:
            return (f"pool/service submit .{attr}(...) waits on a "
                    f"worker from the event loop")
        if attr == "result" and not call.args and not call.keywords:
            return ".result() with no timeout blocks the event loop"
    return None


@register
class AsyncBlockingRule(Rule):
    id = "ASYNC-BLOCKING"
    title = "blocking call inside async def"
    scope = ASYNC_SCOPE

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        # (node, directly inside an async def body — nested sync defs
        # and lambdas reset the flag: their bodies run at call time)
        stack: List[Tuple[ast.AST, bool]] = [(module.tree, False)]
        while stack:
            node, in_async = stack.pop()
            if in_async and isinstance(node, ast.Call):
                reason = _blocking_reason(node)
                if reason is not None:
                    findings.append(Finding(
                        path=module.path, line=node.lineno,
                        col=node.col_offset, rule_id=self.id,
                        message=(f"{reason} inside 'async def' stalls "
                                 f"the event loop — use "
                                 f"loop.run_in_executor(...) or "
                                 f"asyncio.to_thread(...)")))
            for child in ast.iter_child_nodes(node):
                child_async = in_async
                if isinstance(node, ast.AsyncFunctionDef):
                    child_async = True
                elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
                    child_async = False
                stack.append((child, child_async))
        findings.sort()
        return findings


def _is_lock_context(item: ast.withitem) -> bool:
    name = dotted_name(item.context_expr)
    if name is None and isinstance(item.context_expr, ast.Call):
        name = dotted_name(item.context_expr.func)
    return name is not None and "lock" in name.lower()


class _MutationScan(ast.NodeVisitor):
    """Per-class scan: self-attribute mutations by method kind."""

    def __init__(self) -> None:
        #: attr -> list of (is_async_method, under_lock, line)
        self.mutations: Dict[str, List[Tuple[bool, bool, int]]] = {}
        self._method_async = False
        self._lock_depth = 0

    def _targets(self, node: ast.AST) -> Iterable[ast.expr]:
        if isinstance(node, ast.Assign):
            return node.targets
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return (node.target,)
        return ()

    def _record(self, node: ast.AST) -> None:
        for target in self._targets(node):
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                self.mutations.setdefault(target.attr, []).append(
                    (self._method_async, self._lock_depth > 0,
                     target.lineno))

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record(node)
        self.generic_visit(node)

    def _visit_with(self, node) -> None:
        locked = any(_is_lock_context(item) for item in node.items)
        if locked:
            self._lock_depth += 1
        self.generic_visit(node)
        if locked:
            self._lock_depth -= 1

    visit_With = _visit_with
    visit_AsyncWith = _visit_with


@register
class AsyncSharedMutationRule(Rule):
    id = "ASYNC-SHARED-MUT"
    title = "state mutated from both coroutine and thread contexts"
    scope = ASYNC_SCOPE

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in module.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            methods = [n for n in node.body
                       if isinstance(n, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))]
            if not any(isinstance(m, ast.AsyncFunctionDef)
                       for m in methods):
                continue
            scan = _MutationScan()
            for method in methods:
                if method.name == "__init__":
                    continue
                scan._method_async = isinstance(method,
                                                ast.AsyncFunctionDef)
                for stmt in method.body:
                    scan.visit(stmt)
            for attr, events in sorted(scan.mutations.items()):
                async_side = [e for e in events if e[0]]
                sync_side = [e for e in events if not e[0]]
                if not async_side or not sync_side:
                    continue
                unlocked = sorted(e for e in events if not e[1])
                if not unlocked:
                    continue
                line = unlocked[0][2]
                findings.append(Finding(
                    path=module.path, line=line, col=0, rule_id=self.id,
                    message=(
                        f"self.{attr} in class {node.name} is mutated "
                        f"from both coroutine and thread contexts "
                        f"without a lock — guard every mutation with "
                        f"'with <lock>:' or confine it to one side")))
        findings.sort()
        return findings


@register
class UnawaitedCoroutineRule(ProjectRule):
    id = "ASYNC-UNAWAITED"
    title = "coroutine called as a statement (result discarded)"
    scope = ASYNC_SCOPE

    def check_project(self, project: ProjectFacts) -> Iterable[Finding]:
        coroutine_names: Set[str] = set(project.async_def_names())
        findings: List[Finding] = []
        for facts in project.iter_scoped(ASYNC_SCOPE):
            for call in facts.stmt_calls:
                if call.dotted in ASYNCIO_COROUTINES:
                    matched = call.dotted
                elif call.in_async and call.name in coroutine_names:
                    matched = call.name
                else:
                    continue
                findings.append(Finding(
                    path=facts.path, line=call.line, col=0,
                    rule_id=self.id,
                    message=(f"call to coroutine {matched!r} as a bare "
                             f"statement discards the coroutine — the "
                             f"body never runs; 'await' it or schedule "
                             f"it with asyncio.create_task(...)")))
        findings.sort()
        return findings
