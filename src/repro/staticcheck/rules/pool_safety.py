"""Pool-safety rules.

The outer-search drivers (:mod:`repro.parallel`) and the warm-pool
service engine ship work to ``ProcessPoolExecutor`` workers by
pickling.  Two classes of bug get through review repeatedly and only
explode at runtime — or worse, only under ``workers > 1``:

* ``POOL-CALLABLE`` — lambdas and nested (closure) functions are not
  picklable; every callable crossing the process boundary must be
  module-level.
* ``POOL-RECORDER`` — a live :class:`repro.instrument.Recorder` is a
  mutable object full of open spans; pickling one into a worker
  payload silently forks its state and the merged report double-counts
  (the drivers strip ``config.recorder`` for exactly this reason).
  Recorder-looking arguments to the pool entry points are flagged.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.staticcheck.engine import (
    Finding,
    ModuleInfo,
    Rule,
    dotted_name,
    register,
)

#: Entry points whose arguments end up pickled into worker processes.
#: ``submit`` matches any ``<pool>.submit(fn, ...)`` attribute call;
#: the rest are this repo's drivers (and their deprecated aliases).
_POOL_ENTRY_NAMES = frozenset({
    "run_multi_start", "run_batch", "optimize_many",
})


def _is_pool_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "submit" or func.attr in _POOL_ENTRY_NAMES
    if isinstance(func, ast.Name):
        return func.id in _POOL_ENTRY_NAMES
    return False


def _finding(module: ModuleInfo, node: ast.AST, rule_id: str,
             message: str) -> Finding:
    return Finding(path=module.path, line=getattr(node, "lineno", 1),
                   col=getattr(node, "col_offset", 0),
                   rule_id=rule_id, message=message)


def _call_target(node: ast.Call) -> str:
    return dotted_name(node.func) or "<call>"


class _ScopeVisitor(ast.NodeVisitor):
    """Walks the module tracking which names are nested functions.

    ``self.nested`` holds, for the current position, every function
    name defined *inside an enclosing function* — passing such a name
    to a pool entry point ships a closure that cannot be pickled.
    """

    def __init__(self, on_call) -> None:
        self.on_call = on_call
        self.nested: Set[str] = set()
        self._depth = 0

    def _visit_function(self, node) -> None:
        if self._depth > 0:
            self.nested.add(node.name)
        self._depth += 1
        added: List[str] = []
        for statement in ast.walk(node):
            if (isinstance(statement,
                           (ast.FunctionDef, ast.AsyncFunctionDef))
                    and statement is not node):
                if statement.name not in self.nested:
                    self.nested.add(statement.name)
                    added.append(statement.name)
        self.generic_visit(node)
        self._depth -= 1
        for name in added:
            self.nested.discard(name)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        self.on_call(node, frozenset(self.nested), self._depth > 0)
        self.generic_visit(node)


@register
class WorkerCallableRule(Rule):
    id = "POOL-CALLABLE"
    title = "non-module-level callable shipped to a worker pool"

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []

        def on_call(node: ast.Call, nested: frozenset,
                    in_function: bool) -> None:
            if not _is_pool_call(node):
                return
            target = _call_target(node)
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            for argument in arguments:
                if isinstance(argument, ast.Lambda):
                    findings.append(_finding(
                        module, argument, self.id,
                        f"lambda passed to {target}(): lambdas cannot be "
                        f"pickled into worker processes — use a "
                        f"module-level function"))
                elif (isinstance(argument, ast.Name)
                      and in_function and argument.id in nested):
                    findings.append(_finding(
                        module, argument, self.id,
                        f"nested function {argument.id!r} passed to "
                        f"{target}(): closures cannot be pickled into "
                        f"worker processes — hoist it to module level"))

        _ScopeVisitor(on_call).visit(module.tree)
        return findings


def _mentions_recorder(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id.lower().endswith("recorder"):
            return True
        if (isinstance(sub, ast.Attribute)
                and sub.attr.lower().endswith("recorder")):
            return True
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == "Recorder"):
            return True
    return False


@register
class WorkerRecorderRule(Rule):
    id = "POOL-RECORDER"
    title = "recorder object captured into a worker payload"

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and _is_pool_call(node)):
                continue
            target = _call_target(node)
            pieces = [(arg, None) for arg in node.args]
            pieces += [(kw.value, kw.arg) for kw in node.keywords]
            for value, keyword in pieces:
                if not _mentions_recorder(value):
                    continue
                where = (f"keyword {keyword!r}" if keyword
                         else "a positional argument")
                findings.append(_finding(
                    module, value, self.id,
                    f"recorder object in {where} of {target}(): live "
                    f"recorders must not cross the process boundary — "
                    f"workers run fresh recorders and reports are "
                    f"merged by task index"))
        return findings
