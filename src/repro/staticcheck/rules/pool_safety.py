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
from typing import FrozenSet, Iterable, Iterator, List, Tuple

from repro.staticcheck.engine import (
    Finding,
    ModuleInfo,
    Rule,
    dotted_name,
    register,
)

#: Entry points whose arguments end up pickled into worker processes.
#: ``submit`` matches any ``<pool>.submit(fn, ...)`` attribute call;
#: the rest are this repo's drivers.
_POOL_ENTRY_NAMES = frozenset({"run_multi_start", "optimize_many"})


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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _pool_calls_in_scope(tree: ast.AST) -> Iterator[Tuple[ast.Call,
                                                          FrozenSet[str]]]:
    """Yield every pool call with the names of the nested functions in
    scope: every function defined anywhere inside the outermost function
    enclosing the call (empty outside functions).  Passing such a name
    to a pool entry point ships a closure that cannot be pickled.

    Each outermost function is walked once, so nested bodies are never
    walked again per enclosing def.
    """
    pending = [tree]
    while pending:
        for node in ast.iter_child_nodes(pending.pop()):
            if isinstance(node, _FUNCTIONS):
                inner = list(ast.walk(node))
                nested = frozenset(sub.name for sub in inner
                                   if isinstance(sub, _FUNCTIONS)
                                   and sub is not node)
                for sub in inner:
                    if isinstance(sub, ast.Call) and _is_pool_call(sub):
                        yield sub, nested
                continue
            if isinstance(node, ast.Call) and _is_pool_call(node):
                yield node, frozenset()
            pending.append(node)


@register
class WorkerCallableRule(Rule):
    id = "POOL-CALLABLE"
    title = "non-module-level callable shipped to a worker pool"

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        if not any(isinstance(node, ast.Call) and _is_pool_call(node)
                   for node in module.nodes):
            return findings
        for node, nested in _pool_calls_in_scope(module.tree):
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
                      and argument.id in nested):
                    findings.append(_finding(
                        module, argument, self.id,
                        f"nested function {argument.id!r} passed to "
                        f"{target}(): closures cannot be pickled into "
                        f"worker processes — hoist it to module level"))
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
        for node in module.nodes:
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
