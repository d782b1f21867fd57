"""Determinism rules.

MERLIN's results must be a pure function of ``(net, order, config,
seed)`` — the bench gate (PR 2) verifies it dynamically across backends
and worker counts; these rules enforce the coding patterns that keep it
true:

* ``DET-RANDOM`` — the module-level :mod:`random` functions draw from a
  hidden global generator whose state depends on import order and on
  every other caller; all randomness must flow through an explicitly
  seeded ``random.Random(seed)`` instance.
* ``DET-TIME`` — wall-clock reads inside the engine packages
  (``core``/``curves``/``routing``) make results time-dependent; timing
  belongs to the instrumentation and experiment layers.
* ``DET-SET-ORDER`` — iterating a bare ``set``/``frozenset`` feeds
  PYTHONHASHSEED-dependent order into whatever is being built (the
  PR-1 latent bug class); wrap the set in ``sorted(...)`` first.
* ``DET-ID-HASH`` — ``id()`` values change run to run and unseeded
  ``hash()`` of str/bytes changes with PYTHONHASHSEED; neither may be
  used as a mapping/set key or as an ordering criterion.  (Pure
  identity *lookups* — e.g. memo tables that are never iterated — are
  fine and not flagged.)
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.staticcheck.engine import (
    Finding,
    ModuleInfo,
    Rule,
    dotted_name,
    register,
)

#: Functions of the hidden module-level generator (the seeded
#: ``random.Random`` instance API is identical, so every call here has
#: a drop-in deterministic replacement).
_GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "seed", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "getrandbits", "paretovariate",
    "vonmisesvariate", "weibullvariate", "lognormvariate", "gammavariate",
    "binomialvariate", "randbytes",
})

_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "date.today", "datetime.date.today",
})

#: The engine packages that must stay clock-free.
_ENGINE_SCOPE = frozenset({"core", "curves", "routing"})


def _finding(module: ModuleInfo, node: ast.AST, rule_id: str,
             message: str) -> Finding:
    return Finding(path=module.path, line=getattr(node, "lineno", 1),
                   col=getattr(node, "col_offset", 0),
                   rule_id=rule_id, message=message)


@register
class GlobalRandomRule(Rule):
    id = "DET-RANDOM"
    title = "module-level random.* call (hidden global RNG state)"

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in module.nodes:
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if (name is not None and name.startswith("random.")
                        and name.split(".", 1)[1] in _GLOBAL_RANDOM_FUNCS):
                    findings.append(_finding(
                        module, node, self.id,
                        f"call to the hidden global RNG ({name}()); "
                        f"draw from an explicitly seeded "
                        f"random.Random(seed) instance instead"))
            elif (isinstance(node, ast.ImportFrom)
                  and node.module == "random" and not node.level):
                bad = sorted(alias.name for alias in node.names
                             if alias.name in _GLOBAL_RANDOM_FUNCS)
                if bad:
                    findings.append(_finding(
                        module, node, self.id,
                        f"importing global-RNG functions from random "
                        f"({', '.join(bad)}); import random.Random and "
                        f"seed it explicitly"))
        return findings


@register
class WallClockRule(Rule):
    id = "DET-TIME"
    title = "wall-clock read inside an engine package"
    scope = _ENGINE_SCOPE

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _CLOCK_CALLS:
                findings.append(_finding(
                    module, node, self.id,
                    f"{name}() inside {module.package!r}: engine results "
                    f"must not depend on the clock — time in the "
                    f"instrument/experiment layers instead"))
        return findings


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


#: Calls that materialize their argument *in iteration order*.
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter"})


@register
class SetOrderRule(Rule):
    id = "DET-SET-ORDER"
    title = "bare set iteration feeding order-sensitive construction"

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        hint = ("set iteration order depends on PYTHONHASHSEED; wrap the "
                "set in sorted(...) before building ordered structure "
                "from it")
        for node in module.nodes:
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                findings.append(_finding(module, node.iter, self.id, hint))
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                for comp in node.generators:
                    if _is_set_expr(comp.iter):
                        findings.append(_finding(module, comp.iter,
                                                 self.id, hint))
            elif isinstance(node, ast.Call):
                callee = node.func
                is_join = (isinstance(callee, ast.Attribute)
                           and callee.attr == "join")
                is_seq = (isinstance(callee, ast.Name)
                          and callee.id in _ORDER_SENSITIVE_CALLS)
                if ((is_join or is_seq) and node.args
                        and _is_set_expr(node.args[0])):
                    findings.append(_finding(module, node.args[0],
                                             self.id, hint))
        return findings


def _contains_identity_call(node: ast.AST) -> Optional[ast.Call]:
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id in ("id", "hash")):
            return sub
    return None


_ORDERING_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


@register
class IdHashKeyRule(Rule):
    id = "DET-ID-HASH"
    title = "id()/hash()-derived key or ordering"

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []

        def flag(context: ast.AST, where: str) -> None:
            call = _contains_identity_call(context)
            if call is not None:
                findings.append(_finding(
                    module, call, self.id,
                    f"{call.func.id}() used {where}: id() changes per "  # type: ignore[attr-defined]
                    f"run and hash() with PYTHONHASHSEED — key/order by "
                    f"stable attributes or positional indices instead"))

        for node in module.nodes:
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None:
                        flag(key, "as a dict key")
            elif isinstance(node, ast.DictComp):
                flag(node.key, "as a dict-comprehension key")
            elif isinstance(node, ast.Set):
                for elt in node.elts:
                    flag(elt, "as a set element")
            elif isinstance(node, ast.SetComp):
                flag(node.elt, "as a set-comprehension element")
            elif isinstance(node, ast.Compare):
                if any(isinstance(op, _ORDERING_OPS) for op in node.ops):
                    for operand in [node.left] + list(node.comparators):
                        flag(operand, "in an ordering comparison")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("sorted", "min", "max")):
                for keyword in node.keywords:
                    if keyword.arg == "key":
                        flag(keyword.value, "in a sort/min/max key")
        return findings
