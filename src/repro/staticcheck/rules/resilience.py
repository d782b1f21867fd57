"""Resilience rules.

The fault-injection framework and the degradation ladder only work if
failures *propagate* to the layer that knows how to classify, retry, or
degrade them.  A bare ``except:`` (or ``except BaseException:``) in the
service/parallel/resilience packages swallows everything — including
``FaultInjected``, ``BudgetExhaustedError``, ``KeyboardInterrupt`` and
worker-pool teardown signals — turning an injected fault into a silent
wrong answer and an exhausted budget into a hang.

``RES-BARE-EXCEPT`` therefore forbids handlers with no exception type
and handlers naming ``BaseException`` in those packages.  Handlers for
``Exception`` (and narrower) remain legal: the recovery layers *should*
catch broadly, but never so broadly that cancellation and injected
chaos cannot get through.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.staticcheck.engine import Finding, ModuleInfo, Rule, register

#: Packages where swallowed failures defeat the resilience machinery.
_RESILIENT_SCOPE = frozenset({"service", "parallel", "resilience"})


def _names_base_exception(handler_type: Optional[ast.expr]) -> bool:
    """True when the handler type mentions ``BaseException`` (directly
    or inside an ``except (A, BaseException):`` tuple)."""
    if handler_type is None:
        return False
    for node in ast.walk(handler_type):
        if isinstance(node, ast.Name) and node.id == "BaseException":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "BaseException":
            return True
    return False


@register
class BareExceptRule(Rule):
    id = "RES-BARE-EXCEPT"
    title = "bare/BaseException handler in a resilience-critical package"
    scope = _RESILIENT_SCOPE

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in module.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                what = "bare `except:`"
            elif _names_base_exception(node.type):
                what = "`except BaseException:`"
            else:
                continue
            findings.append(Finding(
                path=module.path, line=node.lineno, col=node.col_offset,
                rule_id=self.id,
                message=f"{what} swallows cancellation, injected faults "
                        f"and budget exhaustion — catch Exception (or "
                        f"narrower) so the resilience layer can classify "
                        f"and recover"))
        return findings
