"""Numeric-discipline rules.

All physical quantities are floats in the µm/fF/kΩ/ps system
(:mod:`repro.units`), and the curve DP quantizes loads/areas into
buckets precisely because exact float identity is meaningless after
arithmetic.  ``NUM-FLOAT-EQ`` bans exact ``==``/``!=`` between float
expressions in the engine packages; code should use the quantized
comparators ``repro.units.feq`` / ``repro.units.fzero`` (or bucket via
``CurveConfig``) instead.

Static float-type inference is out of scope for a stdlib-``ast``
checker, so the rule flags the syntactic shapes that cover every float
comparison this codebase has ever grown: a comparison where either
operand *is* a float literal, or is an arithmetic expression containing
a float literal or a true division.  Comparisons of opaque names
(``a == b``) are not flagged — object equality (points, orders,
configs) is legitimate and common.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.staticcheck.engine import Finding, ModuleInfo, Rule, register

#: Engine packages under the exact-equality ban (baselines included:
#: van Ginneken shares the curve arithmetic).
_NUMERIC_SCOPE = frozenset({"core", "curves", "routing", "baselines"})


def _is_float_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _is_floatish(node: ast.AST) -> bool:
    """Float literal, or arithmetic visibly producing a float."""
    if _is_float_literal(node):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True  # true division always yields float
        return _is_floatish(node.left) or _is_floatish(node.right)
    return False


@register
class FloatEqualityRule(Rule):
    id = "NUM-FLOAT-EQ"
    title = "exact float ==/!= in an engine package"
    scope = _NUMERIC_SCOPE

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in module.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if _is_floatish(left) or _is_floatish(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    findings.append(Finding(
                        path=module.path, line=node.lineno,
                        col=node.col_offset, rule_id=self.id,
                        message=(
                            f"exact float {symbol}: use the quantized "
                            f"comparators repro.units.feq/fzero (or "
                            f"CurveConfig bucketing) — floats that went "
                            f"through arithmetic are never exactly "
                            f"equal by design")))
        return findings
