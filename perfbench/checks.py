"""Answer checks: every answer is validated, re-evaluated and, for the
pinned inputs, compared with the committed reference."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from metrics import Tally

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_VERSION = 1


def signature_digest(signature: str) -> str:
    """Short stable digest of a tree signature (what the reference keeps)."""
    return hashlib.sha256(signature.encode("utf-8")).hexdigest()[:24]


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE, encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("version") != REFERENCE_VERSION:
        raise ValueError(f"{REFERENCE}: reference version "
                         f"{data.get('version')} unsupported")
    return data


def same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_answer(tally: Tally, op: str, tree: Any, tech: Any,
                 signature: str, cost: float, evaluation: Dict[str, Any],
                 expected: Optional[Sequence[Any]] = None) -> None:
    """Check one answer; every broken rule is recorded against ``op``.

    * ``validate_tree`` accepts the tree;
    * the answer's signature is the tree's own, and its evaluation
      matches a fresh ``evaluate_tree``;
    * with ``expected = (signature digest, cost)``, both match it.
    """
    from repro.routing.evaluate import evaluate_tree
    from repro.routing.export import evaluation_to_dict, tree_signature
    from repro.routing.validate import TreeValidationError, validate_tree

    try:
        validate_tree(tree)
    except TreeValidationError as exc:
        tally.fail(op, f"invalid tree: {exc}")
        return
    if tree_signature(tree) != signature:
        tally.fail(op, "signature is not the returned tree's")
    fresh = evaluation_to_dict(evaluate_tree(tree, tech))
    for key, value in fresh.items():
        got = evaluation.get(key)
        if isinstance(value, dict):
            ok = isinstance(got, dict) and got.keys() == value.keys() \
                and all(same(got[k], value[k]) for k in value)
        elif isinstance(value, bool):
            ok = got is value
        else:
            ok = isinstance(got, (int, float)) and same(got, value)
        if not ok:
            tally.fail(op, f"evaluation[{key!r}] {got!r} != fresh "
                           f"evaluate_tree {value!r}")
    if expected is not None:
        if signature_digest(signature) != expected[0]:
            tally.fail(op, "tree signature differs from the reference")
        if not same(cost, expected[1]):
            tally.fail(op, f"cost {cost!r} != reference {expected[1]!r}")
