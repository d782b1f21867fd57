"""Cooperative compute budgets for the MERLIN engine.

Buffered-routing DPs can blow up on adversarial instances (the
solution-curve growth the paper's quantization exists to tame), so a
production service needs *bounded* compute per job.  A
:class:`ComputeBudget` is threaded through ``MerlinConfig.budget`` and
charged cooperatively at the engine's natural unit-of-work boundaries —
one charge per MERLIN outer iteration, per Γ parent cell, per computed
*PTREE range.  When the budget runs out the engine raises
:class:`~repro.resilience.errors.BudgetExhaustedError` and the
degradation ladder (:mod:`repro.resilience.degrade`) takes over.

Two independent limits:

* ``max_ops`` — a *deterministic* cap on charged units.  Exhaustion is a
  pure function of (net, order, config), so two runs with the same ops
  budget degrade at exactly the same point on every machine — this is
  the limit chaos tests pin.
* ``deadline_s`` — a wall-clock limit, inherently machine-dependent;
  use for real serving, not for reproducibility assertions.

The clock is read here (and only here) — the engine packages themselves
stay wall-clock-free, which is what the ``DET-TIME`` static rule
enforces.

Budgets do not cross process boundaries as live objects: the service
ships the plain ``(max_ops, deadline_s)`` numbers and each worker
constructs its own budget at job start.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.resilience.errors import BudgetExhaustedError, MerlinInputError


class ComputeBudget:
    """A mutable op-count/deadline budget; see module docstring.

    ``charge()`` is designed to be cheap enough for per-DP-cell call
    sites: one integer add, one compare, and (only when a deadline is
    set) a monotonic clock read.
    """

    __slots__ = ("max_ops", "deadline_s", "ops", "started_at")

    def __init__(self, max_ops: Optional[int] = None,
                 deadline_s: Optional[float] = None,
                 started_at: Optional[float] = None) -> None:
        if max_ops is not None and max_ops < 0:
            raise MerlinInputError("max_ops must be >= 0")
        if deadline_s is not None and deadline_s < 0:
            raise MerlinInputError("deadline_s must be >= 0")
        self.max_ops = max_ops
        self.deadline_s = deadline_s
        self.ops = 0
        self.started_at = started_at

    @property
    def active(self) -> bool:
        """True when at least one limit is set."""
        return self.max_ops is not None or self.deadline_s is not None

    def start(self) -> "ComputeBudget":
        """Anchor the deadline clock (idempotent; charge() calls it)."""
        if self.started_at is None and self.deadline_s is not None:
            self.started_at = time.perf_counter()
        return self

    def elapsed_s(self) -> float:
        if self.started_at is None:
            return 0.0
        return time.perf_counter() - self.started_at

    def charge(self, n: int = 1, what: str = "op") -> None:
        """Consume ``n`` units; raise BudgetExhaustedError when out."""
        self.ops += n
        if self.max_ops is not None and self.ops > self.max_ops:
            raise BudgetExhaustedError(
                f"compute budget exhausted: {self.ops} ops charged "
                f"(cap {self.max_ops}, last unit {what!r})",
                stage="budget")
        if self.deadline_s is not None:
            self.start()
            elapsed = time.perf_counter() - self.started_at
            if elapsed > self.deadline_s:
                raise BudgetExhaustedError(
                    f"deadline exhausted: {elapsed:.3f}s elapsed "
                    f"(cap {self.deadline_s}s, last unit {what!r})",
                    stage="budget")

    def child(self) -> "ComputeBudget":
        """A budget for one ladder rung: fresh ops counter, *shared*
        absolute deadline.

        Each rung gets the full ops allowance — keeping ops exhaustion
        a deterministic property of the rung's own work — while
        wall-clock keeps draining from the moment the original budget
        started, so falling down the ladder cannot extend the deadline.
        """
        self.start()
        return ComputeBudget(max_ops=self.max_ops,
                             deadline_s=self.deadline_s,
                             started_at=self.started_at)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data view for attempt logs and stats."""
        return {
            "max_ops": self.max_ops,
            "deadline_s": self.deadline_s,
            "ops": self.ops,
            "elapsed_s": self.elapsed_s(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ComputeBudget(max_ops={self.max_ops}, "
                f"deadline_s={self.deadline_s}, ops={self.ops})")
