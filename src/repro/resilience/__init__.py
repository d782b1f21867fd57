"""Resilience: the error taxonomy, fault injection, compute budgets,
and the graceful-degradation ladder.

This package is what turns the fast engine + service stack into a
*survivable* one:

* :mod:`repro.resilience.errors` — the structured ``MerlinError``
  taxonomy (input / resource / internal) and the picklable
  :class:`ErrorRecord` that carries failures across process and wire
  boundaries;
* :mod:`repro.resilience.budget` — cooperative compute budgets
  (deterministic op caps, wall deadlines) charged inside the engine;
* :mod:`repro.resilience.faults` — the deterministic, seeded
  fault-injection framework behind the chaos suite (no-op unless a
  :class:`FaultPlan` is installed or ``MERLIN_FAULTS`` is set);
* :mod:`repro.resilience.degrade` — the degradation ladder that always
  returns a valid tree, tagged ``degraded`` with the reason.

Layering: the package sits at rank 1 (next to ``net``/``tech``) so
every layer above can import the taxonomy and the fault points; the
ladder reaches *up* into the engine only through lazy imports.
"""

from repro.resilience.budget import ComputeBudget
from repro.resilience.degrade import (
    LADDER_RUNGS,
    LadderOutcome,
    coarsened_config,
    run_with_ladder,
)
from repro.resilience.errors import (
    CATEGORIES,
    CATEGORY_INPUT,
    CATEGORY_INTERNAL,
    CATEGORY_RESOURCE,
    BudgetExhaustedError,
    CacheCorruptionError,
    ErrorRecord,
    FaultInjected,
    JobTimeoutError,
    JournalCorruptError,
    MalformedNetError,
    MerlinError,
    MerlinInputError,
    MerlinInternalError,
    MerlinResourceError,
    PoolUnavailableError,
    ServerDrainingError,
    WorkerCrashError,
    classify,
    error_from_record,
)
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    active_fault_plan,
    fault_point,
    install_fault_plan,
    load_env_plan,
    reset_fault_state,
    use_fault_plan,
)

__all__ = [
    "ComputeBudget",
    "LADDER_RUNGS",
    "LadderOutcome",
    "coarsened_config",
    "run_with_ladder",
    "CATEGORIES",
    "CATEGORY_INPUT",
    "CATEGORY_INTERNAL",
    "CATEGORY_RESOURCE",
    "BudgetExhaustedError",
    "CacheCorruptionError",
    "ErrorRecord",
    "FaultInjected",
    "JobTimeoutError",
    "JournalCorruptError",
    "MalformedNetError",
    "MerlinError",
    "MerlinInputError",
    "MerlinInternalError",
    "MerlinResourceError",
    "PoolUnavailableError",
    "ServerDrainingError",
    "WorkerCrashError",
    "classify",
    "error_from_record",
    "FaultPlan",
    "FaultSpec",
    "active_fault_plan",
    "fault_point",
    "install_fault_plan",
    "load_env_plan",
    "reset_fault_state",
    "use_fault_plan",
]
