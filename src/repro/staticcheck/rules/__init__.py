"""Shipped rule set; importing this package registers every rule.

Rule catalogue (ids are stable API — suppressions name them):

========================  ==============================================
``DET-RANDOM``            unseeded module-level ``random.*`` calls
``DET-TIME``              wall-clock reads inside engine packages
``DET-SET-ORDER``         bare-set iteration feeding ordered construction
``DET-ID-HASH``           ``id()``/``hash()``-derived keys or ordering
``POOL-CALLABLE``         non-module-level callables shipped to workers
``POOL-RECORDER``         recorder objects captured into worker payloads
``NUM-FLOAT-EQ``          exact float ``==``/``!=`` in engine packages
``LAY-UPWARD``            lower layer importing a higher layer
``LAY-CYCLE``             module-level import cycle across ``repro.*``
``LAY-KERNEL``            engine layer importing curve-kernel internals
``REG-UNKNOWN-SITE``      fault spec naming a nonexistent fault site
``REG-DEAD-METRIC``       metric emitted but never read, or vice versa
``SUP-UNUSED``            suppression comment that suppresses nothing
========================  ==============================================
"""

from __future__ import annotations

from repro.staticcheck.rules import (  # noqa: F401  (register on import)
    determinism,
    layering,
    numerics,
    pool_safety,
    registry,
    suppressions,
)

__all__ = ["determinism", "layering", "numerics", "pool_safety",
           "registry", "suppressions"]
