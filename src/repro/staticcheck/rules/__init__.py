"""Shipped rule set; importing this package registers every rule.

Rule catalogue (ids are stable API — suppressions and configs name
them):

========================  ==============================================
``ASYNC-BLOCKING``        blocking call inside ``async def`` (serve/client)
``ASYNC-SHARED-MUT``      state mutated from both coroutine and thread
                          contexts with no lock
``ASYNC-UNAWAITED``       coroutine called as a statement, result discarded
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
``REG-DANGLING-KEY``      ordering lookup with no registration
``RES-BARE-EXCEPT``       bare/``BaseException`` handler in service/
                          parallel/resilience
``SUP-UNUSED``            suppression comment that suppresses nothing
========================  ==============================================
"""

from __future__ import annotations

from repro.staticcheck.rules import (  # noqa: F401  (register on import)
    async_safety,
    determinism,
    layering,
    numerics,
    pool_safety,
    registry,
    resilience,
    suppressions,
)

__all__ = ["async_safety", "determinism", "layering", "numerics",
           "pool_safety", "registry", "resilience", "suppressions"]
