"""Canonical net signatures: the cache key of the optimization service.

Two requests should share one cache entry exactly when the engine is
guaranteed to produce the same tree for both.  The engine is a
deterministic function of the *geometry relative to the source* (every
candidate generator, the TSP initial order, and the DP itself see only
pin coordinates, and all of them commute with translation), the sink
electrical attributes, the driver overrides, the technology, the
objective, and the optimization-relevant config knobs.  Net and sink
*names* and the absolute placement of the net on the die are labels, not
inputs — so the canonical form drops the names and normalizes positions
to source-relative coordinates, making translate/rename-equivalent nets
cache-equivalent.

Deliberately **excluded** from the config fingerprint:

* ``recorder`` — a measurement channel, not part of the problem;
* ``workers`` — pure scheduling, results are index-collected;
* the curve ``backend`` — the two curve kernels are bit-identical
  by contract (enforced by the bench equivalence gate), so a result
  computed on one backend is a valid cache hit for the other.

Floating-point caveat: source-relative coordinates are computed by
subtraction, so the same net translated by a non-representable amount
picks up last-ulp noise.  Relative coordinates are therefore quantized
to :data:`COORD_DECIMALS` decimal places before hashing — far below any
geometric resolution the engine distinguishes (the tree signature itself
prints positions at three decimals), but coarse enough to absorb the
subtraction noise.  Two genuinely different nets whose pins agree to
1e-6 units would falsely collide; at the die coordinates used here that
is sub-atomic.  A value sitting exactly on a rounding boundary may still
split — that is safe (a miss just re-runs the engine).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from repro.core.config import MerlinConfig
from repro.core.objective import Objective
from repro.net import Net
from repro.tech.io import technology_to_dict
from repro.tech.technology import Technology

#: Bump when the canonical schema changes so stale disk caches miss
#: cleanly instead of replaying results computed under old semantics.
CANONICAL_VERSION = 1

#: Decimal places kept in source-relative coordinates (see module
#: docstring for why geometry — and only geometry — is quantized).
COORD_DECIMALS = 6


def canonical_net_dict(net: Net) -> Dict[str, Any]:
    """The name-free, translation-normalized form of ``net``.

    Sink order is preserved: the engine's default initial order (TSP) is
    deterministic in geometry, but callers may pass pre-ordered sinks and
    two different sink orders genuinely are two different requests.
    """
    sx, sy = float(net.source.x), float(net.source.y)
    # Everything numeric is forced to float so a net built with int
    # coordinates and its float twin (e.g. after a JSON round trip)
    # serialize identically ("891" vs "891.0" would split the key).
    # Relative coordinates are additionally quantized to absorb the
    # subtraction noise of translated frames; electrical attributes are
    # copied through untouched, so they compare exactly.
    canonical: Dict[str, Any] = {
        "sinks": [
            [round(float(s.position.x) - sx, COORD_DECIMALS),
             round(float(s.position.y) - sy, COORD_DECIMALS),
             float(s.load), float(s.required_time)]
            for s in net.sinks
        ],
    }
    if net.driver_resistance is not None:
        canonical["driver_resistance"] = float(net.driver_resistance)
    if net.driver_intrinsic is not None:
        canonical["driver_intrinsic"] = float(net.driver_intrinsic)
    return canonical


def config_fingerprint_dict(config: MerlinConfig) -> Dict[str, Any]:
    """The optimization-relevant knobs of ``config`` as plain data."""
    return {
        "alpha": config.alpha,
        "candidate_strategy": config.candidate_strategy.name,
        "max_candidates": config.max_candidates,
        "curve": {
            "load_step": config.curve.load_step,
            "area_step": config.curve.area_step,
            "max_solutions": config.curve.max_solutions,
        },
        "library_subset": config.library_subset,
        "relocation_rounds": config.relocation_rounds,
        "max_iterations": config.max_iterations,
        "enable_bubbling": config.enable_bubbling,
        "active_margin_frac": config.active_margin_frac,
        "wire_width_options": list(config.wire_width_options),
    }


def objective_fingerprint_dict(objective: Objective) -> Dict[str, Any]:
    """The selection rule as plain data (infinities JSON-safe as strings)."""
    def _finite(value: float) -> Any:
        return value if value == value and abs(value) != float("inf") \
            else repr(value)

    return {
        "kind": objective.kind,
        "area_budget": _finite(objective.area_budget),
        "required_time_floor": _finite(objective.required_time_floor),
        "tradeoff_tolerance": objective.tradeoff_tolerance,
    }


def technology_fingerprint(tech: Technology) -> str:
    """Stable digest of the full technology bundle (library included)."""
    return _digest(technology_to_dict(tech))


def canonical_request(net: Net, tech: Technology, config: MerlinConfig,
                      objective: Objective,
                      tech_fingerprint_hex: Optional[str] = None,
                      ) -> Dict[str, Any]:
    """The complete canonical request record (hashed by
    :func:`canonical_key`; exposed separately for debugging cache
    behavior — two requests collide iff these dicts are equal).

    ``tech_fingerprint_hex`` lets long-lived callers (the optimization
    service, the async sharding front end) pass a precomputed
    :func:`technology_fingerprint` instead of re-serializing the whole
    buffer library on every request — the dominant cost of key
    construction for small nets.
    """
    return {
        "version": CANONICAL_VERSION,
        "net": canonical_net_dict(net),
        "tech": tech_fingerprint_hex or technology_fingerprint(tech),
        "config": config_fingerprint_dict(config),
        "objective": objective_fingerprint_dict(objective),
    }


def canonical_key(net: Net, tech: Technology, config: MerlinConfig,
                  objective: Optional[Objective] = None,
                  tech_fingerprint_hex: Optional[str] = None) -> str:
    """SHA-256 hex key identifying this request up to translation/rename."""
    objective = objective or Objective.max_required_time()
    return _digest(canonical_request(
        net, tech, config, objective,
        tech_fingerprint_hex=tech_fingerprint_hex))


def _digest(data: Any) -> str:
    # repr-based float serialization (json default) is deterministic for
    # identical bit patterns, which is exactly the equality we want.
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
