"""Configuration for the MERLIN engine and its baselines.

All pseudo-polynomial knobs live here so experiments can trade quality for
runtime in one place.  The defaults are the "fast" preset sized for pure
Python; :func:`MerlinConfig.paper_preset` approximates the paper's Table 1
setup (α = 15, full Hanan candidates, fine quantization) and is usable for
small nets when runtime is no object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.curves.curve import CurveConfig
from repro.geometry.candidates import CandidateStrategy
from repro.instrument.recorder import Recorder
from repro.resilience.budget import ComputeBudget
from repro.resilience.errors import MerlinInputError


@dataclass(frozen=True)
class MerlinConfig:
    """Tuning knobs for BUBBLE_CONSTRUCT / MERLIN.

    Attributes
    ----------
    alpha:
        Maximum branching factor of the Cα_Tree (max fanout per buffer
        stage).  Each hierarchy level routes at most ``alpha`` leaves
        (new sinks plus the nested sub-group).
    candidate_strategy, max_candidates:
        How the buffer candidate set P is generated and its size cap
        (the ``k`` of the complexity bounds).
    curve:
        Quantization/capacity parameters for every solution curve, and
        the curve kernel (``curve.backend``).
    library_subset:
        When set, thin the technology's buffer library to this many cells
        (evenly across drive strengths) before optimizing — the ``m`` knob.
    relocation_rounds:
        Fixed-point passes for the *PTREE root-relocation recursion
        ``S(e,p,i,j) = min{d(p,p') + S(e,p',i,j)}``.  One round suffices
        for unbuffered moves (Manhattan distance is a metric); additional
        rounds only help when chains of intermediate buffers pay off.
    max_iterations:
        Cap on MERLIN's outer local-search loop (the paper bounds it by 3
        in the Table 2 flow; Theorem 7 guarantees termination regardless).
    enable_bubbling:
        When False, only the χ0 grouping structure is enumerated, reducing
        BUBBLE_CONSTRUCT to a fixed-order Cα_Tree/*P_Tree construction —
        the ablation baseline for measuring what bubbling buys.
    """

    alpha: int = 4
    candidate_strategy: CandidateStrategy = CandidateStrategy.REDUCED_HANAN
    max_candidates: Optional[int] = 8
    curve: CurveConfig = field(default_factory=lambda: CurveConfig(
        load_step=2.0, area_step=60.0, max_solutions=12))
    library_subset: Optional[int] = 6
    relocation_rounds: int = 1
    max_iterations: int = 10
    enable_bubbling: bool = True
    #: Sub-range root candidates are restricted to the bounding box of the
    #: range's own pins, expanded on every side by this fraction of the
    #: net's half-perimeter (None disables the restriction).  Enclosing
    #: ranges use their own larger boxes, and root relocation lets
    #: solutions migrate outward, so the restriction costs little quality
    #: while cutting the DP's k and k^2 terms sharply.
    active_margin_frac: Optional[float] = 0.30
    #: Default process fan-out for the outer-search drivers in
    #: :mod:`repro.parallel` (multi-seed starts, batch multi-net runs)
    #: and for :class:`repro.service.OptimizationService`'s warm pool.
    #: 1 runs everything inline in this process; the engine itself is
    #: always single-threaded per run, so results are identical for any
    #: value — this is a scheduling knob, not an optimization knob.
    workers: int = 1
    #: Wire-sizing multipliers tried for every wire the DP creates
    #: (1.0 = minimum width; resistance scales 1/w, capacitance w).
    #: The default single width disables sizing; pass e.g. (1.0, 2.0, 4.0)
    #: for the simultaneous-wire-sizing extension of [LCLH96].
    wire_width_options: tuple = (1.0,)
    #: Observability sink (see :mod:`repro.instrument`).  When set,
    #: ``merlin()`` / the flow runners install it as the active recorder
    #: for the duration of the run and the whole engine reports into it;
    #: when None the no-op recorder keeps instrumentation free.
    #: Excluded from equality/repr: a recorder is a measurement channel,
    #: not part of the optimization problem.
    recorder: Optional[Recorder] = field(
        default=None, compare=False, repr=False)
    #: Cooperative compute budget (:mod:`repro.resilience.budget`).
    #: When set, ``merlin()``/``bubble_construct()`` charge it at their
    #: unit-of-work boundaries and raise ``BudgetExhaustedError`` on
    #: exhaustion — the degradation ladder catches that and falls back.
    #: Like ``recorder`` it is an execution-control channel, not part of
    #: the optimization problem: excluded from equality/repr and from
    #: the service's canonical cache key (degraded results are never
    #: cached, so a budget cannot poison full-quality lookups).
    budget: Optional[ComputeBudget] = field(
        default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        # MerlinInputError subclasses ValueError, so pre-taxonomy callers
        # catching ValueError keep working.
        if self.alpha < 2:
            raise MerlinInputError(
                "alpha must be >= 2 (a buffer must drive "
                "at least a sub-group and one sink)")
        if self.relocation_rounds < 0:
            raise MerlinInputError("relocation_rounds must be >= 0")
        if self.max_iterations < 1:
            raise MerlinInputError("max_iterations must be >= 1")
        if self.workers < 1:
            raise MerlinInputError("workers must be >= 1")
        if not self.wire_width_options or \
                any(w <= 0 for w in self.wire_width_options):
            raise MerlinInputError("wire_width_options must be positive "
                                   "and non-empty")

    @classmethod
    def fast_preset(cls) -> "MerlinConfig":
        """The default pure-Python-friendly preset (see class docstring)."""
        return cls()

    @classmethod
    def paper_preset(cls) -> "MerlinConfig":
        """Approximate the paper's Table 1 setup (expensive!).

        α = 15, full Hanan candidate set, 34-buffer library, fine
        quantization.  Only practical for nets with a handful of sinks in
        pure Python; provided for fidelity experiments.
        """
        return cls(
            alpha=15,
            candidate_strategy=CandidateStrategy.FULL_HANAN,
            max_candidates=None,
            curve=CurveConfig(load_step=0.5, area_step=15.0, max_solutions=64),
            library_subset=None,
            relocation_rounds=2,
            max_iterations=25,
        )

    @classmethod
    def test_preset(cls) -> "MerlinConfig":
        """Tiny preset for unit tests: smallest knobs that stay meaningful."""
        return cls(
            alpha=3,
            max_candidates=5,
            curve=CurveConfig(load_step=4.0, area_step=120.0, max_solutions=6),
            library_subset=3,
            relocation_rounds=1,
            max_iterations=4,
        )

    def with_(self, **changes) -> "MerlinConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)
