"""Post-hoc analysis of routing trees and solution curves.

Quality metrics beyond the raw (delay, area) pair: wirelength efficiency
against the half-perimeter lower bound, buffer-stage statistics of the
Cα hierarchy, per-sink slack profiles, and curve geometry summaries used
by the ablation reports.
"""

from repro.analysis.metrics import (
    TreeMetrics,
    tree_metrics,
    slack_profile,
    stage_depths,
)
from repro.analysis.curve_stats import CurveStats, curve_stats

__all__ = [
    "TreeMetrics",
    "tree_metrics",
    "slack_profile",
    "stage_depths",
    "CurveStats",
    "curve_stats",
]
