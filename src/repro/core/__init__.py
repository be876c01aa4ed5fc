"""ADWISE core: adaptive window-based streaming edge partitioning."""

from repro.core.scoring import AdaptiveBalancer, AdwiseScoring
from repro.core.window import EdgeWindow
from repro.core.adaptive import AdaptiveWindowController, WindowDecision
from repro.core.adwise import AdwisePartitioner
from repro.core.array_window import ArrayEdgeWindow
from repro.core.spotlight import spotlight_spreads

__all__ = [
    "AdaptiveBalancer",
    "AdwiseScoring",
    "ArrayEdgeWindow",
    "EdgeWindow",
    "AdaptiveWindowController",
    "WindowDecision",
    "AdwisePartitioner",
    "spotlight_spreads",
]
