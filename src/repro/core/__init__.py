"""ADWISE core: adaptive window-based streaming edge partitioning."""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".scoring": ("AdaptiveBalancer", "AdwiseScoring"),
    ".window": ("EdgeWindow",),
    ".adaptive": ("AdaptiveWindowController", "WindowDecision"),
    ".adwise": ("AdwisePartitioner",),
    ".array_window": ("ArrayEdgeWindow",),
    ".spotlight": ("spotlight_spreads",),
})

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
