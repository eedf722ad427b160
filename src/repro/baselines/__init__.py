"""Comparator algorithms for the separation experiments (E8,
``benchmarks/bench_baseline_comparison.py``)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .randomized import (
        BinaryValueBroadcast, CommonCoin, RandomizedBinaryConsensus,
    )
    from .strong_bisource import StrongBisourceEA

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".randomized": (
        "BinaryValueBroadcast", "CommonCoin",
        "RandomizedBinaryConsensus",
    ),
    ".strong_bisource": ("StrongBisourceEA",),
})
