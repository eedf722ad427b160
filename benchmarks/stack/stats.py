"""Order statistics and the comparison verdict the benchmark reports with.

Pure functions, no timing: ``test_stack_units.py`` pins every rule here.
"""

from __future__ import annotations

import statistics
from typing import Any, Sequence


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` defines them
    (the driver's spread uses the same call); one sample is its own
    quartiles."""
    if len(samples) < 2:
        return (samples[0], samples[0], samples[0])
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q1, statistics.median(samples), q3)


def tail_percentile(samples: Sequence[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it,
    as ``(percentile, value)``; ``None`` below 20 samples, where even the
    median has fewer than ten samples on its far side."""
    n = len(samples)
    if n < 20:
        return None
    percentile = min(99, int(100 * (n - 10) / n))
    ordered = sorted(samples)
    return (percentile, ordered[n - 11])


def summarize(samples: Sequence[float]) -> dict[str, Any]:
    """What the result file keeps per metric: the median is ``value``."""
    q1, median, q3 = quartiles(samples)
    out: dict[str, Any] = {
        "value": median,
        "n": len(samples),
        "min": min(samples),
        "q1": q1,
        "q3": q3,
        "max": max(samples),
        "samples": list(samples),
    }
    tail = tail_percentile(samples)
    if tail is not None:
        out["tail"] = {"percentile": tail[0], "value": tail[1]}
    return out


def spread(summary: dict[str, Any]) -> float:
    """Inter-quartile distance as a share of the median."""
    if not summary["value"]:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["value"])


def verdict(
    base: dict[str, Any], other: dict[str, Any], better: str, bound: float
) -> str:
    """``same`` / ``better`` / ``worse`` / ``unresolved`` for one metric.

    ``base`` and ``other`` are :func:`summarize` dicts of two runs of one
    metric on one workload.  When either run's spread exceeds ``bound``
    the medians cannot be told apart by ``bound``: the verdict is
    ``unresolved`` unless the runs do not overlap at all (every sample
    of one side beats every sample of the other).  Otherwise the shift
    of the median decides, against ``bound``.
    """
    sign = 1.0 if better == "higher" else -1.0
    if max(spread(base), spread(other)) > bound:
        base_lo, base_hi = sorted((sign * base["min"], sign * base["max"]))
        other_lo, other_hi = sorted((sign * other["min"], sign * other["max"]))
        if other_lo > base_hi:
            return "better"
        if other_hi < base_lo:
            return "worse"
        return "unresolved"
    if not base["value"]:
        return "same" if not other["value"] else "unresolved"
    gain = sign * (other["value"] - base["value"]) / abs(base["value"])
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "same"


def exact_verdict(base: Any, other: Any, better: str | None = None) -> str:
    """Exact metrics (simulated statistics, digests) compare by equality;
    a difference is ``better``/``worse`` only where a direction exists."""
    if base == other:
        return "same"
    if better is None or not all(
        isinstance(v, (int, float)) for v in (base, other)
    ):
        return "worse"
    improved = other > base if better == "higher" else other < base
    return "better" if improved else "worse"
