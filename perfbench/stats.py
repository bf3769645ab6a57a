"""Order statistics that always travel with their sample counts."""

from __future__ import annotations

import math

__all__ = ["hist_quantile", "median", "percentile", "summarize"]


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    """The 0.5-quantile."""
    return percentile(values, 0.5)


def summarize(values, q: float) -> dict:
    """``{"value", "samples", "beyond"}`` for the ``q``-quantile.

    ``beyond`` counts the samples strictly above the reported value —
    a tail percentile is only trustworthy with about ten of them.
    """
    value = percentile(values, q)
    return {"value": value, "samples": len(values),
            "beyond": sum(1 for v in values if v > value)}


def hist_quantile(buckets, q: float) -> float | None:
    """Quantile from cumulative histogram buckets ``[(le, count), ...]``.

    Interpolates linearly inside the bucket that holds the rank, the way
    Prometheus' ``histogram_quantile`` does, so the answer is only as
    fine as the bucket bounds.  Returns ``None`` for an empty histogram.
    """
    buckets = sorted(buckets)
    if not buckets or buckets[-1][1] <= 0:
        return None
    rank = q * buckets[-1][1]
    prev_le, prev_count = 0.0, 0.0
    for le, count in buckets:
        if count >= rank:
            if math.isinf(le):
                return prev_le
            span = count - prev_count
            frac = (rank - prev_count) / span if span else 0.0
            return prev_le + (le - prev_le) * frac
        prev_le, prev_count = le, count
    return prev_le
