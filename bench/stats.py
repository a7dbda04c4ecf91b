"""Summary statistics shared by the harness and its tests."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

# Tail percentiles tried from the far tail inwards; the first one that leaves
# at least TAIL_BEYOND samples strictly above it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of samples at or below it."""
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def tail(values: Sequence[float]) -> Optional[dict]:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it, or None."""
    for p in TAIL_LADDER:
        v = percentile(values, p)
        beyond = sum(1 for x in values if x > v)
        if beyond >= TAIL_BEYOND:
            return {"p": p, "value": v, "beyond": beyond}
    return None


def summary(values: Sequence[float], unit: str) -> dict:
    """Median, tail percentile and sample count of one metric's samples."""
    return {"median": statistics.median(values), "unit": unit,
            "samples": len(values), "tail": tail(values)}
