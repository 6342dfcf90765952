"""Order statistics the report is built from: medians, quartiles and the
highest percentile a sample can support."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Candidate tail percentiles, highest first, each with the share of
#: samples beyond it in parts per thousand (integers: no float drift at
#: the thresholds).
TAIL_LADDER = ((99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250), (50.0, 500))
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count; quartiles collapse onto a lone value."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0–100) of ``values``."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = min(max(1, math.ceil(len(ordered) * p / 100)), len(ordered))
    return ordered[rank - 1]


def supported_tail(n: int) -> Optional[float]:
    """The highest ladder percentile with ≥ ``MIN_BEYOND`` samples beyond it."""
    for p, beyond_per_mille in TAIL_LADDER:
        if n * beyond_per_mille >= MIN_BEYOND * 1000:
            return p
    return None
