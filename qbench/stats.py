"""Order statistics of the benchmark's samples.

Pure Python; imported by the runner, the tests and the span derivation.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence


def nearest_rank(
    values: Sequence[float], percent: float, failed: int = 0
) -> Optional[float]:
    """The ``percent``-th percentile by the nearest-rank method.

    Of ``n = len(values) + failed`` ops the result is the
    ``ceil(percent * n / 100)``-th smallest.  Failed ops have no
    latency but count as slower than every success (a failed op misses
    any latency limit), so they sort last; when the rank lands on one,
    the percentile is undefined and None is returned.

    Raises:
        ValueError: when there are no ops at all, or ``percent`` is
            outside ``(0, 100]``.
    """
    n = len(values) + failed
    if n == 0:
        raise ValueError("a percentile needs at least one op")
    if not 0 < percent <= 100:
        raise ValueError("percent must be in (0, 100]")
    rank = max(1, math.ceil(percent * n / 100 - 1e-9))
    if rank > len(values):
        return None
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    """Plain median (mean of the middle two for an even count)."""
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
