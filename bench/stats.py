"""Order statistics used by the benchmark report."""

from __future__ import annotations

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail


def tail(values) -> tuple[float, float] | None:
    """Highest nearest-rank percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(percentile, value)``, or None when there are too few samples.
    With n samples that is the (n - 10)-th smallest value, the
    ``100·(n - 10)/n``-th percentile: p90 at n = 100, p99 at n = 1000.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    return 100.0 * (n - TAIL_BEYOND) / n, float(ordered[n - TAIL_BEYOND - 1])
