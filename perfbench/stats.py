"""Order statistics shared by the runner and the compare tool."""

from __future__ import annotations

import math
import statistics


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = (len(data) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(n: int, beyond: int = 10) -> int:
    """Highest whole percentile with at least ``beyond`` of ``n``
    samples above it; 50 (the median) when ``n`` is too small."""
    if n <= beyond:
        return 50
    return max(50, math.floor(100 * (n - beyond) / n))


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the ``pct`` percentile."""
    return n - math.ceil(n * pct / 100.0)


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile (0 < q < 1).

    A Beta-weighted average of all order statistics: unlike picking
    one or two neighbouring samples, it does not jump when noise swaps
    the samples next to the quantile, so small samples of mixed-size
    ops give a steady estimate.
    """
    import numpy as np

    data = np.sort(np.asarray(values, dtype=float))
    n = len(data)
    if n == 0:
        return float("nan")
    if n == 1:
        return float(data[0])
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    steps = max(20000, 50 * n)
    t = (np.arange(steps) + 0.5) / steps
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0, 1, steps + 1), cdf)
    return float(np.dot(np.diff(edges), data))
