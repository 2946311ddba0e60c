"""Order statistics and metric naming for the benchmark's report.

Pure standard library, so the arithmetic is testable without the
program under test.  Percentiles interpolate linearly between order
statistics (NumPy's default ``"linear"`` method), and every summary
carries the sample count behind it.
"""

from __future__ import annotations

import math
import re

#: A metric name: starts with a letter or digit; at most 64 letters,
#: digits, ``_``, ``.`` and ``-``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
#: A unit: at most 16 letters, digits, ``_``, ``/``, ``%``, ``.``, ``-``.
METRIC_UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` may name a metric in the benchmark's report."""
    return METRIC_NAME.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    """Whether ``unit`` may label a metric in the benchmark's report."""
    return METRIC_UNIT.fullmatch(unit) is not None


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches ``numpy.percentile(values, q)``: with the samples sorted,
    the rank ``q/100 * (n - 1)`` is interpolated between its two
    neighbouring order statistics.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = q / 100 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values) -> float:
    """The 50th percentile."""
    return percentile(values, 50)


def samples_beyond(n: int, q: float) -> float:
    """Expected samples above the ``q``-th percentile of ``n`` samples."""
    return n * (100 - q) / 100


def summarize(values) -> dict:
    """Median, quartiles, p99 and the sample counts behind them."""
    values = list(values)
    return {
        "n": len(values),
        "median": median(values),
        "p25": percentile(values, 25),
        "p75": percentile(values, 75),
        "p90": percentile(values, 90),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
        "beyond_p99": samples_beyond(len(values), 99),
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
    }
