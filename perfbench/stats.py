"""Statistics the benchmark reports: percentiles, span self time, q-error."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

MIN_TAIL = 10   # samples that must lie beyond an upper percentile


class TooFewSamples(ValueError):
    """An upper percentile was asked of too few samples to have a tail."""


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks.

    Above the median, at least MIN_TAIL samples must lie beyond the cut, so
    p95 needs 200 samples; fewer raise TooFewSamples instead of reporting a
    tail that is one or two samples wide.
    """
    if not values:
        raise TooFewSamples("no samples")
    if q > 0.5 and len(values) * (1 - q) < MIN_TAIL - 1e-9:
        raise TooFewSamples(
            f"p{round(q * 100)} needs {math.ceil(MIN_TAIL / (1 - q) - 1e-9)} samples, "
            f"got {len(values)}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    if ordered[lo] == ordered[hi]:      # also keeps inf from becoming nan
        return float(ordered[lo])
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def self_time(start: float, end: float,
              children: Iterable[tuple[float, float]]) -> float:
    """Duration of [start, end] minus the part covered by child intervals.

    Children are clipped to the parent and overlapping children are merged,
    so no instant is subtracted twice.
    """
    covered = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


def log10_qerror(truth: int, estimate: Fraction | int | None) -> float:
    """|log10| of max(c/e, e/c); a zero (or missing) estimate is infinite.

    Counting zeros as infinite means that turning estimates into zeros can
    never improve a q-error median.
    """
    if truth < 1:
        raise ValueError("q-error needs a true count >= 1")
    if estimate is None or estimate == 0:
        return math.inf
    ratio = Fraction(estimate) / truth
    return abs(math.log10(ratio.numerator) - math.log10(ratio.denominator))
