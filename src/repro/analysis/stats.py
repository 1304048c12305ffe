"""Statistics helpers used by experiments and reports."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

__all__ = [
    "rms",
    "rms_series",
    "mean",
    "sample_std",
    "mean_ci95",
    "percentile",
    "clip_series",
]


def rms(values: Iterable[float]) -> float:
    """Root-mean-square of a sequence; 0.0 for an empty input."""
    data = list(values)
    if not data:
        return 0.0
    return math.sqrt(sum(v * v for v in data) / len(data))


def rms_series(series: Sequence[Tuple[float, float]]) -> float:
    """RMS of the value column of a ``(t, value)`` series."""
    return rms(v for _, v in series)


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty input."""
    data = list(values)
    if not data:
        return 0.0
    return sum(data) / len(data)


def sample_std(values: Iterable[float]) -> float:
    """Bessel-corrected sample standard deviation; 0.0 below two samples."""
    data = list(values)
    if len(data) < 2:
        return 0.0
    mu = mean(data)
    return math.sqrt(sum((v - mu) ** 2 for v in data) / (len(data) - 1))


#: Two-sided 95% Student-t critical values by degrees of freedom (1..30);
#: beyond 30 the normal approximation (1.96) is within ~2%.
_T95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def mean_ci95(values: Iterable[float]) -> float:
    """Half-width of the 95% confidence interval of the mean.

    Student-t based (the seed counts of a campaign cell are small); 0.0
    below two samples.
    """
    data = list(values)
    n = len(data)
    if n < 2:
        return 0.0
    t = _T95[n - 2] if n - 1 <= len(_T95) else 1.96
    return t * sample_std(data) / math.sqrt(n)


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile ``q ∈ [0, 100]``; 0.0 when empty."""
    if not (0.0 <= q <= 100.0):
        raise ValueError(f"q must be in [0, 100], got {q}")
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return data[lo] + frac * (data[hi] - data[lo])


def clip_series(
    series: Sequence[Tuple[float, float]], t_min: float, t_max: float
) -> List[Tuple[float, float]]:
    """Subset of a ``(t, value)`` series with ``t_min <= t <= t_max``."""
    if t_max < t_min:
        raise ValueError("t_max must be >= t_min")
    return [(t, v) for t, v in series if t_min <= t <= t_max]

