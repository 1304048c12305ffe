"""End-to-end latency analysis.

The sensing→actuation latency of every applied control command (how stale
the perception behind each command was) and its distribution — the quantity
that, in this reproduction, links scheduling behaviour to tracking quality
(DESIGN.md §2, "control-command data freshness").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .stats import mean, percentile

__all__ = ["LatencyReport", "command_latencies", "latency_report"]


@dataclass(frozen=True)
class LatencyReport:
    """Distribution summary of sensing→actuation latencies (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    worst: float


def command_latencies(commands: Sequence[object]) -> List[float]:
    """``computed_at − sense_time`` for each applied command.

    Accepts the plant's command records (both :class:`ACCCommand` and
    :class:`SteeringCommand` carry the two timestamps).
    """
    return [c.computed_at - c.sense_time for c in commands]


def latency_report(
    commands: Sequence[object],
    t_min: Optional[float] = None,
    t_max: Optional[float] = None,
) -> LatencyReport:
    """Latency distribution, optionally restricted to a time window."""
    selected = [
        c
        for c in commands
        if (t_min is None or c.computed_at >= t_min)
        and (t_max is None or c.computed_at < t_max)
    ]
    lat = command_latencies(selected)
    if not lat:
        return LatencyReport(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, worst=0.0)
    return LatencyReport(
        count=len(lat),
        mean=mean(lat),
        p50=percentile(lat, 50.0),
        p95=percentile(lat, 95.0),
        p99=percentile(lat, 99.0),
        worst=max(lat),
    )
