"""Metrics registry: counters, gauges and fixed-bucket histograms.

A deliberately small, dependency-free registry in the Prometheus mold.
Instruments are created through the registry so one reduction pass (see
:mod:`repro.obs.reduce`) yields a single JSON-ready snapshot; histogram
bucket edges are fixed at creation so two reductions of the same recording
are bit-identical and comparable across runs.

Instruments hold no locks.  Every registry is owned by one process and
updated from one thread: a run reduces its own recording, and fleet
campaigns shard across ``multiprocessing`` workers, each with a registry
of its own.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count."""

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-observed value (e.g. a final rate or the settled γ)."""

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with cumulative-friendly counts.

    ``edges`` are the *upper* bounds of the finite buckets, strictly
    increasing; an implicit overflow bucket catches everything above the
    last edge.  Counts, total and sum are exact, so mean and miss-mass are
    recoverable without retaining samples.
    """

    def __init__(self, name: str, edges: Sequence[float], help: str = "") -> None:
        edge_list = list(edges)
        if not edge_list:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edge_list, edge_list[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.name = name
        self.help = help
        self.edges: List[float] = edge_list
        self.counts: List[int] = [0] * (len(edge_list) + 1)  # + overflow
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile_bound(self, q: float) -> Optional[float]:
        """Upper bucket edge containing quantile ``q`` (None = overflow/empty)."""
        if not (0.0 <= q <= 1.0):
            raise ValueError("quantile must be in [0, 1]")
        if self.total == 0:
            return None
        target = q * self.total
        seen = 0
        for edge, count in zip(self.edges, self.counts):
            seen += count
            if seen >= target:
                return edge
        return None  # lands in the overflow bucket

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "edges": list(self.edges),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Named instruments, created on first touch with stable identity."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, kind: type, factory: Callable[[], Any]) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = factory()
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name, help))

    def histogram(self, name: str, edges: Sequence[float], help: str = "") -> Histogram:
        hist = self._get(name, Histogram, lambda: Histogram(name, edges, help))
        if list(edges) != hist.edges:
            raise ValueError(f"histogram {name!r} re-registered with different edges")
        return hist

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __getitem__(self, name: str) -> Any:
        return self._instruments[name]

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def to_dict(self) -> Dict[str, Any]:
        """JSON snapshot, name-sorted for stable output."""
        return {
            name: self._instruments[name].to_dict()
            for name in sorted(self._instruments)
        }

    def render_text(self) -> str:
        """Human-readable dump (one line per instrument)."""
        lines: List[str] = []
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, Counter):
                lines.append(f"{name:32s} counter   {inst.value}")
            elif isinstance(inst, Gauge):
                value = "-" if inst.value is None else f"{inst.value:.6g}"
                lines.append(f"{name:32s} gauge     {value}")
            else:
                lines.append(
                    f"{name:32s} histogram n={inst.total} mean={inst.mean:.6g}"
                )
        return "\n".join(lines)
