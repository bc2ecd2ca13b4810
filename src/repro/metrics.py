"""Repo-wide metrics surface: counters, gauges, fixed-bucket histograms.

Grew up inside ``repro.reporting`` (the ingestion service and the fleet
driver need cheap observable state -- reports ingested, duplicates
dropped, queue depth, takedown latency -- without holding per-report
objects) and was promoted here once the batch-protection pipeline
needed the same primitives.  Counters and gauges are single numbers;
histograms bucket observations into a fixed set of upper bounds
(Prometheus-style cumulative buckets), so memory stays O(buckets) no
matter how many values are observed.

Everything hangs off a :class:`MetricsRegistry`; ``snapshot()`` returns
plain dicts (JSON-friendly) and ``render()`` a human-readable text
block for the CLI.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "INGEST_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram bucket upper bounds (seconds / counts -- callers
#: pick bounds that fit the quantity being observed).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0,
)

#: Sub-millisecond buckets for loopback ingest latency
#: (``reporting.net.ingest_seconds``).  DEFAULT_BUCKETS bottom out at
#: 5ms -- far above a localhost round trip -- and a histogram that
#: lumps everything into its first bucket cannot answer p50/p99.
INGEST_BUCKETS: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can move both ways (queue depth, tracked state)."""

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.high_water = 0

    def set(self, value: int) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def add(self, delta: int) -> None:
        self.set(self.value + delta)


class Histogram:
    """Fixed-bucket histogram with O(buckets) memory.

    ``buckets`` are upper bounds; an implicit +inf bucket catches the
    rest.  ``quantile`` answers from bucket boundaries (the usual
    Prometheus approximation), which is plenty for latency floors in
    tests and dashboards.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "max_seen")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(sorted(buckets))
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max_seen = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max_seen:
            self.max_seen = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile observation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return float("nan")
        target = math.ceil(q * self.count) or 1
        seen = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if seen >= target:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max_seen
        return self.max_seen  # pragma: no cover - defensive


class MetricsRegistry:
    """Name -> metric, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(
                name, buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return metric

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view of every metric (JSON-friendly)."""
        out: Dict[str, object] = {}
        for name, counter in sorted(self._counters.items()):
            out[name] = counter.value
        for name, gauge in sorted(self._gauges.items()):
            out[name] = {"value": gauge.value, "high_water": gauge.high_water}
        for name, hist in sorted(self._histograms.items()):
            out[name] = {
                "count": hist.count,
                "mean": hist.mean if hist.count else None,
                "p50": hist.quantile(0.5) if hist.count else None,
                "p99": hist.quantile(0.99) if hist.count else None,
            }
        return out

    def render(self) -> str:
        """Human-readable metrics block for the CLI."""
        lines = []
        for name, counter in sorted(self._counters.items()):
            lines.append(f"{name:40} {counter.value}")
        for name, gauge in sorted(self._gauges.items()):
            lines.append(
                f"{name:40} {gauge.value} (high water {gauge.high_water})"
            )
        for name, hist in sorted(self._histograms.items()):
            if hist.count:
                lines.append(
                    f"{name:40} count={hist.count} mean={hist.mean:.3f} "
                    f"p50={hist.quantile(0.5):.3f} p99={hist.quantile(0.99):.3f}"
                )
            else:
                lines.append(f"{name:40} count=0")
        return "\n".join(lines)
