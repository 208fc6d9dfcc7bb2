"""Metrics registry: named counters, gauges, and histograms.

One registry spans one observed run: it lives on the
:class:`~repro.obs.events.EventBus`.  Backends observe node latencies
into it as they go; the tiered store keeps its own tallies in a plain
:class:`~repro.store.stats.StoreStats` (its report has to be filled with
the bus off) and writes them in under their ``store.*`` names at run
finish (:meth:`~repro.store.stats.StoreStats.publish`).

Three instrument kinds, matching the usual telemetry taxonomy:

* :class:`Counter` — a monotone-ish scalar (``inc``; direct assignment
  is allowed, which is how a finished run's totals are written in);
* :class:`Gauge` — a point-in-time level (``set``), e.g. per-tier
  occupancy in stored GB;
* :class:`Histogram` — a streaming summary (``observe``) keeping count,
  sum, min, max, and coarse powers-of-two buckets — enough for a
  latency/size distribution without storing samples.

Instances are created on first use (``registry.counter("spill.count")``)
so instrumentation sites never need registration boilerplate.  Mutation
is *caller-synchronized*: the registry only locks instrument creation.
"""

from __future__ import annotations

import math
import threading


class Counter:
    """A named scalar tally.  ``value`` keeps the Python numeric type it
    was last assigned (int stays int)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount=1) -> None:
        self.value += amount


class Gauge:
    """A named level: last value written wins."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A streaming distribution summary.

    Buckets are powers of two of the observed value (bucket key
    ``2**ceil(log2(v))`` as a float; zero and negative observations land
    in the ``0`` bucket), which is coarse but scale-free — spill sizes
    span MB to tens of GB and node latencies span ms to ks in the same
    run.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[float, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        key = 0.0 if value <= 0 else float(2.0 ** math.ceil(
            math.log2(value)))
        self.buckets[key] = self.buckets.get(key, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": {f"{k:g}": v
                        for k, v in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Create-on-first-use registry of counters, gauges, histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    name, Histogram(name))
        return instrument

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-compatible dump of every instrument."""
        with self._lock:
            return {
                "counters": {n: c.value
                             for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value
                           for n, g in sorted(self._gauges.items())},
                "histograms": {n: h.summary()
                               for n, h in sorted(
                                   self._histograms.items())},
            }

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def render(self) -> str:
        """Aligned plain-text dump (the ``--metrics`` CLI output)."""
        snap = self.snapshot()
        lines = []
        width = max((len(n) for kind in snap.values() for n in kind),
                    default=0)
        for name, value in snap["counters"].items():
            lines.append(f"  {name:<{width}s}  {value:g}")
        for name, value in snap["gauges"].items():
            lines.append(f"  {name:<{width}s}  {value:g} (gauge)")
        for name, summary in snap["histograms"].items():
            lines.append(
                f"  {name:<{width}s}  n={summary['count']} "
                f"sum={summary['sum']:g} mean={summary['mean']:g} "
                f"min={0 if summary['min'] is None else summary['min']:g} "
                f"max={0 if summary['max'] is None else summary['max']:g}")
        return "\n".join(lines) if lines else "  (no metrics recorded)"
