"""Counters, gauges and histograms with snapshot-consistent export.

The registry is the collection layer beneath the serving stack's public
stats dataclasses: hot paths bump instruments (``METRICS.counter(...)``
once at module/request setup, ``.inc()`` / ``.observe()`` inline), and
``snapshot()`` / ``to_json()`` / ``to_prometheus()`` export everything
at once.

Consistency model — one mutex guards every instrument, so a snapshot
never observes a torn instrument (a histogram's count/sum/buckets all
come from the same instant).  The registry holds instruments only and is
process-wide on purpose: scenario stats belong to the service that
serves the scenario, and ``ExchangeService.metrics()`` joins this
snapshot with that service's own ``stats()``.

Instrument updates are cheap (one lock round-trip per ``inc``), and the
serving layers additionally gate their *per-event* observations behind
``METRICS.enabled`` so the disabled stack stays within the ≤5% bench
budget.
"""

from __future__ import annotations

import bisect
import json
import threading
from typing import Any

#: Default histogram bucket upper bounds (seconds-flavoured, but the
#: same geometric ladder reads fine for counts and bytes).
DEFAULT_BUCKETS = (
    0.000001, 0.00001, 0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0,
    1000.0, 10000.0, 100000.0, 1000000.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str, lock: threading.Lock):
        self.name = name
        self.help = help
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self._value}


class Gauge:
    """A value that can go up and down (or be set outright)."""

    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str, lock: threading.Lock):
        self.name = name
        self.help = help
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Observation distribution: count, sum, min/max, cumulative buckets."""

    __slots__ = ("name", "help", "buckets", "_lock", "_counts", "_count",
                 "_sum", "_min", "_max")

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.Lock,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self._lock = lock
        self._counts = [0] * (len(self.buckets) + 1)  # +1: the +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile by linear interpolation in buckets.

        Bucket ``i`` covers ``(bounds[i-1], bounds[i]]``; the observation
        is assumed uniform inside its bucket, so the estimate walks the
        cumulative counts to the bucket holding rank ``q * count`` and
        interpolates between the bucket edges.  The first bucket's lower
        edge and the overflow bucket's upper edge are the observed
        min/max, and the result is clamped to ``[min, max]`` so the
        estimate never leaves the observed range.  Returns ``None`` when
        nothing has been observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        with self._lock:
            return self._quantile(q)

    def _quantile(self, q: float) -> float | None:
        if not self._count:
            return None
        assert self._min is not None and self._max is not None
        rank = q * self._count
        before = 0
        for index, count in enumerate(self._counts):
            if count and before + count >= rank:
                lo = self.buckets[index - 1] if index > 0 else self._min
                hi = self.buckets[index] if index < len(self.buckets) else self._max
                fraction = (rank - before) / count
                value = lo + fraction * (hi - lo)
                return min(max(value, self._min), self._max)
            before += count
        return self._max

    def _snapshot(self) -> dict[str, Any]:
        cumulative, running = [], 0
        for count in self._counts:
            running += count
            cumulative.append(running)
        return {
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "buckets": {
                **{f"{le:g}": cum for le, cum in zip(self.buckets, cumulative)},
                "+Inf": cumulative[-1],
            },
            "quantiles": {
                "p50": self._quantile(0.50),
                "p90": self._quantile(0.90),
                "p95": self._quantile(0.95),
                "p99": self._quantile(0.99),
            },
        }


class MetricsRegistry:
    """Process-wide named instruments."""

    def __init__(self) -> None:
        self.enabled = True
        self._mutex = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    # -- instrument handles (idempotent: same name → same instrument) ------

    def counter(self, name: str, help: str = "") -> Counter:
        return self._instrument(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._instrument(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        with self._mutex:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise TypeError(f"metric {name!r} is a {type(existing).__name__}")
                return existing
            instrument = Histogram(name, help, self._mutex, buckets)
            self._instruments[name] = instrument
            return instrument

    def _instrument(self, cls, name: str, help: str):
        with self._mutex:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(f"metric {name!r} is a {type(existing).__name__}")
                return existing
            instrument = cls(name, help, self._mutex)
            self._instruments[name] = instrument
            return instrument

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Every instrument, atomically under the one mutex."""
        with self._mutex:
            instruments = {
                name: instrument._snapshot()
                for name, instrument in sorted(self._instruments.items())
            }
        return {"instruments": instruments}

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True, default=repr)

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the instruments."""
        with self._mutex:
            instruments = sorted(self._instruments.items())
            lines: list[str] = []
            for name, instrument in instruments:
                flat = _prometheus_name(name)
                kind = type(instrument).__name__.lower()
                if instrument.help:
                    lines.append(f"# HELP {flat} {instrument.help}")
                lines.append(f"# TYPE {flat} {kind}")
                snap = instrument._snapshot()
                if kind in ("counter", "gauge"):
                    lines.append(f"{flat} {_fmt(snap['value'])}")
                else:
                    for le, cum in snap["buckets"].items():
                        lines.append(f'{flat}_bucket{{le="{le}"}} {cum}')
                    lines.append(f"{flat}_sum {_fmt(snap['sum'])}")
                    lines.append(f"{flat}_count {snap['count']}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every instrument (tests only)."""
        with self._mutex:
            self._instruments.clear()


def _prometheus_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _fmt(value: float) -> str:
    return f"{value:g}"


#: The process-wide registry every serving layer records into.
METRICS = MetricsRegistry()
