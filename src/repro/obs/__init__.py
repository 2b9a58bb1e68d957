"""Zero-dependency observability for the serving stack.

Three coordinated surfaces, all importable from :mod:`repro.obs`:

* :mod:`repro.obs.trace` — structured tracing.  ``TRACER.span("...")``
  opens a span; spans nest into per-request trace trees (dispatch
  decision, cache probe, scatter fan-out, per-shard evaluate, merge for
  queries; trigger round, over-delete / egd-guard / re-derive phases,
  per-shard ``apply_delta`` and rollback for updates).  Tracing is
  **off by default** — the disabled path is a single attribute check
  returning a shared no-op context manager, so the bench gates measure
  ≤5% overhead with instrumentation present but disabled.  Worker
  processes ship their span trees back over the existing reply pipe as
  compact records which the parent grafts into its live tree.

* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and histograms (lock wait, cache-hit latency, chase steps per
  batch, IPC buffer bytes, join candidate sizes vs estimates) with
  snapshot-consistent export as JSON and Prometheus-style text.
  Scenario numbers stay in each service's ``stats()`` dataclasses;
  ``service.metrics()`` joins them with the registry's snapshot.

* :mod:`repro.obs.explain` + the flight recorder
  (:mod:`repro.obs.flight`) — ``service.explain(...)`` returns the
  dispatch route a query *would* take and why (per shard-plan-rule
  scatter verdicts, greedy join order with estimated vs actual
  cardinalities, the cache guard's version vector), and
  ``FLIGHT_RECORDER`` keeps a bounded ring of recent rare-path events
  (worker deaths, rollbacks, egd replays) for
  postmortems.

* :mod:`repro.obs.monitor` — observability over *time* and the first
  closed control loop: bounded time-series sampled from the metrics
  registry and the service's stats, declarative health rules with
  hysteresis, a slow-query log with retained explain plans, and the
  background ``Monitor`` (``service.start_monitor(...)``) whose
  ``AutoRebalance`` action reacts to sustained hot-shard alerts.
  ``python -m repro.obs`` dumps health + recent series + slow queries
  for a demo workload.
"""

from __future__ import annotations

from repro.obs.explain import (
    CacheProbe,
    JoinStep,
    QueryExplain,
    ScatterRule,
    ShardFanout,
)
from repro.obs.flight import FLIGHT_RECORDER, FlightEvent, FlightRecorder
from repro.obs.metrics import (
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.monitor import (
    ActionRecord,
    AutoRebalance,
    HealthReport,
    HealthRule,
    HealthTransition,
    Monitor,
    RuleStatus,
    Series,
    SlowQuery,
    SlowQueryLog,
    TimeSeriesStore,
    default_rules,
)
from repro.obs.trace import TRACER, Span, Tracer, format_trace

__all__ = [
    "ActionRecord",
    "AutoRebalance",
    "CacheProbe",
    "Counter",
    "default_rules",
    "FLIGHT_RECORDER",
    "FlightEvent",
    "FlightRecorder",
    "format_trace",
    "Gauge",
    "HealthReport",
    "HealthRule",
    "HealthTransition",
    "Histogram",
    "JoinStep",
    "METRICS",
    "MetricsRegistry",
    "Monitor",
    "QueryExplain",
    "RuleStatus",
    "ScatterRule",
    "Series",
    "ShardFanout",
    "SlowQuery",
    "SlowQueryLog",
    "Span",
    "TimeSeriesStore",
    "TRACER",
    "Tracer",
]
