"""Time-series retention, health rules, slow queries and the autopilot.

PR 7 made the serving stack observable point-in-time; this module makes
it observable *over time* and closes the first control loop:

* :class:`TimeSeriesStore` — bounded ring-buffer series sampled from a
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot and the service's
  own ``stats()``.  Counters (and histogram counts) become per-second
  **rates**, gauges and histogram means/quantiles become **levels**,
  and every numeric scalar of a scenario's stats is flattened to a
  ``scenario.<name>.<path>`` level series.  Memory is fixed: each
  series is a ``deque(maxlen=capacity)``.

* :class:`HealthRule` — a declarative predicate over the last K samples
  of one series (``level`` / ``delta`` / ``share`` / ``stall`` modes)
  mapping to ``ok`` / ``warn`` / ``critical``.  The monitor applies
  hysteresis on top: a state only escalates after ``trigger_for``
  consecutive breaching samples and only clears after ``clear_for``
  clean ones, so one noisy sample never flaps an alert.

* :class:`SlowQueryLog` — a bounded ring of queries that exceeded a
  latency threshold, each carrying the request fingerprint, route,
  lock-wait/evaluate split, epoch, and a *retained* explain plan
  (captured with the explain machinery under the same read lock the
  answer was served under — nothing is re-evaluated).

* :class:`Monitor` — the background sampler owned by
  ``ExchangeService.start_monitor(...)``.  Each tick samples the
  registry and the service's stats, evaluates the rules, records
  ``health_transition`` flight events, and runs *actions*;
  :class:`AutoRebalance` is the built-in action that reacts to a
  sustained hot-shard alert by invoking ``service.rebalance(name)``
  with a cooldown, a per-scenario concurrency guard (never while a
  manual reshard is in flight) and an audit trail.

Clock discipline — ``Monitor._now`` is the *only* place this module
reads ``time.monotonic()`` (lint-enforced): every series timestamp and
rule window derives from sampler ticks, so tests and the CLI can drive
``tick(at=...)`` deterministically.  Wall-clock stamps on reports and
slow queries use ``time.time()`` and are cosmetic.

The module deliberately never imports :mod:`repro.serving` — actions
duck-type the service — so the dependency arrow keeps pointing from
serving to obs.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.obs.explain import QueryExplain
from repro.obs.flight import FLIGHT_RECORDER, FlightRecorder
from repro.obs.metrics import METRICS, MetricsRegistry

_SEVERITY = {"ok": 0, "warn": 1, "critical": 2}


# ---------------------------------------------------------------------------
# Time-series retention
# ---------------------------------------------------------------------------


class Series:
    """One named ring of ``(timestamp, value)`` points, oldest first."""

    __slots__ = ("name", "_points")

    def __init__(self, name: str, capacity: int):
        self.name = name
        self._points: deque[tuple[float, float]] = deque(maxlen=capacity)

    def append(self, at: float, value: float) -> None:
        self._points.append((at, value))

    def points(self) -> list[tuple[float, float]]:
        return list(self._points)

    def tail(self, k: int) -> list[tuple[float, float]]:
        if k <= 0:
            return []
        points = self._points
        if len(points) <= k:
            return list(points)
        return list(points)[-k:]

    def last(self) -> tuple[float, float] | None:
        return self._points[-1] if self._points else None

    def __len__(self) -> int:
        return len(self._points)


class TimeSeriesStore:
    """Bounded per-series rings fed from registry and stats snapshots.

    The store itself is unlocked — the owning :class:`Monitor`
    serialises all access under its mutex, and standalone use (tests,
    the CLI) is single-threaded.  ``sample()`` never reads a clock:
    the caller supplies ``at``, keeping the sampler the single time
    source.
    """

    def __init__(self, capacity: int = 240):
        if capacity < 2:
            raise ValueError("a series needs at least 2 points to be a series")
        self.capacity = capacity
        self._series: dict[str, Series] = {}
        #: Last raw cumulative value per counter-like source, for rates.
        self._raw: dict[str, tuple[float, float]] = {}

    # -- recording ---------------------------------------------------------

    def record(self, name: str, at: float, value: float) -> None:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = Series(name, self.capacity)
        series.append(at, float(value))

    def _record_rate(self, name: str, at: float, raw: float) -> None:
        """Record ``name`` as the per-second delta of a cumulative source."""
        previous = self._raw.get(name)
        self._raw[name] = (at, raw)
        if previous is None:
            return  # first observation: no interval to rate over yet
        prev_at, prev_raw = previous
        if at <= prev_at or raw < prev_raw:
            return  # clock went nowhere or the counter was reset
        self.record(name, at, (raw - prev_raw) / (at - prev_at))

    def sample(self, snapshot: Mapping[str, Any], at: float, stats: Any) -> int:
        """Fold one registry snapshot and one service stats snapshot into
        the series; returns #series touched.

        Counters and histogram counts become ``<name>.rate`` series;
        gauges, histogram means and quantiles become levels.  ``stats``
        is a :class:`~repro.serving.service.ServiceStats` (duck-typed): its
        ``instruments`` join the registry's, ``epoch`` becomes ``service.epoch``
        and each scenario's stats flatten via ``asdict`` into
        ``scenario.<name>.<path>`` — numeric scalars only; bools, strings and
        sequences are skipped so per-shard tuples don't explode the series.
        """
        before = len(self._series)
        for name, inst in {**snapshot.get("instruments", {}), **stats.instruments}.items():
            kind = inst.get("type")
            if kind == "counter":
                self._record_rate(f"{name}.rate", at, float(inst["value"]))
            elif kind == "gauge":
                self.record(name, at, float(inst["value"]))
            elif kind == "histogram":
                count = int(inst.get("count", 0))
                self._record_rate(f"{name}.rate", at, float(count))
                if count:
                    self.record(f"{name}.mean", at, float(inst["sum"]) / count)
                for label, value in (inst.get("quantiles") or {}).items():
                    if value is not None:
                        self.record(f"{name}.{label}", at, float(value))
        self.record("service.epoch", at, float(stats.epoch))
        for scenario in stats.scenarios:
            self._flatten(f"scenario.{scenario.name}", asdict(scenario), at)
        return len(self._series) - before

    def _flatten(self, prefix: str, payload: Any, at: float) -> None:
        if isinstance(payload, Mapping):
            for key, value in payload.items():
                self._flatten(f"{prefix}.{key}", value, at)
        elif isinstance(payload, bool) or payload is None:
            return
        elif isinstance(payload, (int, float)):
            self.record(prefix, at, float(payload))

    # -- reading -----------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._series)

    def series(self, name: str) -> Series | None:
        return self._series.get(name)

    def window(self, name: str, k: int) -> list[tuple[float, float]]:
        """The last ``k`` points of ``name`` (fewer if young, [] if absent)."""
        series = self._series.get(name)
        return series.tail(k) if series is not None else []

    def __len__(self) -> int:
        return len(self._series)

    # -- retention ---------------------------------------------------------

    def drop_prefix(self, prefix: str) -> int:
        """Drop every series (and rate baseline) under ``prefix``; count dropped."""
        doomed = [name for name in self._series if name.startswith(prefix)]
        for name in doomed:
            del self._series[name]
        for name in [name for name in self._raw if name.startswith(prefix)]:
            del self._raw[name]
        return len(doomed)

    def drop_scenario(self, scenario: str) -> int:
        return self.drop_prefix(f"scenario.{scenario}.")

    def to_dict(self, tail: int = 8) -> dict[str, Any]:
        return {
            name: [[at, value] for at, value in series.tail(tail)]
            for name, series in sorted(self._series.items())
        }


# ---------------------------------------------------------------------------
# Health rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HealthRule:
    """A declarative predicate over the last K samples of one series.

    ``series`` may contain ``{scenario}``, making the rule per-scenario
    (one independent state machine per registered scenario).  Modes:

    ``level``
        The latest sample, compared against the thresholds directly.
    ``delta``
        ``last - first`` over the trailing ``window + 1`` samples.
    ``share``
        ``Δseries / (Δseries + Δratio_with)`` over the window — e.g. the
        recent cache hit *rate* from two cumulative counters.  Yields no
        verdict until the combined delta reaches ``min_total`` (no
        traffic is not a collapse).
    ``stall``
        The length of the trailing run of *unchanged* samples, capped at
        ``window``.  With ``guard_series`` set, only stalls while the
        guard shows activity count (a quiet system is allowed to hold
        its watermark still).

    Thresholds breach at ``value >= warn/critical`` when
    ``higher_is_bad`` (the default) and at ``<=`` otherwise.  A missing
    series or an undecidable mode yields ``None`` — the monitor keeps
    the previous state and collects no new evidence.
    """

    name: str
    series: str
    description: str = ""
    mode: str = "level"
    window: int = 3
    warn: float | None = None
    critical: float | None = None
    higher_is_bad: bool = True
    ratio_with: str | None = None
    min_total: float = 0.0
    guard_series: str | None = None
    trigger_for: int = 2
    clear_for: int = 2

    def __post_init__(self) -> None:
        if self.mode not in ("level", "delta", "share", "stall"):
            raise ValueError(f"unknown rule mode {self.mode!r}")
        if self.mode == "share" and self.ratio_with is None:
            raise ValueError("share mode needs ratio_with")
        if self.trigger_for < 1 or self.clear_for < 1:
            raise ValueError("trigger_for/clear_for must be >= 1")

    @property
    def per_scenario(self) -> bool:
        return "{scenario}" in self.series

    def _name_for(self, template: str, scenario: str | None) -> str:
        return template.format(scenario=scenario) if scenario is not None else template

    def measure(self, store: TimeSeriesStore, scenario: str | None) -> float | None:
        """The rule's measured value for one subject, or ``None`` (no evidence)."""
        series = self._name_for(self.series, scenario)
        if self.mode == "level":
            points = store.window(series, 1)
            return points[-1][1] if points else None
        if self.mode == "delta":
            points = store.window(series, self.window + 1)
            if len(points) < 2:
                return None
            return points[-1][1] - points[0][1]
        if self.mode == "share":
            numerator = store.window(series, self.window + 1)
            denominator = store.window(
                self._name_for(self.ratio_with, scenario), self.window + 1
            )
            if len(numerator) < 2 or len(denominator) < 2:
                return None
            gained = numerator[-1][1] - numerator[0][1]
            lost = denominator[-1][1] - denominator[0][1]
            total = gained + lost
            if total < max(self.min_total, 1e-9):
                return None
            return gained / total
        # stall
        points = store.window(series, self.window + 1)
        if len(points) < 2:
            return None
        if self.guard_series is not None:
            guard = store.window(self._name_for(self.guard_series, scenario), self.window)
            if sum(value for _, value in guard) <= 0:
                return None
        run = 0
        values = [value for _, value in points]
        for previous, current in zip(reversed(values[:-1]), reversed(values[1:])):
            if current != previous:
                break
            run += 1
        return float(run)

    def classify(self, value: float | None) -> str | None:
        if value is None:
            return None

        def breached(threshold: float) -> bool:
            return value >= threshold if self.higher_is_bad else value <= threshold

        if self.critical is not None and breached(self.critical):
            return "critical"
        if self.warn is not None and breached(self.warn):
            return "warn"
        return "ok"


def default_rules(latency_budget_seconds: float = 0.25) -> tuple[HealthRule, ...]:
    """The built-in rule set the monitor ships with."""
    return (
        HealthRule(
            "hot-shard-imbalance",
            "scenario.{scenario}.sharding.imbalance",
            description="worker source-fact imbalance (max/mean)",
            mode="level",
            warn=1.5,
            critical=2.0,
            trigger_for=2,
            clear_for=2,
        ),
        HealthRule(
            "worker-degradation",
            "scenario.{scenario}.sharding.worker_failures",
            description="worker failures observed over the window",
            mode="delta",
            window=4,
            warn=0.5,
            critical=2.5,
            trigger_for=1,
            clear_for=4,
        ),
        HealthRule(
            "cache-hit-collapse",
            "scenario.{scenario}.cache.hits",
            description="recent cache hit rate from hit/miss counter deltas",
            mode="share",
            ratio_with="scenario.{scenario}.cache.misses",
            higher_is_bad=False,
            window=4,
            warn=0.5,
            critical=0.1,
            min_total=8,
            trigger_for=2,
            clear_for=2,
        ),
        HealthRule(
            "epoch-stall",
            "service.epoch",
            description="epoch watermark frozen while updates keep applying",
            mode="stall",
            window=5,
            warn=3,
            critical=5,
            guard_series="service.update.apply_seconds.rate",
            trigger_for=1,
            clear_for=1,
        ),
        HealthRule(
            "query-latency-budget",
            "service.query.evaluate_seconds.p99",
            description="p99 query evaluate latency against the budget",
            mode="level",
            warn=latency_budget_seconds / 2,
            critical=latency_budget_seconds,
            trigger_for=2,
            clear_for=2,
        ),
    )


# ---------------------------------------------------------------------------
# Report shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuleStatus:
    """One rule's state for one subject at one evaluation tick."""

    rule: str
    scenario: str | None
    state: str
    value: float | None
    since_tick: int
    tick: int
    description: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "scenario": self.scenario,
            "state": self.state,
            "value": self.value,
            "since_tick": self.since_tick,
            "tick": self.tick,
            "description": self.description,
        }


@dataclass(frozen=True)
class HealthTransition:
    """A state change the hysteresis machine committed."""

    tick: int
    rule: str
    scenario: str | None
    previous: str
    state: str
    value: float | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "tick": self.tick,
            "rule": self.rule,
            "scenario": self.scenario,
            "previous": self.previous,
            "state": self.state,
            "value": self.value,
        }


@dataclass(frozen=True)
class ActionRecord:
    """One audit-trail entry for a monitor action attempt."""

    tick: int
    action: str
    scenario: str | None
    rule: str
    outcome: str  # applied | no-op | planned | skipped | failed
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "tick": self.tick,
            "action": self.action,
            "scenario": self.scenario,
            "rule": self.rule,
            "outcome": self.outcome,
            "detail": {key: repr(value) for key, value in sorted(self.detail.items())},
        }


@dataclass(frozen=True)
class HealthReport:
    """A torn-free view of the monitor's last evaluation."""

    state: str  # ok | warn | critical | unknown
    tick: int
    wall: float
    interval: float
    running: bool
    scenarios: tuple[str, ...]
    statuses: tuple[RuleStatus, ...]
    transitions: tuple[HealthTransition, ...]
    actions: tuple[ActionRecord, ...]
    series: int
    slow_queries: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "state": self.state,
            "tick": self.tick,
            "wall": self.wall,
            "interval": self.interval,
            "running": self.running,
            "scenarios": list(self.scenarios),
            "statuses": [status.to_dict() for status in self.statuses],
            "transitions": [transition.to_dict() for transition in self.transitions],
            "actions": [action.to_dict() for action in self.actions],
            "series": self.series,
            "slow_queries": self.slow_queries,
        }

    def render(self) -> str:
        lines = [
            f"health: {self.state.upper()} "
            f"(tick {self.tick}, {len(self.scenarios)} scenario(s), "
            f"{self.series} series, monitor {'running' if self.running else 'stopped'})"
        ]
        for status in self.statuses:
            subject = status.scenario or "service"
            value = "n/a" if status.value is None else f"{status.value:.4g}"
            lines.append(
                f"  [{status.state:>8}] {status.rule} {subject} "
                f"value={value} since tick {status.since_tick}"
            )
        if self.transitions:
            lines.append("recent transitions:")
            for transition in self.transitions:
                subject = transition.scenario or "service"
                value = "n/a" if transition.value is None else f"{transition.value:.4g}"
                lines.append(
                    f"  tick {transition.tick} {transition.rule} {subject} "
                    f"{transition.previous}->{transition.state} ({value})"
                )
        if self.actions:
            lines.append("actions:")
            for action in self.actions:
                subject = action.scenario or "service"
                lines.append(
                    f"  tick {action.tick} {action.action} {subject} "
                    f"{action.outcome} (rule {action.rule})"
                )
        lines.append(f"slow queries captured: {self.slow_queries}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Slow-query capture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlowQuery:
    """One over-threshold query with its retained explain plan."""

    wall: float
    scenario: str
    fingerprint: str
    route: str
    cached: bool
    lock_wait_seconds: float
    evaluate_seconds: float
    epoch: int
    explain: QueryExplain | None = None

    @property
    def total_seconds(self) -> float:
        return self.lock_wait_seconds + self.evaluate_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "wall": self.wall,
            "scenario": self.scenario,
            "fingerprint": self.fingerprint,
            "route": self.route,
            "cached": self.cached,
            "lock_wait_seconds": self.lock_wait_seconds,
            "evaluate_seconds": self.evaluate_seconds,
            "epoch": self.epoch,
            "explain": None if self.explain is None else self.explain.to_dict(),
        }

    def render(self) -> str:
        return (
            f"{self.scenario} {self.fingerprint} route={self.route} "
            f"cached={self.cached} lock_wait={self.lock_wait_seconds * 1000:.2f}ms "
            f"evaluate={self.evaluate_seconds * 1000:.2f}ms epoch={self.epoch}"
        )


class SlowQueryLog:
    """Bounded ring of :class:`SlowQuery`, recorded from request threads.

    The threshold compares against the query's in-lock time (lock wait
    excluded — a query stuck behind a committing writer is the writer's
    story, not the query plan's).  ``capture_explain`` retains the
    explain plan computed under the same read lock the answer was
    served under; disabling it keeps capture allocation-only.
    """

    def __init__(
        self,
        threshold: float = 0.1,
        capacity: int = 64,
        capture_explain: bool = True,
    ):
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        self.threshold = float(threshold)
        self.capture_explain = capture_explain
        self._mutex = threading.Lock()
        self._entries: deque[SlowQuery] = deque(maxlen=capacity)
        self._total = 0

    def record(
        self,
        *,
        scenario: str,
        fingerprint: str,
        route: str,
        cached: bool,
        lock_wait_seconds: float,
        evaluate_seconds: float,
        epoch: int,
        explain: QueryExplain | None = None,
    ) -> SlowQuery:
        entry = SlowQuery(
            wall=time.time(),
            scenario=scenario,
            fingerprint=fingerprint,
            route=route,
            cached=cached,
            lock_wait_seconds=lock_wait_seconds,
            evaluate_seconds=evaluate_seconds,
            epoch=epoch,
            explain=explain,
        )
        with self._mutex:
            self._entries.append(entry)
            self._total += 1
        return entry

    def entries(self, scenario: str | None = None) -> list[SlowQuery]:
        with self._mutex:
            entries = list(self._entries)
        if scenario is not None:
            entries = [entry for entry in entries if entry.scenario == scenario]
        return entries

    @property
    def total(self) -> int:
        """Queries captured over the log's lifetime (ring evictions included)."""
        with self._mutex:
            return self._total

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def to_dict(self) -> list[dict[str, Any]]:
        return [entry.to_dict() for entry in self.entries()]


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


class AutoRebalance:
    """React to a sustained hot-shard alert by rebalancing the scenario.

    The closed loop's safety envelope:

    * only fires once a rule's hysteresis has *committed* at least
      ``min_state`` (a blip never reshards);
    * per-scenario cooldown of ``cooldown_ticks`` sampling periods
      between attempts, successful or not;
    * ``service.rebalance(..., wait=False)`` refuses to run while a
      manual rebalance holds the scenario's rebalance guard, and the
      epoch-staleness abort inside the reshard choreography catches the
      narrower publish race — a refusal is recorded as ``skipped``;
    * every attempt lands in the monitor's audit trail and the flight
      recorder.
    """

    name = "auto-rebalance"

    def __init__(
        self,
        rule: str = "hot-shard-imbalance",
        min_state: str = "critical",
        cooldown_ticks: int = 5,
        dry_run: bool = False,
    ):
        if min_state not in _SEVERITY:
            raise ValueError(f"unknown state {min_state!r}")
        self.rule = rule
        self.min_state = min_state
        self.cooldown_ticks = cooldown_ticks
        self.dry_run = dry_run

    def __call__(self, monitor: "Monitor", service: Any, report: HealthReport) -> None:
        for status in report.statuses:
            if status.rule != self.rule or status.scenario is None:
                continue
            if _SEVERITY.get(status.state, 0) < _SEVERITY[self.min_state]:
                continue
            last = monitor.last_action_tick(self.name, status.scenario)
            if last is not None and report.tick - last < self.cooldown_ticks:
                continue  # cooling down: stay silent, no audit spam
            try:
                rebalance = service.rebalance(
                    status.scenario,
                    dry_run=self.dry_run,
                    wait=False,
                    trigger=f"auto:{self.rule}",
                )
            except Exception as exc:
                # In-flight manual rebalance, unsharded scenario, worker
                # failure mid-reshard — all land here; the monitor must
                # outlive every one of them.
                monitor.record_action(
                    self.name, status.scenario, self.rule, "skipped",
                    {"reason": str(exc) or type(exc).__name__},
                )
                continue
            if self.dry_run:
                outcome = "planned"
            elif getattr(rebalance, "applied", False):
                outcome = "applied"
            else:
                outcome = "no-op"
            monitor.record_action(
                self.name, status.scenario, self.rule, outcome,
                {
                    "moves": len(getattr(rebalance, "moves", ()) or ()),
                    "imbalance_before": getattr(rebalance, "imbalance_before", None),
                    "epoch_after": getattr(rebalance, "epoch_after", None),
                },
            )


# ---------------------------------------------------------------------------
# The monitor
# ---------------------------------------------------------------------------


class _RuleState:
    """Per-(rule, subject) hysteresis: streaks must persist to commit."""

    __slots__ = ("state", "since_tick", "pending", "streak")

    def __init__(self, tick: int):
        self.state = "ok"
        self.since_tick = tick
        self.pending: str | None = None
        self.streak = 0

    def step(self, severity: str, rule: HealthRule, tick: int) -> tuple[str, str]:
        previous = self.state
        if severity == self.state:
            self.pending, self.streak = None, 0
            return previous, self.state
        if severity == self.pending:
            self.streak += 1
        else:
            self.pending, self.streak = severity, 1
        escalating = _SEVERITY[severity] > _SEVERITY[self.state]
        needed = rule.trigger_for if escalating else rule.clear_for
        if self.streak >= needed:
            self.state = severity
            self.since_tick = tick
            self.pending, self.streak = None, 0
        return previous, self.state


class Monitor:
    """Background sampler, rule evaluator and action driver.

    Holds the service only weakly: once the service is
    garbage-collected the next tick observes the dead reference and the
    thread stops itself.  Each tick reads the instruments from
    ``registry``, and the scenarios and latencies from ``service.stats()``.
    ``tick(at=...)`` may also be driven manually — the CLI and the
    tests do — in which case no thread is involved at all.
    """

    def __init__(
        self,
        service: Any,
        interval: float = 1.0,
        rules: Iterable[HealthRule] | None = None,
        actions: Iterable[Callable[["Monitor", Any, HealthReport], None]] = (),
        history: int = 240,
        slow_queries: SlowQueryLog | None = None,
        registry: MetricsRegistry | None = None,
        flight: FlightRecorder | None = None,
    ):
        self._service_ref = weakref.ref(service)
        self.interval = float(interval)
        self.rules = tuple(rules) if rules is not None else default_rules()
        self.actions = tuple(actions)
        self.slow_queries = slow_queries
        self.store = TimeSeriesStore(capacity=history)
        self._registry = registry if registry is not None else METRICS
        self._flight = flight if flight is not None else FLIGHT_RECORDER
        self._mutex = threading.Lock()
        self._tick = 0
        self._states: dict[tuple[str, str | None], _RuleState] = {}
        self._last_statuses: tuple[RuleStatus, ...] = ()
        self._transitions: deque[HealthTransition] = deque(maxlen=64)
        self._audit: deque[ActionRecord] = deque(maxlen=64)
        self._last_action: dict[tuple[str, str | None], int] = {}
        self._known: set[str] = set()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- clock -------------------------------------------------------------

    def _now(self) -> float:
        """The sampler clock — the module's single monotonic read."""
        return time.monotonic()

    # -- sampling ----------------------------------------------------------

    def tick(self, at: float | None = None) -> HealthReport | None:
        """Sample, evaluate, act.  Returns the report, or ``None`` if the
        service has been garbage-collected (the monitor then stops)."""
        service = self._service_ref()
        if service is None:
            self._stop.set()
            return None
        if at is None:
            at = self._now()
        # Sampling happens OUTSIDE the monitor mutex: service.stats()
        # takes scenario read locks, and health() callers must never
        # wait behind those.
        snapshot = self._registry.snapshot()
        stats = service.stats()
        names = {scenario.name for scenario in stats.scenarios}
        slow = None if self.slow_queries is None else self.slow_queries.total
        with self._mutex:
            self._tick += 1
            for gone in self._known - names:
                self._forget_locked(gone)
            self._known = names
            self.store.sample(snapshot, at, stats)
            if slow is not None:
                self.store.record("service.slow_queries", at, float(slow))
            statuses, transitions = self._evaluate_locked(sorted(names))
            self._last_statuses = statuses
            self._transitions.extend(transitions)
            report = self._report_locked()
        for transition in transitions:
            self._flight.record(
                "health_transition",
                scenario=transition.scenario,
                rule=transition.rule,
                previous=transition.previous,
                state=transition.state,
                value=transition.value,
            )
        for action in self.actions:
            try:
                action(self, service, report)
            except Exception as exc:  # actions never take the monitor down
                self._flight.record(
                    "monitor_error", action=getattr(action, "name", repr(action)),
                    error=repr(exc),
                )
        return report

    def _evaluate_locked(
        self, scenarios: list[str]
    ) -> tuple[tuple[RuleStatus, ...], list[HealthTransition]]:
        statuses: list[RuleStatus] = []
        transitions: list[HealthTransition] = []
        for rule in self.rules:
            subjects: list[str | None] = list(scenarios) if rule.per_scenario else [None]
            for subject in subjects:
                value = rule.measure(self.store, subject)
                key = (rule.name, subject)
                state = self._states.get(key)
                severity = rule.classify(value)
                if severity is None:
                    if state is None:
                        continue  # never had evidence: no status to report
                    statuses.append(RuleStatus(
                        rule.name, subject, state.state, value,
                        state.since_tick, self._tick, rule.description,
                    ))
                    continue
                if state is None:
                    state = self._states[key] = _RuleState(self._tick)
                previous, current = state.step(severity, rule, self._tick)
                if current != previous:
                    transitions.append(HealthTransition(
                        self._tick, rule.name, subject, previous, current, value,
                    ))
                statuses.append(RuleStatus(
                    rule.name, subject, current, value,
                    state.since_tick, self._tick, rule.description,
                ))
        return tuple(statuses), transitions

    def _report_locked(self) -> HealthReport:
        worst = "unknown" if not self._last_statuses else max(
            (status.state for status in self._last_statuses),
            key=lambda state: _SEVERITY.get(state, 0),
        )
        return HealthReport(
            state=worst,
            tick=self._tick,
            wall=time.time(),
            interval=self.interval,
            running=self.running,
            scenarios=tuple(sorted(self._known)),
            statuses=self._last_statuses,
            transitions=tuple(self._transitions),
            actions=tuple(self._audit),
            series=len(self.store),
            slow_queries=len(self.slow_queries) if self.slow_queries is not None else 0,
        )

    # -- reporting ---------------------------------------------------------

    def health(self) -> HealthReport:
        """The last evaluation as one consistent report (never torn: every
        status comes from the same tick, assembled under the mutex)."""
        with self._mutex:
            return self._report_locked()

    # -- actions / audit ---------------------------------------------------

    def record_action(
        self,
        action: str,
        scenario: str | None,
        rule: str,
        outcome: str,
        detail: Mapping[str, Any] | None = None,
    ) -> ActionRecord:
        record = ActionRecord(
            tick=self._tick, action=action, scenario=scenario,
            rule=rule, outcome=outcome, detail=dict(detail or {}),
        )
        with self._mutex:
            self._audit.append(record)
            self._last_action[(action, scenario)] = record.tick
        self._flight.record(
            "monitor_action", scenario=scenario,
            action=action, rule=rule, outcome=outcome,
        )
        return record

    def last_action_tick(self, action: str, scenario: str | None) -> int | None:
        with self._mutex:
            return self._last_action.get((action, scenario))

    def audit(self) -> list[ActionRecord]:
        with self._mutex:
            return list(self._audit)

    # -- retention ---------------------------------------------------------

    def forget_scenario(self, name: str) -> None:
        """Drop a deregistered scenario's series, rule states and statuses."""
        with self._mutex:
            self._forget_locked(name)

    def _forget_locked(self, name: str) -> None:
        self.store.drop_scenario(name)
        self._known.discard(name)
        for key in [key for key in self._states if key[1] == name]:
            del self._states[key]
        for key in [key for key in self._last_action if key[1] == name]:
            del self._last_action[key]
        self._last_statuses = tuple(
            status for status in self._last_statuses if status.scenario != name
        )

    # -- thread lifecycle --------------------------------------------------

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive() and not self._stop.is_set()

    def start(self) -> "Monitor":
        if self._thread is not None and self._thread.is_alive():
            raise RuntimeError("monitor already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-monitor", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                if self.tick() is None:
                    break  # service collected out from under us
            except Exception as exc:  # pragma: no cover - defensive
                self._flight.record("monitor_error", error=repr(exc))

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive() and thread is not threading.current_thread():
            thread.join(timeout)
        self._thread = None

    close = stop
