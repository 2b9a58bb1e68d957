"""repro.obs.monitor — series retention, rules, hysteresis, slow queries,
the monitor lifecycle and the auto-rebalance action's safety envelope.

Everything deterministic drives ``Monitor.tick(at=...)`` by hand against
isolated ``MetricsRegistry``/``FlightRecorder`` instances; only the
thread-lifecycle tests spawn the real background thread.
"""

from __future__ import annotations

import gc
import time
from dataclasses import replace

import pytest

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import (
    AutoRebalance,
    HealthReport,
    HealthRule,
    Monitor,
    RuleStatus,
    SlowQueryLog,
    TimeSeriesStore,
    default_rules,
)
from repro.serving import (
    CacheStats,
    ExchangeService,
    LockStats,
    ScenarioStats,
    ServiceStats,
    ShardingStats,
    UpdateStats,
)
from repro.serving.materialized import ServingError
from repro.workloads.elastic import elastic_workload
from repro.workloads.skewed import skewed_workload


def scenario_stats(name, source_tuples=0, **fields):
    """A :class:`ScenarioStats` with zeroed counters unless overridden."""
    defaults = dict(
        target_tuples=0, core_tuples=None, cache_entries=0,
        cache=CacheStats(), updates=UpdateStats(), lock=LockStats(),
    )
    return ScenarioStats(name, source_tuples, **{**defaults, **fields})


class FakeService:
    """The minimal surface a Monitor samples: ``stats()`` and weakref-ability."""

    def __init__(self, names=("s",)):
        self._names = list(names)

    def stats(self):
        scenarios = (
            scenario_stats(name, index + 1) for index, name in enumerate(self._names)
        )
        return ServiceStats(tuple(scenarios), epoch=3)


def make_monitor(service, rules=(), actions=(), slow=None):
    """An isolated monitor: fresh registry + recorder, manual ticks only."""
    registry = MetricsRegistry()
    flight = FlightRecorder()
    monitor = Monitor(
        service,
        interval=1.0,
        rules=rules,
        actions=actions,
        slow_queries=slow,
        registry=registry,
        flight=flight,
    )
    return monitor, registry, flight


# ---------------------------------------------------------------------------
# TimeSeriesStore
# ---------------------------------------------------------------------------


def test_series_are_bounded_rings():
    store = TimeSeriesStore(capacity=3)
    for at in range(10):
        store.record("x", float(at), float(at * at))
    assert store.window("x", 99) == [(7.0, 49.0), (8.0, 64.0), (9.0, 81.0)]
    assert store.window("x", 2) == [(8.0, 64.0), (9.0, 81.0)]
    assert store.window("missing", 5) == []


def test_sample_turns_counters_into_rates_and_histograms_into_levels():
    registry = MetricsRegistry()
    counter = registry.counter("reqs.total")
    gauge = registry.gauge("depth")
    histogram = registry.histogram("lat", buckets=(1.0, 10.0))
    store = TimeSeriesStore()

    counter.inc(10)
    gauge.set(4.0)
    histogram.observe(2.0)
    store.sample(registry.snapshot(), at=0.0, stats=ServiceStats(()))
    # first sample: no interval yet, so no rate points
    assert store.window("reqs.total.rate", 5) == []
    assert store.window("depth", 5) == [(0.0, 4.0)]

    counter.inc(30)
    histogram.observe(4.0)
    store.sample(registry.snapshot(), at=2.0, stats=ServiceStats(()))
    assert store.window("reqs.total.rate", 5) == [(2.0, 15.0)]
    assert store.window("lat.rate", 5) == [(2.0, 0.5)]
    [(_, mean)] = store.window("lat.mean", 1)
    assert mean == pytest.approx(3.0)
    assert store.window("lat.p99", 1)  # quantiles surface as levels


def test_sample_flattens_provider_scalars_and_skips_sequences():
    sharding = ShardingStats(
        epoch=4, shards=3, workers=2, local_stds=1, residual_stds=0,
        residual_sources=("R",), shard_source_tuples=(5, 6),
        shard_target_tuples=(5, 6, 0), scatter_queries=0, merged_queries=0,
        fanout_applies=0, imbalance=2.5, worker_mode="process",
    )
    stats = ServiceStats(
        (scenario_stats(
            "s",
            cache=CacheStats(hits=3, misses=1),
            core_tuples=True,  # a bool is an int subclass, but never a level
            sharding=sharding,
        ),),
        epoch=7,
    )
    store = TimeSeriesStore()
    store.sample(MetricsRegistry().snapshot(), at=1.0, stats=stats)
    assert store.window("scenario.s.cache.hits", 1) == [(1.0, 3.0)]
    assert store.window("scenario.s.sharding.imbalance", 1) == [(1.0, 2.5)]
    assert store.window("service.epoch", 1) == [(1.0, 7.0)]
    assert store.series("scenario.s.core_tuples") is None
    # sequences would explode the store; strings are not levels
    assert store.series("scenario.s.sharding.shard_source_tuples") is None
    assert store.series("scenario.s.sharding.worker_mode") is None
    assert store.series("scenario.s.name") is None


def test_drop_scenario_removes_series_and_rate_baselines():
    stats = ServiceStats((scenario_stats("a", 1), scenario_stats("b", 2)))
    store = TimeSeriesStore()
    store.sample(MetricsRegistry().snapshot(), at=0.0, stats=stats)
    store._record_rate("scenario.a.hits.rate", 0.0, 1.0)
    assert "scenario.a.source_tuples" in store.names()
    dropped = len([name for name in store.names() if name.startswith("scenario.a.")])
    assert store.drop_scenario("a") == dropped
    assert not any(name.startswith("scenario.a.") for name in store.names())
    assert "scenario.b.source_tuples" in store.names()
    assert not any(name.startswith("scenario.a.") for name in store._raw)


def test_counter_reset_does_not_produce_a_negative_rate():
    store = TimeSeriesStore()
    store._record_rate("c.rate", 0.0, 100.0)
    store._record_rate("c.rate", 1.0, 150.0)
    store._record_rate("c.rate", 2.0, 5.0)  # registry was reset underneath
    store._record_rate("c.rate", 3.0, 25.0)
    values = [value for _, value in store.window("c.rate", 10)]
    assert values == [50.0, 20.0]  # the reset interval is skipped, not negative


# ---------------------------------------------------------------------------
# HealthRule modes and classification
# ---------------------------------------------------------------------------


def feed(store, name, values):
    for at, value in enumerate(values):
        store.record(name, float(at), float(value))


def test_level_delta_and_classification_directions():
    store = TimeSeriesStore()
    feed(store, "g", [1.0, 2.0, 9.0])
    level = HealthRule("level", "g", warn=5.0, critical=8.0)
    assert level.measure(store, None) == 9.0
    assert level.classify(9.0) == "critical"
    assert level.classify(6.0) == "warn"
    assert level.classify(1.0) == "ok"
    assert level.classify(None) is None

    delta = HealthRule("delta", "g", mode="delta", window=2, warn=5.0)
    assert delta.measure(store, None) == 8.0  # 9 - 1 over the last 3 points

    lower_bad = HealthRule("low", "g", warn=0.5, critical=0.1, higher_is_bad=False)
    assert lower_bad.classify(0.05) == "critical"
    assert lower_bad.classify(0.3) == "warn"
    assert lower_bad.classify(0.9) == "ok"


def test_share_mode_is_the_windowed_hit_rate_with_a_traffic_floor():
    store = TimeSeriesStore()
    feed(store, "scenario.s.hits", [0, 10, 12])
    feed(store, "scenario.s.misses", [0, 0, 18])
    rule = HealthRule(
        "hit-rate",
        "scenario.{scenario}.hits",
        mode="share",
        ratio_with="scenario.{scenario}.misses",
        window=2,
        min_total=5,
        higher_is_bad=False,
        warn=0.5,
    )
    # Δhits=12, Δmisses=18 over the window → 40% hit rate
    assert rule.measure(store, "s") == pytest.approx(0.4)
    # below the traffic floor there is no verdict
    quiet = TimeSeriesStore()
    feed(quiet, "scenario.s.hits", [0, 1])
    feed(quiet, "scenario.s.misses", [0, 1])
    assert rule.measure(quiet, "s") is None


def test_stall_mode_counts_the_trailing_frozen_run_under_an_activity_guard():
    store = TimeSeriesStore()
    feed(store, "epoch", [1, 2, 3, 3, 3])
    feed(store, "activity", [1, 1, 1, 1, 1])
    rule = HealthRule(
        "stall", "epoch", mode="stall", window=4, warn=2, critical=4,
        guard_series="activity", trigger_for=1, clear_for=1,
    )
    assert rule.measure(store, None) == 2.0
    assert rule.classify(2.0) == "warn"
    # a quiet system is allowed to hold its watermark still
    quiet = TimeSeriesStore()
    feed(quiet, "epoch", [3, 3, 3, 3])
    feed(quiet, "activity", [0, 0, 0, 0])
    assert rule.measure(quiet, None) is None


def test_rule_validation():
    with pytest.raises(ValueError):
        HealthRule("bad", "s", mode="median")
    with pytest.raises(ValueError):
        HealthRule("bad", "s", mode="share")  # share needs ratio_with
    with pytest.raises(ValueError):
        HealthRule("bad", "s", trigger_for=0)


# ---------------------------------------------------------------------------
# Hysteresis
# ---------------------------------------------------------------------------


def hysteresis_monitor(trigger_for=2, clear_for=2):
    service = FakeService(names=())
    rule = HealthRule(
        "level", "signal", warn=5.0, critical=8.0,
        trigger_for=trigger_for, clear_for=clear_for,
    )
    monitor, registry, flight = make_monitor(service, rules=(rule,))
    gauge = registry.gauge("signal")
    return service, monitor, gauge, flight


def test_one_breaching_sample_does_not_flip_the_state():
    service, monitor, gauge, flight = hysteresis_monitor(trigger_for=2)
    gauge.set(9.0)
    report = monitor.tick(at=0.0)
    assert [s.state for s in report.statuses] == ["ok"]  # pending, not committed
    report = monitor.tick(at=1.0)
    assert [s.state for s in report.statuses] == ["critical"]
    transitions = flight.events(kind="health_transition")
    assert len(transitions) == 1
    assert transitions[0].detail["state"] == "critical"
    # an interleaved clean sample resets the breach streak
    gauge.set(1.0)
    monitor.tick(at=2.0)
    gauge.set(9.0)
    report = monitor.tick(at=3.0)
    assert [s.state for s in report.statuses] == ["critical"]  # still held
    gauge.set(1.0)
    monitor.tick(at=4.0)
    report = monitor.tick(at=5.0)
    assert [s.state for s in report.statuses] == ["ok"]  # cleared after clear_for


def test_flapping_signal_never_commits():
    service, monitor, gauge, flight = hysteresis_monitor(trigger_for=3)
    for at in range(12):
        gauge.set(9.0 if at % 2 else 1.0)
        report = monitor.tick(at=float(at))
    assert [s.state for s in report.statuses] == ["ok"]
    assert flight.events(kind="health_transition") == []


def test_report_state_is_the_worst_status_and_health_is_consistent():
    service = FakeService(names=())
    warn_rule = HealthRule("w", "a", warn=1.0, trigger_for=1)
    crit_rule = HealthRule("c", "b", critical=1.0, trigger_for=1)
    monitor, registry, _ = make_monitor(service, rules=(warn_rule, crit_rule))
    registry.gauge("a").set(5.0)
    registry.gauge("b").set(5.0)
    report = monitor.tick(at=0.0)
    assert report.state == "critical"
    assert {s.rule: s.state for s in report.statuses} == {"w": "warn", "c": "critical"}
    again = monitor.health()
    assert again.tick == report.tick
    assert {s.rule: s.state for s in again.statuses} == {"w": "warn", "c": "critical"}
    assert all(s.tick == again.tick for s in again.statuses)
    rendered = report.render()
    assert "CRITICAL" in rendered and "recent transitions" in rendered
    assert report.to_dict()["state"] == "critical"


# ---------------------------------------------------------------------------
# Satellite 3: deregistration drops series, states and statuses
# ---------------------------------------------------------------------------


def test_deregistered_scenario_is_forgotten_by_the_monitor():
    workload = skewed_workload(customers=6, accounts=20, batches=0)
    service = ExchangeService()
    service.register("keep", workload.mapping, workload.source,
                     target_dependencies=workload.target_dependencies)
    service.register("drop", workload.mapping, workload.source,
                     target_dependencies=workload.target_dependencies)
    monitor = service.start_monitor(start_thread=False)
    try:
        monitor.tick()
        names = monitor.store.names()
        assert any(name.startswith("scenario.keep.") for name in names)
        assert any(name.startswith("scenario.drop.") for name in names)
        service.deregister("drop")
        # dropped synchronously — no tick needed for health() to be clean
        assert not any(
            name.startswith("scenario.drop.") for name in monitor.store.names()
        )
        assert all(s.scenario != "drop" for s in service.health().statuses)
        monitor.tick()
        assert not any(
            name.startswith("scenario.drop.") for name in monitor.store.names()
        )
        assert any(
            name.startswith("scenario.keep.") for name in monitor.store.names()
        )
    finally:
        service.stop_monitor()


def test_monitor_tick_prunes_scenarios_that_vanished_without_notification():
    service = FakeService(names=["a", "b"])
    monitor, _, _ = make_monitor(service)
    monitor.tick(at=0.0)
    assert monitor.store.window("scenario.b.source_tuples", 1) == [(0.0, 2.0)]
    service._names = ["a"]
    monitor.tick(at=1.0)
    assert monitor.health().scenarios == ("a",)
    assert not any(name.startswith("scenario.b.") for name in monitor.store.names())
    assert monitor.store.window("scenario.a.source_tuples", 2) == [(0.0, 1.0), (1.0, 1.0)]


# ---------------------------------------------------------------------------
# Slow queries
# ---------------------------------------------------------------------------


def test_slow_query_log_captures_fingerprint_route_epoch_and_explain():
    workload = skewed_workload(customers=6, accounts=24, batches=1)
    service = ExchangeService()
    service.register(workload.name, workload.mapping, workload.source,
                     target_dependencies=workload.target_dependencies)
    service.start_monitor(start_thread=False, slow_query_threshold=0.0)
    try:
        query = workload.queries[0]
        result = service.query(workload.name, query)
        [entry] = service.slow_queries()
        assert entry.scenario == workload.name
        assert entry.route == result.route
        assert entry.cached == result.cached
        assert entry.epoch == result.epoch
        assert entry.evaluate_seconds > 0
        assert entry.explain is not None
        assert entry.explain.route == service.explain(workload.name, query).route
        assert entry.fingerprint == entry.explain.query
        assert entry.to_dict()["explain"] is not None
        assert workload.name in entry.render()
        # the retained plan reflects the serve-time state: a repeat of the
        # same query is a cache hit and says so
        service.query(workload.name, query)
        second = service.slow_queries()[-1]
        assert second.cached is True
        # scenario filter
        assert service.slow_queries("no-such") == []
    finally:
        service.stop_monitor()


def test_threshold_gates_capture_and_capacity_bounds_the_ring():
    log = SlowQueryLog(threshold=10.0, capacity=2)
    assert len(log) == 0
    for index in range(5):
        log.record(
            scenario="s", fingerprint=f"q{index}", route="cache", cached=True,
            lock_wait_seconds=0.0, evaluate_seconds=0.2, epoch=index,
        )
    assert len(log) == 2
    assert [entry.fingerprint for entry in log.entries()] == ["q3", "q4"]
    assert log.total == 5
    log.clear()
    assert log.entries() == [] and log.total == 5
    with pytest.raises(ValueError):
        SlowQueryLog(threshold=-1.0)


def test_queries_under_the_threshold_are_not_captured():
    workload = skewed_workload(customers=6, accounts=24, batches=0)
    service = ExchangeService()
    service.register(workload.name, workload.mapping, workload.source,
                     target_dependencies=workload.target_dependencies)
    service.start_monitor(start_thread=False, slow_query_threshold=30.0)
    try:
        service.query(workload.name, workload.queries[0])
        assert service.slow_queries() == []
    finally:
        service.stop_monitor()


# ---------------------------------------------------------------------------
# Service lifecycle: start/stop/health
# ---------------------------------------------------------------------------


def test_start_monitor_is_exclusive_and_stop_is_idempotent():
    service = ExchangeService()
    monitor = service.start_monitor(start_thread=False)
    with pytest.raises(ServingError):
        service.start_monitor(start_thread=False)
    service.stop_monitor()
    service.stop_monitor()  # idempotent
    second = service.start_monitor(start_thread=False)
    assert second is not monitor
    service.stop_monitor()


def test_health_without_a_monitor_is_a_one_shot_sample():
    workload = skewed_workload(customers=6, accounts=24, batches=0)
    service = ExchangeService()
    service.register(workload.name, workload.mapping, workload.source,
                     target_dependencies=workload.target_dependencies)
    report = service.health()
    assert isinstance(report, HealthReport)
    assert report.tick == 1
    assert report.running is False
    # the latency-budget rule has cumulative-histogram evidence even on a
    # one-shot; delta/stall rules correctly report nothing
    assert service.slow_queries() == []


def test_background_thread_samples_and_stops():
    workload = skewed_workload(customers=6, accounts=24, batches=0)
    service = ExchangeService()
    service.register(workload.name, workload.mapping, workload.source,
                     target_dependencies=workload.target_dependencies)
    monitor = service.start_monitor(interval=0.01)
    try:
        deadline = time.perf_counter() + 5.0
        while monitor.health().tick == 0 and time.perf_counter() < deadline:
            time.sleep(0.01)
        assert monitor.health().tick > 0
        assert monitor.running
    finally:
        service.stop_monitor()
    assert not monitor.running


def test_monitor_thread_stops_when_the_service_is_collected():
    workload = skewed_workload(customers=6, accounts=24, batches=0)
    service = ExchangeService()
    service.register(workload.name, workload.mapping, workload.source,
                     target_dependencies=workload.target_dependencies)
    monitor = service.start_monitor(interval=0.01)
    thread = monitor._thread
    del service
    gc.collect()
    deadline = time.perf_counter() + 5.0
    while thread.is_alive() and time.perf_counter() < deadline:
        time.sleep(0.01)
    assert not thread.is_alive()
    assert monitor.tick() is None


# ---------------------------------------------------------------------------
# AutoRebalance: cooldown, guard, audit
# ---------------------------------------------------------------------------


def sharded_service(workers=4):
    workload = elastic_workload(
        customers=24, accounts=240, batches=4, batch_size=12, workers=workers
    )
    service = ExchangeService()
    service.register(
        workload.name, workload.mapping, workload.source,
        target_dependencies=workload.target_dependencies,
        shards=workers, partition_keys={"Account": 0, "Region": 0},
    )
    return service, workload


def hot_report(name, tick=10, state="critical"):
    return HealthReport(
        state=state, tick=tick, wall=0.0, interval=1.0, running=False,
        scenarios=(name,),
        statuses=(RuleStatus("hot-shard-imbalance", name, state, 3.0, 5, tick),),
        transitions=(), actions=(), series=0, slow_queries=0,
    )


def test_auto_rebalance_applies_and_respects_cooldown():
    service, workload = sharded_service()
    monitor = service.start_monitor(start_thread=False)
    try:
        action = AutoRebalance(cooldown_ticks=5)
        monitor._tick = 10
        action(monitor, service, hot_report(workload.name, tick=10))
        [record] = monitor.audit()
        assert record.outcome in ("applied", "no-op")
        assert record.action == "auto-rebalance"
        assert record.scenario == workload.name
        # a second firing inside the cooldown window is silent
        action(monitor, service, hot_report(workload.name, tick=12))
        assert len(monitor.audit()) == 1
        # past the cooldown it may act again
        monitor._tick = 16
        action(monitor, service, hot_report(workload.name, tick=16))
        assert len(monitor.audit()) == 2
        # the rebalance the action drove is stamped as auto-triggered
        stats = service.stats(workload.name).sharding
        assert stats.reshards >= 1
    finally:
        service.stop_monitor()


def test_auto_rebalance_below_min_state_or_wrong_rule_is_inert():
    service, workload = sharded_service()
    monitor = service.start_monitor(start_thread=False)
    try:
        action = AutoRebalance(min_state="critical")
        action(monitor, service, hot_report(workload.name, state="warn"))
        other = replace(
            hot_report(workload.name),
            statuses=(
                RuleStatus("cache-hit-collapse", workload.name, "critical", 0.0, 5, 10),
            ),
        )
        action(monitor, service, other)
        assert monitor.audit() == []
    finally:
        service.stop_monitor()


def test_auto_rebalance_skips_while_a_manual_rebalance_is_in_flight():
    service, workload = sharded_service()
    monitor = service.start_monitor(start_thread=False)
    try:
        guard = service._rebalance_guard(workload.name)
        assert guard.acquire(blocking=False)  # simulate a manual reshard holding it
        try:
            action = AutoRebalance(cooldown_ticks=0)
            action(monitor, service, hot_report(workload.name))
            [record] = monitor.audit()
            assert record.outcome == "skipped"
            assert "in flight" in record.detail["reason"]
        finally:
            guard.release()
        # with the guard free the same action goes through
        action(monitor, service, hot_report(workload.name, tick=11))
        assert monitor.audit()[-1].outcome in ("applied", "no-op")
    finally:
        service.stop_monitor()


def test_auto_rebalance_on_an_unsharded_scenario_is_a_recorded_skip():
    workload = skewed_workload(customers=6, accounts=24, batches=0)
    service = ExchangeService()
    service.register("flat", workload.mapping, workload.source,
                     target_dependencies=workload.target_dependencies)
    monitor = service.start_monitor(start_thread=False)
    try:
        AutoRebalance()(monitor, service, hot_report("flat"))
        [record] = monitor.audit()
        assert record.outcome == "skipped"
        assert "not sharded" in record.detail["reason"]
    finally:
        service.stop_monitor()


def test_manual_rebalance_wait_false_refuses_instead_of_queueing():
    service, workload = sharded_service()
    guard = service._rebalance_guard(workload.name)
    assert guard.acquire(blocking=False)
    try:
        with pytest.raises(ServingError, match="in flight"):
            service.rebalance(workload.name, wait=False)
    finally:
        guard.release()
    report = service.rebalance(workload.name, dry_run=True, trigger="auto:test")
    assert report.trigger == "auto:test"
    assert service.rebalance(workload.name, dry_run=True).trigger == "manual"


# ---------------------------------------------------------------------------
# The closed loop, end to end (deterministic ticks)
# ---------------------------------------------------------------------------


def test_hot_shard_heals_itself_without_an_explicit_rebalance_call():
    service, workload = sharded_service()
    flat = ExchangeService()
    flat.register("flat", workload.mapping, workload.source,
                  target_dependencies=workload.target_dependencies)
    monitor = service.start_monitor(
        start_thread=False,
        actions=(AutoRebalance(cooldown_ticks=2),),
    )
    try:
        before = service.stats(workload.name).sharding.imbalance
        assert before > 2.0  # the workload pins the hot keys to one worker
        ticks = 0
        while ticks < 10 and not any(
            record.outcome == "applied" for record in monitor.audit()
        ):
            monitor.tick()
            ticks += 1
        applied = [r for r in monitor.audit() if r.outcome == "applied"]
        assert applied, "the control loop never rebalanced"
        assert ticks <= 4  # trigger_for=2 + the action tick: tightly bounded
        after = service.stats(workload.name).sharding.imbalance
        assert after < before
        assert service.stats(workload.name).sharding.reshards >= 1
        # differential: the healed sharded service answers exactly like the
        # flat unsharded one, across the whole update stream
        for added, removed in workload.batches:
            service.update(workload.name, add=added, retract=removed)
            flat.update("flat", add=added, retract=removed)
            for query in workload.queries:
                assert (
                    service.query(workload.name, query).answers
                    == flat.query("flat", query).answers
                )
    finally:
        service.stop_monitor()
