"""ExchangeService: protocol objects, transactions, locks, stats."""

from dataclasses import asdict

import pytest

from repro.chase.dependencies import parse_dependencies
from repro.core.target_constraints import ExchangeSetting, exchange
from repro.core.mapping import mapping_from_rules
from repro.logic.cq import cq
from repro.logic.queries import Query
from repro.relational.builders import make_instance
from repro.relational.homomorphism import is_homomorphically_equivalent
from repro.serving import (
    ExchangeService,
    QueryRequest,
    QueryResult,
    ReadWriteLock,
    ScenarioStats,
    ServiceStats,
    ServingError,
    UpdateRequest,
)


def employees_mapping():
    return mapping_from_rules(
        [
            "EmpT(e, d) :- Emp(e, d)",
            "Office(e, z^op) :- Emp(e, d)",
            "Team(e, p) :- Works(e, p)",
        ],
        source={"Emp": 2, "Works": 2},
        target={"EmpT": 2, "Office": 2, "Team": 2},
    )


def employees_source():
    return make_instance(
        {
            "Emp": [("alice", "d1"), ("bob", "d2")],
            "Works": [("alice", "p1")],
        }
    )


def service_with(name="t", deps=()):
    service = ExchangeService()
    service.register(name, employees_mapping(), employees_source(), deps)
    return service


# -- queries ---------------------------------------------------------------


def test_query_results_carry_route_semantics_and_cache_outcome():
    service = service_with()
    q = cq(["e"], [("EmpT", ["e", "d"])])
    first = service.query(QueryRequest("t", q))
    assert isinstance(first, QueryResult)
    assert first.answers == frozenset({("alice",), ("bob",)})
    assert (first.semantics, first.route, first.cached) == ("monotone", "core", False)
    assert first.elapsed_seconds >= 0.0
    again = service.query("t", q)  # positional convenience
    assert again.answers == first.answers
    assert (again.route, again.cached) == ("cache", True)


def test_query_routes_fo_monotone_to_target_and_non_monotone_to_deqa():
    service = service_with()
    staffed = Query("exists p . Team(e, p)", ("e",), name="staffed")
    assert service.query("t", staffed).route == "target"
    idle = Query("~ (exists z . Team(x, z))", ("x",), name="idle")
    result = service.query("t", idle)
    assert result.route == "deqa"
    assert result.semantics.startswith("deqa:")
    from repro.core.certain import certain_answers

    assert result.answers == frozenset(
        certain_answers(employees_mapping(), service.scenario("t").source, idle)
    )
    assert service.query("t", idle).route == "cache"


def test_query_unknown_scenario_and_missing_query_argument():
    service = service_with()
    with pytest.raises(KeyError, match="no scenario"):
        service.query("missing", cq(["e"], [("EmpT", ["e", "d"])]))
    with pytest.raises(TypeError, match="query argument"):
        service.query("t")


# -- updates and transactions ----------------------------------------------


def test_update_request_applies_one_mixed_batch():
    service = service_with()
    result = service.update(
        UpdateRequest(
            "t",
            add=(("Emp", ("carol", "d1")), ("Works", ("carol", "p2"))),
            retract=(("Emp", ("bob", "d2")),),
        )
    )
    assert result.scenario == "t"
    assert len(result.added) == 2 and len(result.retracted) == 1
    assert (result.trigger_rounds, result.target_repairs, result.invalidation_rounds) == (1, 1, 1)
    assert service.query("t", cq(["e"], [("EmpT", ["e", "d"])])).answers == frozenset(
        {("alice",), ("carol",)}
    )


def test_update_rejects_overlapping_sides_and_reports_noops():
    service = service_with()
    with pytest.raises(ValueError, match="disjoint"):
        service.update(
            "t", add=[("Emp", ("alice", "d1"))], retract=[("Emp", ("alice", "d1"))]
        )
    noop = service.update("t", add=[("Emp", ("alice", "d1"))])  # already present
    assert noop.added == () and noop.trigger_rounds == 0


def test_empty_batches_do_not_move_the_epoch_watermark():
    service = service_with()
    start = service.stats().epoch
    noop = service.update("t")
    assert (noop.added, noop.retracted, noop.epoch) == ((), (), 0)
    with service.transaction("t") as txn:
        pass
    assert txn.results == {}
    assert service.stats().epoch == start
    result = service.update("t", add=[("Emp", ("carol", "d1"))])
    assert service.stats().epoch == start + 1 == result.epoch


def test_transaction_nets_out_conflicting_operations():
    service = service_with()
    ex = service.scenario("t")
    versions_before = ex.target.version("EmpT")
    batches_before = ex.update_stats.batches
    with service.transaction("t") as txn:
        txn.retract([("Emp", ("alice", "d1"))])
        txn.add([("Emp", ("alice", "d1"))])  # last call wins: net no-op
    result = txn.results["t"]
    assert result.added == () and result.retracted == ()
    assert result.trigger_rounds == 0  # nothing survived netting: no refresh
    assert ex.target.version("EmpT") == versions_before
    assert ex.update_stats.batches == batches_before
    with service.transaction("t") as txn:
        txn.add([("Emp", ("dave", "d4"))])
        txn.retract([("Emp", ("dave", "d4"))])  # never entered: net no-op
    assert ("Emp", ("dave", "d4")) not in ex.source


def test_transaction_commits_one_batch_and_exposes_results():
    service = service_with()
    with service.transaction("t") as txn:
        txn.add([("Works", ("bob", "p3"))])
        txn.retract([("Works", ("alice", "p1"))])
        txn.add([("Emp", ("carol", "d1"))])
    result = txn.results["t"]
    assert len(result.added) == 2 and len(result.retracted) == 1
    assert (result.trigger_rounds, result.target_repairs, result.invalidation_rounds) == (1, 1, 1)
    assert service.query("t", cq(["e", "p"], [("Team", ["e", "p"])])).answers == frozenset(
        {("bob", "p3")}
    )


def test_transaction_exception_discards_the_buffer():
    service = service_with()
    with pytest.raises(RuntimeError, match="boom"):
        with service.transaction("t") as txn:
            txn.add([("Emp", ("never", "d9"))])
            raise RuntimeError("boom")
    assert ("Emp", ("never", "d9")) not in service.scenario("t").source
    with pytest.raises(RuntimeError, match="committed or aborted"):
        txn.add([("Emp", ("late", "d9"))])


def test_transaction_rolls_back_mid_batch_egd_failure():
    mapping = mapping_from_rules(["D(x, d) :- S(x, d)"], source={"S": 2}, target={"D": 2})
    deps = parse_dependencies(["D(x, d1) & D(x, d2) -> d1 = d2"])
    service = ExchangeService()
    service.register("r", mapping, make_instance({"S": [("a", "1"), ("b", "7")]}), deps)
    q = cq(["x", "d"], [("D", ["x", "d"])])
    with pytest.raises(ServingError, match="no solution"):
        with service.transaction("r") as txn:
            txn.retract([("S", ("b", "7"))])
            txn.add([("S", ("a", "2"))])  # egd conflict fails the whole batch
    assert service.query("r", q).answers == frozenset({("a", "1"), ("b", "7")})
    assert txn.results == {}


def test_multi_scenario_transaction_commits_atomically_across_scenarios():
    mapping = mapping_from_rules(["D(x, d) :- S(x, d)"], source={"S": 2}, target={"D": 2})
    deps = parse_dependencies(["D(x, d1) & D(x, d2) -> d1 = d2"])
    service = ExchangeService()
    service.register("a", mapping, make_instance({"S": [("x", "1")]}), deps)
    service.register("b", mapping, make_instance({"S": [("y", "1")]}), deps)
    q = cq(["x", "d"], [("D", ["x", "d"])])
    with service.transaction("a", "b") as txn:
        txn.add([("S", ("x2", "2"))], scenario="a")
        txn.add([("S", ("y2", "2"))], scenario="b")
    assert service.query("a", q).answers == frozenset({("x", "1"), ("x2", "2")})
    assert service.query("b", q).answers == frozenset({("y", "1"), ("y2", "2")})
    # Cross-scenario all-or-nothing: scenario "b" fails, "a" is rolled back.
    with pytest.raises(ServingError):
        with service.transaction("a", "b") as txn:
            txn.add([("S", ("x3", "3"))], scenario="a")
            txn.add([("S", ("y", "9"))], scenario="b")  # egd conflict in b
    assert service.query("a", q).answers == frozenset({("x", "1"), ("x2", "2")})
    assert service.query("b", q).answers == frozenset({("y", "1"), ("y2", "2")})


def test_multi_scenario_transaction_requires_named_operations():
    service = ExchangeService()
    mapping = mapping_from_rules(["T(x) :- S(x)"], source={"S": 1}, target={"T": 1})
    service.register("a", mapping, make_instance({}))
    service.register("b", mapping, make_instance({}))
    with pytest.raises(KeyError, match="no scenario"):
        service.transaction("a", "missing")
    txn = service.transaction("a", "b")
    with pytest.raises(ValueError, match="must name the scenario"):
        txn.add([("S", ("v",))])
    with pytest.raises(KeyError, match="not part of this transaction"):
        txn.add([("S", ("v",))], scenario="c")
    txn.abort()


# -- locks and stats -------------------------------------------------------


def test_read_write_lock_counts_readers_and_contention():
    import threading

    lock = ReadWriteLock()
    with lock.read_locked():
        # Overlap must come from a second thread: same-thread nesting is the
        # re-entrancy misuse the lock now rejects (tests/serving/
        # test_concurrency.py covers that contract in depth).
        entered, release = threading.Event(), threading.Event()

        def second_reader():
            with lock.read_locked():
                entered.set()
                release.wait(5)

        reader = threading.Thread(target=second_reader, daemon=True)
        reader.start()
        assert entered.wait(5)
        assert lock.stats_snapshot().max_concurrent_readers == 2
        release.set()
        reader.join(5)
    with lock.write_locked():
        stats = lock.stats_snapshot()
        assert stats.write_acquisitions == 1
    stats = lock.stats_snapshot()
    assert stats.read_acquisitions == 2
    assert stats.contention() == 0  # overlapping readers never wait
    with lock.read_locked():
        with pytest.raises(RuntimeError, match="re-entrant"):
            lock.acquire_read()


def test_stats_snapshot_reports_sizes_counters_and_locks():
    service = service_with()
    q = cq(["e"], [("EmpT", ["e", "d"])])
    service.query("t", q)
    service.query("t", q)
    service.update("t", add=[("Emp", ("carol", "d3"))])
    snapshot = service.stats()
    assert isinstance(snapshot, ServiceStats)
    stats = snapshot.scenario("t")
    assert isinstance(stats, ScenarioStats)
    assert stats.source_tuples == 4 and stats.target_tuples == 7
    # The cached core predates the update: stats reports, never recomputes.
    assert stats.core_tuples == 5
    assert stats.cache.hits == 1 and stats.cache.misses >= 1
    assert stats.cache_entries >= 1
    assert stats.updates.batches == 1 and stats.updates.trigger_rounds == 1
    assert stats.lock.read_acquisitions >= 2
    assert stats.lock.write_acquisitions == 1
    assert service.stats("t").name == "t"
    with pytest.raises(KeyError):
        snapshot.scenario("missing")


def test_services_sharing_a_scenario_name_each_observe_their_own():
    """Two services may serve the same scenario name over different
    sources: each one's ``metrics()`` and monitor read its own stats."""
    a, b = ExchangeService(), ExchangeService()
    a.register("x", employees_mapping(), employees_source())
    monitor = a.start_monitor(start_thread=False)
    try:
        monitor.tick(at=0.0)
        other_source = make_instance({"Emp": [("carol", "d3")]})
        b.register("x", employees_mapping(), other_source)
        own = asdict(a.stats("x"))
        exported = a.metrics()["scenarios"]["x"]
        assert exported["source_tuples"] == own["source_tuples"] == 3
        assert exported["target_tuples"] == own["target_tuples"]
        monitor.tick(at=1.0)
        b.deregister("x")
        assert a.metrics()["scenarios"]["x"]["source_tuples"] == 3
        monitor.tick(at=2.0)
        assert monitor.store.window("scenario.x.source_tuples", 3) == [
            (0.0, 3.0), (1.0, 3.0), (2.0, 3.0),
        ]
    finally:
        a.stop_monitor()


def test_a_services_monitor_reads_only_its_own_latencies():
    """Service B's queries and updates never show in idle service A's
    latency series (the series the p99 and epoch-stall rules read)."""
    a, b = ExchangeService(), ExchangeService()
    a.register("x", employees_mapping(), employees_source())
    b.register("y", employees_mapping(), employees_source())
    query = cq(["e"], [("EmpT", ["e", "d"])])
    monitor = a.start_monitor(start_thread=False)
    try:
        monitor.tick(at=0.0)
        for _ in range(50):
            b.query("y", query)
        b.update("y", add=[("Emp", ("dave", "d4"))])
        monitor.tick(at=1.0)
        assert monitor.store.window("service.query.evaluate_seconds.rate", 1) == [
            (1.0, 0.0)
        ]
        assert monitor.store.window("service.update.apply_seconds.rate", 1) == [
            (1.0, 0.0)
        ]
        assert b.stats().instruments["service.query.evaluate_seconds"]["count"] == 50
        exported = b.metrics()["instruments"]["service.query.evaluate_seconds"]
        assert exported["count"] == 50
        a.query("x", query)
        monitor.tick(at=2.0)
        assert monitor.store.window("service.query.evaluate_seconds.rate", 1) == [
            (2.0, 1.0)
        ]
    finally:
        a.stop_monitor()


def test_service_wraps_an_existing_registry_and_lifecycle():
    from repro.serving import ScenarioRegistry

    registry = ScenarioRegistry()
    registry.register("pre", employees_mapping(), employees_source())
    service = ExchangeService(registry)
    assert "pre" in service and len(service) == 1
    assert service.query("pre", cq(["e"], [("EmpT", ["e", "d"])])).answers
    service.register("extra", employees_mapping(), employees_source())
    assert sorted(service) == ["extra", "pre"]
    service.deregister("extra")
    assert "extra" not in service
    with pytest.raises(ValueError, match="already registered"):
        service.register("pre", employees_mapping(), employees_source())
