"""repro.serving.elastic — routing tables, epochs, live reshard, rebalance.

Unit coverage of the epoch-versioned routing state (:class:`RoutingTable`,
:class:`EpochRouter`, :class:`EpochClock`, :class:`TopKCounter`,
:class:`Rebalancer`) plus the integration surface: live bucket handoffs on
:class:`ShardedExchange` held differentially against the unsharded
exchange, injected mid-handoff failures (thread and process modes) that
must leave both shards at their pre-move state with the old routing epoch
serving, and the ``service.rebalance`` lock choreography.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.obs.flight import FLIGHT_RECORDER
from repro.obs.metrics import METRICS
from repro.serving import ExchangeService
from repro.serving.elastic import (
    DEFAULT_BUCKETS_PER_WORKER,
    EpochClock,
    EpochRouter,
    Rebalancer,
    ReshardMove,
    RoutingTable,
    TopKCounter,
    bucket_of_value,
    project_worker_loads,
)
from repro.serving.materialized import MaterializedExchange, ServingError
from repro.workloads.elastic import elastic_workload, hot_bucket_customers
from repro.workloads.skewed import skewed_workload


# ---------------------------------------------------------------------------
# Routing table and router
# ---------------------------------------------------------------------------


def test_initial_table_routes_exactly_like_the_modulo_layout():
    for workers in (1, 2, 4, 5):
        table = RoutingTable.initial(workers)
        assert table.epoch == 0
        assert table.buckets == workers * DEFAULT_BUCKETS_PER_WORKER
        for value in ["a", "b", b"c", 0, 1, 17, 1.0, True, ("t", 1)]:
            assert table.worker_of_value(value) == bucket_of_value(value, workers)


def test_equal_keys_bucket_identically_across_spellings():
    table = RoutingTable.initial(3)
    assert table.worker_of_value(1) == table.worker_of_value(1.0)
    assert table.worker_of_value(1) == table.worker_of_value(True)
    assert bucket_of_value("x", 48) == bucket_of_value("x", 48)


def test_reassign_bumps_epoch_and_moves_only_named_buckets():
    table = RoutingTable.initial(2)
    donor = table.worker_of_bucket(3)
    moved = table.reassign({3: 1 - donor})
    assert moved.epoch == 1
    assert moved.worker_of_bucket(3) == 1 - donor
    changed = [
        b for b in range(table.buckets)
        if moved.worker_of_bucket(b) != table.worker_of_bucket(b)
    ]
    assert changed == [3]
    assert 3 in moved.owned(1 - donor) and 3 not in moved.owned(donor)


def test_reassign_validates_ranges():
    table = RoutingTable.initial(2)
    with pytest.raises(ValueError):
        table.reassign({99: 0})
    with pytest.raises(ValueError):
        table.reassign({0: 7})


def test_router_publish_requires_monotone_epoch_and_same_shape():
    router = EpochRouter(RoutingTable.initial(2))
    table = router.snapshot()
    with pytest.raises(ValueError):
        router.publish(table)  # same epoch
    router.publish(table.reassign({0: 1}))
    assert router.snapshot().epoch == 1
    with pytest.raises(ValueError):
        router.publish(RoutingTable.initial(3).reassign({0: 1}))  # reshape


# ---------------------------------------------------------------------------
# Epoch clock
# ---------------------------------------------------------------------------


def test_epoch_clock_watermark_advances_only_over_settled_prefixes():
    clock = EpochClock()
    assert clock.current() == 0
    first, second, third = (clock.begin_publish() for _ in range(3))
    assert (first, second, third) == (1, 2, 3)
    clock.commit_publish(second)  # out of order: predecessor still open
    assert clock.current() == 0
    clock.abort_publish(first)  # aborts settle the epoch too
    assert clock.current() == 2
    clock.commit_publish(third)
    assert clock.current() == 3


def test_epoch_clock_rejects_double_settles_and_unissued_tokens():
    clock = EpochClock()
    token = clock.begin_publish()
    clock.commit_publish(token)
    with pytest.raises(ValueError):
        clock.commit_publish(token)
    with pytest.raises(ValueError):
        clock.abort_publish(42)


# ---------------------------------------------------------------------------
# Top-K histogram and rebalancer policy
# ---------------------------------------------------------------------------


def test_topk_counter_exact_under_capacity_and_bounded_beyond():
    counter = TopKCounter(capacity=3)
    for key, count in [("a", 5), ("b", 3), ("c", 1)]:
        counter.add(key, count)
    assert counter.top() == (("a", 5), ("b", 3), ("c", 1))
    for _ in range(10):  # a genuinely hot newcomer evicts the coldest
        counter.add("d")
    assert len(counter) == 3
    top = dict(counter.top())
    assert "a" in top and "d" in top and "c" not in top
    assert top["d"] >= 10  # space-saving counts are upper bounds


def test_rebalancer_splits_the_hot_worker_and_keeps_every_worker_nonempty():
    table = RoutingTable.initial(4)
    # All the load on worker 0's buckets: the structural hot shard.
    loads = {b: (50 if table.worker_of_bucket(b) == 0 else 1) for b in range(table.buckets)}
    moves = Rebalancer(threshold=1.1).plan_moves(table, loads)
    assert moves, "a hot worker must produce a plan"
    assert all(m.donor == 0 for m in moves)
    after = table.reassign({m.bucket: m.recipient for m in moves})
    for worker in range(4):
        assert after.owned(worker), "every worker keeps at least one bucket"
    assert max(project_worker_loads(loads, after)) < max(
        project_worker_loads(loads, table)
    )


def test_rebalancer_leaves_a_balanced_table_alone():
    table = RoutingTable.initial(4)
    moves = Rebalancer().plan_moves(table, {b: 10 for b in range(table.buckets)})
    assert moves == ()


def test_rebalancer_respects_max_moves():
    table = RoutingTable.initial(4)
    loads = {b: (50 if table.worker_of_bucket(b) == 0 else 0) for b in range(table.buckets)}
    assert len(Rebalancer(threshold=1.0, max_moves=2).plan_moves(table, loads)) <= 2


# ---------------------------------------------------------------------------
# Live reshard on the exchange (thread mode)
# ---------------------------------------------------------------------------


def _register_pair(workload, shards=4, shard_workers=None):
    """One service with the sharded scenario plus an unsharded reference."""
    service = ExchangeService()
    service.register(
        "el",
        workload.mapping,
        workload.source,
        workload.target_dependencies,
        shards=shards,
        shard_workers=shard_workers,
    )
    reference = MaterializedExchange(
        "ref", service.scenario("el").compiled, workload.source
    )
    return service, reference


def _assert_differential(service, reference, queries):
    for query in queries:
        assert service.query("el", query).answers == frozenset(
            reference.certain_answers(query)
        ), query.name


def _shard_facts(exchange):
    """Each shard's source facts as an order-independent sorted list."""
    return [sorted(shard.source.facts(), key=repr) for shard in exchange.shards]


def _busiest_worker(exchange):
    return max(
        range(len(exchange.workers)), key=lambda w: len(exchange.shards[w].source)
    )


def _occupied_bucket(exchange, routing, donor):
    """A bucket the donor owns that actually holds facts."""
    for relation, tup in exchange.shards[donor].source.facts():
        key = tup[exchange.plan.spec.key_position(relation)]
        if routing.worker_of_value(key) == donor:
            return routing.bucket_of(key)
    raise AssertionError(f"worker {donor} holds no partitioned facts")


def test_reshard_moves_buckets_and_preserves_all_answers():
    workload = skewed_workload(customers=24, accounts=120, batches=2, seed=5)
    service, reference = _register_pair(workload)
    exchange = service.scenario("el")
    routing = exchange.routing_snapshot()
    donor = _busiest_worker(exchange)
    bucket = _occupied_bucket(exchange, routing, donor)
    recipient = (donor + 1) % 4

    pending = exchange.reshard([ReshardMove(bucket, donor, recipient)])
    assert pending.moved_facts > 0
    assert exchange.routing_snapshot().epoch == 1
    assert exchange.routing_snapshot().worker_of_bucket(bucket) == recipient
    _assert_differential(service, reference, workload.queries)

    # The facts physically left the donor's shard backend.
    key_of = exchange.plan.spec.key_position
    for relation, tup in exchange.shards[donor].source.facts():
        assert exchange.routing_snapshot().bucket_of(tup[key_of(relation)]) != bucket

    # Later batches route along the new table and stay differential.
    for added, removed in workload.batches:
        service.update("el", add=added, retract=removed)
        reference.apply_delta(added=added, removed=removed)
        _assert_differential(service, reference, workload.queries)

    stats = exchange.sharding_stats()
    assert stats.reshards == 1
    assert stats.routing_epoch == 1
    assert stats.buckets == 64
    service.deregister("el")


def test_reshard_records_flight_events_and_metric_counter():
    workload = skewed_workload(customers=16, accounts=60, batches=0, seed=1)
    service, _ = _register_pair(workload)
    exchange = service.scenario("el")
    before = METRICS.snapshot()["instruments"]["sharding.reshards_total"]["value"]
    routing = exchange.routing_snapshot()
    donor = _busiest_worker(exchange)
    exchange.reshard([(_occupied_bucket(exchange, routing, donor), (donor + 1) % 4)])
    starts = FLIGHT_RECORDER.events("reshard_start", scenario="el")
    commits = FLIGHT_RECORDER.events("reshard_commit", scenario="el")
    assert starts and commits
    assert commits[-1].detail["routing_epoch"] == 1
    assert commits[-1].detail["moved_facts"] == starts[-1].detail["moved_facts"]
    assert commits[-1].detail["moved_facts"] > 0
    after = METRICS.snapshot()["instruments"]["sharding.reshards_total"]["value"]
    assert after == before + 1
    service.deregister("el")


def test_reshard_rejects_stale_and_malformed_plans():
    workload = skewed_workload(customers=12, accounts=40, batches=0)
    service, _ = _register_pair(workload)
    exchange = service.scenario("el")
    routing = exchange.routing_snapshot()
    bucket = routing.owned(0)[0]
    with pytest.raises(ServingError, match="stale plan"):  # wrong claimed donor
        exchange.reshard([ReshardMove(bucket, donor=3, recipient=1)])
    with pytest.raises(ServingError, match="out of range"):
        exchange.reshard([(bucket, 9)])
    with pytest.raises(ServingError, match="moved twice"):
        exchange.reshard([(bucket, 1), (bucket, 2)])
    with pytest.raises(ServingError, match="at least one effective"):
        exchange.reshard([(bucket, 0)])  # recipient already owns the bucket
    assert exchange.routing_snapshot().epoch == 0
    service.deregister("el")


def test_injected_prepare_failure_aborts_cleanly_with_old_epoch_serving():
    workload = skewed_workload(customers=24, accounts=120, batches=0, seed=7)
    service, reference = _register_pair(workload)
    exchange = service.scenario("el")
    before_sources = _shard_facts(exchange)
    routing = exchange.routing_snapshot()
    donor = _busiest_worker(exchange)
    bucket = _occupied_bucket(exchange, routing, donor)

    def exploding_make_shard(index, shard_source):
        raise ServingError("injected shadow-build failure")

    original = exchange._make_shard
    exchange._make_shard = exploding_make_shard
    try:
        with pytest.raises(ServingError, match="injected"):
            exchange.reshard([(bucket, (donor + 1) % 4)])
    finally:
        exchange._make_shard = original

    # Pre-move state, old routing epoch still serving, answers intact.
    assert exchange.routing_snapshot().epoch == 0
    assert _shard_facts(exchange) == before_sources
    assert exchange.sharding_stats().reshards == 0
    aborts = FLIGHT_RECORDER.events("reshard_abort", scenario="el")
    assert aborts and aborts[-1].detail["phase"] == "prepare"
    _assert_differential(service, reference, workload.queries)
    service.deregister("el")


def test_commit_after_interleaved_batch_refuses_and_discards_shadows():
    workload = skewed_workload(customers=24, accounts=120, batches=1, seed=2)
    service, reference = _register_pair(workload)
    exchange = service.scenario("el")
    routing = exchange.routing_snapshot()
    donor = _busiest_worker(exchange)
    bucket = _occupied_bucket(exchange, routing, donor)
    pending = exchange.prepare_reshard([(bucket, (donor + 1) % 4)])

    added, removed = workload.batches[0]
    service.update("el", add=added, retract=removed)  # a writer slips in
    reference.apply_delta(added=added, removed=removed)

    with pytest.raises(ServingError, match="stale reshard"):
        exchange.commit_reshard(pending)
    assert not pending.shadows  # discarded
    assert exchange.routing_snapshot().epoch == 0
    _assert_differential(service, reference, workload.queries)

    # A fresh prepare against the new state commits fine.
    exchange.reshard([(bucket, (donor + 1) % 4)])
    assert exchange.routing_snapshot().epoch == 1
    _assert_differential(service, reference, workload.queries)
    service.deregister("el")


def test_cache_entries_from_the_old_routing_never_serve_after_a_reshard():
    workload = elastic_workload(accounts=150, batches=0)
    service, reference = _register_pair(workload)
    hot_query = workload.queries[0]
    assert service.query("el", hot_query).route in ("scatter", "merged")
    assert service.query("el", hot_query).route == "cache"  # warmed

    report = service.rebalance("el")
    assert report.applied
    # The epoch-salted version vector stales the old entry: the next read
    # re-evaluates under the new layout instead of serving a torn view.
    assert service.query("el", hot_query).route != "cache"
    _assert_differential(service, reference, workload.queries)
    service.deregister("el")


# ---------------------------------------------------------------------------
# Process worker mode
# ---------------------------------------------------------------------------


def test_process_mode_reshard_is_differential_and_explains_generations():
    workload = elastic_workload(customers=24, accounts=80, batches=1, workers=2)
    service, reference = _register_pair(workload, shards=2, shard_workers="process")
    exchange = service.scenario("el")
    try:
        _assert_differential(service, reference, workload.queries)

        report = service.rebalance("el")
        assert report.applied and report.moved_facts > 0

        explain = service.explain("el", workload.queries[0])
        assert explain.fanout is not None
        assert explain.fanout.routing_epoch == report.epoch_after
        assert all(state.startswith("process(gen=") for state in explain.fanout.states)

        _assert_differential(service, reference, workload.queries)
        added, removed = workload.batches[0]
        service.update("el", add=added, retract=removed)
        reference.apply_delta(added=added, removed=removed)
        _assert_differential(service, reference, workload.queries)
    finally:
        service.deregister("el")


def test_process_mode_shadow_worker_death_degrades_and_completes():
    """A shadow worker dying mid-prepare must not wedge the handoff: the
    shadow degrades to in-process evaluation and the movement completes."""
    workload = elastic_workload(customers=24, accounts=60, batches=0, workers=2)
    service, reference = _register_pair(workload, shards=2, shard_workers="process")
    exchange = service.scenario("el")
    original = exchange._make_shard

    def make_then_kill(index, shard_source):
        shard = original(index, shard_source)
        shard.kill_worker()  # the shadow's process dies before the movement
        return shard

    exchange._make_shard = make_then_kill
    try:
        report = service.rebalance("el")
        assert report.applied
        assert exchange.sharding_stats().worker_failures > 0
        assert any(state.startswith("degraded") for state in exchange.shard_states())
        _assert_differential(service, reference, workload.queries)
    finally:
        exchange._make_shard = original
        service.deregister("el")


def test_process_mode_injected_prepare_failure_leaves_pre_move_state():
    workload = elastic_workload(customers=24, accounts=60, batches=0, workers=2)
    service, reference = _register_pair(workload, shards=2, shard_workers="process")
    exchange = service.scenario("el")
    before_sources = _shard_facts(exchange)
    original = exchange._make_shard

    def exploding(index, shard_source):
        raise ServingError("injected process-shadow failure")

    exchange._make_shard = exploding
    try:
        with pytest.raises(ServingError, match="injected"):
            service.rebalance("el", max_attempts=1)
        assert exchange.routing_snapshot().epoch == 0
        assert _shard_facts(exchange) == before_sources
        # live workers fine
        assert all(state.startswith("process(") for state in exchange.shard_states())
        _assert_differential(service, reference, workload.queries)
    finally:
        exchange._make_shard = original
        service.deregister("el")


# ---------------------------------------------------------------------------
# service.rebalance and the global epoch
# ---------------------------------------------------------------------------


def test_rebalance_dry_run_plans_without_touching_routing():
    workload = elastic_workload(accounts=150, batches=0)
    service, _ = _register_pair(workload)
    exchange = service.scenario("el")
    report = service.rebalance("el", dry_run=True)
    assert not report.applied and report.moves
    assert report.imbalance_projected < report.imbalance_before
    assert report.epoch_after is None
    assert exchange.routing_snapshot().epoch == 0
    assert exchange.sharding_stats().reshards == 0
    service.deregister("el")


def test_rebalance_plan_and_sharding_stats_share_one_imbalance_formula():
    workload = elastic_workload(accounts=150, batches=0)
    service, _ = _register_pair(workload)
    report = service.rebalance("el", dry_run=True)
    assert report.imbalance_before > 1.0  # the workload is skewed
    assert report.imbalance_before == service.stats("el").sharding.imbalance
    service.deregister("el")


@pytest.mark.parametrize("reregister", [True, False], ids=["replaced", "deregistered"])
@pytest.mark.parametrize("mode", ["thread", "process"])
def test_a_scenario_replaced_mid_rebalance_gets_its_shadows_closed_and_no_publish(
    mode, reregister
):
    """Deregister (and re-register) the scenario between the prepare and the
    publish: the rebalance must refuse, close the shadows it built, settle
    no epoch, and leave a new scenario at routing epoch 0."""
    workload = elastic_workload(customers=24, accounts=80, batches=0, workers=2)
    shard_workers = "process" if mode == "process" else None
    service, _ = _register_pair(workload, shards=2, shard_workers=shard_workers)
    old = service.scenario("el")
    children = len(multiprocessing.active_children())
    epoch = service.stats().epoch
    prepared = []
    prepare = old.prepare_reshard

    def recording_prepare(moves):
        pending = prepare(moves)
        prepared.append((pending, list(pending.shadows.values())))
        return pending

    write_locked = service._write_locked

    def replace_then_lock(names):
        service.deregister("el")
        if reregister:
            service.register(
                "el",
                workload.mapping,
                workload.source,
                workload.target_dependencies,
                shards=2,
                shard_workers=shard_workers,
            )
        return write_locked(names)

    old.prepare_reshard = recording_prepare
    service._write_locked = replace_then_lock
    try:
        with pytest.raises(ServingError, match="replaced during the rebalance"):
            service.rebalance("el")
    finally:
        del service._write_locked
    [(pending, shadows)] = prepared
    assert shadows and not pending.shadows
    if mode == "process":
        assert all(shadow._proc is None for shadow in shadows)
    # Deregistering without a replacement reaps the old exchange's workers.
    gone = 0 if reregister or mode == "thread" else len(old.shards)
    assert len(multiprocessing.active_children()) == children - gone
    assert service.stats().epoch == epoch
    abort = FLIGHT_RECORDER.events("reshard_abort", scenario="el")[-1]
    assert abort.detail["error"] == "scenario replaced mid-rebalance"
    if not reregister:
        return
    fresh = service.scenario("el")
    assert fresh is not old
    assert fresh.routing_snapshot().epoch == 0
    service.deregister("el")


def test_rebalance_applies_the_plan_and_reports_the_windows():
    workload = elastic_workload(accounts=150, batches=0)
    service, reference = _register_pair(workload)
    exchange = service.scenario("el")
    report = service.rebalance("el")
    assert report.applied and report.epoch_after == 1
    assert report.moved_facts > 0 and report.moved_keys > 0
    assert report.prepare_seconds > 0.0 and report.publish_seconds >= 0.0
    assert exchange.sharding_stats().imbalance <= report.imbalance_before
    _assert_differential(service, reference, workload.queries)
    # A balanced exchange has nothing left to move.
    again = service.rebalance("el")
    assert not again.applied and again.moves == ()
    service.deregister("el")


def test_rebalance_accepts_explicit_moves():
    workload = skewed_workload(customers=16, accounts=60, batches=0, seed=3)
    service, reference = _register_pair(workload)
    exchange = service.scenario("el")
    routing = exchange.routing_snapshot()
    donor = _busiest_worker(exchange)
    bucket = _occupied_bucket(exchange, routing, donor)
    report = service.rebalance("el", moves=[(bucket, (donor + 2) % 4)])
    assert report.applied and report.moved_facts > 0
    assert exchange.routing_snapshot().worker_of_bucket(bucket) == (donor + 2) % 4
    _assert_differential(service, reference, workload.queries)
    service.deregister("el")


def test_rebalance_rejects_unsharded_scenarios():
    workload = skewed_workload(customers=8, accounts=20, batches=0)
    service = ExchangeService()
    service.register("flat", workload.mapping, workload.source, workload.target_dependencies)
    with pytest.raises(ServingError, match="not sharded"):
        service.rebalance("flat")
    service.deregister("flat")


def test_query_and_update_results_carry_the_service_epoch():
    workload = skewed_workload(customers=8, accounts=30, batches=2)
    service, _ = _register_pair(workload)
    assert service.query("el", workload.queries[0]).epoch == 0
    added, removed = workload.batches[0]
    first = service.update("el", add=added, retract=removed)
    assert first.epoch == 1
    assert service.query("el", workload.queries[0]).epoch == 1
    report = service.rebalance("el")
    expected = 2 if report.applied else 1
    assert service.stats().epoch == expected
    service.deregister("el")


def test_failed_commit_aborts_its_epoch_without_stalling_the_watermark():
    workload = skewed_workload(customers=8, accounts=30, batches=2)
    service, _ = _register_pair(workload)
    exchange = service.scenario("el")
    original = exchange.apply_delta

    def exploding(*args, **kwargs):
        raise ServingError("injected commit failure")

    exchange.apply_delta = exploding
    try:
        with pytest.raises(ServingError, match="injected"):
            service.update("el", add=workload.batches[0][0])
    finally:
        exchange.apply_delta = original
    # The failed publish settled as an abort: the next commit's epoch lands
    # right after it and the watermark covers both — no permanent stall.
    added, removed = workload.batches[1]
    assert service.update("el", add=added, retract=removed).epoch == 2
    assert service.stats().epoch == 2
    service.deregister("el")


def test_metrics_export_carries_histograms_and_routing_epoch():
    workload = elastic_workload(accounts=100, batches=0)
    service, _ = _register_pair(workload)
    service.rebalance("el")
    sharding = service.metrics()["scenarios"]["el"]["sharding"]
    assert sharding["routing_epoch"] == 1
    assert sharding["reshards"] == 1
    assert sharding["buckets"] == 64
    histograms = sharding["key_histograms"]
    assert len(histograms) == 4
    hot = dict(workload.parameters)["hot_customers"]
    flattened = {key for shard_hist in histograms for key, _ in shard_hist}
    assert set(hot) & flattened, "the hot keys must surface in the histograms"
    service.deregister("el")


def test_explain_reports_routing_epoch_and_shard_states_in_thread_mode():
    workload = elastic_workload(accounts=100, batches=0)
    service, _ = _register_pair(workload)
    explain = service.explain("el", workload.queries[0])
    assert explain.fanout is not None
    assert explain.fanout.routing_epoch == 0
    assert explain.fanout.states == ("thread",) * 5
    payload = explain.to_dict()["fanout"]
    assert payload["routing_epoch"] == 0 and payload["states"][0] == "thread"
    service.rebalance("el")
    assert service.explain("el", workload.queries[0]).fanout.routing_epoch == 1
    service.deregister("el")


def test_hot_bucket_customers_all_land_on_the_requested_worker():
    table = RoutingTable.initial(4)
    for name in hot_bucket_customers(6, worker=2, workers=4):
        assert table.worker_of_value(name) == 2
