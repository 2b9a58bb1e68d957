"""Per-shard worker processes: differential, degradation and lifecycle tests.

``shard_workers="process"`` moves each shard's :class:`MaterializedExchange`
into a dedicated worker process; deltas, scatter answers and target facts
cross the pipe as pickled tuples, with null identity kept by ident.
Everything observable — answers, update counters, rollback semantics, the
composed version vector's cache behaviour — must be identical to the
in-thread shards, and a dead or wedged worker must not fail the scenario:
the sharded front swaps its slot for an in-process exchange, once per death.

Worker processes use the ``spawn`` start method (the only one that is safe
under threads and the only one available everywhere Python 3.13 runs), so
these tests double as the spawn-compatibility gate for the CI matrix.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import pytest

from repro.analysis.compiled import compile_mapping
from repro.chase.dependencies import parse_dependencies
from repro.core.mapping import mapping_from_rules
from repro.logic.cq import cq
from repro.obs.flight import FLIGHT_RECORDER
from repro.relational.builders import make_instance
from repro.serving.materialized import ServingError
from repro.serving.service import ExchangeService
from repro.serving.sharding import PartitionSpec, ShardedExchange
from repro.serving.workers import ProcessShard
from repro.workloads.churn import churn_workload
from repro.workloads.serving import serving_queries, serving_workload
from repro.workloads.skewed import skewed_workload


# ---------------------------------------------------------------------------
# Tiny mixed-batch cases (small: every process-mode register spawns 3 workers)
# ---------------------------------------------------------------------------


def churn_case():
    workload = churn_workload(
        employees=40, squads=8, departments=4, batches=4, batch_size=3, flaps=1
    )
    operations, index, batches = list(workload.operations), 0, []
    while index < len(operations):
        op, facts = operations[index]
        if (
            op == "retract"
            and index + 1 < len(operations)
            and operations[index + 1][0] == "add"
        ):
            batches.append((operations[index + 1][1], facts))
            index += 2
        else:
            batches.append((facts, ()) if op == "add" else ((), facts))
            index += 1
    queries = (
        cq(["e", "d"], [("Rec", ["e", "d"])], name="rec"),
        cq(["e", "m"], [("Rec", ["e", "d"]), ("Mgr", ["d", "m"])], name="join"),
    )
    return workload.mapping, workload.target_dependencies, workload.source, batches, queries


def serving_case():
    workload = serving_workload(
        employees=30, projects=10, assignments=40, update_batches=3
    )
    batches, previous = [], ()
    for update in workload.updates:
        batches.append((update, previous[:2]))
        previous = update
    return workload.mapping, (), workload.source, batches, serving_queries()


def skewed_case():
    workload = skewed_workload(
        customers=24, accounts=100, batches=3, batch_size=8, zipf_s=1.2
    )
    return (
        workload.mapping,
        workload.target_dependencies,
        workload.source,
        list(workload.batches),
        workload.queries,
    )


CASES = {"churn": churn_case, "serving": serving_case, "skewed": skewed_case}


@pytest.mark.parametrize("case", sorted(CASES))
def test_process_shards_answer_exactly_like_threads(case):
    """The core differential: process mode == thread mode, batch by batch."""
    mapping, deps, source, batches, queries = CASES[case]()
    service = ExchangeService()
    service.register("threads", mapping, source, deps, shards=2)
    service.register("procs", mapping, source, deps, shards=2, shard_workers="process")
    try:
        def compare(batch_index):
            for query in queries:
                flat = service.query("threads", query)
                proc = service.query("procs", query)
                assert flat.answers == proc.answers, (
                    case, batch_index, getattr(query, "name", query), proc.route
                )

        compare(-1)
        for batch_index, (added, removed) in enumerate(batches):
            # A transaction nets out overlapping sides (churn re-adds facts
            # inside their retraction batch) for both scenarios at once.
            with service.transaction("threads", "procs") as txn:
                for scenario in ("threads", "procs"):
                    txn.retract(removed, scenario=scenario)
                    txn.add(added, scenario=scenario)
            compare(batch_index)

        # Exactly-once round counters: the worker protocol must not double
        # count (or drop) trigger/repair/invalidation rounds.
        assert (
            service.scenario("procs").update_stats
            == service.scenario("threads").update_stats
        )
        stats = service.scenario("procs").sharding_stats()
        assert stats.worker_mode == "process"
        assert stats.worker_failures == 0
        assert stats.shard_target_tuples == (
            service.scenario("threads").sharding_stats().shard_target_tuples
        )
    finally:
        service.deregister("threads")
        service.deregister("procs")


def test_egd_conflict_rolls_back_without_degrading_workers():
    """A scenario error raised *inside* a worker is a rollback, not a death:
    the worker unwinds its own batch, the parent unwinds committed siblings,
    and no shard degrades to in-process evaluation."""
    mapping = mapping_from_rules(
        ["T(x^cl, y^cl) :- S(x, y)"], source={"S": 2}, target={"T": 2}
    )
    deps = parse_dependencies(["T(x, y) & T(x, z) -> y = z"])
    compiled = compile_mapping(mapping, deps)
    query = cq(["x", "y"], [("T", ["x", "y"])], name="t")
    answers = {}
    for mode in ("thread", "process"):
        source = make_instance({"S": [("a", "1"), ("b", "1")]})
        exchange = ShardedExchange(
            "k", compiled, source, PartitionSpec(4), worker_mode=mode
        )
        try:
            before = exchange.certain_answers(query)
            batch = [("S", ("a", "2"))] + [("S", (key, "9")) for key in "cdefgh"]
            with pytest.raises(ServingError):
                exchange.apply_delta(added=batch)
            assert exchange.certain_answers(query) == before
            assert exchange.update_stats.rollbacks == 1
            assert exchange.sharding_stats().worker_failures == 0
            if mode == "process":
                assert all(
                    state == "process(gen=0)" for state in exchange.shard_states()
                )
            answers[mode] = before
        finally:
            exchange.close()
    assert answers["thread"] == answers["process"]


def test_killed_worker_degrades_gracefully_and_keeps_serving():
    workload = skewed_workload(
        customers=24, accounts=100, batches=3, batch_size=8, seed=5
    )
    exchange = ShardedExchange(
        "s",
        compile_mapping(workload.mapping, workload.target_dependencies),
        workload.source,
        PartitionSpec(2),
        worker_mode="process",
    )
    try:
        added, removed = workload.batches[0]
        exchange.apply_delta(added=added, removed=removed)
        baseline = [frozenset(exchange.answer(q).answers) for q in workload.queries]

        victim = exchange.shards[0]
        assert isinstance(victim, ProcessShard)
        assert exchange.shard_states()[0] == "process(gen=0)"
        victim.kill_worker()
        # Cached summaries and answers still serve without touching the pipe.
        assert [
            frozenset(exchange.answer(q).answers) for q in workload.queries
        ] == baseline

        # The next delta hits the dead pipe: the front swaps the slot for a
        # fresh in-process exchange, replays the batch on it, and the failure
        # lands in the stats.
        added, removed = workload.batches[1]
        exchange.apply_delta(added=added, removed=removed)
        assert exchange.shard_states()[0] == "degraded(gen=1)"
        assert not isinstance(exchange.shards[0], ProcessShard)
        stats = exchange.sharding_stats()
        assert stats.worker_failures == 1
        assert stats.worker_mode == "process"
        for query in workload.queries:  # still answering after degradation
            exchange.answer(query)
    finally:
        exchange.close()


def test_mid_stream_kill_stays_differentially_equal_to_threads():
    results = {}
    for mode in ("thread", "process"):
        workload = skewed_workload(
            customers=24, accounts=100, batches=3, batch_size=8, seed=5
        )
        exchange = ShardedExchange(
            "s",
            compile_mapping(workload.mapping, workload.target_dependencies),
            workload.source,
            PartitionSpec(2),
            worker_mode=mode,
        )
        try:
            answers = []
            for i, (added, removed) in enumerate(workload.batches):
                exchange.apply_delta(added=added, removed=removed)
                if mode == "process" and i == 0:
                    exchange.shards[1].kill_worker()
                answers.extend(
                    frozenset(exchange.answer(q).answers) for q in workload.queries
                )
            results[mode] = answers
        finally:
            exchange.close()
    assert results["thread"] == results["process"]


def skewed_exchange(name, mode):
    workload = skewed_workload(
        customers=24, accounts=100, batches=3, batch_size=8, seed=5
    )
    exchange = ShardedExchange(
        name,
        compile_mapping(workload.mapping, workload.target_dependencies),
        workload.source,
        PartitionSpec(2),
        worker_mode=mode,
    )
    return workload, exchange


class _GateLock:
    """Stands in for a proxy's I/O lock: counts arrivals, admits on release."""

    def __init__(self):
        self.lock = threading.Lock()
        self.arrived = threading.Semaphore(0)

    def __enter__(self):
        self.arrived.release()
        self.lock.acquire()

    def __exit__(self, *exc_info):
        self.lock.release()


def test_two_requests_on_one_dead_worker_make_one_swap():
    """Two uncached scatter queries queue on one dead worker's I/O lock: the
    first swaps the slot, the second finds it swapped and retries on the
    replacement — one failure, generation 1, both answered, no child left."""
    workload, reference = skewed_exchange("race-ref", "thread")
    _, exchange = skewed_exchange("race", "process")
    by_name = {query.name: query for query in workload.queries}
    queries = [by_name["accounts_with_region"], by_name["audited_regions"]]
    try:
        expected = [reference.certain_answers(query) for query in queries]
        victim = exchange.shards[0]
        for query in queries:  # both consult the victim's slot
            assert 0 in exchange.explain(query).fanout.consulted
        proc = victim._proc
        gate = victim._io_lock = _GateLock()
        victim.kill_worker()
        gate.lock.acquire()
        with ThreadPoolExecutor(max_workers=2) as clients:
            try:
                futures = [clients.submit(exchange.answer, q) for q in queries]
                arrived = all(gate.arrived.acquire(timeout=30) for _ in queries)
            finally:
                gate.lock.release()
            assert arrived  # both requests were queued on the dead worker
            answers = [set(future.result(timeout=60).answers) for future in futures]
        assert answers == expected
        stats = exchange.sharding_stats()
        assert stats.worker_failures == 1
        assert exchange.shard_states() == (
            "degraded(gen=1)",
            "process(gen=0)",
            "process(gen=0)",
        )
        assert victim._proc is None and not proc.is_alive()
    finally:
        reference.close()
        exchange.close()


def test_worker_death_records_one_flight_event_under_the_scenario():
    workload, exchange = skewed_exchange("flight-one", "process")
    since = FLIGHT_RECORDER.last_seq
    try:
        exchange.shards[0].kill_worker()
        added, removed = workload.batches[0]
        exchange.apply_delta(added=added, removed=removed)
        # One event, and under the scenario's own name (not a shard's).
        [event] = FLIGHT_RECORDER.events(since_seq=since)
        assert (event.kind, event.scenario) == ("worker_failure", "flight-one")
        assert event.detail["shard"] == 0
    finally:
        exchange.close()


def test_update_stats_never_decrease_across_a_swap():
    """The front counts replays per call on the backend that served it, so a
    slot swapped mid-stream moves no counter of ``update_stats`` backwards,
    and the totals still match thread mode batch for batch."""
    workload, reference = skewed_exchange("stats-ref", "thread")
    _, exchange = skewed_exchange("stats", "process")
    try:
        for i, (added, removed) in enumerate(workload.batches):
            if i == 1:
                exchange.shards[0].kill_worker()
            before = replace(exchange.update_stats)
            exchange.apply_delta(added=added, removed=removed)
            reference.apply_delta(added=added, removed=removed)
            after = exchange.update_stats
            for field in fields(after):
                assert getattr(after, field.name) >= getattr(before, field.name)
            assert after == reference.update_stats
        assert exchange.sharding_stats().worker_failures == 1
    finally:
        reference.close()
        exchange.close()


def test_deregister_terminates_worker_processes():
    workload = skewed_workload(customers=12, accounts=40, batches=1, batch_size=4)
    service = ExchangeService()
    service.register(
        "s",
        workload.mapping,
        workload.source,
        target_dependencies=workload.target_dependencies,
        shards=2,
        shard_workers="process",
    )
    procs = [
        shard._proc
        for shard in service.scenario("s").shards
        if isinstance(shard, ProcessShard) and shard._proc is not None
    ]
    assert procs and all(proc.is_alive() for proc in procs)
    service.deregister("s")
    for proc in procs:
        proc.join(timeout=5.0)
    assert not any(proc.is_alive() for proc in procs)


def test_traced_requests_graft_worker_process_spans():
    """Worker span records ride the reply pipe into the parent's trace tree.

    With tracing enabled, a scatter query against process-mode shards must
    yield a tree whose ``shard.answer`` spans contain grafted
    ``worker.answer`` children (the worker traced its half of the request
    in its own process), and a committed update must likewise graft
    ``worker.apply_delta`` under ``shard.apply_delta``.  Explain stays
    differentially equal to the dispatched route in process mode.
    """
    from repro.obs import TRACER

    mapping, deps, source, batches, queries = skewed_case()
    service = ExchangeService()
    service.register(
        "traced", mapping, source, deps, shards=2, shard_workers="process"
    )
    try:
        stats = service.scenario("traced").sharding_stats()
        if stats.worker_mode != "process" or stats.worker_failures:
            pytest.skip("worker processes unavailable in this environment")

        def collect(span, by_name):
            by_name.setdefault(span.name, []).append(span)
            for child in span.children:
                collect(child, by_name)

        with TRACER.enable():
            TRACER.drain()
            for query in queries:
                explain = service.explain("traced", query)
                result = service.query("traced", query)
                assert explain.route == result.route
            added, removed = batches[0]
            with service.transaction("traced") as txn:
                txn.retract(removed)
                txn.add(added)
            roots = TRACER.drain()

        by_name: dict[str, list] = {}
        for root in roots:
            collect(root, by_name)
        assert "worker.answer" in by_name, sorted(by_name)
        assert "worker.apply_delta" in by_name, sorted(by_name)
        # Grafted spans sit under the dispatching side's per-shard spans.
        assert any(
            child.name == "worker.answer"
            for span in by_name["shard.answer"]
            for child in span.children
        )
        assert any(
            child.name == "worker.apply_delta"
            for span in by_name["shard.apply_delta"]
            for child in span.children
        )
        # The worker stamped its shard index into the grafted span.
        shards = {span.attrs.get("shard") for span in by_name["worker.answer"]}
        assert shards <= {0, 1, 2} and shards
    finally:
        service.deregister("traced")


def test_register_rejects_unknown_worker_mode_strings():
    workload = skewed_workload(customers=12, accounts=40, batches=1, batch_size=4)
    service = ExchangeService()
    with pytest.raises(ValueError, match="process"):
        service.register(
            "s",
            workload.mapping,
            workload.source,
            target_dependencies=workload.target_dependencies,
            shards=2,
            shard_workers="threads-please",
        )
    with pytest.raises(ValueError):
        ShardedExchange(
            "s",
            compile_mapping(workload.mapping, workload.target_dependencies),
            workload.source,
            PartitionSpec(2),
            worker_mode="fork",
        )

