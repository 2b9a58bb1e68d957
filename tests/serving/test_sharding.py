"""Sharded exchange: shardability analysis, routing, and differential tests.

The differential sections implement the acceptance bar of the sharding
subsystem: for every chase workload, sharded scatter-gather answers (UCQ,
monotone-FO and DEQA routes) must equal the answers of one unsharded
:class:`MaterializedExchange` under arbitrary interleavings of mixed
``apply_delta`` batches — including the degenerate plan where every STD
falls back to the residual shard (``force_residual=True``).
"""

import pytest

import repro.serving.materialized as materialized_mod
from repro.chase.dependencies import parse_dependencies
from repro.core.mapping import mapping_from_rules
from repro.logic.cq import UnionOfConjunctiveQueries, cq
from repro.logic.queries import Query
from repro.logic.terms import Const
from repro.obs.metrics import METRICS
from repro.relational.builders import make_instance
from repro.serving import (
    ExchangeService,
    MaterializedExchange,
    PartitionSpec,
    RoutingTable,
    ServingError,
    ShardedExchange,
    analyse_shardability,
    compile_mapping,
)
from repro.serving.workers import WorkerGone
from repro.workloads.churn import churn_workload
from repro.workloads.serving import serving_queries, serving_workload
from repro.workloads.skewed import skewed_workload


# ---------------------------------------------------------------------------
# Shardability analysis
# ---------------------------------------------------------------------------


def test_partition_spec_validates_and_defaults_keys():
    with pytest.raises(ValueError, match="at least one"):
        PartitionSpec(0)
    spec = PartitionSpec(4, {"Emp": 1})
    assert spec.key_position("Emp") == 1
    assert spec.key_position("Works") == 0  # default: first column is the key
    assert PartitionSpec(4, {"Emp": 1}) == spec  # structural equality


def test_single_atom_and_key_join_stds_are_local():
    mapping = mapping_from_rules(
        [
            "T(x, y) :- S(x, y)",
            "K(x, r) :- D(x, y) & E(x, r)",
        ],
        source={"S": 2, "D": 2, "E": 2},
        target={"T": 2, "K": 2},
    )
    plan = analyse_shardability(compile_mapping(mapping), PartitionSpec(3))
    assert plan.local_stds == {0, 1}
    assert not plan.residual_sources
    assert dict(plan.target_keys) == {"T": (0,), "K": (0,)}


def test_non_cq_and_unaligned_bodies_go_residual_with_closure():
    mapping = mapping_from_rules(
        [
            "T(x, y) :- S(x, y)",  # single atom — but S is dragged residual below
            "J(x, w) :- S(x, y) & C(y, w)",  # join on y: positions 1 and 0 — unaligned
            "K(x, r) :- D(x, y) & E(x, r)",  # key-join on x, untouched by the closure
            "W(x, z^op) :- D(x, y) & ~ (exists r . B(x, r))",  # non-CQ body
        ],
        source={"S": 2, "C": 2, "D": 2, "E": 2, "B": 2},
        target={"T": 2, "J": 2, "K": 2, "W": 2},
    )
    plan = analyse_shardability(compile_mapping(mapping), PartitionSpec(3))
    # The unaligned join routes S and C residual; the non-CQ body routes D
    # and B residual; and the key-join STD 2 reads D (now residual) and E —
    # a straddling body — so the closure drags E along.
    assert plan.residual_sources == {"S", "C", "D", "E", "B"}
    assert plan.fully_residual
    assert plan.local_stds == set()  # every STD now fires in the residual shard
    kinds = {record.kind for record in plan.reason_records}
    assert {"non-cq", "straddling-join"} <= kinds


def test_key_aligned_dependencies_are_accepted():
    # The key-constraint egd joins two T atoms on the key position.
    mapping = mapping_from_rules(
        ["T(x^cl, y^cl) :- S(x, y)"], source={"S": 2}, target={"T": 2}
    )
    deps = parse_dependencies(["T(x, y) & T(x, z) -> y = z"])
    plan = analyse_shardability(compile_mapping(mapping, deps), PartitionSpec(4))
    assert not plan.residual_sources
    assert plan.local_stds == {0}


def test_unsafe_dependency_forces_relations_residual():
    mapping = mapping_from_rules(
        ["T(x^cl, y^cl) :- S(x, y)"], source={"S": 2}, target={"T": 2, "U": 2}
    )
    # Joins two T facts on the *non-key* position: may join across shards.
    deps = parse_dependencies(["T(x, y) & T(z, y) -> U(x, z)"])
    plan = analyse_shardability(compile_mapping(mapping, deps), PartitionSpec(4))
    assert plan.residual_sources == {"S"}
    assert plan.fully_residual
    assert "unsafe-dependency" in {record.kind for record in plan.reason_records}


def test_key_propagation_through_tgd_heads():
    # skewed_workload's cascade moves the key from position 0 of Flag to
    # position 1 of Audit; the analysis must track it there.
    workload = skewed_workload(customers=8, accounts=20, batches=0)
    compiled = compile_mapping(workload.mapping, workload.target_dependencies)
    plan = analyse_shardability(compiled, PartitionSpec(4))
    keys = dict(plan.target_keys)
    assert keys["Flag"] == (0,)
    assert keys["Audit"] == (1,)
    assert plan.local_stds == {0, 1}


def test_scatter_safety_classification():
    workload = skewed_workload(customers=8, accounts=20, batches=0)
    compiled = compile_mapping(workload.mapping, workload.target_dependencies)
    plan = analyse_shardability(compiled, PartitionSpec(4))
    safe = {q.name: plan.scatter_safe(q) for q in workload.queries}
    assert safe["accounts_c0"]  # single atom
    assert safe["accounts_with_region"]  # key-aligned join
    assert safe["audited_regions"]  # key-aligned via propagated positions
    assert safe["hot_profile"]  # UCQ of safe disjuncts
    assert not safe["shared_accounts"]  # joins on the non-key account id
    # A join over an unproduced relation is empty everywhere: trivially safe.
    assert plan.scatter_safe(
        cq(["x"], [("Acct", ["x", "a"]), ("Ghost", ["x"])])
    )
    # FO-shaped queries never scatter (they take the merged route).
    assert not plan.scatter_safe(Query("exists a . Acct(c, a)", ("c",)))


def test_constant_key_queries_pin_their_worker_shard():
    workload = skewed_workload(customers=8, accounts=40, batches=0)
    compiled = compile_mapping(workload.mapping, workload.target_dependencies)
    plan = analyse_shardability(compiled, PartitionSpec(4))
    hot = next(q for q in workload.queries if q.name == "accounts_c0")
    routing = RoutingTable.initial(4)
    pinned = plan.scatter_shards(hot, routing)
    assert pinned == {routing.worker_of_value("c0")}
    # A variable-key query may match anywhere: no pruning.
    anywhere = cq(["c", "a"], [("Acct", ["c", "a"])])
    assert plan.scatter_shards(anywhere, routing) is None
    # The pruned scatter still answers exactly like the unsharded exchange.
    exchange = ShardedExchange("pin", compiled, workload.source, PartitionSpec(4))
    flat = ShardedExchange(
        "flat", compiled, workload.source, PartitionSpec(1), force_residual=True
    )
    try:
        calls = count_answers(exchange)
        assert exchange.certain_answers(hot) == flat.certain_answers(hot)
        # Only the pinned worker (and possibly residual) evaluated: the front
        # asked no other worker.
        assert [calls[index] for index in range(4) if index not in pinned] == [0] * 3
    finally:
        exchange.close()
        flat.close()


def test_register_rejects_sharding_kwargs_without_shards():
    workload = skewed_workload(customers=8, accounts=20, batches=0)
    service = ExchangeService()
    with pytest.raises(ValueError, match="require shards"):
        service.register(
            "oops",
            workload.mapping,
            workload.source,
            workload.target_dependencies,
            partition_keys={"Account": 0},
        )
    with pytest.raises(ValueError, match="require shards"):
        service.register(
            "oops",
            workload.mapping,
            workload.source,
            workload.target_dependencies,
            force_residual=True,
        )


def test_force_residual_degenerates_the_whole_plan():
    workload = skewed_workload(customers=8, accounts=20, batches=0)
    compiled = compile_mapping(workload.mapping, workload.target_dependencies)
    plan = analyse_shardability(compiled, PartitionSpec(4), force_residual=True)
    assert plan.fully_residual
    assert plan.local_stds == set()
    # Every target relation is residual-produced, so every query is still
    # scatter-"safe" (a one-shard scatter) — the residual shard holds it all.
    assert all(plan.scatter_safe(q) for q in workload.queries)
    # Routing sends every fact to the residual shard.
    routing = RoutingTable.initial(4)
    assert plan.shard_of("Account", ("c1", "a1"), routing) == plan.spec.shards


# ---------------------------------------------------------------------------
# ShardedExchange mechanics
# ---------------------------------------------------------------------------


def fresh_sharded(shards=3, **kwargs):
    workload = skewed_workload(customers=12, accounts=40, batches=0)
    compiled = compile_mapping(workload.mapping, workload.target_dependencies)
    return ShardedExchange(
        "unit", compiled, workload.source, PartitionSpec(shards), **kwargs
    )


def test_routing_agrees_with_python_equality_on_mixed_key_types():
    """Regression: routing must follow ``==`` (the join semantics), not the
    spelling of the key — ``1``, ``1.0`` and ``True`` are one join key and
    must co-locate, or a key-join trigger spanning them never fires."""
    for shards in (2, 3, 4, 7):
        routing = RoutingTable.initial(shards)
        assert (
            routing.worker_of_value(1)
            == routing.worker_of_value(1.0)
            == routing.worker_of_value(True)
        )
    mapping = mapping_from_rules(
        ["T(x, y, z) :- R(k, x) & S(k, y, z)"],
        source={"R": 2, "S": 3},
        target={"T": 3},
    )
    source = make_instance({"R": [(1, "a")], "S": [(1.0, "b", "c")]})
    compiled = compile_mapping(mapping)
    exchange = ShardedExchange("mixed", compiled, source, PartitionSpec(4))
    try:
        query = cq(["x", "y"], [("T", ["x", "y", "z"])], name="t")
        assert exchange.certain_answers(query) == {("a", "b")}
        exchange.apply_delta(added=[("R", (True, "d"))])
        assert exchange.certain_answers(query) == {("a", "b"), ("d", "b")}
    finally:
        exchange.close()


def test_shard_routing_is_stable_and_partitions_the_source():
    exchange = fresh_sharded()
    try:
        total = sum(len(shard.source) for shard in exchange.shards)
        assert total == len(exchange.source)
        for relation, tup in exchange.source.facts():
            index = exchange.plan.shard_of(
                relation, tup, exchange.routing_snapshot()
            )
            assert (relation, tup) in exchange.shards[index].source
            # every other shard does not hold the fact
            assert all(
                (relation, tup) not in shard.source
                for i, shard in enumerate(exchange.shards)
                if i != index
            )
    finally:
        exchange.close()


def test_apply_delta_rejects_overlapping_sides_and_counts_rounds():
    exchange = fresh_sharded()
    try:
        fact = ("Account", ("c1", "zz"))
        with pytest.raises(ValueError, match="added and removed"):
            exchange.apply_delta(added=[fact], removed=[fact])
        assert exchange.apply_delta() == exchange.apply_delta(added=[], removed=[])
        assert exchange.update_stats.batches == 0  # no-ops pay nothing
        applied = exchange.apply_delta(added=[fact])
        assert applied.added == (fact,)
        stats = exchange.update_stats
        assert stats.batches == 1
        assert stats.trigger_rounds == 1
        assert stats.target_repairs == 1
        assert stats.invalidation_rounds == 1
        assert exchange.epoch == 1
    finally:
        exchange.close()


def test_failed_batch_unwinds_committed_shards_with_inverse_deltas():
    mapping = mapping_from_rules(
        ["T(x^cl, y^cl) :- S(x, y)"], source={"S": 2}, target={"T": 2}
    )
    deps = parse_dependencies(["T(x, y) & T(x, z) -> y = z"])
    compiled = compile_mapping(mapping, deps)
    source = make_instance({"S": [("a", "1"), ("b", "1")]})
    exchange = ShardedExchange("k", compiled, source, PartitionSpec(4))
    try:
        query = cq(["x", "y"], [("T", ["x", "y"])], name="t")
        before = exchange.certain_answers(query)
        batch = [("S", ("a", "2"))] + [("S", (key, "9")) for key in "cdefgh"]
        with pytest.raises(ServingError):
            exchange.apply_delta(added=batch)
        assert exchange.certain_answers(query) == before
        assert exchange.update_stats.rollbacks == 1
        assert all(("S", (key, "9")) not in exchange.source for key in "cdefgh")
        assert sum(len(shard.source) for shard in exchange.shards) == 2
    finally:
        exchange.close()


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_rebuild_shard_restores_the_pre_batch_state(mode):
    """The rollback backstop: when an inverse delta cannot be applied, the
    shard is re-materialized from its pre-batch source and must answer
    exactly like a shard that never saw the batch.  The slot swap closes
    the replaced backend: in process mode its worker is reaped."""
    exchange = fresh_sharded(worker_mode=mode)
    try:
        query = cq(["c", "a"], [("Acct", ["c", "a"])], name="acct")
        before = exchange.certain_answers(query)
        fact = ("Account", ("c1", "backstop"))
        index = exchange.plan.shard_of(*fact, exchange.routing_snapshot())
        old = exchange.shards[index]
        proc = getattr(old, "_proc", None)
        applied = old.apply_delta(added=[fact])
        exchange._rebuild_shard(index, applied)
        assert exchange.shards[index] is not old
        assert (fact not in exchange.shards[index].source)
        assert exchange.certain_answers(query) == before
        assert exchange.shard_states()[index] == (
            "thread" if mode == "thread" else "process(gen=0)"
        )
        if mode == "process":
            assert old._proc is None and not proc.is_alive()
            procs = [shard._proc for shard in exchange.shards]
    finally:
        exchange.close()
    if mode == "process":  # no child process outlives the exchange
        assert not any(child.is_alive() for child in procs)


# ---------------------------------------------------------------------------
# Differential: sharded == unsharded under mixed-batch interleavings
# ---------------------------------------------------------------------------


def churn_case():
    workload = churn_workload(
        employees=80, squads=16, departments=8, batches=6, batch_size=4, flaps=1
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
        cq(["e", "p"], [("Member", ["e", "p"])], name="member"),
        cq(["e", "m"], [("Rec", ["e", "d"]), ("Mgr", ["d", "m"])], name="join"),
        UnionOfConjunctiveQueries(
            [cq(["x"], [("Rec", ["x", "d"])]), cq(["x"], [("Member", ["x", "p"])])],
            name="ucq",
        ),
    )
    return workload.mapping, workload.target_dependencies, workload.source, batches, queries


def serving_case():
    workload = serving_workload(
        employees=40, projects=15, assignments=50, update_batches=4
    )
    batches, previous = [], ()
    for update in workload.updates:
        # make the stream genuinely mixed: retract a slice of the previous
        # batch while adding the next one.
        batches.append((update, previous[:2]))
        previous = update
    return workload.mapping, (), workload.source, batches, serving_queries()


def deqa_case():
    # DEQA explores annotation-bounded solution spaces per candidate tuple,
    # so the non-monotone differential runs on a deliberately tiny scenario.
    mapping = mapping_from_rules(
        ["EmpT(e^cl, d^cl) :- Emp(e, d)", "Team(e^cl, p^cl) :- Works(e, p)"],
        source={"Emp": 2, "Works": 2},
        target={"EmpT": 2, "Team": 2},
    )
    source = make_instance(
        {"Emp": [("a", "d1"), ("b", "d1"), ("c", "d2")], "Works": [("a", "p1")]}
    )
    batches = [
        ([("Works", ("b", "p2"))], []),
        ([("Emp", ("d", "d2"))], [("Works", ("a", "p1"))]),
        ([("Works", ("a", "p1"))], [("Emp", ("b", "d1"))]),
    ]
    queries = (
        cq(["e", "d"], [("EmpT", ["e", "d"])], name="emp"),
        Query("~ (exists z . Team(x, z))", ("x",), name="idle"),  # DEQA route
    )
    return mapping, (), source, batches, queries


def skewed_case():
    workload = skewed_workload(
        customers=24, accounts=120, batches=5, batch_size=10, zipf_s=1.2
    )
    return (
        workload.mapping,
        workload.target_dependencies,
        workload.source,
        list(workload.batches),
        workload.queries,
    )


CASES = {
    "churn": churn_case,
    "serving": serving_case,
    "skewed": skewed_case,
    "deqa": deqa_case,
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("force_residual", [False, True], ids=["analysed", "residual"])
def test_sharded_answers_equal_unsharded_after_every_mixed_batch(case, force_residual):
    mapping, deps, source, batches, queries = CASES[case]()
    service = ExchangeService()
    service.register("flat", mapping, source, deps)
    service.register(
        "sharded", mapping, source, deps, shards=3, force_residual=force_residual
    )
    exchange = service.scenario("sharded")
    assert exchange.plan.fully_residual == force_residual or not force_residual

    def compare(batch_index):
        for query in queries:
            flat = service.query("flat", query)
            sharded = service.query("sharded", query)
            assert flat.answers == sharded.answers, (
                case,
                batch_index,
                getattr(query, "name", query),
                sharded.route,
            )

    compare(-1)
    for batch_index, (added, removed) in enumerate(batches):
        with service.transaction("flat", "sharded") as txn:
            txn.retract(removed, scenario="flat")
            txn.add(added, scenario="flat")
            txn.retract(removed, scenario="sharded")
            txn.add(added, scenario="sharded")
        compare(batch_index)

    stats = service.stats("sharded").sharding
    assert stats.epoch == sum(1 for added, removed in batches if added or removed)
    if not force_residual and case in ("serving", "skewed"):
        # sanity: the analysed plans actually exercise both query routes.
        assert stats.scatter_queries > 0
        assert stats.merged_queries > 0
    if force_residual:
        assert stats.shard_source_tuples[:-1] == (0,) * (stats.shards - 1)


def test_all_residual_arises_naturally_from_the_analysis_too():
    """The cache-invalidation mapping (non-CQ body + unaligned join) lands
    every STD in the residual shard *without* force_residual — the acceptance
    criterion's "all STDs fall back" case reached through the analysis."""
    mapping = mapping_from_rules(
        [
            "T(x, y) :- R(x, y)",
            "J(x, w) :- R(x, y) & S(y, w)",
            "Lone(x, z^op) :- R(x, y) & ~ (exists w . S(y, w))",
        ],
        source={"R": 2, "S": 2},
        target={"T": 2, "J": 2, "Lone": 2},
    )
    queries = (
        cq(["x", "y"], [("T", ["x", "y"])], name="t"),
        cq(["x", "w"], [("J", ["x", "w"])], name="j"),
        cq(["x"], [("Lone", ["x", "z"])], name="lone"),
    )
    source = make_instance({"R": [("a", "b"), ("c", "d")], "S": [("b", "w")]})
    service = ExchangeService()
    service.register("flat", mapping, source)
    service.register("sharded", mapping, source, shards=3)
    exchange = service.scenario("sharded")
    assert exchange.plan.fully_residual
    stream = [
        ([("S", ("d", "u"))], []),
        ([("R", ("e", "b"))], [("R", ("a", "b"))]),
        ([], [("S", ("b", "w"))]),
        ([("R", ("a", "b")), ("S", ("b", "w"))], [("R", ("c", "d"))]),
    ]
    for added, removed in stream:
        service.update("flat", add=added, retract=removed)
        service.update("sharded", add=added, retract=removed)
        for query in queries:
            assert (
                service.query("flat", query).answers
                == service.query("sharded", query).answers
            )


# ---------------------------------------------------------------------------
# Service integration
# ---------------------------------------------------------------------------


def test_transaction_spanning_sharded_and_flat_scenarios_rolls_back_together():
    mapping = mapping_from_rules(
        ["T(x^cl, y^cl) :- S(x, y)"], source={"S": 2}, target={"T": 2}
    )
    deps = parse_dependencies(["T(x, y) & T(x, z) -> y = z"])
    service = ExchangeService()
    service.register("plain", mapping, make_instance({"S": [("p", "0")]}), deps)
    service.register(
        "sharded", mapping, make_instance({"S": [("a", "1")]}), deps, shards=2
    )
    query = cq(["x", "y"], [("T", ["x", "y"])], name="t")
    plain_before = service.query("plain", query).answers
    sharded_before = service.query("sharded", query).answers
    with pytest.raises(ServingError):
        with service.transaction("plain", "sharded") as txn:
            txn.add([("S", ("q", "9"))], scenario="plain")  # commits first...
            txn.add([("S", ("a", "2"))], scenario="sharded")  # ...then conflicts
    # cross-scenario rollback: the committed flat scenario was unwound by its
    # inverse delta, the sharded one by its own per-shard rollback.
    assert service.query("plain", query).answers == plain_before
    assert service.query("sharded", query).answers == sharded_before


def test_sharded_scenario_surfaces_in_service_stats_and_routes():
    workload = skewed_workload(customers=12, accounts=60, batches=1, batch_size=6)
    service = ExchangeService()
    service.register(
        "hot",
        workload.mapping,
        workload.source,
        workload.target_dependencies,
        shards=4,
        shard_workers=4,
    )
    first = service.query("hot", workload.queries[0])
    assert first.route == "scatter"
    assert service.query("hot", workload.queries[0]).route == "cache"
    merged = service.query("hot", workload.queries[-1])
    assert merged.route == "merged"
    added, removed = workload.batches[0]
    service.update("hot", add=added, retract=removed)
    assert service.query("hot", workload.queries[0]).route == "scatter"  # stale
    stats = service.stats("hot")
    assert stats.sharding is not None
    assert stats.sharding.workers == 4
    assert stats.sharding.epoch == 1
    assert stats.sharding.fanout_applies >= 1
    assert sum(stats.sharding.shard_source_tuples) == stats.source_tuples
    service.deregister("hot")  # closes the shard worker pool
    assert "hot" not in service


def test_property_random_mixed_interleavings_match_unsharded():
    """Hypothesis-driven arbitrary interleavings of mixed batches: the
    sharded exchange (analysed plan *and* forced-residual plan) agrees with
    the unsharded one after every step, for a mapping whose analysis
    genuinely splits (key-join local STD + Zipf-free mixed routing)."""
    from hypothesis import given, settings, strategies as st

    mapping = mapping_from_rules(
        [
            "T(x, y) :- R(x, y)",
            "K(x, w) :- R(x, y) & S(x, w)",  # key-join on x: shard-local
        ],
        source={"R": 2, "S": 2},
        target={"T": 2, "K": 2, "V": 2},
    )
    deps = parse_dependencies(["T(x, y) -> exists m . V(x, m)"])
    queries = (
        cq(["x", "y"], [("T", ["x", "y"])], name="t"),
        cq(["x", "w"], [("K", ["x", "w"])], name="k"),
        cq(["x", "y", "w"], [("T", ["x", "y"]), ("K", ["x", "w"])], name="tk"),
        UnionOfConjunctiveQueries(
            [cq(["x"], [("T", ["x", "y"])]), cq(["x"], [("K", ["x", "w"])])],
            name="u",
        ),
    )
    values = st.sampled_from(["a", "b", "c", "d", "e"])
    fact = st.tuples(st.sampled_from(["R", "S"]), st.tuples(values, values))
    batch = st.tuples(
        st.lists(fact, max_size=3), st.lists(fact, max_size=2)
    )

    @settings(max_examples=30, deadline=None)
    @given(initial=st.lists(fact, max_size=4), stream=st.lists(batch, max_size=5))
    def run(initial, stream):
        source = make_instance({})
        for name, tup in initial:
            source.add(name, tup)
        registry_flat = ExchangeService()
        registry_flat.register("flat", mapping, source, deps)
        registry_flat.register("sh", mapping, source, deps, shards=2)
        registry_flat.register(
            "res", mapping, source, deps, shards=2, force_residual=True
        )
        try:
            for added, removed in stream:
                removed = [f for f in removed if f not in added]
                for name in ("flat", "sh", "res"):
                    with registry_flat.transaction(name) as txn:
                        txn.retract(removed)
                        txn.add(added)
                for query in queries:
                    flat = registry_flat.query("flat", query).answers
                    assert registry_flat.query("sh", query).answers == flat
                    assert registry_flat.query("res", query).answers == flat
        finally:
            registry_flat.scenario("sh").close()
            registry_flat.scenario("res").close()

    run()


def test_registry_deregister_closes_the_worker_pool():
    workload = skewed_workload(customers=8, accounts=20, batches=0)
    service = ExchangeService()
    service.register(
        "tmp", workload.mapping, workload.source, workload.target_dependencies, shards=2
    )
    pool = service.scenario("tmp")._pool
    service.deregister("tmp")
    assert pool._shutdown


# ---------------------------------------------------------------------------
# The maintained merged target view
# ---------------------------------------------------------------------------


def assert_merged_view_is_the_union(exchange, maintained):
    """``_merged()`` equals the union of the shard targets, and each fact
    records exactly the slots holding it.  ``maintained``: the view was
    advanced by the last batch, not rebuilt by this call."""
    view = exchange._merged_view
    if maintained:
        assert view is not None and view[0] == exchange._target_versions()
    else:
        assert view is None
    merged = set(exchange._merged().facts())
    targets = [set(shard.target.facts()) for shard in exchange.shards]
    assert merged == set().union(*targets)
    holders = exchange._merged_view[2]
    assert set(holders) == merged
    for fact, mask in holders.items():
        assert mask == sum(1 << i for i, facts in enumerate(targets) if fact in facts)


def assert_answers_match(exchange, flat, queries):
    for query in queries:
        assert exchange.certain_answers(query) == flat.certain_answers(query), query


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_merged_view_is_maintained_as_the_union_of_shard_targets(mode):
    """Seeded differential on the skewed workload: after every committed
    batch the merged view is advanced (not rebuilt) and equals the union of
    the shard targets, and every answer equals the unsharded exchange's.
    A rejected batch (fan-out rollback), a reshard commit and, in process
    mode, a worker killed mid-stream each drop the view, which the next
    merged read rebuilds."""
    workload = skewed_workload(
        customers=16, accounts=80, batches=8, batch_size=6, zipf_s=1.2, seed=5
    )
    compiled = compile_mapping(workload.mapping, workload.target_dependencies)
    flat = MaterializedExchange("flat", compiled, workload.source)
    exchange = ShardedExchange(
        "view", compiled, workload.source, PartitionSpec(2), worker_mode=mode
    )
    merged_queries = [
        q for q in workload.queries if exchange._monotone_route(q) == "merged"
    ]
    assert merged_queries
    try:
        assert_answers_match(exchange, flat, workload.queries)
        assert_merged_view_is_the_union(exchange, maintained=True)
        for step, (added, removed) in enumerate(workload.batches):
            maintained = True
            if step == 2:
                # Rejected: the last touched shard fails after the others
                # committed, so they are unwound and the view is dropped.
                routing = exchange.routing_snapshot()
                touched = {exchange.plan.shard_of(*f, routing) for f in added + removed}
                assert len(touched) >= 2
                victim = exchange.shards[max(touched)]

                def fail(**_):
                    raise ServingError("injected shard failure")

                victim.apply_delta = fail
                try:
                    with pytest.raises(ServingError, match="injected"):
                        exchange.apply_delta(added=added, removed=removed)
                finally:
                    del victim.apply_delta
                assert exchange.update_stats.rollbacks == 1
                assert_merged_view_is_the_union(exchange, maintained=False)
                assert_answers_match(exchange, flat, workload.queries)
                continue
            if step == 4:
                routing = exchange.routing_snapshot()
                loads = exchange.bucket_loads()
                bucket = max(
                    (b for b in loads if routing.worker_of_bucket(b) == 0),
                    key=lambda b: (loads[b], b),
                )
                exchange.reshard([(bucket, 1)])
                assert exchange._merged_view is None
            if step == 6 and mode == "process":
                index = exchange.plan.shard_of(*added[0], exchange.routing_snapshot())
                exchange.shards[index].kill_worker()
                maintained = False
            if step in (4, 6):
                exchange._merged()  # rebuild before the batch, to advance it
            flat.apply_delta(added=added, removed=removed)
            exchange.apply_delta(added=added, removed=removed)
            assert_merged_view_is_the_union(exchange, maintained)
            assert_answers_match(exchange, flat, workload.queries)
        if mode == "process":
            assert exchange.sharding_stats().worker_failures == 1
        assert exchange.sharding_stats().reshards == 1
    finally:
        exchange.close()


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_merged_view_is_rebuilt_when_an_egd_rewrite_leaves_the_touched_facts_unknown(
    mode,
):
    """A shard whose batch fired an egd cannot say which target facts it
    touched, so the view is dropped and rebuilt; an egd conflict rejects
    the batch across shards and drops it too."""
    mapping = mapping_from_rules(
        ["T(x^cl, z^op) :- S(x)", "T(x^cl, y^cl) :- R(x, y)"],
        source={"S": 1, "R": 2},
        target={"T": 2},
    )
    deps = parse_dependencies(["T(x, y) & T(x, z) -> y = z"])
    compiled = compile_mapping(mapping, deps)
    keys = [f"k{i}" for i in range(8)]
    source = make_instance({"S": [(k,) for k in keys]})
    flat = MaterializedExchange("flat", compiled, source)
    exchange = ShardedExchange(
        "egd", compiled, source, PartitionSpec(2), worker_mode=mode
    )
    queries = (
        cq(["x", "y"], [("T", ["x", "y"])], name="t"),
        cq(["x1", "x2"], [("T", ["x1", "y"]), ("T", ["x2", "y"])], name="same_value"),
    )
    assert exchange._monotone_route(queries[1]) == "merged"
    assert not exchange.plan.residual_sources
    routing = exchange.routing_snapshot()
    by_worker = {}
    for key in keys:
        by_worker.setdefault(routing.worker_of_value(key), []).append(key)
    a, b = by_worker[0][0], by_worker[1][0]
    try:
        assert_merged_view_is_the_union(exchange, maintained=False)
        # A fresh null, no egd fires: the view advances.
        for target in (flat, exchange):
            target.apply_delta(added=[("S", ("fresh",))])
        assert_merged_view_is_the_union(exchange, maintained=True)
        # The egd rewrites a's null to 1: unknown touched facts, dropped.
        for target in (flat, exchange):
            target.apply_delta(added=[("R", (a, "1"))])
        assert_merged_view_is_the_union(exchange, maintained=False)
        assert_answers_match(exchange, flat, queries)
        # a's value conflicts (1 vs 2) while b's shard commits: rejected
        # across shards, unwound, and the view is dropped.
        batch = [("R", (a, "2")), ("R", (b, "3"))]
        for target in (flat, exchange):
            with pytest.raises(ServingError):
                target.apply_delta(added=batch)
        assert_merged_view_is_the_union(exchange, maintained=False)
        assert_answers_match(exchange, flat, queries)
    finally:
        exchange.close()


# ---------------------------------------------------------------------------
# Per-slot partial scatter answers and their carry-forward
# ---------------------------------------------------------------------------


def count_answers(exchange):
    """Count ``answer`` calls per slot on the current backends (a counting
    proxy installed on each instance, so both shard modes are observed)."""
    calls = [0] * len(exchange.shards)
    for index, shard in enumerate(exchange.shards):

        def counted(query, _answer=shard.answer, _index=index):
            calls[_index] += 1
            return _answer(query)

        shard.answer = counted
    return calls


def same_slot_keys(exchange, keys, worker):
    routing = exchange.routing_snapshot()
    return [key for key in keys if routing.worker_of_value(key) == worker]


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_slot_answers_keep_every_answer_equal_to_unsharded(mode):
    """Seeded differential on the skewed workload: with partial answers
    reused and carried across batches, every answer (merged route
    included) equals the unsharded exchange's after every batch."""
    workload = skewed_workload(
        customers=16, accounts=80, batches=10, batch_size=3, zipf_s=1.2, seed=7
    )
    compiled = compile_mapping(workload.mapping, workload.target_dependencies)
    flat = MaterializedExchange("flat", compiled, workload.source)
    exchange = ShardedExchange(
        "slots", compiled, workload.source, PartitionSpec(2), worker_mode=mode
    )
    routes = {exchange._monotone_route(q) for q in workload.queries}
    assert routes == {"scatter", "merged"}
    try:
        assert_answers_match(exchange, flat, workload.queries)
        for added, removed in workload.batches:
            for target in (flat, exchange):
                target.apply_delta(added=added, removed=removed)
            assert_answers_match(exchange, flat, workload.queries)
        stats = exchange.sharding_stats()
        assert stats.slot_answers_carried > 0
        assert stats.slot_answers_reused > 0
    finally:
        exchange.close()


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_a_write_to_another_customer_reasks_no_pinned_slot(mode):
    """``accounts_c0`` is pinned to c0's worker.  A batch that touches that
    worker for another customer changes no fact the query can match: its
    partial is carried, and the next miss asks no shard.  A write to c0
    itself does re-ask the slot and changes the answers."""
    workload = skewed_workload(customers=16, accounts=80, batches=0, seed=5)
    compiled = compile_mapping(workload.mapping, workload.target_dependencies)
    flat = MaterializedExchange("flat", compiled, workload.source)
    exchange = ShardedExchange(
        "pin", compiled, workload.source, PartitionSpec(2), worker_mode=mode
    )
    query = next(q for q in workload.queries if q.name == "accounts_c0")
    fanout = METRICS.histogram("sharding.scatter_fanout_shards")
    try:
        slot = exchange.routing_snapshot().worker_of_value("c0")
        owners = {c for c, _ in workload.source.relation("Account")}
        other = same_slot_keys(exchange, sorted(owners - {"c0"}), slot)[0]
        relations = ["Acct"]
        assert exchange._target_versions(relations) == (
            exchange._target_versions(relations, slots=(0,))[:1]
            + sum(
                (
                    exchange._target_versions(relations, slots=(index,))[1:]
                    for index in range(len(exchange.shards))
                ),
                (),
            )
        )
        calls = count_answers(exchange)
        assert exchange.explain(query).fanout.consulted == (slot,)
        first = exchange.certain_answers(query)
        assert first == flat.certain_answers(query) and first
        assert calls[slot] == 1

        for target in (flat, exchange):
            target.apply_delta(added=[("Account", (other, "fresh-other"))])
        stats = exchange.sharding_stats()
        assert stats.slot_answers_carried >= 1
        explain = exchange.explain(query)
        assert explain.route == "scatter"
        assert explain.fanout.consulted == () and explain.fanout.reused == (slot,)
        count, total = fanout.count, fanout.sum
        outcome = exchange.answer(query)
        assert outcome.route == "scatter" and not outcome.cached
        assert set(outcome.answers) == first
        assert calls == [1 if i == slot else 0 for i in range(len(calls))]
        assert exchange.sharding_stats().slot_answers_reused == stats.slot_answers_reused + 1
        assert (fanout.count, fanout.sum) == (count + 1, total)  # observed 0 asked

        for target in (flat, exchange):
            target.apply_delta(added=[("Account", ("c0", "fresh-c0"))])
        assert exchange.sharding_stats().slot_answers_carried == stats.slot_answers_carried
        assert exchange.explain(query).fanout.consulted == (slot,)
        second = exchange.certain_answers(query)
        assert second == flat.certain_answers(query) == first | {("fresh-c0",)}
        assert calls[slot] == 2
    finally:
        exchange.close()


def egd_scenario(mode):
    """The egd scenario of the merged-view tests: ``T(x, ⊥)`` per ``S(x)``,
    ``T(x, y)`` per ``R(x, y)``, and the key egd ``T(x, y) & T(x, z) -> y = z``."""
    mapping = mapping_from_rules(
        ["T(x^cl, z^op) :- S(x)", "T(x^cl, y^cl) :- R(x, y)"],
        source={"S": 1, "R": 2},
        target={"T": 2},
    )
    compiled = compile_mapping(mapping, parse_dependencies(["T(x, y) & T(x, z) -> y = z"]))
    keys = [f"k{i}" for i in range(12)]
    source = make_instance({"S": [(k,) for k in keys]})
    flat = MaterializedExchange("flat", compiled, source)
    exchange = ShardedExchange("egd", compiled, source, PartitionSpec(2), worker_mode=mode)
    return keys, flat, exchange


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_an_egd_rewrite_and_a_rollback_carry_no_partial_forward(mode):
    """A slot whose batch fired an egd reports its touched facts as unknown,
    so its partials are not carried; a rejected batch carries nothing
    either.  A known report on the same slot does carry them (the control)."""
    keys, flat, exchange = egd_scenario(mode)
    a, probe = same_slot_keys(exchange, keys, 0)[:2]
    b = same_slot_keys(exchange, keys, 1)[0]
    fresh = same_slot_keys(exchange, [f"n{i}" for i in range(64)], 0)[0]
    query = cq(["y"], [("T", [Const(probe), "y"])], name="probe")
    assert exchange._monotone_route(query) == "scatter"
    try:
        for target in (flat, exchange):
            target.apply_delta(added=[("R", (probe, "v"))])
        calls = count_answers(exchange)

        def ask():
            answers = exchange.certain_answers(query)
            assert answers == flat.certain_answers(query) == {("v",)}
            return calls[0]

        assert ask() == 1
        # Control: a fresh key's S fact on slot 0 fires no egd, so the
        # slot's report is known, and its T fact cannot match the probe.
        for target in (flat, exchange):
            target.apply_delta(added=[("S", (fresh,))])
        carried = exchange.sharding_stats().slot_answers_carried
        assert carried == 1
        assert ask() == 1
        # The egd rewrites a's null to 1 on slot 0: unknown report, re-asked.
        for target in (flat, exchange):
            target.apply_delta(added=[("R", (a, "1"))])
        assert exchange.sharding_stats().slot_answers_carried == carried
        assert ask() == 2
        # Rejected across shards: a's value conflicts while b's shard commits.
        for target in (flat, exchange):
            with pytest.raises(ServingError):
                target.apply_delta(added=[("R", (a, "2")), ("R", (b, "3"))])
        assert exchange.update_stats.rollbacks == 1
        assert exchange.sharding_stats().slot_answers_carried == carried
        assert ask() == 3
    finally:
        exchange.close()


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_a_dead_worker_and_a_reshard_commit_drop_every_partial(mode):
    """A slot swap (a worker death, a reshard commit) restarts a slot's
    version counters, so every stored partial is dropped, and the answers
    asked afresh still equal the unsharded exchange's."""
    workload = skewed_workload(customers=16, accounts=80, batches=0, seed=5)
    compiled = compile_mapping(workload.mapping, workload.target_dependencies)
    flat = MaterializedExchange("flat", compiled, workload.source)
    exchange = ShardedExchange(
        "swap", compiled, workload.source, PartitionSpec(2), worker_mode=mode
    )
    scatter = [q for q in workload.queries if exchange._monotone_route(q) == "scatter"]
    try:
        assert_answers_match(exchange, flat, scatter)
        assert len(exchange._slot_answers) > len(scatter)
        # A death found by a write: the fan-out swaps the slot.
        victim = exchange.shards[0]
        if mode == "process":
            victim.kill_worker()
        else:

            def gone(**_):
                raise WorkerGone("injected death")

            victim.apply_delta = gone
        customers = [f"c{i}" for i in range(16)]
        fact = ("Account", (same_slot_keys(exchange, customers, 0)[0], "x"))
        for target in (flat, exchange):
            target.apply_delta(added=[fact])
        assert exchange.shards[0] is not victim
        assert len(exchange._slot_answers) == 0
        assert_answers_match(exchange, flat, scatter)
        assert len(exchange._slot_answers) > 0

        routing = exchange.routing_snapshot()
        loads = exchange.bucket_loads()
        bucket = max(
            (b for b in loads if routing.worker_of_bucket(b) == 0),
            key=lambda b: (loads[b], b),
        )
        exchange.reshard([(bucket, 1)])
        assert len(exchange._slot_answers) == 0
        assert_answers_match(exchange, flat, scatter)
    finally:
        exchange.close()


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_scatter_slots_answer_over_their_targets(mode, monkeypatch):
    """A slot answers every monotone query over its maintained target and
    never computes a core.  After every batch of a seeded stream, every
    answer (scatter and merged) equals the unsharded exchange's, each slot
    answers a fresh scatter-safe CQ by the ``target`` route, and the core
    engine is not called for the sharded exchange (counted in this process,
    which hosts the slots in thread mode).  The service reports no core
    size for the sharded scenario and still serves a flat UCQ from the core."""
    core_calls = []
    for name in ("core_of_delta", "core_of_indexed"):

        def counted(*args, _original=getattr(materialized_mod, name), **kwargs):
            core_calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(materialized_mod, name, counted)
    workload = skewed_workload(
        customers=16, accounts=80, batches=8, batch_size=4, zipf_s=1.2, seed=11
    )
    compiled = compile_mapping(workload.mapping, workload.target_dependencies)
    flat = MaterializedExchange("flat", compiled, workload.source)
    exchange = ShardedExchange(
        "slots", compiled, workload.source, PartitionSpec(2), worker_mode=mode
    )
    assert {exchange._monotone_route(q) for q in workload.queries} == {"scatter", "merged"}

    def check(step):
        # A probe no slot has cached yet, so every slot evaluates it.
        probe = cq(["a"], [("Acct", [Const(f"c{step}"), "a"])], name=f"probe{step}")
        assert exchange._monotone_route(probe) == "scatter"
        queries = workload.queries + (probe,)
        expected = [flat.certain_answers(q) for q in queries]
        calls = len(core_calls)
        for shard in exchange.shards:
            assert shard.answer(probe).route == "target"
        assert [exchange.certain_answers(q) for q in queries] == expected
        assert len(core_calls) == calls

    try:
        check(0)
        for step, (added, removed) in enumerate(workload.batches, start=1):
            for target in (flat, exchange):
                target.apply_delta(added=added, removed=removed)
            check(step)
        assert core_calls  # the flat exchange did compute its core
    finally:
        exchange.close()

    service = ExchangeService()
    scenario = (workload.mapping, workload.source, workload.target_dependencies)
    service.register("flat", *scenario)
    service.register(
        "sharded", *scenario, shards=2, shard_workers="process" if mode == "process" else None
    )
    try:
        hot_profile = next(q for q in workload.queries if q.name == "hot_profile")
        assert service.query("flat", hot_profile).route == "core"
        assert service.query("sharded", hot_profile).route == "scatter"
        stats = service.stats()
        assert stats.scenario("flat").core_tuples is not None
        assert stats.scenario("sharded").core_tuples is None
    finally:
        service.deregister("sharded")


def record_applies(exchange):
    """Record each slot's ``apply_delta`` results per slot (a recording proxy
    installed on each backend, like :func:`count_answers`)."""
    applied = [[] for _ in exchange.shards]
    for index, shard in enumerate(exchange.shards):

        def recorded(*args, _apply=shard.apply_delta, _index=index, **kwargs):
            delta = _apply(*args, **kwargs)
            applied[_index].append(delta)
            return delta

        shard.apply_delta = recorded
    return applied


SLOT_SURFACE = (
    "apply_delta",
    "answer",
    "update_stats",
    "source",
    "target",
    "target_size",
    "target_relation_size",
    "_target_versions",
    "close",
)
FRONT_SURFACE = (
    "explain",
    "certain_answers",
    "cache_stats",
    "cache_entries",
    "cache_stats_snapshot",
    "core",
    "core_size",
    "_cache",
)


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_slots_evaluate_without_a_cache(mode):
    """A slot is a materialization, not an exchange: it has the slot
    surface the front uses and no query front, core or cache of its own
    (the front's partial answers are the only cache of slot answers), and
    each slot's ``apply_delta`` reports its touched target facts split by
    membership (``present`` in its target now, ``absent`` not).  Every
    answer still equals the unsharded exchange's after every batch."""
    workload = skewed_workload(
        customers=16, accounts=80, batches=10, batch_size=4, zipf_s=1.2, seed=13
    )
    compiled = compile_mapping(workload.mapping, workload.target_dependencies)
    flat = MaterializedExchange("flat", compiled, workload.source)
    exchange = ShardedExchange(
        "slots", compiled, workload.source, PartitionSpec(2), worker_mode=mode
    )
    assert {exchange._monotone_route(q) for q in workload.queries} == {"scatter", "merged"}
    applied = record_applies(exchange)
    split = 0

    def check():
        nonlocal split
        assert_answers_match(exchange, flat, workload.queries)
        for shard in exchange.shards:
            assert all(hasattr(shard, name) for name in SLOT_SURFACE), shard
            if mode == "thread":
                assert not any(hasattr(shard, name) for name in FRONT_SURFACE)
        for shard, deltas in zip(exchange.shards, applied):
            target = set(shard.target.facts())
            for delta in deltas:
                assert delta.touched is not None  # tgds only: never unknown
                present, absent = map(set, delta.touched)
                assert present <= target
                assert not absent & target
                assert not present & absent
                split += len(present) + len(absent)
            deltas.clear()

    try:
        check()
        for added, removed in workload.batches:
            for target in (flat, exchange):
                target.apply_delta(added=added, removed=removed)
            check()
        assert split > 0
        assert exchange.sharding_stats().scatter_queries > 0
    finally:
        exchange.close()


def test_a_boolean_scatter_query_over_process_shards_returns_the_empty_tuple():
    """A true 0-ary query ships one answer of arity 0 and no codes; it must
    decode to ``{()}`` (true), not to the empty set (false)."""
    workload = skewed_workload(customers=12, accounts=40, batches=0)
    compiled = compile_mapping(workload.mapping, workload.target_dependencies)
    flat = MaterializedExchange("flat", compiled, workload.source)
    exchange = ShardedExchange(
        "bool", compiled, workload.source, PartitionSpec(2), worker_mode="process"
    )
    owner = next(c for c, _ in workload.source.relation("Account"))
    holds = cq([], [("Acct", [Const(owner), "a"])], name="holds")
    fails = cq([], [("Acct", [Const("nobody"), "a"])], name="fails")
    anyone = cq([], [("Acct", ["c", "a"])], name="anyone")
    try:
        for query in (holds, fails, anyone):
            assert exchange._monotone_route(query) == "scatter"
        assert exchange.certain_answers(holds) == flat.certain_answers(holds) == {()}
        assert exchange.certain_answers(fails) == flat.certain_answers(fails) == set()
        assert exchange.certain_answers(anyone) == {()}
        slot = exchange.routing_snapshot().worker_of_value(owner)
        assert exchange.shards[slot].answer(holds).answers == frozenset([()])
    finally:
        exchange.close()
