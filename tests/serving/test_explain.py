"""Query explain: the reported route must match the route answer() takes.

The acceptance bar of the observability PR: ``service.explain(request)``
is differentially checked against ``service.query(request)`` across the
churn, serving and skewed workloads, covering every dispatch route —
``core``/``target``/``cache``/``deqa`` on unsharded scenarios,
``scatter``/``merged``/``cache`` on sharded ones, and ``route="error"``
exactly when ``answer()`` would raise.  Explain must also be strictly
non-mutating: no cache-counter bumps, no cache entries, no forced merged
view, no core recomputation.
"""

import pytest

from repro.logic.cq import cq
from repro.logic.queries import Query
from repro.serving import (
    ExchangeService,
    PartitionSpec,
    QueryExplain,
    QueryRequest,
    ServingError,
    analyse_shardability,
    compile_mapping,
)
from repro.workloads.churn import churn_workload
from repro.workloads.serving import serving_queries, serving_workload
from repro.workloads.skewed import skewed_workload


def assert_explain_matches(service, name, query, **deqa_kwargs):
    """One differential check: explain's route is the route answer takes."""
    explain = service.explain(QueryRequest(name, query, **deqa_kwargs))
    assert isinstance(explain, QueryExplain)
    assert explain.scenario == name
    if explain.route == "error":
        with pytest.raises(ServingError):
            service.query(QueryRequest(name, query, **deqa_kwargs))
        return explain
    result = service.query(QueryRequest(name, query, **deqa_kwargs))
    assert explain.route == result.route, (
        f"{getattr(query, 'name', query)}: explain={explain.route!r} "
        f"answer={result.route!r}"
    )
    return explain


# -- unsharded: serving workload (core / target / cache / deqa) -------------


def test_explain_matches_routes_on_serving_workload():
    workload = serving_workload(
        employees=60, projects=20, assignments=70, update_batches=3, batch_size=4
    )
    service = ExchangeService()
    service.register("emp", workload.mapping, workload.source)
    seen = set()
    for batch in workload.updates:
        with service.transaction("emp") as txn:
            txn.add(batch)
        for query in serving_queries():
            first = assert_explain_matches(service, "emp", query)
            seen.add(first.route)
            again = assert_explain_matches(service, "emp", query)
            assert again.route == "cache"
            assert again.cache.outcome == "hit"
    assert {"core", "target", "cache"} <= seen


@pytest.mark.parametrize("shards", [None, 2], ids=["unsharded", "sharded"])
def test_explain_deqa_and_error_routes(shards):
    # DEQA enumerates candidate extensions, so the scenario stays tiny —
    # the routes, not the answers, are under test here.  Both exchange
    # kinds share one query front; running it sharded too covers that
    # front's deqa/cache/error branches behind the sharded version vector.
    from repro.core.mapping import mapping_from_rules
    from repro.relational.builders import make_instance

    mapping = mapping_from_rules(
        ["EmpT(e, d) :- Emp(e, d)", "Team(e, p) :- Works(e, p)"],
        source={"Emp": 2, "Works": 2},
        target={"EmpT": 2, "Team": 2},
    )
    source = make_instance(
        {"Emp": [("alice", "d1"), ("bob", "d2")], "Works": [("alice", "p1")]}
    )
    idle = Query("~ (exists p . Team(e, p))", ("e",), name="idle")
    service = ExchangeService()
    service.register("emp", mapping, source, shards=shards)
    explain = assert_explain_matches(service, "emp", idle)
    assert explain.route == "deqa"
    assert not explain.monotone
    assert explain.cache.semantics.startswith("deqa:")
    cached = assert_explain_matches(service, "emp", idle)
    assert cached.route == "cache"
    # Different DEQA knobs key a different semantics: not the cached entry.
    knobs = assert_explain_matches(service, "emp", idle, extra_constants=2)
    assert knobs.route == "deqa"

    churn = churn_workload(employees=40, squads=8, departments=6, batches=4)
    service.register(
        "churn",
        churn.mapping,
        churn.source,
        churn.target_dependencies,
        shards=shards,
    )
    boss_less = Query("~ (exists m . Mgr(d, m))", ("d",), name="boss_less")
    error = assert_explain_matches(service, "churn", boss_less)
    assert error.route == "error"
    assert "target dependencies" in error.reason
    service.deregister("emp")
    service.deregister("churn")


def test_explain_matches_routes_on_churn_workload():
    workload = churn_workload(employees=60, squads=10, departments=8, batches=8)
    service = ExchangeService()
    service.register(
        "churn", workload.mapping, workload.source, workload.target_dependencies
    )
    queries = (
        cq(["e"], [("Rec", ["e", "d"])], name="recs"),
        cq(["d", "m"], [("Mgr", ["d", "m"])], name="mgrs"),
        cq(["m"], [("Mgr", ["d", "m"]), ("Roster", ["m", "d"])], name="managed"),
    )
    for op, facts in workload.operations[:6]:
        with service.transaction("churn") as txn:
            (txn.add if op == "add" else txn.retract)(facts)
        for query in queries:
            # A batch not touching this query's relations leaves its cache
            # entry valid, so the first probe may legitimately hit.
            first = assert_explain_matches(service, "churn", query)
            assert first.route in ("core", "cache")
            assert first.join_order  # CQ over the target: order is reported
            again = assert_explain_matches(service, "churn", query)
            assert again.route == "cache"


# -- sharded: skewed workload (scatter / merged / cache) --------------------


@pytest.fixture(scope="module")
def sharded_service():
    workload = skewed_workload(customers=16, accounts=90, batches=3, batch_size=8)
    service = ExchangeService()
    service.register(
        "sk",
        workload.mapping,
        workload.source,
        target_dependencies=workload.target_dependencies,
        shards=2,
    )
    yield service, workload
    service.deregister("sk")


def test_explain_matches_routes_on_sharded_workload(sharded_service):
    service, workload = sharded_service
    seen = set()
    for added, removed in workload.batches:
        with service.transaction("sk") as txn:
            txn.add(added)
            txn.retract(removed)
        for query in workload.queries:
            first = assert_explain_matches(service, "sk", query)
            seen.add(first.route)
            if first.route == "scatter":
                assert first.fanout is not None
                assert all(rule.safe for rule in first.scatter)
            if first.route == "merged":
                assert any(not rule.safe for rule in first.scatter)
            again = assert_explain_matches(service, "sk", query)
            assert again.route == "cache"
    assert {"scatter", "merged"} <= seen


def test_sharded_explain_reports_fanout_pruning(sharded_service):
    service, workload = sharded_service
    pinned_query = next(
        q for q in workload.queries if getattr(q, "name", "").startswith("accounts_c")
    )
    explain = service.explain(QueryRequest("sk", pinned_query))
    if explain.route == "cache":  # an earlier test may have warmed it
        service._registry.get("sk")._cache.invalidate_all()
        explain = service.explain(QueryRequest("sk", pinned_query))
    assert explain.route == "scatter"
    # A constant on the key position pins the worker: the consulted set is a
    # strict subset of the shards, exactly what answer() fans out to.
    assert explain.fanout.pinned is not None
    assert len(explain.fanout.consulted) < explain.fanout.shards


# -- non-mutation guarantees ------------------------------------------------


def test_explain_is_strictly_non_mutating():
    workload = serving_workload(employees=30, projects=10, assignments=30)
    service = ExchangeService()
    service.register("emp", workload.mapping, workload.source)
    query = serving_queries()[0]
    exchange = service._registry.get("emp")

    before = exchange.cache_stats_snapshot()
    explain = service.explain(QueryRequest("emp", query))
    after = exchange.cache_stats_snapshot()
    assert explain.cache.outcome == "miss"
    assert (before.hits, before.misses) == (after.hits, after.misses)
    assert exchange.cache_entries == 0  # peek stored nothing

    # Peek agrees with the counting probe once an entry exists.
    service.query(QueryRequest("emp", query))
    assert service.explain(QueryRequest("emp", query)).cache.outcome == "hit"


def test_sharded_explain_does_not_force_the_merged_view():
    workload = skewed_workload(customers=12, accounts=60, batches=1, batch_size=4)
    service = ExchangeService()
    service.register(
        "sk",
        workload.mapping,
        workload.source,
        target_dependencies=workload.target_dependencies,
        shards=2,
    )
    try:
        exchange = service._registry.get("sk")
        merged_query = next(
            q
            for q in workload.queries
            if service.explain(QueryRequest("sk", q)).route == "merged"
        )
        assert exchange._merged_view is None  # explain never built it
        explain = service.explain(QueryRequest("sk", merged_query))
        assert explain.join_order == ()  # stale/absent view: order omitted
        service.query(QueryRequest("sk", merged_query))
        assert exchange._merged_view is not None  # answer() built it
        # With the merged view current, explain now reports the join order.
        exchange._cache.invalidate_all()
        explain = service.explain(QueryRequest("sk", merged_query))
        assert explain.route == "merged"
        assert explain.join_order
    finally:
        service.deregister("sk")


# -- scatter verdict rules --------------------------------------------------


def test_scatter_verdict_rule_strings():
    from repro.core.mapping import mapping_from_rules

    mapping = mapping_from_rules(
        [
            "T(x, y) :- S(x, y)",
            "K(x, r) :- D(x, y) & E(x, r)",
        ],
        source={"S": 2, "D": 2, "E": 2},
        target={"T": 2, "K": 2},
    )
    plan = analyse_shardability(compile_mapping(mapping), PartitionSpec(3))
    single = cq(["x"], [("T", ["x", "y"])], name="single")
    joined = cq(["x"], [("T", ["x", "y"]), ("K", ["x", "r"])], name="joined")
    crossed = cq(["x"], [("T", ["x", "y"]), ("K", ["y", "r"])], name="crossed")
    ghost = cq(["x"], [("G", ["x"]), ("T", ["x", "y"])], name="ghost")
    assert plan.scatter_verdict(single) == (True, "single-atom")
    assert plan.scatter_verdict(joined) == (True, "key-joined(x)")
    assert plan.scatter_verdict(crossed) == (False, "not-key-joined")
    assert plan.scatter_verdict(ghost) == (True, "unproduced-relation")
    for query, safe in [(single, True), (joined, True), (crossed, False)]:
        assert plan.scatter_safe(query) is safe  # verdict drives the dispatch
