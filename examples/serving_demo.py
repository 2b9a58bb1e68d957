"""Serving demo: one ExchangeService front door — register, query, transact.

Run with::

    PYTHONPATH=src python examples/serving_demo.py

The script registers an employees/projects scenario with the serving
service, serves typed queries (watching the dispatch route go from ``core``
to ``cache``), commits a *mixed* add/retract batch as one transaction (one
refresh pass, one cache-invalidation round), shows that invalidation is
scoped to the relations the batch touched, registers the same mapping as a
**sharded** scenario (partitioned maintenance, ``scatter`` query routes,
per-shard stats), prints ``service.explain(...)`` plans and enabled-tracer
span trees for one scatter and one merged-route query, moves the shards
into dedicated **worker processes** (``shard_workers="process"``) and kills
one to show the front swapping its slot (caught by the flight recorder), splits a
structurally hot shard live with ``service.rebalance`` (epoch-published
bucket handoff, answers pinned across the move), then lets the monitor's
**autopilot** heal a second hot scenario with no rebalance call at all
(health rules with hysteresis going critical, an audited AutoRebalance
action firing, answers again pinned across the handoff), lints a
deliberately smelly scenario with ``service.lint`` (a redundant STD, a
residual-forcing target dependency, and a cross-scenario containment hit),
and ends with the structured ``stats()`` and ``metrics()`` snapshots.

Migrating from the pre-service API::

    registry = ScenarioRegistry()            service = ExchangeService()
    ex = registry.register(n, m, s)          service.register(n, m, s)
    ex.certain_answers(q)                    service.query(n, q).answers
    add + retract back-to-back               with service.transaction(n) as txn:
                                                 txn.add(...); txn.retract(...)
    ex.cache_stats                           service.stats(n).cache
"""

from repro import cq, make_instance, mapping_from_rules
from repro.chase.dependencies import parse_dependencies
from repro.obs import FLIGHT_RECORDER, TRACER, AutoRebalance, format_trace
from repro.serving import ExchangeService
from repro.workloads.elastic import elastic_workload


def describe(result) -> str:
    return (
        f"{sorted(result.answers)}  "
        f"[route={result.route}, cached={result.cached}, "
        f"{result.elapsed_seconds * 1000:.2f}ms]"
    )


def main() -> None:
    mapping = mapping_from_rules(
        [
            "EmpT(e^cl, d^cl) :- Emp(e, d)",
            "Office(e^cl, z^op) :- Emp(e, d)",
            "Team(e^cl, p^cl) :- Works(e, p)",
        ],
        source={"Emp": 2, "Works": 2},
        target={"EmpT": 2, "Office": 2, "Team": 2},
        name="employees",
    )
    source = make_instance(
        {
            "Emp": [("alice", "search"), ("bob", "infra"), ("carol", "search")],
            "Works": [("alice", "ranking"), ("bob", "build")],
        }
    )

    print("== Register the scenario (compile + materialize once) ==")
    service = ExchangeService()
    service.register("employees", mapping, source)
    print(f"service: {service!r}")
    print(f"canonical solution: {service.scenario('employees').canonical.to_dict()}")

    print("\n== Serve typed queries (first computed over the core, then cache hits) ==")
    by_dept = cq(["e"], [("EmpT", ["e", "d"])], name="employees")
    teams = cq(["e", "p"], [("Team", ["e", "p"])], name="teams")
    print(f"employees: {describe(service.query('employees', by_dept))}")
    print(f"teams:     {describe(service.query('employees', teams))}")
    print(f"employees: {describe(service.query('employees', by_dept))}")

    print("\n== One mixed batch, one transaction, one refresh pass ==")
    with service.transaction("employees") as txn:
        txn.add([("Works", ("carol", "ranking"))])
        txn.retract([("Works", ("bob", "build"))])
    result = txn.results["employees"]
    print(
        f"committed: +{len(result.added)} -{len(result.retracted)} "
        f"(trigger rounds={result.trigger_rounds}, "
        f"target repairs={result.target_repairs}, "
        f"invalidation rounds={result.invalidation_rounds})"
    )
    print(f"teams:     {describe(service.query('employees', teams))}  <- recomputed once")
    print(f"employees: {describe(service.query('employees', by_dept))}  <- still cached")

    print("\n== Conflicting operations net out before touching the scenario ==")
    with service.transaction("employees") as txn:
        txn.retract([("Works", ("alice", "ranking"))])
        txn.add([("Works", ("alice", "ranking"))])  # last call wins: no-op
    print(f"net batch: {txn.results['employees'].added} / "
          f"{txn.results['employees'].retracted} (nothing refreshed)")

    print("\n== Structured introspection ==")
    stats = service.stats("employees")
    print(f"sizes: |S|={stats.source_tuples}, |T|={stats.target_tuples}, "
          f"|core|={stats.core_tuples}")
    print(f"cache: {stats.cache} ({stats.cache_entries} entries)")
    print(f"updates: {stats.updates}")
    print(f"lock: {stats.lock}")

    print("\n== The same mapping, sharded: partitioned maintenance, scatter-gather ==")
    # Two worker shards (plus the residual shard the analysis can fall back
    # to), partitioned on the employee id — position 0 of every relation.
    service.register("employees@2", mapping, source, shards=2)
    sharded = service.scenario("employees@2")
    print(f"plan: local STDs={sorted(sharded.plan.local_stds)}, "
          f"residual sources={sorted(sharded.plan.residual_sources) or '∅'}")
    print(f"employees: {describe(service.query('employees@2', by_dept))}  <- per-shard, unioned")
    print(f"employees: {describe(service.query('employees@2', by_dept))}")
    with service.transaction("employees@2") as txn:  # fans out per shard
        txn.add([("Emp", ("dave", "infra")), ("Works", ("dave", "build"))])
    print(f"teams:     {describe(service.query('employees@2', teams))}")
    sharding = service.stats("employees@2").sharding
    print(f"shards: sources={sharding.shard_source_tuples} (residual last), "
          f"epoch={sharding.epoch}, scatter={sharding.scatter_queries}, "
          f"imbalance={sharding.imbalance:.2f}")

    print("\n== Explain: the route a query would take, and why ==")
    # Explain evaluates nothing and mutates nothing — the cache is peeked,
    # the scatter verdict is replayed rule by rule.  ``offices`` is a fresh
    # single-atom query (scatter-safe); ``colleagues`` joins two atoms on a
    # *non*-key position, so it must run over the merged view.
    offices = cq(["e"], [("Office", ["e", "z"])], name="offices")
    colleagues = cq(
        ["e", "f"], [("EmpT", ["e", "d"]), ("EmpT", ["f", "d"])], name="colleagues"
    )
    for query in (offices, colleagues):
        print(f"--- explain({query.name}) ---")
        print(service.explain("employees@2", query).render())

    print("\n== Tracing: per-request span trees (off by default) ==")
    with TRACER.enable():
        TRACER.drain()  # drop trees any earlier traced work left behind
        service.query("employees@2", offices)     # scatter route
        service.query("employees@2", colleagues)  # merged route
        for root in TRACER.drain():
            print(format_trace(root))

    print("\n== Shards in worker processes: pickled facts across the pipe ==")
    # Same registration surface, one extra argument: every shard's
    # materialization now lives in its own spawned process.  Deltas and
    # scatter answers cross as pickled tuples (nulls keep their identity),
    # so joins run beyond the GIL on multi-core hosts.
    service.register("employees@procs", mapping, source, shards=2,
                     shard_workers="process")
    print(f"employees: {describe(service.query('employees@procs', by_dept))}  <- scatter, workers")
    with service.transaction("employees@procs") as txn:
        txn.add([("Emp", ("erin", "search")), ("Works", ("erin", "ranking"))])
    print(f"teams:     {describe(service.query('employees@procs', teams))}")
    procs = service.scenario("employees@procs").sharding_stats()
    print(f"workers: mode={procs.worker_mode}, failures={procs.worker_failures}")

    print("\n== Kill a worker: the front swaps the slot, answers keep flowing ==")
    victim = service.scenario("employees@procs").shards[0]
    victim.kill_worker()  # simulate an OOM-killed / crashed worker
    # The next delta hits the dead pipe; the front swaps the slot for an
    # in-process exchange and replays the batch on it — the scenario never
    # observes the failure.
    service.update("employees@procs", add=[("Emp", ("finn", "infra"))])
    print(f"employees: {describe(service.query('employees@procs', by_dept))}  <- still correct")
    procs = service.scenario("employees@procs").sharding_stats()
    print(f"workers: failures={procs.worker_failures}, "
          f"states={service.scenario('employees@procs').shard_states()}")

    print("\n== The flight recorder caught the rare-path events ==")
    for event in FLIGHT_RECORDER.events(scenario="employees@procs"):
        print(f"{event.kind}: {event.detail}")

    print("\n== Elastic sharding: split a hot shard while it serves ==")
    # The elastic workload *mines* its hot customer keys onto shard 0's
    # buckets, so the imbalance is structural — exactly the situation the
    # rebalancer exists for.  A dry run shows the plan; the live run moves
    # the buckets through shadow shards and publishes the new routing
    # table at the next epoch.  Readers only ever pause for the publish
    # (the O(#shards) swap), never for the movement itself.
    hot = elastic_workload(customers=24, accounts=160, batches=0)
    service.register("bank@4", hot.mapping, hot.source,
                     hot.target_dependencies, shards=4)
    before = service.stats("bank@4").sharding
    print(f"before: imbalance={before.imbalance:.2f}, "
          f"routing epoch={before.routing_epoch}, "
          f"hot keys={[k for k, _ in before.key_histograms[0][:3]]}")
    plan = service.rebalance("bank@4", dry_run=True)
    print(f"dry run: {len(plan.moves)} bucket move(s), "
          f"imbalance {plan.imbalance_before:.2f} -> "
          f"{plan.imbalance_projected:.2f} (nothing applied)")
    probe = hot.queries[0]  # a lookup pinned to one of the mined hot keys
    answers_before = service.query("bank@4", probe).answers
    report = service.rebalance("bank@4")
    after = service.stats("bank@4").sharding
    print(f"applied: moved {report.moved_facts} facts / {report.moved_keys} keys, "
          f"epoch {before.routing_epoch} -> {report.epoch_after}, "
          f"publish window {report.publish_seconds * 1000:.2f}ms "
          f"(prepare {report.prepare_seconds * 1000:.2f}ms)")
    print(f"after: imbalance={after.imbalance:.2f}, "
          f"reshards={after.reshards}")
    assert service.query("bank@4", probe).answers == answers_before
    print("hot-key query answers unchanged across the handoff")
    for event in FLIGHT_RECORDER.events(kind="reshard_commit", scenario="bank@4"):
        print(f"{event.kind}: {event.detail}")

    print("\n== Autopilot: the hot shard heals itself ==")
    # The same structural imbalance as above, but this time *nobody calls
    # rebalance()*: the monitor samples the metrics registry, the
    # hot-shard rule goes critical after two consecutive hot samples
    # (hysteresis — one spike commits nothing), and the AutoRebalance
    # action reshards on its own, cooldown-throttled and audited.  The
    # monitor is ticked by hand here so the drill is deterministic;
    # ``start_monitor()`` without ``start_thread=False`` runs the same
    # loop in a background daemon thread.
    auto = elastic_workload(customers=24, accounts=160, batches=0)
    service.register("bank-auto@4", auto.mapping, auto.source,
                     auto.target_dependencies, shards=4)
    monitor = service.start_monitor(
        interval=0.05,
        actions=(AutoRebalance(cooldown_ticks=3),),
        start_thread=False,
    )
    hot_before = service.stats("bank-auto@4").sharding
    print(f"hot: imbalance={hot_before.imbalance:.2f} "
          f"— and no rebalance() call follows")
    pinned = service.query("bank-auto@4", auto.queries[0]).answers
    applied = None
    while applied is None:
        report = monitor.tick()
        status = next(
            (s for s in report.statuses
             if s.rule == "hot-shard-imbalance" and s.scenario == "bank-auto@4"),
            None,
        )
        if status is not None:
            print(f"tick {report.tick}: hot-shard-imbalance={status.state} "
                  f"(value {status.value:.2f}, since tick {status.since_tick})")
        applied = next(
            (a for a in monitor.audit() if a.outcome == "applied"), None
        )
        assert report.tick < 10, "the autopilot should have fired by now"
    healed = service.stats("bank-auto@4").sharding
    print(f"tick {applied.tick}: autopilot applied a reshard — imbalance "
          f"{hot_before.imbalance:.2f} -> {healed.imbalance:.2f}, "
          f"reshards={healed.reshards}")
    assert service.query("bank-auto@4", auto.queries[0]).answers == pinned
    print("hot-key query answers unchanged across the autopilot's handoff")
    # Clearing is hysteretic too: the rule needs clear_for consecutive
    # healthy samples before it lets go of critical.
    for _ in range(2):
        report = monitor.tick()
    status = next(
        s for s in report.statuses
        if s.rule == "hot-shard-imbalance" and s.scenario == "bank-auto@4"
    )
    print(f"tick {report.tick}: hot-shard-imbalance={status.state} "
          f"(value {status.value:.2f}) — the alert cleared itself too")
    for event in FLIGHT_RECORDER.events(
        kind="health_transition", scenario="bank-auto@4"
    ):
        print(f"{event.kind}: {event.detail}")
    service.stop_monitor()

    print("\n== Static analysis: lint a scenario, probe cross-scenario containment ==")
    # ``lint_demo`` ships two deliberate smells: STD 2 duplicates STD 1
    # (the redundancy lint warns on both twins; ``drop_redundant=True`` at
    # registration would trim one from the trigger plan), and the target
    # dependency joins two EmpT atoms on the *department* — not the
    # partition key — so the shardability pass reports it residual-forcing
    # and drags the EmpT producer to the residual shard with it.
    lint_mapping = mapping_from_rules(
        [
            "EmpT(e^cl, d^cl) :- Emp(e, d)",
            "Team(e^cl, p^cl) :- Works(e, p)",
            "Team(e^cl, p^cl) :- Works(e, p)",  # redundant twin of STD 1
        ],
        source={"Emp": 2, "Works": 2},
        target={"EmpT": 2, "Team": 2, "Mates": 2},
        name="lint_demo",
    )
    lint_deps = parse_dependencies(["EmpT(e, d) & EmpT(f, d) -> Mates(e, f)"])
    service.register("lint_demo", lint_mapping, source,
                     target_dependencies=lint_deps)
    print(service.lint("lint_demo").render())

    # The containment probe runs across the whole registry: ``lite`` keeps a
    # strict subset of the employees rules over the same schemas, so its
    # lint flags it as contained in (servable from) the bigger scenario.
    lite_mapping = mapping_from_rules(
        ["EmpT(e^cl, d^cl) :- Emp(e, d)"],
        source={"Emp": 2, "Works": 2},
        target={"EmpT": 2, "Office": 2, "Team": 2},
        name="employees_lite",
    )
    service.register("lite", lite_mapping, source)
    for diag in service.lint("lite").by_code("CONTAIN001"):
        print(diag.render())

    print("\n== Metrics: one snapshot across instruments and scenarios ==")
    snapshot = service.metrics()
    for name in sorted(snapshot["instruments"]):
        inst = snapshot["instruments"][name]
        if inst["type"] == "histogram" and inst["count"]:
            print(f"{name}: count={inst['count']}, mean={inst['sum'] / inst['count']:.6f}")
    print(f"scenarios exported: {sorted(snapshot['scenarios'])}")
    service.deregister("employees@procs")  # joins the surviving workers


if __name__ == "__main__":
    # The guard is load-bearing: worker processes use the ``spawn`` start
    # method, which re-imports this module in each child.
    main()
