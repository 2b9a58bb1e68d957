"""Seeded, hash-order-independent workloads for the ``ExchangeService`` benchmark.

Each workload names the scenarios it registers, a pool of queries, and the
deterministic stream of operations of its one closed-loop client.
Everything that is sampled is sampled from a sorted sequence with a
``random.Random`` derived from the seed, so the same seed yields the same
operations under every ``PYTHONHASHSEED`` (``selfcheck.py`` verifies this).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.mapping import mapping_from_rules
from repro.logic.cq import UnionOfConjunctiveQueries, cq
from repro.logic.queries import Query
from repro.logic.terms import Const
from repro.relational.instance import Instance
from repro.workloads.churn import churn_workload
from repro.workloads.graphs import open_successor_mapping
from repro.workloads.serving import serving_workload
from repro.workloads.skewed import skewed_queries, skewed_workload

Fact = tuple[str, tuple]
Batch = tuple[str, tuple[Fact, ...], tuple[Fact, ...]]  # scenario, add, retract


@dataclass
class Scenario:
    """One scenario to register: its mapping, source and register() options."""

    name: str
    mapping: Any
    source: Instance
    target_dependencies: tuple = ()
    options: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    """One client operation: a pool query or an update batch."""

    kind: str  # "query" or "update"
    scenario: str
    query_index: int = -1
    add: tuple[Fact, ...] = ()
    retract: tuple[Fact, ...] = ()


@dataclass
class Workload:
    """A workload: scenarios, query pool and the client's op stream.

    ``pool`` holds ``(scenario, label, query)`` triples.  ``oracle`` is
    ``"certain"`` (recompute with ``repro.core.certain.certain_answers``) or
    ``"service"`` (a freshly registered unsharded ``ExchangeService``).
    ``busy`` names the per-layer metrics the traced run must find above 0,
    ``idle`` those it must find exactly 0, so a wrapper that misses its
    layer fails the run.
    """

    scenarios: tuple[Scenario, ...]
    pool: tuple[tuple[str, str, Any], ...]
    oracle: str
    warmup_ops: int
    stream: Iterator[Op]
    busy: tuple[str, ...] = ()
    idle: tuple[str, ...] = ()


#: Layers only ``sharded_scatter`` enters.
IDLE = ("workers.round_trips", "sharding.scatter_queries")


def _zipf_picker(rng: random.Random, size: int) -> Callable[[], int]:
    """Zipf(1) draws of pool indexes, index ``i`` having rank ``i + 1``.

    The ranking is the pool order, not the seed's: which query is hot
    changes the cost of a run far more than the data does, so every seed
    keeps the same hot set and varies only the data and the draws.
    """
    population = list(range(size))
    weights = [1.0 / rank for rank in range(1, size + 1)]
    return lambda: rng.choices(population, weights)[0]


def _mixed_stream(
    rng: random.Random,
    batches: Iterator[Batch],
    pool: tuple,
    write_share: float,
    pick: Callable[[], int],
) -> Iterator[Op]:
    """Each op writes the next batch with ``write_share``, else reads."""
    while True:
        if rng.random() < write_share:
            scenario, add, retract = next(batches)
            yield Op("update", scenario, add=add, retract=retract)
        else:
            index = pick()
            yield Op("query", pool[index][0], query_index=index)


def _live(source: Instance, relation: str) -> list[tuple]:
    return sorted(tup for name, tup in source.facts() if name == relation)


# -- read_hot ------------------------------------------------------------------


def _serving_pool(departments: int) -> list[tuple[str, Any]]:
    """The ten serving query shapes, parameterised over every department.

    Ordered shape-major, hottest first under :func:`_zipf_picker`: the
    selective ``EmpT``/``ProjT`` lookups, then the ``Colleague`` joins that
    every ``Works`` update stales, then the four whole-relation queries.
    """
    ds = [Const(f"d{i}") for i in range(departments)]
    pool: list[tuple[str, Any]] = []
    pool += [(f"emp_d{i}", cq(["e"], [("EmpT", ["e", d])], name=f"emp_d{i}")) for i, d in enumerate(ds)]
    pool += [(f"proj_d{i}", cq(["p"], [("ProjT", ["p", d])], name=f"proj_d{i}")) for i, d in enumerate(ds)]
    pool += [
        (
            f"named_d{i}",
            UnionOfConjunctiveQueries(
                [cq(["x"], [("EmpT", ["x", d])]), cq(["x"], [("ProjT", ["x", d])])],
                name=f"named_d{i}",
            ),
        )
        for i, d in enumerate(ds)
    ]
    pool += [
        (f"colleague_d{i}", cq(["e", "p"], [("Colleague", ["e", d, "p"])], name=f"colleague_d{i}"))
        for i, d in enumerate(ds)
    ]
    pool += [
        (
            f"pairs_d{i}",
            cq(
                ["e1", "e2"],
                [("Colleague", ["e1", d, "p"]), ("Colleague", ["e2", d, "p"])],
                name=f"pairs_d{i}",
            ),
        )
        for i, d in enumerate(ds)
    ]
    pool += [
        ("team", cq(["e", "p"], [("Team", ["e", "p"])], name="team")),
        ("office", cq(["e"], [("Office", ["e", "z"])], name="office")),
        (
            "staffed",
            Query("exists p . exists d . (Team(e, p) & ProjT(p, d))", ("e",), name="staffed"),
        ),
        (
            "aligned",
            cq(["e", "d"], [("Colleague", ["e", "d", "p"]), ("ProjT", ["p", "d"])], name="aligned"),
        ),
    ]
    return pool


def read_hot(seed: int) -> Workload:
    """Unsharded serving scenario, 1 client, 90/10 reads/writes, Zipf pool.

    One client, not two: with two CPU-bound client threads every op of
    about a millisecond has a one-in-ten chance of waiting out the other
    thread's GIL slice or its core repair under the read lock, which puts
    ``update_p90_ms`` on that knee and made it swing by a third between
    runs.
    """
    base = serving_workload(seed=seed)
    employees = base.parameter("employees")
    projects = base.parameter("projects")
    pool = tuple(("read_hot", label, q) for label, q in _serving_pool(base.parameter("departments")))
    rng = random.Random(seed)

    def batches() -> Iterator[Batch]:
        live = _live(base.source, "Works")
        present = set(live)
        while True:
            retract = [live.pop(rng.randrange(len(live))) for _ in range(3)]
            present.difference_update(retract)
            add: list[tuple] = []
            while len(add) < 3:
                tup = (f"e{rng.randrange(employees)}", f"p{rng.randrange(projects)}")
                if tup not in present and tup not in retract:
                    present.add(tup)
                    add.append(tup)
            live = sorted(live + add)
            yield "read_hot", tuple(("Works", t) for t in add), tuple(("Works", t) for t in retract)

    crng = random.Random(f"{seed}:read_hot")
    stream = _mixed_stream(crng, batches(), pool, 0.10, _zipf_picker(crng, len(pool)))
    scenario = Scenario("read_hot", base.mapping, base.source, options={"cache_capacity": len(pool) // 3})
    busy = ("cache.probe_s", "materialized.apply_delta_self_s", "cq.match_calls", "evaluate.calls", "core_engine.calls")
    return Workload((scenario,), pool, "certain", 300, stream, busy, IDLE + ("chase.calls", "deqa.candidates"))


# -- churn_write ---------------------------------------------------------------


def churn_write(seed: int) -> Workload:
    """Unsharded Rec → Mgr → Roster cascade; 1 client alternating a mixed
    retract+add batch (with flapping facts) and a Rec ⋈ Mgr join."""
    base = churn_workload(employees=2000, seed=seed)
    departments = base.parameter("departments")
    rng = random.Random(seed)
    # One Rec ⋈ Mgr shape per department: a single latency mode, so the p99
    # is the tail of that mode rather than a rarely drawn heavier query.
    pool = tuple(
        (
            "churn_write",
            f"rec_mgr_d{i}",
            cq(["e"], [("Rec", ["e", Const(f"d{i}")]), ("Mgr", [Const(f"d{i}"), "m"])], name=f"rec_mgr_d{i}"),
        )
        for i in range(departments)
    )

    def batches() -> Iterator[Batch]:
        live = _live(base.source, "Emp")
        fresh = 1_000_000
        flapped: list[tuple] = []
        retired: list[list[tuple]] = []
        while True:
            # Flapping facts leave in this batch and come back in the next;
            # every batch also re-adds one victim retired three batches ago.
            victims = rng.sample(live, 4)
            flapping = rng.sample([t for t in live if t not in victims], 2)
            add = list(flapped)
            for _ in range(3):
                add.append((f"e{fresh}", f"d{rng.randrange(departments)}"))
                fresh += 1
            if len(retired) >= 3:
                add.append(retired[-3][0])
            retired.append(victims)
            retract = victims + flapping
            live = sorted([t for t in live if t not in retract] + add)
            flapped = flapping
            yield "churn_write", tuple(("Emp", t) for t in add), tuple(("Emp", t) for t in retract)

    qrng = random.Random(f"{seed}:churn_write")

    def stream(feed: Iterator[Batch]) -> Iterator[Op]:
        while True:
            scenario, add, retract = next(feed)
            yield Op("update", scenario, add=add, retract=retract)
            yield Op("query", "churn_write", query_index=qrng.randrange(len(pool)))

    scenario = Scenario("churn_write", base.mapping, base.source, base.target_dependencies)
    busy = ("materialized.apply_delta_self_s", "cq.match_calls", "evaluate.calls", "chase.calls", "chase.steps", "core_engine.calls")
    return Workload((scenario,), pool, "service", 40, stream(batches()), busy, IDLE + ("deqa.candidates",))


# -- sharded_scatter -----------------------------------------------------------


def sharded_scatter(seed: int) -> Workload:
    """Skewed accounts scenario on 2 process shards; 1 client, 95/5 mix."""
    base = skewed_workload(seed=seed)
    customers = base.parameter("customers")
    queries = skewed_queries(hot_customers=8)
    pool = tuple(("sharded_scatter", q.name, q) for q in queries)
    rng = random.Random(seed)
    population = [f"c{i}" for i in range(customers)]
    weights = [1.0 / rank for rank in range(1, customers + 1)]

    def batches() -> Iterator[Batch]:
        owned: dict[str, list[str]] = {}
        for customer, account in _live(base.source, "Account"):
            owned.setdefault(customer, []).append(account)
        fresh = 1_000_000
        while True:
            # One customer's accounts per batch, so an update lands on one
            # shard and waits on one worker process, not on the slower of
            # two: on a 2-core host the slower of two is the scheduler's pick.
            customer = rng.choices(population, weights)[0]
            accounts = owned.setdefault(customer, [])
            retract = [accounts.pop(rng.randrange(len(accounts))) for _ in range(min(2, len(accounts)))]
            add = [f"a{fresh}", f"a{fresh + 1}"]
            fresh += 2
            accounts.extend(add)
            yield (
                "sharded_scatter",
                tuple(("Account", (customer, a)) for a in add),
                tuple(("Account", (customer, a)) for a in retract),
            )

    crng = random.Random(f"{seed}:sharded_scatter")
    stream = _mixed_stream(crng, batches(), pool, 0.05, _zipf_picker(crng, len(pool)))
    scenario = Scenario(
        "sharded_scatter",
        base.mapping,
        base.source,
        base.target_dependencies,
        options={"shards": 2, "shard_workers": "process", "partition_keys": {"Account": 0, "Region": 0}},
    )
    busy = (
        "cache.probe_s",
        "sharding.scatter_queries",
        "sharding.merged_queries",
        "sharding.fanout_applies",
        "workers.round_trips",
        "workers.worker_s",
    )
    return Workload((scenario,), pool, "service", 200, stream, busy, ("deqa.candidates",))


# -- deqa_mixed ----------------------------------------------------------------


def deqa_closed_mapping():
    """``#op = 0``: a closed copy of ``E`` plus one closed null per edge."""
    return mapping_from_rules(
        ["Et(x^cl, z^cl) :- E(x, y)", "Lt(x^cl, y^cl) :- E(x, y)"],
        source={"E": 2},
        target={"Et": 2, "Lt": 2},
        name="deqa_closed",
    )


DEQA_VERTICES = ("a0", "a1", "a2")


def deqa_mixed(seed: int) -> Workload:
    """Two tiny scenarios (``#op = 0`` and ``#op = 1``) served through the
    deqa route; 1 client, 1 op in 20 a one-fact source update."""
    rng = random.Random(seed)
    edges = sorted((x, y) for x in DEQA_VERTICES for y in DEQA_VERTICES)
    closed = Instance()
    for edge in rng.sample(edges, 2):
        closed.add("E", edge)
    opened = Instance()
    for key in ("a0", "a1"):
        opened.add("R2", (key,))
    succ = sorted((x, y) for x in DEQA_VERTICES for y in DEQA_VERTICES if x != y)
    for pair in rng.sample(succ, 1):
        opened.add("R1", pair)

    pool = (
        ("deqa_closed", "functional", Query("forall x z1 z2 . (Et(x, z1) & Et(x, z2)) -> z1 = z2", [])),
        ("deqa_closed", "unlinked", Query("exists z . Et(x, z) & ~ Lt(x, z)", ["x"])),
        ("deqa_closed", "covered", Query("forall z . Et(x, z) -> exists y . Lt(x, y)", ["x"])),
        ("deqa_closed", "acyclic2", Query("~ exists x z . Et(x, z) & Et(z, x)", [])),
        # ∀*∃*: Proposition 5's budget on the #op = 1 mapping.
        ("deqa_open", "open_injective", Query("forall x1 x2 z . (R2t(x1, z) & R2t(x2, z)) -> x1 = x2", [])),
    )

    def toggles(relation: str, live: list[tuple], candidates: list[tuple], low: int, scenario: str):
        """One-fact updates keeping ``len(live)`` in ``{low, low + 1}``."""
        while True:
            if len(live) > low:
                tup = live.pop(rng.randrange(len(live)))
                yield scenario, (), ((relation, tup),)
            else:
                tup = rng.choice([c for c in candidates if c not in live])
                live.append(tup)
                live.sort()
                yield scenario, ((relation, tup),), ()

    closed_feed = toggles("E", _live(closed, "E"), edges, 1, "deqa_closed")
    open_feed = toggles("R1", _live(opened, "R1"), succ, 1, "deqa_open")

    def batches() -> Iterator[Batch]:
        while True:
            yield next(closed_feed) if rng.random() < 0.7 else next(open_feed)

    crng = random.Random(f"{seed}:deqa_mixed")
    stream = _mixed_stream(crng, batches(), pool, 0.05, lambda: crng.randrange(len(pool)))
    scenarios = (
        Scenario("deqa_closed", deqa_closed_mapping(), closed),
        Scenario("deqa_open", open_successor_mapping(), opened),
    )
    busy = ("cache.probe_s", "deqa.candidates", "deqa.worlds_checked", "deqa.self_s")
    return Workload(scenarios, pool, "certain", 200, stream, busy, IDLE + ("chase.calls", "core_engine.calls"))


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "read_hot": read_hot,
    "churn_write": churn_write,
    "sharded_scatter": sharded_scatter,
    "deqa_mixed": deqa_mixed,
}
