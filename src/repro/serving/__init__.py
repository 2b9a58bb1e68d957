"""Materialized-exchange serving layer.

The modules below turn the one-shot pipeline (chase, then evaluate) into a
long-lived service, the architecture every later scaling step (sharding,
async serving, alternative backends) plugs into:

* :mod:`repro.serving.service` — :class:`ExchangeService`, the transactional,
  concurrent front door: typed query/update requests and results, buffered
  transactions committing one mixed batch per scenario, per-scenario
  reader/writer locks, and a structured ``stats()`` snapshot;
* :mod:`repro.serving.registry` — named ``(mapping, source)`` scenarios; each
  *structurally distinct* mapping compiled once (Skolemization, trigger plan,
  weak-acyclicity check), shared via :func:`mapping_fingerprint`;
* :mod:`repro.serving.materialized` — the per-scenario materialization:
  canonical layer with per-trigger support counts, chased target, lazily
  maintained core, and the unified :meth:`MaterializedExchange.apply_delta`
  update entry point — one mixed add/retract batch, one trigger
  re-evaluation, one combined DRed-plus-seeded-chase target repair, one
  cache-invalidation round, all-or-nothing rollback;
* :mod:`repro.serving.sharding` — :class:`ShardedExchange`: a scenario
  hash-partitioned across worker shards plus a residual shard, behind a
  registration-time *shardability analysis* (key-connected STD bodies,
  key-propagation through dependency heads; anything unprovable falls back
  to the residual shard, so correctness never depends on the analysis);
  updates fan out per shard on a worker pool with inverse-delta rollback,
  scatter-safe queries evaluate per shard in parallel and union, the rest
  over merged views — registered via ``service.register(..., shards=N)``;
* :mod:`repro.serving.elastic` — the elastic layer on top of sharding:
  epoch-versioned bucket routing (:class:`RoutingTable` behind
  :class:`EpochRouter`), the service-global two-phase :class:`EpochClock`,
  the :class:`Rebalancer` split-hot/merge-cold policy, and the bounded
  :class:`TopKCounter` key histograms — applied live through
  ``service.rebalance(name)`` (shadow-shard prepare under the read lock,
  O(#shards) publish under the write lock);
* :mod:`repro.serving.concurrency` — the writer-preferring
  :class:`ReadWriteLock` (with contention counters, re-entrancy misuse
  raising instead of deadlocking) the service guards each scenario with;
* :mod:`repro.serving.core_engine` — greedy block-based core computation with
  candidates pruned through the instance position indexes;
* :mod:`repro.serving.cache` — the certain-answer cache keyed on
  ``(query fingerprint, semantics, per-relation version vector)``,
  synchronised for concurrent readers.

Every layer is threaded through :mod:`repro.obs` — off-by-default request
tracing (``TRACER``), an always-on metrics registry (``METRICS``, exported
by ``service.metrics()``), a flight recorder of rare events, and
``service.explain(request)`` reporting the dispatch route a query *would*
take and why (scatter verdicts, cache peek, greedy join order) without
evaluating anything (import those from :mod:`repro.obs` itself).

Quickstart::

    from repro.serving import ExchangeService, QueryRequest

    service = ExchangeService()
    service.register("conf", mapping, source)

    result = service.query("conf", query)      # QueryResult: route="core"
    result = service.query("conf", query)      # route="cache", cached=True
    result.answers                             # frozenset of certain answers

    with service.transaction("conf") as txn:   # one atomic mixed batch:
        txn.add([("Papers", ("p9", "New title"))])
        txn.retract([("Papers", ("p3", "Old title"))])
    # ... exactly one refresh pass and one cache-invalidation round later:
    service.query("conf", query)               # recomputed once, then cached
    service.stats("conf")                      # sizes, cache, lock counters

Migrating from the pre-service API:

===========================================  ===================================================
old (per-operation, unguarded)               new (typed, transactional, lock-guarded)
===========================================  ===================================================
``registry = ScenarioRegistry()``            ``service = ExchangeService()``
``ex = registry.register(n, m, s, deps)``    ``service.register(n, m, s, deps)``
``ex.certain_answers(q)``                    ``service.query(n, q).answers``
add + retract back-to-back                   ``with service.transaction(n) as txn: ...``
``ex.cache_stats``                           ``service.stats(n).cache``
===========================================  ===================================================

Library code embedding a single-threaded exchange can keep using
``ScenarioRegistry``/``MaterializedExchange`` directly — ``apply_delta`` is
the update entry point there.
"""

from repro.analysis.compiled import compile_mapping
from repro.analysis.shardability import PartitionSpec, analyse_shardability
from repro.obs import QueryExplain
from repro.serving.cache import (
    CacheStats,
    CertainAnswerCache,
    query_fingerprint,
    version_vector,
)
from repro.serving.concurrency import LockStats, ReadWriteLock
from repro.serving.core_engine import core_of_delta, core_of_indexed, null_blocks
from repro.serving.elastic import (
    EpochClock,
    EpochRouter,
    PendingReshard,
    RebalanceReport,
    Rebalancer,
    ReshardMove,
    RoutingTable,
    TopKCounter,
)
from repro.serving.materialized import (
    AnswerOutcome,
    AppliedDelta,
    MaterializedExchange,
    ServingError,
    UpdateStats,
)
from repro.serving.registry import ScenarioRegistry, mapping_fingerprint
from repro.serving.service import (
    ExchangeService,
    QueryRequest,
    QueryResult,
    ScenarioStats,
    ServiceStats,
    Transaction,
    UpdateRequest,
    UpdateResult,
)
from repro.serving.sharding import ShardedExchange, ShardingStats

__all__ = [
    "QueryExplain",
    "CacheStats",
    "CertainAnswerCache",
    "query_fingerprint",
    "version_vector",
    "LockStats",
    "ReadWriteLock",
    "core_of_delta",
    "core_of_indexed",
    "null_blocks",
    "EpochClock",
    "EpochRouter",
    "PendingReshard",
    "RebalanceReport",
    "Rebalancer",
    "ReshardMove",
    "RoutingTable",
    "TopKCounter",
    "AnswerOutcome",
    "AppliedDelta",
    "MaterializedExchange",
    "ServingError",
    "UpdateStats",
    "ScenarioRegistry",
    "compile_mapping",
    "mapping_fingerprint",
    "ExchangeService",
    "QueryRequest",
    "QueryResult",
    "ScenarioStats",
    "ServiceStats",
    "Transaction",
    "UpdateRequest",
    "UpdateResult",
    "PartitionSpec",
    "ShardedExchange",
    "ShardingStats",
    "analyse_shardability",
]
