"""The transactional, concurrent front door of the serving layer.

:class:`ExchangeService` is the single entry point applications talk to: it
wraps a :class:`~repro.serving.registry.ScenarioRegistry` and exposes the
whole serving surface — registration, queries, updates, introspection — as a
typed request/response protocol with transactional updates and per-scenario
reader/writer locking.

**Protocol.**  Queries go in as :class:`QueryRequest` (or the positional
convenience ``service.query("conf", q)``) and come back as
:class:`QueryResult`, carrying the answers plus the semantics served, the
dispatch route actually taken (``cache``/``core``/``target``/``deqa``), the
cache outcome and the wall-clock cost.  Updates go in as one
:class:`UpdateRequest` holding a *mixed* delta of additions and retractions
and come back as :class:`UpdateResult` with the net source mutation and the
maintenance rounds paid (always one of each — the point of the unified
update path).

**Transactions.**  ``with service.transaction("conf") as txn:`` buffers any
number of ``txn.add(...)``/``txn.retract(...)`` calls and commits them on
exit as *one* batch per scenario: conflicting operations on the same fact
net out (last call wins), and the batch is applied atomically through
:meth:`~repro.serving.materialized.MaterializedExchange.apply_delta` — one
trigger re-evaluation, one target repair, one cache-invalidation round,
all-or-nothing on failure.  A transaction may span several scenarios; their
write locks are acquired in sorted name order (the lock-ordering rule that
makes cross-scenario deadlocks impossible) and a scenario that fails
mid-commit rolls the already-committed scenarios back by applying their
inverse deltas.

**Concurrency.**  Each scenario carries a writer-preferring
:class:`~repro.serving.concurrency.ReadWriteLock`: any number of query
threads serve concurrently from the cache/core while a committing
transaction gets exclusive access.  Queries against a
:class:`MaterializedExchange` are themselves safe under concurrent readers
(the answer cache and core computation are mutex-guarded, lazy index builds
publish atomically), so the read side scales with the number of clients
whenever query evaluation blocks or releases the interpreter lock.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.analysis import (
    AnalysisReport,
    analyse_redundancy,
    analyse_shardability_diagnostics,
    analyse_termination,
    plan_diagnostics,
    registry_containment_scan,
    report,
)
from repro.chase.dependencies import EGD, TGD
from repro.core.certain import AnyQuery
from repro.core.mapping import SchemaMapping
from repro.obs.explain import QueryExplain
from repro.obs.flight import FLIGHT_RECORDER
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.monitor import (
    AutoRebalance,
    HealthReport,
    HealthRule,
    Monitor,
    SlowQuery,
    SlowQueryLog,
)
from repro.obs.trace import TRACER
from repro.relational.instance import Instance
from repro.serving.cache import CacheStats, query_fingerprint
from repro.serving.concurrency import LockStats, ReadWriteLock
from repro.serving.elastic import (
    EpochClock,
    RebalanceReport,
    ReshardMove,
    StaleReshard,
    plan_reshard,
)
from repro.serving.materialized import (
    AppliedDelta,
    Fact,
    MaterializedExchange,
    ServingError,
    UpdateStats,
)
from repro.serving.registry import ScenarioRegistry
from repro.serving.sharding import ShardedExchange, ShardingStats

FactInput = tuple[str, Iterable[Any]]



# ---------------------------------------------------------------------------
# Protocol objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryRequest:
    """One query against one scenario (DEQA knobs apply to non-monotone only)."""

    scenario: str
    query: AnyQuery
    extra_constants: int | None = None
    max_extra_tuples: int | None = None


@dataclass(frozen=True)
class QueryResult:
    """Served answers plus how they were produced (see the module docstring).

    The wall-clock cost is split: ``lock_wait_seconds`` is the time spent
    acquiring the scenario's read lock (invisible inside the single
    latency number before the split), ``evaluate_seconds`` the time
    inside :meth:`~MaterializedExchange.answer`; ``elapsed_seconds``
    remains their total for callers of the old single number.
    """

    scenario: str
    answers: frozenset
    semantics: str
    route: str
    cached: bool
    elapsed_seconds: float
    lock_wait_seconds: float = 0.0
    evaluate_seconds: float = 0.0
    # The service-global epoch watermark this answer was served at: every
    # publish (transaction commit, reshard) up to it had fully settled,
    # none after it had started being visible to this reader.
    epoch: int = 0


@dataclass(frozen=True)
class UpdateRequest:
    """One mixed delta of additions and retractions for one scenario.

    The two sides must be disjoint; a buffered :class:`Transaction` nets
    conflicting operations out before building its requests.
    """

    scenario: str
    add: tuple[Fact, ...] = ()
    retract: tuple[Fact, ...] = ()


@dataclass(frozen=True)
class UpdateResult:
    """The net mutation one committed batch made, plus the rounds it paid.

    ``lock_wait_seconds`` is the time this scenario's write lock took to
    acquire at commit.  ``elapsed_seconds`` keeps its pre-split meaning —
    the time inside ``apply_delta`` only (lock wait was never part of it)
    — so existing readers see unchanged numbers.
    """

    scenario: str
    added: tuple[Fact, ...]
    retracted: tuple[Fact, ...]
    trigger_rounds: int
    target_repairs: int
    invalidation_rounds: int
    elapsed_seconds: float
    lock_wait_seconds: float = 0.0
    # The service-global epoch this commit published at (issued by the
    # EpochClock's two-phase publish; 0 only for pre-epoch no-op results).
    epoch: int = 0


@dataclass(frozen=True)
class ScenarioStats:
    """One scenario's structured introspection snapshot.

    ``core_tuples`` is ``None`` until a core is computed, and always for a
    sharded scenario (its slots answer over their targets and keep no core).

    ``sharding`` is ``None`` for unsharded scenarios; for a
    :class:`~repro.serving.sharding.ShardedExchange` it carries the
    epoch-consistent per-shard figures (the whole snapshot is taken under
    the scenario's read lock, so every number — merged sizes included —
    describes the same committed batch).
    """

    name: str
    source_tuples: int
    target_tuples: int
    core_tuples: int | None
    cache_entries: int
    cache: CacheStats
    updates: UpdateStats
    lock: LockStats
    sharding: ShardingStats | None = None


@dataclass(frozen=True)
class ServiceStats:
    """The service-wide snapshot: one :class:`ScenarioStats` per scenario."""

    scenarios: tuple[ScenarioStats, ...]
    # The epoch watermark at snapshot time (see QueryResult.epoch).
    epoch: int = 0
    # The service's own latency histograms, as in a registry snapshot.
    instruments: Mapping[str, Any] = field(default_factory=dict)

    def scenario(self, name: str) -> ScenarioStats:
        for stats in self.scenarios:
            if stats.name == name:
                return stats
        raise KeyError(f"no scenario named {name!r} in this snapshot")


def _normalise(facts: Iterable[FactInput]) -> list[Fact]:
    return [(name, tuple(values)) for name, values in facts]


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------


class Transaction:
    """A buffered mixed update over one or more scenarios.

    Operations are recorded in call order; the *last* operation on a fact
    wins (``retract`` then ``add`` of a live fact is a net no-op — the fact
    never leaves the materialization, no null is re-minted).  Nothing touches
    the service until :meth:`commit` (called by ``__exit__`` on a clean
    block), which takes the write locks in sorted scenario-name order and
    applies one :meth:`~MaterializedExchange.apply_delta` batch per scenario.
    An exception inside the ``with`` block discards the buffer.

    After commit, :attr:`results` maps each touched scenario to its
    :class:`UpdateResult`.
    """

    def __init__(self, service: "ExchangeService", scenarios: Sequence[str]):
        if not scenarios:
            raise ValueError("a transaction needs at least one scenario")
        duplicates = {name for name in scenarios if scenarios.count(name) > 1}
        if duplicates:
            raise ValueError(f"duplicate scenarios in transaction: {sorted(duplicates)}")
        self._service = service
        self._scenarios = tuple(scenarios)
        # fact -> True (add) / False (retract); dict order is call order and
        # assignment overwrites implement last-call-wins netting.
        self._buffer: dict[str, dict[Fact, bool]] = {name: {} for name in scenarios}
        self._closed = False
        self.results: dict[str, UpdateResult] = {}

    def _target_scenario(self, scenario: str | None) -> str:
        if scenario is not None:
            if scenario not in self._buffer:
                raise KeyError(f"scenario {scenario!r} is not part of this transaction")
            return scenario
        if len(self._scenarios) == 1:
            return self._scenarios[0]
        raise ValueError(
            "a multi-scenario transaction must name the scenario per operation"
        )

    def _record(
        self, facts: Iterable[FactInput], scenario: str | None, is_add: bool
    ) -> None:
        if self._closed:
            raise RuntimeError("this transaction has already been committed or aborted")
        buffer = self._buffer[self._target_scenario(scenario)]
        for fact in _normalise(facts):
            buffer[fact] = is_add

    def add(self, facts: Iterable[FactInput], scenario: str | None = None) -> None:
        """Buffer source additions (for ``scenario``, or the single default)."""
        self._record(facts, scenario, True)

    def retract(self, facts: Iterable[FactInput], scenario: str | None = None) -> None:
        """Buffer source retractions (for ``scenario``, or the single default)."""
        self._record(facts, scenario, False)

    def commit(self) -> dict[str, UpdateResult]:
        """Apply the buffered batches atomically; see the class docstring.

        On a failed scenario the already-committed ones are rolled back by
        their inverse deltas (sound because a successfully applied delta came
        from a consistent state — see
        :class:`~repro.serving.materialized.AppliedDelta`), the buffer is
        discarded, and the failure propagates: all-or-nothing across the
        whole transaction.
        """
        if self._closed:
            raise RuntimeError("this transaction has already been committed or aborted")
        self._closed = True
        names = sorted(name for name in self._scenarios if self._buffer[name])
        if not names:  # nothing buffered: no lock, no publish, no epoch
            return self.results
        service = self._service
        with service._write_locked(names) as lock_waits, service._publishing() as token:
            committed: list[tuple[str, AppliedDelta]] = []
            try:
                for name in names:
                    exchange = service._registry.get(name)
                    buffer = self._buffer[name]
                    start = time.perf_counter()
                    before = replace(exchange.update_stats)
                    with TRACER.span("service.commit", scenario=name):
                        applied = exchange.apply_delta(
                            added=[fact for fact, is_add in buffer.items() if is_add],
                            removed=[
                                fact for fact, is_add in buffer.items() if not is_add
                            ],
                        )
                    committed.append((name, applied))
                    after = exchange.update_stats
                    elapsed = time.perf_counter() - start
                    if METRICS.enabled:
                        service._update_apply.observe(elapsed)
                    self.results[name] = UpdateResult(
                        scenario=name,
                        added=applied.added,
                        retracted=applied.removed,
                        trigger_rounds=after.trigger_rounds - before.trigger_rounds,
                        target_repairs=after.target_repairs - before.target_repairs,
                        invalidation_rounds=after.invalidation_rounds
                        - before.invalidation_rounds,
                        elapsed_seconds=elapsed,
                        lock_wait_seconds=lock_waits[name],
                        epoch=token,
                    )
            except Exception as failure:
                self.results.clear()
                FLIGHT_RECORDER.record(
                    "transaction_rollback",
                    scenario=",".join(names),
                    committed=len(committed),
                    error=str(failure),
                )
                for name, applied in reversed(committed):
                    if not applied:
                        continue
                    try:
                        service._registry.get(name).apply_delta(
                            added=applied.removed, removed=applied.added
                        )
                    except Exception:  # pragma: no cover - inverse deltas
                        # restore a previously consistent state, so this is
                        # near-impossible; still: keep unwinding the other
                        # scenarios and surface the *original* failure (the
                        # rollback error rides along as its __context__).
                        continue
                raise
        return self.results

    def abort(self) -> None:
        """Discard the buffer without touching any scenario."""
        self._closed = True

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.abort()
            return False
        self.commit()
        return False


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class ExchangeService:
    """The transactional, concurrent façade over a scenario registry.

    One instance serves many scenarios to many client threads; see the
    module docstring for the protocol, transaction and locking semantics.
    Construct it fresh (it owns a new registry) or around an existing
    :class:`~repro.serving.registry.ScenarioRegistry` to adopt already
    registered scenarios.
    """

    def __init__(self, registry: ScenarioRegistry | None = None):
        self._registry = registry if registry is not None else ScenarioRegistry()
        # The service-global epoch: every publish (transaction commit,
        # reshard) runs begin_publish -> commit/abort_publish on it, and
        # every query reports its watermark.
        self._epoch = EpochClock()
        self._locks: dict[str, ReadWriteLock] = {}
        # Guards the lock table and registration.  Ordering rule: a scenario
        # lock may be held when _admin is taken (deregister does), but never
        # acquire a scenario lock while holding _admin — that inversion would
        # deadlock against deregister.
        self._admin = threading.Lock()
        # One guard per scenario serialising rebalances: the monitor's
        # auto-rebalance (wait=False) must never race a manual one.
        self._rebalance_guards: dict[str, threading.Lock] = {}
        # The optional background monitor and its slow-query log.  The
        # query hot path pays one attribute read while these are None.
        self._monitor: Monitor | None = None
        self._slow_log: SlowQueryLog | None = None
        # This service's own latency histograms: its monitor reads no other's.
        self._latency = MetricsRegistry()
        self._query_evaluate = self._latency.histogram("service.query.evaluate_seconds")
        self._update_apply = self._latency.histogram("service.update.apply_seconds")
        for name in self._registry.names():
            self._locks[name] = ReadWriteLock()

    # -- scenario lifecycle ------------------------------------------------

    def register(
        self,
        name: str,
        mapping: SchemaMapping,
        source: Instance,
        target_dependencies: Sequence[TGD | EGD] = (),
        max_chase_steps: int | None = None,
        cache_capacity: int | None = None,
        shards: int | None = None,
        partition_keys: dict[str, int] | None = None,
        shard_workers: int | str | None = None,
        force_residual: bool = False,
    ) -> None:
        """Register and materialize a scenario (compiled once per structure).

        Passing ``shards`` materializes the scenario as a
        :class:`~repro.serving.sharding.ShardedExchange` — partitioned
        maintenance and scatter-gather serving behind the very same
        per-scenario lock, transaction and rollback machinery (a sharded
        scenario's ``apply_delta`` is itself all-or-nothing across its
        shards, so multi-scenario transactions compose unchanged).
        """
        with self._admin:
            self._registry.register(
                name,
                mapping,
                source,
                target_dependencies=target_dependencies,
                max_chase_steps=max_chase_steps,
                cache_capacity=cache_capacity,
                shards=shards,
                partition_keys=partition_keys,
                shard_workers=shard_workers,
                force_residual=force_residual,
            )
            self._locks[name] = ReadWriteLock()

    def deregister(self, name: str) -> None:
        lock = self._lock(name)
        with lock.write_locked():
            with self._admin:
                self._registry.deregister(name)
                self._locks.pop(name, None)
                self._rebalance_guards.pop(name, None)
        # A deregistered scenario's series, rule states and audit cursors
        # go with it (a later tick would also notice, but callers deserve
        # a health() free of the ghost immediately).
        monitor = self._monitor
        if monitor is not None:
            monitor.forget_scenario(name)

    def scenario(self, name: str) -> MaterializedExchange | ShardedExchange:
        """Direct access to a scenario's materialization (read-only use).

        An escape hatch for introspection and tests: the returned object is
        *not* guarded by the scenario's lock, and mutating it behind the
        service's back forfeits the transactional guarantees.
        """
        return self._registry.get(name)

    def names(self) -> list[str]:
        return self._registry.names()

    def __contains__(self, name: object) -> bool:
        return name in self._registry

    def __len__(self) -> int:
        return len(self._registry)

    def _lock(self, name: str) -> ReadWriteLock:
        lock = self._locks.get(name)
        if lock is None:
            with self._admin:
                lock = self._locks.get(name)
                if lock is None:
                    self._registry.get(name)  # raises KeyError for unknown names
                    lock = self._locks[name] = ReadWriteLock()
        return lock

    def _read_locked_exchange(self, name: str) -> tuple[ReadWriteLock, MaterializedExchange]:
        """Acquire ``name``'s read lock and resolve its exchange, atomically.

        Fetching the lock and the exchange in two unsynchronised steps would
        let a concurrent deregister/re-register pair swap the scenario in
        between, leaving the caller reading the *new* exchange under the
        *old* (already discarded) lock — no exclusion against writers.  So
        the lock is validated against the lock table after acquisition and
        the lookup retried if it went stale.  The caller must release the
        returned lock.
        """
        while True:
            lock = self._lock(name)
            lock.acquire_read()
            if self._locks.get(name) is lock:
                return lock, self._registry.get(name)
            lock.release_read()

    @contextmanager
    def _write_locked(self, names: Iterable[str]) -> Iterator[dict[str, float]]:
        """Hold the write locks of ``names``; yields the wait per name.

        The lock-ordering rule: every committing write acquires its write
        locks in sorted name order, so two writers can never hold locks in
        opposite orders.  Acquisition happens inside the try/finally (an
        async exception mid-acquisition must release the locks already
        taken), and a lock that went stale while we waited — its scenario
        deregistered or re-registered concurrently — restarts the
        acquisition against the current lock table.
        """
        names = sorted(names)
        acquired: list[ReadWriteLock] = []
        waits = dict.fromkeys(names, 0.0)
        try:
            while True:
                locks = [self._lock(name) for name in names]
                for name, lock in zip(names, locks):
                    waited_from = time.perf_counter()
                    lock.acquire_write()
                    waits[name] += time.perf_counter() - waited_from
                    acquired.append(lock)
                if all(self._locks.get(n) is lock for n, lock in zip(names, locks)):
                    break
                while acquired:
                    acquired.pop().release_write()
            yield waits
        finally:
            while acquired:
                acquired.pop().release_write()

    @contextmanager
    def _publishing(self) -> Iterator[int]:
        """One two-phase publish on the service epoch; yields its token.

        Entered once the write locks are held; the token is settled exactly
        once on the way out — committed when the block succeeds, aborted on
        any exception (rollbacks and async exceptions included: a
        KeyboardInterrupt mid-commit must not stall the watermark) — so the
        watermark only ever covers fully settled publishes.
        """
        token = self._epoch.begin_publish()
        try:
            yield token
        except BaseException:
            self._epoch.abort_publish(token)
            raise
        self._epoch.commit_publish(token)

    # -- queries -----------------------------------------------------------

    def query(
        self,
        request: QueryRequest | str,
        query: AnyQuery | None = None,
        extra_constants: int | None = None,
        max_extra_tuples: int | None = None,
    ) -> QueryResult:
        """Serve one query under the scenario's read lock.

        Accepts a :class:`QueryRequest` or the positional convenience
        ``service.query("conf", q)``.  Any number of concurrent callers are
        served simultaneously; a committing transaction excludes them for
        exactly the duration of its apply.
        """
        if not isinstance(request, QueryRequest):
            if query is None:
                raise TypeError("query(scenario, query) needs the query argument")
            request = QueryRequest(request, query, extra_constants, max_extra_tuples)
        start = time.perf_counter()
        lock, exchange = self._read_locked_exchange(request.scenario)
        locked_at = time.perf_counter()
        slow_plan = None
        slow_hit = False
        try:
            with TRACER.span("service.query", scenario=request.scenario) as span:
                outcome = exchange.answer(
                    request.query,
                    extra_constants=request.extra_constants,
                    max_extra_tuples=request.max_extra_tuples,
                )
                span.annotate(route=outcome.route, cached=outcome.cached)
            # Sampled while the read lock still excludes writers: the
            # watermark is consistent with the data this answer read.
            epoch = self._epoch.current()
            slow_log = self._slow_log
            if (
                slow_log is not None
                and time.perf_counter() - locked_at >= slow_log.threshold
            ):
                # Retain the explain plan under the same read lock the
                # answer was served under: the plan describes exactly the
                # state this answer read, and nothing is re-evaluated (the
                # explain machinery only peeks).
                slow_hit = True
                if slow_log.capture_explain:
                    try:
                        slow_plan = replace(
                            exchange.explain(
                                request.query,
                                extra_constants=request.extra_constants,
                                max_extra_tuples=request.max_extra_tuples,
                            ),
                            scenario=request.scenario,
                        )
                    except Exception:
                        slow_plan = None  # capture must never fail the query
        finally:
            lock.release_read()
        done = time.perf_counter()
        lock_wait = locked_at - start
        evaluate = done - locked_at
        if METRICS.enabled:
            self._query_evaluate.observe(evaluate)
        if slow_hit and (slow_log := self._slow_log) is not None:
            slow_log.record(
                scenario=request.scenario,
                fingerprint=(
                    slow_plan.query
                    if slow_plan is not None
                    else query_fingerprint(request.query)
                ),
                route=outcome.route,
                cached=outcome.cached,
                lock_wait_seconds=lock_wait,
                evaluate_seconds=evaluate,
                epoch=epoch,
                explain=slow_plan,
            )
        return QueryResult(
            scenario=request.scenario,
            answers=outcome.answers,
            semantics=outcome.semantics,
            route=outcome.route,
            cached=outcome.cached,
            elapsed_seconds=done - start,
            lock_wait_seconds=lock_wait,
            evaluate_seconds=evaluate,
            epoch=epoch,
        )

    def explain(
        self,
        request: QueryRequest | str,
        query: AnyQuery | None = None,
        extra_constants: int | None = None,
        max_extra_tuples: int | None = None,
    ) -> QueryExplain:
        """Explain the dispatch a query *would* take, without evaluating it.

        Mirrors :meth:`query`'s signature and runs under the same read
        lock, but evaluates nothing and mutates nothing: the cache is
        peeked (no counters, no LRU reorder), the scatter analysis is
        replayed rule by rule, and the greedy join planner reports its
        order with estimated vs actual cardinalities.  A query
        ``answer()`` would *reject* (DEQA under target dependencies)
        comes back with ``route="error"`` and the reason instead of
        raising.
        """
        if not isinstance(request, QueryRequest):
            if query is None:
                raise TypeError("explain(scenario, query) needs the query argument")
            request = QueryRequest(request, query, extra_constants, max_extra_tuples)
        lock, exchange = self._read_locked_exchange(request.scenario)
        try:
            explain = exchange.explain(
                request.query,
                extra_constants=request.extra_constants,
                max_extra_tuples=request.max_extra_tuples,
            )
        finally:
            lock.release_read()
        return replace(explain, scenario=request.scenario)

    # -- updates -----------------------------------------------------------

    def update(
        self,
        request: UpdateRequest | str,
        add: Iterable[FactInput] = (),
        retract: Iterable[FactInput] = (),
    ) -> UpdateResult:
        """Apply one mixed update batch transactionally (one-shot transaction).

        ``service.update(UpdateRequest("conf", add=..., retract=...))`` or the
        positional convenience ``service.update("conf", add=[...],
        retract=[...])``.  Equivalent to a single-scenario transaction wrapping
        the two calls.
        """
        if not isinstance(request, UpdateRequest):
            request = UpdateRequest(
                request, tuple(_normalise(add)), tuple(_normalise(retract))
            )
        overlap = set(_normalise(request.add)) & set(_normalise(request.retract))
        if overlap:
            raise ValueError(
                f"an UpdateRequest's sides must be disjoint "
                f"(use a transaction to net out conflicting operations): "
                f"{sorted(overlap, key=repr)[:3]!r}"
            )
        txn = Transaction(self, (request.scenario,))
        txn.retract(request.retract)
        txn.add(request.add)
        results = txn.commit()
        if request.scenario in results:
            return results[request.scenario]
        # The whole batch normalised away (nothing to do): report a no-op.
        return UpdateResult(
            scenario=request.scenario,
            added=(),
            retracted=(),
            trigger_rounds=0,
            target_repairs=0,
            invalidation_rounds=0,
            elapsed_seconds=0.0,
        )

    def transaction(self, *scenarios: str) -> Transaction:
        """Open a buffered transaction over ``scenarios`` (see :class:`Transaction`).

        Every named scenario must exist; the write locks are taken only at
        commit, in sorted name order.
        """
        for name in scenarios:
            self._registry.get(name)
        return Transaction(self, scenarios)

    # -- introspection -----------------------------------------------------

    def stats(self, scenario: str | None = None) -> ServiceStats | ScenarioStats:
        """A structured snapshot: counters, sizes, and lock contention.

        With ``scenario`` given, that scenario's :class:`ScenarioStats`;
        otherwise a :class:`ServiceStats` covering every registered scenario.
        Taken under each scenario's read lock, so the numbers of one scenario
        are mutually consistent.
        """
        if scenario is not None:
            return self._scenario_stats(scenario)
        collected = []
        for name in self._registry.names():
            try:
                collected.append(self._scenario_stats(name))
            except KeyError:
                # Deregistered between the name snapshot and our visit: a
                # whole-service snapshot omits the vanished scenario instead
                # of failing the monitoring caller.  (Asking for one scenario
                # by name still raises — that caller named it on purpose.)
                continue
        instruments = self._latency.snapshot()["instruments"]
        return ServiceStats(tuple(collected), self._epoch.current(), instruments)

    def _scenario_stats(self, name: str) -> ScenarioStats:
        lock, exchange = self._read_locked_exchange(name)
        try:
            return ScenarioStats(
                name=name,
                source_tuples=len(exchange.source),
                target_tuples=exchange.target_size,
                core_tuples=exchange.core_size,
                cache_entries=exchange.cache_entries,
                cache=exchange.cache_stats_snapshot(),
                updates=replace(exchange.update_stats),
                lock=lock.stats_snapshot(),
                sharding=exchange.sharding_stats()
                if isinstance(exchange, ShardedExchange)
                else None,
            )
        finally:
            lock.release_read()

    # -- elastic rebalancing -----------------------------------------------

    def rebalance(
        self,
        name: str,
        moves: Iterable[ReshardMove | tuple[int, int]] | None = None,
        dry_run: bool = False,
        max_attempts: int = 3,
        wait: bool = True,
        trigger: str = "manual",
    ) -> RebalanceReport:
        """Plan — and unless ``dry_run`` — apply one live reshard of ``name``.

        The plan is :func:`~repro.serving.elastic.plan_reshard` over the
        live routing table and per-bucket loads: with ``moves`` omitted the
        default :class:`~repro.serving.elastic.Rebalancer` policy proposes
        it; explicit ``moves`` are validated against the live table instead.

        The lock choreography keeps readers flowing through the expensive
        part: the plan and the shadow-shard build (phase one) run under the
        scenario's *read* lock — writers are excluded by the
        writer-preferring lock, readers are not — and only the O(#shards)
        publish (phase two) takes the write lock.  If a writer slips in
        between the phases the commit detects the stale batch epoch,
        discards the shadows and the whole cycle retries (at most
        ``max_attempts`` times) against the new state.  Every publish runs
        through the service's two-phase :class:`EpochClock`, so queries
        report a watermark covering it only once fully settled.  A scenario
        replaced or deregistered between the phases gets its shadows closed
        and no publish.

        One rebalance per scenario at a time: a per-scenario guard
        serialises concurrent callers.  ``wait=False`` (the monitor's
        autopilot uses it) refuses instead of queueing — raising
        :class:`ServingError` when a manual rebalance is already in
        flight — so the control loop can never pile onto an operator's
        reshard.  ``trigger`` is stamped into the report for the audit
        trail (``"auto:<rule>"`` when the monitor drove it).
        """
        guard = self._rebalance_guard(name)
        if not guard.acquire(blocking=wait):
            raise ServingError(
                f"rebalance of {name!r} already in flight"
            )
        try:
            return self._rebalance_locked(name, moves, dry_run, max_attempts, trigger)
        finally:
            guard.release()

    def _rebalance_guard(self, name: str) -> threading.Lock:
        guard = self._rebalance_guards.get(name)
        if guard is None:
            with self._admin:
                guard = self._rebalance_guards.setdefault(name, threading.Lock())
        return guard

    def _rebalance_locked(
        self,
        name: str,
        moves: Iterable[ReshardMove | tuple[int, int]] | None,
        dry_run: bool,
        max_attempts: int,
        trigger: str,
    ) -> RebalanceReport:
        attempts = 0
        while True:
            attempts += 1
            lock, exchange = self._read_locked_exchange(name)
            try:
                if not isinstance(exchange, ShardedExchange):
                    raise ServingError(
                        f"scenario {name!r} is not sharded; nothing to rebalance"
                    )
                routing = exchange.routing_snapshot()
                plan, imbalance_before, imbalance_projected = plan_reshard(
                    routing, exchange.bucket_loads(), moves
                )
                report = RebalanceReport(
                    scenario=name,
                    moves=plan,
                    applied=False,
                    routing_epoch=routing.epoch,
                    imbalance_before=imbalance_before,
                    imbalance_projected=imbalance_projected,
                    trigger=trigger,
                )
                if dry_run or not plan:
                    return report
                pending = exchange.prepare_reshard(plan)
            finally:
                lock.release_read()

            try:
                with self._write_locked((name,)):
                    if self._registry.get(name) is exchange:
                        with self._publishing():
                            exchange.commit_reshard(pending)
                        return replace(
                            report,
                            applied=True,
                            epoch_after=pending.table.epoch,
                            moved_facts=pending.moved_facts,
                            moved_keys=pending.moved_keys,
                            prepare_seconds=pending.prepare_seconds,
                            publish_seconds=pending.publish_seconds,
                        )
            except StaleReshard:
                # A writer committed between the phases; the commit already
                # discarded the shadows.  Retry from scratch.
                if attempts >= max_attempts:
                    raise
                continue
            except KeyError:
                pass  # deregistered between the phases: no lock to take
            # Replaced or deregistered between the phases: the shadows were
            # built from an exchange nobody serves any more.
            exchange.abort_reshard(pending, reason="scenario replaced mid-rebalance")
            raise ServingError(f"scenario {name!r} was replaced during the rebalance")

    # -- monitoring --------------------------------------------------------

    def start_monitor(
        self,
        interval: float = 1.0,
        rules: Sequence[HealthRule] | None = None,
        actions: Sequence[Any] | None = None,
        auto_rebalance: bool = False,
        slow_query_threshold: float | None = None,
        slow_query_capacity: int = 64,
        history: int = 240,
        start_thread: bool = True,
    ) -> Monitor:
        """Attach (and by default start) the background health monitor.

        Every ``interval`` seconds the monitor samples the metrics
        registry and this service's :meth:`stats` into its bounded
        time-series store, evaluates the health rules (``rules=None``
        means the built-in set) with hysteresis, records ``health_transition`` flight events, and
        runs the ``actions``.  ``auto_rebalance=True`` is shorthand for
        ``actions=(AutoRebalance(),)`` — the closed loop that reshards
        a scenario whose hot-shard alert has been critical for long
        enough.  ``slow_query_threshold`` (seconds) additionally arms
        the slow-query log: any query whose in-lock time exceeds it is
        captured with its retained explain plan.

        ``start_thread=False`` attaches everything without spawning the
        thread — callers then drive ``monitor.tick()`` themselves (the
        CLI and the deterministic tests do).
        """
        with self._admin:
            if self._monitor is not None:
                raise ServingError("monitor already attached; stop_monitor() first")
            slow_log = None
            if slow_query_threshold is not None:
                slow_log = SlowQueryLog(
                    threshold=slow_query_threshold, capacity=slow_query_capacity
                )
            if actions is None:
                actions = (AutoRebalance(),) if auto_rebalance else ()
            monitor = Monitor(
                self,
                interval=interval,
                rules=rules,
                actions=actions,
                history=history,
                slow_queries=slow_log,
            )
            self._slow_log = slow_log
            self._monitor = monitor
        if start_thread:
            monitor.start()
        return monitor

    def stop_monitor(self) -> None:
        """Detach the monitor (idempotent); its thread is joined."""
        with self._admin:
            monitor = self._monitor
            self._monitor = None
            self._slow_log = None
        if monitor is not None:
            monitor.stop()

    def health(self) -> HealthReport:
        """The structured health report.

        With a monitor attached this is its latest consistent
        evaluation; without one, a throwaway monitor takes a single
        sample and evaluates the rules on it — rules needing history
        (deltas, stalls) report no evidence on such a one-shot.
        """
        monitor = self._monitor
        if monitor is not None:
            return monitor.health()
        probe = Monitor(self, interval=0.0)
        probe.tick()
        return probe.health()

    def slow_queries(self, scenario: str | None = None) -> list[SlowQuery]:
        """Captured slow queries (empty unless the monitor armed the log)."""
        slow_log = self._slow_log
        if slow_log is None:
            return []
        return slow_log.entries(scenario)

    def lint(self, name: str) -> AnalysisReport:
        """Run every static-analysis pass over one registered scenario.

        Termination reuses the verdict the registration gate already
        computed, redundancy re-derives the implication structure, and
        shardability reports the *live* shard plan when the scenario is
        sharded (a plain materialization gets the default partition spec).
        On top of the single-mapping passes, the cross-mapping containment
        probe compares the scenario against every other registered one and
        contributes the diagnostics that involve ``name``.

        Pure introspection: runs under read locks (one scenario at a time,
        never two at once — no ordering constraint), mutates nothing.
        """
        lock, exchange = self._read_locked_exchange(name)
        try:
            compiled = exchange.compiled
            decision = compiled.termination
            if decision is None:
                decision = analyse_termination(compiled.target_dependencies)
            diagnostics = list(decision.diagnostics())
            diagnostics.extend(
                analyse_redundancy(
                    [cstd.std for cstd in compiled.stds],
                    compiled.target_dependencies,
                )
            )
            if isinstance(exchange, ShardedExchange):
                diagnostics.extend(plan_diagnostics(exchange.plan))
            else:
                diagnostics.extend(analyse_shardability_diagnostics(compiled))
        finally:
            lock.release_read()
        peers: dict[str, Any] = {}
        for other in sorted(self._registry.names()):
            try:
                other_lock, other_exchange = self._read_locked_exchange(other)
            except KeyError:
                continue  # deregistered since the name snapshot
            try:
                peers[other] = other_exchange.compiled
            finally:
                other_lock.release_read()
        if name in peers:
            diagnostics.extend(
                diag
                for diag in registry_containment_scan(peers)
                if name in diag.payload.get("pair", ())
            )
        return report(name, diagnostics)

    def metrics(self) -> dict[str, Any]:
        """The process-wide instruments plus this service's own stats.

        ``instruments`` is ``repro.obs.METRICS.snapshot()`` plus this
        service's latency histograms; ``scenarios`` maps each scenario to
        its :class:`ScenarioStats` as a dict, from :meth:`stats`.
        """
        stats = self.stats()
        return {
            "instruments": {**METRICS.snapshot()["instruments"], **stats.instruments},
            "scenarios": {s.name: asdict(s) for s in stats.scenarios},
        }

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExchangeService({', '.join(self.names())})"
