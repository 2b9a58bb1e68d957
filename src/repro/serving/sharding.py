"""Sharded parallel exchange: partitioned materialization, scatter-gather serving.

One :class:`ShardedExchange` splits a scenario's source across ``n`` *worker
shards* plus one *residual shard*, each backed by its own
:class:`~repro.serving.materialized.SlotExchange`, and serves the
same query/update surface as a single exchange — so it plugs into
:class:`~repro.serving.service.ExchangeService` behind the existing
per-scenario reader/writer locks unchanged.  Which source facts go where is
decided by the registration-time shardability analysis
(:func:`~repro.analysis.shardability.analyse_shardability`, whose module
docstring states the rules); this module executes its
:class:`~repro.analysis.shardability.ShardPlan`.

Why the union of shard targets is a universal solution
------------------------------------------------------
Under a valid plan every STD trigger and every dependency trigger fires in
exactly one shard, so the union of the shard canonical layers is the
canonical solution of the whole source, and the union of the shard targets
is closed under the target dependencies.  Null disjointness comes for free:
justification nulls are deterministic per trigger (each trigger fires in
one shard) and chase nulls carry globally unique identities
(:class:`~repro.relational.domain.Null`'s global counter), so per-shard
homomorphisms into any solution combine into one — the union is a universal
solution, homomorphically equivalent to the unsharded target.

Serving
-------
Queries go through the query front shared with the unsharded exchange
(:class:`~repro.serving.materialized.ExchangeFront`): normalisation, the
top-level cache probe, the DEQA branch and ``explain`` are written there
once, and the slots under it have none.  This class supplies its name,
mapping and merged source, the composed version vector, the
``scatter``/``merged`` route decision that ``answer`` and ``explain`` both
read, the two evaluations, and the scatter rules and fan-out ``explain``
reports.

* **Updates** fan out per shard: one
  :meth:`~repro.serving.materialized.SlotExchange.apply_delta` per
  touched shard, run on a :class:`~concurrent.futures.ThreadPoolExecutor`
  worker pool, all-or-nothing — a failing shard rejects the batch and the
  shards that already committed are unwound by their inverse deltas (the
  same mechanism service transactions use across scenarios).
* **Monotone queries** evaluate *scatter-gather* when the query itself is
  provably intra-shard (same key-connectedness test as STD bodies, plus
  single-atom and residual-only cases): every shard asked evaluates in
  parallel over its own maintained target and the answer sets are
  unioned.  A slot is a materialization, not an exchange
  (:class:`~repro.serving.materialized.SlotExchange`): it has no query
  front, no core (by Proposition 3 null-free UCQ answers are the same over
  a universal solution as over its core) and no cache.  The union is the
  null-aware dedup: certain answers are null-free and per-shard nulls are
  disjoint, so no cross-shard identification could create or merge
  answers.  Queries that may join across the partition fall back to a
  maintained **merged target view**: one coded
  :class:`~repro.relational.interning.ColumnarInstance` built on first use
  and then advanced per committed batch from the target facts each shard
  reports touching (facts deduped set-wise through a per-fact record of
  the shards holding it; shared constant facts collapse, nulls never
  wrongly merge).
* **DEQA / non-monotone queries** evaluate over the maintained **merged
  source view** — identical to the unsharded path.
* **Caching** lives here, in two tiers: one top-level certain-answer cache
  guarded by the *composed* version vector — per-shard per-relation
  counters concatenated — so an update to any shard stales exactly the
  queries that read a touched relation, on any shard; and the per-slot
  partial answers below.

``sharding_stats()`` snapshots per-shard sizes, the scatter/merged route
counters, the partial answers reused and carried (below) and the batch
*epoch*; taken under the service's read lock the numbers are
epoch-consistent (writers are excluded, so every figure describes the
same committed batch).

Per-slot partial answers and the carry-forward
----------------------------------------------
Below the top-level cache, a scatter keeps each slot's partial answer set
in a second cache, keyed ``(fingerprint, slot)`` and guarded by that slot's
own versions (the routing epoch plus the slot's generation-salted entries:
the composed guard is exactly the routing epoch followed by every slot's
entries).  A top-level miss asks only the live slots whose partial is
stale and unions the rest from the stored sets.  These partials are the
only cache of slot answers: a slot is asked only when its partial is
missing or stale, so a cache inside the slot, guarded by the same
versions, could never hit.

A committed batch then *carries* a partial of a touched slot forward —
restamps its guard from the slot's pre-batch to its post-batch versions —
when no target fact the slot reports touching matches one of the query's
atoms (same relation and arity, equal values at every constant position).
This is sound because a null-free UCQ answer over a slot's target (the
slots answer over their targets, not over cores) is the null-free image
of the head under some homomorphism from a disjunct's body into the
target, and each atom's image is a fact that matches it.  If no matching
fact was added or removed, every atom has the same candidate images, so
the homomorphisms, and the slot's answers, are unchanged.  Equalities and
repeated variables are ignored, which only makes the test more
conservative.  The argument needs the report to be complete: it is the
record of every target fact the slot's repair added or removed (the one
that also advances the merged view), and it is ``None`` whenever the slot
cannot say — an egd rewrite or a replay — in which case nothing is
carried.  Nothing is carried across a rolled-back batch either (every
partial is dropped, as the top-level cache is), a slot swap (a worker
death, a reshard commit, a rebuild) drops every partial, and the routing
epoch and slot generations in each guard cover a death that happens
during a read.  The carry-forward runs only in
:meth:`ShardedExchange.apply_delta`, after the commit and under the
service's write lock (the ``slot-answers`` lint rule keeps it there): a
restamp anywhere else could bless an entry a reader is still filling.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from itertools import chain
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.analysis.compiled import CompiledMapping
from repro.analysis.shardability import PartitionSpec, analyse_shardability
from repro.core.certain import AnyQuery, certain_answers_naive
from repro.logic.cq import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.logic.terms import Const
from repro.obs.explain import ScatterRule, ShardFanout
from repro.obs.flight import FLIGHT_RECORDER
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.relational.instance import Instance
from repro.relational.interning import ColumnarInstance
from repro.serving.cache import CertainAnswerCache, VersionVector, query_fingerprint
from repro.serving.elastic import (
    EpochRouter,
    PendingReshard,
    ReshardMove,
    RoutingTable,
    StaleReshard,
    TopKCounter,
    _imbalance,
    plan_reshard,
)
from repro.serving.materialized import (
    AppliedDelta,
    ExchangeFront,
    Fact,
    SlotExchange,
    TouchedFacts,
    UpdateStats,
    normalise_delta,
)
from repro.serving.workers import ProcessShard, WorkerGone

# Pre-bound instrument handle: the scatter fan-out size per query, observed
# once per scatter (never inside the per-shard loop).
_SCATTER_FANOUT = METRICS.histogram(
    "sharding.scatter_fanout_shards",
    "Shards asked per scatter-gather query after pruning and partial-answer reuse",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
)
_RESHARDS_TOTAL = METRICS.counter(
    "sharding.reshards_total", "Committed live reshards (bucket handoffs)"
)
#: Version salt per slot generation: a worker death's in-process replacement
#: restarts its raw counters, and the salt keeps the composed vector from
#: aliasing anything observed before the death.
_GENERATION_SALT = 1 << 40

__all__ = ["ShardedExchange", "ShardingStats"]


def _apply_reporting(
    added: list[Fact], removed: list[Fact]
) -> Callable[[Any], tuple[AppliedDelta, int]]:
    """A per-shard apply call that also returns the egd replays it cost, read
    off the backend that served it.  The slot's ``touched`` record is already
    split into ``(present, absent)``."""

    def call(shard: Any) -> tuple[AppliedDelta, int]:
        before = shard.update_stats.replays
        applied = shard.apply_delta(added=added, removed=removed)
        return applied, shard.update_stats.replays - before

    return call


#: Per relation, one ``(arity, positions, constants)`` shape per query atom
#: over it: the atom's constants and the positions they sit at.
_AtomPatterns = Mapping[str, tuple[tuple[int, tuple[int, ...], tuple[Any, ...]], ...]]


def _atom_patterns(query: AnyQuery) -> _AtomPatterns:
    """The shape of every atom of a CQ/UCQ: a fact can be the image of an
    atom only if it has the atom's relation and arity and agrees with each
    of its constants (equalities and repeated variables are ignored, which
    only makes :func:`_matches_any` more conservative)."""
    patterns: dict[str, set] = {}
    for cq in query.disjuncts:
        for atom in cq.atoms:
            constants = [
                (position, term.value)
                for position, term in enumerate(atom.terms)
                if isinstance(term, Const)
            ]
            positions = tuple(position for position, _ in constants)
            values = tuple(value for _, value in constants)
            patterns.setdefault(atom.relation, set()).add(
                (len(atom.terms), positions, values)
            )
    return {relation: tuple(shapes) for relation, shapes in patterns.items()}


def _matches_any(patterns: _AtomPatterns, touched: Mapping[str, list[tuple]]) -> bool:
    """Does some touched fact match the shape of some query atom?"""
    for relation, tuples in touched.items():
        for arity, positions, values in patterns.get(relation, ()):
            for tup in tuples:
                if len(tup) == arity and tuple(map(tup.__getitem__, positions)) == values:
                    return True
    return False


def _fold_reports(
    merged: ColumnarInstance,
    holders: dict[Fact, int],
    reports: Mapping[int, tuple[Iterable[Fact], Iterable[Fact]]],
) -> None:
    """Apply per-slot ``(present, absent)`` facts to a merged view whose
    ``holders`` map each fact to the bitmask of slots holding it: a fact
    enters the view with its first holder and leaves with its last."""
    for index, (present, absent) in reports.items():
        bit = 1 << index
        for fact in present:
            held = holders.get(fact, 0)
            if not held:
                merged.add(*fact)
            holders[fact] = held | bit
        for fact in absent:
            held = holders.get(fact, 0) & ~bit
            if held:
                holders[fact] = held
            elif fact in holders:
                del holders[fact]
                merged.discard(*fact)


@dataclass(frozen=True)
class ShardingStats:
    """An epoch-consistent snapshot of one sharded scenario.

    ``epoch`` counts committed batches; sampled under the scenario's read
    lock (as :meth:`~repro.serving.service.ExchangeService.stats` does),
    every per-shard figure describes the same epoch because writers are
    excluded for the whole snapshot.  Shard tuples list the worker shards
    in index order with the residual shard last; ``imbalance`` is the
    hottest worker shard's source size over the worker mean (1.0 = evenly
    spread), the number the skewed workloads push up.
    """

    epoch: int
    shards: int
    workers: int
    local_stds: int
    residual_stds: int
    residual_sources: tuple[str, ...]
    shard_source_tuples: tuple[int, ...]
    shard_target_tuples: tuple[int, ...]
    scatter_queries: int
    merged_queries: int
    fanout_applies: int
    imbalance: float
    # Execution backend: "thread" = in-process shards on the thread pool,
    # "process" = one worker process per shard (repro.serving.workers).
    worker_mode: str = "thread"
    # Worker deaths; each one swapped its slot for an in-process exchange.
    worker_failures: int = 0
    # The live routing table's epoch and bucket count (repro.serving.elastic);
    # the epoch advances once per committed reshard.
    routing_epoch: int = 0
    buckets: int = 0
    # Committed live reshards (bucket handoffs) on this exchange.
    reshards: int = 0
    # Per worker shard: the bounded top-K ingest histogram of partition keys
    # (cumulative traffic, the rebalancer's capacity-debugging signal).
    key_histograms: tuple[tuple[tuple[Any, int], ...], ...] = ()
    # Scatter slots served from a fresh stored partial answer instead of a
    # shard call, and partials carried across a batch that touched their
    # slot but no fact their query can match (see the module docstring).
    slot_answers_reused: int = 0
    slot_answers_carried: int = 0


class ShardedExchange(ExchangeFront):
    """A scenario materialized as worker shards plus a residual shard.

    Shares the query front (:class:`~repro.serving.materialized.ExchangeFront`)
    with :class:`MaterializedExchange` and duck-types the rest of its
    surface (``apply_delta``/``update_stats``/``source``/``target``/…), so
    the service's locks, transactions and inverse-delta rollbacks apply
    unchanged.  See the module docstring for the partitioning,
    scatter-gather and caching semantics.
    """

    # Bound again as this class's own attribute, like MaterializedExchange
    # does, so wrapping one exchange kind's ``answer`` leaves the other's be.
    answer = ExchangeFront.answer

    def __init__(
        self,
        name: str,
        compiled: CompiledMapping,
        source: Instance,
        partition: PartitionSpec,
        max_chase_steps: int | None = None,
        cache_capacity: int | None = None,
        max_workers: int | None = None,
        force_residual: bool = False,
        worker_mode: str = "thread",
    ):
        if worker_mode not in ("thread", "process"):
            raise ValueError(
                f"unknown worker_mode {worker_mode!r} (use 'thread' or 'process')"
            )
        super().__init__(cache_capacity)
        self.name = name
        self.compiled = compiled
        self.source = source.copy()  # the merged live source view (DEQA reads it)
        self.update_stats = UpdateStats()
        self.plan = analyse_shardability(compiled, partition, force_residual=force_residual)
        self._max_chase_steps = max_chase_steps
        self._worker_mode = worker_mode
        self._worker_failures = 0
        # Per slot: worker deaths.  Salts the slot's version entries (a
        # replacement restarts its counters) and is the ``gen=N`` of
        # shard_states(); _swap_mutex makes each death one swap.
        self._generations = [0] * (partition.shards + 1)
        self._swap_mutex = threading.RLock()
        self._epoch = 0
        self._counter_mutex = threading.Lock()
        self._scatter_queries = 0
        self._merged_queries = 0
        self._fanout_applies = 0
        self._reshards = 0
        self._slot_answers_reused = 0
        self._slot_answers_carried = 0
        # The epoch-versioned routing state (repro.serving.elastic): reads go
        # through routing_snapshot(), publishes through the reshard commit.
        self._router = EpochRouter(RoutingTable.initial(partition.shards))
        # Per worker shard: bounded top-K ingest histogram of partition keys.
        self._key_hist = tuple(TopKCounter() for _ in range(partition.shards))
        # The merged target view (the fallback for monotone queries that may
        # join across the partition): ``(versions, view, holders)``, where
        # ``holders`` maps each fact to a bitmask of the slots holding it.
        # Built lazily, advanced per batch by _advance_merged, and stamped
        # with the composed version vector it reflects.  One attribute, so
        # dropping it needs no lock; the mutex only serialises builds.
        self._merged_mutex = threading.Lock()
        self._merged_view: Optional[
            tuple[VersionVector, ColumnarInstance, dict[Fact, int]]
        ] = None
        # Per-slot partial scatter answers, keyed ``(fingerprint, slot)`` and
        # guarded by the slot's own versions; each entry's note is its query's
        # atom patterns (_atom_patterns), which the carry-forward reads.  Room
        # for one partial per slot of every query the top-level cache holds.
        self._slot_answers = CertainAnswerCache(
            capacity=None
            if cache_capacity is None
            else cache_capacity * (partition.shards + 1)
        )
        slices = [
            Instance(schema=source.schema) for _ in range(partition.shards + 1)
        ]
        routing = self._router.snapshot()
        for relation, tup in self.source.facts():
            index = self.plan.shard_of(relation, tup, routing)
            slices[index].add(relation, tup)
            if index < partition.shards:
                self._key_hist[index].add(tup[partition.key_position(relation)])
        # In thread mode shard materialization is deliberately sequential: the
        # initial trigger enumeration and chase are pure-Python CPU work,
        # which a thread pool cannot overlap under the GIL.  Process shards
        # materialize inside their workers (construction returns after the
        # init handshake), and a failed later shard must not leak the worker
        # processes the earlier ones already started.
        shards: list[Any] = []
        try:
            for i, shard_source in enumerate(slices):
                shards.append(self._make_shard(i, shard_source))
        except BaseException:
            for shard in shards:
                shard.close()
            raise
        self.shards: tuple[Any, ...] = tuple(shards)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers or partition.shards + 1,
            thread_name_prefix=f"shard-{name}",
        )

    def _make_shard(self, index: int, shard_source: Instance):
        """One shard backend in the configured mode (init, rebuilds, shadows).

        A worker that dies during its first build is a death like any
        other: the slot starts in-process, which also surfaces any real
        scenario error (no solution, non-termination) exactly like thread
        mode.
        """
        if self._worker_mode == "process":
            try:
                return ProcessShard(
                    self._shard_name(index),
                    index,
                    self.compiled,
                    shard_source,
                    max_chase_steps=self._max_chase_steps,
                )
            except WorkerGone as gone:
                self._note_worker_death(index, str(gone))
        return self._local_shard(index, shard_source)

    def _local_shard(self, index: int, shard_source: Instance) -> SlotExchange:
        return SlotExchange(
            self._shard_name(index),
            self.compiled,
            shard_source,
            max_chase_steps=self._max_chase_steps,
        )

    def _note_worker_death(self, index: int, reason: str) -> None:
        with self._counter_mutex:
            self._worker_failures += 1
        self._generations[index] += 1
        FLIGHT_RECORDER.record(
            "worker_failure", scenario=self.name, shard=index, reason=reason
        )

    def _swap_shards(self, replacements: Mapping[int, Any]) -> None:
        """Install new backends in the given slots and close the old ones.

        The one writer of ``self.shards`` after construction: rollback
        rebuilds, reshard commits and worker deaths all come through here.
        A replacement restarts its version counters, so the answer cache,
        the per-slot partial answers and the merged view are dropped
        *before* the new tuple is published.
        """
        with self._swap_mutex:
            self._cache.invalidate_all()
            self._slot_answers.invalidate_all()
            self._merged_view = None
            shards = list(self.shards)
            old = [shards[index] for index in replacements]
            for index, shard in replacements.items():
                shards[index] = shard
            self.shards = tuple(shards)
        for shard in old:
            shard.close()

    def _replace_dead(
        self, index: int, dead: Any, reason: str, shadows: Optional[dict] = None
    ) -> Any:
        """Swap a dead worker's slot for an in-process exchange, once.

        The replacement is built from the proxy's source mirror, which is
        pre-batch-exact.  A request that saw the same death after the swap
        finds the slot no longer holds ``dead`` and gets the live backend.
        ``shadows`` names the slot map of a reshard prepare instead of the
        live tuple.  The generation bumps after the swap is published (see
        :meth:`_target_versions`).
        """
        with self._swap_mutex:
            current = (self.shards if shadows is None else shadows)[index]
            if current is not dead:
                return current
            local = self._local_shard(index, dead.source)
            if shadows is None:
                self._swap_shards({index: local})
            else:
                shadows[index] = local
                dead.close()
            self._note_worker_death(index, reason)
            return local

    def _on_shard(
        self, index: int, call: Callable[[Any], Any], shadows: Optional[dict] = None
    ) -> Any:
        """Run ``call`` on slot ``index``'s backend (its shadow in ``shadows``).

        The one place a dead worker is handled: on :class:`WorkerGone` the
        slot is swapped (:meth:`_replace_dead`) and ``call`` is retried on
        the in-process replacement.
        """
        shard = (self.shards if shadows is None else shadows)[index]
        try:
            return call(shard)
        except WorkerGone as gone:
            return call(self._replace_dead(index, shard, str(gone), shadows))

    def _fan_out(
        self, span: str, jobs: Iterable[tuple[int, Callable[[Any], Any], dict]]
    ) -> list[Future]:
        """Submit one :meth:`_on_shard` call per ``(index, call, attrs)`` job.

        Traced, each call runs under a ``span`` named after its shard, with
        ``attrs``, parented to the caller's current span.  Untraced, this is
        the batch's or query's one ``TRACER.enabled`` read.
        """
        if not TRACER.enabled:
            return [
                self._pool.submit(self._on_shard, index, call)
                for index, call, _ in jobs
            ]
        parent = TRACER.current()

        def traced(index: int, call: Callable[[Any], Any], attrs: dict) -> Any:
            with TRACER.context(parent):
                with TRACER.span(span, shard=self._shard_name(index), **attrs):
                    return self._on_shard(index, call)

        return [self._pool.submit(traced, *job) for job in jobs]

    def _shard_name(self, index: int) -> str:
        if index == self.plan.spec.shards:
            return f"{self.name}/residual"
        return f"{self.name}/shard{index}"

    # -- read access -------------------------------------------------------

    def routing_snapshot(self) -> RoutingTable:
        """The current epoch-consistent routing table (the *only* read path —
        the ``routing-table`` lint rule keeps raw table access inside
        :mod:`repro.serving.elastic`)."""
        return self._router.snapshot()

    def bucket_loads(self) -> dict[int, int]:
        """Partitioned source facts per routing bucket (the rebalancer input).

        Computed from the merged source view — O(|source|), exact, and
        independent of which worker currently owns each bucket.  Residual
        relations and key-less tuples never occupy a bucket.
        """
        routing = self._router.snapshot()
        loads = dict.fromkeys(range(routing.buckets), 0)
        for relation, tup in self.source.facts():
            if relation in self.plan.residual_sources:
                continue
            position = self.plan.spec.key_position(relation)
            if position >= len(tup):
                continue
            loads[routing.bucket_of(tup[position])] += 1
        return loads

    def shard_states(self) -> tuple[str, ...]:
        """One state string per shard (worker shards first, residual last):
        ``"thread"``, ``"process(gen=N)"`` or ``"degraded(gen=N)"`` (a
        process-mode slot whose worker died, now served in-process) — ``N``
        counts the worker deaths in the slot, as the explain layer reports."""
        if self._worker_mode == "thread":
            return ("thread",) * len(self.shards)
        return tuple(
            f"{'process' if isinstance(shard, ProcessShard) else 'degraded'}"
            f"(gen={generation})"
            for generation, shard in zip(self._generations, self.shards)
        )

    @property
    def residual(self):
        """The residual shard (always the last entry of ``shards``)."""
        return self.shards[-1]

    @property
    def workers(self):
        """The worker shards, in partition-index order."""
        return self.shards[:-1]

    @property
    def epoch(self) -> int:
        """Number of committed update batches."""
        return self._epoch

    @property
    def target(self) -> Instance:
        """The merged target view (union of the shard targets, deduped)."""
        return self._merged()

    @property
    def target_size(self) -> int:
        """Target tuples across the shards — O(#shards), never a merge.

        ``stats()`` polls this after every batch; forcing the O(|target|)
        merged rebuild for a counter would turn monitoring into data work.
        When the merged view happens to be current its exact deduplicated
        size is reported; otherwise the per-shard sum stands in (an upper
        bound — shards may derive the same all-constant fact independently).
        """
        view = self._merged_view
        if view is not None and view[0] == self._target_versions():
            return len(view[1])
        return sum(shard.target_size for shard in self.shards)

    core_size: Optional[int] = None  # the slots keep no core (see _evaluate)

    def sharding_stats(self) -> ShardingStats:
        """The epoch-consistent sharding snapshot (see :class:`ShardingStats`)."""
        with self._counter_mutex:
            scatter, merged, fanout, failures, reshards, reused, carried = (
                self._scatter_queries,
                self._merged_queries,
                self._fanout_applies,
                self._worker_failures,
                self._reshards,
                self._slot_answers_reused,
                self._slot_answers_carried,
            )
        routing = self._router.snapshot()
        return ShardingStats(
            epoch=self._epoch,
            shards=len(self.shards),
            workers=len(self.workers),
            local_stds=len(self.plan.local_stds),
            residual_stds=len(self.plan.residual_stds),
            residual_sources=tuple(sorted(self.plan.residual_sources)),
            shard_source_tuples=tuple(len(shard.source) for shard in self.shards),
            shard_target_tuples=tuple(shard.target_size for shard in self.shards),
            scatter_queries=scatter,
            merged_queries=merged,
            fanout_applies=fanout,
            imbalance=_imbalance(len(shard.source) for shard in self.workers),
            worker_mode=self._worker_mode,
            worker_failures=failures,
            routing_epoch=routing.epoch,
            buckets=routing.buckets,
            reshards=reshards,
            key_histograms=tuple(hist.top() for hist in self._key_hist),
            slot_answers_reused=reused,
            slot_answers_carried=carried,
        )

    def close(self) -> None:
        """Shut the worker pool — and any worker processes — down (idempotent;
        no pending work is lost: updates and queries synchronously drain
        their own futures)."""
        self._pool.shutdown(wait=False)
        for shard in self.shards:
            shard.close()

    # -- updates -----------------------------------------------------------

    def apply_delta(
        self,
        added: Iterable[tuple[str, Iterable[Any]]] = (),
        removed: Iterable[tuple[str, Iterable[Any]]] = (),
    ) -> AppliedDelta:
        """Apply one mixed batch, fanned out per shard — all-or-nothing.

        The batch is normalised against the merged source (same contract as
        the unsharded ``apply_delta``: overlapping sides raise, no-op facts
        drop out), split along the shard plan, and one per-shard
        ``apply_delta`` runs on the worker pool per *touched* shard.  If
        any shard rejects its slice, the shards that already committed are
        unwound by their inverse deltas and the failure propagates — the
        scenario keeps serving the pre-batch state.  One batch counts one
        trigger round / target repair / invalidation round, matching the
        exactly-once contract the service asserts.
        """
        to_add, to_remove = normalise_delta(self.source, added, removed)
        if not to_add and not to_remove:
            return AppliedDelta()

        routing = self._router.snapshot()
        workers = self.plan.spec.shards
        per_shard: dict[int, tuple[list[Fact], list[Fact]]] = {}
        for fact in to_add:
            index = self.plan.shard_of(*fact, routing)
            per_shard.setdefault(index, ([], []))[0].append(fact)
            if index < workers:  # ingest-traffic histogram (adds only)
                self._key_hist[index].add(
                    fact[1][self.plan.spec.key_position(fact[0])]
                )
        for fact in to_remove:
            index = self.plan.shard_of(*fact, routing)
            per_shard.setdefault(index, ([], []))[1].append(fact)

        self.update_stats.batches += 1
        # Sampled before the fan-out.  A view stamped with anything but the
        # pre-batch versions (a build that raced a worker death) cannot be
        # advanced by this batch's reports; _merged() rebuilds it.
        view = self._merged_view
        if view is not None and view[0] != self._target_versions():
            view = None
        # Each touched slot's pre-batch versions, the guard a partial answer
        # must carry to be carried forward (read once per slot, not per entry).
        before = (
            {index: dict(self._target_versions(slots=(index,))) for index in per_shard}
            if len(self._slot_answers)
            else {}
        )
        jobs = [
            (
                index,
                _apply_reporting(adds, removes),
                {"added": len(adds), "removed": len(removes)},
            )
            for index, (adds, removes) in sorted(per_shard.items())
        ]
        futures = self._fan_out("shard.apply_delta", jobs)
        applied: dict[int, AppliedDelta] = {}
        replays = 0
        failure: Optional[BaseException] = None
        for (index, _, _), future in zip(jobs, futures):
            try:
                applied[index], shard_replays = future.result()
                replays += shard_replays
            except Exception as exc:  # noqa: BLE001 - collected, re-raised below
                if failure is None:
                    failure = exc
        if failure is not None:
            # The failing shard rolled itself back; unwind the committed
            # shards by their inverse deltas (sound for the same reason
            # service transactions rely on: a committed delta came from a
            # consistent state, and justification nulls are deterministic).
            for index, delta in sorted(applied.items()):
                if not delta:
                    continue
                try:
                    self._on_shard(
                        index,
                        lambda shard: shard.apply_delta(
                            added=delta.removed, removed=delta.added
                        ),
                    )
                except Exception:  # pragma: no cover - e.g. a step-budgeted
                    # egd replay on the inverse path.  A shard left at the
                    # post-batch state would silently poison every later
                    # answer, so rebuild it wholesale from its pre-batch
                    # source (known consistent: the batch was the only
                    # change); if even that fails, the error propagates and
                    # the scenario is loudly broken rather than quietly so.
                    self._rebuild_shard(index, delta)
            self.update_stats.rollbacks += 1
            FLIGHT_RECORDER.record(
                "shard_rollback",
                scenario=self.name,
                shards=len(futures),
                committed=len(applied),
                error=str(failure),
            )
            self._cache.invalidate_all()
            self._slot_answers.invalidate_all()
            self._advance_merged(view, None)
            raise failure

        for fact in to_remove:
            self.source.discard(*fact)
        for fact in to_add:
            self.source.add(*fact)
        self.update_stats.trigger_rounds += 1
        self.update_stats.target_repairs += 1
        self.update_stats.invalidation_rounds += 1
        # Counted per call on the backend that served it, so a slot swapped
        # mid-batch neither loses nor double-counts replays.
        self.update_stats.replays += replays
        self._epoch += 1
        with self._counter_mutex:
            self._fanout_applies += len(futures)
        reports = {index: delta.touched for index, delta in applied.items()}
        self._advance_merged(view, reports)
        if before:
            self._carry_slot_answers(before, reports)
        return AppliedDelta(added=tuple(to_add), removed=tuple(to_remove))

    def _advance_merged(
        self, view: Optional[tuple], reports: Optional[Mapping[int, TouchedFacts]]
    ) -> None:
        """Fold one committed batch's shard reports into the merged view.

        ``view`` is the view as sampled before the fan-out, current for the
        pre-batch versions.  It advances only if it still is the current
        view (a worker death mid-batch swaps a slot and drops it); it is
        dropped instead after a rollback (``reports`` is
        ``None``) or when some shard could not say what it touched.  Runs
        under the service's write lock, so no reader sees it half-way.
        """
        if view is None or self._merged_view is not view:
            return
        if reports is None or any(report is None for report in reports.values()):
            self._merged_view = None
            return
        _, merged, holders = view
        _fold_reports(merged, holders, reports)
        self._merged_view = (self._target_versions(), merged, holders)

    def _carry_slot_answers(
        self,
        before: Mapping[int, dict[str, int]],
        reports: Mapping[int, TouchedFacts],
    ) -> None:
        """Carry partial answers across a committed batch that could not
        change them.

        A partial of a touched slot whose guard equals the slot's pre-batch
        versions (``before``) is restamped to its post-batch versions when
        no fact the slot reports touching matches one of its query's atoms
        (see the module docstring for why that leaves the answers exact).
        A slot whose report is unknown (``None``: an egd rewrite or a
        replay) carries nothing.  Called only from :meth:`apply_delta`,
        under the service's write lock, after the fan-out committed: a
        restamp anywhere else could bless an entry a reader is filling.
        """
        slots: dict[int, tuple[set, dict[str, int], set[str], dict[str, list]]] = {}
        for index, pre in before.items():
            report = reports.get(index)
            if report is None:
                continue
            post = dict(self._target_versions(slots=(index,)))
            changed = {name for name, version in post.items() if pre.get(name) != version}
            touched: dict[str, list[tuple]] = {}
            for relation, tup in chain(*report):
                touched.setdefault(relation, []).append(tup)
            slots[index] = (set(pre.items()), post, changed, touched)
        if not slots:
            return

        def rewrite(key, versions, patterns) -> Optional[VersionVector]:
            slot = slots.get(key[1])
            if slot is None:
                return None
            pre, post, changed, touched = slot
            names = next(zip(*versions))
            if (
                changed.isdisjoint(names)  # still fresh, or already stale
                or not pre.issuperset(versions)  # stale before the batch
                or _matches_any(patterns, touched)
            ):
                return None
            return tuple(zip(names, map(post.get, names)))

        carried = self._slot_answers.restamp(rewrite)
        if carried:
            with self._counter_mutex:
                self._slot_answers_carried += carried

    def _rebuild_shard(self, index: int, applied: AppliedDelta) -> None:
        """Re-materialize one shard at its pre-batch source (rollback backstop).

        Used only when the inverse delta itself fails: the shard's current
        source is the committed post-batch state, so undoing ``applied`` on
        a copy reproduces the pre-batch source exactly, and materializing it
        from scratch succeeds because that state was consistent before the
        batch (deterministic justification nulls included).
        """
        FLIGHT_RECORDER.record(
            "shard_rebuild",
            scenario=self.name,
            shard=index,
            added=len(applied.added),
            removed=len(applied.removed),
        )
        restored = self.shards[index].source.copy()
        for fact in applied.added:
            restored.discard(*fact)
        for fact in applied.removed:
            restored.add(*fact)
        self._swap_shards({index: self._make_shard(index, restored)})

    # -- live reshard (elastic bucket handoff) -----------------------------

    def prepare_reshard(
        self, moves: Iterable[ReshardMove | tuple[int, int]]
    ) -> PendingReshard:
        """Phase one of a live bucket handoff: build shadow shards off-line.

        Readers are never touched: the moving facts are extracted from the
        donor shards' (parent-side) sources, every affected shard is cloned
        from its current source, and the movement is applied to the clones
        through the same inverse-delta-protected ``apply_delta`` the data
        plane trusts — one mixed batch per shadow, removes on donors, adds
        on recipients.  The live shards keep serving the old layout
        throughout.  A shadow whose worker dies is swapped for an in-process
        exchange like a live slot; any failure (a chase error, or one in
        that replacement) discards the shadows and leaves the exchange
        exactly as it was.

        The moves are validated by :func:`~repro.serving.elastic.plan_reshard`
        (no bucket loads: validation needs none).  Requires writers to be
        excluded (the service holds the scenario read lock, which its
        writer-preferring lock guarantees); concurrent readers are fine.
        Returns the :class:`PendingReshard` that
        :meth:`commit_reshard` publishes or :meth:`abort_reshard` discards.
        """
        begin = time.perf_counter()
        routing = self._router.snapshot()
        plan, _, _ = plan_reshard(routing, {}, moves)
        batch_epoch = self._epoch

        # One scan per donor: keep the facts whose key lands in a moving
        # bucket.  Worker-shard sources hold only partitioned relations
        # with in-range key positions (anything else routed residual).
        recipient_of = {move.bucket: move.recipient for move in plan}
        outgoing: dict[int, list[Fact]] = {}
        incoming: dict[int, list[Fact]] = {}
        moved_keys: set[Any] = set()
        for donor in {move.donor for move in plan}:
            for relation, tup in self.shards[donor].source.facts():
                key = tup[self.plan.spec.key_position(relation)]
                recipient = recipient_of.get(routing.bucket_of(key))
                if recipient is None or routing.worker_of_value(key) != donor:
                    continue
                outgoing.setdefault(donor, []).append((relation, tup))
                incoming.setdefault(recipient, []).append((relation, tup))
                moved_keys.add(key)
        moved_facts = sum(len(facts) for facts in outgoing.values())
        FLIGHT_RECORDER.record(
            "reshard_start",
            scenario=self.name,
            moves=len(plan),
            donors=",".join(map(str, sorted({m.donor for m in plan}))),
            recipients=",".join(map(str, sorted({m.recipient for m in plan}))),
            moved_facts=moved_facts,
            moved_keys=len(moved_keys),
        )

        # Shards with no facts in flight need no shadow: the published
        # table alone re-routes their (empty) buckets.
        shadows: dict[int, Any] = {}
        try:
            for index in sorted(set(outgoing) | set(incoming)):
                shadows[index] = self._make_shard(
                    index, self.shards[index].source.copy()
                )
                self._on_shard(
                    index,
                    lambda shadow: shadow.apply_delta(
                        added=incoming.get(index, ()),
                        removed=outgoing.get(index, ()),
                    ),
                    shadows,
                )
        except BaseException as exc:
            for shadow in shadows.values():
                shadow.close()
            FLIGHT_RECORDER.record(
                "reshard_abort",
                scenario=self.name,
                moves=len(plan),
                phase="prepare",
                error=str(exc),
            )
            raise
        return PendingReshard(
            table=routing.reassign(recipient_of),
            moves=plan,
            shadows=shadows,
            batch_epoch=batch_epoch,
            moved_facts=moved_facts,
            moved_keys=len(moved_keys),
            prepare_seconds=time.perf_counter() - begin,
        )

    def commit_reshard(self, pending: PendingReshard) -> PendingReshard:
        """Phase two: swap the shadows in and publish the next routing epoch.

        Must run with writers *and* readers excluded (the service write
        lock) — this is the bounded publish window, and it is O(#shards):
        a tuple swap, one table publish, the cache drop.  If a batch
        committed since the prepare (``batch_epoch`` mismatch) the shadows
        would publish a lost update, so the commit aborts itself and
        raises :class:`~repro.serving.elastic.StaleReshard` — the caller
        re-prepares against the new state.  Fills in
        ``pending.publish_seconds`` and returns it.
        """
        begin = time.perf_counter()
        if pending.batch_epoch != self._epoch:
            reason = (
                f"prepared at batch epoch {pending.batch_epoch}, "
                f"exchange now at {self._epoch}"
            )
            self.abort_reshard(pending, reason=reason)
            raise StaleReshard(f"stale reshard: {reason}; re-prepare and retry")
        self._swap_shards(pending.shadows)
        self._router.publish(pending.table)
        with self._counter_mutex:
            self._reshards += 1
        pending.publish_seconds = time.perf_counter() - begin
        if METRICS.enabled:
            _RESHARDS_TOTAL.inc()
        FLIGHT_RECORDER.record(
            "reshard_commit",
            scenario=self.name,
            routing_epoch=pending.table.epoch,
            moves=len(pending.moves),
            donors=",".join(map(str, pending.donors)),
            recipients=",".join(map(str, pending.recipients)),
            moved_facts=pending.moved_facts,
            moved_keys=pending.moved_keys,
        )
        return pending

    def abort_reshard(self, pending: PendingReshard, reason: str = "aborted") -> None:
        """Discard a prepared reshard — live shards and routing never changed."""
        for shadow in pending.shadows.values():
            shadow.close()
        pending.shadows.clear()
        FLIGHT_RECORDER.record(
            "reshard_abort",
            scenario=self.name,
            moves=len(pending.moves),
            phase="commit",
            error=reason,
        )

    def reshard(
        self, moves: Iterable[ReshardMove | tuple[int, int]]
    ) -> PendingReshard:
        """Prepare + commit one bucket handoff under exclusive access.

        The convenience form for callers that already hold exclusive write
        access (the same contract as calling ``apply_delta`` directly).
        ``service.rebalance`` uses the two-phase form instead — prepare
        under the read lock, commit under the write lock — so readers are
        only ever paused for the O(#shards) publish window.
        """
        return self.commit_reshard(self.prepare_reshard(moves))

    # -- queries -----------------------------------------------------------

    def _target_versions(
        self,
        relations: Iterable[str] | None = None,
        slots: Iterable[int] | None = None,
    ) -> VersionVector:
        """The composed version guard: every shard's vector, concatenated.

        A top-level cache entry goes stale exactly when *some* shard
        touched *some* relation the query reads — the per-shard version
        vectors composed into one guard.  The routing epoch rides along as
        the leading component: a committed reshard moves facts between
        shards *and* replaces shard backends (whose counters restart), so
        without the epoch a post-reshard vector could alias a pre-reshard
        one and the cache or merged view would serve a torn layout.  Each
        slot's entries are salted with its generation for the same reason:
        a dead worker's replacement restarts its counters.  Generations are
        read before the shards, and a death publishes the swap before the
        bump, so a vector never pairs a dead worker's counters with the
        new salt.

        ``slots`` restricts the vector to those slots' entries (after the
        routing epoch): a per-slot partial answer's guard.  The composed
        guard is exactly the routing epoch followed by every slot's entries.
        """
        names = list(relations) if relations is not None else None
        generations = tuple(self._generations)
        shards = self.shards
        entries: list[tuple[str, int]] = [
            ("__routing__", self._router.snapshot().epoch)
        ]
        for index in range(len(shards)) if slots is None else slots:
            salt = generations[index] * _GENERATION_SALT
            for name, version in shards[index]._target_versions(names):
                entries.append((f"s{index}:{name}", version + salt))
        return tuple(entries)

    def _merged(self) -> ColumnarInstance:
        """The merged target view, built in full only when it is missing or
        its stamp is not the current composed version vector.

        Committed batches advance the view in place (:meth:`_advance_merged`);
        a full build happens on first use, after a drop (rollback, unknown
        report, slot swap) and after a build that raced a worker death —
        a death during a read swaps a slot without the write lock, which is
        why the stamp stays the guard.  Facts dedup set-wise — shards may
        derive the same all-constant fact independently, so each fact
        records the slots holding it — and nulls never merge across shards
        (identities are globally unique), which is exactly the null-aware
        union the module docstring promises.
        """
        with self._merged_mutex:
            versions = self._target_versions()
            view = self._merged_view
            if view is None or view[0] != versions:
                merged = ColumnarInstance(schema=self.compiled.mapping.target)
                holders: dict[Fact, int] = {}
                for index in range(len(self.shards)):
                    target = self._on_shard(index, lambda shard: shard.target)
                    _fold_reports(merged, holders, {index: (target.facts(), ())})
                view = self._merged_view = (versions, merged, holders)
            return view[1]

    def _monotone_route(self, query: AnyQuery) -> str:
        """``scatter`` when :meth:`ShardPlan.scatter_safe` proves the query
        intra-shard, else ``merged`` (evaluated over the merged target view)."""
        return "scatter" if self.plan.scatter_safe(query) else "merged"

    def _evaluate(self, route: str, query: AnyQuery, relations: list[str]) -> set[tuple]:
        """Scatter: parallel per-shard :meth:`SlotExchange.answer` (each slot
        evaluates over its own maintained target) for the slots without a
        fresh partial answer, unioned with the fresh partials.  Merged: naive
        evaluation over the merged target view."""
        if route == "merged":
            with TRACER.span("exchange.evaluate", route=route):
                answers = certain_answers_naive(query, self._merged())
            with self._counter_mutex:
                self._merged_queries += 1
            return answers
        fingerprint = query_fingerprint(query)
        asked, reused, _ = self._scatter_slots(
            query, fingerprint, relations, self._router.snapshot(), self._slot_answers.get
        )
        with TRACER.span(
            "exchange.scatter",
            fanout=len(asked),
            reused=len(reused),
            shards=len(self.shards),
        ):
            futures = self._fan_out(
                "shard.answer",
                [(index, lambda shard: shard.answer(query), {}) for index, _ in asked],
            )
            patterns = _atom_patterns(query) if asked else None
            answers: set = set().union(*reused.values())
            with TRACER.span("exchange.merge"):
                for (index, guard), future in zip(asked, futures):
                    partial = future.result().answers
                    self._slot_answers.put(fingerprint, index, guard, partial, patterns)
                    answers |= partial
        if METRICS.enabled:
            _SCATTER_FANOUT.observe(len(asked))
        with self._counter_mutex:
            self._scatter_queries += 1
            self._slot_answers_reused += len(reused)
        return answers

    def _scatter_slots(
        self,
        query: AnyQuery,
        fingerprint: str,
        relations: list[str],
        routing: RoutingTable,
        lookup: Callable[[str, int, VersionVector], Optional[frozenset]],
    ) -> tuple[list[tuple[int, VersionVector]], dict[int, frozenset], Optional[frozenset[int]]]:
        """The slots a scatter asks (each with its guard, sampled before the
        call), the slots it serves from a fresh partial answer, and the
        pinned workers.

        Shards holding none of the query's relations cannot contribute, and
        a disjunct with a constant on a key position pins its worker shard —
        the hot per-entity lookup probes one worker plus residual.  Of the
        remaining slots, one whose partial ``lookup`` finds under the slot's
        current guard is reused, the rest are asked.  Shared by the dispatch
        (``lookup`` reads the partial cache) and the explain layer (it only
        peeks) so the two can never drift.  Pinning consults the given
        routing snapshot, so a committed reshard moves the probe with the
        bucket.
        """
        pinned = self.plan.scatter_shards(query, routing)
        workers = self.plan.spec.shards
        asked: list[tuple[int, VersionVector]] = []
        reused: dict[int, frozenset] = {}
        for index, shard in enumerate(self.shards):
            if pinned is not None and index < workers and index not in pinned:
                continue
            if not any(shard.target_relation_size(r) for r in relations):
                continue
            guard = self._target_versions(relations, slots=(index,))
            partial = lookup(fingerprint, index, guard)
            if partial is None:
                asked.append((index, guard))
            else:
                reused[index] = partial
        return asked, reused, pinned

    def _explain_monotone(
        self, query: AnyQuery, route: str, relations: list[str], cache_outcome: str
    ) -> tuple[str, dict[str, Any]]:
        """Per-disjunct scatter verdicts (rule by rule) and, for ``scatter``,
        the fan-out it would consult.  The greedy join order is included
        only when the merged target view is already current — explaining
        must not force the merged rebuild a real ``merged``-route query
        would."""
        disjuncts = (
            query.disjuncts
            if isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries))
            else ()
        )
        rules = tuple(
            ScatterRule(query=cq.name, safe=safe, rule=rule)
            for cq in disjuncts
            for safe, rule in (self.plan.scatter_verdict(cq),)
        )
        fanout = None
        if route == "cache":
            reason = "composed version vector matched a stored entry"
        elif route == "scatter":
            routing = self._router.snapshot()

            def peek(fingerprint, index, guard):
                fresh = self._slot_answers.peek(fingerprint, index, guard) == "hit"
                return frozenset() if fresh else None

            asked, reused, pinned = self._scatter_slots(
                query, query_fingerprint(query), relations, routing, peek
            )
            fanout = ShardFanout(
                shards=len(self.shards),
                pinned=None if pinned is None else tuple(sorted(pinned)),
                consulted=tuple(index for index, _ in asked),
                reused=tuple(reused),
                routing_epoch=routing.epoch,
                states=self.shard_states(),
            )
            reason = (
                f"every disjunct provably intra-shard; "
                f"{len(asked)}/{len(self.shards)} shards consulted, "
                f"{len(reused)} served from fresh partial answers "
                f"(cache {cache_outcome})"
            )
        elif disjuncts:
            unsafe = next(rule for rule in rules if not rule.safe)
            reason = (
                f"disjunct {unsafe.query!r} not provably intra-shard "
                f"({unsafe.rule}); evaluated over the merged target view "
                f"(cache {cache_outcome})"
            )
        else:
            rules = (
                ScatterRule(query=query_fingerprint(query), safe=False, rule="non-ucq"),
            )
            reason = (
                f"monotone non-UCQ: evaluated over the merged target view "
                f"(cache {cache_outcome})"
            )
        join_order = ()
        view = self._merged_view
        if view is not None and view[0] == self._target_versions():
            join_order = self._explain_join_order(query, view[1])
        return reason, {"scatter": rules, "fanout": fanout, "join_order": join_order}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = ", ".join(str(len(shard.source)) for shard in self.shards)
        return (
            f"ShardedExchange({self.name!r}: shards=[{sizes}], "
            f"epoch={self._epoch})"
        )
