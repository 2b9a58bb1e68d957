"""Long-lived materialized exchanges: incremental state plus cached answers.

A :class:`SlotExchange` is one scenario's maintained materialization (the
first three layers below) — exactly what a shard slot is.  The flat
:class:`MaterializedExchange` is that plus the core and the query front,
:class:`ExchangeFront` (normalisation, version guard, answer cache, DEQA
branch, ``explain``), which it shares with
:class:`~repro.serving.sharding.ShardedExchange`.  Together they keep:

* the live **source** instance (owned copy; mutated only through the update
  API below);
* the **canonical layer** — the plain canonical solution ``CSol(S)``,
  maintained *per trigger*: every satisfied STD-body assignment is recorded
  with the head facts it justifies, nulls are minted deterministically from
  the paper's justification keys, and a support count per fact makes
  retraction exact (a fact leaves the materialization when its last
  justifying trigger disappears);
* the **target** — the canonical layer chased with the scenario's target
  dependencies (the two coincide when there are none);
* the **core** of the target (flat exchange only), recomputed lazily by the
  block-based engine of :mod:`repro.serving.core_engine` whenever the target
  has changed since the cached core was built — the core suffices for
  answering unions of conjunctive queries, which is what the serving layer
  evaluates against it;
* a version-keyed :class:`~repro.serving.cache.CertainAnswerCache` (the
  front's) so repeated queries are O(lookup) and an update invalidates only
  the queries that can observe the touched relations.

Update propagation runs through one unified entry point, ``apply_delta``
(written once, as :meth:`SlotExchange._apply`), taking a *mixed* batch of
source additions and retractions and paying each maintenance phase **once**:

1. one *trigger re-evaluation round* — retraction candidates are enumerated
   semi-naively over the pre-removal source (a stored trigger can only die if
   some body instantiation used a removed fact), the source is mutated, and
   one pass over the listening STDs withdraws dead triggers (re-joining with
   the trigger's bindings fixed over the *final* source, so a trigger kept
   alive by an added fact never flaps) and applies fresh triggers from the
   added delta (:func:`repro.logic.cq.match_atoms_delta`; non-monotone FO
   bodies are re-evaluated and diffed once, since additions may also *revoke*
   triggers);
2. one *target repair* — with target dependencies, the canonical-layer delta
   is staged into the chased target and a single
   :func:`~repro.chase.incremental.retract_incremental` call repairs it in
   place: DRed over-delete + one worklist drain that both re-derives
   survivors and propagates the additions (a pure-addition batch is the
   same call with nothing withdrawn; only an egd-entangled retraction falls
   back to a full re-chase);
3. one *cache-invalidation round* — version counters advance once per touched
   relation, so a query goes stale at most once per batch however mixed it
   was.

A failing repair (egd conflict, blown step budget) rejects the whole batch:
the source mutation is reverted, the canonical layer re-synced, and the
target re-chased from it and installed in place — all-or-nothing.  An
egd-entangled replay installs its re-chase the same way, so in every
outcome the raw version counters advance for exactly the target relations
whose contents changed.  The cached core follows the same
philosophy: additions *and* removals are repaired block-locally by
:func:`~repro.serving.core_engine.core_of_delta`, with full recomputation
reserved for egd rewrites.

Service code goes through :class:`repro.serving.service.ExchangeService`,
which adds typed request/response objects, transactions, and per-scenario
reader/writer locking on top of these classes.  Concurrent *queries*
against one exchange are safe by themselves on CPython — the answer cache
and the core computation are mutex-guarded, and the instances' lazy index
builds publish only fully-built structures (redundant cold builds are
possible, torn reads are not); updates require the exclusive access the
service's write lock provides.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

from repro.analysis.compiled import CompiledMapping, CompiledSTD
from repro.chase.engine import ChaseFailure
from repro.chase.incremental import (
    ChaseProvenance,
    chase_incremental,
    retract_incremental,
)
from repro.core.canonical import Justification, head_value
from repro.core.certain import AnyQuery, _as_query, certain_answers, certain_answers_naive
from repro.logic.cq import (
    ConjunctiveQuery,
    UnionOfConjunctiveQueries,
    greedy_join_order,
    match_atoms,
    match_atoms_delta,
)
from repro.obs.explain import CacheProbe, JoinStep, QueryExplain
from repro.obs.flight import FLIGHT_RECORDER
from repro.obs.trace import TRACER
from repro.logic.formulas import relations_of
from repro.logic.queries import Query
from repro.logic.terms import Var
from repro.relational.domain import NullFactory
from repro.relational.instance import Instance
from repro.serving.cache import (
    CacheStats,
    CertainAnswerCache,
    VersionVector,
    query_fingerprint,
    version_vector,
)
from repro.serving.core_engine import core_of_delta, core_of_indexed

Fact = tuple[str, tuple]
TriggerKey = tuple[int, tuple]
#: Target facts a batch touched as two sides — ``(added, removed)`` raw
#: from :meth:`SlotExchange._apply` (what the flat exchange returns),
#: ``(present, absent)`` split by membership from
#: :meth:`SlotExchange.apply_delta` — or ``None`` when an egd rewrite or a
#: replay leaves them unknown.
TouchedFacts = Optional[tuple[tuple[Fact, ...], tuple[Fact, ...]]]


class ServingError(Exception):
    """Raised when a scenario cannot serve a request (failed chase, bad query)."""


@dataclass
class UpdateStats:
    """Per-exchange counters of the update machinery, one increment per phase.

    ``trigger_rounds``/``target_repairs``/``invalidation_rounds`` each advance
    exactly once per applied batch — the observable guarantee that a mixed
    add/retract batch pays one pass, not one per side.  ``replays`` counts
    egd-entangled retractions that fell back to a full re-chase,
    ``rollbacks`` the rejected (and fully undone) batches.
    """

    batches: int = 0
    trigger_rounds: int = 0
    target_repairs: int = 0
    invalidation_rounds: int = 0
    replays: int = 0
    rollbacks: int = 0


@dataclass(frozen=True)
class AppliedDelta:
    """The net source mutation one ``apply_delta`` made.

    ``added``/``removed`` list the source facts actually inserted/deleted
    (inputs already present/absent are dropped during normalisation).
    Applying the *inverse* delta — ``apply_delta(added=removed,
    removed=added)`` — restores the pre-batch scenario exactly: justification
    nulls are deterministic per trigger, so the canonical layer returns
    identically and the target up to fresh chase nulls.  The service layer's
    multi-scenario transactions rely on this for cross-scenario rollback.
    """

    added: tuple[Fact, ...] = ()
    removed: tuple[Fact, ...] = ()
    # The target facts the batch's maintenance touched (see TouchedFacts).
    # Raw from SlotExchange._apply, and so from the flat exchange: recorded,
    # not checked, so a fact may sit on either side with its membership
    # unchanged.  Split from SlotExchange.apply_delta (a shard slot,
    # in-process or behind a worker proxy).  Not part of the delta's
    # identity: an inverse or netted delta says nothing about it.
    touched: TouchedFacts = field(default=((), ()), compare=False)

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)


@dataclass(frozen=True)
class AnswerOutcome:
    """One served query: the answers plus how they were produced.

    ``route`` is the dispatch decision actually taken — ``"cache"`` (version
    vector matched a stored entry), ``"core"`` (UCQ evaluated naively over
    the maintained core), ``"target"`` (other monotone queries over the full
    chased target), or ``"deqa"`` (non-monotone queries through the DEQA
    procedures over the live source).  A sharded scenario
    (:class:`~repro.serving.sharding.ShardedExchange`) additionally reports
    ``"scatter"`` (parallel per-shard evaluation, answers unioned) and
    ``"merged"`` (evaluated over the merged target view).  ``semantics`` is
    the cache-semantics key (``"monotone"`` or the parameterised
    ``"deqa:…"``).
    """

    answers: frozenset
    semantics: str
    route: str
    cached: bool


def normalise_delta(
    source: Instance,
    added: Iterable[tuple[str, Iterable[Any]]],
    removed: Iterable[tuple[str, Iterable[Any]]],
) -> tuple[list[Fact], list[Fact]]:
    """Normalise one mixed batch against the current source — shared contract.

    Both the unsharded and the sharded ``apply_delta`` route through this:
    overlapping sides raise (a transaction nets conflicting operations out
    before calling), additions already present and retractions already
    absent drop out, and the survivors come back deterministically sorted.
    """
    raw_add = {(name, tuple(values)) for name, values in added}
    raw_remove = {(name, tuple(values)) for name, values in removed}
    overlap = raw_add & raw_remove
    if overlap:
        raise ValueError(
            f"facts cannot be added and removed in the same delta: "
            f"{sorted(overlap, key=repr)[:3]!r}"
        )
    to_add = sorted((fact for fact in raw_add if fact not in source), key=repr)
    to_remove = sorted((fact for fact in raw_remove if fact in source), key=repr)
    return to_add, to_remove


def query_target_relations(query: AnyQuery, normalized: Query) -> list[str]:
    """The target relations ``query`` reads — the scope of its version guard.

    ``normalized`` is the :class:`~repro.logic.queries.Query` coercion of
    ``query`` (algebra expressions only carry their relations there).
    """
    if isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
        return sorted({r for cq in query.disjuncts for r in cq.relations()})
    if isinstance(query, Query):
        return sorted(relations_of(query.formula))
    return sorted(relations_of(normalized.formula))


_DEQA_NEEDS_MAPPING_ALONE = (
    "non-monotone queries are served only for scenarios without target "
    "dependencies (DEQA is defined for the mapping alone)"
)


class ExchangeFront:
    """The query front of one scenario, shared by the flat and sharded exchange.

    The paper's serving rule, written once.  A monotone query is answered by
    naive evaluation over a universal solution or its core (Proposition 3),
    cached under the target version vector.  Any other query goes through
    the DEQA search over the live source (Theorem 3), cached under the
    source version vector, and is refused under target dependencies.  The
    front owns only the answer cache; an exchange built on it supplies
    ``name``, ``compiled`` and the live ``source``, plus what differs
    between its states:

    * :meth:`_target_versions` — the version vector guarding monotone entries;
    * :meth:`_monotone_route` — the route a monotone cache miss takes, the
      one decision both :meth:`answer` and :meth:`explain` read;
    * :meth:`_evaluate` — serving a monotone miss on that route;
    * :meth:`_explain_monotone` — the reason and route-specific fields of a
      monotone :class:`~repro.obs.explain.QueryExplain`.
    """

    def __init__(self, cache_capacity: int | None):
        self._cache = CertainAnswerCache(capacity=cache_capacity)

    @property
    def cache_stats(self) -> CacheStats:
        return self._cache.stats

    @property
    def cache_entries(self) -> int:
        """Number of live answer-cache entries."""
        return len(self._cache)

    def cache_stats_snapshot(self) -> CacheStats:
        """A consistent copy of the answer-cache counters (for ``stats()``)."""
        return self._cache.stats_snapshot()

    def answer(
        self,
        query: AnyQuery,
        extra_constants: int | None = None,
        max_extra_tuples: int | None = None,
    ) -> AnswerOutcome:
        """Serve ``certain_Σα(Q, S)``, reporting the route the answers took.

        The route is ``cache`` when the version vector matches a stored
        entry; otherwise a monotone query takes :meth:`_monotone_route`
        (``core``/``target`` flat, ``scatter``/``merged`` sharded) and a
        non-monotone one ``deqa``, which raises :class:`ServingError` under
        target dependencies.

        Safe under concurrent callers (the answer cache and the core cache
        are safe for concurrent readers); updates still require exclusive access.
        """
        if not TRACER.enabled:
            return self._answer_impl(query, extra_constants, max_extra_tuples)
        with TRACER.span("exchange.answer", scenario=self.name) as span:
            outcome = self._answer_impl(query, extra_constants, max_extra_tuples)
            span.annotate(
                route=outcome.route,
                cached=outcome.cached,
                answers=len(outcome.answers),
            )
            return outcome

    def _answer_impl(
        self,
        query: AnyQuery,
        extra_constants: int | None,
        max_extra_tuples: int | None,
    ) -> AnswerOutcome:
        normalized = _as_query(query, self.compiled.mapping)
        fingerprint = query_fingerprint(normalized)
        if normalized.is_monotone():
            semantics = "monotone"
            relations = query_target_relations(query, normalized)
            versions = self._target_versions(relations)
            with TRACER.span("exchange.cache_probe", semantics=semantics) as probe:
                cached = self._cache.get(fingerprint, semantics, versions)
                probe.annotate(outcome="hit" if cached is not None else "miss")
            if cached is not None:
                return AnswerOutcome(cached, semantics, "cache", True)
            route = self._monotone_route(query)
            answers = self._evaluate(route, query, relations)
            frozen = self._cache.put(fingerprint, semantics, versions, answers)
            return AnswerOutcome(frozen, semantics, route, False)

        # Non-monotone: DEQA over the live source, cached on its versions.
        with TRACER.span("exchange.evaluate", route="deqa"):
            if self.compiled.target_dependencies:
                raise ServingError(_DEQA_NEEDS_MAPPING_ALONE)
            semantics, versions = self._deqa_key(extra_constants, max_extra_tuples)
            cached = self._cache.get(fingerprint, semantics, versions)
            if cached is not None:
                return AnswerOutcome(cached, semantics, "cache", True)
            answers = certain_answers(
                self.compiled.mapping,
                self.source,
                query,
                extra_constants=extra_constants,
                max_extra_tuples=max_extra_tuples,
            )
            frozen = self._cache.put(fingerprint, semantics, versions, answers)
            return AnswerOutcome(frozen, semantics, "deqa", False)

    def _deqa_key(
        self, extra_constants: int | None, max_extra_tuples: int | None
    ) -> tuple[str, VersionVector]:
        """DEQA's cache key: the parameterised semantics and the source versions."""
        return f"deqa:{extra_constants}:{max_extra_tuples}", version_vector(
            self.source, [r.name for r in self.compiled.mapping.source.relations()]
        )

    def explain(
        self,
        query: AnyQuery,
        extra_constants: int | None = None,
        max_extra_tuples: int | None = None,
    ) -> QueryExplain:
        """The route :meth:`answer` would take, without evaluating or mutating.

        The cache is *peeked* (no hit/miss counters, no LRU reorder) and a
        monotone miss reports the route :meth:`_monotone_route` picks for
        :meth:`answer`.  A query :meth:`answer` would reject — non-monotone
        under target dependencies — comes back as ``route="error"`` with the
        reason, instead of raising.
        """
        normalized = _as_query(query, self.compiled.mapping)
        fingerprint = query_fingerprint(normalized)
        monotone = normalized.is_monotone()
        if monotone:
            semantics = "monotone"
            relations = query_target_relations(query, normalized)
            versions = self._target_versions(relations)
        elif self.compiled.target_dependencies:
            return QueryExplain(
                scenario=None,
                query=query_fingerprint(query),
                route="error",
                monotone=False,
                reason=_DEQA_NEEDS_MAPPING_ALONE,
            )
        else:
            semantics, versions = self._deqa_key(extra_constants, max_extra_tuples)
        probe = CacheProbe(
            outcome=self._cache.peek(fingerprint, semantics, versions),
            fingerprint=fingerprint,
            semantics=semantics,
            versions=versions,
        )
        fields: dict[str, Any] = {}
        if monotone:
            route = "cache" if probe.outcome == "hit" else self._monotone_route(query)
            reason, fields = self._explain_monotone(
                query, route, relations, probe.outcome
            )
        elif probe.outcome == "hit":
            route, reason = "cache", "source version vector matched a stored entry"
        else:
            route = "deqa"
            reason = (
                f"non-monotone: DEQA over the live source (cache {probe.outcome})"
            )
        return QueryExplain(
            scenario=None,
            query=query_fingerprint(query),
            route=route,
            monotone=monotone,
            reason=reason,
            cache=probe,
            **fields,
        )

    @staticmethod
    def _explain_join_order(query: AnyQuery, instance: Instance) -> tuple[JoinStep, ...]:
        """The greedy join order(s) a CQ/UCQ would bind, with cardinalities."""
        if not isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
            return ()
        return tuple(
            JoinStep(atom=atom, relation=relation, estimate=estimate, actual=actual)
            for cq in query.disjuncts
            for atom, relation, estimate, actual in greedy_join_order(cq, instance)
        )

    def certain_answers(
        self,
        query: AnyQuery,
        extra_constants: int | None = None,
        max_extra_tuples: int | None = None,
    ) -> set[tuple]:
        """Serve ``certain_Σα(Q, S)`` as a plain (mutable) answer set.

        Convenience wrapper over :meth:`answer` for callers that only want
        the answers; the service layer uses :meth:`answer` to surface the
        dispatch route and cache outcome in its typed results.
        """
        return set(
            self.answer(
                query,
                extra_constants=extra_constants,
                max_extra_tuples=max_extra_tuples,
            ).answers
        )


class SlotExchange:
    """One scenario's maintained materialization — what a shard slot is.

    Source, canonical layer and chased target, maintained by
    :meth:`apply_delta` with all-or-nothing rollback, plus the version
    vector and sizes the sharded front reads.  :meth:`answer` evaluates over
    the target (its indexes stay warm across writes), with no core and no
    cache: the front unions only null-free answers, the same over a
    universal solution as over its core (Proposition 3), and asks a slot
    only when its own partial answer is missing or stale, so a slot cache
    could never hit.  :meth:`apply_delta` reports the touched target facts
    split by membership, for the front's merged view.
    """

    def __init__(
        self,
        name: str,
        compiled: CompiledMapping,
        source: Instance,
        max_chase_steps: int | None = None,
    ):
        self.name = name
        self.compiled = compiled
        self.source = source.copy()
        self.update_stats = UpdateStats()
        # None = unbounded: the compiled mapping's weak-acyclicity gate
        # guarantees chase termination, so scenarios are not size-capped by a
        # fixed budget; set a bound to trade completeness for latency control.
        self.max_chase_steps = max_chase_steps
        self._factory = NullFactory()
        self._canonical = Instance(schema=compiled.mapping.target)
        self._support: dict[Fact, set[TriggerKey]] = {}
        self._trigger_facts: dict[TriggerKey, tuple[Fact, ...]] = {}
        self._assignments: dict[int, dict[TriggerKey, dict[Var, Any]]] = {
            cstd.index: {} for cstd in compiled.stds
        }
        # Derivation bookkeeping of the chased target layer, driving
        # delete-and-rederive; None when there are no target dependencies
        # (the canonical layer's support counts already repair everything).
        self._provenance: Optional[ChaseProvenance] = None

        # Fire only the active STDs: indexes dropped by the redundancy lint
        # contribute nothing the rest of the mapping does not already derive
        # (and they are absent from the trigger plan updates listen on).
        for cstd in compiled.active_stds:
            for projected in cstd.std.body_assignments(self.source):
                key = self._trigger_key(cstd.index, projected)
                if key not in self._assignments[cstd.index]:
                    self._apply_trigger(cstd, projected, key)
        if compiled.target_dependencies:
            self._target = self._full_chase(self._canonical)
        else:
            self._target = self._canonical

    # -- read access -------------------------------------------------------

    @property
    def canonical(self) -> Instance:
        """The maintained plain canonical solution ``CSol(S)``."""
        return self._canonical

    @property
    def target(self) -> Instance:
        """The chased materialization queries are answered against."""
        return self._target

    @property
    def target_size(self) -> int:
        """Tuples in the chased target — the cheap size ``stats()`` reports."""
        return len(self._target)

    def target_relation_size(self, name: str) -> int:
        """Tuples of one target relation — the scatter-pruning probe.

        Part of the shard surface (:class:`~repro.serving.workers.ProcessShard`
        serves it from its cached state summary), so the sharded exchange can
        prune empty shards from a fan-out without materializing any view.
        """
        return len(self._target.relation(name))

    # -- trigger bookkeeping ----------------------------------------------

    @staticmethod
    def _trigger_key(std_index: int, assignment: Mapping[Var, Any]) -> TriggerKey:
        return (
            std_index,
            tuple(sorted((v.name, value) for v, value in assignment.items())),
        )

    def _apply_trigger(
        self, cstd: CompiledSTD, assignment: dict[Var, Any], key: TriggerKey
    ) -> list[Fact]:
        """Materialize one trigger's head facts; returns the facts new to CSol."""
        self._assignments[cstd.index][key] = assignment
        nulls = {
            z: self._factory.for_key(
                Justification.build(cstd.index, assignment, z), label=z.name
            )
            for z in cstd.existential
        }
        facts: list[Fact] = []
        new_facts: list[Fact] = []
        for atom in cstd.std.head:
            fact = (
                atom.relation,
                tuple(head_value(t, assignment, nulls) for t in atom.terms),
            )
            facts.append(fact)
            supporters = self._support.setdefault(fact, set())
            if not supporters:
                new_facts.append(fact)
                self._canonical.add(*fact)
            supporters.add(key)
        self._trigger_facts[key] = tuple(facts)
        return new_facts

    def _retract_trigger(self, std_index: int, key: TriggerKey) -> list[Fact]:
        """Withdraw one trigger; returns the canonical facts that lost all support."""
        del self._assignments[std_index][key]
        removed: list[Fact] = []
        for fact in self._trigger_facts.pop(key):
            supporters = self._support.get(fact)
            if supporters is None:
                continue
            supporters.discard(key)
            if not supporters:
                del self._support[fact]
                self._canonical.discard(*fact)
                removed.append(fact)
        return removed

    def _resync_std(self, cstd: CompiledSTD) -> tuple[list[Fact], list[Fact]]:
        """Re-evaluate one STD's body in full and diff against the stored triggers.

        Needed for non-CQ (possibly non-monotone) bodies on any update, and
        for CQ bodies on retraction (semi-naive matching covers additions
        only).  Returns ``(facts added to CSol, facts removed from CSol)``.
        """
        fresh: dict[TriggerKey, dict[Var, Any]] = {}
        for projected in cstd.std.body_assignments(self.source):
            fresh[self._trigger_key(cstd.index, projected)] = projected
        stored = self._assignments[cstd.index]
        added: list[Fact] = []
        removed: list[Fact] = []
        for key in sorted(fresh.keys() - stored.keys(), key=repr):
            added.extend(self._apply_trigger(cstd, fresh[key], key))
        for key in sorted(stored.keys() - fresh.keys(), key=repr):
            removed.extend(self._retract_trigger(cstd.index, key))
        return added, removed

    # -- update API --------------------------------------------------------

    def apply_delta(
        self,
        added: Iterable[tuple[str, Iterable[Any]]] = (),
        removed: Iterable[tuple[str, Iterable[Any]]] = (),
    ) -> AppliedDelta:
        """:meth:`_apply`, with ``touched`` split by membership in the target
        now: ``(present, absent)``, each fact once, or ``None`` when unknown."""
        applied = self._apply(added, removed)
        if applied.touched is None:
            return applied
        target = self._target
        present: dict[Fact, None] = {}
        absent: dict[Fact, None] = {}
        for fact in (*applied.touched[0], *applied.touched[1]):
            (present if fact in target else absent)[fact] = None
        return AppliedDelta(
            applied.added, applied.removed, (tuple(present), tuple(absent))
        )

    def _apply(
        self,
        added: Iterable[tuple[str, Iterable[Any]]],
        removed: Iterable[tuple[str, Iterable[Any]]],
    ) -> AppliedDelta:
        """Apply one mixed batch of source additions and retractions atomically.

        The body of every ``apply_delta`` (see the module docstring for the
        three-phase structure): however mixed the batch, the materialization
        pays exactly one trigger re-evaluation round, one target repair, and
        one cache-invalidation round.  Inputs are normalised against the
        current source — additions already present and retractions already
        absent are dropped — and the two sides must be disjoint after
        normalisation (a transaction nets out conflicting operations before
        calling; passing the same fact on both sides raises ``ValueError``).

        On a failed repair (egd conflict, blown step budget) the batch is
        rejected whole: :class:`ServingError` propagates after the source,
        canonical layer and target have been rolled back to the pre-batch
        scenario.  ``touched`` is the repair's raw ``(added, removed)``
        record (see :data:`TouchedFacts`).
        """
        to_add, to_remove = normalise_delta(self.source, added, removed)
        if not to_add and not to_remove:
            return AppliedDelta()

        self.update_stats.batches += 1
        touched = sorted(
            {name for name, _ in to_add} | {name for name, _ in to_remove}
        )
        listeners = self.compiled.listeners(touched)
        # Semi-naive withdrawal candidates for CQ bodies, enumerated over the
        # *pre-removal* source: a stored trigger can only disappear if some
        # instantiation of its body used a removed fact, so the delta join
        # yields exactly the candidate trigger keys — O(delta), not O(source).
        candidates: dict[int, set[TriggerKey]] = {}
        if to_remove:
            for cstd in listeners:
                if not cstd.incremental:
                    continue
                stored = self._assignments[cstd.index]
                keys: set[TriggerKey] = set()
                for assignment in match_atoms_delta(
                    list(cstd.atoms),
                    self.source,
                    to_remove,
                    equalities=list(cstd.equalities),
                ):
                    projected = {
                        v: assignment[v] for v in cstd.free_vars if v in assignment
                    }
                    key = self._trigger_key(cstd.index, projected)
                    if key in stored:
                        keys.add(key)
                candidates[cstd.index] = keys

        for fact in to_remove:
            self.source.discard(*fact)
        for fact in to_add:
            self.source.add(*fact)

        # One trigger re-evaluation round over the final source.
        self.update_stats.trigger_rounds += 1
        canonical_added: list[Fact] = []
        canonical_removed: list[Fact] = []
        with TRACER.span(
            "exchange.trigger_round", scenario=self.name, listeners=len(listeners)
        ) as trigger_span:
            for cstd in listeners:
                if cstd.incremental:
                    stored = self._assignments[cstd.index]
                    for key in sorted(candidates.get(cstd.index, ()), key=repr):
                        # The projection drops ∃-quantified body variables, so a
                        # candidate may have surviving witnesses — including ones
                        # through facts this very batch added: re-join with the
                        # trigger's bindings fixed over the final source before
                        # withdrawing it.
                        survivor = next(
                            match_atoms(
                                list(cstd.atoms),
                                self.source,
                                dict(stored[key]),
                                equalities=list(cstd.equalities),
                            ),
                            None,
                        )
                        if survivor is None:
                            canonical_removed.extend(
                                self._retract_trigger(cstd.index, key)
                            )
                    if to_add:
                        for assignment in match_atoms_delta(
                            list(cstd.atoms),
                            self.source,
                            to_add,
                            equalities=list(cstd.equalities),
                        ):
                            projected = {
                                v: assignment[v]
                                for v in cstd.free_vars
                                if v in assignment
                            }
                            key = self._trigger_key(cstd.index, projected)
                            if key not in stored:
                                canonical_added.extend(
                                    self._apply_trigger(cstd, projected, key)
                                )
                else:
                    std_added, std_removed = self._resync_std(cstd)
                    canonical_added.extend(std_added)
                    canonical_removed.extend(std_removed)
            trigger_span.annotate(
                canonical_added=len(canonical_added),
                canonical_removed=len(canonical_removed),
            )

        try:
            with TRACER.span("exchange.refresh_target", scenario=self.name):
                touched = self._refresh_target(canonical_added, canonical_removed)
        except ServingError as failure:
            self.update_stats.rollbacks += 1
            FLIGHT_RECORDER.record(
                "rollback",
                scenario=self.name,
                added=len(to_add),
                removed=len(to_remove),
                error=str(failure),
            )
            with TRACER.span("exchange.rollback", scenario=self.name):
                self._undo_source_update(to_remove=to_add, to_restore=to_remove)
            raise
        return AppliedDelta(
            added=tuple(to_add),
            removed=tuple(to_remove),
            touched=None if touched is None else (tuple(touched[0]), tuple(touched[1])),
        )

    def _undo_source_update(self, to_remove: list[Fact], to_restore: list[Fact]) -> None:
        """Roll the exchange back to its pre-update state after a failed chase.

        A failing update (an egd conflict, a blown step budget) means the
        *updated* source has no solution — the update is rejected: the source
        mutation is reverted, the canonical layer re-synced through the same
        trigger diffing that applied it, and the target re-chased from the
        (again consistent) canonical layer and installed in place, so the
        exchange keeps serving the pre-update scenario.
        """
        for name, tup in to_remove:
            self.source.discard(name, tup)
        for name, tup in to_restore:
            self.source.add(name, tup)
        touched = sorted(
            {name for name, _ in to_remove} | {name for name, _ in to_restore}
        )
        for cstd in self.compiled.listeners(touched):
            self._resync_std(cstd)
        if self.compiled.target_dependencies:
            self._install_target(self._full_chase(self._canonical))

    def _install_target(self, fresh: Instance) -> None:
        """Make the live target equal to ``fresh`` (a from-scratch chase) in
        place: discard the facts it lacks, add the facts it gains.  The raw
        version counters then advance for exactly the relations whose
        contents changed, so cached answers over the others stay fresh."""
        target = self._target
        for fact in [fact for fact in target.facts() if fact not in fresh]:
            target.discard(*fact)
        for fact in fresh.facts():
            target.add(*fact)

    def _full_chase(self, canonical: Instance) -> Instance:
        """Chase the canonical layer from scratch, rebuilding the provenance."""
        provenance = ChaseProvenance()
        provenance.add_base(canonical.facts())
        try:
            result = chase_incremental(
                canonical,
                self.compiled.target_dependencies,
                max_steps=self.max_chase_steps,
                provenance=provenance,
            )
        except ChaseFailure as failure:
            raise ServingError(
                f"scenario {self.name!r} has no solution: {failure}"
            ) from failure
        if not result.terminated:
            raise ServingError(f"target chase of scenario {self.name!r} did not terminate")
        self._provenance = provenance
        return result.instance

    def _refresh_target(
        self, added: list[Fact], removed: list[Fact]
    ) -> Optional[tuple[list[Fact], list[Fact]]]:
        """Repair the chased target for one canonical-layer delta — one pass.

        Called exactly once per applied batch; counts as the batch's single
        target repair and single cache-invalidation round.  Every non-empty
        delta takes one path: the additions are staged into the target (base
        registrations first), and one :func:`retract_incremental` call both
        over-deletes/re-derives the withdrawal (if any) and propagates the
        additions through the same worklist drain, in place — no per-batch
        copy; the rollback path is the failure net.  In every outcome, the
        replay's install included, the raw version counters advance for
        exactly the touched relations, keeping cache entries over untouched
        relations warm.

        Returns the target facts the repair touched as ``(added, removed)``
        — the one record the core repair and
        :attr:`AppliedDelta.touched` read — or ``None`` after an egd
        rewrite or a replay, whose substitutions touch facts nobody
        recorded.
        """
        self.update_stats.target_repairs += 1
        self.update_stats.invalidation_rounds += 1
        if not self.compiled.target_dependencies:
            # The target *is* the canonical layer, already repaired in place.
            return added, removed
        if not added and not removed:
            return [], []
        # Stage the additions before the repair: a staged fact in the
        # downward closure of the withdrawal survives over-deletion through
        # its fresh base registration (the batch retracted one justification
        # while adding another).
        self._provenance.add_base(added)
        for fact in added:
            self._target.add(*fact)
        try:
            repair = retract_incremental(
                self._target,
                self.compiled.target_dependencies,
                removed,
                self._provenance,
                max_steps=self.max_chase_steps,
                seed_delta=added,
            )
        except ChaseFailure as failure:
            # Impossible for a pure retraction (a shrunken base keeps every
            # solution of the old one) but a real outcome for a batch whose
            # additions violate an egd; the target is left partially
            # repaired, and the caller rolls back and rebuilds.
            raise ServingError(
                f"scenario {self.name!r} has no solution: {failure}"
            ) from failure
        if repair.replay_required:
            # A withdrawn fact supported an egd merge whose substitution
            # cannot be unwound: replay from the repaired canonical layer
            # (which already reflects `added`; the facts staged above are
            # reconciled by the install, and the replay rebuilds the
            # provenance from scratch).
            self.update_stats.replays += 1
            FLIGHT_RECORDER.record(
                "egd_replay", scenario=self.name, removed=len(removed)
            )
            with TRACER.span("exchange.egd_replay", scenario=self.name):
                self._install_target(self._full_chase(self._canonical))
            return None
        if not repair.terminated:
            raise ServingError(f"target chase of scenario {self.name!r} did not terminate")
        if any(step.kind == "egd" for step in repair.steps):
            # Substitutions rewrote facts the delta did not record; the
            # in-place substitution bumped exactly the rewritten relations'
            # counters, but the core must be rebuilt.
            return None
        return added + repair.added, repair.removed

    # -- query serving -----------------------------------------------------

    def _target_versions(self, relations: Iterable[str] | None = None) -> VersionVector:
        if relations is None:
            relations = [r.name for r in self.compiled.mapping.target.relations()]
        return tuple(
            (name, self._target.version(name)) for name in sorted(set(relations))
        )

    def answer(self, query: AnyQuery) -> AnswerOutcome:
        """Evaluate a monotone ``query`` over the maintained target."""
        with TRACER.span("exchange.evaluate", route="target"):
            answers = certain_answers_naive(query, self._target)
        return AnswerOutcome(frozenset(answers), "monotone", "target", False)

    def close(self) -> None:
        """Nothing to release (the sharded front closes every slot)."""


class MaterializedExchange(ExchangeFront, SlotExchange):
    """The flat exchange: the query front and a lazily maintained core over
    one :class:`SlotExchange` materialization (see module docstring)."""

    # The shared entry point, bound again as this class's own attribute so
    # that wrapping ``MaterializedExchange.answer`` (profilers, layer timers)
    # leaves the sharded front's binding untouched, and vice versa.
    answer = ExchangeFront.answer

    def __init__(
        self,
        name: str,
        compiled: CompiledMapping,
        source: Instance,
        max_chase_steps: int | None = None,
        cache_capacity: int | None = None,
    ):
        ExchangeFront.__init__(self, cache_capacity)
        SlotExchange.__init__(self, name, compiled, source, max_chase_steps)
        # Serialises lazy core (re)computation between concurrent readers;
        # updates are excluded wholesale by the service's write lock.
        self._core_mutex = threading.Lock()
        self._core: Optional[Instance] = None
        self._core_versions: Optional[VersionVector] = None
        # Net (added, removed) target facts since the cached core was
        # computed, or None when the target changed in a way (egd rewrite, no
        # core yet) that requires a full core recomputation.
        self._core_delta: Optional[tuple[list[Fact], list[Fact]]] = None

    @property
    def core_size(self) -> Optional[int]:
        """Tuples in the cached core, or ``None`` if no core was computed yet.

        Introspection only (``service.stats()``): reading it never triggers
        the computation :meth:`core` would.
        """
        return len(self._core) if self._core is not None else None

    def core(self) -> Instance:
        """The core of the target, maintained rather than recomputed.

        After additions *and* removals the cached core is repaired by
        :func:`~repro.serving.core_engine.core_of_delta`: only blocks whose
        relations gained or lost facts are re-folded (removals first restore
        the previously folded-away facts of those blocks, since a deletion
        may have invalidated the fold that justified dropping them).  Only
        egd rewrites — whose substitutions touch unrecorded relations — fall
        back to a full block-based recomputation.

        Thread-safe against concurrent readers: the computation runs under a
        mutex (when the cached core is current, the cost is one version-vector
        comparison).
        """
        with self._core_mutex:
            versions = self._target_versions()
            if self._core is not None and self._core_versions == versions:
                return self._core
            if self._core is not None and self._core_delta is not None:
                added, removed = self._core_delta
                # Addition-only deltas omit the target on purpose:
                # serving-layer additions never reuse a folded-away null
                # (chase nulls are fresh; a justification null returns only
                # after its facts left the target, i.e. through a removal), so
                # the reused-null scan core_of_delta runs when given a target
                # would be pure overhead.
                self._core = core_of_delta(
                    self._core, added, removed, target=self._target if removed else None
                )
            else:
                self._core = core_of_indexed(self._target)
            self._core_versions = versions
            self._core_delta = ([], [])
            return self._core

    def apply_delta(
        self,
        added: Iterable[tuple[str, Iterable[Any]]] = (),
        removed: Iterable[tuple[str, Iterable[Any]]] = (),
    ) -> AppliedDelta:
        """:meth:`SlotExchange._apply`, its raw ``touched`` record folded
        into the pending core repair.  A rejected batch drops every cached
        answer: it may have bumped versions of relations now back to their
        old contents, and rollbacks are rare."""
        try:
            applied = self._apply(added, removed)
        except ServingError:
            self._core_delta = None
            self._cache.invalidate_all()
            raise
        touched = applied.touched
        if touched is None:
            self._core_delta = None
        elif self._core_delta is not None:
            self._core_delta[0].extend(touched[0])
            self._core_delta[1].extend(touched[1])
        return applied

    def _monotone_route(self, query: AnyQuery) -> str:
        """``core`` for UCQs, ``target`` for other monotone queries.

        The core suffices for unions of conjunctive queries (null-free UCQ
        answers are invariant under the homomorphic equivalence of target
        and core) and is smaller; other monotone queries need the chased
        target itself.
        """
        if isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
            return "core"
        return "target"

    def _evaluate(self, route: str, query: AnyQuery, relations: list[str]) -> set[tuple]:
        with TRACER.span("exchange.evaluate", route=route):
            return certain_answers_naive(
                query, self.core() if route == "core" else self._target
            )

    def _explain_monotone(
        self, query: AnyQuery, route: str, relations: list[str], cache_outcome: str
    ) -> tuple[str, dict[str, Any]]:
        """The reason per route, plus the join order against the live
        target's cardinalities (the core may be lazily stale, and explaining
        must not trigger its recomputation)."""
        if route == "cache":
            reason = "version vector matched a stored entry"
        elif route == "core":
            reason = f"UCQ/CQ over the maintained core (cache {cache_outcome})"
        else:
            reason = f"monotone non-UCQ over the chased target (cache {cache_outcome})"
        return reason, {"join_order": self._explain_join_order(query, self._target)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MaterializedExchange({self.name!r}: |S|={len(self.source)}, "
            f"|T|={len(self._target)}, cache={len(self._cache)})"
        )
