"""Shardability: which rules fire shard-locally under a partition, and why not.

A :class:`PartitionSpec` names the partition key of each source relation (a
position, ``0`` by default) and the worker-shard count.  A source fact is
routed by its key value through the live routing table
(:meth:`ShardPlan.shard_of`, the one fact router; see
:mod:`repro.serving.elastic`) — unless its relation was routed to the
residual shard by :func:`analyse_shardability`:

* an STD is *shard-local* iff its body is a conjunctive query connected
  through the partition key — a single-atom body (each trigger uses one
  source fact, which lives in exactly one shard), or a key-join (one
  variable occupies the key position of every body atom, so all body facts
  of any trigger share a key value and hash to the same shard);
* non-local STDs (non-CQ bodies, joins not aligned on the key) route every
  source relation they read to the residual shard; a key-join STD reading
  both residual and partitioned relations drags the rest of its body along
  (its triggers must be intra-shard *somewhere*);
* target dependencies are checked against a key-propagation fixpoint over
  the target relations: positions provably carrying the shard key are
  tracked through STD heads and tgd heads, and a dependency is shard-safe
  iff its body is a single atom, lives entirely in residual-produced
  relations, or key-joins partitioned-produced relations on propagated key
  positions.  An unsafe dependency forces the relations it touches — and,
  transitively, everything that produces them — onto the residual shard.

The analysis is *conservative by construction*: anything it cannot prove
intra-shard lands in the residual shard, where a single exchange maintains
it exactly like the unsharded serving layer — correctness never depends on
the analysis being complete (``force_residual=True`` degenerates the whole
scenario to the residual shard, which the differential tests exercise).
:class:`~repro.serving.sharding.ShardedExchange` executes the plan.

Every residual-routing decision is recorded as a :class:`ResidualReason`,
and :func:`plan_diagnostics` turns those records into per-STD /
per-dependency diagnostics, so an operator sees *why* a rule forces
residual routing when deciding on a partition layout:

* ``SHARD001`` — an STD fires on the residual shard (payload: reason kind);
* ``SHARD002`` — a target dependency forces relations residual;
* ``SHARD003`` — the whole scenario degenerates to the residual shard
  (no worker shard holds any source relation — sharding buys nothing);
* ``SHARD004`` — the plan summary (counts and routing, always emitted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional, Protocol, Sequence

from repro.analysis.compiled import CompiledMapping
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.core.certain import AnyQuery
from repro.logic.cq import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.logic.formulas import Atom
from repro.logic.terms import Const, Var

PASS_NAME = "shardability"


class KeyRouting(Protocol):
    """What a plan asks of a routing table: the worker owning a key value
    (:class:`repro.serving.elastic.RoutingTable` is the live one)."""

    def worker_of_value(self, value: Any) -> int: ...


@dataclass(frozen=True)
class PartitionSpec:
    """How a scenario's source is partitioned.

    ``shards`` counts the *worker* shards (the residual shard is always
    added on top); ``keys`` maps source relations to the position of their
    partition key, defaulting to position ``0`` — the common
    "first column is the entity id" layout.
    """

    shards: int
    keys: tuple[tuple[str, int], ...] = ()

    def __init__(self, shards: int, keys: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        if shards < 1:
            raise ValueError("a partition needs at least one worker shard")
        object.__setattr__(self, "shards", shards)
        pairs = keys.items() if isinstance(keys, Mapping) else keys
        object.__setattr__(self, "keys", tuple(sorted(pairs)))
        # key_position sits on the per-fact routing hot path; index a dict
        # built once instead of rebuilding it per lookup (a non-field
        # attribute: equality/hashing stay purely field-based).
        object.__setattr__(self, "_positions", dict(self.keys))

    def key_position(self, relation: str) -> int:
        return self._positions.get(relation, 0)


@dataclass(frozen=True)
class ResidualReason:
    """One structured residual-routing decision of the shardability analysis.

    ``message`` is the human-readable explanation; ``kind``/``subject``
    (plus the optional ``std``/``dependency`` indexes) are the
    machine-readable facets :func:`plan_diagnostics` turns into diagnostics.
    Kinds: ``forced``, ``non-cq``, ``unaligned-join``, ``extra-equalities``,
    ``straddling-join``, ``unsafe-dependency``,
    ``residual-forced-production``, ``backstop``.
    """

    kind: str
    subject: str
    message: str
    std: Optional[int] = None
    dependency: Optional[int] = None


@dataclass(frozen=True)
class _Production:
    """How one target relation's facts come into being, per the analysis.

    ``residual``/``partitioned`` record whether any producer fires in the
    residual shard / in worker shards; ``keys`` is the set of positions
    *provably* carrying the shard key in every partitioned-produced fact
    (the intersection over all partitioned producers).
    """

    residual: bool = False
    partitioned: bool = False
    keys: frozenset[int] = frozenset()


@dataclass(frozen=True)
class ShardPlan:
    """The outcome of the shardability analysis for one ``(mapping, spec)``.

    ``local_stds`` fire intra-shard over partitioned relations;
    ``residual_stds`` fire only in the residual shard (their source
    relations are all in ``residual_sources``).  ``target_keys`` holds the
    propagated key positions of partitioned-only target relations —
    the evidence :meth:`scatter_safe` checks query joins against.
    ``reason_records`` explains every residual routing decision.
    """

    spec: PartitionSpec
    local_stds: frozenset[int]
    residual_stds: frozenset[int]
    residual_sources: frozenset[str]
    partitioned_sources: frozenset[str]
    residual_targets: frozenset[str]
    partitioned_targets: frozenset[str]
    mixed_targets: frozenset[str]
    target_keys: tuple[tuple[str, tuple[int, ...]], ...]
    reason_records: tuple[ResidualReason, ...]

    def __post_init__(self) -> None:
        # The per-query scatter checks index ``target_keys`` by relation;
        # build that dict once (a non-field attribute, like
        # PartitionSpec._positions: equality/hashing stay field-based).
        object.__setattr__(
            self,
            "_keys",
            {name: frozenset(positions) for name, positions in self.target_keys},
        )

    @property
    def fully_residual(self) -> bool:
        """Did every source relation fall back to the residual shard?"""
        return not self.partitioned_sources

    def shard_of(self, relation: str, tup: tuple, routing: KeyRouting) -> int:
        """The shard index of one source fact (``spec.shards`` = residual).

        Residual relations and key-less tuples go to the residual shard;
        every other fact goes to the worker that the live routing epoch
        ``routing`` assigns its key value, so committed bucket moves take
        effect for every later batch.
        """
        if relation in self.residual_sources:
            return self.spec.shards
        position = self.spec.key_position(relation)
        if position >= len(tup):
            return self.spec.shards
        return routing.worker_of_value(tup[position])

    def scatter_safe(self, query: AnyQuery) -> bool:
        """May ``query`` be answered per shard and unioned, losing nothing?

        True when every body instantiation of the query provably lies
        within one shard: single-atom disjuncts, disjuncts whose relations
        are all residual-produced (co-located by construction), key-joins
        over partitioned-only relations aligned on propagated key
        positions — or disjuncts mentioning a never-produced relation
        (empty everywhere, so nothing to lose).
        """
        if not isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
            return False
        return all(self.scatter_verdict(cq)[0] for cq in query.disjuncts)

    def scatter_verdict(self, cq: ConjunctiveQuery) -> tuple[bool, str]:
        """One disjunct's scatter-safety verdict plus the deciding rule.

        The single source of truth for :meth:`scatter_safe` (which reduces
        to the boolean) and for the explain layer (which reports the rule
        string): ``"unproduced-relation"``, ``"single-atom"``,
        ``"residual-only"``, ``"key-joined(<var>)"`` on the safe side;
        ``"mixed-production"``, ``"not-key-joined"`` on the unsafe side.
        The rule order *is* the decision order — the first applicable rule
        decides, exactly as the dispatch does.
        """
        relations = {atom.relation for atom in cq.atoms}
        produced = self.residual_targets | self.partitioned_targets | self.mixed_targets
        if relations - produced:
            # a never-produced relation keeps the whole CQ empty
            return True, "unproduced-relation"
        if len(cq.atoms) <= 1:
            return True, "single-atom"
        if relations <= self.residual_targets:
            return True, "residual-only"
        if not relations <= self.partitioned_targets:
            return False, "mixed-production"
        joined = _key_joined(cq.atoms, self._keys)
        if joined is not None:
            return True, f"key-joined({joined.name})"
        return False, "not-key-joined"

    def scatter_shards(self, query: AnyQuery, routing: KeyRouting) -> Optional[frozenset[int]]:
        """Worker shards that can contribute answers to a scatter-safe query.

        ``None`` means every worker shard may contribute.  A disjunct whose
        body names a *constant* at a key position of a partitioned-only
        relation is pinned: all facts of such a relation carry the shard
        key there, so every body instantiation lives in that constant's
        shard and the other workers can only answer with nothing — the hot
        per-entity lookup pattern turns into a single-shard (plus residual)
        probe instead of a full fan-out.  ``routing`` is the live
        epoch-versioned table (a reshard moves the pin with the bucket).
        The residual shard is never pruned here (the caller always keeps
        it): residual-only disjuncts simply pin no worker at all.
        """
        pinned: set[int] = set()
        for cq in query.disjuncts:
            if {atom.relation for atom in cq.atoms} <= self.residual_targets:
                continue  # lives wholly in the residual shard: no worker
            shard = self._pinned_worker(cq, routing)
            if shard is None:
                return None
            pinned.add(shard)
        return frozenset(pinned)

    def _pinned_worker(self, cq: ConjunctiveQuery, routing: KeyRouting) -> Optional[int]:
        """The one worker shard a disjunct's matches can come from, if any.

        One atom with a constant on a key position of a partitioned-only
        relation pins the whole disjunct: a body instantiation needs that
        atom's fact, and all such facts share the constant's shard.
        """
        for atom in cq.atoms:
            if atom.relation not in self.partitioned_targets:
                continue
            for position in self._keys.get(atom.relation, frozenset()):
                if position < len(atom.terms):
                    term = atom.terms[position]
                    if isinstance(term, Const):
                        return routing.worker_of_value(term.value)
        return None


def _key_joined(atoms: Sequence[Atom], keys: Mapping[str, frozenset[int]]) -> Optional[Var]:
    """The variable joining ``atoms`` on key positions, or ``None``.

    A witness variable must occupy a key position of *every* atom's
    relation: then each instantiation binds it to one (constant) key value
    and every matched fact hashes to that value's shard.
    """
    first = atoms[0]
    candidates = {
        first.terms[p]
        for p in keys.get(first.relation, frozenset())
        if p < len(first.terms) and isinstance(first.terms[p], Var)
    }
    for var in sorted(candidates, key=repr):
        if all(
            any(
                p < len(atom.terms) and atom.terms[p] == var
                for p in keys.get(atom.relation, frozenset())
            )
            for atom in atoms[1:]
        ):
            return var
    return None


def _head_key_positions(head_terms: Sequence[Any], key_term: Any) -> frozenset[int]:
    """Positions of ``key_term`` in a head atom (empty unless it is a Var)."""
    if not isinstance(key_term, Var):
        return frozenset()
    return frozenset(i for i, t in enumerate(head_terms) if t == key_term)


def analyse_shardability(
    compiled: CompiledMapping,
    spec: PartitionSpec,
    force_residual: bool = False,
) -> ShardPlan:
    """Decide which STDs, source relations and dependencies are shard-local.

    See the module docstring for the rules.  The computation is two nested
    fixpoints: the inner one propagates key positions and production
    placement (residual / partitioned) through the tgd heads until stable;
    the outer one grows the residual source set whenever an unsafe
    dependency forces relations (and, through the tgd-body closure, their
    producers) onto the residual shard, then re-analyses.  Both lattices
    are finite and grow/shrink monotonically, so termination is immediate.
    """
    source_relations = sorted(r.name for r in compiled.mapping.source.relations())
    records: list[ResidualReason] = []

    def note(
        kind: str,
        message: str,
        std: Optional[int] = None,
        dependency: Optional[int] = None,
    ) -> None:
        if std is not None:
            subject = f"std:{std}"
        elif dependency is not None:
            subject = f"dependency:{dependency}"
        else:
            subject = "scenario"
        records.append(ResidualReason(kind, subject, message, std, dependency))

    # Step 1 — per-STD locality and its key variable (None for single-atom
    # bodies, which are intra-shard regardless of what sits at the key).
    std_key_var: dict[int, Optional[Var]] = {}
    aligned: set[int] = set()
    for cstd in compiled.stds:
        if force_residual:
            note(
                "forced",
                f"std {cstd.index}: residual forced by the caller",
                std=cstd.index,
            )
            continue
        if cstd.atoms is None:
            note(
                "non-cq",
                f"std {cstd.index}: non-CQ body re-evaluated in full, needs the whole source",
                std=cstd.index,
            )
            continue
        if len(cstd.atoms) == 1:
            atom = cstd.atoms[0]
            position = spec.key_position(atom.relation)
            aligned.add(cstd.index)
            std_key_var[cstd.index] = (
                atom.terms[position]
                if position < len(atom.terms) and isinstance(atom.terms[position], Var)
                else None
            )
            continue
        joined = _key_joined(
            list(cstd.atoms),
            {
                atom.relation: frozenset({spec.key_position(atom.relation)})
                for atom in cstd.atoms
            },
        )
        if joined is None or cstd.equalities:
            what = "extra equalities" if joined is not None else "join not aligned on the key"
            kind = "extra-equalities" if joined is not None else "unaligned-join"
            note(kind, f"std {cstd.index}: {what}", std=cstd.index)
            continue
        aligned.add(cstd.index)
        std_key_var[cstd.index] = joined

    residual_sources: set[str] = set()
    if force_residual:
        residual_sources = set(source_relations)
    for cstd in compiled.stds:
        if cstd.index not in aligned:
            residual_sources |= cstd.source_relations

    deps = compiled.target_dependencies
    while True:
        # Step 2 — residency closure: an aligned key-join STD with body
        # relations on both sides of the partition would never see its
        # triggers whole; drag its entire body to the residual shard.
        changed = True
        while changed:
            changed = False
            for cstd in compiled.stds:
                if cstd.index not in aligned or cstd.atoms is None or len(cstd.atoms) < 2:
                    continue
                rels = cstd.source_relations
                if rels & residual_sources and rels - residual_sources:
                    note(
                        "straddling-join",
                        f"std {cstd.index}: key-join straddles the partition, "
                        f"body moved to the residual shard",
                        std=cstd.index,
                    )
                    residual_sources |= rels
                    changed = True
        placement = {
            cstd.index: "residual"
            if cstd.source_relations <= residual_sources
            else "partitioned"
            for cstd in compiled.stds
        }

        # Step 3 — seed target production from the STD heads.
        state: dict[str, _Production] = {}

        def contribute(relation: str, residual: bool, keys: Optional[frozenset[int]]) -> bool:
            old = state.get(relation, _Production())
            if residual:
                new = _Production(True, old.partitioned, old.keys)
            else:
                merged = keys if not old.partitioned else (old.keys & keys)
                new = _Production(old.residual, True, merged)
            if new != old:
                state[relation] = new
                return True
            return False

        for cstd in compiled.stds:
            key_var = std_key_var.get(cstd.index)
            for head in cstd.std.head:
                if placement[cstd.index] == "residual":
                    contribute(head.relation, True, None)
                else:
                    contribute(
                        head.relation, False, _head_key_positions(head.terms, key_var)
                    )

        # Step 4 — inner fixpoint: classify each dependency's firing
        # placement under the current state and push tgd-head production
        # until nothing moves.  At the fixpoint the state is closed under
        # its own classifications; stale optimistic contributions from
        # earlier passes only ever *shrink* key sets or *add* placement
        # flags, i.e. err conservative.
        def classify(body: Sequence[Atom]) -> tuple[str, Optional[Var]]:
            productions = [state.get(atom.relation) for atom in body]
            if any(p is None or (not p.residual and not p.partitioned) for p in productions):
                return "never", None  # some body relation has no facts, ever
            if len(body) == 1:
                production = productions[0]
                kind = (
                    "mixed"
                    if production.residual and production.partitioned
                    else ("residual" if production.residual else "partitioned")
                )
                return f"single-{kind}", None
            if all(p.residual and not p.partitioned for p in productions):
                return "residual", None
            if all(p.partitioned and not p.residual for p in productions):
                keys = {atom.relation: state[atom.relation].keys for atom in body}
                joined = _key_joined(list(body), keys)
                if joined is not None:
                    return "partitioned", joined
            return "unsafe", None

        stable = False
        while not stable:
            stable = True
            for dep in deps:
                heads = getattr(dep, "head", ())
                if not heads:
                    continue  # egds produce nothing
                firing, key_var = classify(dep.body)
                if firing == "never" or firing == "unsafe":
                    continue
                if firing in ("residual", "single-residual", "single-mixed"):
                    for head in heads:
                        if contribute(head.relation, True, None):
                            stable = False
                if firing in ("partitioned", "single-partitioned", "single-mixed"):
                    if firing == "partitioned":
                        key_terms = {key_var}
                    else:
                        body_atom = dep.body[0]
                        key_terms = {
                            body_atom.terms[p]
                            for p in state[body_atom.relation].keys
                            if p < len(body_atom.terms)
                            and isinstance(body_atom.terms[p], Var)
                        }
                    for head in heads:
                        positions = frozenset(
                            i for i, t in enumerate(head.terms) if t in key_terms
                        )
                        if contribute(head.relation, False, positions):
                            stable = False

        # Step 5 — unsafe dependencies force their relations residual-only.
        forced: set[str] = set()
        for dep_index, dep in enumerate(deps):
            firing, _ = classify(dep.body)
            if firing == "unsafe":
                forced |= {atom.relation for atom in dep.body}
                forced |= {atom.relation for atom in getattr(dep, "head", ())}
                note(
                    "unsafe-dependency",
                    f"dependency {dep!r} may join across the partition; its "
                    f"relations fall back to the residual shard",
                    dependency=dep_index,
                )
        if not forced:
            break
        # A tgd producing a forced relation from worker shards would keep
        # scattering its facts: its body relations are forced too.
        growing = True
        while growing:
            growing = False
            for dep in deps:
                heads = getattr(dep, "head", ())
                if not heads:
                    continue
                if {atom.relation for atom in heads} & forced:
                    body_rels = {atom.relation for atom in dep.body}
                    if not body_rels <= forced:
                        forced |= body_rels
                        growing = True
        before = set(residual_sources)
        for cstd in compiled.stds:
            if placement[cstd.index] == "partitioned" and (
                {head.relation for head in cstd.std.head} & forced
            ):
                note(
                    "residual-forced-production",
                    f"std {cstd.index}: produces residual-forced relations",
                    std=cstd.index,
                )
                residual_sources |= cstd.source_relations
        if residual_sources == before:
            # Defensive backstop: every producer is already residual, so no
            # unsafe classification should survive — but if the lattice
            # walk ever disagrees, total fallback is always correct.
            note("backstop", "analysis backstop: whole source routed residual")
            residual_sources = set(source_relations)
            if before == residual_sources:
                break

    residual_targets = {
        name for name, p in state.items() if p.residual and not p.partitioned
    }
    partitioned_targets = {
        name for name, p in state.items() if p.partitioned and not p.residual
    }
    mixed_targets = {name for name, p in state.items() if p.residual and p.partitioned}
    return ShardPlan(
        spec=spec,
        local_stds=frozenset(
            i for i, where in placement.items() if where == "partitioned"
        ),
        residual_stds=frozenset(
            i for i, where in placement.items() if where == "residual"
        ),
        residual_sources=frozenset(residual_sources),
        partitioned_sources=frozenset(set(source_relations) - residual_sources),
        residual_targets=frozenset(residual_targets),
        partitioned_targets=frozenset(partitioned_targets),
        mixed_targets=frozenset(mixed_targets),
        target_keys=tuple(
            sorted(
                (name, tuple(sorted(state[name].keys)))
                for name in partitioned_targets
            )
        ),
        reason_records=tuple(records),
    )


def plan_diagnostics(plan: ShardPlan) -> tuple[Diagnostic, ...]:
    """Diagnostics for one computed shard plan."""
    out: list[Diagnostic] = []
    for record in plan.reason_records:
        if record.std is not None:
            out.append(
                Diagnostic(
                    "SHARD001",
                    Severity.WARNING,
                    PASS_NAME,
                    record.subject,
                    record.message,
                    {"kind": record.kind, "std": record.std},
                )
            )
        elif record.dependency is not None:
            out.append(
                Diagnostic(
                    "SHARD002",
                    Severity.WARNING,
                    PASS_NAME,
                    record.subject,
                    record.message,
                    {"kind": record.kind, "dependency": record.dependency},
                )
            )
    if plan.fully_residual:
        out.append(
            Diagnostic(
                "SHARD003",
                Severity.WARNING,
                PASS_NAME,
                "scenario",
                "every source relation routed to the residual shard; the worker "
                "shards stay empty and sharding buys nothing",
                {"residual_sources": sorted(plan.residual_sources)},
            )
        )
    out.append(
        Diagnostic(
            "SHARD004",
            Severity.INFO,
            PASS_NAME,
            "scenario",
            f"shard plan: {len(plan.local_stds)} local / "
            f"{len(plan.residual_stds)} residual STD(s), "
            f"{len(plan.partitioned_sources)} partitioned / "
            f"{len(plan.residual_sources)} residual source relation(s)",
            {
                "local_stds": sorted(plan.local_stds),
                "residual_stds": sorted(plan.residual_stds),
                "partitioned_sources": sorted(plan.partitioned_sources),
                "residual_sources": sorted(plan.residual_sources),
                "partitioned_targets": sorted(plan.partitioned_targets),
                "residual_targets": sorted(plan.residual_targets),
                "mixed_targets": sorted(plan.mixed_targets),
            },
        )
    )
    return tuple(out)


def analyse_shardability_diagnostics(
    compiled: CompiledMapping,
    spec: PartitionSpec | None = None,
    shards: int = 4,
) -> tuple[Diagnostic, ...]:
    """Compute (or default) a partition spec and report the plan's reasons."""
    return plan_diagnostics(analyse_shardability(compiled, spec or PartitionSpec(shards)))
