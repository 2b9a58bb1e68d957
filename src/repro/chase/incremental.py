"""Incremental (delta-driven) standard chase, with delete-and-rederive.

The naive engine of :mod:`repro.chase.engine` restarts trigger enumeration
from scratch after every applied step, which is quadratic-or-worse in the
number of steps.  This module implements the same standard chase as a
*worklist* algorithm:

1. **Seeding** — all triggers of every dependency are enumerated once over the
   initial instance and pushed onto a queue.
2. **Delta propagation** — after a tgd step adds tuples (or an egd step
   rewrites them), only the dependencies whose body mentions an affected
   relation are re-matched, and only through
   :func:`repro.logic.cq.match_atoms_delta`, which enumerates exactly the
   assignments using at least one affected tuple.
3. **Validation at fire time** — queued triggers may be stale (an egd may have
   rewritten the values they mention, or merged away a body tuple), so before
   firing, a trigger's values are normalised through the accumulated
   null-substitution map and its body is re-checked via index lookups; tgd
   triggers additionally re-check head satisfiability, exactly as the standard
   chase requires.

On top of the forward chase, the module implements **incremental retraction**
in the style of delete-and-rederive (DRed, Gupta–Mumick–Subrahmanian).  A
:class:`ChaseProvenance` records, per applied step, the instantiated body
facts (*premises*) and head facts (*conclusions*), kept in *current* form
across egd substitutions; each derived fact carries the set of steps
supporting it, and facts of the un-chased seed carry *base* registrations.
:func:`retract_incremental` then repairs a maintained chase result in place:

* **over-delete** — the downward closure of the withdrawn facts through the
  provenance graph is removed (a fact dies when its last base registration
  and its last alive supporting step are gone; a step dies when any of its
  premises dies);
* **egd guard** — if a dying step is an egd, its substitution may no longer
  be forced and cannot be unwound (the merged values are indistinguishable),
  so the retraction reports ``replay_required`` *without touching anything*
  and the caller re-chases from its repaired base;
* **re-derive** — a trigger can need (re-)firing only if every head witness
  it had used a deleted fact, so for every deleted fact and every tgd head
  atom it unifies with, the body matches over the surviving instance are
  queued, and the ordinary worklist (validation, delta propagation, fresh
  nulls for existentials) re-derives the survivors.

Invariants this relies on (and that the differential tests in
``tests/chase/test_incremental_chase.py`` and ``tests/chase/test_retraction.py``
exercise):

* instance growth and egd substitutions preserve head satisfiability, so a
  trigger skipped as "already satisfied" never needs to be revisited;
* a stale trigger whose body atoms reappear later is re-discovered through the
  delta of whatever step re-added them, so dropping it at fire time is safe;
* egd substitutions are recorded in a union-find map with path compression
  (:func:`resolve_compressed`) so triggers queued before a substitution are
  normalised, not lost;
* every surviving fact after over-deletion has a surviving derivation whose
  leaves are surviving base facts, so the retracted instance is reachable by
  a valid chase sequence from the repaired base and chasing it on yields a
  universal solution of that base.

The result is a :class:`~repro.chase.engine.ChaseResult` with the same trace
structure as the naive engine; the two engines produce homomorphically
equivalent instances (identical ones for full dependencies) and agree on egd
failures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

from repro.chase.dependencies import EGD, TGD
from repro.chase.engine import ChaseFailure, ChaseResult, ChaseStep, _head_satisfiable
from repro.logic.cq import match_atoms, match_atoms_delta
from repro.logic.terms import Const, Var
from repro.relational.domain import NullFactory, is_null
from repro.relational.instance import Instance

Fact = tuple[str, tuple]


def resolve_compressed(canon: dict[Any, Any], value: Any) -> Any:
    """Resolve ``value`` through a union-find substitution map, compressing.

    ``canon`` maps merged-away values to their replacements; chains arise when
    a replacement is itself merged later.  The root is found by walking the
    chain once, then every entry on the walked path is repointed directly at
    the root, so repeated resolutions under merge-heavy workloads are
    amortised O(1) instead of O(chain length).
    """
    root = value
    while root in canon:
        root = canon[root]
    while value != root:
        parent = canon[value]
        canon[value] = root
        value = parent
    return root


def _body_facts(
    dependency: TGD | EGD, assignment: dict[Var, Any], instance: Instance
) -> Optional[list[Fact]]:
    """The fully instantiated body as facts of ``instance``, or ``None`` if stale."""
    facts: list[Fact] = []
    for atom in dependency.body:
        values = []
        for term in atom.terms:
            if isinstance(term, Const):
                values.append(term.value)
            else:
                if term not in assignment:
                    return None
                values.append(assignment[term])
        tup = tuple(values)
        if tup not in instance._tuples(atom.relation):  # lint: allow(private-accessor)
            return None
        facts.append((atom.relation, tup))
    return facts


def _trigger_key(dep_index: int, assignment: dict[Var, Any]) -> tuple:
    items = sorted(assignment.items(), key=lambda kv: kv[0].name)
    return (dep_index, tuple((v.name, value) for v, value in items))


class ChaseProvenance:
    """Derivation bookkeeping for a maintained chase result (see module docstring).

    One provenance object accompanies one long-lived chased instance: the
    owner registers the un-chased seed facts with :meth:`add_base`, passes the
    object to every :func:`chase_incremental` call that extends the instance
    (each applied step is recorded), and hands it to
    :func:`retract_incremental` to repair the instance after removals.  All
    facts are kept in *current* form: egd substitutions remap every internal
    structure (and record a per-fact lineage so the owner can translate a
    fact it added long ago to today's merged form via :meth:`current_form`).
    """

    def __init__(self) -> None:
        self._next_step = 0
        # step id -> 'tgd' | 'egd'
        self.kind: dict[int, str] = {}
        # step id -> instantiated body facts (current form).
        self.premises: dict[int, tuple[Fact, ...]] = {}
        # tgd step id -> instantiated head facts (current form, new or not).
        self.conclusions: dict[int, tuple[Fact, ...]] = {}
        # egd step id -> the (merged-away value, kept value) pair — the undo
        # information deciding replay: if the step dies, the merge cannot be
        # unwound and the caller must re-chase.
        self.equated: dict[int, tuple[Any, Any]] = {}
        # fact -> steps whose head instantiated it (its derivations).
        self.support: dict[Fact, set[int]] = {}
        # fact -> steps having it among their premises.
        self.uses: dict[Fact, set[int]] = {}
        # fact (current form) -> number of open base registrations.
        self.base: dict[Fact, int] = {}
        # lineage of rewritten facts: original form -> current form (flat),
        # and its reverse index for remapping.
        self._forward: dict[Fact, Fact] = {}
        self._originals: dict[Fact, set[Fact]] = {}
        # Facts produced by a substitution *collision* (two distinct facts
        # merged into one): their pooled support conflates derivations that
        # were distinct before the merge, so retractions touching them cannot
        # be repaired locally and force a replay.
        self.merged: set[Fact] = set()

    # -- owner API ---------------------------------------------------------

    def add_base(self, facts: Iterable[Fact]) -> None:
        """Register un-derived seed facts (one registration per call per fact).

        Must be called *before* the chase call that may rewrite them, so the
        registration tracks substitutions.  Re-registering a fact that was
        withdrawn and rewritten in a previous era restarts its lineage.
        """
        for name, tup in facts:
            fact = (name, tuple(tup))
            stale = self._forward.pop(fact, None)
            if stale is not None:
                originals = self._originals.get(stale)
                if originals is not None:
                    originals.discard(fact)
                    if not originals:
                        del self._originals[stale]
            self.base[fact] = self.base.get(fact, 0) + 1

    def current_form(self, fact: Fact) -> Fact:
        """Today's form of a fact registered earlier (identity if never rewritten)."""
        name, tup = fact
        return self._forward.get((name, tuple(tup)), (name, tuple(tup)))

    def is_derived(self, fact: Fact) -> bool:
        return bool(self.support.get(fact))

    def __len__(self) -> int:
        """Number of recorded (alive) steps."""
        return len(self.kind)

    # -- recording (called by the worklist engine) -------------------------

    def record_tgd(self, premises: list[Fact], conclusions: list[Fact]) -> int:
        step = self._next_step
        self._next_step += 1
        self.kind[step] = "tgd"
        self.premises[step] = tuple(premises)
        self.conclusions[step] = tuple(conclusions)
        for fact in premises:
            self.uses.setdefault(fact, set()).add(step)
        for fact in conclusions:
            self.support.setdefault(fact, set()).add(step)
        return step

    def record_egd(self, premises: list[Fact], equated: tuple[Any, Any]) -> int:
        step = self._next_step
        self._next_step += 1
        self.kind[step] = "egd"
        self.premises[step] = tuple(premises)
        self.equated[step] = equated
        for fact in premises:
            self.uses.setdefault(fact, set()).add(step)
        return step

    def remap(self, changes: Iterable[tuple[str, tuple, tuple]]) -> None:
        """Rewrite every structure after an egd substitution.

        ``changes`` is the rewrite list returned by
        :meth:`~repro.relational.instance.Instance.substitute_value`.  Facts
        merging into an existing fact pool their supports, uses, base counts
        and lineages.
        """
        for name, old_tup, new_tup in changes:
            old: Fact = (name, old_tup)
            new: Fact = (name, new_tup)
            collided = new in self.support or new in self.uses or new in self.base
            if collided or old in self.merged:
                self.merged.discard(old)
                self.merged.add(new)
            for step in self.uses.pop(old, set()):
                self.premises[step] = tuple(
                    new if fact == old else fact for fact in self.premises[step]
                )
                self.uses.setdefault(new, set()).add(step)
            for step in self.support.pop(old, set()):
                self.conclusions[step] = tuple(
                    new if fact == old else fact for fact in self.conclusions[step]
                )
                self.support.setdefault(new, set()).add(step)
            if old in self.base:
                self.base[new] = self.base.get(new, 0) + self.base.pop(old)
            originals = self._originals.pop(old, set())
            originals.add(old)
            for original in originals:
                self._forward[original] = new
            self._originals.setdefault(new, set()).update(originals)

    # -- deletion (called by retract_incremental) --------------------------

    def _delete_closure(
        self, withdrawn: list[Fact]
    ) -> tuple[set[Fact], set[int], bool]:
        """The downward closure of withdrawing ``withdrawn`` — no mutation.

        Classic DRed *over*-deletion: every fact reached by the closure dies
        unless it still has a base registration — even when another supporting
        step is alive.  (Trusting an alive supporter would be unsound: on
        cyclic support graphs — a tgd whose multi-atom head re-derives an
        ancestor — the surviving "support" can be downstream of the very fact
        being withdrawn, keeping an underivable cluster alive forever.  The
        re-derivation pass re-inserts everything genuinely still derivable.)
        A step dies when any premise dies; conclusions of dead steps are
        examined in turn, to a fixpoint.  ``egd entangled`` is ``True`` when a
        dead step is an egd — its substitution would have to be unwound,
        which the caller handles by replaying the chase instead.
        """
        decrements: dict[Fact, int] = {}
        for fact in withdrawn:
            decrements[fact] = decrements.get(fact, 0) + 1
        if any(fact in self.merged for fact in decrements):
            # Withdrawing one registration of a collision-merged fact: the
            # remaining support conflates pre-merge derivations, so a local
            # repair could keep the wrong (e.g. constant-carrying) form alive.
            return set(), set(), True
        dead_facts: set[Fact] = set()
        dead_steps: set[int] = set()
        check: deque[Fact] = deque(decrements)
        while check:
            fact = check.popleft()
            if fact in dead_facts:
                continue
            if self.base.get(fact, 0) - decrements.get(fact, 0) > 0:
                continue
            dead_facts.add(fact)
            for step in self.uses.get(fact, ()):
                if step in dead_steps:
                    continue
                dead_steps.add(step)
                if self.kind[step] == "egd":
                    return dead_facts, dead_steps, True
                if any(c in self.merged for c in self.conclusions[step]):
                    # A dying derivation of a collision-merged fact: its
                    # pooled support can no longer be trusted (see above).
                    return dead_facts, dead_steps, True
                check.extend(self.conclusions[step])
        return dead_facts, dead_steps, False

    def _apply_deletion(
        self, withdrawn: list[Fact], dead_facts: set[Fact], dead_steps: set[int]
    ) -> None:
        """Commit a previously computed closure to the bookkeeping.

        A fact's rewrite lineage is dropped only when its *last* registration
        closes: as long as a registration remains open, later withdrawals by
        the as-registered form must keep translating.  (Facts aggregating
        registrations of *distinct* originals are always collision-marked —
        a rename without collision requires the new form to be absent — and
        the closure routes their withdrawal to a replay, so a surviving
        count here always belongs to the same original form.)
        """
        for fact in withdrawn:
            count = self.base.get(fact, 0) - 1
            if count > 0:
                self.base[fact] = count
            else:
                self.base.pop(fact, None)
                for original in self._originals.pop(fact, set()):
                    self._forward.pop(original, None)
        for step in dead_steps:
            for fact in self.premises.pop(step):
                steps = self.uses.get(fact)
                if steps is not None:
                    steps.discard(step)
                    if not steps:
                        del self.uses[fact]
            for fact in self.conclusions.pop(step, ()):
                steps = self.support.get(fact)
                if steps is not None:
                    steps.discard(step)
                    if not steps:
                        del self.support[fact]
            del self.kind[step]
            self.equated.pop(step, None)
        for fact in dead_facts:
            self.merged.discard(fact)
            # Alive steps may still list the fact as a conclusion (over-
            # deletion kills facts regardless of remaining supporters); drop
            # the stale support set — a later death of such a step discards
            # from whatever set the fact has then, guarded by .get().
            self.support.pop(fact, None)
            for original in self._originals.pop(fact, set()):
                self._forward.pop(original, None)


@dataclass
class RetractionResult:
    """Outcome of :func:`retract_incremental` (in-place repair of an instance).

    ``removed``/``added`` are the *net* instance mutations: facts deleted and
    not re-derived, and facts the re-derivation pass created.  When
    ``replay_required`` is ``True`` nothing was mutated — a dying egd step
    means the accumulated substitutions can no longer be justified, and the
    caller must re-chase from its repaired base instead.
    """

    instance: Instance
    removed: list[Fact] = field(default_factory=list)
    added: list[Fact] = field(default_factory=list)
    steps: list[ChaseStep] = field(default_factory=list)
    replay_required: bool = False
    terminated: bool = True


class _Worklist:
    """Shared trigger queue/validation/firing core of the two entry points."""

    def __init__(
        self,
        working: Instance,
        dependencies: list[TGD | EGD],
        max_steps: int | None,
        provenance: ChaseProvenance | None,
    ):
        self.working = working
        self.deps = dependencies
        self.max_steps = max_steps
        self.provenance = provenance
        self.factory = NullFactory(prefix="chase")
        self.steps: list[ChaseStep] = []
        # relation -> dependencies whose body mentions it (for delta routing).
        self.listeners: dict[str, list[int]] = {}
        for index, dep in enumerate(dependencies):
            for relation in {atom.relation for atom in dep.body}:
                self.listeners.setdefault(relation, []).append(index)
        self.queue: deque[tuple[int, dict[Var, Any], tuple]] = deque()
        self.queued: set[tuple] = set()
        # Union-find record of egd substitutions, path-compressed on resolve.
        self.canon: dict[Any, Any] = {}
        # Facts this run genuinely added (``ChaseStep.added`` also lists head
        # facts that were already present).
        self.new_facts: list[Fact] = []

    def push(self, dep_index: int, assignment: dict[Var, Any]) -> None:
        key = _trigger_key(dep_index, assignment)
        if key in self.queued:
            return
        self.queued.add(key)
        self.queue.append((dep_index, dict(assignment), key))

    def propagate(self, delta: list[Fact]) -> None:
        """Derive the new triggers reachable from freshly added/rewritten facts."""
        if not delta:
            return
        touched = {name for name, _ in delta}
        for dep_index in {i for name in touched for i in self.listeners.get(name, ())}:
            for assignment in match_atoms_delta(
                list(self.deps[dep_index].body), self.working, delta
            ):
                self.push(dep_index, assignment)

    def seed_full(self) -> None:
        for dep_index, dep in enumerate(self.deps):
            for assignment in match_atoms(list(dep.body), self.working):
                self.push(dep_index, assignment)

    def run(self) -> bool:
        """Drain the queue; ``False`` when the step budget ran out."""
        applied = len(self.steps)
        working = self.working
        provenance = self.provenance
        while self.queue:
            if self.max_steps is not None and applied >= self.max_steps:
                return False
            dep_index, assignment, key = self.queue.popleft()
            self.queued.discard(key)
            dep = self.deps[dep_index]
            assignment = {
                v: resolve_compressed(self.canon, value)
                for v, value in assignment.items()
            }
            premises = _body_facts(dep, assignment, working)
            if premises is None:
                continue  # stale: a body tuple was merged away by an egd
            if isinstance(dep, TGD):
                frontier = {v: assignment[v] for v in dep.frontier_variables()}
                if _head_satisfiable(dep, frontier, working):
                    continue
                nulls = {
                    z: self.factory.fresh(label=z.name)
                    for z in sorted(dep.existential_variables(), key=lambda v: v.name)
                }
                added: list[Fact] = []
                new_facts: list[Fact] = []
                for atom in dep.head:
                    values = []
                    for term in atom.terms:
                        if isinstance(term, Const):
                            values.append(term.value)
                        elif term in frontier:
                            values.append(frontier[term])
                        else:
                            values.append(nulls[term])
                    tup = tuple(values)
                    if tup not in working._tuples(atom.relation):  # lint: allow(private-accessor)
                        new_facts.append((atom.relation, tup))
                    working.add(atom.relation, tup)
                    added.append((atom.relation, tup))
                if provenance is not None:
                    provenance.record_tgd(premises, added)
                self.steps.append(ChaseStep("tgd", dep, frontier, added=added))
                self.new_facts.extend(new_facts)
                applied += 1
                self.propagate(new_facts)
            else:
                left = assignment[dep.left]
                right = assignment[dep.right]
                if left == right:
                    continue
                if not is_null(left) and not is_null(right):
                    raise ChaseFailure(f"egd {dep!r} requires {left!r} = {right!r}")
                if is_null(left):
                    source, target = left, right
                else:
                    source, target = right, left
                changes = working.substitute_value(source, target)
                self.canon[source] = resolve_compressed(self.canon, target)
                if provenance is not None:
                    provenance.record_egd(premises, (source, target))
                    provenance.remap(changes)
                self.steps.append(
                    ChaseStep("egd", dep, dict(assignment), equated=(source, target))
                )
                applied += 1
                # Rewritten tuples are the delta: any trigger involving them
                # may be new (merges can create joins that did not exist
                # before).
                self.propagate([(name, new) for name, _old, new in changes])
        return True


def chase_incremental(
    instance: Instance,
    dependencies: Iterable[TGD | EGD],
    max_steps: int | None = 10_000,
    seed_delta: Iterable[Fact] | None = None,
    provenance: ChaseProvenance | None = None,
) -> ChaseResult:
    """Chase ``instance`` with a delta-driven worklist (see module docstring).

    Drop-in replacement for :func:`repro.chase.engine.chase`: same signature,
    same :class:`ChaseResult`/:class:`ChaseFailure` contract, but triggers are
    derived incrementally instead of re-enumerated after every step.
    ``max_steps=None`` disables the step budget — appropriate only when
    termination is otherwise guaranteed (weakly acyclic tgds, as the serving
    layer enforces at scenario compilation).

    ``seed_delta`` restricts the *seeding* phase: instead of enumerating every
    trigger over the whole instance, only triggers using at least one of the
    given ``(relation, tuple)`` facts are queued (via
    :func:`repro.logic.cq.match_atoms_delta`).  This is sound only when the
    rest of the instance already satisfies all dependencies — the contract of
    the caller, where ``instance`` is a previously chased instance plus
    freshly added facts and ``seed_delta`` is exactly those facts.  (The
    serving layer's update path extends its maintained target through
    :func:`retract_incremental` with ``seed_delta`` instead — one repair
    call whether or not the batch withdraws anything; it calls this
    function only for from-scratch chases.)

    ``provenance``, when given, records every applied step (and is kept
    consistent across egd substitutions), enabling later
    :func:`retract_incremental` calls against the result.  Pass the same
    object to every chase call that extends the same maintained instance.
    """
    worklist = _Worklist(instance.copy(), list(dependencies), max_steps, provenance)
    if seed_delta is None:
        worklist.seed_full()
    else:
        worklist.propagate([(name, tuple(tup)) for name, tup in seed_delta])
    terminated = worklist.run()
    return ChaseResult(worklist.working, worklist.steps, terminated=terminated)


def _rederivation_triggers(
    dead_facts: set[Fact], dependencies: list[TGD | EGD]
) -> Iterator[tuple[int, dict[Var, Any]]]:
    """Candidate triggers whose head witness may have been deleted.

    A tgd trigger needs re-firing after a deletion only if *every* witness of
    its head used a deleted fact (a surviving witness keeps it satisfied) —
    in particular *some* witness mapped a head atom onto a deleted fact.  For
    every (tgd, head atom, deleted fact) unification of the atom's frontier
    positions, the body matches over the surviving instance extending the
    unified frontier are exactly the candidate triggers; fire-time validation
    re-checks satisfiability, so over-approximating is safe.
    """
    for dep_index, dep in enumerate(dependencies):
        if not isinstance(dep, TGD):
            continue
        frontier_vars = set(dep.frontier_variables())
        for atom in dep.head:
            for name, tup in dead_facts:
                if name != atom.relation or len(tup) != len(atom.terms):
                    continue
                partial: dict[Var, Any] = {}
                consistent = True
                for term, value in zip(atom.terms, tup):
                    if isinstance(term, Const):
                        if term.value != value:
                            consistent = False
                            break
                    elif term in frontier_vars:
                        if partial.get(term, value) != value:
                            consistent = False
                            break
                        partial[term] = value
                    # Existential positions unify with anything.
                if consistent:
                    yield dep_index, partial


def retract_incremental(
    instance: Instance,
    dependencies: Iterable[TGD | EGD],
    removed: Iterable[Fact],
    provenance: ChaseProvenance,
    max_steps: int | None = 10_000,
    seed_delta: Iterable[Fact] | None = None,
) -> RetractionResult:
    """Withdraw base facts from a maintained chase result, **in place**.

    ``instance`` must be the (chased) instance ``provenance`` has been
    recording for, and ``removed`` the base facts to withdraw, in the form
    they were registered with :meth:`ChaseProvenance.add_base` (merged forms
    are looked up through the recorded lineage).  Delete-and-rederive then
    runs as described in the module docstring; on the happy path the instance
    is repaired in place (version counters advance only for touched
    relations) and the provenance stays consistent for future calls.

    ``seed_delta`` turns the call into a *combined* repair for one mixed
    update batch: facts the caller just added to ``instance`` (and registered
    via :meth:`ChaseProvenance.add_base`) are propagated by the same worklist
    drain that re-derives the survivors of the deletion — one trigger
    propagation phase instead of a retraction pass followed by a separate
    addition chase (with nothing withdrawn, the call is a delta-seeded
    in-place extension of the chase).  The base registrations must happen *before* this call:
    an added fact that coincides with a fact in the downward closure of the
    withdrawal then survives over-deletion through its open registration,
    which is exactly the semantics of a batch that retracts one justification
    of a fact while adding another.

    When a withdrawn fact supports an egd step, ``replay_required`` is set
    and the retraction itself has mutated **nothing** (facts staged by the
    caller for ``seed_delta`` are the caller's to roll back): the caller
    re-chases from its repaired base and rebuilds the provenance.  Raises
    :class:`ChaseFailure` if the worklist pass fails — impossible for a pure
    retraction (a shrunken base keeps every solution of the old one), but a
    real outcome for a combined batch whose additions violate an egd; the
    instance is then partially repaired and the caller must rebuild.
    """
    deps = list(dependencies)
    withdrawn = [
        fact
        for fact in (
            provenance.current_form((name, tuple(tup))) for name, tup in removed
        )
        if fact in instance
    ]
    if not withdrawn and seed_delta is None:
        return RetractionResult(instance)
    dead_facts: set[Fact] = set()
    dead_steps: set[int] = set()
    if withdrawn:
        dead_facts, dead_steps, entangled = provenance._delete_closure(withdrawn)
        if entangled:
            return RetractionResult(instance, replay_required=True)
        provenance._apply_deletion(withdrawn, dead_facts, dead_steps)
        for fact in dead_facts:
            instance.discard(*fact)

    worklist = _Worklist(instance, deps, max_steps, provenance)
    for dep_index, partial in _rederivation_triggers(dead_facts, deps):
        for assignment in match_atoms(list(deps[dep_index].body), instance, partial):
            worklist.push(dep_index, assignment)
    if seed_delta is not None:
        worklist.propagate([(name, tuple(tup)) for name, tup in seed_delta])
    terminated = worklist.run()

    readded = set(worklist.new_facts)
    net_removed = sorted(
        (fact for fact in dead_facts if fact not in readded), key=repr
    )
    net_added = sorted(
        (fact for fact in readded if fact not in dead_facts and fact in instance),
        key=repr,
    )
    return RetractionResult(
        instance,
        removed=net_removed,
        added=net_added,
        steps=worklist.steps,
        terminated=terminated,
    )
