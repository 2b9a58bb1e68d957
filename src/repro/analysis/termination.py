"""Tiered chase-termination analysis.

The registry's old gate was binary weak acyclicity.  This module layers three
strictly more permissive decidable criteria on top, probing them in order and
reporting which tier (if any) certifies termination:

1. ``weak-acyclicity`` — Fagin–Kolaitis–Miller–Popa: no cycle through a
   special edge of the position graph.
2. ``safety`` — the safe restriction (Meier–Schmidt–Lausen): a frontier
   variable with a body occurrence at a *non-affected* position can only ever
   bind original constants, so its edges cannot carry unbounded value growth;
   drop them and re-check acyclicity-through-special on the restricted graph.
   Since the safe graph's edges are a subset of the full graph's, weak
   acyclicity implies safety.
3. ``super-weak-acyclicity`` — Marnette: track *places* (rule, side, atom,
   position).  ``Out(r)`` are the head places of ``r``'s existential
   variables; ``In(r)`` the body places of ``r``'s frontier variables.  The
   ``Move`` closure propagates a place through unification of the skolemized
   head atom with body atoms of other rules and from a body occurrence of a
   variable to its head occurrences.  ``r ⊑ r'`` iff
   ``Move(Out(r)) ∩ In(r') ≠ ∅``; accept iff ``⊑`` is acyclic.  A ``⊑``-cycle
   maps onto a position-graph closed walk through a special edge (regular
   edges for the variable steps, the special edge where a null enters a
   frontier position), so weak acyclicity again implies acceptance here.
4. ``stratified-decomposition`` — build the *feed graph* over tgds (``t``
   feeds ``t'`` when ``t``'s skolemized head unifies with a body atom of
   ``t'``), split into strongly connected components, and require every
   cyclic component to be safe *as a subset*.  Firings of a component only
   depend on facts produced by earlier components in the condensation order,
   so by induction each component chases a finite input and safety bounds it.

Equality-generating dependencies interact with tgds in ways only the plain
weak-acyclicity theorem covers (FKMP prove it for tgds + egds); when egds are
present the richer tiers are skipped and the decision records why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.chase.weak_acyclicity import Position, PositionGraph, WitnessCycle
from repro.chase.dependencies import EGD, TGD
from repro.logic.formulas import Atom
from repro.logic.terms import Const, FuncTerm, Term, Var

#: The probe order; the first accepting tier is the reported certificate.
TIER_ORDER: tuple[str, ...] = (
    "weak-acyclicity",
    "safety",
    "super-weak-acyclicity",
    "stratified-decomposition",
)

PASS_NAME = "termination"


# --------------------------------------------------------------------------
# affected positions + the safe restriction
# --------------------------------------------------------------------------


def affected_positions(tgds: Sequence[TGD]) -> frozenset[Position]:
    """Positions where a labelled null may come to rest during any chase.

    Seeded with every existential head position; a frontier variable whose
    *every* body occurrence is affected may carry a null into its head
    positions, so those become affected too (to fixpoint).
    """
    affected: set[Position] = set()
    for tgd in tgds:
        existential = tgd.existential_variables()
        for atom in tgd.head:
            for index, term in enumerate(atom.terms):
                if isinstance(term, Var) and term in existential:
                    affected.add((atom.relation, index))
    changed = True
    while changed:
        changed = False
        for tgd in tgds:
            frontier = tgd.frontier_variables()
            body_positions: dict[Var, set[Position]] = {}
            for atom in tgd.body:
                for index, term in enumerate(atom.terms):
                    if isinstance(term, Var) and term in frontier:
                        body_positions.setdefault(term, set()).add((atom.relation, index))
            for variable, positions in body_positions.items():
                if not positions <= affected:
                    continue
                for atom in tgd.head:
                    for index, term in enumerate(atom.terms):
                        if term == variable and (atom.relation, index) not in affected:
                            affected.add((atom.relation, index))
                            changed = True
    return frozenset(affected)


def safe_restriction(tgds: Sequence[TGD]) -> PositionGraph:
    """The position graph restricted to edges that can carry nulls.

    Keeps the edges of a frontier variable only when every body occurrence of
    that variable sits at an affected position; otherwise the variable only
    binds original constants and cannot feed value growth.
    """
    affected = affected_positions(tgds)

    def keep(_index: int, tgd: TGD, variable: Var) -> bool:
        for atom in tgd.body:
            for position, term in enumerate(atom.terms):
                if term == variable and (atom.relation, position) not in affected:
                    return False
        return True

    return PositionGraph.from_tgds(tgds, edge_filter=keep)


def is_safe(tgds: Sequence[TGD]) -> bool:
    return safe_restriction(tgds).special_cycle() is None


# --------------------------------------------------------------------------
# skolemization + unification shared by super-weak acyclicity and the
# stratified decomposition's feed graph
# --------------------------------------------------------------------------


def _scoped(prefix: str, term: Term) -> Term:
    """Rename a variable into a namespace so distinct firings never clash.

    The head of a rule and the body of a rule get *different* prefixes even
    for the same rule: a trigger step matches a fact produced by one firing
    against the body of another, independently bound firing, so
    ``R(x, y) → ∃z R(y, z)`` must self-unify (it diverges) rather than be
    blocked by an occurs-check on a shared variable namespace.
    """
    if isinstance(term, Var):
        return Var(f"{prefix}:{term.name}")
    return term


def _skolemized_head(rule: int, tgd: TGD) -> tuple[Atom, ...]:
    """The head of ``tgd`` with each existential ``y`` replaced by
    ``f_{rule,y}(frontier variables)`` — the semi-oblivious skolemization."""
    existential = tgd.existential_variables()
    frontier = tuple(sorted(tgd.frontier_variables(), key=lambda v: v.name))
    prefix = f"h{rule}"
    args = tuple(_scoped(prefix, v) for v in frontier)
    replacement: dict[Var, Term] = {
        y: FuncTerm(f"sk:{rule}:{y.name}", args) for y in existential
    }
    atoms = []
    for atom in tgd.head:
        terms = tuple(
            replacement.get(term, _scoped(prefix, term)) if isinstance(term, Var) else term
            for term in atom.terms
        )
        atoms.append(Atom(atom.relation, terms))
    return tuple(atoms)


def _scoped_body(rule: int, tgd: TGD) -> tuple[Atom, ...]:
    prefix = f"b{rule}"
    return tuple(
        Atom(atom.relation, tuple(_scoped(prefix, t) for t in atom.terms))
        for atom in tgd.body
    )


def _walk(term: Term, subst: dict[Var, Term]) -> Term:
    while isinstance(term, Var) and term in subst:
        term = subst[term]
    return term


def _occurs(variable: Var, term: Term, subst: dict[Var, Term]) -> bool:
    term = _walk(term, subst)
    if term == variable:
        return True
    if isinstance(term, FuncTerm):
        return any(_occurs(variable, arg, subst) for arg in term.args)
    return False


def _unify_terms(left: Term, right: Term, subst: dict[Var, Term]) -> bool:
    left, right = _walk(left, subst), _walk(right, subst)
    if left == right:
        return True
    if isinstance(left, Var):
        if _occurs(left, right, subst):
            return False
        subst[left] = right
        return True
    if isinstance(right, Var):
        return _unify_terms(right, left, subst)
    if isinstance(left, Const) or isinstance(right, Const):
        return False  # distinct constants, or a constant against a skolem term
    if isinstance(left, FuncTerm) and isinstance(right, FuncTerm):
        if left.function != right.function or left.arity != right.arity:
            return False
        return all(_unify_terms(a, b, subst) for a, b in zip(left.args, right.args))
    return False


def unify_atoms(left: Atom, right: Atom) -> dict[Var, Term] | None:
    """Most general unifier of two atoms over disjoint variable namespaces."""
    if left.relation != right.relation or len(left.terms) != len(right.terms):
        return None
    subst: dict[Var, Term] = {}
    for a, b in zip(left.terms, right.terms):
        if not _unify_terms(a, b, subst):
            return None
    return subst


# --------------------------------------------------------------------------
# super-weak acyclicity
# --------------------------------------------------------------------------

#: (rule index, "body" | "head", atom index, position index)
Place = tuple[int, str, int, int]


def _trigger_relation(tgds: Sequence[TGD]) -> dict[int, set[int]]:
    """``r ⊑ r'`` edges of the super-weak-acyclicity trigger relation.

    Unification runs over the scoped, skolemized atoms; place bookkeeping
    (``In``, ``Out``, variable steps) runs over the original tgds — in the
    skolemized head a frontier variable occupies exactly its original
    positions, so the two views agree on places.
    """
    heads = [_skolemized_head(i, t) for i, t in enumerate(tgds)]
    bodies = [_scoped_body(i, t) for i, t in enumerate(tgds)]
    frontiers = [t.frontier_variables() for t in tgds]
    existentials = [t.existential_variables() for t in tgds]

    # In(r'): body places of frontier variables, keyed for the final probe.
    in_places: dict[int, set[Place]] = {i: set() for i in range(len(tgds))}
    for i, tgd in enumerate(tgds):
        for ai, atom in enumerate(tgd.body):
            for pi, term in enumerate(atom.terms):
                if isinstance(term, Var) and term in frontiers[i]:
                    in_places[i].add((i, "body", ai, pi))

    def head_places_of(rule: int, variable: Var) -> Iterable[Place]:
        for ai, atom in enumerate(tgds[rule].head):
            for pi, term in enumerate(atom.terms):
                if term == variable:
                    yield (rule, "head", ai, pi)

    unifiable_memo: dict[tuple[int, int, int, int], bool] = {}

    def unifiable(rule: int, ai: int, other: int, bi: int) -> bool:
        key = (rule, ai, other, bi)
        if key not in unifiable_memo:
            unifiable_memo[key] = unify_atoms(heads[rule][ai], bodies[other][bi]) is not None
        return unifiable_memo[key]

    def move(out: set[Place]) -> set[Place]:
        closure = set(out)
        queue = list(out)
        while queue:
            place = queue.pop()
            rule, side, ai, pi = place
            if side == "head":
                for other, other_tgd in enumerate(tgds):
                    for bi, body_atom in enumerate(other_tgd.body):
                        if len(body_atom.terms) <= pi:
                            continue
                        if not isinstance(body_atom.terms[pi], Var):
                            continue  # a constant there blocks the null
                        if not unifiable(rule, ai, other, bi):
                            continue
                        target = (other, "body", bi, pi)
                        if target not in closure:
                            closure.add(target)
                            queue.append(target)
            else:
                variable = tgds[rule].body[ai].terms[pi]
                if not isinstance(variable, Var):
                    continue
                for target in head_places_of(rule, variable):
                    if target not in closure:
                        closure.add(target)
                        queue.append(target)
        return closure

    edges: dict[int, set[int]] = {i: set() for i in range(len(tgds))}
    for i in range(len(tgds)):
        if not existentials[i]:
            continue  # full tgds mint no nulls
        out: set[Place] = set()
        for ai, atom in enumerate(tgds[i].head):
            for pi, term in enumerate(atom.terms):
                if isinstance(term, Var) and term in existentials[i]:
                    out.add((i, "head", ai, pi))
        closure = move(out)
        for j, places in in_places.items():
            if closure & places:
                edges[i].add(j)
    return edges


def _has_cycle(edges: Mapping[int, set[int]]) -> bool:
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {node: WHITE for node in edges}
    for start in edges:
        if colour[start] != WHITE:
            continue
        stack: list[tuple[int, Iterable[int]]] = [(start, iter(sorted(edges[start])))]
        colour[start] = GREY
        while stack:
            node, successors = stack[-1]
            advanced = False
            for nxt in successors:
                if colour[nxt] == GREY:
                    return True
                if colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    stack.append((nxt, iter(sorted(edges[nxt]))))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return False


def is_super_weakly_acyclic(tgds: Sequence[TGD]) -> bool:
    return not _has_cycle(_trigger_relation(tgds))


# --------------------------------------------------------------------------
# stratified decomposition
# --------------------------------------------------------------------------


def _feed_graph(tgds: Sequence[TGD]) -> dict[int, set[int]]:
    """``t feeds t'`` when ``t``'s skolemized head can produce a fact matching
    a body atom of ``t'`` (first-order unification, not just relation names —
    ``Edge(x, x)`` bodies are not fed by heads that cannot equate columns)."""
    heads = [_skolemized_head(i, t) for i, t in enumerate(tgds)]
    bodies = [_scoped_body(i, t) for i, t in enumerate(tgds)]
    edges: dict[int, set[int]] = {i: set() for i in range(len(tgds))}
    for i, head in enumerate(heads):
        for j, body in enumerate(bodies):
            if any(
                unify_atoms(h, b) is not None for h in head for b in body
            ):
                edges[i].add(j)
    return edges


def _strongly_connected_components(edges: Mapping[int, set[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative (analysis may see large generated sets)."""
    index_of: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    counter = [0]

    def strongconnect(root: int) -> None:
        work: list[tuple[int, Iterable[int]]] = [(root, iter(sorted(edges[root])))]
        index_of[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for nxt in successors:
                if nxt not in index_of:
                    index_of[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(edges[nxt]))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))

    for node in sorted(edges):
        if node not in index_of:
            strongconnect(node)
    return components


def is_stratified_safe(tgds: Sequence[TGD]) -> bool:
    """Every cyclic component of the feed graph is safe as a tgd subset."""
    edges = _feed_graph(tgds)
    for component in _strongly_connected_components(edges):
        cyclic = len(component) > 1 or component[0] in edges[component[0]]
        if cyclic and not is_safe([tgds[i] for i in component]):
            return False
    return True


# --------------------------------------------------------------------------
# the tiered decision
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TierResult:
    name: str
    accepted: bool
    skipped: bool = False
    detail: str = ""

    def to_payload(self) -> dict[str, Any]:
        return {
            "tier": self.name,
            "accepted": self.accepted,
            "skipped": self.skipped,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class TerminationDecision:
    """The tiered gate's verdict over one dependency set."""

    accepted: bool
    tier: str | None
    tiers: tuple[TierResult, ...]
    witness: WitnessCycle | None
    graph: PositionGraph
    egds_present: bool
    tgd_count: int = 0
    egd_count: int = 0

    @property
    def weakly_acyclic(self) -> bool:
        return self.tier == "weak-acyclicity"

    def render_witness(self) -> str:
        if self.witness is None:
            return ""
        return self.witness.render()

    def diagnostics(self) -> tuple[Diagnostic, ...]:
        payload: dict[str, Any] = {
            "tier": self.tier,
            "tiers": [tier.to_payload() for tier in self.tiers],
            "tgds": self.tgd_count,
            "egds": self.egd_count,
        }
        out: list[Diagnostic] = []
        if self.accepted and self.tier == "weak-acyclicity":
            out.append(
                Diagnostic(
                    "TERM001",
                    Severity.INFO,
                    PASS_NAME,
                    "dependencies",
                    "chase termination certified by weak acyclicity",
                    payload,
                )
            )
        elif self.accepted:
            out.append(
                Diagnostic(
                    "TERM002",
                    Severity.INFO,
                    PASS_NAME,
                    "dependencies",
                    f"not weakly acyclic, admitted under the richer tier {self.tier!r}",
                    payload,
                )
            )
        else:
            witness_payload = dict(payload)
            if self.witness is not None:
                witness_payload.update(self.witness.to_payload())
            message = "no termination certificate at any tier"
            if self.witness is not None:
                message += f"; witness cycle through a special edge: {self.witness.render()}"
            out.append(
                Diagnostic(
                    "TERM003",
                    Severity.ERROR,
                    PASS_NAME,
                    "dependencies",
                    message,
                    witness_payload,
                )
            )
        if self.egds_present and self.egd_count:
            out.append(
                Diagnostic(
                    "TERM004",
                    Severity.INFO,
                    PASS_NAME,
                    "dependencies",
                    "egds present: richer tiers are only proven for pure tgd sets "
                    "and were skipped",
                    {"egds": self.egd_count},
                )
            )
        return tuple(out)


def analyse_termination(dependencies: Iterable[TGD | EGD]) -> TerminationDecision:
    """Probe the termination tiers in order and report the first certificate.

    With egds present only the weak-acyclicity tier applies (the FKMP
    termination theorem covers tgds + egds; the richer criteria do not), and
    the skipped tiers are recorded on the decision.
    """
    dependencies = list(dependencies)
    tgds = [d for d in dependencies if isinstance(d, TGD)]
    egds = [d for d in dependencies if isinstance(d, EGD)]
    graph = PositionGraph.from_tgds(tgds)
    witness = graph.special_cycle()

    tiers: list[TierResult] = []
    accepted_tier: str | None = None

    wa = witness is None
    tiers.append(TierResult("weak-acyclicity", wa, detail="no cycle through a special edge" if wa else "special-edge cycle found"))
    if wa:
        accepted_tier = "weak-acyclicity"

    if egds:
        for name in TIER_ORDER[1:]:
            tiers.append(
                TierResult(name, False, skipped=True, detail="skipped: egds present")
            )
    else:
        checks = (
            ("safety", lambda: is_safe(tgds), "safe restriction acyclic through special edges"),
            ("super-weak-acyclicity", lambda: is_super_weakly_acyclic(tgds), "trigger relation acyclic"),
            (
                "stratified-decomposition",
                lambda: is_stratified_safe(tgds),
                "every cyclic feed component safe",
            ),
        )
        for name, check, detail in checks:
            if accepted_tier is not None:
                # Still record the tier so reports show the whole ladder, but
                # do not pay for the check once a certificate exists.
                tiers.append(TierResult(name, True, skipped=True, detail="skipped: already certified"))
                continue
            ok = check()
            tiers.append(TierResult(name, ok, detail=detail if ok else "criterion violated"))
            if ok:
                accepted_tier = name

    return TerminationDecision(
        accepted=accepted_tier is not None,
        tier=accepted_tier,
        tiers=tuple(tiers),
        witness=None if accepted_tier is not None else witness,
        graph=graph,
        egds_present=bool(egds),
        tgd_count=len(tgds),
        egd_count=len(egds),
    )
