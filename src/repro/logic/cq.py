"""Conjunctive queries and unions of conjunctive queries.

Conjunctive queries (CQs) are the workhorse of data exchange: the paper's
CQ-STDs have CQ bodies, and Proposition 3 shows that for positive queries
certain answers reduce to naive evaluation.  The implementation here evaluates
CQs by *index-aware* backtracking joins: at every step of the search the
remaining atom with the smallest estimated candidate set is matched next, and
candidates are read from the per-position hash indexes of
:class:`~repro.relational.instance.Instance` whenever some position of the
atom is already bound (a constant or a previously bound variable), instead of
scanning the whole relation.  :func:`match_atoms_delta` additionally exposes a
semi-naive entry point that enumerates only the assignments using at least one
tuple from a given delta set — the primitive the incremental chase of
:mod:`repro.chase.incremental` is built on.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator, Optional

from repro.logic.formulas import (
    And,
    Atom,
    Eq,
    Exists,
    Formula,
    conjunction,
    free_variables,
)
from repro.logic.terms import Const, FuncTerm, Term, Var, term_tuple
from repro.relational.domain import fresh_null, is_null
from repro.relational.instance import Instance
from repro.relational.interning import NULL_CODE_BASE, ColumnarInstance


def _match_tuple(
    terms: tuple[Term, ...], values: tuple, assignment: dict[Var, Any]
) -> Optional[dict[Var, Any]]:
    """Try to unify a tuple of terms with a tuple of database values."""
    if len(terms) != len(values):
        return None
    new = dict(assignment)
    for term, value in zip(terms, values):
        if isinstance(term, Const):
            if term.value != value:
                return None
        elif isinstance(term, Var):
            if term in new:
                if new[term] != value:
                    return None
            else:
                new[term] = value
        else:
            raise TypeError(f"function term {term!r} not allowed in CQ atoms")
    return new


def _atom_candidates(
    atom: Atom, instance: Instance, assignment: dict[Var, Any]
) -> set[tuple]:
    """The cheapest available candidate set for ``atom`` under ``assignment``.

    Probes the per-position hash index for every bound position (constant term
    or already-assigned variable) and returns the smallest bucket; falls back
    to the full relation when no position is bound.
    """
    best = instance._tuples(atom.relation)
    for position, term in enumerate(atom.terms):
        if isinstance(term, Const):
            value = term.value
        elif isinstance(term, Var):
            if term not in assignment:
                continue
            value = assignment[term]
        else:
            raise TypeError(f"function term {term!r} not allowed in CQ atoms")
        bucket = instance._bucket(atom.relation, position, value)
        if len(bucket) < len(best):
            best = bucket
            if not best:
                break
    return best


def _atom_estimate(atom: Atom, instance: Instance, assignment: dict[Var, Any]) -> float:
    """Estimated candidate count for ``atom`` under ``assignment``.

    The greedy planner's ranking statistic: the relation's cardinality,
    refined to the average bucket size of any bound position (constant term
    or already-assigned variable).  Unlike probing the actual buckets —
    which the planner previously did for *every* remaining atom at *every*
    search node — the averages are cached per ``Instance.version()``
    (:meth:`~repro.relational.instance.Instance.bucket_estimate`), so on an
    unchanged instance re-planning costs dict lookups.  Only the atom that
    wins the ranking has its actual candidate set materialised.
    """
    estimate = float(len(instance._tuples(atom.relation)))
    for position, term in enumerate(atom.terms):
        if isinstance(term, Const):
            pass
        elif isinstance(term, Var):
            if term not in assignment:
                continue
        else:
            raise TypeError(f"function term {term!r} not allowed in CQ atoms")
        refined = instance.bucket_estimate(atom.relation, position)
        if refined < estimate:
            estimate = refined
            if not estimate:
                break
    return estimate


def greedy_join_order(
    query: "ConjunctiveQuery", instance: Instance
) -> tuple[tuple[str, str, int, int], ...]:
    """The static greedy join order the planner would bind, with cardinalities.

    Replays the ranking of :func:`match_atoms` (and the columnar planner's
    static level construction) by simulating variable binding: at each step
    the remaining atom with the smallest :func:`_atom_estimate` under the
    variables bound so far wins.  Returns one ``(atom, relation, estimate,
    actual)`` entry per body atom in binding order, where ``estimate`` is
    the planner's index-aware candidate estimate and ``actual`` the
    relation's true cardinality — the explain layer's raw material.  Pure
    read: no candidate set is materialised, no index is built beyond the
    version-cached bucket statistics the planner itself uses.
    """
    remaining = list(query.atoms)
    # _atom_estimate only membership-tests the assignment, so dummy values
    # stand in for the bindings a real evaluation would carry.
    simulated: dict[Var, Any] = {}
    steps: list[tuple[str, str, int, int]] = []
    while remaining:
        best_index = 0
        best_estimate = _atom_estimate(remaining[0], instance, simulated)
        for i in range(1, len(remaining)):
            if not best_estimate:
                break
            estimate = _atom_estimate(remaining[i], instance, simulated)
            if estimate < best_estimate:
                best_index, best_estimate = i, estimate
        atom = remaining.pop(best_index)
        steps.append(
            (
                repr(atom),
                atom.relation,
                int(best_estimate),
                len(instance._tuples(atom.relation)),
            )
        )
        for term in atom.terms:
            if isinstance(term, Var):
                simulated[term] = True
    return tuple(steps)


def _equalities_hold(
    equalities: list[Eq], current: dict[Var, Any], require_all_bound: bool = False
) -> bool:
    """Check the equalities under a (possibly partial) assignment.

    Unbound sides are treated as "not yet falsified" unless
    ``require_all_bound`` is set (the final check of a complete assignment).
    """
    for eq in equalities:
        left = _term_value(eq.left, current)
        right = _term_value(eq.right, current)
        if left is _UNBOUND or right is _UNBOUND:
            if require_all_bound:
                return False
            continue
        if left != right:
            return False
    return True


def match_atoms(
    atoms: list[Atom],
    instance: Instance,
    assignment: dict[Var, Any] | None = None,
    equalities: list[Eq] | None = None,
) -> Iterator[dict[Var, Any]]:
    """Enumerate assignments satisfying a conjunction of atoms (plus equalities).

    Atoms are matched by an index-aware backtracking join: at each step the
    remaining atom with the smallest estimated candidate count (via
    :func:`_atom_estimate` — version-cached selectivity statistics, so only
    the winning atom's buckets are actually probed) is bound next.
    Equalities are checked as soon as their variables are bound (all
    equalities here are variable/constant equalities, as produced by the
    parser and the composition algorithm's normal form).

    Over a :class:`~repro.relational.interning.ColumnarInstance` the same
    enumeration runs entirely over int codes (:func:`_columnar_search`),
    decoding to values only at the answer boundary.
    """
    assignment = dict(assignment or {})
    equalities = list(equalities or [])
    atoms = list(atoms)

    if isinstance(instance, ColumnarInstance):
        yield from _columnar_search(atoms, instance, assignment, equalities, None)
        return

    def search(remaining: list[Atom], current: dict[Var, Any]) -> Iterator[dict[Var, Any]]:
        if not _equalities_hold(equalities, current):
            return
        if not remaining:
            if not _equalities_hold(equalities, current, require_all_bound=True):
                return
            yield dict(current)
            return
        best_index = 0
        best_estimate = _atom_estimate(remaining[0], instance, current)
        for i in range(1, len(remaining)):
            if not best_estimate:
                break
            estimate = _atom_estimate(remaining[i], instance, current)
            if estimate < best_estimate:
                best_index, best_estimate = i, estimate
        atom = remaining[best_index]
        rest = remaining[:best_index] + remaining[best_index + 1 :]
        for values in _atom_candidates(atom, instance, current):
            extended = _match_tuple(atom.terms, values, current)
            if extended is not None:
                yield from search(rest, extended)

    yield from search(atoms, assignment)


def match_atoms_delta(
    atoms: list[Atom],
    instance: Instance,
    delta: Iterable[tuple[str, tuple]],
    assignment: dict[Var, Any] | None = None,
    equalities: list[Eq] | None = None,
) -> Iterator[dict[Var, Any]]:
    """Semi-naive matching: assignments using at least one tuple from ``delta``.

    ``delta`` is a set of ``(relation, tuple)`` facts assumed to be contained
    in ``instance`` (facts absent from the instance are ignored).  Every
    assignment yielded maps some atom onto a delta tuple, and each assignment
    is yielded exactly once: pivot atom ``i`` ranges over delta tuples while
    atoms before it are restricted to non-delta ("old") tuples — the standard
    duplicate-free semi-naive decomposition.  Assignments whose atoms all
    match old tuples are *not* produced; a caller that has already processed
    the pre-delta instance has seen them.
    """
    assignment = dict(assignment or {})
    equalities = list(equalities or [])
    atoms = list(atoms)

    if isinstance(instance, ColumnarInstance):
        yield from _columnar_match_delta(atoms, instance, delta, assignment, equalities)
        return

    delta_by_rel: dict[str, set[tuple]] = {}
    for name, tup in delta:
        if (name, tuple(tup)) in instance:
            delta_by_rel.setdefault(name, set()).add(tuple(tup))
    if not delta_by_rel:
        return

    # Each atom carries a mode: 'delta' | 'old' | 'any' (see pivot loop below).
    def search(
        remaining: list[tuple[Atom, str]], current: dict[Var, Any]
    ) -> Iterator[dict[Var, Any]]:
        if not _equalities_hold(equalities, current):
            return
        if not remaining:
            if not _equalities_hold(equalities, current, require_all_bound=True):
                return
            yield dict(current)
            return
        # The 'delta' pivot atom is always expanded first (its candidate set
        # is small by construction); greedy selection applies to the rest.
        best_index = next((i for i, (_a, mode) in enumerate(remaining) if mode == "delta"), None)
        if best_index is None:
            best_size = None
            for i, (atom, _mode) in enumerate(remaining):
                size = _atom_estimate(atom, instance, current)
                if best_size is None or size < best_size:
                    best_index, best_size = i, size
        atom, mode = remaining[best_index]
        rest = remaining[:best_index] + remaining[best_index + 1 :]
        rel_delta = delta_by_rel.get(atom.relation, set())
        if mode == "delta":
            candidates: Iterable[tuple] = rel_delta
        else:
            candidates = _atom_candidates(atom, instance, current)
        for values in candidates:
            if mode == "old" and values in rel_delta:
                continue
            extended = _match_tuple(atom.terms, values, current)
            if extended is not None:
                yield from search(rest, extended)

    for pivot in range(len(atoms)):
        if atoms[pivot].relation not in delta_by_rel:
            continue
        tagged = [
            (atom, "delta" if i == pivot else ("old" if i < pivot else "any"))
            for i, atom in enumerate(atoms)
        ]
        yield from search(tagged, dict(assignment))


# -- columnar fast path ------------------------------------------------------
#
# Over a ColumnarInstance the backtracking join runs entirely over int codes:
# variables compile to dense *slots* in a flat bindings list, constants to
# their interned codes, and backtracking undoes bindings through a trail —
# no per-candidate assignment-dict copy, no value hashing, no decoding until
# an answer is actually yielded.  Constants the interner has never seen get
# fresh *negative* pseudo-codes: they can never equal a stored code (all
# stored codes are non-negative), yet compare consistently with Python
# equality among themselves, so equality atoms behave exactly as in the
# generic path.


def _columnar_compile(
    atoms: list[Atom],
    equalities: list[Eq],
    assignment: dict[Var, Any],
    instance: "ColumnarInstance",
):
    """Compile atoms/equalities/seed bindings into slots and int codes."""
    interner = instance.interner
    pseudo: dict[Any, int] = {}
    pseudo_values: dict[int, Any] = {}

    def const_code(value: Any) -> int:
        code = interner.code_of(value)
        if code is None:
            code = pseudo.get(value)
            if code is None:
                code = -(len(pseudo) + 1)
                pseudo[value] = code
                pseudo_values[code] = value
        return code

    slot_of: dict[Var, int] = {}
    slot_vars: list[Var] = []

    def slot(var: Var) -> int:
        index = slot_of.get(var)
        if index is None:
            index = len(slot_vars)
            slot_of[var] = index
            slot_vars.append(var)
        return index

    compiled_atoms: list[tuple[str, tuple[tuple[int, int, int], ...]]] = []
    for atom in atoms:
        entries = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Const):
                entries.append((position, -1, const_code(term.value)))
            elif isinstance(term, Var):
                entries.append((position, slot(term), 0))
            else:
                raise TypeError(f"function term {term!r} not allowed in CQ atoms")
        compiled_atoms.append((atom.relation, tuple(entries)))

    compiled_eqs: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for eq in equalities:
        sides = []
        for term in (eq.left, eq.right):
            if isinstance(term, Const):
                sides.append((-1, const_code(term.value)))
            elif isinstance(term, Var):
                sides.append((slot(term), 0))
            else:
                raise TypeError(f"function term {term!r} not allowed here")
        compiled_eqs.append((sides[0], sides[1]))

    for var in assignment:
        slot(var)
    seed: list[int | None] = [None] * len(slot_vars)
    for var, value in assignment.items():
        seed[slot_of[var]] = const_code(value)
    return compiled_atoms, compiled_eqs, slot_vars, seed, pseudo_values


def _columnar_run(
    instance: "ColumnarInstance",
    tagged: list[tuple[str, tuple[tuple[int, int, int], ...], str]],
    compiled_eqs,
    slot_vars: list[Var],
    bindings: list,
    pseudo_values: dict[int, Any],
    delta_rows: dict[str, set[int]],
) -> Iterator[dict[Var, Any]]:
    """The trail-based backtracking enumeration shared by both entry points."""
    interner = instance.interner

    def decode(code: int) -> Any:
        if code < 0:
            return pseudo_values[code]
        return interner.decode(code)

    def equalities_hold(require_all: bool) -> bool:
        for (left_slot, left_code), (right_slot, right_code) in compiled_eqs:
            left = left_code if left_slot < 0 else bindings[left_slot]
            right = right_code if right_slot < 0 else bindings[right_slot]
            if left is None or right is None:
                if require_all:
                    return False
                continue
            if left != right:
                return False
        return True

    def estimate(relation: str, entries) -> float:
        col = instance.columnar_relation(relation)
        if col is None or col.arity != len(entries):
            return 0.0
        best = float(len(col))
        for position, slot, _code in entries:
            if slot >= 0 and bindings[slot] is None:
                continue
            refined = instance.bucket_estimate(relation, position)
            if refined < best:
                best = refined
                if not best:
                    break
        return best

    def candidates(relation: str, entries):
        col = instance.columnar_relation(relation)
        if col is None or col.arity != len(entries):
            return col, ()
        rows = None
        for position, slot, code in entries:
            probe = code if slot < 0 else bindings[slot]
            if probe is None:
                continue
            if probe < 0:  # pseudo-code: unseen value, matches nothing stored
                return col, ()
            bucket = col.index(position).get(probe)
            if bucket is None:
                return col, ()
            if rows is None or len(bucket) < len(rows):
                rows = bucket
        return col, (range(len(col)) if rows is None else rows)

    def search(remaining) -> Iterator[dict[Var, Any]]:
        if not equalities_hold(False):
            return
        if not remaining:
            if not equalities_hold(True):
                return
            yield {
                slot_vars[index]: decode(code)
                for index, code in enumerate(bindings)
                if code is not None
            }
            return
        best_index = next(
            (i for i, (_r, _e, mode) in enumerate(remaining) if mode == "delta"), None
        )
        if best_index is None:
            best_estimate = None
            for i, (relation, entries, _mode) in enumerate(remaining):
                size = estimate(relation, entries)
                if best_estimate is None or size < best_estimate:
                    best_index, best_estimate = i, size
                    if not size:
                        break
        relation, entries, mode = remaining[best_index]
        rest = remaining[:best_index] + remaining[best_index + 1 :]
        if mode == "delta":
            col = instance.columnar_relation(relation)
            if col is None or col.arity != len(entries):
                return
            rows: Iterable[int] = delta_rows.get(relation, ())
        else:
            col, rows = candidates(relation, entries)
        skip = delta_rows.get(relation) if mode == "old" else None
        row_codes = col.row_codes if col is not None else ()
        for row in rows:
            if skip is not None and row in skip:
                continue
            coded = row_codes[row]
            trail: list[int] = []
            matched = True
            for position, slot, code in entries:
                value = coded[position]
                if slot < 0:
                    if value != code:
                        matched = False
                        break
                else:
                    bound = bindings[slot]
                    if bound is None:
                        bindings[slot] = value
                        trail.append(slot)
                    elif bound != value:
                        matched = False
                        break
            if matched:
                yield from search(rest)
            for slot in trail:
                bindings[slot] = None

    yield from search(tagged)


def _columnar_search(
    atoms: list[Atom],
    instance: "ColumnarInstance",
    assignment: dict[Var, Any],
    equalities: list[Eq],
    _delta: None,
) -> Iterator[dict[Var, Any]]:
    """`match_atoms` over interned columns (same contract, coded inner loop)."""
    compiled_atoms, compiled_eqs, slot_vars, seed, pseudo_values = _columnar_compile(
        atoms, equalities, assignment, instance
    )
    tagged = [(relation, entries, "any") for relation, entries in compiled_atoms]
    yield from _columnar_run(
        instance, tagged, compiled_eqs, slot_vars, list(seed), pseudo_values, {}
    )


def _columnar_match_delta(
    atoms: list[Atom],
    instance: "ColumnarInstance",
    delta: Iterable[tuple[str, tuple]],
    assignment: dict[Var, Any],
    equalities: list[Eq],
) -> Iterator[dict[Var, Any]]:
    """`match_atoms_delta` over interned columns (same pivot decomposition)."""
    compiled_atoms, compiled_eqs, slot_vars, seed, pseudo_values = _columnar_compile(
        atoms, equalities, assignment, instance
    )
    delta_rows: dict[str, set[int]] = {}
    for name, tup in delta:
        col = instance.columnar_relation(name)
        if col is None:
            continue
        coded = instance._probe_tuple(tuple(tup))
        if coded is None:
            continue
        row = col.row_of.get(coded)
        if row is not None:
            delta_rows.setdefault(name, set()).add(row)
    if not delta_rows:
        return
    for pivot in range(len(atoms)):
        if atoms[pivot].relation not in delta_rows:
            continue
        tagged = [
            (
                relation,
                entries,
                "delta" if i == pivot else ("old" if i < pivot else "any"),
            )
            for i, (relation, entries) in enumerate(compiled_atoms)
        ]
        yield from _columnar_run(
            instance,
            tagged,
            compiled_eqs,
            slot_vars,
            list(seed),
            pseudo_values,
            delta_rows,
        )


def _columnar_coded_answers(
    head: tuple[Var, ...],
    atoms: list[Atom],
    equalities: list[Eq],
    instance: "ColumnarInstance",
) -> tuple[set[tuple[int, ...]], dict[int, Any]]:
    """Enumerate the *distinct* coded head tuples of a CQ body.

    This is the evaluate fast path: answers are deduplicated as tuples of int
    codes and decoded once at the very end, so high-multiplicity joins never
    build per-assignment ``{Var: value}`` dicts or decode duplicate answers.
    The instance cannot change during the call, so each atom's column, index
    dicts, and bucket estimates are resolved once up front rather than per
    search node.
    """
    compiled_atoms, compiled_eqs, slot_vars, seed, pseudo_values = _columnar_compile(
        atoms, equalities, {}, instance
    )
    slot_of = {var: index for index, var in enumerate(slot_vars)}
    head_slots = tuple(slot_of[v] for v in head)
    bindings: list[int | None] = list(seed)
    answers: set[tuple[int, ...]] = set()
    add_answer = answers.add

    # Per-atom prep: (entries, row_codes, index dicts and static estimates
    # aligned with entries, base size).  A missing/mismatched column means the
    # conjunction is unsatisfiable, full stop.
    prepped = []
    for relation, entries in compiled_atoms:
        col = instance.columnar_relation(relation)
        if col is None or col.arity != len(entries):
            return answers, pseudo_values
        indexes = tuple(col.index(position) for position, _slot, _code in entries)
        estimates = tuple(
            instance.bucket_estimate(relation, position)
            for position, _slot, _code in entries
        )
        prepped.append((entries, col.row_codes, indexes, estimates, float(len(col))))

    # Static greedy join order: simulate slot binding once (the planner's
    # first-visit decision at each depth), so the search loop itself carries
    # no per-node estimation or remaining-list slicing.
    levels = []
    pending = list(range(len(prepped)))
    bound = [code is not None for code in seed]
    while pending:
        best_i, best_est = pending[0], None
        for i in pending:
            entries, _rc, _ix, estimates, size = prepped[i]
            est = size
            for k, (_position, slot, _code) in enumerate(entries):
                if slot < 0 or bound[slot]:
                    if estimates[k] < est:
                        est = estimates[k]
            if best_est is None or est < best_est:
                best_i, best_est = i, est
        levels.append(prepped[best_i])
        pending.remove(best_i)
        for _position, slot, _code in prepped[best_i][0]:
            if slot >= 0:
                bound[slot] = True
    depth_count = len(levels)

    def equalities_hold(require_all: bool) -> bool:
        for (left_slot, left_code), (right_slot, right_code) in compiled_eqs:
            left = left_code if left_slot < 0 else bindings[left_slot]
            right = right_code if right_slot < 0 else bindings[right_slot]
            if left is None or right is None:
                if require_all:
                    return False
                continue
            if left != right:
                return False
        return True

    def search(depth: int) -> None:
        if compiled_eqs and not equalities_hold(False):
            return
        if depth == depth_count:
            if compiled_eqs and not equalities_hold(True):
                return
            add_answer(tuple(bindings[s] for s in head_slots))
            return
        entries, row_codes, indexes, _estimates, _size = levels[depth]
        rows = None
        for k, (_position, slot, code) in enumerate(entries):
            probe = code if slot < 0 else bindings[slot]
            if probe is None:
                continue
            if probe < 0:  # pseudo-code: unseen value, matches nothing stored
                return
            bucket = indexes[k].get(probe)
            if bucket is None:
                return
            if rows is None or len(bucket) < len(rows):
                rows = bucket
        if rows is None:
            rows = range(len(row_codes))
        next_depth = depth + 1
        for row in rows:
            coded = row_codes[row]
            trail: list[int] = []
            matched = True
            for position, slot, code in entries:
                value = coded[position]
                if slot < 0:
                    if value != code:
                        matched = False
                        break
                else:
                    bound = bindings[slot]
                    if bound is None:
                        bindings[slot] = value
                        trail.append(slot)
                    elif bound != value:
                        matched = False
                        break
            if matched:
                search(next_depth)
            for slot in trail:
                bindings[slot] = None

    search(0)
    return answers, pseudo_values


def _decode_answer_set(
    instance: "ColumnarInstance",
    coded: set[tuple[int, ...]],
    pseudo_values: dict[int, Any],
) -> set[tuple]:
    """Decode a set of coded answer tuples in bulk (one lookup per distinct code)."""
    if not coded:
        return set()
    distinct: set[int] = set()
    for tup in coded:
        distinct.update(tup)
    decode = instance.interner.decode
    value_map = {
        code: (pseudo_values[code] if code < 0 else decode(code)) for code in distinct
    }
    getter = value_map.__getitem__
    return {tuple(map(getter, tup)) for tup in coded}


def decompose_exists_cq(
    formula: Formula,
) -> Optional[tuple[list[Atom], list[Eq], set[Var]]]:
    """Decompose an ∃-prefixed conjunction of atoms/equalities for joining.

    Strips (possibly nested) ``Exists`` quantifiers, flattens the body's
    ``And`` tree, and returns ``(atoms, equalities, quantified variables)``
    when every atom term and equality side is a plain ``Var``/``Const`` — the
    shape :func:`match_atoms` can evaluate.  Returns ``None`` for any other
    shape.  Shared by the FO evaluator's ∃-block fast path and the serving
    layer's STD compilation, so the two agree on what counts as
    join-evaluable.
    """
    quantified: set[Var] = set()
    body: Formula = formula
    while isinstance(body, Exists):
        quantified.update(body.variables)
        body = body.body
    atoms: list[Atom] = []
    equalities: list[Eq] = []
    stack = [body]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.extend((node.left, node.right))
        elif isinstance(node, Atom):
            if not all(isinstance(t, (Var, Const)) for t in node.terms):
                return None
            atoms.append(node)
        elif isinstance(node, Eq):
            if not all(isinstance(t, (Var, Const)) for t in (node.left, node.right)):
                return None
            equalities.append(node)
        else:
            return None
    return atoms, equalities, quantified


_UNBOUND = object()


def _term_value(term: Term, assignment: dict[Var, Any]) -> Any:
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        return assignment.get(term, _UNBOUND)
    raise TypeError(f"function term {term!r} not allowed here")


class ConjunctiveQuery:
    """A conjunctive query ``q(x̄) :- A_1, ..., A_k``.

    ``head`` lists the answer variables; ``atoms`` is the list of body atoms.
    Equality atoms between variables and constants are also allowed.
    """

    def __init__(
        self,
        head: Iterable[Var | str],
        atoms: Iterable[Atom],
        equalities: Iterable[Eq] = (),
        name: str = "q",
    ):
        self.head: tuple[Var, ...] = tuple(Var(v) if isinstance(v, str) else v for v in head)
        self.atoms: list[Atom] = list(atoms)
        self.equalities: list[Eq] = list(equalities)
        self.name = name
        body_vars = set()
        for atom in self.atoms:
            body_vars |= free_variables(atom)
        for eq in self.equalities:
            body_vars |= free_variables(eq)
        missing = set(self.head) - body_vars
        if missing:
            raise ValueError(f"head variables {missing} do not occur in the body")

    # -- structure ---------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.head)

    @property
    def disjuncts(self) -> tuple["ConjunctiveQuery", ...]:
        """The query as a one-disjunct union: the shape a UCQ exposes."""
        return (self,)

    def variables(self) -> set[Var]:
        out = set(self.head)
        for atom in self.atoms:
            out |= free_variables(atom)
        for eq in self.equalities:
            out |= free_variables(eq)
        return out

    def existential_variables(self) -> set[Var]:
        return self.variables() - set(self.head)

    def relations(self) -> set[str]:
        return {a.relation for a in self.atoms}

    def to_formula(self) -> Formula:
        """The query as an FO formula with the head variables free."""
        body = conjunction([*self.atoms, *self.equalities])
        existentials = sorted(self.existential_variables(), key=lambda v: v.name)
        if existentials:
            return Exists(tuple(existentials), body)
        return body

    def is_boolean(self) -> bool:
        return not self.head

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, instance: Instance) -> set[tuple]:
        """All answer tuples over ``instance`` (nulls treated as plain values)."""
        if isinstance(instance, ColumnarInstance):
            coded, pseudo_values = _columnar_coded_answers(
                self.head, self.atoms, self.equalities, instance
            )
            return _decode_answer_set(instance, coded, pseudo_values)
        answers: set[tuple] = set()
        for assignment in match_atoms(self.atoms, instance, equalities=self.equalities):
            answers.add(tuple(assignment[v] for v in self.head))
        return answers

    def naive_evaluate(self, instance: Instance) -> set[tuple]:
        """Naive evaluation: evaluate treating nulls as values, keep null-free answers.

        For unions of conjunctive queries this computes the certain answers
        ``Q(T)`` of the query over the naive table ``T`` (Imieliński–Lipski),
        which is what Proposition 3 relies on.
        """
        if isinstance(instance, ColumnarInstance):
            coded, pseudo_values = _columnar_coded_answers(
                self.head, self.atoms, self.equalities, instance
            )
            null_free = {t for t in coded if not t or max(t) < NULL_CODE_BASE}
            return _decode_answer_set(instance, null_free, pseudo_values)
        return {t for t in self.evaluate(instance) if not any(is_null(v) for v in t)}

    def holds(self, instance: Instance, assignment: dict[Var, Any] | None = None) -> bool:
        """Boolean-query satisfaction (optionally with some variables pre-bound)."""
        for _ in match_atoms(self.atoms, instance, assignment, self.equalities):
            return True
        return False

    # -- classical CQ tooling ------------------------------------------------------

    def canonical_database(self) -> tuple[Instance, dict[Var, Any]]:
        """The frozen body of the query as an instance (variables become nulls)."""
        mapping: dict[Var, Any] = {}
        instance = Instance()
        for atom in self.atoms:
            values = []
            for term in atom.terms:
                if isinstance(term, Const):
                    values.append(term.value)
                else:
                    if term not in mapping:
                        mapping[term] = fresh_null(label=term.name)
                    values.append(mapping[term])
            instance.add(atom.relation, tuple(values))
        return instance, mapping

    def is_contained_in(self, other: "ConjunctiveQuery") -> bool:
        """Classical CQ containment via the homomorphism theorem (Chandra–Merlin)."""
        if self.arity != other.arity:
            return False
        canonical, mapping = self.canonical_database()
        head_tuple = tuple(
            mapping.get(v, v.name if isinstance(v, Var) else v) for v in self.head
        )
        for assignment in match_atoms(other.atoms, canonical, equalities=other.equalities):
            if tuple(assignment[v] for v in other.head) == head_tuple:
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head = ", ".join(v.name for v in self.head)
        body = ", ".join(map(repr, [*self.atoms, *self.equalities]))
        return f"{self.name}({head}) :- {body}"


class UnionOfConjunctiveQueries:
    """A union of conjunctive queries of identical arity."""

    def __init__(self, disjuncts: Iterable[ConjunctiveQuery], name: str = "q"):
        self.disjuncts = list(disjuncts)
        if not self.disjuncts:
            raise ValueError("a UCQ needs at least one disjunct")
        arities = {d.arity for d in self.disjuncts}
        if len(arities) != 1:
            raise ValueError("all disjuncts of a UCQ must have the same arity")
        self.name = name

    @property
    def arity(self) -> int:
        return self.disjuncts[0].arity

    def evaluate(self, instance: Instance) -> set[tuple]:
        out: set[tuple] = set()
        for cq in self.disjuncts:
            out |= cq.evaluate(instance)
        return out

    def naive_evaluate(self, instance: Instance) -> set[tuple]:
        return {t for t in self.evaluate(instance) if not any(is_null(v) for v in t)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return " ∪ ".join(map(repr, self.disjuncts))


def cq(head: Iterable[str], body: Iterable[tuple[str, Iterable[Any]]], name: str = "q") -> ConjunctiveQuery:
    """Small helper to build a CQ from ``(relation, terms)`` pairs.

    Terms follow the :func:`repro.logic.terms.to_term` convention: strings are
    variables, other values are constants.
    """
    atoms = [Atom(rel, term_tuple(terms)) for rel, terms in body]
    return ConjunctiveQuery(head, atoms, name=name)


def product_pool(domain: Iterable[Any], arity: int) -> Iterator[tuple]:
    """All tuples of the given arity over ``domain`` (used by test oracles)."""
    return itertools.product(list(domain), repeat=arity)
