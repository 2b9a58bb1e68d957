"""Conjunctive queries and unions of conjunctive queries.

Conjunctive queries (CQs) are the workhorse of data exchange: the paper's
CQ-STDs have CQ bodies, and Proposition 3 shows that for positive queries
certain answers reduce to naive evaluation.  Two joins serve two needs:

* **Evaluation** (:meth:`ConjunctiveQuery.evaluate` / ``naive_evaluate``,
  and through them UCQs and the CQ-shaped path of ``Query.evaluate``)
  wants only the distinct head tuples.  One compiled kernel,
  :func:`_answers`, serves both storages: slots in a flat bindings list,
  the greedy join order fixed once by :func:`_join_plan` (the order
  :func:`greedy_join_order` reports to ``explain``), candidates from the
  per-position hash indexes — value buckets of an
  :class:`~repro.relational.instance.Instance`, code buckets of a
  :class:`~repro.relational.interning.ColumnarInstance`.
* **Enumeration** (:func:`match_atoms`, for ``holds``, DEQA and the chase)
  yields every satisfying assignment, binding the atom with the smallest
  estimated candidate set next.  :func:`match_atoms_delta` is its
  semi-naive variant over the assignments that use at least one delta
  tuple — the primitive of :mod:`repro.chase.incremental`.
"""

from __future__ import annotations

import itertools
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.logic.formulas import (
    And,
    Atom,
    Eq,
    Exists,
    Formula,
    conjunction,
    free_variables,
)
from repro.logic.terms import Const, Term, Var, term_tuple
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


def _cardinality(instance: Instance, relation: str) -> int:
    """``|relation|`` without forcing a coded instance's decoded mirror."""
    if isinstance(instance, ColumnarInstance):
        col = instance.columnar_relation(relation)
        return 0 if col is None else len(col)
    return len(instance._tuples(relation))


def _atom_estimate(atom: Atom, instance: Instance, bound) -> float:
    """Estimated candidate count for ``atom`` once the variables in ``bound`` are bound.

    The greedy planner's ranking statistic: the relation's cardinality,
    refined to the average bucket size of any bound position (constant term
    or variable in ``bound``, which is only membership-tested).  The averages
    are cached per ``Instance.version()``
    (:meth:`~repro.relational.instance.Instance.bucket_estimate`), so on an
    unchanged instance planning costs dict lookups and materialises no
    candidate set.
    """
    estimate = float(_cardinality(instance, atom.relation))
    for position, term in enumerate(atom.terms):
        if isinstance(term, Const):
            pass
        elif isinstance(term, Var):
            if term not in bound:
                continue
        else:
            raise TypeError(f"function term {term!r} not allowed in CQ atoms")
        refined = instance.bucket_estimate(atom.relation, position)
        if refined < estimate:
            estimate = refined
            if not estimate:
                break
    return estimate


def _cheapest(atoms: list[Atom], instance: Instance, bound) -> tuple[int, float]:
    """Index and estimate of the first atom with the smallest :func:`_atom_estimate`."""
    best_index, best = 0, _atom_estimate(atoms[0], instance, bound)
    for i in range(1, len(atoms)):
        if not best:
            break
        estimate = _atom_estimate(atoms[i], instance, bound)
        if estimate < best:
            best_index, best = i, estimate
    return best_index, best


def _join_plan(atoms: Iterable[Atom], instance: Instance) -> list[tuple[Atom, float]]:
    """The static greedy join order, with each atom's estimate when it is bound.

    Simulates variable binding: at each step the :func:`_cheapest` remaining
    atom under the variables bound so far comes next.  Estimates depend only
    on *which* variables are bound, never on their values, so this is the
    order the per-node planner of :func:`match_atoms` reaches at every node,
    and the one :func:`_answers` evaluates in.
    """
    remaining = list(atoms)
    bound: set[Var] = set()
    plan: list[tuple[Atom, float]] = []
    while remaining:
        index, estimate = _cheapest(remaining, instance, bound)
        atom = remaining.pop(index)
        plan.append((atom, estimate))
        bound.update(term for term in atom.terms if isinstance(term, Var))
    return plan


def greedy_join_order(
    query: "ConjunctiveQuery", instance: Instance
) -> tuple[tuple[str, str, int, int], ...]:
    """The join order :meth:`ConjunctiveQuery.evaluate` binds, with cardinalities.

    One ``(atom, relation, estimate, actual)`` entry per body atom in the
    order of :func:`_join_plan`, where ``estimate`` is the planner's
    index-aware candidate estimate and ``actual`` the relation's true
    cardinality — the explain layer's raw material.  Pure read: no candidate
    set is materialised, no index is built beyond the version-cached bucket
    statistics the planner itself uses.
    """
    return tuple(
        (repr(atom), atom.relation, int(estimate), _cardinality(instance, atom.relation))
        for atom, estimate in _join_plan(query.atoms, instance)
    )


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
    enumeration runs entirely over int codes (:func:`_columnar_run`),
    decoding to values only at the answer boundary.
    """
    assignment = dict(assignment or {})
    equalities = list(equalities or [])
    atoms = list(atoms)
    if not isinstance(instance, ColumnarInstance):
        yield from _search(atoms, assignment, instance, equalities)
        return
    compiled_atoms, compiled_eqs, slot_vars, seed, pseudo_values = _columnar_compile(
        atoms, equalities, assignment, instance
    )
    tagged = [(relation, entries, "any") for relation, entries in compiled_atoms]
    yield from _columnar_run(instance, tagged, compiled_eqs, slot_vars, seed, pseudo_values, {})


# The recursive enumerations are module-level functions that recurse through
# their global name, not closures that name themselves: a self-referencing
# closure is a reference cycle, so every call would leave garbage for the
# cyclic collector instead of being freed by reference counting.


def _search(
    remaining: list[Atom], current: dict[Var, Any], instance: Instance, equalities: list[Eq]
) -> Iterator[dict[Var, Any]]:
    """One node of :func:`match_atoms` over tuple sets."""
    if not _equalities_hold(equalities, current):
        return
    if not remaining:
        if _equalities_hold(equalities, current, require_all_bound=True):
            yield dict(current)
        return
    best_index, _estimate = _cheapest(remaining, instance, current)
    atom = remaining[best_index]
    rest = remaining[:best_index] + remaining[best_index + 1 :]
    for values in _atom_candidates(atom, instance, current):
        extended = _match_tuple(atom.terms, values, current)
        if extended is not None:
            yield from _search(rest, extended, instance, equalities)


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
    # Each atom carries a mode: 'delta' | 'old' | 'any' (see _delta_search).
    for pivot in range(len(atoms)):
        if atoms[pivot].relation not in delta_by_rel:
            continue
        tagged = [
            (atom, "delta" if i == pivot else ("old" if i < pivot else "any"))
            for i, atom in enumerate(atoms)
        ]
        yield from _delta_search(tagged, dict(assignment), instance, equalities, delta_by_rel)


def _delta_search(
    remaining: list[tuple[Atom, str]],
    current: dict[Var, Any],
    instance: Instance,
    equalities: list[Eq],
    delta_by_rel: dict[str, set[tuple]],
) -> Iterator[dict[Var, Any]]:
    """One node of :func:`match_atoms_delta` over tuple sets."""
    if not _equalities_hold(equalities, current):
        return
    if not remaining:
        if _equalities_hold(equalities, current, require_all_bound=True):
            yield dict(current)
        return
    # The 'delta' pivot atom is always expanded first (its candidate set is
    # small by construction); greedy selection applies to the rest.
    best_index = next((i for i, (_a, mode) in enumerate(remaining) if mode == "delta"), None)
    if best_index is None:
        best_index, _estimate = _cheapest([atom for atom, _mode in remaining], instance, current)
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
            yield from _delta_search(rest, extended, instance, equalities, delta_by_rel)


# -- columnar enumeration ----------------------------------------------------
#
# Over a ColumnarInstance the backtracking enumeration of match_atoms runs
# entirely over int codes: variables compile to dense *slots* in a flat
# bindings list, constants to their interned codes, and backtracking undoes
# bindings through a trail — no per-candidate assignment-dict copy, no value
# hashing, no decoding until an answer is actually yielded.  Constants the
# interner has never seen get fresh *negative* pseudo-codes: they can never
# equal a stored code (all stored codes are non-negative), yet compare
# consistently with Python equality among themselves, so equality atoms
# behave exactly as in the generic path.


def _pseudo_coder(interner) -> tuple[Callable[[Any], int], dict[Any, int]]:
    """``code(value)``: the interned code, or a per-call negative pseudo-code."""
    pseudo: dict[Any, int] = {}

    def code(value: Any) -> int:
        found = interner.code_of(value)
        return pseudo.setdefault(value, -(len(pseudo) + 1)) if found is None else found

    return code, pseudo


def _columnar_compile(
    atoms: list[Atom],
    equalities: list[Eq],
    assignment: dict[Var, Any],
    instance: "ColumnarInstance",
):
    """Compile atoms/equalities/seed bindings into slots and int codes."""
    const_code, pseudo = _pseudo_coder(instance.interner)
    slot_of: dict[Var, int] = {}  # in slot order

    def slot(var: Var) -> int:
        return slot_of.setdefault(var, len(slot_of))

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
    seed: list[int | None] = [None] * len(slot_of)
    for var, value in assignment.items():
        seed[slot_of[var]] = const_code(value)
    pseudo_values = {code: value for value, code in pseudo.items()}
    return compiled_atoms, compiled_eqs, list(slot_of), seed, pseudo_values


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

    try:
        yield from search(tagged)
    finally:
        # ``search`` names itself through its closure cell: empty the cell
        # so the closures are freed by reference counting, not by the
        # cyclic collector (also when the caller stops early).
        search = None  # noqa: F841


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
            instance, tagged, compiled_eqs, slot_vars, list(seed), pseudo_values, delta_rows
        )


# -- the evaluation kernel ---------------------------------------------------
#
# Variables and constants compile to slots of a flat bindings list (a
# constant's slot is filled before the search and never rebound).  The join
# order is fixed once, so which slots a level reads and which it binds is
# known statically: a level needs no trail, only overwrites its own slots,
# and checks each equality (a repeated variable within one atom becomes one)
# at the first level that binds both of its sides.  Over a ColumnarInstance
# the slots hold codes (negative pseudo-codes for unseen constants).


def _answers(
    head: tuple[Var, ...],
    atoms: list[Atom],
    equalities: list[Eq],
    instance: Instance,
    null_free: bool,
) -> set[tuple]:
    """The distinct ``head`` tuples of a CQ body (null-free ones if ``null_free``)."""
    coded = isinstance(instance, ColumnarInstance)
    code = _pseudo_coder(instance.interner)[0] if coded else None
    bindings: list[Any] = []
    known: set[int] = set()  # slots holding a value before the level being built
    slot_of: dict[Var, int] = {}

    def slot(term: Term) -> int:
        if isinstance(term, Var):
            if term not in slot_of:
                slot_of[term] = len(bindings)
                bindings.append(None)
            return slot_of[term]
        if isinstance(term, Const):
            known.add(len(bindings))
            bindings.append(code(term.value) if coded else term.value)
            return len(bindings) - 1
        raise TypeError(f"function term {term!r} not allowed here")

    pending = []  # equalities not yet checked, as slot pairs
    for eq in equalities:
        left, right = slot(eq.left), slot(eq.right)
        if left not in known or right not in known:
            pending.append((left, right))
        elif bindings[left] != bindings[right]:
            return set()

    levels = []
    for atom, _estimate in _join_plan(atoms, instance):
        arity = len(atom.terms)
        if coded:
            col = instance.columnar_relation(atom.relation)
            if col is None or col.arity != arity:
                return set()
            scan, fetch, index = col.row_codes, col.row_codes.__getitem__, col.index
        else:
            scan, fetch = instance._tuples(atom.relation), None
            index = partial(instance._index, atom.relation)
        probes, binds, bound_here = [], [], set()
        for position, term in enumerate(atom.terms):
            target = slot(term)
            if target in known:
                probes.append((position, target))
                continue
            if target in bound_here:
                # A repeated variable: bind a fresh slot, check they are equal.
                pending.append((target, len(bindings)))
                target = len(bindings)
                bindings.append(None)
            binds.append((position, target))
            bound_here.add(target)
        known |= bound_here
        ready = ()
        if pending:
            ready = tuple(pair for pair in pending if pair[0] in known and pair[1] in known)
            pending = [pair for pair in pending if pair not in ready]
        levels.append(
            (
                arity,
                scan,
                fetch,
                tuple([(index(position), target) for position, target in probes]),
                # A lone probe's bucket already fixes its position's value.
                tuple(probes) if len(probes) > 1 else (),
                tuple(binds),
                ready,
            )
        )
    if pending:
        return set()  # some equality side is bound by no atom: never satisfied
    if not levels:
        return {()}

    head_slots = [slot_of[var] for var in head]
    answers: set = set()
    project = itemgetter(*head_slots) if head_slots else _no_values
    _descend(levels, 0, bindings, answers, project)
    # Answers are tuples, or bare values for a one-variable head (what an
    # itemgetter of one item returns).  Nulls and codes are found among the
    # distinct values, not per answer.
    single = len(head_slots) == 1
    values = answers if single else set(itertools.chain.from_iterable(answers))
    if coded:
        drop = {v for v in values if v >= NULL_CODE_BASE} if null_free else ()
        decode = instance.interner.decode
        value_of = {v: decode(v) for v in values}.__getitem__
    else:
        drop = {v for v in values if is_null(v)} if null_free else ()
        value_of = None
    if single:
        if value_of is None:
            return {(v,) for v in answers if v not in drop}
        return {(value_of(v),) for v in answers if v not in drop}
    if drop:
        answers = {t for t in answers if drop.isdisjoint(t)}
    if value_of is None:
        return answers
    return {tuple(map(value_of, t)) for t in answers}


def _no_values(_bindings: list) -> tuple:
    return ()


def _descend(levels: list, depth: int, bindings: list, answers: set, project) -> None:
    """Bind ``levels[depth]`` to every matching candidate row, then go one level deeper."""
    arity, rows, fetch, probes, checks, binds, equalities = levels[depth]
    if probes:
        rows = None
        for index, slot in probes:
            bucket = index.get(bindings[slot])
            if bucket is None:  # no stored row holds the value (or pseudo-code)
                return
            if rows is None or len(bucket) < len(rows):
                rows = bucket
        if fetch is not None:
            rows = map(fetch, rows)
    last = depth + 1 == len(levels)
    for row in rows:
        if len(row) != arity:  # schema-less relations may mix arities
            continue
        for position, slot in checks:
            if row[position] != bindings[slot]:
                break
        else:
            for position, slot in binds:
                bindings[slot] = row[position]
            for left, right in equalities:
                if bindings[left] != bindings[right]:
                    break
            else:
                if last:
                    answers.add(project(bindings))
                else:
                    _descend(levels, depth + 1, bindings, answers, project)


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
        return _answers(self.head, self.atoms, self.equalities, instance, null_free=False)

    def naive_evaluate(self, instance: Instance) -> set[tuple]:
        """Naive evaluation: evaluate treating nulls as values, keep null-free answers.

        For unions of conjunctive queries this computes the certain answers
        ``Q(T)`` of the query over the naive table ``T`` (Imieliński–Lipski),
        which is what Proposition 3 relies on.
        """
        return _answers(self.head, self.atoms, self.equalities, instance, null_free=True)

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
        out: set[tuple] = set()
        for cq in self.disjuncts:
            out |= cq.naive_evaluate(instance)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return " ∪ ".join(map(repr, self.disjuncts))


def cq(head: Iterable[str], body: Iterable[tuple[str, Iterable[Any]]], name: str = "q") -> ConjunctiveQuery:
    """Small helper to build a CQ from ``(relation, terms)`` pairs.

    Terms follow the :func:`repro.logic.terms.to_term` convention: strings are
    variables, other values are constants.
    """
    atoms = [Atom(rel, term_tuple(terms)) for rel, terms in body]
    return ConjunctiveQuery(head, atoms, name=name)
