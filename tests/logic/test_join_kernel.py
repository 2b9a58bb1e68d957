"""The compiled evaluation kernel of :mod:`repro.logic.cq`.

``ConjunctiveQuery.evaluate`` / ``naive_evaluate`` run one kernel over both
storages; :func:`~repro.logic.cq.match_atoms` stays the generic enumeration.
The two must agree on every query shape, the kernel must run in the order
``greedy_join_order`` (and so ``explain``) reports, and neither the kernel
nor the matchers may leave reference cycles behind.
"""

import gc

import pytest
from hypothesis import given, settings, strategies as st

import repro.logic.cq as cq_module
from repro.logic.cq import (
    ConjunctiveQuery,
    greedy_join_order,
    match_atoms,
    match_atoms_delta,
)
from repro.logic.formulas import Atom, Eq
from repro.logic.terms import Const, Var
from repro.relational.domain import fresh_null, is_null
from repro.relational.instance import Instance
from repro.relational.interning import ColumnarInstance
from repro.serving.registry import ScenarioRegistry
from repro.workloads.churn import churn_workload
from repro.workloads.serving import serving_workload
from repro.workloads.skewed import skewed_workload

x, y, z = Var("x"), Var("y"), Var("z")
NULLS = (fresh_null(), fresh_null())


def generic_answers(query, instance):
    """The reference: the generic matcher's assignments, projected."""
    return {
        tuple(a[v] for v in query.head)
        for a in match_atoms(query.atoms, instance, equalities=query.equalities)
    }


def null_free(answers):
    return {t for t in answers if not any(is_null(v) for v in t)}


# ---------------------------------------------------------------------------
# Kernel vs generic enumeration
# ---------------------------------------------------------------------------

stored = st.sampled_from(["a", "b", "c", *NULLS])
# "zz" is never stored: over a coded instance it compiles to a pseudo-code.
constants = st.sampled_from([Const("a"), Const("b"), Const("zz")])
terms = st.one_of(st.sampled_from([x, y, z]), constants)
instances = st.fixed_dictionaries(
    {
        "E": st.lists(st.tuples(stored, stored), max_size=10),
        "V": st.lists(st.tuples(stored), max_size=3),
        # Mixed arities: only a schema-less tuple-set instance can hold them.
        "M": st.lists(
            st.one_of(st.tuples(stored), st.tuples(stored, stored)), max_size=5
        ),
    }
)
atom_shapes = st.one_of(
    st.builds(lambda a, b: Atom("E", (a, b)), terms, terms),
    st.builds(lambda a: Atom("V", (a,)), terms),
    st.builds(lambda a, b: Atom("M", (a, b)), terms, terms),
    st.builds(lambda a: Atom("M", (a,)), terms),
    st.builds(lambda a, b: Atom("Empty", (a, b)), terms, terms),
)
equality_shapes = st.one_of(
    st.builds(Eq, st.sampled_from([x, y, z]), st.sampled_from([x, y, z])),
    st.builds(Eq, st.sampled_from([x, y, z]), constants),
    st.builds(Eq, constants, constants),
)


@st.composite
def queries(draw):
    atoms = draw(st.lists(atom_shapes, min_size=0, max_size=3))
    equalities = draw(st.lists(equality_shapes, max_size=2))
    body_vars = sorted(
        {t for a in atoms for t in a.terms if isinstance(t, Var)}
        | {t for eq in equalities for t in (eq.left, eq.right) if isinstance(t, Var)},
        key=lambda v: v.name,
    )
    head = draw(st.lists(st.sampled_from(body_vars), max_size=3)) if body_vars else []
    return ConjunctiveQuery(head, atoms, equalities)


@settings(max_examples=300, deadline=None)
@given(data=instances, query=queries())
def test_kernel_agrees_with_the_generic_enumeration(data, query):
    plain = Instance(data)
    expected = generic_answers(query, plain)
    assert query.evaluate(plain) == expected
    assert query.naive_evaluate(plain) == null_free(expected)
    if any(a.relation == "M" for a in query.atoms):
        return  # a coded relation has one arity
    coded = ColumnarInstance({name: data[name] for name in ("E", "V")})
    assert query.evaluate(coded) == expected
    assert query.naive_evaluate(coded) == null_free(expected)


def test_kernel_edge_shapes_on_both_storages():
    data = {"E": [("a", "b"), ("b", "b"), ("b", NULLS[0])], "V": [("b",)]}
    plain, coded = Instance(data), ColumnarInstance(data)
    shapes = [
        ConjunctiveQuery((), [Atom("E", (x, y)), Atom("V", (y,))]),  # Boolean
        ConjunctiveQuery((), [Atom("E", (Const("zz"), y))]),  # unseen constant
        ConjunctiveQuery([x], [Atom("E", (x, x))]),  # repeated variable
        ConjunctiveQuery([x, z], [Atom("E", (x, y)), Atom("E", (y, z))], [Eq(x, z)]),
        ConjunctiveQuery([y], [Atom("E", (x, y))], [Eq(x, Const("b"))]),
        ConjunctiveQuery([x], [Atom("Empty", (x, y))]),  # absent relation
        ConjunctiveQuery([z], [Atom("E", (x, y))], [Eq(z, x)]),  # z bound by no atom
        ConjunctiveQuery((), [], [Eq(Const("a"), Const("a"))]),
        ConjunctiveQuery((), [], [Eq(Const("a"), Const("zz"))]),
    ]
    for query in shapes:
        expected = generic_answers(query, plain)
        for instance in (plain, coded):
            assert query.evaluate(instance) == expected, query
            assert query.naive_evaluate(instance) == null_free(expected), query
    assert shapes[0].evaluate(coded) == {()}
    assert shapes[1].evaluate(coded) == set()
    assert shapes[2].evaluate(plain) == {("b",)}
    assert shapes[4].naive_evaluate(plain) == {("b",)}  # the null answer dropped


# ---------------------------------------------------------------------------
# One planner: explain's join order is the order the kernel binds
# ---------------------------------------------------------------------------


def _targets():
    skewed = skewed_workload(customers=24, accounts=200, batches=2, batch_size=6)
    serving = serving_workload(employees=80, projects=30, assignments=100)
    for workload in (skewed, serving):
        registry = ScenarioRegistry()
        exchange = registry.register(
            "s",
            workload.mapping,
            workload.source,
            getattr(workload, "target_dependencies", ()),
        )
        target = exchange.target
        disjuncts = [
            cq for query in workload.queries for cq in getattr(query, "disjuncts", ())
        ]
        yield target, disjuncts
        yield ColumnarInstance.from_instance(target), disjuncts


def test_kernel_binds_in_the_order_greedy_join_order_reports(monkeypatch):
    plans = []
    plan = cq_module._join_plan

    def recording_plan(atoms, instance):
        steps = plan(atoms, instance)
        plans.append([repr(atom) for atom, _estimate in steps])
        return steps

    checked = 0
    for instance, disjuncts in _targets():
        for query in disjuncts:
            reported = [step[0] for step in greedy_join_order(query, instance)]
            monkeypatch.setattr(cq_module, "_join_plan", recording_plan)
            plans.clear()
            query.naive_evaluate(instance)
            monkeypatch.setattr(cq_module, "_join_plan", plan)
            assert plans == [reported], query
            checked += len(reported) > 1
    assert checked >= 10  # multi-atom joins, over both storages


def test_static_plan_is_the_generic_matchers_per_node_choice(monkeypatch):
    """On tuple sets, the per-node planner of ``match_atoms`` picks the
    planned atom at every depth: its first visits follow the plan."""
    visited = []
    candidates = cq_module._atom_candidates

    def recording_candidates(atom, instance, assignment):
        visited.append(repr(atom))
        return candidates(atom, instance, assignment)

    monkeypatch.setattr(cq_module, "_atom_candidates", recording_candidates)
    for instance, disjuncts in _targets():
        if isinstance(instance, ColumnarInstance):
            continue
        for query in disjuncts:
            visited.clear()
            for _ in match_atoms(query.atoms, instance, equalities=query.equalities):
                pass
            first_visits = list(dict.fromkeys(visited))
            reported = [step[0] for step in greedy_join_order(query, instance)]
            assert first_visits == reported[: len(first_visits)], query


# ---------------------------------------------------------------------------
# No reference cycles: temporaries are freed by reference counting
# ---------------------------------------------------------------------------


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


GRAPH = {"E": [(1, 2), (2, 3), (3, 1), (2, 4)]}
HOP = [Atom("E", (x, y)), Atom("E", (y, z))]


@pytest.mark.parametrize("storage", [Instance, ColumnarInstance])
def test_evaluation_and_matching_leave_no_cycles(storage, no_collector):
    instance = storage(GRAPH)
    delta = [("E", (1, 2)), ("E", (2, 3))]
    ConjunctiveQuery([x, z], HOP).evaluate(instance)
    assert gc.collect() == 0
    list(match_atoms(HOP, instance))
    assert gc.collect() == 0
    early = match_atoms(HOP, instance)
    next(early)
    early.close()
    assert gc.collect() == 0
    list(match_atoms_delta(HOP, instance, delta))
    assert gc.collect() == 0
    early = match_atoms_delta(HOP, instance, delta)
    next(early)
    early.close()
    assert gc.collect() == 0


def test_apply_delta_leaves_no_cycles(no_collector):
    workload = churn_workload(employees=60, squads=10, departments=8, batches=4)
    exchange = ScenarioRegistry().register(
        "churn", workload.mapping, workload.source, workload.target_dependencies
    )
    gc.collect()
    for op, facts in workload.operations[:4]:
        exchange.apply_delta(
            added=facts if op == "add" else (), removed=facts if op == "retract" else ()
        )
        assert gc.collect() == 0, op
