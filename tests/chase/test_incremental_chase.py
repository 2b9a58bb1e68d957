"""Differential and property tests: incremental vs naive chase engine.

The incremental worklist engine must agree with the naive reference engine on
every input: homomorphically equivalent results on success (identical results
for full dependencies, which create no nulls), identical failure behaviour on
egd conflicts, and identical termination verdicts under sufficient budgets.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.chase import ENGINES, run_chase
from repro.chase.dependencies import parse_dependencies, parse_egd, parse_tgd
from repro.chase.engine import ChaseFailure, chase
from repro.chase.incremental import chase_incremental
from repro.core.canonical import canonical_instance
from repro.core.target_constraints import ExchangeSetting, exchange
from repro.relational.builders import make_instance
from repro.relational.homomorphism import is_homomorphically_equivalent
from repro.workloads.conference import conference_mapping, conference_source
from repro.workloads.employees import employee_mapping, employee_source
from repro.workloads.random_mappings import random_annotated_mapping, random_source
from repro.workloads.scaling import chase_scaling_workload


def assert_engines_agree(instance, dependencies, max_steps=5_000):
    """Run both engines; assert equivalent results or identical failures."""
    naive_failure = incremental_failure = None
    naive_result = incremental_result = None
    try:
        naive_result = chase(instance, dependencies, max_steps=max_steps)
    except ChaseFailure as failure:
        naive_failure = failure
    try:
        incremental_result = chase_incremental(instance, dependencies, max_steps=max_steps)
    except ChaseFailure as failure:
        incremental_failure = failure
    assert (naive_failure is None) == (incremental_failure is None), (
        f"failure disagreement: naive={naive_failure!r} incremental={incremental_failure!r}"
    )
    if naive_failure is not None:
        return None, None
    assert naive_result.terminated == incremental_result.terminated
    if naive_result.terminated:
        assert is_homomorphically_equivalent(
            naive_result.instance, incremental_result.instance
        ), (
            f"results differ:\nnaive={naive_result.instance!r}\n"
            f"incremental={incremental_result.instance!r}"
        )
        assert naive_result.instance.constants() == incremental_result.instance.constants()
    return naive_result, incremental_result


# ---------------------------------------------------------------------------
# Behavioural parity on the reference engine's own test scenarios
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_adds_required_tuples_once(engine):
    tgds = [parse_tgd("Emp(e) -> exists d . Dept(e, d)")]
    result = run_chase(make_instance({"Emp": [("ann",), ("bob",)]}), tgds, engine=engine)
    assert result.terminated
    assert len(result.instance.relation("Dept")) == 2
    again = run_chase(result.instance, tgds, engine=engine)
    assert len(again.steps) == 0


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_egd_equates_nulls(engine):
    dependencies = parse_dependencies(
        [
            "Emp(e) -> exists d . Dept(e, d)",
            "Proj(e, p) -> exists d . Dept(e, d)",
            "Dept(e, d1) & Dept(e, d2) -> d1 = d2",
        ]
    )
    instance = make_instance({"Emp": [("ann",)], "Proj": [("ann", "p1")]})
    result = run_chase(instance, dependencies, engine=engine)
    assert result.terminated
    assert len(result.instance.relation("Dept")) == 1


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_egd_failure_on_constants(engine):
    egd = parse_egd("Dept(e, d1) & Dept(e, d2) -> d1 = d2")
    instance = make_instance({"Dept": [("ann", "sales"), ("ann", "hr")]})
    with pytest.raises(ChaseFailure):
        run_chase(instance, [egd], engine=engine)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_full_tgd_closure_identical(engine):
    tgd = parse_tgd("E(x, y) -> E(y, x)")
    result = run_chase(make_instance({"E": [("a", "b")]}), [tgd], engine=engine)
    assert result.instance.relation("E") == {("a", "b"), ("b", "a")}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_step_budget_detects_nontermination(engine):
    cyclic = [parse_tgd("E(x, y) -> exists z . E(y, z)")]
    result = run_chase(make_instance({"E": [("a", "b")]}), cyclic, max_steps=5, engine=engine)
    assert not result.terminated
    assert len(result.steps) == 5


def test_run_chase_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown chase engine"):
        run_chase(make_instance({}), [], engine="quantum")


def test_egd_chain_merges_through_substitution_map():
    """Cascading egd merges: queued triggers must be renormalised, not lost."""
    dependencies = parse_dependencies(
        [
            "A(x) -> exists d . D(x, d)",
            "B(x) -> exists d . D(x, d)",
            "C(x) -> exists d . D(x, d)",
            "D(x, d1) & D(x, d2) -> d1 = d2",
        ]
    )
    instance = make_instance({"A": [("v",)], "B": [("v",)], "C": [("v",)]})
    naive, incremental = assert_engines_agree(instance, dependencies)
    assert len(incremental.instance.relation("D")) == 1


def test_full_dependencies_give_identical_instances():
    """With no existential variables both engines compute the same closure."""
    dependencies = parse_dependencies(
        [
            "E(x, y) -> E(y, x)",
            "E(x, y) & E(y, z) -> E(x, z)",
        ]
    )
    instance = make_instance({"E": [("a", "b"), ("b", "c"), ("c", "d")]})
    naive = chase(instance, dependencies)
    incremental = chase_incremental(instance, dependencies)
    assert naive.instance == incremental.instance


# ---------------------------------------------------------------------------
# Differential tests across workloads/ scenarios
# ---------------------------------------------------------------------------


WORKLOAD_DEPENDENCIES = [
    "Submissions(p, t) -> exists r . Reviews(p, r)",
    "Reviews(p, r1) & Reviews(p, r2) -> r1 = r2",
]

EMPLOYEE_DEPENDENCIES = [
    "Emp(i, em, ph) -> exists d . Dept(em, d)",
    "Dept(em, d1) & Dept(em, d2) -> d1 = d2",
    "Dept(em, d) -> DeptList(d)",
]


def test_engines_agree_on_conference_workload():
    source = conference_source(papers=6, seed=3)
    csol = canonical_instance(conference_mapping(), source)
    assert_engines_agree(csol, parse_dependencies(WORKLOAD_DEPENDENCIES))


def test_engines_agree_on_employee_workload():
    csol = canonical_instance(employee_mapping(), employee_source())
    assert_engines_agree(csol, parse_dependencies(EMPLOYEE_DEPENDENCIES))


@pytest.mark.parametrize("edges", [10, 30, 60])
def test_engines_agree_on_chase_scaling_workload(edges):
    workload = chase_scaling_workload(edges, seed=edges)
    naive, incremental = assert_engines_agree(
        workload.instance, workload.dependencies, max_steps=20_000
    )
    # The department egd leaves exactly one department null per source vertex.
    sources = {x for x, _ in workload.instance.relation("E")}
    assert len(incremental.instance.relation("D")) == len(sources)


@pytest.mark.parametrize("seed", range(6))
def test_engines_agree_on_random_mappings(seed):
    mapping = random_annotated_mapping(
        source_relations=2, target_relations=2, stds=3, max_arity=2, seed=seed
    )
    source = random_source(mapping.source, tuples_per_relation=4, seed=seed)
    csol = canonical_instance(mapping, source)
    relations = sorted(r.name for r in mapping.target.relations())
    rng = random.Random(seed)
    dependencies = []
    for name in relations:
        arity = mapping.target.arity(name)
        if arity < 2:
            continue
        body_vars = [f"x{i}" for i in range(arity)]
        other = rng.choice(relations)
        other_arity = mapping.target.arity(other)
        # Head reuses body variables on all but the last (existential) position.
        head_vars = [body_vars[i % arity] for i in range(other_arity - 1)] + ["z"]
        dependencies.append(
            parse_tgd(f"{name}({', '.join(body_vars)}) -> exists z . {other}({', '.join(head_vars)})")
        )
        left = body_vars[:-1] + ["y1"]
        right = body_vars[:-1] + ["y2"]
        dependencies.append(
            parse_egd(f"{name}({', '.join(left)}) & {name}({', '.join(right)}) -> y1 = y2")
        )
    if not dependencies:
        pytest.skip("random schema produced no binary target relation")
    assert_engines_agree(csol, dependencies)


def test_exchange_routes_through_selected_engine():
    setting = ExchangeSetting(
        mapping=employee_mapping(),
        target_dependencies=tuple(parse_dependencies(EMPLOYEE_DEPENDENCIES)),
    )
    source = employee_source()
    naive = exchange(setting, source, engine="naive")
    incremental = exchange(setting, source, engine="incremental")
    assert naive.terminated and incremental.terminated
    assert is_homomorphically_equivalent(naive.instance, incremental.instance)


# ---------------------------------------------------------------------------
# Property-based differential tests
# ---------------------------------------------------------------------------


constants = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def graphs(draw, max_edges=8):
    edges = draw(st.lists(st.tuples(constants, constants), max_size=max_edges))
    return make_instance({"E": edges})


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_property_engines_agree_on_graph_dependencies(instance):
    dependencies = parse_dependencies(
        [
            "E(x, y) -> exists d . D(x, d) & P(d, y)",
            "P(d, y) -> M(y, d)",
            "D(x, d1) & D(x, d2) -> d1 = d2",
        ]
    )
    assert_engines_agree(instance, dependencies)


@settings(max_examples=30, deadline=None)
@given(graphs(), st.booleans())
def test_property_engines_agree_with_constant_conflicts(instance, add_colors):
    """Scenarios that may hit egd failures must fail (or not) in both engines."""
    if add_colors:
        instance = instance.copy()
        instance.add("Color", ("a", "red"))
        instance.add("Color", ("a", "blue"))
    dependencies = parse_dependencies(
        [
            "E(x, y) -> exists c . Color(x, c)",
            "Color(x, c1) & Color(x, c2) -> c1 = c2",
        ]
    )
    assert_engines_agree(instance, dependencies)


@settings(max_examples=30, deadline=None)
@given(graphs(), st.lists(st.tuples(st.sampled_from("abcdefgh"), st.sampled_from("abcdefgh")), min_size=1, max_size=3))
def test_property_delta_seeded_chase_equals_full_chase(instance, extra_edges):
    """Chasing a chased instance plus a delta, seeding only from the delta,
    must agree with chasing everything from scratch."""
    dependencies = parse_dependencies(
        [
            "E(x, y) -> exists d . D(x, d) & P(d, y)",
            "P(d, y) -> M(y, d)",
            "D(x, d1) & D(x, d2) -> d1 = d2",
        ]
    )
    chased = chase_incremental(instance, dependencies).instance
    delta = []
    for a, b in extra_edges:
        if ("E", (a, b)) not in chased:
            chased.add("E", (a, b))
            delta.append(("E", (a, b)))
    seeded = chase_incremental(chased, dependencies, seed_delta=delta)
    full_source = instance.copy()
    for name, tup in delta:
        full_source.add(name, tup)
    reference = chase_incremental(full_source, dependencies)
    assert seeded.terminated and reference.terminated
    assert is_homomorphically_equivalent(seeded.instance, reference.instance)
    assert seeded.instance.constants() == reference.instance.constants()
