"""The tiered termination gate: tier separation, witnesses, egd guard."""

import pytest

from repro.analysis import analyse_termination
from repro.analysis.termination import (
    TIER_ORDER,
    affected_positions,
    is_safe,
    is_stratified_safe,
    is_super_weakly_acyclic,
)
from repro.chase.dependencies import TGD, parse_dependencies
from repro.chase.engine import chase
from repro.chase.weak_acyclicity import (
    PositionGraph,
    dependency_graph,
    is_weakly_acyclic,
    render_position,
)
from repro.relational.builders import make_instance


def tgds(rules):
    return [d for d in parse_dependencies(rules) if isinstance(d, TGD)]


# -- one separating example per tier ---------------------------------------

WA_RULES = ["Emp(e) -> exists d . Dept(e, d)"]
SAFETY_RULES = [
    "P(x) -> exists y . Q(x, y)",
    "Q(x, y) & P(y) -> exists z . Q(y, z)",
]
SUPERWEAK_RULES = [
    "Canary(x) -> exists a . exists b . Edge(a, b)",
    "Edge(x, x) -> exists z . Edge(x, z)",
    "Edge(x, y) -> Reach(x, y)",
]
STRATIFIED_RULES = [
    "A(x) -> exists y . Q(x, y)",
    "Q(x, y) & P(y) -> exists z . Q(y, z)",
    "R(u) -> exists v . P(v)",
]
DIVERGENT_RULES = ["R(x, y) -> exists z . R(y, z)"]


def test_weakly_acyclic_set_reports_first_tier():
    decision = analyse_termination(tgds(WA_RULES))
    assert decision.accepted and decision.tier == "weak-acyclicity"
    assert decision.weakly_acyclic
    # the rest of the ladder is recorded but not re-proved
    assert [t.skipped for t in decision.tiers] == [False, True, True, True]


def test_safety_separates_from_weak_acyclicity():
    rules = tgds(SAFETY_RULES)
    assert not is_weakly_acyclic(rules)
    assert is_safe(rules)
    decision = analyse_termination(rules)
    assert decision.accepted and decision.tier == "safety"


def test_super_weak_acyclicity_separates_from_safety():
    rules = tgds(SUPERWEAK_RULES)
    assert not is_weakly_acyclic(rules)
    assert not is_safe(rules)
    assert is_super_weakly_acyclic(rules)
    decision = analyse_termination(rules)
    assert decision.accepted and decision.tier == "super-weak-acyclicity"


def test_stratified_decomposition_is_the_last_resort():
    rules = tgds(STRATIFIED_RULES)
    decision = analyse_termination(rules)
    assert decision.accepted
    assert decision.tier in TIER_ORDER[1:]
    assert is_stratified_safe(rules)


def test_divergent_tgd_rejected_at_every_tier_with_witness():
    rules = tgds(DIVERGENT_RULES)
    assert not is_weakly_acyclic(rules)
    assert not is_safe(rules)
    assert not is_super_weakly_acyclic(rules)
    assert not is_stratified_safe(rules)
    decision = analyse_termination(rules)
    assert not decision.accepted and decision.tier is None
    assert decision.witness is not None
    rendered = decision.render_witness()
    assert "=>" in rendered and "R.1" in rendered and "tgd#0" in rendered
    (diagnostic,) = [d for d in decision.diagnostics() if d.code == "TERM003"]
    assert "witness cycle through a special edge" in diagnostic.message
    assert diagnostic.payload["cycle"], "rejection must carry the witness edges"
    assert diagnostic.payload["cycle"][0]["special"]


def test_transitive_closure_with_generator_is_rejected():
    rules = tgds(
        [
            "E(x, y) -> exists z . E(y, z)",
            "E(x, y) & E(y, z) -> E(x, z)",
        ]
    )
    decision = analyse_termination(rules)
    assert not decision.accepted


def test_superweak_example_genuinely_terminates():
    """The admitted-but-not-WA set must actually stop on a hostile instance."""
    instance = make_instance({"Canary": [("c",)], "Edge": [("a", "a"), ("a", "b")]})
    result = chase(instance, tgds(SUPERWEAK_RULES), max_steps=500)
    assert result.terminated


def test_divergent_tgd_really_diverges():
    """Sanity: the rejected example is a true positive, not analyzer pessimism."""
    instance = make_instance({"R": [("a", "b")]})
    result = chase(instance, tgds(DIVERGENT_RULES), max_steps=60)
    assert not result.terminated


def test_egds_disable_richer_tiers():
    deps = parse_dependencies(
        [
            "P(x) -> exists y . Q(x, y)",
            "Q(x, y) & P(y) -> exists z . Q(y, z)",
            "Q(x, y) & Q(x, z) -> y = z",
        ]
    )
    decision = analyse_termination(deps)
    assert not decision.accepted  # not WA, and richer tiers may not run
    skipped = [t for t in decision.tiers if t.skipped]
    assert {t.name for t in skipped} == set(TIER_ORDER[1:])
    assert all("egds" in t.detail for t in skipped)
    assert any(d.code == "TERM004" for d in decision.diagnostics())


def test_weak_acyclicity_wrapper_still_serves_legacy_callers():
    rules = tgds(WA_RULES)
    assert is_weakly_acyclic(rules)
    edges = dependency_graph(rules)
    assert (("Emp", 0), ("Dept", 0), False) in edges
    assert (("Emp", 0), ("Dept", 1), True) in edges


def test_affected_positions_fixpoint():
    affected = affected_positions(tgds(SAFETY_RULES))
    # Q.1 holds fresh nulls; Q.0 receives y from rule 2's frontier whose
    # occurrences (Q.1, P.0) are not all affected until P.0 is shown safe.
    assert ("Q", 1) in affected
    assert ("P", 0) not in affected


def test_position_graph_renders_special_edges():
    graph = PositionGraph.from_tgds(tgds(DIVERGENT_RULES))
    cycle = graph.special_cycle()
    assert cycle is not None
    assert cycle.edges[0].special
    assert render_position(cycle.edges[0].source) == "R.1"


@pytest.mark.parametrize("rules", [WA_RULES, SAFETY_RULES, SUPERWEAK_RULES, STRATIFIED_RULES])
def test_accepted_sets_chase_to_completion(rules):
    facts = {
        "Emp": [("e1",)],
        "P": [("a",)],
        "A": [("a",)],
        "R": [("r1", "r2")] if rules is DIVERGENT_RULES else [],
        "Canary": [("c",)],
        "Edge": [("u", "u")],
    }
    parsed = tgds(rules)
    mentioned = {atom.relation for t in parsed for atom in t.body}
    instance = make_instance({k: v for k, v in facts.items() if k in mentioned and v})
    result = chase(instance, parsed, max_steps=1000)
    assert result.terminated
