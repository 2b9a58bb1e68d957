"""Chase-based redundancy lint: implied STDs/dependencies, greedy drop."""

from repro.analysis.compiled import compile_mapping
from repro.analysis.redundancy import (
    analyse_redundancy,
    implied_dependency,
    implied_std,
    redundant_std_indexes,
)
from repro.chase.dependencies import parse_dependencies
from repro.core.mapping import mapping_from_rules
from repro.core.std import parse_std
from repro.relational.builders import make_instance
from repro.serving.registry import ScenarioRegistry


def test_duplicate_std_is_implied():
    stds = [
        parse_std("T(x^cl, y^cl) :- S(x, y)"),
        parse_std("T(x^cl, y^cl) :- S(x, y)"),
    ]
    assert implied_std(1, stds) == (0,)


def test_specialisation_implied_by_general_rule():
    stds = [
        parse_std("T(x, y) :- S(x, y)"),
        parse_std("T(x, x) :- S(x, x)"),
    ]
    assert implied_std(1, stds) == (0,)
    assert implied_std(0, stds) is None  # the general rule is not implied back


def test_annotation_mismatch_blocks_implication():
    stds = [
        parse_std("T(x^cl, y^cl) :- S(x, y)"),
        parse_std("T(x^op, y^op) :- S(x, y)"),
    ]
    assert implied_std(1, stds) is None
    assert implied_std(0, stds) is None


def test_existential_heads_match_through_markers():
    stds = [
        parse_std("U(x, z^op) :- S(x, y)"),
        parse_std("U(x, w^op) :- S(x, y)"),
    ]
    assert implied_std(1, stds) == (0,)


def test_greedy_drop_keeps_one_of_mutual_twins():
    stds = [
        parse_std("T(x, y) :- S(x, y)"),
        parse_std("T(x, y) :- S(x, y)"),
        parse_std("V(x) :- S(x, y)"),
    ]
    dropped = redundant_std_indexes(stds)
    # exactly one of the twins goes; the unique V rule stays
    assert set(dropped) == {0}
    assert 1 in dropped[0]


def test_implied_full_dependency_detected():
    deps = parse_dependencies(
        [
            "Q(x, y) -> R(x, y)",
            "R(x, y) -> P(x)",
            "Q(x, y) -> P(x)",
        ]
    )
    assert implied_dependency(2, deps) is True
    assert implied_dependency(0, deps) is False
    assert implied_dependency(1, deps) is False


def test_cascade_dependencies_are_independent():
    deps = parse_dependencies(
        [
            "Acct(c, a) -> exists m . Flag(c, m)",
            "Flag(c, m) -> Audit(m, c)",
        ]
    )
    assert implied_dependency(0, deps) is False
    assert implied_dependency(1, deps) is False


def test_analyse_redundancy_reports_codes():
    stds = [
        parse_std("T(x, y) :- S(x, y)"),
        parse_std("T(x, y) :- S(x, y)"),
        parse_std("W(x) :- S(x, y) & ~ (exists r . B(x, r))"),
    ]
    deps = parse_dependencies(["Q(x, y) -> R(x, y)", "Q(x, y) -> R(x, y)"])
    diagnostics = analyse_redundancy(stds, deps)
    codes = sorted(d.code for d in diagnostics)
    assert "RED001" in codes  # the duplicate STD
    assert "RED002" in codes  # the duplicate dependency
    assert "RED003" in codes  # the non-CQ body skip
    # the report (unlike the greedy drop) flags both twins, each with a witness
    red1_subjects = {d.subject for d in diagnostics if d.code == "RED001"}
    assert red1_subjects == {"std:0", "std:1"}
    red1 = next(d for d in diagnostics if d.code == "RED001" and d.subject == "std:0")
    assert red1.payload["implied_by"] == [1]


def dup_mapping():
    return mapping_from_rules(
        [
            "T(x, y) :- S(x, y)",
            "T(x, y) :- S(x, y)",
            "U(x, z^op) :- S(x, y)",
        ],
        source={"S": 2},
        target={"T": 2, "U": 2},
        name="dup",
    )


def test_drop_redundant_compile_keeps_indexes_stable():
    compiled = compile_mapping(dup_mapping(), drop_redundant=True)
    assert compiled.dropped_stds == frozenset({0})
    assert [c.index for c in compiled.stds] == [0, 1, 2]
    assert [c.index for c in compiled.active_stds] == [1, 2]
    assert all(0 not in idxs for idxs in compiled.trigger_plan.values())


def test_drop_redundant_serves_identical_certain_answers():
    from repro.logic.cq import cq

    source = make_instance({"S": [("1", "2"), ("2", "3"), ("3", "3")]})
    registry = ScenarioRegistry()
    full = registry.register("full", dup_mapping(), source)
    lean = registry.register("lean", dup_mapping(), source, drop_redundant=True)
    assert lean.compiled.dropped_stds
    queries = [
        cq(["x", "y"], [("T", ["x", "y"])]),
        cq(["x"], [("U", ["x", "z"])]),
        cq(["x", "y"], [("T", ["x", "y"]), ("U", ["y", "w"])]),
    ]
    for query in queries:
        assert full.certain_answers(query) == lean.certain_answers(query)
    # updates flow through the pruned trigger plan identically
    for exchange in (full, lean):
        exchange.apply_delta(added=[("S", ("9", "1"))], removed=[("S", ("3", "3"))])
    for query in queries:
        assert full.certain_answers(query) == lean.certain_answers(query)
