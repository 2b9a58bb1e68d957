"""Cross-mapping containment probe over a registry of compiled mappings."""

from repro.analysis.compiled import compile_mapping
from repro.analysis.containment import (
    mapping_contained,
    registry_containment_scan,
    std_covered_by,
)
from repro.core.mapping import mapping_from_rules
from repro.core.std import parse_std


def compiled(rules, source, target, name):
    return compile_mapping(
        mapping_from_rules(rules, source=source, target=target, name=name)
    )


SOURCE = {"S": 2}
TARGET = {"T": 2, "V": 1}

SMALL = ["T(x, y) :- S(x, y)"]
BIG = ["T(x, y) :- S(x, y)", "V(x) :- S(x, y)"]


def test_std_covered_by_reports_witness_indexes():
    candidate = parse_std("T(x, y) :- S(x, y)")
    others = [parse_std("V(x) :- S(x, y)"), parse_std("T(x, y) :- S(x, y)")]
    covered = std_covered_by(candidate, others)
    assert covered is not None and 1 in covered  # the matching T rule is cited
    assert std_covered_by(candidate, others[:1]) is None


def test_mapping_containment_is_one_directional():
    small = [parse_std(r) for r in SMALL]
    big = [parse_std(r) for r in BIG]
    witnesses = mapping_contained(small, big)
    assert witnesses is not None and 0 in witnesses[0]
    assert mapping_contained(big, small) is None


def test_scan_reports_containment_and_equivalence():
    scenarios = {
        "small": compiled(SMALL, SOURCE, TARGET, "small"),
        "big": compiled(BIG, SOURCE, TARGET, "big"),
        "twin": compiled(SMALL, SOURCE, TARGET, "twin"),
    }
    diagnostics = registry_containment_scan(scenarios)
    by_code = {}
    for diag in diagnostics:
        by_code.setdefault(diag.code, []).append(diag)

    # small ⊑ big and twin ⊑ big, each strictly
    contained = {(d.subject, d.payload["contained_in"]) for d in by_code["CONTAIN001"]}
    assert contained == {("scenario:small", "big"), ("scenario:twin", "big")}
    # small ≡ twin, reported once for the unordered pair
    (equiv,) = by_code["CONTAIN002"]
    assert sorted(equiv.payload["pair"]) == ["small", "twin"]
    assert "CONTAIN003" not in by_code


def test_scan_skips_incomparable_pairs_with_reason():
    scenarios = {
        "graph": compiled(
            ["T(x, y) :- E(x, y)"], {"E": 2}, {"T": 2}, "graph"
        ),
        "small": compiled(SMALL, SOURCE, TARGET, "small"),
    }
    (diag,) = registry_containment_scan(scenarios)
    assert diag.code == "CONTAIN003"
    assert diag.payload["reason"] == "different source schemas"
    assert set(diag.payload["pair"]) == {"graph", "small"}


def test_scan_skips_non_cq_candidates():
    negated = compiled(
        ["W(x) :- S(x, y) & ~ (exists r . B(x, r))", "T(x, y) :- S(x, y)"],
        {"S": 2, "B": 2},
        {"T": 2, "W": 1},
        "negated",
    )
    other = compiled(
        ["T(x, y) :- S(x, y)"], {"S": 2, "B": 2}, {"T": 2, "W": 1}, "plain"
    )
    diagnostics = registry_containment_scan({"negated": negated, "plain": other})
    codes = {d.code for d in diagnostics}
    assert codes == {"CONTAIN003"}
    (diag,) = diagnostics
    assert "non-CQ" in diag.payload["reason"]


def test_singleton_registry_produces_no_diagnostics():
    scenarios = {"only": compiled(SMALL, SOURCE, TARGET, "only")}
    assert registry_containment_scan(scenarios) == ()
