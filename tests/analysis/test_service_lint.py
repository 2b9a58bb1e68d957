"""The serving-side surfaces of the analyzer: registry gate, lint(), CLI."""

import json

import pytest

from repro.analysis.__main__ import analyse_workloads, main
from repro.analysis.compiled import MappingRejected, compile_mapping
from repro.chase.dependencies import parse_dependencies
from repro.core.mapping import mapping_from_rules
from repro.relational.builders import make_instance
from repro.serving.service import ExchangeService
from repro.workloads import superweak_dependencies, superweak_mapping


def graph_mapping(extra_rules=(), name="graph"):
    return mapping_from_rules(
        ["T(x, y) :- E(x, y)", *extra_rules],
        source={"E": 2},
        target={"T": 2, "V": 1},
        name=name,
    )


# -- the tiered registration gate ------------------------------------------


def test_rejection_raises_with_rendered_witness_cycle():
    deps = parse_dependencies(["T(x, y) -> exists z . T(y, z)"])
    with pytest.raises(MappingRejected) as excinfo:
        compile_mapping(graph_mapping(), deps)
    message = str(excinfo.value)
    # the legacy contract: callers match on "weakly acyclic"
    assert "weakly acyclic" in message
    # the new contract: the witness cycle is rendered into the error
    assert "witness cycle through a special edge" in message
    assert "T.1 => T.1 [tgd#0]" in message
    decision = excinfo.value.decision
    assert not decision.accepted
    assert decision.witness is not None


def test_rejection_is_a_value_error_for_legacy_callers():
    deps = parse_dependencies(["T(x, y) -> exists z . T(y, z)"])
    with pytest.raises(ValueError, match="weakly acyclic"):
        compile_mapping(graph_mapping(), deps)


def test_superweak_mapping_clears_the_gate_and_serves():
    """The acceptance bar: rejected by the old WA-only gate, admitted now."""
    from repro.analysis.termination import analyse_termination
    from repro.chase.dependencies import TGD
    from repro.chase.weak_acyclicity import is_weakly_acyclic

    deps = superweak_dependencies()
    tgds = [d for d in deps if isinstance(d, TGD)]
    assert not is_weakly_acyclic(tgds)  # the old gate would have raised
    decision = analyse_termination(deps)
    assert decision.accepted and decision.tier == "super-weak-acyclicity"

    service = ExchangeService()
    service.register(
        "superweak",
        superweak_mapping(),
        source=make_instance({"Link": [("a", "a"), ("a", "b")], "Probe": [("p",)]}),
        target_dependencies=deps,
    )
    from repro.logic.cq import cq

    answers = service.query("superweak", cq(["x", "y"], [("Reach", ["x", "y"])])).answers
    assert ("a", "a") in answers and ("a", "b") in answers


# -- service.lint ----------------------------------------------------------


def test_lint_reports_all_passes_for_one_scenario():
    service = ExchangeService()
    service.register(
        "conf", graph_mapping(), source=make_instance({"E": [("1", "2")]})
    )
    report = service.lint("conf")
    assert report.scope == "conf"
    codes = {d.code for d in report}
    assert "TERM001" in codes  # termination verdict is always present
    assert "SHARD004" in codes  # so is the shard-plan summary
    assert report.ok


def test_lint_unknown_scenario_raises_key_error():
    with pytest.raises(KeyError):
        ExchangeService().lint("missing")


def test_lint_probes_containment_across_scenarios():
    service = ExchangeService()
    source = make_instance({"E": [("1", "2")]})
    service.register("small", graph_mapping(), source=source)
    service.register(
        "big",
        graph_mapping(extra_rules=["V(x) :- E(x, y)"], name="big"),
        source=source,
    )
    small_report = service.lint("small")
    (contained,) = small_report.by_code("CONTAIN001")
    assert contained.subject == "scenario:small"
    assert contained.payload["contained_in"] == "big"
    # big is not contained anywhere, so its lint has no CONTAIN001 about it
    assert not any(
        d.subject == "scenario:big" for d in service.lint("big").by_code("CONTAIN001")
    )


def test_lint_reports_redundancy_warnings():
    service = ExchangeService()
    service.register(
        "dup",
        graph_mapping(extra_rules=["T(x, y) :- E(x, y)"], name="dup"),
        source=make_instance({"E": [("1", "2")]}),
    )
    report = service.lint("dup")
    assert report.by_code("RED001")
    assert {d.subject for d in report.by_code("RED001")} == {"std:0", "std:1"}


def test_lint_uses_the_live_shard_plan_when_sharded():
    service = ExchangeService()
    service.register(
        "sharded",
        graph_mapping(),
        source=make_instance({"E": [("1", "2"), ("2", "3")]}),
        shards=2,
    )
    (summary,) = service.lint("sharded").by_code("SHARD004")
    assert summary.payload["local_stds"] == [0]


# -- the CLI ---------------------------------------------------------------


def test_cli_reports_cover_registered_workloads():
    reports = analyse_workloads(["superweak", "skewed"])
    scopes = [r.scope for r in reports]
    assert scopes == ["skewed", "superweak", "cross-mapping"]
    superweak = reports[1]
    (term,) = superweak.by_code("TERM002")
    assert term.payload["tier"] == "super-weak-acyclicity"


def test_cli_text_mode_exits_zero_on_the_shipped_workloads(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "analysis of superweak" in out
    assert "TERM002" in out


def test_cli_strict_mode_fails_on_warnings(capsys):
    assert main(["--strict", "superweak"]) == 1
    assert main(["--strict", "skewed"]) == 0
    capsys.readouterr()


def test_cli_json_mode_emits_machine_readable_reports(capsys):
    assert main(["--json", "superweak"]) == 0
    loaded = json.loads(capsys.readouterr().out)
    assert loaded[0]["scope"] == "superweak"
    codes = {d["code"] for d in loaded[0]["diagnostics"]}
    assert "TERM002" in codes


def test_cli_rejects_unknown_workloads():
    with pytest.raises(SystemExit, match="unknown workload"):
        analyse_workloads(["nope"])
