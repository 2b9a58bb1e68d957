"""Static analysis over compiled mappings (registration-time, pure).

The compilation itself is :mod:`repro.analysis.compiled`, and the shard
planner is :mod:`repro.analysis.shardability`; the serving layer imports
both and nothing here imports the serving layer.

Four passes share one dependency/position-graph artifact and report
structured :class:`~repro.analysis.diagnostics.Diagnostic` records:

* **termination** — the tiered chase-termination gate (weak acyclicity,
  safety, super-weak acyclicity, stratified decomposition) with a concrete
  witness cycle on rejection;
* **redundancy** — chase-based CQ implication: STDs and target dependencies
  logically implied by the rest of the mapping;
* **shardability** — why each STD or dependency forces residual routing
  under a partition spec;
* **containment** — pairwise cross-mapping containment over a registry of
  scenarios (sharing opportunities).

Entry points: :func:`analyse_mapping` for one compiled mapping,
:meth:`repro.serving.service.ExchangeService.lint` for a live scenario
(plus the cross-scenario probe), and ``python -m repro.analysis`` over the
registered example workloads.
"""

from __future__ import annotations

from repro.analysis.compiled import CompiledMapping
from repro.analysis.containment import (
    mapping_contained,
    registry_containment_scan,
    std_covered_by,
)
from repro.analysis.diagnostics import (
    KNOWN_CODES,
    AnalysisReport,
    Diagnostic,
    Severity,
    report,
)
from repro.analysis.redundancy import (
    analyse_redundancy,
    implied_dependency,
    implied_std,
    redundant_std_indexes,
)
from repro.analysis.shardability import (
    PartitionSpec,
    analyse_shardability_diagnostics,
    plan_diagnostics,
)
from repro.analysis.termination import (
    TIER_ORDER,
    TerminationDecision,
    TierResult,
    affected_positions,
    analyse_termination,
    is_safe,
    is_stratified_safe,
    is_super_weakly_acyclic,
)
from repro.chase.weak_acyclicity import PositionEdge, PositionGraph, WitnessCycle

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "KNOWN_CODES",
    "PositionEdge",
    "PositionGraph",
    "Severity",
    "TIER_ORDER",
    "TerminationDecision",
    "TierResult",
    "WitnessCycle",
    "affected_positions",
    "analyse_mapping",
    "analyse_redundancy",
    "analyse_shardability_diagnostics",
    "analyse_termination",
    "implied_dependency",
    "implied_std",
    "is_safe",
    "is_stratified_safe",
    "is_super_weakly_acyclic",
    "mapping_contained",
    "plan_diagnostics",
    "redundant_std_indexes",
    "registry_containment_scan",
    "report",
    "std_covered_by",
]


def analyse_mapping(
    compiled: CompiledMapping,
    spec: PartitionSpec | None = None,
    scope: str = "mapping",
) -> AnalysisReport:
    """Run the single-mapping passes and merge their diagnostics.

    Termination reuses the verdict cached on the compiled mapping when the
    gate already ran (the normal case) and recomputes it for hand-built
    fixtures.  The cross-mapping containment probe needs a registry of
    scenarios and is not part of this report — see
    :func:`registry_containment_scan` / ``ExchangeService.lint``.
    """
    decision = compiled.termination
    if decision is None:
        decision = analyse_termination(compiled.target_dependencies)
    diagnostics: list[Diagnostic] = list(decision.diagnostics())
    diagnostics.extend(
        analyse_redundancy(
            [cstd.std for cstd in compiled.stds], compiled.target_dependencies
        )
    )
    diagnostics.extend(analyse_shardability_diagnostics(compiled, spec))
    return report(scope, diagnostics)
