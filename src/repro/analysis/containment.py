"""Cross-mapping containment probe (after Calì–Torlone).

A mapping ``M1`` is *contained* in ``M2`` (written ``M1 ⊑ M2``) when, on
every source instance, every annotated fact ``M1`` derives is also derived by
``M2`` — for CQ-bodied STD mappings this reduces to rule-wise implication:
each STD of ``M1`` must be covered by ``M2``'s STDs on the frozen canonical
database of its body (the same check the redundancy lint runs within one
mapping).  Containment in both directions is equivalence.

Operationally this is the ROADMAP item-4 sharing opportunity: a scenario
whose mapping is contained in another's could answer its monotone queries
from the larger scenario's materialization instead of maintaining its own.

The probe is restricted to the decidable fragment and reports honest skips
(``CONTAIN003``) outside it: pairs must share the source schema and have
equal (or both empty) target-dependency sets, and the contained candidate's
STDs must all be CQ-bodied.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.analysis.compiled import CompiledMapping
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.redundancy import implied_std
from repro.core.std import STD

PASS_NAME = "containment"


def std_covered_by(candidate: STD, others: Sequence[STD]) -> tuple[int, ...] | None:
    """Indexes (into ``others``) covering ``candidate``, or ``None``.

    ``candidate`` must have a CQ body; a ``None`` also covers that case
    (the check does not apply, so nothing is claimed).
    """
    witness = implied_std(0, [candidate, *others])
    if witness is None:
        return None
    return tuple(i - 1 for i in witness)


def mapping_contained(
    stds: Sequence[STD], other_stds: Sequence[STD]
) -> dict[int, tuple[int, ...]] | None:
    """Is every STD of the first mapping covered by the second's?

    Returns ``{std index: covering indexes}`` when contained, else ``None``.
    A non-CQ STD on the candidate side makes the answer ``None`` (the caller
    is expected to have skipped such pairs with a diagnostic).
    """
    witnesses: dict[int, tuple[int, ...]] = {}
    for index, std in enumerate(stds):
        if not std.is_cq():
            return None
        covered = std_covered_by(std, other_stds)
        if covered is None:
            return None
        witnesses[index] = covered
    return witnesses


def _pair_obstacle(left: CompiledMapping, right: CompiledMapping) -> str | None:
    """Why the probe cannot compare a pair, or ``None`` when it can."""
    left_source = {r.name for r in left.mapping.source.relations()}
    right_source = {r.name for r in right.mapping.source.relations()}
    if left_source != right_source:
        return "different source schemas"
    if set(left.target_dependencies) != set(right.target_dependencies):
        return "different target-dependency sets"
    if any(not cstd.std.is_cq() for cstd in left.stds):
        return "non-CQ STDs on the candidate side"
    return None


def registry_containment_scan(
    scenarios: Mapping[str, CompiledMapping]
) -> tuple[Diagnostic, ...]:
    """Pairwise containment over registered scenarios.

    Emits one ``CONTAIN001`` per strictly contained ordered pair, one
    ``CONTAIN002`` per equivalent unordered pair, and ``CONTAIN003`` for
    pairs outside the decidable fragment.  Deterministic: scenario names are
    probed in sorted order.
    """
    names = sorted(scenarios)
    out: list[Diagnostic] = []
    contained: dict[tuple[str, str], dict[int, tuple[int, ...]]] = {}
    skipped: set[tuple[str, str]] = set()
    for left in names:
        for right in names:
            if left >= right:
                continue
            obstacle = _pair_obstacle(scenarios[left], scenarios[right])
            if obstacle is None:
                # the reverse direction also needs the candidate-side CQ check
                obstacle = _pair_obstacle(scenarios[right], scenarios[left])
            if obstacle is not None:
                skipped.add((left, right))
                out.append(
                    Diagnostic(
                        "CONTAIN003",
                        Severity.INFO,
                        PASS_NAME,
                        f"scenario:{left}+scenario:{right}",
                        f"containment probe skipped: {obstacle}",
                        {"pair": [left, right], "reason": obstacle},
                    )
                )
    for left in names:
        for right in names:
            if left == right or tuple(sorted((left, right))) in skipped:
                continue
            witnesses = mapping_contained(
                [cstd.std for cstd in scenarios[left].stds],
                [cstd.std for cstd in scenarios[right].stds],
            )
            if witnesses is not None:
                contained[(left, right)] = witnesses
    reported_equivalent: set[tuple[str, str]] = set()
    for (left, right), witnesses in sorted(contained.items()):
        if (right, left) in contained:
            pair = tuple(sorted((left, right)))
            if pair in reported_equivalent:
                continue
            reported_equivalent.add(pair)
            out.append(
                Diagnostic(
                    "CONTAIN002",
                    Severity.INFO,
                    PASS_NAME,
                    f"scenario:{pair[0]}",
                    f"mapping equivalent to scenario {pair[1]!r}: each derives "
                    "exactly the other's facts; one materialization could serve both",
                    {"pair": list(pair)},
                )
            )
            continue
        out.append(
            Diagnostic(
                "CONTAIN001",
                Severity.INFO,
                PASS_NAME,
                f"scenario:{left}",
                f"mapping contained in scenario {right!r}: every fact it derives "
                "is derived there too (sharing opportunity)",
                {
                    "pair": [left, right],
                    "contained_in": right,
                    "witnesses": {str(k): list(v) for k, v in witnesses.items()},
                },
            )
        )
    return tuple(out)
