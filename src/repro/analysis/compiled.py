"""Compiled mappings: the per-mapping analysis every scenario shares.

Compiling a mapping does, once, everything about it that does not depend on
a source instance: Skolemization, the per-STD trigger plan (which source
relations feed which STDs, and whether each body is a conjunctive query the
semi-naive matcher can drive), and the tiered termination gate over the
target dependencies.  The serving layer's registry compiles each distinct
mapping once and shares the :class:`CompiledMapping` between every scenario
that uses it; the static passes of this package read the same object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.redundancy import redundant_std_indexes
from repro.analysis.termination import TerminationDecision, analyse_termination
from repro.chase.dependencies import EGD, TGD
from repro.core.mapping import SchemaMapping
from repro.core.skolem import SkolemMapping, skolemize
from repro.core.std import STD
from repro.logic.cq import decompose_exists_cq
from repro.logic.formulas import Atom, Eq
from repro.logic.terms import Var


class MappingRejected(ValueError):
    """A mapping failed the tiered termination gate.

    The exception message is the rendered rejection diagnostic — tier ladder
    plus the concrete witness cycle through a special edge — and ``decision``
    carries the machine-readable :class:`TerminationDecision`.
    """

    def __init__(self, message: str, decision: TerminationDecision):
        super().__init__(message)
        self.decision = decision


@dataclass(frozen=True)
class CompiledSTD:
    """One STD with its body pre-analysed for incremental matching.

    ``atoms``/``equalities`` hold the conjunctive decomposition of the body
    when it is CQ-shaped (``None`` otherwise — such bodies are re-evaluated in
    full on every update), ``free_vars`` are the body's free variables in the
    order assignments are projected to, and ``existential`` the head-only
    variables instantiated with nulls.
    """

    index: int
    std: STD
    atoms: tuple[Atom, ...] | None
    equalities: tuple[Eq, ...] | None
    free_vars: tuple[Var, ...]
    existential: tuple[Var, ...]
    source_relations: frozenset[str]

    @property
    def incremental(self) -> bool:
        """Can additions be matched semi-naively through ``match_atoms_delta``?"""
        return self.atoms is not None


@dataclass(frozen=True)
class CompiledMapping:
    """A mapping compiled for serving: analysis done once, reused per scenario."""

    mapping: SchemaMapping
    skolem: SkolemMapping
    stds: tuple[CompiledSTD, ...]
    # source relation -> indexes of the STDs whose body mentions it.
    trigger_plan: dict[str, tuple[int, ...]]
    # Chase termination certified by the tiered gate: compile_mapping rejects
    # anything no tier accepts.
    target_dependencies: tuple[TGD | EGD, ...]
    # The tiered gate's verdict (None only for hand-built test fixtures).
    termination: TerminationDecision | None = field(default=None, compare=False)
    # STD indexes dropped by the redundancy lint (compile with
    # drop_redundant=True).  ``stds`` stays complete with stable indexes —
    # trigger keys and justification nulls embed them — and the dropped
    # indexes are simply excluded from the trigger plan and from
    # ``active_stds``, the tuple materialization fires.
    dropped_stds: frozenset[int] = frozenset()

    @property
    def active_stds(self) -> tuple[CompiledSTD, ...]:
        """The STDs that actually fire (everything minus the dropped ones)."""
        if not self.dropped_stds:
            return self.stds
        return tuple(c for c in self.stds if c.index not in self.dropped_stds)

    def listeners(self, relations: Sequence[str]) -> list[CompiledSTD]:
        """The compiled STDs whose bodies mention any of ``relations``."""
        indexes = sorted(
            {i for name in relations for i in self.trigger_plan.get(name, ())}
        )
        return [self.stds[i] for i in indexes]


def _compile_std(index: int, std: STD) -> CompiledSTD:
    atoms: tuple[Atom, ...] | None = None
    equalities: tuple[Eq, ...] | None = None
    decomposed = decompose_exists_cq(std.body)
    if decomposed is not None:
        atom_list, eq_list, _quantified = decomposed
        atoms = tuple(atom_list)
        equalities = tuple(eq_list)
    return CompiledSTD(
        index=index,
        std=std,
        atoms=atoms,
        equalities=equalities,
        free_vars=tuple(sorted(std.body_variables(), key=lambda v: v.name)),
        existential=tuple(sorted(std.existential_variables(), key=lambda v: v.name)),
        source_relations=frozenset(std.source_relations()),
    )


def compile_mapping(
    mapping: SchemaMapping,
    target_dependencies: Sequence[TGD | EGD] = (),
    drop_redundant: bool = False,
) -> CompiledMapping:
    """Compile a mapping for serving (see module docstring).

    The termination gate is tiered (:func:`analyse_termination`): weak
    acyclicity first, then the safe restriction, super-weak acyclicity and
    the stratified decomposition.  A mapping no tier certifies raises
    :class:`MappingRejected` whose message carries the concrete witness
    cycle through a special edge — a long-lived materialization cannot be
    maintained by a chase whose termination is not guaranteed.

    ``drop_redundant=True`` additionally runs the redundancy lint and
    excludes STDs implied by the rest of the mapping from the trigger plan
    (indexes stay stable; see :attr:`CompiledMapping.dropped_stds`).
    """
    deps = tuple(target_dependencies)
    decision = analyse_termination(deps)
    if not decision.accepted:
        witness = decision.render_witness()
        message = (
            "the target tgds are not weakly acyclic and no richer termination "
            "tier (safety, super-weak acyclicity, stratified decomposition) "
            "certifies the chase; a materialized exchange requires guaranteed "
            "chase termination"
        )
        if witness:
            message += f"; witness cycle through a special edge: {witness}"
        raise MappingRejected(message, decision)
    stds = tuple(_compile_std(i, std) for i, std in enumerate(mapping.stds))
    dropped: frozenset[int] = frozenset()
    if drop_redundant:
        dropped = frozenset(redundant_std_indexes(mapping.stds))
    trigger_plan: dict[str, list[int]] = {}
    for compiled in stds:
        if compiled.index in dropped:
            continue
        for relation in compiled.source_relations:
            trigger_plan.setdefault(relation, []).append(compiled.index)
    return CompiledMapping(
        mapping=mapping,
        skolem=skolemize(mapping),
        stds=stds,
        trigger_plan={name: tuple(ids) for name, ids in trigger_plan.items()},
        target_dependencies=deps,
        termination=decision,
        dropped_stds=dropped,
    )
