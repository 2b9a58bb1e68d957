"""Query objects: an FO formula with an explicit tuple of answer variables.

A :class:`Query` bundles the formula, the ordered answer variables, and the
classification predicates the paper's results are parameterised by (positive /
monotone / existential / ∀*∃* / full FO).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.logic.cq import _answers, decompose_exists_cq, match_atoms
from repro.logic.evaluation import evaluate, evaluation_domain, query_answers
from repro.logic.formulas import (
    Atom,
    Eq,
    Formula,
    free_variables,
    is_existential,
    is_positive_existential,
    is_universal_existential,
    quantifier_rank,
)
from repro.logic.parser import parse_formula
from repro.logic.terms import Var
from repro.relational.domain import is_null
from repro.relational.instance import Instance


def _conjunctive_parts(formula: Formula) -> Optional[tuple[list[Atom], list[Eq]]]:
    """Decompose an ∃-prefixed conjunction of atoms/equalities, if it is one.

    Returns ``(atoms, equalities)`` when :func:`~repro.logic.cq.decompose_exists_cq`
    accepts the formula *and* every equality variable occurs in some atom —
    the precondition for evaluating it with a join instead of active-domain
    quantification.  Returns ``None`` otherwise.
    """
    parts = decompose_exists_cq(formula)
    if parts is None:
        return None
    atoms, equalities, _quantified = parts
    atom_vars = {v for atom in atoms for v in free_variables(atom)}
    if any(not free_variables(eq) <= atom_vars for eq in equalities):
        return None
    return atoms, equalities


class Query:
    """A relational-calculus query ``Q(x̄)`` given by a formula ``φ(x̄)``.

    ``monotone`` may be passed explicitly for queries that are semantically
    monotone without being syntactically positive (Proposition 4 covers
    "monotone polynomial-time" queries); by default monotonicity is inferred
    syntactically from positivity.
    """

    def __init__(
        self,
        formula: Formula | str,
        answer_variables: Iterable[Var | str] = (),
        name: str = "Q",
        monotone: bool | None = None,
    ):
        self.formula = parse_formula(formula) if isinstance(formula, str) else formula
        self.answer_variables: tuple[Var, ...] = tuple(
            Var(v) if isinstance(v, str) else v for v in answer_variables
        )
        self.name = name
        free = free_variables(self.formula)
        extra = free - set(self.answer_variables)
        if extra:
            raise ValueError(
                f"free variables {sorted(v.name for v in extra)} are not answer variables"
            )
        self._monotone_override = monotone

    # -- classification ----------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.answer_variables)

    def is_boolean(self) -> bool:
        return self.arity == 0

    def is_positive(self) -> bool:
        """Positive existential (∃, ∧, ∨) — corresponds to unions of CQs."""
        return is_positive_existential(self.formula)

    def is_monotone(self) -> bool:
        """Monotone queries: positive ones, or those declared monotone by the caller."""
        if self._monotone_override is not None:
            return self._monotone_override
        return self.is_positive()

    def is_existential(self) -> bool:
        return is_existential(self.formula)

    def is_universal_existential(self) -> bool:
        """∀*∃* prefix queries — the class covered by Proposition 5."""
        return is_universal_existential(self.formula)

    def quantifier_rank(self) -> int:
        return quantifier_rank(self.formula)

    # -- evaluation ----------------------------------------------------------------

    def _cq_parts(self) -> Optional[tuple[list, list]]:
        """Cached CQ decomposition of the formula (``None`` when not CQ-shaped)."""
        try:
            return self._cq_parts_cache
        except AttributeError:
            self._cq_parts_cache = _conjunctive_parts(self.formula)
            return self._cq_parts_cache

    def evaluate(self, instance: Instance, domain: Iterable[Any] | None = None) -> set[tuple]:
        """Evaluate naively (nulls as plain values), returning all answer tuples.

        CQ-shaped formulas whose answer variables are all *free* in the
        formula are evaluated by the compiled join kernel of
        :mod:`repro.logic.cq` (when no explicit ``domain`` restriction is
        given).  Answer variables that are absent or shadowed by a
        quantifier range over the evaluation domain under the reference
        semantics, which a join cannot reproduce, so those fall back to
        active-domain evaluation — as does everything non-CQ.
        """
        if domain is None:
            parts = self._cq_parts()
            if parts is not None and set(self.answer_variables) <= free_variables(self.formula):
                atoms, equalities = parts
                return _answers(self.answer_variables, atoms, equalities, instance, False)
        return query_answers(self.formula, self.answer_variables, instance, domain=domain)

    def naive_evaluate(self, instance: Instance, domain: Iterable[Any] | None = None) -> set[tuple]:
        """Naive evaluation ``Q_naive``: evaluate, then discard tuples containing nulls."""
        return {
            t
            for t in self.evaluate(instance, domain=domain)
            if not any(is_null(v) for v in t)
        }

    def holds(self, instance: Instance, answer: tuple = (), domain: Iterable[Any] | None = None) -> bool:
        """Does ``answer ∈ Q(instance)`` under naive evaluation of the formula?"""
        if len(answer) != self.arity:
            raise ValueError(f"answer arity {len(answer)} != query arity {self.arity}")
        assignment = dict(zip(self.answer_variables, answer))
        if domain is None:
            parts = self._cq_parts()
            # An answer variable shadowed by a quantifier must not be
            # pre-bound in the join (the reference semantics ignores its
            # binding inside the quantifier's scope), so fall back then.
            if parts is not None:
                atoms, equalities = parts
                atom_vars = {v for atom in atoms for v in free_variables(atom)}
                shadowed = atom_vars - free_variables(self.formula)
                if not (set(self.answer_variables) & shadowed):
                    return (
                        next(match_atoms(atoms, instance, assignment, equalities), None)
                        is not None
                    )
            domain = evaluation_domain(instance, self.formula, answer)
        return evaluate(self.formula, instance, assignment, domain=domain)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head = ", ".join(v.name for v in self.answer_variables)
        return f"{self.name}({head}) := {self.formula!r}"
