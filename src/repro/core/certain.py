"""Certain answers in data exchange (Section 4).

For an annotated mapping ``Σα``, a ground source ``S`` and a query ``Q``::

    certain_Σα(Q, S) = ⋂ { Q̄(R) : R ∈ RepA(T), T a Σα-solution }
                     = Q̄(CSolA(S))                     (Corollary 2)

where ``Q̄`` denotes certain answers of ``Q`` over an incomplete instance.
Key facts implemented here:

* Proposition 3 / Corollary 3: for positive (indeed monotone) queries,
  ``certain_Σα(Q, S)`` equals the naive evaluation of ``Q`` over the plain
  canonical solution, for *every* annotation — computable in polynomial time.
* Proposition 2: the annotations ``Σ_op`` and ``Σ_cl`` recover the classical
  OWA and CWA certain answers, and every annotation lies between them.
* For non-monotone queries, certain answers are computed tuple-by-tuple with
  the DEQA procedures of :mod:`repro.core.deqa`, whose completeness bounds
  follow the paper's membership proofs.

Evaluation is routed through the indexed matching layer: canonical solutions
are built by :func:`repro.logic.cq.match_atoms` joins over the source's
per-position hash indexes, and CQ-shaped queries are answered by the same join
over the canonical solution (see :meth:`repro.logic.queries.Query.evaluate`)
rather than by active-domain quantification.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Optional, Union

from repro.algebra.expressions import RAExpression
from repro.algebra.naive import is_positive_expression, naive_evaluate_algebra
from repro.algebra.translate import algebra_to_query
from repro.core.canonical import CanonicalSolution, canonical_solution
from repro.core.deqa import Certainty, is_certain
from repro.core.mapping import SchemaMapping
from repro.logic.cq import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.logic.formulas import constants_of
from repro.logic.queries import Query
from repro.relational.domain import is_null
from repro.relational.instance import Instance

AnyQuery = Union[Query, ConjunctiveQuery, UnionOfConjunctiveQueries, RAExpression]


def _as_query(query: AnyQuery, mapping: SchemaMapping | None = None) -> Query:
    """Coerce the supported query representations into a :class:`Query`."""
    if isinstance(query, Query):
        return query
    if isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
        if len(query.disjuncts) == 1:
            (single,) = query.disjuncts
            return Query(single.to_formula(), single.head, name=query.name, monotone=True)
        from repro.logic.formulas import disjunction, substitute
        from repro.logic.terms import Var

        # Align the disjuncts on a common tuple of answer variables.
        answer_vars = tuple(Var(f"u{i}") for i in range(query.arity))
        formulas = []
        for disjunct in query.disjuncts:
            renaming = dict(zip(disjunct.head, answer_vars))
            formulas.append(substitute(disjunct.to_formula(), renaming))
        return Query(disjunction(formulas), answer_vars, name=query.name, monotone=True)
    if isinstance(query, RAExpression):
        if mapping is None:
            raise ValueError("translating an algebra query requires the mapping (for arities)")
        arities = {r.name: r.arity for r in mapping.target.relations()}
        return algebra_to_query(query, arities)
    raise TypeError(f"unsupported query object {query!r}")


def certain_answers_naive(query: AnyQuery, instance: Instance) -> set[tuple]:
    """Naive evaluation ``Q̄_naive`` of a query over an instance with nulls.

    Nulls are treated as ordinary values and tuples containing nulls are
    discarded from the output.  For unions of conjunctive queries this
    computes the certain answers of the query over the naive table.
    """
    if isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
        return query.naive_evaluate(instance)
    if isinstance(query, RAExpression):
        return naive_evaluate_algebra(query, instance)
    if isinstance(query, Query):
        return query.naive_evaluate(instance)
    raise TypeError(f"unsupported query object {query!r}")


def certain_answers_positive(
    mapping: SchemaMapping, source: Instance, query: AnyQuery
) -> set[tuple]:
    """Certain answers of a positive (or otherwise monotone) query (Proposition 3).

    Regardless of the annotation, ``certain_Σα(Q, S)`` is obtained by naive
    evaluation of ``Q`` over the plain canonical solution ``CSol(S)``.
    """
    csol = canonical_solution(mapping, source).instance
    return certain_answers_naive(query, csol)


def _candidate_answers(canonical: CanonicalSolution, query: Query) -> Iterable[tuple]:
    """Candidate certain-answer tuples for a non-monotone query.

    By genericity, certain answers consist of constants from the source (which
    are exactly the constants of the canonical solution) together with the
    constants mentioned in the query.  The candidate domain is computed once
    from the supplied canonical solution, which the caller shares with the
    per-tuple :func:`repro.core.deqa.is_certain` checks instead of re-chasing
    it for every candidate.
    """
    pool = sorted(canonical.instance.constants() | constants_of(query.formula), key=repr)
    return itertools.product(pool, repeat=query.arity)


def certain_answers(
    mapping: SchemaMapping,
    source: Instance,
    query: AnyQuery,
    extra_constants: int | None = None,
    max_extra_tuples: int | None = None,
) -> set[tuple]:
    """Certain answers ``certain_Σα(Q, S)`` of an arbitrary query.

    Monotone queries are answered by naive evaluation over the canonical
    solution (complete, polynomial time).  Other queries are answered
    tuple-by-tuple with :func:`repro.core.deqa.is_certain`; the optional
    budgets are forwarded there (see that function for the completeness
    guarantees, which follow the paper's Propositions 4–5 and Lemma 2).
    """
    normalized = _as_query(query, mapping)
    if normalized.is_monotone():
        return certain_answers_positive(mapping, source, query)
    canonical = canonical_solution(mapping, source)
    answers: set[tuple] = set()
    for candidate in _candidate_answers(canonical, normalized):
        result = is_certain(
            mapping,
            source,
            normalized,
            candidate,
            extra_constants=extra_constants,
            max_extra_tuples=max_extra_tuples,
            canonical=canonical,
        )
        if result.certain:
            answers.add(candidate)
    return answers


def certain_answer_boolean(
    mapping: SchemaMapping,
    source: Instance,
    query: AnyQuery,
    extra_constants: int | None = None,
    max_extra_tuples: int | None = None,
) -> bool:
    """Certain answer of a boolean query (``True`` iff certainly true)."""
    normalized = _as_query(query, mapping)
    if normalized.arity != 0:
        raise ValueError("certain_answer_boolean expects a boolean query")
    if normalized.is_monotone():
        return bool(certain_answers_positive(mapping, source, query))
    return is_certain(
        mapping,
        source,
        normalized,
        (),
        extra_constants=extra_constants,
        max_extra_tuples=max_extra_tuples,
    ).certain
