"""Weak acyclicity of sets of tgds and the position graph behind it.

Weak acyclicity (Fagin–Kolaitis–Miller–Popa) is the standard sufficient
condition for chase termination.  The *position graph* has positions
``(relation, index)`` as nodes and, for every tgd and every frontier variable
``x`` occurring in a body position ``p``:

* a *regular* edge ``p → q`` for every head position ``q`` where ``x`` occurs;
* a *special* edge ``p ⇒ r`` for every head position ``r`` holding an
  existential variable.

A set of tgds is weakly acyclic iff no cycle goes through a special edge.

:class:`PositionGraph` keeps per-edge tgd provenance and can extract a
concrete *witness cycle* through a special edge — the evidence attached to a
termination-rejection diagnostic.  The richer termination tiers of
:mod:`repro.analysis.termination` reuse the same construction with an *edge
filter* (e.g. the safe restriction keeps only edges contributed by frontier
variables whose every body occurrence is an affected position).
:func:`dependency_graph` and :func:`is_weakly_acyclic` are the light-weight
API the chase engine and the paper-facing core use.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.chase.dependencies import TGD
from repro.logic.terms import Var

Position = tuple[str, int]
Edge = tuple[Position, Position, bool]  # (from, to, is_special)


def render_position(position: Position) -> str:
    relation, index = position
    return f"{relation}.{index}"


@dataclass(frozen=True)
class PositionEdge:
    """One edge of the dependency graph, with the tgds that contribute it."""

    source: Position
    target: Position
    special: bool
    tgds: tuple[int, ...] = ()

    def render(self) -> str:
        arrow = "=>" if self.special else "->"
        via = ",".join(f"tgd#{i}" for i in self.tgds) or "?"
        return f"{render_position(self.source)} {arrow} {render_position(self.target)} [{via}]"

    def to_payload(self) -> dict[str, Any]:
        return {
            "source": list(self.source),
            "target": list(self.target),
            "special": self.special,
            "tgds": list(self.tgds),
        }


@dataclass(frozen=True)
class WitnessCycle:
    """A cycle through a special edge: the first edge is always the special one."""

    edges: tuple[PositionEdge, ...]

    def render(self) -> str:
        return " ; ".join(edge.render() for edge in self.edges)

    def to_payload(self) -> dict[str, Any]:
        return {"cycle": [edge.to_payload() for edge in self.edges]}


#: ``filter(tgd_index, tgd, variable) -> bool`` — whether this frontier
#: variable of this tgd contributes its edges to the graph.
EdgeFilter = Callable[[int, TGD, Var], bool]


class PositionGraph:
    """The position dependency graph of a sequence of tgds."""

    def __init__(self, tgds: Sequence[TGD], edges: Iterable[PositionEdge]) -> None:
        self.tgds = tuple(tgds)
        self.edges = tuple(sorted(edges, key=lambda e: (e.source, e.target, e.special)))
        self._successors: dict[Position, list[PositionEdge]] = {}
        nodes: set[Position] = set()
        for edge in self.edges:
            self._successors.setdefault(edge.source, []).append(edge)
            nodes.add(edge.source)
            nodes.add(edge.target)
        self.nodes = tuple(sorted(nodes))

    @classmethod
    def from_tgds(
        cls, tgds: Sequence[TGD], edge_filter: EdgeFilter | None = None
    ) -> "PositionGraph":
        tgds = tuple(tgds)
        contributions: dict[tuple[Position, Position, bool], set[int]] = {}
        for tgd_index, tgd in enumerate(tgds):
            body_positions: dict[Var, set[Position]] = {}
            for atom in tgd.body:
                for index, term in enumerate(atom.terms):
                    if isinstance(term, Var):
                        body_positions.setdefault(term, set()).add((atom.relation, index))
            existential = tgd.existential_variables()
            head_var_positions: dict[Var, set[Position]] = {}
            existential_positions: set[Position] = set()
            for atom in tgd.head:
                for index, term in enumerate(atom.terms):
                    if isinstance(term, Var):
                        if term in existential:
                            existential_positions.add((atom.relation, index))
                        else:
                            head_var_positions.setdefault(term, set()).add(
                                (atom.relation, index)
                            )
            frontier = tgd.frontier_variables()
            for variable, positions in body_positions.items():
                if variable not in frontier:
                    continue
                if edge_filter is not None and not edge_filter(tgd_index, tgd, variable):
                    continue
                for source in positions:
                    for target in head_var_positions.get(variable, set()):
                        contributions.setdefault((source, target, False), set()).add(tgd_index)
                    for target in existential_positions:
                        contributions.setdefault((source, target, True), set()).add(tgd_index)
        edges = [
            PositionEdge(source, target, special, tuple(sorted(indices)))
            for (source, target, special), indices in contributions.items()
        ]
        return cls(tgds, edges)

    def edge_triples(self) -> list[Edge]:
        """The provenance-free edge list (the legacy ``dependency_graph`` shape)."""
        return [(e.source, e.target, e.special) for e in self.edges]

    def successors(self, position: Position) -> Sequence[PositionEdge]:
        return self._successors.get(position, ())

    def find_path(self, start: Position, end: Position) -> tuple[PositionEdge, ...] | None:
        """A shortest edge path ``start →* end`` (BFS; empty tuple if equal)."""
        if start == end:
            return ()
        parents: dict[Position, PositionEdge] = {}
        queue: deque[Position] = deque([start])
        seen = {start}
        while queue:
            node = queue.popleft()
            for edge in self.successors(node):
                if edge.target in seen:
                    continue
                parents[edge.target] = edge
                if edge.target == end:
                    path: list[PositionEdge] = []
                    cursor = end
                    while cursor != start:
                        step = parents[cursor]
                        path.append(step)
                        cursor = step.source
                    return tuple(reversed(path))
                seen.add(edge.target)
                queue.append(edge.target)
        return None

    def special_cycle(self) -> WitnessCycle | None:
        """A concrete cycle through a special edge, or ``None`` if weakly acyclic.

        Deterministic: special edges are probed in sorted order and the
        closing path is BFS-shortest, so the same tgds always yield the same
        witness.
        """
        for edge in self.edges:
            if not edge.special:
                continue
            closing = self.find_path(edge.target, edge.source)
            if closing is not None:
                return WitnessCycle((edge,) + closing)
        return None

    @property
    def is_weakly_acyclic(self) -> bool:
        return self.special_cycle() is None


def dependency_graph(tgds: Iterable[TGD]) -> list[Edge]:
    """Build the (position) dependency graph of a set of tgds."""
    return PositionGraph.from_tgds(tuple(tgds)).edge_triples()


def is_weakly_acyclic(tgds: Iterable[TGD]) -> bool:
    """Is the set of tgds weakly acyclic (no cycle through a special edge)?"""
    return PositionGraph.from_tgds(tuple(tgds)).is_weakly_acyclic
