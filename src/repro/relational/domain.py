"""Domains of values: constants and labelled nulls.

The paper assumes two countably infinite disjoint domains ``Const`` and
``Null``.  Constants are modelled as ordinary hashable Python values (strings,
integers, ...); nulls are instances of the :class:`Null` class, each carrying a
globally unique identifier, mirroring the paper's ``⊥_i`` notation.

Source instances are populated with constants only; target instances may mix
constants and nulls.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator


class Null:
    """A labelled null value ``⊥_i``.

    Nulls compare equal only to themselves (syntactic equality of labelled
    nulls), are hashable, and are never equal to any constant.  The optional
    ``label`` is purely cosmetic and shows up in ``repr`` output, which is
    convenient when reading canonical solutions produced by the chase.
    """

    __slots__ = ("ident", "label")

    _counter = itertools.count(1)

    def __init__(self, label: str | None = None, ident: int | None = None):
        self.ident = next(Null._counter) if ident is None else ident
        self.label = label

    def __reduce__(self):
        """Pickle by label and ident: the copy is this null, no ident drawn."""
        return (Null, (self.label, self.ident))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.label:
            return f"⊥{self.ident}[{self.label}]"
        return f"⊥{self.ident}"

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Null) and other.ident == self.ident)

    def __hash__(self) -> int:
        return hash(("__null__", self.ident))

    def __lt__(self, other: "Null") -> bool:
        if not isinstance(other, Null):
            return NotImplemented
        return self.ident < other.ident


class NullFactory:
    """Deterministic factory of fresh nulls.

    The chase and the canonical-solution construction need *fresh* nulls whose
    identity is reproducible across runs (important for tests and benchmark
    determinism).  A factory hands out nulls with consecutive local identifiers
    while still creating globally distinct :class:`Null` objects.
    """

    def __init__(self, prefix: str = "n"):
        self._prefix = prefix
        self._count = 0
        self._by_key: dict[Any, Null] = {}

    def fresh(self, label: str | None = None) -> Null:
        """Return a brand new null, optionally labelled."""
        self._count += 1
        return Null(label=label or f"{self._prefix}{self._count}")

    def for_key(self, key: Any, label: str | None = None) -> Null:
        """Return the null associated with ``key``, creating it on first use.

        This implements the paper's ``⊥_(φ,ψ,ā,b̄)`` convention: the same
        justification always yields the same null.
        """
        if key not in self._by_key:
            self._by_key[key] = self.fresh(label=label)
        return self._by_key[key]

    def known_keys(self) -> Iterator[Any]:
        return iter(self._by_key)

    def __len__(self) -> int:
        return len(self._by_key)


def fresh_null(label: str | None = None) -> Null:
    """Create a fresh null with a globally unique identity."""
    return Null(label=label)


def is_null(value: Any) -> bool:
    """Return ``True`` iff ``value`` is a labelled null."""
    return isinstance(value, Null)


def is_constant(value: Any) -> bool:
    """Return ``True`` iff ``value`` is a constant (i.e. not a null)."""
    return not isinstance(value, Null)


def constants_in(values: Iterable[Any]) -> set[Any]:
    """Return the set of constants occurring in ``values``."""
    return {v for v in values if is_constant(v)}


def nulls_in(values: Iterable[Any]) -> set[Null]:
    """Return the set of nulls occurring in ``values``."""
    return {v for v in values if is_null(v)}


def fresh_constant_pool(size: int, avoid: Iterable[Any] = (), prefix: str = "c") -> list[str]:
    """Return ``size`` fresh constants not occurring in ``avoid``.

    Decision procedures in the paper repeatedly use the genericity of queries:
    it suffices to consider valuations into the active domain plus a bounded
    number of fresh constants.  This helper materialises such a pool.
    """
    avoid_set = set(avoid)
    pool: list[str] = []
    i = 0
    while len(pool) < size:
        candidate = f"@{prefix}{i}"
        if candidate not in avoid_set:
            pool.append(candidate)
        i += 1
    return pool
