"""Interned, columnar fact storage: dense int codes behind the ``Instance`` API.

The join and chase hot paths spend most of their time hashing and comparing
*values* — strings, numbers, :class:`~repro.relational.domain.Null` objects —
over and over.  This module trades that per-probe cost for a one-time
encoding: a :class:`ValueInterner` maps every value to a dense ``int`` code,
a :class:`ColumnarRelation` stores each relation as per-position parallel
flat int columns with int-keyed position indexes, and
:class:`ColumnarInstance` exposes the whole thing behind the existing
:class:`~repro.relational.instance.Instance` API, so every consumer —
views, version counters, ``substitute_value``, the chase — keeps working
unchanged while the rewritten join path of :mod:`repro.logic.cq` runs over
int codes and only decodes at the answer boundary.

Code layout
-----------
Constant codes are allocated densely from ``0``; null codes are
``NULL_CODE_BASE + ident``, so ``is_null_code`` is a single range check (no
``isinstance`` per value) and two interners agree on every null's code.  In the serving layer the only
coded instance is the sharded exchange's merged target view; worker
processes ship plain pickled facts (see :mod:`repro.serving.workers`).

Columnar storage keeps each relation's rows dense under deletion by
*swap-remove*: the last row moves into the vacated slot and the per-position
indexes (``code -> set of row ids``) are patched for the moved row only.

Restrictions
------------
A :class:`ColumnarRelation` has one fixed arity — the base ``Instance``
technically tolerates ragged relations, :class:`ColumnarInstance` raises
``ValueError`` instead (schema-carrying instances already enforce this).
Interned codes are append-only; a :meth:`ColumnarInstance.copy` therefore
*shares* its interner with the original, which is safe (codes never change
meaning) and keeps repeated copies cheap.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.relational.domain import Null
from repro.relational.instance import _EMPTY, Instance, RelationView
from repro.relational.schema import Schema

__all__ = [
    "NULL_CODE_BASE",
    "ColumnarInstance",
    "ColumnarRelation",
    "ValueInterner",
    "is_null_code",
]

#: Codes at or above this value denote nulls (``code - NULL_CODE_BASE`` is the
#: null's ident).  Every constant code sits below it.
NULL_CODE_BASE = 1 << 48


def is_null_code(code: int) -> bool:
    """Is ``code`` the code of a labelled null?  A pure range check."""
    return code >= NULL_CODE_BASE


class ValueInterner:
    """A bijection between values and int codes, grown on first sight.

    Constants get dense codes ``0, 1, ...`` in interning order; nulls map
    to ``NULL_CODE_BASE + ident`` (see the module docstring).
    """

    __slots__ = ("_codes", "_by_code", "_nulls")

    def __init__(self) -> None:
        self._codes: dict[Any, int] = {}  # constants only
        self._by_code: dict[int, Any] = {}
        self._nulls: dict[int, Null] = {}  # ident -> the Null object

    # -- encoding ----------------------------------------------------------

    def encode(self, value: Any) -> int:
        """The code of ``value``, interning it on first sight."""
        if isinstance(value, Null):
            ident = value.ident
            if ident not in self._nulls:
                self._nulls[ident] = value
            return NULL_CODE_BASE + ident
        code = self._codes.get(value)
        if code is None:
            code = len(self._codes)
            self._codes[value] = code
            self._by_code[code] = value
        return code

    def encode_tuple(self, values: Iterable[Any]) -> tuple[int, ...]:
        return tuple(map(self.encode, values))

    def code_of(self, value: Any) -> int | None:
        """The code of ``value`` without interning — ``None`` if unknown.

        Membership probes use this so that *looking* for a value never grows
        the table.  Null codes are derivable from the ident alone, so nulls
        always probe successfully (an absent null simply misses every row).
        """
        if isinstance(value, Null):
            return NULL_CODE_BASE + value.ident
        return self._codes.get(value)

    # -- decoding ----------------------------------------------------------

    def decode(self, code: int) -> Any:
        """The value of ``code`` (reconstructing unseen nulls by ident)."""
        if code >= NULL_CODE_BASE:
            ident = code - NULL_CODE_BASE
            null = self._nulls.get(ident)
            if null is None:
                # Identity by ident is all Null equality needs; the label is
                # cosmetic.
                null = Null(ident=ident)
                self._nulls[ident] = null
            return null
        return self._by_code[code]

    def decode_tuple(self, codes: Iterable[int]) -> tuple:
        return tuple(map(self.decode, codes))


class ColumnarRelation:
    """One relation as parallel per-position int columns with swap-remove.

    Rows are identified by their (dense, unstable) row id; ``discard`` moves
    the last row into the vacated slot, so row ids are only meaningful
    between mutations — exactly how the join matcher uses them.  Per-position
    indexes (``code -> set of row ids``) are built lazily and patched
    incrementally afterwards, mirroring the base ``Instance`` contract.
    """

    __slots__ = ("arity", "columns", "row_codes", "row_of", "_indexes")

    def __init__(self, arity: int):
        self.arity = arity
        self.columns: list[list[int]] = [[] for _ in range(arity)]
        self.row_codes: list[tuple[int, ...]] = []
        self.row_of: dict[tuple[int, ...], int] = {}
        self._indexes: dict[int, dict[int, set[int]]] = {}

    def __len__(self) -> int:
        return len(self.row_codes)

    def __contains__(self, coded: tuple[int, ...]) -> bool:
        return coded in self.row_of

    def add(self, coded: tuple[int, ...]) -> bool:
        """Append a coded row; ``False`` if it was already present."""
        if coded in self.row_of:
            return False
        row = len(self.row_codes)
        self.row_of[coded] = row
        self.row_codes.append(coded)
        for position, column in enumerate(self.columns):
            column.append(coded[position])
        for position, buckets in self._indexes.items():
            buckets.setdefault(coded[position], set()).add(row)
        return True

    def discard(self, coded: tuple[int, ...]) -> bool:
        """Swap-remove a coded row; ``False`` if it was absent."""
        row = self.row_of.pop(coded, None)
        if row is None:
            return False
        last = len(self.row_codes) - 1
        moved = self.row_codes[last]
        for position, buckets in self._indexes.items():
            bucket = buckets.get(coded[position])
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del buckets[coded[position]]
        if row != last:
            # Move the last row into the hole and repoint its index entries.
            self.row_codes[row] = moved
            self.row_of[moved] = row
            for position, column in enumerate(self.columns):
                column[row] = moved[position]
            for position, buckets in self._indexes.items():
                bucket = buckets.get(moved[position])
                if bucket is not None:
                    bucket.discard(last)
                    bucket.add(row)
        self.row_codes.pop()
        for column in self.columns:
            column.pop()
        return True

    def index(self, position: int) -> dict[int, set[int]]:
        """The ``code -> row ids`` index at ``position`` (built on demand)."""
        buckets = self._indexes.get(position)
        if buckets is None:
            buckets = {}
            for row, code in enumerate(self.columns[position]):
                buckets.setdefault(code, set()).add(row)
            self._indexes[position] = buckets
        return buckets

    def copy(self) -> "ColumnarRelation":
        out = ColumnarRelation(self.arity)
        out.columns = [list(column) for column in self.columns]
        out.row_codes = list(self.row_codes)
        out.row_of = dict(self.row_of)
        # Indexes rebuild lazily on the copy, like Instance.copy().
        return out


class ColumnarInstance(Instance):
    """An :class:`Instance` whose primary storage is interned and columnar.

    The coded columns are the source of truth; the base class's decoded
    tuple sets and per-position indexes become *lazy mirrors*, materialised
    per relation the first time a generic consumer asks (``relation()``,
    ``lookup()``, the chase's membership probes) and maintained
    incrementally from then on — so code written against the plain
    ``Instance`` API keeps its complexity, while the columnar join path of
    :mod:`repro.logic.cq` never decodes at all.  ``version()`` counters,
    live-view semantics and ``substitute_value`` behave identically to the
    base class (the differential and property tests pin this).
    """

    def __init__(
        self,
        data: Mapping[str, Iterable[tuple]] | None = None,
        schema: Schema | None = None,
        interner: ValueInterner | None = None,
    ):
        self._interner = interner if interner is not None else ValueInterner()
        self._cols: dict[str, ColumnarRelation] = {}
        super().__init__(data, schema=schema)

    @classmethod
    def from_instance(
        cls, instance: Instance, interner: ValueInterner | None = None
    ) -> "ColumnarInstance":
        """Encode an existing instance (any ``Instance`` subclass)."""
        out = cls(schema=instance.schema, interner=interner)
        for name, tup in instance.facts():
            out.add(name, tup)
        return out

    @property
    def interner(self) -> ValueInterner:
        return self._interner

    def columnar_relation(self, name: str) -> ColumnarRelation | None:
        """The coded storage of ``name`` — the join matcher's entry point."""
        return self._cols.get(name)

    # -- mutation ----------------------------------------------------------

    def add(self, relation: str, values: Iterable[Any]) -> tuple:
        tup = tuple(values)
        if self.schema is not None and relation in self.schema:
            expected = self.schema.arity(relation)
            if len(tup) != expected:
                raise ValueError(
                    f"tuple {tup!r} has arity {len(tup)}, relation {relation!r} expects {expected}"
                )
        col = self._cols.get(relation)
        if col is None:
            col = self._cols[relation] = ColumnarRelation(len(tup))
        elif len(tup) != col.arity:
            raise ValueError(
                f"columnar relation {relation!r} has arity {col.arity}, "
                f"cannot add {tup!r} (arity {len(tup)})"
            )
        if not col.add(self._interner.encode_tuple(tup)):
            return tup
        self._versions[relation] = self._versions.get(relation, 0) + 1
        tuples = self._relations.get(relation)
        if tuples is not None:
            tuples.add(tup)
            for position, buckets in self._indexes.get(relation, {}).items():
                buckets.setdefault(tup[position], set()).add(tup)
        else:
            # No decoded mirror: any stale decoded indexes must not survive.
            self._indexes.pop(relation, None)
        return tup

    def discard(self, relation: str, values: Iterable[Any]) -> None:
        tup = tuple(values)
        col = self._cols.get(relation)
        if col is None or len(tup) != col.arity:
            return
        coded = self._probe_tuple(tup)
        if coded is None or not col.discard(coded):
            return
        self._versions[relation] = self._versions.get(relation, 0) + 1
        if not len(col):
            del self._cols[relation]
        tuples = self._relations.get(relation)
        if tuples is not None:
            tuples.discard(tup)
            for position, buckets in self._indexes.get(relation, {}).items():
                bucket = buckets.get(tup[position])
                if bucket is not None:
                    bucket.discard(tup)
                    if not bucket:
                        del buckets[tup[position]]
            if not tuples:
                del self._relations[relation]
        else:
            self._indexes.pop(relation, None)

    def _probe_tuple(self, tup: tuple) -> tuple[int, ...] | None:
        """Encode without interning; ``None`` when some value is unknown."""
        coded = []
        code_of = self._interner.code_of
        for value in tup:
            code = code_of(value)
            if code is None:
                return None
            coded.append(code)
        return tuple(coded)

    def substitute_value(self, old: Any, new: Any) -> list[tuple[str, tuple, tuple]]:
        # The base implementation works verbatim once the decoded mirrors
        # exist: it locates affected tuples through self._bucket and rewrites
        # via self.discard/self.add — all overridden here, so the coded
        # columns stay in sync tuple by tuple.
        self._materialise_all()
        return super().substitute_value(old, new)

    def copy(self) -> "ColumnarInstance":
        out = ColumnarInstance(schema=self.schema, interner=self._interner)
        for name, col in self._cols.items():
            out._cols[name] = col.copy()
        # Decoded mirrors rebuild lazily; versions restart at zero (same
        # contract as Instance.copy()).
        return out

    # -- decoded mirrors ---------------------------------------------------

    def _materialise(self, name: str) -> set[tuple] | frozenset:
        tuples = self._relations.get(name)
        if tuples is not None:
            return tuples
        col = self._cols.get(name)
        if col is None:
            return _EMPTY
        decode = self._interner.decode_tuple
        tuples = {decode(coded) for coded in col.row_codes}
        self._relations[name] = tuples
        return tuples

    def _materialise_all(self) -> None:
        for name in list(self._cols):
            self._materialise(name)

    # -- read access -------------------------------------------------------

    def relation(self, name: str) -> RelationView:
        return RelationView(lambda: self._materialise(name))

    def _tuples(self, name: str) -> set[tuple] | frozenset:
        return self._materialise(name)

    def relation_names(self) -> list[str]:
        return list(self._cols)

    def facts(self) -> Iterator[tuple[str, tuple]]:
        decode = self._interner.decode_tuple
        for name, col in self._cols.items():
            for coded in col.row_codes:
                yield name, decode(coded)

    def __contains__(self, fact: tuple[str, tuple]) -> bool:
        name, tup = fact
        col = self._cols.get(name)
        if col is None:
            return False
        tup = tuple(tup)
        if len(tup) != col.arity:
            return False
        coded = self._probe_tuple(tup)
        return coded is not None and coded in col

    def __len__(self) -> int:
        return sum(len(col) for col in self._cols.values())

    def __bool__(self) -> bool:
        return bool(self._cols)

    def _index(self, relation: str, position: int) -> dict[Any, set[tuple]]:
        self._materialise(relation)
        return super()._index(relation, position)

    def bucket_estimate(self, relation: str, position: int) -> float:
        # Served from the coded indexes: estimating a join order must not
        # force the decoded mirrors into existence.
        key = (relation, position)
        version = self._versions.get(relation, 0)
        cached = self._stat_cache.get(key)
        if cached is not None and cached[0] == version:
            return cached[1]
        col = self._cols.get(relation)
        if col is None or position >= col.arity:
            estimate = 0.0
        else:
            buckets = col.index(position)
            estimate = len(col) / len(buckets) if buckets else 0.0
        self._stat_cache[key] = (version, estimate)
        return estimate

    # -- snapshots ---------------------------------------------------------

    def _as_normalised_dict(self) -> dict[str, frozenset[tuple]]:
        return {name: frozenset(self._materialise(name)) for name in self._cols}

    def to_dict(self) -> dict[str, list[tuple]]:
        self._materialise_all()
        return super().to_dict()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        self._materialise_all()
        return f"Columnar{super().__repr__()}"
