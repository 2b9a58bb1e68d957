"""Interned columnar storage: unit, differential and property tests.

``ColumnarInstance`` must be observationally identical to a plain
``Instance`` — same tuple sets, same live-view semantics, same version
counters — while keeping its coded columns and int-keyed indexes
consistent under arbitrary interleavings of ``add`` / ``discard`` /
``substitute_value``.  The Hypothesis test at the bottom drives both
implementations with the same random operation sequence and compares
everything after every step.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational.builders import make_instance
from repro.relational.domain import Null, fresh_null
from repro.relational.instance import Instance
from repro.relational.interning import (
    NULL_CODE_BASE,
    ColumnarInstance,
    ColumnarRelation,
    ValueInterner,
    is_null_code,
)
from repro.relational.schema import Schema


# ---------------------------------------------------------------------------
# ValueInterner
# ---------------------------------------------------------------------------


def test_interner_round_trips_constants_and_nulls():
    interner = ValueInterner()
    null = fresh_null("n")
    values = ["a", 7, ("nested",), null]
    codes = interner.encode_tuple(values)
    assert interner.decode_tuple(codes) == tuple(values)
    assert [is_null_code(c) for c in codes] == [False, False, False, True]
    # Encoding is idempotent: same value, same code.
    assert interner.encode_tuple(values) == codes


def test_interner_constant_codes_are_dense_from_base():
    interner = ValueInterner()
    assert interner.encode("a") == 0
    assert interner.encode(fresh_null()) >= NULL_CODE_BASE  # nulls take no slot
    assert interner.encode("b") == 1
    assert interner.encode("a") == 0
    assert interner.decode_tuple((0, 1)) == ("a", "b")


def test_interner_null_codes_are_stable_across_interners():
    null = fresh_null()
    a, b = ValueInterner(), ValueInterner()
    b.encode("shifts b's constants, never its null codes")
    assert a.encode(null) == b.encode(null) == NULL_CODE_BASE + null.ident
    # Decoding an unseen null reconstructs it by ident (equality holds).
    fresh_table = ValueInterner()
    assert fresh_table.decode(NULL_CODE_BASE + null.ident) == null


def test_interner_probe_does_not_intern():
    interner = ValueInterner()
    assert interner.code_of("unseen") is None
    assert interner.encode("first") == 0  # the probe allocated nothing
    assert interner.code_of(fresh_null()) is not None  # nulls always probe


# ---------------------------------------------------------------------------
# ColumnarRelation
# ---------------------------------------------------------------------------


def test_columnar_relation_swap_remove_keeps_indexes_consistent():
    rel = ColumnarRelation(2)
    rows = [(1, 2), (3, 2), (5, 6)]
    for row in rows:
        assert rel.add(row)
    assert not rel.add((1, 2))  # duplicate
    index = rel.index(1)
    assert index == {2: {0, 1}, 6: {2}}
    # Swap-remove the first row: (5, 6) moves into slot 0.
    assert rel.discard((1, 2))
    assert not rel.discard((1, 2))
    assert rel.row_codes == [(5, 6), (3, 2)]
    assert rel.index(1) == {6: {0}, 2: {1}}
    assert rel.index(0) == {5: {0}, 3: {1}}
    assert (3, 2) in rel and (1, 2) not in rel
    assert len(rel) == 2


def test_columnar_relation_copy_is_independent():
    rel = ColumnarRelation(1)
    rel.add((1,))
    clone = rel.copy()
    clone.add((2,))
    assert len(rel) == 1 and len(clone) == 2


# ---------------------------------------------------------------------------
# ColumnarInstance: API differential vs the plain Instance
# ---------------------------------------------------------------------------


def test_columnar_instance_matches_instance_api():
    null = fresh_null()
    data = {"E": [("a", "b"), ("b", "c")], "N": [(null, "x")]}
    plain = make_instance(data)
    columnar = ColumnarInstance(data)
    assert columnar == plain
    assert columnar.relation("E") == plain.relation("E")
    assert set(columnar.facts()) == set(plain.facts())
    assert sorted(columnar.relation_names()) == sorted(plain.relation_names())
    assert len(columnar) == len(plain)
    assert ("E", ("a", "b")) in columnar
    assert ("E", ("z", "z")) not in columnar
    assert ("E", ("a",)) not in columnar  # arity mismatch probes cleanly


def test_columnar_instance_live_views_and_versions():
    columnar = ColumnarInstance()
    view = columnar.relation("E")
    assert columnar.version("E") == 0
    columnar.add("E", ("a", "b"))
    assert ("a", "b") in view  # live view sees later mutations
    assert columnar.version("E") == 1
    columnar.add("E", ("a", "b"))  # duplicate: no version bump
    assert columnar.version("E") == 1
    columnar.discard("E", ("a", "b"))
    assert columnar.version("E") == 2
    assert not view


def test_columnar_instance_enforces_fixed_arity():
    columnar = ColumnarInstance({"E": [("a", "b")]})
    with pytest.raises(ValueError):
        columnar.add("E", ("a", "b", "c"))
    schema = Schema({"R": 2})
    with pytest.raises(ValueError):
        ColumnarInstance(schema=schema).add("R", ("only",))


def test_columnar_instance_substitute_value_matches_plain():
    null = fresh_null()
    data = {"E": [("a", null), (null, "b")], "F": [("c",)]}
    plain = make_instance(data)
    columnar = ColumnarInstance(data)
    assert set(columnar.substitute_value(null, "z")) == set(
        plain.substitute_value(null, "z")
    )
    assert columnar == plain
    assert columnar.version("E") == plain.version("E")


def test_columnar_instance_copy_shares_interner():
    columnar = ColumnarInstance({"E": [("a", "b")]})
    clone = columnar.copy()
    assert clone.interner is columnar.interner
    clone.add("E", ("c", "d"))
    assert len(columnar) == 1 and len(clone) == 2
    assert clone.version("E") == 1  # versions restart on copy


def test_columnar_from_instance_round_trip():
    plain = make_instance({"E": [("a", 1), ("b", 2)], "U": [("u",)]})
    columnar = ColumnarInstance.from_instance(plain)
    assert columnar == plain
    assert columnar.to_dict() == plain.to_dict()


def test_bucket_estimate_tracks_mutations():
    columnar = ColumnarInstance({"E": [("a", "b"), ("a", "c")]})
    assert columnar.bucket_estimate("E", 0) == 2.0  # one bucket, two rows
    assert columnar.bucket_estimate("E", 1) == 1.0
    columnar.add("E", ("d", "b"))
    assert columnar.bucket_estimate("E", 0) == 1.5  # cache invalidated by version
    assert columnar.bucket_estimate("missing", 0) == 0.0
    assert columnar.bucket_estimate("E", 9) == 0.0


# ---------------------------------------------------------------------------
# Property: interleaved mutations keep both implementations identical
# ---------------------------------------------------------------------------

_VALUES = ["a", "b", "c", 1, 2]
_NULLS = [Null(ident=10**9 + i) for i in range(3)]


def _coded_index_is_consistent(columnar: ColumnarInstance) -> None:
    """Every coded index bucket must agree with the raw columns."""
    for name in columnar.relation_names():
        col = columnar.columnar_relation(name)
        assert col is not None
        assert len(col.row_codes) == len(col.row_of)
        for position in range(col.arity):
            expected: dict[int, set[int]] = {}
            for row, code in enumerate(col.columns[position]):
                expected.setdefault(code, set()).add(row)
            assert col.index(position) == expected
        for row, coded in enumerate(col.row_codes):
            assert col.row_of[coded] == row
            assert tuple(col.columns[p][row] for p in range(col.arity)) == coded


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        kind = draw(st.sampled_from(["add", "add", "add", "discard", "subst"]))
        if kind == "subst":
            ops.append(
                (
                    "subst",
                    draw(st.sampled_from(_NULLS)),
                    draw(st.sampled_from(_VALUES)),
                )
            )
        else:
            relation = draw(st.sampled_from(["E", "F"]))
            arity = 2 if relation == "E" else 1
            pool = st.sampled_from(_VALUES + _NULLS)
            tup = tuple(draw(pool) for _ in range(arity))
            ops.append((kind, relation, tup))
    return ops


@settings(max_examples=60, deadline=None)
@given(operations())
def test_columnar_round_trip_property(ops):
    plain, columnar = Instance(), ColumnarInstance()
    # Touch some views early so live-view maintenance is exercised too.
    plain_view, columnar_view = plain.relation("E"), columnar.relation("E")
    for op in ops:
        if op[0] == "subst":
            _, old, new = op
            assert set(columnar.substitute_value(old, new)) == set(
                plain.substitute_value(old, new)
            )
        elif op[0] == "add":
            _, relation, tup = op
            plain.add(relation, tup)
            columnar.add(relation, tup)
        else:
            _, relation, tup = op
            plain.discard(relation, tup)
            columnar.discard(relation, tup)
        # Tuple-set equality after every step, not just at the end.
        assert columnar._as_normalised_dict() == plain._as_normalised_dict()
        assert set(columnar_view) == set(plain_view)
        # Version counters advance in lockstep (monotonicity + equality).
        for name in ("E", "F"):
            assert columnar.version(name) == plain.version(name)
        _coded_index_is_consistent(columnar)
    assert set(columnar.facts()) == set(plain.facts())
