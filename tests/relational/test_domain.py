"""Tests for constants, nulls and null factories."""

import pickle

from repro.relational.domain import (
    Null,
    NullFactory,
    constants_in,
    fresh_constant_pool,
    fresh_null,
    is_constant,
    is_null,
    nulls_in,
)


def test_fresh_nulls_are_distinct():
    a, b = fresh_null(), fresh_null()
    assert a != b
    assert a == a
    assert len({a, b}) == 2


def test_a_pickled_null_keeps_its_identity_and_mints_nothing():
    null = Null(label="x")
    minted = fresh_null().ident
    clone = pickle.loads(pickle.dumps(null))
    assert (clone.ident, clone.label) == (null.ident, "x")
    assert clone == null and hash(clone) == hash(null)
    assert fresh_null().ident == minted + 1  # unpickling drew no ident


def test_null_is_never_equal_to_a_constant():
    null = fresh_null()
    assert null != "x"
    assert null != 0
    assert not is_constant(null)
    assert is_null(null)


def test_constants_are_not_nulls():
    assert is_constant("a")
    assert is_constant(0)
    assert not is_null(3.5)


def test_null_ordering_by_identifier():
    a, b = fresh_null(), fresh_null()
    assert a < b
    assert sorted([b, a]) == [a, b]


def test_null_factory_same_key_same_null():
    factory = NullFactory()
    first = factory.for_key(("std", 0, "z"))
    second = factory.for_key(("std", 0, "z"))
    third = factory.for_key(("std", 1, "z"))
    assert first is second
    assert first != third
    assert len(factory) == 2


def test_null_factory_fresh_always_new():
    factory = NullFactory()
    assert factory.fresh() != factory.fresh()


def test_constants_and_nulls_partition_values():
    null = fresh_null()
    values = ["a", 1, null]
    assert constants_in(values) == {"a", 1}
    assert nulls_in(values) == {null}


def test_fresh_constant_pool_avoids_collisions():
    pool = fresh_constant_pool(3, avoid=["@c0", "@c1"])
    assert len(pool) == 3
    assert not set(pool) & {"@c0", "@c1"}
    assert len(set(pool)) == 3


def test_fresh_constant_pool_empty():
    assert fresh_constant_pool(0) == []
