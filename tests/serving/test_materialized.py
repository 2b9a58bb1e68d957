"""MaterializedExchange: materialization, updates, core, cache, dispatch."""

import pytest

from repro.chase.dependencies import parse_dependencies
from repro.core.canonical import canonical_solution
from repro.core.certain import (
    certain_answers,
    certain_answers_naive,
    certain_answers_positive,
)
from repro.core.mapping import mapping_from_rules
from repro.core.target_constraints import ExchangeSetting, exchange
from repro.logic.cq import cq
from repro.logic.queries import Query
from repro.relational.builders import make_instance
from repro.relational.homomorphism import is_homomorphically_equivalent
from repro.serving import MaterializedExchange, ScenarioRegistry, ServingError


def employees_mapping():
    return mapping_from_rules(
        [
            "EmpT(e, d) :- Emp(e, d)",
            "Office(e, z^op) :- Emp(e, d)",
            "Team(e, p) :- Works(e, p)",
        ],
        source={"Emp": 2, "Works": 2},
        target={"EmpT": 2, "Office": 2, "Team": 2},
    )


def employees_source():
    return make_instance(
        {
            "Emp": [("alice", "d1"), ("bob", "d2")],
            "Works": [("alice", "p1")],
        }
    )


def register(mapping=None, source=None, deps=()):
    registry = ScenarioRegistry()
    return registry.register(
        "t", mapping or employees_mapping(), source or employees_source(), deps
    )


def test_initial_materialization_matches_canonical_solution():
    exchange_ = register()
    reference = canonical_solution(employees_mapping(), employees_source()).instance
    assert is_homomorphically_equivalent(exchange_.canonical, reference)
    assert len(exchange_.canonical) == len(reference)


def test_apply_delta_additions_match_from_scratch_exchange():
    exchange_ = register()
    applied = exchange_.apply_delta(
        added=[("Emp", ("carol", "d1")), ("Works", ("carol", "p2"))]
    )
    assert len(applied.added) == 2 and not applied.removed
    reference = canonical_solution(employees_mapping(), exchange_.source).instance
    assert is_homomorphically_equivalent(exchange_.target, reference)
    assert len(exchange_.target) == len(reference)
    # Duplicates are ignored and leave the state untouched.
    version_before = exchange_.target.version("EmpT")
    assert not exchange_.apply_delta(added=[("Emp", ("carol", "d1"))])
    assert exchange_.target.version("EmpT") == version_before


def test_retraction_is_exact_support_counting():
    mapping = mapping_from_rules(
        ["T(y) :- S(x, y)"], source={"S": 2}, target={"T": 1}
    )
    source = make_instance({"S": [("a", "v"), ("b", "v"), ("c", "w")]})
    exchange_ = register(mapping, source)
    # T(v) is supported by two triggers: retracting one keeps it.
    exchange_.apply_delta(removed=[("S", ("a", "v"))])
    assert ("T", ("v",)) in exchange_.target
    exchange_.apply_delta(removed=[("S", ("b", "v"))])
    assert ("T", ("v",)) not in exchange_.target
    assert ("T", ("w",)) in exchange_.target
    assert not exchange_.apply_delta(removed=[("S", ("zz", "zz"))])


def test_non_monotone_std_bodies_are_revoked_and_restored():
    mapping = mapping_from_rules(
        ["Reviews(x, z^op) :- Papers(x, y) & ~ (exists r . Assigned(x, r))"],
        source={"Papers": 2, "Assigned": 2},
        target={"Reviews": 2},
    )
    source = make_instance({"Papers": [("p1", "t1"), ("p2", "t2")]})
    exchange_ = register(mapping, source)
    q = cq(["x"], [("Reviews", ["x", "r"])])
    assert exchange_.certain_answers(q) == {("p1",), ("p2",)}
    exchange_.apply_delta(added=[("Assigned", ("p1", "alice"))])
    assert exchange_.certain_answers(q) == {("p2",)}
    exchange_.apply_delta(removed=[("Assigned", ("p1", "alice"))])
    assert exchange_.certain_answers(q) == {("p1",), ("p2",)}


DEPT_DEPS = [
    "P(d, y) -> M(y, d)",
    "D(x, d1) & D(x, d2) -> d1 = d2",
]


def dept_mapping():
    return mapping_from_rules(
        ["D(x, z^op), P(z^op, y) :- E(x, y)"],
        source={"E": 2},
        target={"D": 2, "P": 2, "M": 2},
    )


def test_target_dependencies_updates_match_reference_exchange():
    deps = parse_dependencies(DEPT_DEPS)
    exchange_ = register(
        dept_mapping(), make_instance({"E": [("a", "b"), ("a", "c")]}), deps
    )
    setting = ExchangeSetting(dept_mapping(), deps)
    assert is_homomorphically_equivalent(
        exchange_.target, exchange(setting, exchange_.source).instance
    )
    exchange_.apply_delta(added=[("E", ("b", "d")), ("E", ("c", "e"))])
    assert is_homomorphically_equivalent(
        exchange_.target, exchange(setting, exchange_.source).instance
    )
    exchange_.apply_delta(removed=[("E", ("a", "b"))])
    assert is_homomorphically_equivalent(
        exchange_.target, exchange(setting, exchange_.source).instance
    )


def test_core_is_a_retract_and_tracks_updates():
    exchange_ = register()
    core = exchange_.core()
    assert exchange_.target.contains_instance(core)
    assert is_homomorphically_equivalent(core, exchange_.target)
    assert exchange_.core() is core  # cached while the target is unchanged
    exchange_.apply_delta(added=[("Emp", ("dave", "d3"))])
    updated = exchange_.core()
    assert updated is not core
    assert exchange_.target.contains_instance(updated)
    assert is_homomorphically_equivalent(updated, exchange_.target)


def test_cache_hits_and_relation_scoped_invalidation():
    exchange_ = register()
    q_emp = cq(["e"], [("EmpT", ["e", "d"])])
    q_team = cq(["e"], [("Team", ["e", "p"])])
    exchange_.certain_answers(q_emp)
    exchange_.certain_answers(q_team)
    exchange_.certain_answers(q_emp)
    assert exchange_.cache_stats.hits == 1
    # Works feeds only Team: the EmpT entry must survive the update.
    exchange_.apply_delta(added=[("Works", ("bob", "p9"))])
    assert exchange_.certain_answers(q_emp) == {("alice",), ("bob",)}
    assert exchange_.cache_stats.hits == 2
    before_stale = exchange_.cache_stats.stale
    assert exchange_.certain_answers(q_team) == {("alice",), ("bob",)}
    assert exchange_.cache_stats.stale == before_stale + 1


def test_non_monotone_queries_served_through_deqa():
    exchange_ = register()
    query = Query("~ (exists z . Team(x, z))", ("x",), name="idle")
    expected = certain_answers(employees_mapping(), exchange_.source, query)
    assert exchange_.certain_answers(query) == expected
    assert exchange_.certain_answers(query) == expected  # cached
    assert exchange_.cache_stats.hits == 1
    exchange_.apply_delta(added=[("Works", ("bob", "p2"))])
    assert exchange_.certain_answers(query) == certain_answers(
        employees_mapping(), exchange_.source, query
    )


def test_non_monotone_queries_rejected_with_target_dependencies():
    deps = parse_dependencies(DEPT_DEPS)
    exchange_ = register(dept_mapping(), make_instance({"E": [("a", "b")]}), deps)
    with pytest.raises(ServingError, match="non-monotone"):
        exchange_.certain_answers(Query("~ (exists y . M(x, y))", ("x",)))


def test_monotone_answers_match_certain_answers_positive():
    exchange_ = register()
    queries = [
        cq(["e"], [("EmpT", ["e", "d"])]),
        cq(["e", "p"], [("Team", ["e", "p"])]),
        cq(["e"], [("Office", ["e", "z"])]),
    ]
    for q in queries:
        assert exchange_.certain_answers(q) == certain_answers_positive(
            employees_mapping(), exchange_.source, q
        )


def test_failing_egd_surfaces_as_serving_error():
    deps = parse_dependencies(["T(x, d1) & T(y, d2) -> d1 = d2"])
    mapping = mapping_from_rules(
        ["T(x, y) :- S(x, y)"], source={"S": 2}, target={"T": 2}
    )
    registry = ScenarioRegistry()
    with pytest.raises(ServingError, match="no solution"):
        registry.register(
            "bad", mapping, make_instance({"S": [("a", "1"), ("b", "2")]}), deps
        )


def test_version_continuity_across_target_rebinds():
    # Regression: chase results are fresh Instance copies whose version
    # counters restart at zero; a retract + add cycle must not produce a
    # version vector colliding with one cached before the updates.
    mapping = mapping_from_rules(
        ["R(x) :- S(x)"], source={"S": 1}, target={"R": 1, "T": 1}
    )
    deps = parse_dependencies(["R(x) -> T(x)"])
    exchange_ = register(mapping, make_instance({"S": [("a",)]}), deps)
    q = cq(["x"], [("R", ["x"])])
    assert exchange_.certain_answers(q) == {("a",)}
    exchange_.apply_delta(removed=[("S", ("a",))])
    exchange_.apply_delta(added=[("S", ("b",))])
    assert exchange_.certain_answers(q) == {("b",)}
    assert exchange_.core().relation("T") == {("b",)}


def test_untouched_relations_stay_cached_across_target_rebinds():
    mapping = mapping_from_rules(
        ["R(x) :- S(x)", "U(y) :- W(y)"],
        source={"S": 1, "W": 1},
        target={"R": 1, "T": 1, "U": 1},
    )
    deps = parse_dependencies(["R(x) -> T(x)"])
    exchange_ = register(
        mapping, make_instance({"S": [("a",)], "W": [("w",)]}), deps
    )
    q_u = cq(["y"], [("U", ["y"])])
    assert exchange_.certain_answers(q_u) == {("w",)}
    # The seeded-chase rebind after this addition touches only R/T.
    exchange_.apply_delta(added=[("S", ("b",))])
    assert exchange_.certain_answers(q_u) == {("w",)}
    assert exchange_.cache_stats.hits == 1 and exchange_.cache_stats.stale == 0


def test_failed_update_rolls_back_to_the_pre_update_state():
    # Regression: a chase failure mid-update must not leave the exchange
    # half-applied and serving answers for a scenario with no solution.
    mapping = mapping_from_rules(
        ["D(x, d) :- S(x, d)"], source={"S": 2}, target={"D": 2, "M": 2}
    )
    deps = parse_dependencies(
        ["D(x, d1) & D(x, d2) -> d1 = d2", "D(x, d) -> exists m . M(x, m)"]
    )
    exchange_ = register(mapping, make_instance({"S": [("a", "1")]}), deps)
    q = cq(["x", "d"], [("D", ["x", "d"])])
    assert exchange_.certain_answers(q) == {("a", "1")}
    with pytest.raises(ServingError, match="no solution"):
        exchange_.apply_delta(added=[("S", ("a", "2"))])
    assert ("S", ("a", "2")) not in exchange_.source
    assert exchange_.certain_answers(q) == {("a", "1")}
    assert exchange_.core().relation("D") == {("a", "1")}
    # The rollback's re-chase minted a fresh M-null: the core is rebuilt
    # from the restored target, not repaired from a stale delta.
    assert set(exchange_.core().facts()) <= set(exchange_.target.facts())
    # The exchange keeps working after the rejected update.
    exchange_.apply_delta(added=[("S", ("b", "2"))])
    assert exchange_.certain_answers(q) == {("a", "1"), ("b", "2")}


TGD_ONLY_DEPS = [
    "Rec(e, d) -> exists m . Mgr(d, m)",
    "Mgr(d, m) -> Roster(m, d)",
]


def cascade_mapping():
    return mapping_from_rules(
        ["Rec(e^cl, d^cl) :- Emp(e, d)"],
        source={"Emp": 2},
        target={"Rec": 2, "Mgr": 2, "Roster": 2},
    )


def count_full_chases(exchange_):
    calls = []
    original = exchange_._full_chase
    exchange_._full_chase = lambda canonical: (calls.append(1), original(canonical))[1]
    return calls


def test_retraction_with_target_dependencies_avoids_full_chase():
    # The DRed happy path: tgd-only target dependencies, so a retraction is
    # repaired in place and never re-chases the target layer.
    deps = parse_dependencies(TGD_ONLY_DEPS)
    source = make_instance({"Emp": [(f"e{i}", f"d{i % 3}") for i in range(9)]})
    exchange_ = register(cascade_mapping(), source, deps)
    calls = count_full_chases(exchange_)
    setting = ExchangeSetting(cascade_mapping(), tuple(deps))
    # Drains d2 entirely (cascade delete) and thins d0 (over-delete + re-derive).
    exchange_.apply_delta(removed=
        [("Emp", ("e0", "d0")), ("Emp", ("e2", "d2")), ("Emp", ("e5", "d2")), ("Emp", ("e8", "d2"))]
    )
    assert not calls
    assert is_homomorphically_equivalent(
        exchange_.target, exchange(setting, exchange_.source).instance
    )
    # Retract-then-re-add of the same fact: fresh justification, same semantics.
    exchange_.apply_delta(removed=[("Emp", ("e1", "d1"))])
    exchange_.apply_delta(added=[("Emp", ("e1", "d1"))])
    assert not calls
    assert is_homomorphically_equivalent(
        exchange_.target, exchange(setting, exchange_.source).instance
    )


def test_retraction_repairs_core_without_full_recomputation():
    from repro.relational.homomorphism import core_of_bruteforce

    deps = parse_dependencies(TGD_ONLY_DEPS)
    source = make_instance({"Emp": [(f"e{i}", f"d{i % 3}") for i in range(9)]})
    exchange_ = register(cascade_mapping(), source, deps)
    exchange_.core()  # prime the cache: later calls must take the repair path
    exchange_.apply_delta(removed=[("Emp", ("e2", "d2")), ("Emp", ("e5", "d2"))])
    assert exchange_._core_delta is not None  # repair, not recomputation
    repaired = exchange_.core()
    assert exchange_.target.contains_instance(repaired)
    assert is_homomorphically_equivalent(repaired, exchange_.target)
    assert len(repaired) == len(core_of_bruteforce(exchange_.target))


def test_egd_entangled_retraction_falls_back_to_replay():
    # DEPT_DEPS contains an egd; retracting a fact entangled with its merge
    # must fall back to the full re-chase — and still serve exact answers.
    deps = parse_dependencies(DEPT_DEPS)
    exchange_ = register(
        dept_mapping(), make_instance({"E": [("a", "b"), ("a", "c"), ("b", "d")]}), deps
    )
    setting = ExchangeSetting(dept_mapping(), tuple(deps))
    exchange_.apply_delta(removed=[("E", ("a", "b"))])
    assert is_homomorphically_equivalent(
        exchange_.target, exchange(setting, exchange_.source).instance
    )
    exchange_.apply_delta(removed=[("E", ("b", "d"))])
    assert is_homomorphically_equivalent(
        exchange_.target, exchange(setting, exchange_.source).instance
    )


def test_version_vectors_advance_after_in_place_retraction():
    # In-place repair must stale exactly the touched relations' cache entries:
    # the retracted employee's cascade (Rec, and Mgr/Roster through the
    # over-delete + re-derive round trip, which mints a fresh manager null)
    # goes stale, while a target relation fed by an unrelated source relation
    # stays warm.
    mapping = mapping_from_rules(
        ["Rec(e^cl, d^cl) :- Emp(e, d)", "Label(x^cl) :- Tag(x)"],
        source={"Emp": 2, "Tag": 1},
        target={"Rec": 2, "Mgr": 2, "Roster": 2, "Label": 1},
    )
    deps = parse_dependencies(TGD_ONLY_DEPS)
    source = make_instance(
        {"Emp": [("e0", "d0"), ("e1", "d0"), ("e2", "d1")], "Tag": [("t0",)]}
    )
    exchange_ = register(mapping, source, deps)
    q_rec = cq(["e"], [("Rec", ["e", "d"])])
    q_label = cq(["x"], [("Label", ["x"])])
    assert exchange_.certain_answers(q_rec) == {("e0",), ("e1",), ("e2",)}
    assert exchange_.certain_answers(q_label) == {("t0",)}
    exchange_.apply_delta(removed=[("Emp", ("e0", "d0"))])
    before_hits = exchange_.cache_stats.hits
    before_stale = exchange_.cache_stats.stale
    assert exchange_.certain_answers(q_rec) == {("e1",), ("e2",)}  # stale miss
    assert exchange_.certain_answers(q_label) == {("t0",)}  # warm hit
    assert exchange_.cache_stats.hits == before_hits + 1
    assert exchange_.cache_stats.stale == before_stale + 1


# ---------------------------------------------------------------------------
# The unified mixed update path (apply_delta)
# ---------------------------------------------------------------------------


def test_mixed_delta_pays_each_maintenance_phase_exactly_once():
    # The acceptance bar of the unified path: however mixed the batch, one
    # trigger re-evaluation round, one target repair, one cache-invalidation
    # round — observable through the per-exchange counters and through the
    # cache going stale exactly once for a relation both sides touch.
    deps = parse_dependencies(TGD_ONLY_DEPS)
    source = make_instance({"Emp": [(f"e{i}", f"d{i % 3}") for i in range(9)]})
    exchange_ = register(cascade_mapping(), source, deps)
    q_rec = cq(["e"], [("Rec", ["e", "d"])])
    exchange_.certain_answers(q_rec)
    before = exchange_.cache_stats.stale
    exchange_.apply_delta(
        added=[("Emp", ("e9", "d0")), ("Emp", ("e10", "d9"))],
        removed=[("Emp", ("e0", "d0")), ("Emp", ("e3", "d0"))],
    )
    stats = exchange_.update_stats
    assert stats.batches == 1
    assert stats.trigger_rounds == 1
    assert stats.target_repairs == 1
    assert stats.invalidation_rounds == 1
    assert stats.replays == 0 and stats.rollbacks == 0
    # Rec was touched by additions *and* retractions, yet the cached entry
    # goes stale exactly once (one recompute, then cached again).
    assert exchange_.certain_answers(q_rec) == {
        ("e1",), ("e2",), ("e4",), ("e5",), ("e6",), ("e7",), ("e8",), ("e9",), ("e10",)
    }
    assert exchange_.cache_stats.stale == before + 1
    assert exchange_.certain_answers(q_rec)  # warm again
    assert exchange_.cache_stats.stale == before + 1


def test_mixed_delta_matches_from_scratch_exchange():
    deps = parse_dependencies(TGD_ONLY_DEPS)
    source = make_instance({"Emp": [(f"e{i}", f"d{i % 3}") for i in range(9)]})
    exchange_ = register(cascade_mapping(), source, deps)
    calls = count_full_chases(exchange_)
    setting = ExchangeSetting(cascade_mapping(), tuple(deps))
    # Drain d2 entirely while repopulating it and opening d3 — the combined
    # DRed + seeded-chase repair, off the full-chase path throughout.
    exchange_.apply_delta(
        added=[("Emp", ("e9", "d2")), ("Emp", ("e10", "d3"))],
        removed=[("Emp", ("e2", "d2")), ("Emp", ("e5", "d2")), ("Emp", ("e8", "d2"))],
    )
    assert not calls
    assert is_homomorphically_equivalent(
        exchange_.target, exchange(setting, exchange_.source).instance
    )
    repaired = exchange_.core()
    assert exchange_.target.contains_instance(repaired)
    assert is_homomorphically_equivalent(repaired, exchange_.target)


def test_mixed_delta_rejects_overlapping_sides():
    exchange_ = register()
    with pytest.raises(ValueError, match="added and removed"):
        exchange_.apply_delta(
            added=[("Emp", ("alice", "d1"))], removed=[("Emp", ("alice", "d1"))]
        )


def test_mixed_delta_trigger_kept_alive_by_added_witness():
    # A trigger whose only old witness is retracted while the same batch adds
    # a fresh witness must survive in place: same trigger key, same
    # justification null, no flap through the materialization.
    mapping = mapping_from_rules(
        ["U(y, z^op) :- exists x . S(x, y)"], source={"S": 2}, target={"U": 2}
    )
    exchange_ = register(mapping, make_instance({"S": [("a", "v")]}))
    (before,) = exchange_.target.relation("U")
    exchange_.apply_delta(added=[("S", ("c", "v"))], removed=[("S", ("a", "v"))])
    (after,) = exchange_.target.relation("U")
    assert after == before  # identical fact, identical null
    assert exchange_.update_stats.trigger_rounds == 1


def test_mixed_delta_rolls_back_whole_batch_on_egd_failure():
    # All-or-nothing: the retract side is legal on its own, the add side
    # violates an egd — the whole batch must be rejected and undone.
    mapping = mapping_from_rules(
        ["D(x, d) :- S(x, d)"], source={"S": 2}, target={"D": 2}
    )
    deps = parse_dependencies(["D(x, d1) & D(x, d2) -> d1 = d2"])
    exchange_ = register(
        mapping, make_instance({"S": [("a", "1"), ("b", "7")]}), deps
    )
    q = cq(["x", "d"], [("D", ["x", "d"])])
    assert exchange_.certain_answers(q) == {("a", "1"), ("b", "7")}
    with pytest.raises(ServingError, match="no solution"):
        exchange_.apply_delta(
            added=[("S", ("a", "2"))], removed=[("S", ("b", "7"))]
        )
    assert ("S", ("b", "7")) in exchange_.source
    assert ("S", ("a", "2")) not in exchange_.source
    assert exchange_.update_stats.rollbacks == 1
    assert exchange_.certain_answers(q) == {("a", "1"), ("b", "7")}
    # The exchange keeps serving and updating after the rejected batch.
    exchange_.apply_delta(
        added=[("S", ("c", "3"))], removed=[("S", ("b", "7"))]
    )
    assert exchange_.certain_answers(q) == {("a", "1"), ("c", "3")}


def test_mixed_delta_with_egd_entangled_retraction_replays():
    # The combined path's replay fallback: the retract side is entangled with
    # an egd merge, so the repair re-chases from the repaired canonical layer
    # — which must already include the batch's additions.  The re-chase is
    # installed into the live target by diff, so a relation the replay left
    # unchanged keeps its version, and its cached answers keep hitting.
    deps = parse_dependencies(DEPT_DEPS)
    mapping = mapping_from_rules(
        ["D(x, z^op), P(z^op, y) :- E(x, y)", "Site(s) :- L(s)"],
        source={"E": 2, "L": 1},
        target={"D": 2, "P": 2, "M": 2, "Site": 1},
    )
    exchange_ = register(
        mapping,
        make_instance({"E": [("a", "b"), ("a", "c"), ("b", "d")], "L": [("s1",)]}),
        deps,
    )
    setting = ExchangeSetting(mapping, tuple(deps))
    sites = cq(["s"], [("Site", ["s"])])
    queries = [sites, cq(["x"], [("D", ["x", "d"])]), cq(["y"], [("M", ["y", "d"])])]
    for q in queries:
        exchange_.answer(q)
    target_before = exchange_.target
    exchange_.apply_delta(
        added=[("E", ("c", "e"))], removed=[("E", ("a", "b"))]
    )
    assert exchange_.update_stats.replays == 1
    assert exchange_.target is target_before  # installed in place
    assert exchange_.answer(sites).route == "cache"  # Site left unchanged
    reference = exchange(setting, exchange_.source).instance
    assert is_homomorphically_equivalent(exchange_.target, reference)
    for q in queries:
        assert exchange_.certain_answers(q) == certain_answers_naive(q, reference)


def test_addition_path_extends_the_target_in_place():
    # The seeded chase runs in place: same target object, raw version
    # counters advancing only for the touched relations.
    deps = parse_dependencies(TGD_ONLY_DEPS)
    source = make_instance({"Emp": [("e0", "d0")]})
    exchange_ = register(cascade_mapping(), source, deps)
    target_before = exchange_.target
    roster_version = exchange_.target.version("Roster")
    exchange_.apply_delta(added=[("Emp", ("e1", "d0"))])  # d0 has a manager
    exchange_.apply_delta(added=[("Emp", ("e2", "d1"))])  # d1 cascades fresh
    assert exchange_.target is target_before  # no copy, no rebind
    assert exchange_.target.version("Roster") > roster_version
    setting = ExchangeSetting(cascade_mapping(), tuple(deps))
    assert is_homomorphically_equivalent(
        exchange_.target, exchange(setting, exchange_.source).instance
    )


def test_in_place_addition_failure_rolls_back_cleanly():
    # The failure net of the in-place mode: a mid-chase egd conflict leaves
    # the target partially chased, and the rollback rebuilds it from the
    # repaired canonical layer — the exchange keeps serving the old state.
    mapping = mapping_from_rules(
        ["R(x, d) :- S(x, d)"], source={"S": 2}, target={"R": 2, "T": 2}
    )
    deps = parse_dependencies(
        ["R(x, d) -> T(x, d)", "T(x, d1) & T(x, d2) -> d1 = d2"]
    )
    exchange_ = register(mapping, make_instance({"S": [("a", "1")]}), deps)
    q = cq(["x", "d"], [("T", ["x", "d"])])
    assert exchange_.certain_answers(q) == {("a", "1")}
    with pytest.raises(ServingError, match="no solution"):
        exchange_.apply_delta(added=[("S", ("a", "2"))])
    assert exchange_.certain_answers(q) == {("a", "1")}
    assert is_homomorphically_equivalent(
        exchange_.target,
        exchange(
            ExchangeSetting(mapping, tuple(deps)), exchange_.source
        ).instance,
    )
    # And the exchange still accepts good updates afterwards.
    exchange_.apply_delta(added=[("S", ("b", "2"))])
    assert exchange_.certain_answers(q) == {("a", "1"), ("b", "2")}
