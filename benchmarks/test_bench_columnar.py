"""EXP-COLUMNAR — interned columnar joins and per-shard worker processes.

Two gates for the representation layer introduced with
:mod:`repro.relational.interning` and :mod:`repro.serving.workers`:

* **columnar join** — evaluating the hop-join queries of the chase-scaling
  graph over a :class:`~repro.relational.interning.ColumnarInstance` must
  beat the generic enumeration of the same joins over the tuple-set
  :class:`~repro.relational.instance.Instance` (``match_atoms``, one
  assignment dict per match, projected to the head) ≥ 2× wall-clock, and so
  must the compiled evaluation kernel over the tuple sets
  (``evaluate`` on the plain instance).  The coded/kernel ratio is reported
  with no bound: both run the same kernel, so it prices the coded storage
  alone.  This gate is genuinely CPU-bound.  The three sides run
  alternately, round by round, and the medians are compared, so a load
  spike on the host lands on every side alike.  The answers are
  differentially pinned against the tuple-set path (``evaluate`` and
  ``naive_evaluate``, before and after a mutation round) before anything is
  timed.

* **process scatter** — the Zipf-skewed hot-query mix served by a 4-shard
  exchange whose shards live in dedicated worker processes
  (``shard_workers="process"``) must reach ≥ 2× the queries/second of the
  single-process unsharded exchange.  As in ``test_bench_sharding``, every
  evaluated (non-cache-hit) answer carries a simulated scan latency
  proportional to the tuples of the instance it evaluated over — the
  per-tuple paging I/O a deployed server pays, released-GIL sleeps so the
  fan-out genuinely overlaps: the unsharded exchange scans the whole target
  per miss, each worker process scans its quarter concurrently.  (True
  beyond-GIL CPU overlap additionally applies on multi-core hosts; the gate
  itself is I/O-modelled so it holds on single-core CI runners too.)  The
  full query pool — merged route included — is differentially checked
  against the unsharded answers first, and the worker protocol's failure
  handling is covered separately by ``tests/serving/test_workers.py``.

Both headline numbers are emitted as ``BENCH_columnar.json`` (CI uploads
every ``BENCH_*.json`` artifact).  Set ``REPRO_BENCH_QUICK=1`` to shrink
the sizes (CI smoke mode).
"""

from __future__ import annotations

import os
import statistics
import time

from benchmarks._emit import make_emitter
from benchmarks.conftest import record
from repro.logic.cq import cq, match_atoms
from repro.relational.instance import Instance
from repro.relational.interning import ColumnarInstance
from repro.serving import ExchangeService
from repro.workloads.scaling import chase_scaling_workload
from repro.workloads.skewed import skewed_workload

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

JOIN_EDGES = 1500 if QUICK else 4000
# The hop-query answer counts after the mutation round, per graph size: the
# graph is seeded and the victims are the first edges in sorted order, so the
# counts are constants (the same under every PYTHONHASHSEED).
JOIN_ANSWERS = {
    1500: {"hop2": 5880, "hop3": 21308},
    4000: {"hop2": 15826, "hop3": 60257},
}

# Milder skew than EXP-SHARDING's query gate (the hot shard bounds the
# overlap win) and a larger per-tuple scan: every process-shard answer costs
# a worker-pipe round-trip the in-thread shards don't pay, so the modelled
# I/O must dominate that fixed overhead for the fan-out win to show through.
SCATTER_KWARGS = (
    dict(customers=48, accounts=500, batches=4, batch_size=8, zipf_s=0.8)
    if QUICK
    else dict(customers=64, accounts=900, batches=6, batch_size=10, zipf_s=0.8)
)
# Simulated per-tuple scan I/O of one evaluation (paging the materialization
# from storage); cache hits scan nothing and pay nothing.
SCAN_LATENCY_PER_TUPLE = 0.00004

SHARDS = 4

emit = make_emitter("EXP-COLUMNAR", "BENCH_columnar.json")


# ---------------------------------------------------------------------------
# Gate 1: columnar join vs the tuple-set join
# ---------------------------------------------------------------------------

HOP2 = cq(["x", "z"], [("E", ["x", "y"]), ("E", ["y", "z"])], name="hop2")
HOP3 = cq(
    ["x", "w"],
    [("E", ["x", "y"]), ("E", ["y", "z"]), ("E", ["z", "w"])],
    name="hop3",
)
JOIN_QUERIES = (HOP2, HOP3)


def _join_instances():
    """The same random graph as a tuple-set and as a columnar instance."""
    workload = chase_scaling_workload(JOIN_EDGES)
    plain = Instance()
    for name, tup in workload.instance.facts():
        plain.add(name, tup)
    return plain, ColumnarInstance.from_instance(plain)


def _evaluate_all(instance) -> list[set]:
    return [query.evaluate(instance) for query in JOIN_QUERIES]


def _enumerate_all(instance) -> list[set]:
    """The generic matcher's answers: one assignment per match, projected."""
    return [
        {
            tuple(a[v] for v in query.head)
            for a in match_atoms(query.atoms, instance, equalities=query.equalities)
        }
        for query in JOIN_QUERIES
    ]


JOIN_ROUNDS = 5


def test_columnar_join_at_least_2x_tuple_sets(benchmark):
    """Coded joins, and the kernel on tuple sets, ≥2× the generic matcher."""
    plain, columnar = _join_instances()

    # Untimed differential pass: identical answers on every route, including
    # after a mutation round (exercising index maintenance on both sides).
    for query in JOIN_QUERIES:
        assert query.evaluate(columnar) == query.evaluate(plain)
        assert query.naive_evaluate(columnar) == query.naive_evaluate(plain)
    some_edges = sorted(plain.relation("E"))[:25]
    for instance in (plain, columnar):
        for a, b in some_edges[:10]:
            instance.discard("E", (a, b))
        for a, b in some_edges[:10]:
            instance.add("E", (b, a))
    answer_sizes = {}
    for query in JOIN_QUERIES:
        columnar_answers, plain_answers = query.evaluate(columnar), query.evaluate(plain)
        assert columnar_answers == plain_answers
        answer_sizes[query.name] = len(plain_answers)
    assert answer_sizes == JOIN_ANSWERS[JOIN_EDGES]
    assert _enumerate_all(plain) == _evaluate_all(plain)

    # Timed passes: same queries, same facts; the sides alternate round by
    # round and each is summarised by its median.
    sides = {
        "generic": lambda: _enumerate_all(plain),
        "kernel": lambda: _evaluate_all(plain),
        "columnar": lambda: _evaluate_all(columnar),
    }
    seconds: dict[str, list[float]] = {name: [] for name in sides}
    for _ in range(JOIN_ROUNDS):
        for name, run in sides.items():
            start = time.perf_counter()
            run()
            seconds[name].append(time.perf_counter() - start)
    generic_seconds, kernel_seconds, columnar_seconds = (
        statistics.median(seconds[name]) for name in sides
    )
    # One more coded pass under the harness so the pytest-benchmark row
    # lands in BENCH_quick.json alongside the other experiments.
    benchmark.pedantic(sides["columnar"], rounds=1, iterations=1)

    speedup = generic_seconds / columnar_seconds
    kernel_speedup = generic_seconds / kernel_seconds
    coded_over_kernel = columnar_seconds / kernel_seconds
    record(
        benchmark,
        experiment="EXP-COLUMNAR",
        family="columnar-join",
        edges=JOIN_EDGES,
        answers=dict(answer_sizes),
        tuple_set_seconds=round(generic_seconds, 4),
        speedup=round(speedup, 2),
        kernel_speedup=round(kernel_speedup, 2),
        coded_over_kernel=round(coded_over_kernel, 2),
    )
    emit(
        "columnar_join",
        {
            "edges": JOIN_EDGES,
            "queries": [query.name for query in JOIN_QUERIES],
            "answers": dict(answer_sizes),
            "rounds": JOIN_ROUNDS,
            "tuple_set_seconds": round(generic_seconds, 4),
            "kernel_seconds": round(kernel_seconds, 4),
            "columnar_seconds": round(columnar_seconds, 4),
            "speedup": round(speedup, 2),
            "kernel_speedup": round(kernel_speedup, 2),
            "coded_over_kernel": round(coded_over_kernel, 2),
        },
    )
    assert speedup >= 2.0, (
        f"columnar join only {speedup:.2f}x over the generic tuple-set matcher "
        f"({generic_seconds:.3f}s vs {columnar_seconds:.3f}s)"
    )
    assert kernel_speedup >= 2.0, (
        f"kernel on tuple sets only {kernel_speedup:.2f}x over the generic "
        f"matcher ({generic_seconds:.3f}s vs {kernel_seconds:.3f}s)"
    )


# ---------------------------------------------------------------------------
# Gate 2: process-worker scatter vs the single-process exchange
# ---------------------------------------------------------------------------


def _add_scan_latency_flat(exchange, per_tuple=SCAN_LATENCY_PER_TUPLE):
    """Charge every evaluated (non-cached) answer a scan of the full target."""
    original = exchange.answer

    def answer_with_scan_latency(query, **kwargs):
        outcome = original(query, **kwargs)
        if not outcome.cached:
            time.sleep(per_tuple * exchange.target_size)
        return outcome

    exchange.answer = answer_with_scan_latency


def _add_scan_latency_shard(shard, per_tuple=SCAN_LATENCY_PER_TUPLE):
    """Charge a shard's evaluated answers a scan of the *shard's* target.

    Uses ``target_size`` (served from the worker's state summary) rather
    than the decoded target view, so charging a process shard costs no IPC.
    """
    original = shard.answer

    def answer_with_scan_latency(query, **kwargs):
        outcome = original(query, **kwargs)
        if not outcome.cached:
            time.sleep(per_tuple * shard.target_size)
        return outcome

    shard.answer = answer_with_scan_latency


def _register_scatter_service(workload, which):
    service = ExchangeService()
    if which == "flat":
        service.register(
            "flat", workload.mapping, workload.source, workload.target_dependencies
        )
        _add_scan_latency_flat(service.scenario("flat"))
    else:
        service.register(
            "procs",
            workload.mapping,
            workload.source,
            workload.target_dependencies,
            shards=SHARDS,
            shard_workers="process",
        )
        for shard in service.scenario("procs").shards:
            _add_scan_latency_shard(shard)
    return service


def _hot_mix(workload):
    """The scatter-safe hot queries (the merged-route join is differentially
    checked below but kept out of the throughput mix on both sides)."""
    return [q for q in workload.queries if q.name != "shared_accounts"]


def _replay_queries(service, name, batches, queries):
    """Interleave invalidating updates with the hot mix; time the queries."""
    served, query_seconds = 0, 0.0
    for added, removed in batches:
        service.update(name, add=added, retract=removed)
        start = time.perf_counter()
        for query in queries:
            service.query(name, query)
            served += 1
        query_seconds += time.perf_counter() - start
    return served, query_seconds


def test_process_scatter_at_least_2x_single_process(benchmark):
    """The ISSUE acceptance bar: 4 worker processes ≥2× the single process."""
    workload = skewed_workload(**SCATTER_KWARGS)
    queries = _hot_mix(workload)

    # Untimed differential pass over the *full* pool (merged route included):
    # the worker processes must be answer-for-answer identical to the
    # single-process exchange after every mixed batch.
    flat_check = _register_scatter_service(workload, "flat")
    procs_check = _register_scatter_service(workload, "procs")
    for added, removed in workload.batches:
        flat_check.update("flat", add=added, retract=removed)
        procs_check.update("procs", add=added, retract=removed)
        for query in workload.queries:
            flat = flat_check.query("flat", query)
            procs = procs_check.query("procs", query)
            assert flat.answers == procs.answers, query.name
    stats = procs_check.stats("procs").sharding
    assert stats.worker_mode == "process"
    assert stats.worker_failures == 0
    assert stats.scatter_queries > 0
    procs_check.scenario("procs").close()

    # Timed passes: fresh services per round so every round replays the same
    # cold-to-warm cache trajectory; only the query seconds are gated.
    def timed(which, rounds=3):
        seconds, served = [], 0
        for _ in range(rounds):
            service = _register_scatter_service(workload, which)
            served, query_seconds = _replay_queries(
                service, which, workload.batches, queries
            )
            seconds.append(query_seconds)
            if which == "procs":
                service.scenario("procs").close()
        return sum(seconds) / len(seconds), served

    flat_seconds, served = timed("flat")
    procs_seconds, _ = timed("procs")

    # One more replay under the harness so the pytest-benchmark row lands in
    # BENCH_quick.json alongside the other experiments.
    bench_services = []  # closed below: each owns 5 worker processes

    def setup_procs():
        service = _register_scatter_service(workload, "procs")
        bench_services.append(service)
        return (service,), {}

    benchmark.pedantic(
        lambda service: _replay_queries(service, "procs", workload.batches, queries),
        setup=setup_procs,
        rounds=1,
        iterations=1,
    )
    for service in bench_services:
        service.scenario("procs").close()

    flat_qps = served / flat_seconds
    procs_qps = served / procs_seconds
    speedup = procs_qps / flat_qps
    record(
        benchmark,
        experiment="EXP-COLUMNAR",
        family="process-scatter",
        shards=SHARDS,
        worker_mode="process",
        batches=len(workload.batches),
        queries_served=served,
        scan_latency_us_per_tuple=SCAN_LATENCY_PER_TUPLE * 1e6,
        single_process_qps=round(flat_qps, 1),
        speedup=round(speedup, 2),
    )
    emit(
        "process_scatter",
        {
            "shards": SHARDS,
            "worker_mode": "process",
            "batches": len(workload.batches),
            "queries_served": served,
            "scan_latency_us_per_tuple": SCAN_LATENCY_PER_TUPLE * 1e6,
            "single_process_qps": round(flat_qps, 1),
            "process_qps": round(procs_qps, 1),
            "speedup": round(speedup, 2),
        },
    )
    assert speedup >= 2.0, (
        f"process scatter only {speedup:.2f}x over the single process "
        f"({flat_qps:.1f} q/s vs {procs_qps:.1f} q/s)"
    )
