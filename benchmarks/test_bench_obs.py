"""EXP-OBS: the observability layer must be (nearly) free when disabled.

PR 7 threads tracing, metrics and explain through every serving layer.  The
contract is that a production configuration — tracing **off** (the default),
metrics on — pays at most **5%** of the request latencies the existing gates
measure.  The disabled hot-path cost is a handful of fixed sites per served
request: ``TRACER.span(...)`` calls that return the shared no-op span after
one attribute check, ``METRICS.enabled`` guards, and a few histogram
observes.  The gates below *measure* those site costs in bulk (they are
nanosecond-scale, far below per-request timing noise), multiply by a
deliberate over-count of sites per request, and bound the product against
the measured end-to-end request latency of the hop-join and scatter
workloads the EXP-COLUMNAR gates use.  The existing ≥2x speedup gates keep
running against the instrumented code unchanged, so any regression the
model misses still trips them.

A third test runs one traced scatter and one merged-route request with the
tracer **enabled**, checks the span tree is complete (dispatch, cache
probe, fan-out, per-shard answers, merge), differentially checks
``service.explain`` against the routes ``service.answer`` actually took,
and dumps a sample trace tree and metrics export as
``BENCH_obs_trace_sample.json`` / ``BENCH_obs_metrics_sample.json`` — the
CI bench-smoke job uploads every ``BENCH_*.json``, so the artifacts ride
along with the headline numbers in ``BENCH_obs.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchmarks._emit import QUICK, make_emitter
from benchmarks.conftest import record
from repro.logic.cq import cq
from repro.obs import METRICS, TRACER
from repro.serving import ExchangeService, QueryRequest
from repro.workloads.scaling import chase_scaling_workload
from repro.workloads.skewed import skewed_workload

emit = make_emitter("EXP-OBS", "BENCH_obs.json")

JOIN_EDGES = 1200 if QUICK else 3000

SCATTER_KWARGS = (
    dict(customers=32, accounts=300, batches=2, batch_size=8)
    if QUICK
    else dict(customers=64, accounts=700, batches=4, batch_size=10)
)
SHARDS = 4

# Deliberate over-counts of disabled-path instrumentation sites per served
# request (the deepest real path — a traced scatter — opens fewer spans and
# observes fewer histograms than this):
SPAN_SITES_PER_REQUEST = 12
OBSERVE_SITES_PER_REQUEST = 8

OVERHEAD_BUDGET = 0.05

HOP2 = cq(["x", "z"], [("TE", ["x", "y"]), ("TE", ["y", "z"])], name="hop2")
HOP3 = cq(
    ["x", "w"],
    [("TE", ["x", "y"]), ("TE", ["y", "z"]), ("TE", ["z", "w"])],
    name="hop3",
)


def _bulk_seconds(fn, rounds: int = 100_000) -> float:
    """Per-call seconds of a nanosecond-scale operation, timed in bulk."""
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - start) / rounds


def _modeled_overhead_seconds() -> dict:
    """The per-request instrumentation cost in the disabled configuration."""
    assert not TRACER.enabled, "the disabled-overhead model needs tracing off"
    span_seconds = _bulk_seconds(
        lambda: TRACER.span("bench.site", scenario="obs", route="scatter")
    )
    probe = METRICS.histogram(
        "bench.obs_probe_seconds", "EXP-OBS bulk-timing probe"
    )
    observe_seconds = _bulk_seconds(lambda: probe.observe(0.00123))
    per_request = (
        SPAN_SITES_PER_REQUEST * span_seconds
        + OBSERVE_SITES_PER_REQUEST * observe_seconds
    )
    return {
        "noop_span_seconds": span_seconds,
        "histogram_observe_seconds": observe_seconds,
        "modeled_request_overhead_seconds": per_request,
    }


def _hop_join_service() -> tuple[ExchangeService, object]:
    """The EXP-COLUMNAR hop-join graph behind the serving front door."""
    from repro.core.mapping import mapping_from_rules

    workload = chase_scaling_workload(JOIN_EDGES)
    mapping = mapping_from_rules(
        ["TE(x, y) :- E(x, y)"], source={"E": 2}, target={"TE": 2}
    )
    source = workload.instance
    service = ExchangeService()
    service.register("hops", mapping, source)
    return service, service._registry.get("hops")


def test_disabled_overhead_hop_join_under_5pct(benchmark):
    """Instrumentation (tracing off) costs ≤5% of one hop-join request."""
    service, exchange = _hop_join_service()
    queries = (HOP2, HOP3)
    for query in queries:  # warm the core so rounds measure evaluation only
        service.query(QueryRequest("hops", query))

    def one_round():
        # Invalidate so every request takes the evaluate route the gate
        # models — a cache hit would make the bound trivially loose.
        exchange._cache.invalidate_all()
        for query in queries:
            service.query(QueryRequest("hops", query))

    benchmark.pedantic(one_round, rounds=3, iterations=1)
    request_seconds = benchmark.stats.stats.mean / len(queries)
    model = _modeled_overhead_seconds()
    fraction = model["modeled_request_overhead_seconds"] / request_seconds
    record(
        benchmark,
        experiment="EXP-OBS",
        family="disabled-overhead",
        workload="hop-join",
        overhead_fraction=round(fraction, 5),
    )
    emit(
        "disabled_overhead_hop_join",
        {
            "edges": JOIN_EDGES,
            "request_seconds": round(request_seconds, 6),
            "overhead_fraction": round(fraction, 5),
            "budget": OVERHEAD_BUDGET,
            **{key: round(value, 9) for key, value in model.items()},
        },
    )
    assert fraction <= OVERHEAD_BUDGET, (
        f"disabled instrumentation models {fraction:.2%} of a hop-join "
        f"request ({model['modeled_request_overhead_seconds'] * 1e6:.2f}us "
        f"of {request_seconds * 1e6:.2f}us)"
    )


def test_disabled_overhead_scatter_under_5pct(benchmark):
    """Instrumentation (tracing off) costs ≤5% of one scatter request."""
    workload = skewed_workload(**SCATTER_KWARGS)
    service = ExchangeService()
    service.register(
        "sk",
        workload.mapping,
        workload.source,
        target_dependencies=workload.target_dependencies,
        shards=SHARDS,
    )
    exchange = service._registry.get("sk")
    scatter_queries = [
        query
        for query in workload.queries
        if service.explain(QueryRequest("sk", query)).route == "scatter"
    ]
    assert scatter_queries, "the skewed workload must offer scatter routes"
    for query in scatter_queries:  # warm per-shard cores
        service.query(QueryRequest("sk", query))

    def one_round():
        # Drop the top-level cache and the front's per-slot partial answers
        # (the only caches of slot answers) so every request does the full
        # scatter: fan out, evaluate per shard, merge — the work the
        # EXP-SHARDING gates measure.  All-hits would shrink the
        # denominator to a couple of dict probes and make this gate about
        # timer noise rather than instrumentation.
        exchange._cache.invalidate_all()
        exchange._slot_answers.invalidate_all()
        for query in scatter_queries:
            service.query(QueryRequest("sk", query))

    benchmark.pedantic(one_round, rounds=3, iterations=1)
    request_seconds = benchmark.stats.stats.mean / len(scatter_queries)
    model = _modeled_overhead_seconds()
    fraction = model["modeled_request_overhead_seconds"] / request_seconds
    record(
        benchmark,
        experiment="EXP-OBS",
        family="disabled-overhead",
        workload="scatter",
        overhead_fraction=round(fraction, 5),
    )
    emit(
        "disabled_overhead_scatter",
        {
            "scatter_queries": len(scatter_queries),
            "request_seconds": round(request_seconds, 6),
            "overhead_fraction": round(fraction, 5),
            "budget": OVERHEAD_BUDGET,
            **{key: round(value, 9) for key, value in model.items()},
        },
    )
    assert fraction <= OVERHEAD_BUDGET, (
        f"disabled instrumentation models {fraction:.2%} of a scatter "
        f"request ({model['modeled_request_overhead_seconds'] * 1e6:.2f}us "
        f"of {request_seconds * 1e6:.2f}us)"
    )


def test_enabled_trace_completeness_and_artifacts():
    """Enabled tracing yields complete trees; explain matches the dispatch.

    Also dumps the sample trace and metrics artifacts the CI bench-smoke
    job uploads alongside BENCH_obs.json.
    """
    workload = skewed_workload(**SCATTER_KWARGS)
    service = ExchangeService()
    service.register(
        "sk",
        workload.mapping,
        workload.source,
        target_dependencies=workload.target_dependencies,
        shards=SHARDS,
    )
    roots = []
    routes = {}
    with TRACER.enable():
        TRACER.drain()
        for query in workload.queries:
            explain = service.explain(QueryRequest("sk", query))
            result = service.query(QueryRequest("sk", query))
            assert explain.route == result.route, (
                f"{query.name}: explain said {explain.route!r}, "
                f"answer took {result.route!r}"
            )
            routes.setdefault(result.route, 0)
            routes[result.route] += 1
        roots = TRACER.drain()

    span_names = set()

    def collect(span):
        span_names.add(span.name)
        for child in span.children:
            collect(child)

    for root in roots:
        collect(root)
    assert "service.query" in span_names
    assert "exchange.answer" in span_names
    assert "exchange.cache_probe" in span_names
    if routes.get("scatter"):
        assert "exchange.scatter" in span_names
        assert "shard.answer" in span_names
        assert "exchange.merge" in span_names

    Path("BENCH_obs_trace_sample.json").write_text(
        json.dumps([root.to_dict() for root in roots], indent=2, sort_keys=True)
        + "\n"
    )
    Path("BENCH_obs_metrics_sample.json").write_text(METRICS.to_json() + "\n")

    emit(
        "enabled_trace",
        {
            "routes": routes,
            "root_spans": len(roots),
            "distinct_span_names": sorted(span_names),
        },
    )
