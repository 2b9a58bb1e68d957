"""One benchmark run: setup, warm-up, timed closed loop, oracle check, teardown.

Imported by ``run.py`` after it has put the library sources on ``sys.path``.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import layers
from repro.core.certain import certain_answers
from repro.obs.trace import TRACER
from repro.relational.instance import Instance
from repro.serving.service import ExchangeService, UpdateRequest
from workloads import WORKLOADS, Workload

_clock = time.perf_counter

# Setup is repeated until it has run this many times and this long (or hit
# the cap), and reported as the median.
SETUP_MIN_REPS, SETUP_MIN_SECONDS, SETUP_MAX_REPS = 5, 2.0, 40
# The traced run's timed windows, in order.
TRACE_WINDOWS = ("untraced", "traced", "traced", "untraced") * 2
# The least share of op wall time the layers below ``ExchangeService`` must
# cover; the service's own bookkeeping measured 2-10% of it per workload, so
# a missed cache or materialized wrapper pushes the service's share past this.
LAYER_COVERAGE_FLOOR = 0.85


@dataclass
class Phase:
    """What the client did during one phase of a run."""

    elapsed: float = 0.0
    ops: int = 0
    failed: int = 0
    query_s: list[float] = field(default_factory=list)
    update_s: list[float] = field(default_factory=list)
    lock_wait_s: list[float] = field(default_factory=list)
    route_s: dict[str, list[float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile of all ``values`` (0 for an empty
    sample), as ``statistics.quantiles(..., method="inclusive")`` gives it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def register_all(workload: Workload) -> tuple[ExchangeService, float]:
    gc.collect()
    service = ExchangeService()
    start = _clock()
    for sc in workload.scenarios:
        service.register(
            sc.name,
            sc.mapping,
            sc.source,
            target_dependencies=sc.target_dependencies,
            **sc.options,
        )
    return service, _clock() - start


def teardown(service: ExchangeService) -> None:
    for name in service.names():
        service.deregister(name)


def run_client(
    service: ExchangeService,
    workload: Workload,
    phase: Phase,
    log: list,
    stop: Callable[[int], bool],
    tracer: layers.LayerTracer | None = None,
) -> None:
    """Drive the closed-loop client until ``stop(ops done in this call)``.

    Committed updates go to ``log`` as ``(commit epoch, op)``.
    """
    pool = workload.pool
    done = 0
    start = _clock()
    while not stop(done):
        op = next(workload.stream)
        root = tracer.op_begin(op.kind) if tracer is not None else None
        sent = _clock()
        try:
            if op.kind == "query":
                result = service.query(op.scenario, pool[op.query_index][2])
            else:
                result = service.update(UpdateRequest(op.scenario, add=op.add, retract=op.retract))
        except Exception as exc:  # counted, reported, and failing the run
            phase.failed += 1
            phase.errors.append(f"{op.kind} {op.scenario}: {exc!r}")
            continue
        finally:
            done_at = _clock()
            if root is not None:
                tracer.op_end(root)
            done += 1
        elapsed = done_at - sent
        if op.kind == "query":
            phase.query_s.append(elapsed)
            phase.lock_wait_s.append(result.lock_wait_seconds)
            phase.route_s.setdefault(result.route, []).append(elapsed)
        else:
            phase.update_s.append(elapsed)
            log.append((result.epoch, op))
    phase.ops += done
    phase.elapsed += _clock() - start


def timed_phase(service, workload, seconds, log, phase, tracer=None) -> None:
    """Run the client for ``seconds``, accumulating into ``phase``."""
    gc.collect()
    deadline = _clock() + seconds
    run_client(service, workload, phase, log, lambda _done: _clock() >= deadline, tracer)


def traced_window(service, workload, seconds, log, phase, tracer, deltas) -> None:
    """One timed window with the layer wrappers (and, for worker processes,
    the library tracer) installed; counter deltas accumulate into ``deltas``."""
    before = _stat_totals(service)
    undo = layers.install(tracer)
    TRACER.enabled = any(
        sc.options.get("shard_workers") == "process" for sc in workload.scenarios
    )
    try:
        timed_phase(service, workload, seconds, log, phase, tracer)
    finally:
        TRACER.enabled = False
        undo()
        TRACER.drain()
    for key, value in _stat_totals(service).items():
        deltas[key] = deltas.get(key, 0) + value - before.get(key, 0)


def vm_hwm_mb(pids: list[int]) -> float:
    """Summed peak resident set size (``VmHWM``) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker.

    Spawning the first shard worker starts it; left alone it outlives this
    process by a moment and, orphaned, is never reaped.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def child_pids() -> list[int]:
    """The pids of every live child process of this process, from ``/proc``."""
    pids: list[int] = []
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children") as children:
            pids += [int(pid) for pid in children.read().split()]
    return sorted(pids)


def final_sources(workload: Workload, log: list) -> dict[str, set]:
    """Replay the committed updates, in commit-epoch order, on the initial sources."""
    sources = {sc.name: set(sc.source.facts()) for sc in workload.scenarios}
    for _epoch, op in sorted(log, key=lambda entry: entry[0]):
        facts = sources[op.scenario]
        facts.difference_update(op.retract)
        facts.update(op.add)
    return sources


def oracle_answers(workload: Workload, sources: dict[str, set]) -> dict[tuple[str, str], set]:
    """Every pool query's expected answers on ``sources``, keyed by (scenario, label).

    ``certain`` workloads recompute from scratch with
    ``repro.core.certain.certain_answers``; ``service`` workloads register
    the sources, unsharded, in a fresh ``ExchangeService``.
    """
    scenarios = {sc.name: sc for sc in workload.scenarios}
    if workload.oracle == "certain":
        return {
            (scenario, label): set(
                certain_answers(scenarios[scenario].mapping, _instance(sources[scenario]), query)
            )
            for scenario, label, query in workload.pool
        }
    oracle = ExchangeService()
    try:
        for sc in workload.scenarios:
            oracle.register(
                sc.name,
                sc.mapping,
                _instance(sources[sc.name]),
                target_dependencies=sc.target_dependencies,
            )
        return {
            (scenario, label): set(oracle.query(scenario, query).answers)
            for scenario, label, query in workload.pool
        }
    finally:
        teardown(oracle)


def check_answers(service: ExchangeService, workload: Workload, log: list) -> tuple[int, int, list[str]]:
    """Compare every pool query's served answers with the oracle.

    Returns ``(checks, mismatches, messages)``; a served source that differs
    from the replayed updates counts as one more mismatch.
    """
    sources = final_sources(workload, log)
    messages: list[str] = []
    for sc in workload.scenarios:
        live = {(name, tuple(tup)) for name, tup in service.scenario(sc.name).source.facts()}
        if live != sources[sc.name]:
            messages.append(f"{sc.name}: served source differs from the replayed updates")
    expected = oracle_answers(workload, sources)
    for scenario, label, query in workload.pool:
        served = set(service.query(scenario, query).answers)
        want = expected[scenario, label]
        if served != want:
            messages.append(f"{scenario}/{label}: served {len(served)} answers, oracle {len(want)}")
    return len(workload.pool), len(messages), messages


def _instance(facts: set) -> Instance:
    instance = Instance()
    for name, tup in sorted(facts, key=repr):
        instance.add(name, tup)
    return instance


def end_to_end(phase: Phase, setup_s: float, rss_mb: float) -> dict[str, tuple[float, str]]:
    return {
        "ops_per_s": (phase.ops / phase.elapsed, "1/s"),
        "query_p50_ms": (percentile(phase.query_s, 0.50) * 1e3, "ms"),
        "query_p99_ms": (percentile(phase.query_s, 0.99) * 1e3, "ms"),
        "update_p50_ms": (percentile(phase.update_s, 0.50) * 1e3, "ms"),
        "update_p90_ms": (percentile(phase.update_s, 0.90) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def _stat_totals(service: ExchangeService) -> dict[str, float]:
    """Cache, lock and sharding counters summed over the service's scenarios."""
    totals: dict[str, float] = {}
    for stats in service.stats().scenarios:
        values = {
            "hits": stats.cache.hits,
            "misses": stats.cache.misses,
            "stale": stats.cache.stale,
            "evictions": stats.cache.evictions,
            "lock_waits": stats.lock.read_waits + stats.lock.write_waits,
        }
        if stats.sharding is not None:
            values.update(
                scatter=stats.sharding.scatter_queries,
                merged=stats.sharding.merged_queries,
                fanout=stats.sharding.fanout_applies,
                worker_failures=stats.sharding.worker_failures,
            )
        for key, value in values.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def per_layer(
    tracer: layers.LayerTracer,
    traced: Phase,
    untraced: Phase,
    deltas: dict[str, float],
    failures: float,
) -> dict[str, tuple[float, str]]:
    """The traced run's per-layer metrics; work and time are per traced op."""
    self_s = tracer.self_times()
    counts = tracer.counts
    ops = traced.ops

    def count(*keys: str) -> tuple[float, str]:
        # Dotted keys are the tracer's counters, bare ones stats() deltas.
        return sum(counts[k] + deltas.get(k, 0) for k in keys) / ops, "1/op"

    def seconds(prefix: str) -> tuple[float, str]:
        return sum(v for k, v in self_s.items() if k.startswith(prefix)) / ops, "s/op"

    def p_ms(values: list[float], q: float) -> tuple[float, str]:
        return percentile(values, q) * 1e3, "ms"

    probes = sum(deltas.get(k, 0) for k in ("hits", "misses", "stale"))
    round_trip = seconds("workers.")[0]
    op_wall = sum(root.end - root.start for root in tracer.ops)
    covered = sum(v for k, v in self_s.items() if not k.startswith("op."))
    below_service = covered - sum(v for k, v in self_s.items() if k.startswith("service."))
    register = tracer.durations("registry.register")
    return {
        "service.query_lock_wait_p99_ms": p_ms(traced.lock_wait_s, 0.99),
        "service.lock_waits": count("lock_waits"),
        "service.self_s": seconds("service."),
        "cache.hit_frac": (deltas.get("hits", 0) / probes if probes else 0.0, "fraction"),
        "cache.evictions": count("evictions"),
        "cache.stale": count("stale"),
        "cache.probe_s": seconds("cache."),
        "materialized.apply_delta_self_s": seconds("materialized.apply_delta"),
        "materialized.answer_self_s": seconds("materialized.answer"),
        "cq.match_calls": count("cq.match_atoms", "cq.match_atoms_delta"),
        "cq.match_self_s": seconds("cq."),
        "evaluate.calls": count("evaluate.naive"),
        "evaluate.self_s": seconds("evaluate."),
        "chase.calls": count("chase.chase_incremental", "chase.retract_incremental"),
        "chase.steps": count("chase.steps"),
        "chase.self_s": seconds("chase."),
        "chase.replays": count("chase.replays"),
        "core_engine.calls": count("core_engine.core_of_delta", "core_engine.core_of_indexed"),
        "core_engine.full_recomputes": count("core_engine.core_of_indexed"),
        "core_engine.self_s": seconds("core_engine."),
        "sharding.scatter_queries": count("scatter"),
        "sharding.merged_queries": count("merged"),
        "sharding.fanout_applies": count("fanout"),
        "sharding.scatter_p50_ms": p_ms(traced.route_s.get("scatter", []), 0.5),
        "sharding.merged_p50_ms": p_ms(traced.route_s.get("merged", []), 0.5),
        "sharding.self_s": seconds("sharding."),
        "workers.round_trips": count("workers.answer", "workers.apply_delta", "workers.fetch_layers"),
        "workers.round_trip_s": (round_trip, "s/op"),
        "workers.worker_s": (tracer.worker_s / ops, "s/op"),
        "workers.ipc_s": (max(round_trip - tracer.worker_s / ops, 0.0), "s/op"),
        "workers.spawn_s": (sum(tracer.durations("workers.spawn")) / max(len(register), 1), "s"),
        "workers.failures": (failures, "count"),
        "deqa.candidates": count("deqa.is_certain"),
        "deqa.worlds_checked": count("deqa.worlds_checked"),
        "deqa.self_s": seconds("deqa."),
        "registry.register_s": (statistics.median(register) if register else 0.0, "s"),
        "trace.ops": (ops, "count"),
        "trace.coverage_frac": (covered / op_wall if op_wall else 0.0, "fraction"),
        "trace.layer_coverage_frac": (below_service / op_wall if op_wall else 0.0, "fraction"),
        "trace.overhead_frac": (
            1.0 - (ops / traced.elapsed) / (untraced.ops / untraced.elapsed),
            "fraction",
        ),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    workload = WORKLOADS[name](seed)
    tracer = layers.LayerTracer() if trace else None

    setup_times: list[float] = []
    service: ExchangeService | None = None
    log: list = []
    problems: list[str] = []
    try:
        # -- setup: the median of several registrations into fresh services.
        if tracer is not None:
            undo = layers.install_setup(tracer)
            try:
                service, elapsed = register_all(workload)
            finally:
                undo()
            setup_times.append(elapsed)
        else:
            while True:
                service, elapsed = register_all(workload)
                setup_times.append(elapsed)
                if len(setup_times) >= SETUP_MAX_REPS or (
                    len(setup_times) >= SETUP_MIN_REPS and sum(setup_times) >= SETUP_MIN_SECONDS
                ):
                    break
                teardown(service)
        setup_s = statistics.median(setup_times)

        warm = Phase()
        run_client(service, workload, warm, log, lambda done: done >= workload.warmup_ops)
        if tracer is None:
            timed = Phase()
            timed_phase(service, workload, seconds, log, timed)
            phases = [warm, timed]
        else:
            # Untraced and traced windows alternate (ABBA), so drift in the
            # workload's state or the host cancels out of the overhead.
            untraced, traced, deltas = Phase(), Phase(), {}
            window = seconds / len(TRACE_WINDOWS)
            for mode in TRACE_WINDOWS:
                if mode == "traced":
                    traced_window(service, workload, window, log, traced, tracer, deltas)
                else:
                    timed_phase(service, workload, window, log, untraced)
            failures = _stat_totals(service).get("worker_failures", 0)
            phases = [warm, untraced, traced]
        children = [p.pid for p in multiprocessing.active_children()]
        rss_mb = vm_hwm_mb([os.getpid()] + children)
        checks, mismatches, messages = check_answers(service, workload, log)
        problems += messages
    finally:
        if service is not None:
            teardown(service)
        for proc in multiprocessing.active_children():
            proc.join(timeout=5)
        stop_resource_tracker()
    survivors = child_pids()
    if survivors:
        problems.append(f"child processes {survivors} survived deregistration")

    attempted = sum(p.ops for p in phases) + checks
    failed = sum(p.failed for p in phases) + mismatches
    for phase in phases:
        problems += phase.errors[:5]
    if tracer is None:
        metrics = end_to_end(timed, setup_s, rss_mb)
        sample = timed
    else:
        metrics = per_layer(tracer, traced, untraced, deltas, failures)
        coverage = metrics["trace.coverage_frac"][0]
        if not 0.9 <= coverage <= 1.1:
            problems.append(f"layer self times cover {coverage:.3f} of op wall time")
        below = metrics["trace.layer_coverage_frac"][0]
        if below < LAYER_COVERAGE_FLOOR:
            problems.append(f"layers below the service cover only {below:.3f} of op wall time")
        problems += [f"{key} is 0 on {name}" for key in workload.busy if metrics[key][0] <= 0]
        problems += [f"{key} is not 0 on {name}" for key in workload.idle if metrics[key][0] != 0]
        sample = traced
    correct = failed == 0 and not problems
    print(
        f"perfbench {name} seed={seed} trace={int(trace)}: {sample.ops} ops "
        f"({len(sample.query_s)} queries, {len(sample.update_s)} updates) in "
        f"{sample.elapsed:.2f}s; routes "
        + ", ".join(f"{r}={len(v)}" for r, v in sorted(sample.route_s.items()))
        + f"; setup reps={len(setup_times)}",
        file=sys.stderr,
    )
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
