"""EXP-ANALYSIS — the static analyzer is cheap and its gate is sound.

Two gates for :mod:`repro.analysis`:

* **overhead** — running *every* analysis pass (tiered termination,
  redundancy implication, shardability) over the skewed workload's compiled
  mapping must cost ≤ 10% of the one-time registration work it piggybacks on
  (compile + materialize).  Registration-time analysis is only free if it is
  actually negligible next to the chase it certifies.

* **admission** — the superweak workload's target tgds are *rejected* by
  plain weak acyclicity but certified by the super-weak-acyclicity tier;
  the scenario must register, serve its query mix, and after every mixed
  update batch stay differentially identical to the from-scratch naive
  chase of the current source.  This is the acceptance bar of the tiered
  gate: richer admission must never buy a non-terminating or wrong serve.

Headline numbers are emitted as ``BENCH_analysis.json``.  Set
``REPRO_BENCH_QUICK=1`` to shrink the sizes (CI smoke mode).
"""

from __future__ import annotations

import os
import time

from benchmarks._emit import make_emitter
from benchmarks.conftest import record
from repro.analysis import analyse_mapping
from repro.analysis.compiled import compile_mapping
from repro.chase.dependencies import TGD
from repro.chase.engine import chase
from repro.chase.weak_acyclicity import is_weakly_acyclic
from repro.core.canonical import canonical_solution
from repro.core.certain import certain_answers_naive
from repro.serving import ExchangeService
from repro.workloads.skewed import skewed_workload
from repro.workloads.superweak import superweak_workload

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

SKEWED_KWARGS = (
    dict(customers=32, accounts=240, batches=4) if QUICK else dict(customers=64, accounts=600)
)
SUPERWEAK_KWARGS = (
    dict(nodes=16, links=40, batches=3) if QUICK else dict(nodes=24, links=80, batches=6)
)

#: The gate: all analysis passes within this fraction of registration time.
MAX_ANALYSIS_FRACTION = 0.10

emit = make_emitter("EXP-ANALYSIS", "BENCH_analysis.json")


def test_analysis_overhead_within_10pct_of_registration(benchmark):
    workload = skewed_workload(**SKEWED_KWARGS)

    start = time.perf_counter()
    service = ExchangeService()
    service.register(
        "skewed",
        workload.mapping,
        source=workload.source,
        target_dependencies=workload.target_dependencies,
    )
    registration_seconds = time.perf_counter() - start

    compiled = service.scenario("skewed").compiled

    def analyse():
        return analyse_mapping(compiled, scope="skewed")

    report = benchmark(analyse)
    analysis_seconds = benchmark.stats.stats.mean
    fraction = analysis_seconds / registration_seconds

    assert report.ok
    assert fraction <= MAX_ANALYSIS_FRACTION, (
        f"analysis took {analysis_seconds:.4f}s = {fraction:.1%} of the "
        f"{registration_seconds:.4f}s registration it rides on"
    )
    record(
        benchmark,
        registration_seconds=registration_seconds,
        analysis_fraction=fraction,
    )
    emit(
        "overhead",
        {
            "registration_seconds": registration_seconds,
            "analysis_seconds": analysis_seconds,
            "fraction": fraction,
            "bound": MAX_ANALYSIS_FRACTION,
        },
    )


def test_superweak_admission_serves_differentially_identical(benchmark):
    workload = superweak_workload(**SUPERWEAK_KWARGS)
    tgds = [d for d in workload.target_dependencies if isinstance(d, TGD)]
    assert not is_weakly_acyclic(tgds), "the workload must defeat the old gate"
    compiled = compile_mapping(workload.mapping, workload.target_dependencies)
    assert compiled.termination.tier == "super-weak-acyclicity"

    def naive_answers(source, query):
        csol = canonical_solution(workload.mapping, source).instance
        chased = chase(csol, workload.target_dependencies).instance
        return set(certain_answers_naive(query, chased))

    def replay():
        service = ExchangeService()
        service.register(
            "superweak",
            workload.mapping,
            source=workload.source,
            target_dependencies=workload.target_dependencies,
        )
        source = workload.source.copy()
        checked = 0
        for added, removed in workload.batches:
            service.update("superweak", add=added, retract=removed)
            for fact in removed:
                source.discard(*fact)
            for fact in added:
                source.add(*fact)
            for query in workload.queries:
                served = set(service.query("superweak", query).answers)
                assert served == naive_answers(source, query), query.name
                checked += 1
        return checked

    checked = benchmark.pedantic(replay, rounds=1, iterations=1)
    assert checked == len(workload.batches) * len(workload.queries)
    record(benchmark, tier="super-weak-acyclicity", differential_checks=checked)
    emit(
        "admission",
        {
            "tier": "super-weak-acyclicity",
            "weakly_acyclic": False,
            "batches": len(workload.batches),
            "differential_checks": checked,
            "identical": True,
        },
    )
