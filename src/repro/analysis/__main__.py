"""``python -m repro.analysis`` — run every static pass over the example workloads.

Compiles each registered example workload's mapping (the same tiered
termination gate registration runs), then reports termination, redundancy
and shardability diagnostics per workload plus the cross-mapping
containment probe over the whole set.

Usage::

    python -m repro.analysis                 # human-readable report
    python -m repro.analysis --json          # machine-readable
    python -m repro.analysis --strict        # exit 1 on warnings too
    python -m repro.analysis skewed churn    # restrict to named workloads

Exit status: ``0`` clean, ``1`` when any pass reports an error (or, under
``--strict``, a warning).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Iterable

from repro.analysis import (
    AnalysisReport,
    Severity,
    analyse_mapping,
    registry_containment_scan,
    report,
)
from repro.analysis.compiled import CompiledMapping, MappingRejected, compile_mapping
from repro.workloads import (
    churn_dependencies,
    churn_mapping,
    serving_mapping,
    skewed_dependencies,
    skewed_mapping,
    superweak_dependencies,
    superweak_mapping,
)


def _registered_workloads() -> dict[str, tuple[Callable, Callable]]:
    """name -> (mapping factory, target-dependency factory)."""
    return {
        "skewed": (skewed_mapping, skewed_dependencies),
        "superweak": (superweak_mapping, superweak_dependencies),
        "churn": (churn_mapping, churn_dependencies),
        "serving": (serving_mapping, lambda: ()),
    }


def analyse_workloads(names: Iterable[str]) -> list[AnalysisReport]:
    """One report per workload plus a trailing cross-mapping containment report."""
    registered = _registered_workloads()
    unknown = sorted(set(names) - set(registered))
    if unknown:
        raise SystemExit(
            f"unknown workload(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(registered))}"
        )
    reports: list[AnalysisReport] = []
    compiled_by_name: dict[str, CompiledMapping] = {}
    for name in sorted(names):
        make_mapping, make_deps = registered[name]
        try:
            compiled = compile_mapping(make_mapping(), make_deps())
        except MappingRejected as exc:
            reports.append(report(name, exc.decision.diagnostics()))
            continue
        compiled_by_name[name] = compiled
        reports.append(analyse_mapping(compiled, scope=name))
    if len(compiled_by_name) > 1:
        reports.append(
            report("cross-mapping", registry_containment_scan(compiled_by_name))
        )
    return reports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "workloads",
        nargs="*",
        help="workload names to analyse (default: all registered)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit one JSON document instead of text"
    )
    parser.add_argument(
        "--strict", action="store_true", help="exit non-zero on warnings too"
    )
    opts = parser.parse_args(argv)
    names = opts.workloads or sorted(_registered_workloads())
    reports = analyse_workloads(names)
    if opts.json:
        print(json.dumps([json.loads(r.to_json()) for r in reports], indent=2))
    else:
        print("\n\n".join(r.render() for r in reports))
    worst = Severity.WARNING if opts.strict else Severity.ERROR
    failed = any(
        d.severity.rank >= worst.rank for r in reports for d in r.diagnostics
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
