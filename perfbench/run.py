"""End-to-end benchmark of ``repro.serving.ExchangeService`` (EXP-E2E).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 25 --trace 0

One run registers the workload's scenarios (several times, for a median
``setup_s``), warms up, drives the public service API from one closed-loop
client for ``--seconds``, checks every pool query's answers on the
final source against an oracle, deregisters everything and checks that no
child process survived.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics of
``layers.py`` with ``--trace 1`` (alternating untraced and traced windows,
so the tracing overhead is measured too).  A human summary goes to stderr.

Exits 0 on a correct run, 1 on a wrong answer or a broken invariant, and 2
when the library sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found at {SRC}", file=sys.stderr)
        return 2
    # One core for the benchmark and the shard workers, which inherit the
    # mask: on a shared 2-vCPU host, processes spread over both cores
    # measure the host's cross-core wake-ups as much as the program.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
