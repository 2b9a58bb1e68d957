"""Check that the workloads do not depend on Python's string hash order.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py

For every workload it generates, in two interpreters started with
different ``PYTHONHASHSEED`` values, the first ``OPS`` operations of the
client's stream for seed ``SEED``, applies their updates to the initial
sources in stream order, and computes the oracle's answers to every pool
query on the result.  The digests of both interpreters must be identical.
Exits 1 if any workload differs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys

import run

HASH_SEEDS = ("0", "12345")
SEED = 7
OPS = 400


def digest(name: str) -> str:
    """The digest of ``name``'s op stream and final oracle answers."""
    import bench
    from workloads import WORKLOADS

    workload = WORKLOADS[name](SEED)
    sha = hashlib.sha256()
    log = []
    for _ in range(OPS):
        op = next(workload.stream)
        sha.update(repr(op).encode())
        if op.kind == "update":
            log.append((len(log), op))
    sources = bench.final_sources(workload, log)
    answers = bench.oracle_answers(workload, sources)
    for key in sorted(answers):
        sha.update(repr((key, sorted(answers[key], key=repr))).encode())
    return sha.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--digest", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (run.SRC / "repro" / "__init__.py").is_file():
        print(f"selfcheck: library sources not found at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    if args.digest:
        print(digest(args.digest))
        return 0

    from workloads import WORKLOADS

    failures = 0
    for name in WORKLOADS:
        digests = set()
        for hash_seed in HASH_SEEDS:
            out = subprocess.run(
                [sys.executable, __file__, "--digest", name],
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                text=True,
                check=True,
            )
            digests.add(out.stdout.strip())
        verdict = "ok" if len(digests) == 1 else "DIFFERS"
        failures += len(digests) != 1
        print(f"{name}: {verdict} across PYTHONHASHSEED={','.join(HASH_SEEDS)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
