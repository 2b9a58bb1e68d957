#!/usr/bin/env python
"""Repo-invariant AST lint (no third-party deps; CI gate).

Walks ``src/`` and enforces ten structural invariants that code review
kept re-litigating:

* ``private-accessor`` — the raw index accessors ``Instance._tuples`` /
  ``Instance._bucket`` are trusted read-only hot paths; nothing outside
  ``src/repro/relational/`` and ``src/repro/logic/cq.py`` may touch them
  (everyone else goes through ``lookup``/``relation``/``index``).
* ``chase-timing`` — no ``time.time()`` / ``time.perf_counter()`` inside
  ``src/repro/chase/``: the chase inner loops are measured by their
  callers (observability lives in ``repro.obs``), and a stray clock call
  per trigger poisons both the numbers and the cache behaviour.
* ``lock-order`` — never acquire the registry/admin mutex while holding a
  metrics-style ``_mutex``: ``Monitor.tick`` samples ``service.stats()``,
  which takes scenario read locks (and the admin mutex on a lock miss),
  outside its own ``_mutex`` precisely so that no path ever holds a
  ``_mutex`` while waiting on the serving layer's locks; the inversion
  would deadlock a tick against a concurrent register or writer.
* ``routing-table`` — the raw routing-table attribute ``._table`` lives in
  ``src/repro/serving/elastic.py`` only; every other layer reads the
  epoch-versioned table through ``EpochRouter.snapshot()`` /
  ``ShardedExchange.routing_snapshot()``, so no reader can ever observe a
  half-published assignment.
* ``monitor-clock`` — inside ``src/repro/obs/monitor.py`` the monotonic
  clock is read in exactly one place, the sampler (``Monitor._now``);
  series timestamps and rule windows derive from sampler ticks, so tests
  and the CLI can drive ``tick(at=...)`` deterministically.  A stray
  ``time.monotonic()`` elsewhere would fork the time base.
* ``merged-view`` — ``_merged_view``, the sharded exchange's maintained
  merged target view, is assigned only in ``ShardedExchange.__init__``,
  ``_merged`` (the full build), ``_advance_merged`` (the per-batch
  maintenance) and ``_swap_shards`` (the drop on a slot swap).  The view
  is advanced from shard reports rather than rebuilt, so a write anywhere
  else could publish a view its stamp does not describe.
* ``slot-answers`` — ``_carry_slot_answers``, which restamps the sharded
  exchange's stored per-slot partial answers to post-batch versions, is
  called only from ``ShardedExchange.apply_delta``: there it runs after
  the fan-out committed and under the service's write lock.  A restamp
  anywhere else could bless an entry that a reader is still filling.
* ``epoch-publish`` — ``begin_publish``/``commit_publish``/
  ``abort_publish``, the service epoch's two-phase publish, are called
  only in ``ExchangeService._publishing``, the one helper every committing
  write (transaction commit, reshard) publishes through: it settles each
  token exactly once, so a hand-rolled copy that forgets a path could
  stall the watermark or settle a token twice.
* ``layering`` — the packages of ``src/repro/`` form a DAG, kept as data in
  ``LAYERS``: each package imports only the packages listed for it
  (``relational`` nothing, ``logic`` relational, ``chase`` logic +
  relational, ``analysis`` chase + core + logic + relational,
  ``serving`` everything but workloads, ``workloads`` anything, …).  Every
  ``import``/``from … import`` counts, at any depth — function bodies and
  ``if TYPE_CHECKING:`` blocks included — so a guarded import is no way
  around it.  Only ``__main__.py`` CLIs and ``src/repro/__init__.py`` (the
  quickstart re-export) are exempt.  It is checked statically because a
  runtime check cannot see it: ``repro/__init__.py`` imports the serving
  layer, so importing any submodule loads the whole stack.
* ``size-budget`` — a ratchet on code size: ``tools/size_budget.json``
  records the line count of each ``src/repro/<package>/``, and a package
  over its budget (or missing from the file) fails, so any growth changes
  the budget file in the same diff and shows up in review.  Trees without
  the file (the tool's own test fixtures) skip the rule.

A finding can be waived on its line with ``# lint: allow(<rule>)`` — the
waiver is part of the diff, so it shows up in review.

Usage: ``python tools/lint_repro.py [paths...]`` (default ``src``); exits
``1`` when any unwaived finding remains.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent

PRIVATE_ACCESSORS = {"_tuples", "_bucket"}
# Directories/files allowed to use the raw accessors (repo-relative, POSIX).
PRIVATE_ACCESSOR_ALLOWED = ("src/repro/relational/", "src/repro/logic/cq.py")
CHASE_DIR = "src/repro/chase/"
TIMING_CALLS = {("time", "time"), ("time", "perf_counter")}
TIMING_BARE = {"perf_counter"}
METRICS_MUTEXES = {"_mutex"}
REGISTRY_MUTEXES = {"_admin"}
ROUTING_TABLE_ATTR = "_table"
ROUTING_TABLE_ALLOWED = "src/repro/serving/elastic.py"
MONITOR_FILE = "src/repro/obs/monitor.py"
MONOTONIC_CALLS = {("time", "monotonic")}
MONOTONIC_BARE = {"monotonic"}
# The sampler: the one function allowed to read the monotonic clock.
MONITOR_CLOCK_ALLOWED = {"_now"}
MERGED_VIEW_ATTR = "_merged_view"
# (class, method) pairs allowed to assign the merged view.
MERGED_VIEW_WRITERS = {
    ("ShardedExchange", name)
    for name in ("__init__", "_merged", "_advance_merged", "_swap_shards")
}

CARRY_CALL = "_carry_slot_answers"
# The (class, method) pair allowed to call the carry-forward.
CARRY_CALLERS = {("ShardedExchange", "apply_delta")}

PUBLISH_CALLS = {"begin_publish", "commit_publish", "abort_publish"}
# The (class, method) pair allowed to drive the epoch's two-phase publish.
PUBLISH_CALLERS = {("ExchangeService", "_publishing")}

PACKAGE_DIR = "src/repro/"
# The package DAG: each package of src/repro/ and the packages it may import
# (None = any; the workload generators drive every layer).
LAYERS: dict[str, frozenset[str] | None] = {
    "relational": frozenset(),
    "logic": frozenset({"relational"}),
    "algebra": frozenset({"logic", "relational"}),
    "chase": frozenset({"logic", "relational"}),
    "core": frozenset({"algebra", "chase", "logic", "relational"}),
    "reductions": frozenset({"core", "logic", "relational"}),
    "analysis": frozenset({"chase", "core", "logic", "relational"}),
    "obs": frozenset(),
    "serving": frozenset({"analysis", "chase", "core", "logic", "obs", "relational"}),
    "workloads": None,
}
# Besides every __main__.py CLI: the quickstart re-export of the whole stack.
LAYERING_EXEMPT = {"src/repro/__init__.py"}

# Lines per package of src/repro/; see the size-budget rule.
SIZE_BUDGET_FILE = "tools/size_budget.json"

ALLOW_RE = re.compile(r"#\s*lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


def _relpath(path: Path) -> str:
    """Repo-relative POSIX path; paths outside the repo stay absolute."""
    try:
        return path.relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return path.as_posix()


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def render(self) -> str:
        return f"{_relpath(self.path)}:{self.line}: [{self.rule}] {self.message}"


def _waivers(source: str) -> dict[int, set[str]]:
    """line number -> rules waived on that line."""
    out: dict[int, set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = ALLOW_RE.search(text)
        if match:
            out[lineno] = {rule.strip() for rule in match.group(1).split(",")}
    return out


def _attr_name(node: ast.expr) -> str | None:
    return node.attr if isinstance(node, ast.Attribute) else None


def _is_timing_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return (func.value.id, func.attr) in TIMING_CALLS
    if isinstance(func, ast.Name):
        return func.id in TIMING_BARE
    return False


def _is_monotonic_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return (func.value.id, func.attr) in MONOTONIC_CALLS
    if isinstance(func, ast.Name):
        return func.id in MONOTONIC_BARE
    return False


def _sampler_spans(tree: ast.AST) -> list[tuple[int, int]]:
    """Line spans of the functions allowed to read the monotonic clock."""
    spans = []
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in MONITOR_CLOCK_ALLOWED
        ):
            spans.append((node.lineno, node.end_lineno or node.lineno))
    return spans


def _owned(
    tree: ast.AST, select: Callable[[ast.AST], list[ast.AST]]
) -> list[tuple[ast.AST, tuple[str, str]]]:
    """The nodes ``select`` picks out of each node, each with its
    ``(class, function)`` (the innermost enclosing ones; ``""`` where there
    is none)."""
    found: list[tuple[ast.AST, tuple[str, str]]] = []

    def visit(node: ast.AST, cls: str, func: str) -> None:
        if isinstance(node, ast.ClassDef):
            cls, func = node.name, ""
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        found.extend((picked, (cls, func)) for picked in select(node))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, func)

    visit(tree, "", "")
    return found


def _merged_view_writes(tree: ast.AST) -> list[tuple[ast.AST, tuple[str, str]]]:
    """Assignments to ``._merged_view``, each with its owner (see :func:`_owned`)."""

    def select(node: ast.AST) -> list[ast.AST]:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            return []
        return [
            part
            for target in targets
            for part in ast.walk(target)
            if isinstance(part, ast.Attribute) and part.attr == MERGED_VIEW_ATTR
        ]

    return _owned(tree, select)


def _method_calls(
    tree: ast.AST, names: set[str]
) -> list[tuple[ast.AST, tuple[str, str]]]:
    """Calls of ``.<name>(...)`` for ``names``, each with its owner (see
    :func:`_owned`)."""

    def select(node: ast.AST) -> list[ast.AST]:
        if isinstance(node, ast.Call) and _attr_name(node.func) in names:
            return [node]
        return []

    return _owned(tree, select)


def _package_of(rel: str) -> str | None:
    """``<package>`` for ``src/repro/<package>/...``, else ``None``."""
    if not rel.startswith(PACKAGE_DIR):
        return None
    parts = rel[len(PACKAGE_DIR):].split("/")
    return parts[0] if len(parts) > 1 else None


def _imported_packages(node: ast.AST, rel: str) -> list[str]:
    """The ``repro`` packages one import statement reaches (``""`` = the
    ``repro`` root itself); relative imports resolve against ``rel``."""
    if isinstance(node, ast.Import):
        modules = [alias.name.split(".") for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        module = node.module.split(".") if node.module else []
        if node.level:
            here = rel[len("src/"):-len(".py")].split("/")
            module = here[: len(here) - node.level] + module
        if module == ["repro"]:  # from repro import <package or name>, ...
            return [alias.name if alias.name in LAYERS else "" for alias in node.names]
        modules = [module]
    else:
        return []
    return [
        parts[1] if len(parts) > 1 else "" for parts in modules if parts[0] == "repro"
    ]


def _with_mutexes(node: ast.With, names: set[str]) -> bool:
    """Does the with statement acquire an attribute-named mutex from ``names``?"""
    for item in node.items:
        expr = item.context_expr
        # both `with self._mutex:` and `with lock.acquire_timeout(...)` shapes
        if _attr_name(expr) in names:
            return True
        if isinstance(expr, ast.Call) and _attr_name(expr.func) in names:
            return True
    return False


def lint_file(path: Path) -> list[Finding]:
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:  # pragma: no cover - the test suite would fail first
        return [Finding(path, exc.lineno or 1, "parse-error", str(exc))]
    rel = _relpath(path)
    waivers = _waivers(source)
    findings: list[Finding] = []

    def flag(node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if rule in waivers.get(line, ()):
            return
        findings.append(Finding(path, line, rule, message))

    accessor_allowed = rel.startswith(PRIVATE_ACCESSOR_ALLOWED[0]) or rel == (
        PRIVATE_ACCESSOR_ALLOWED[1]
    )
    in_chase = rel.startswith(CHASE_DIR)
    package = _package_of(rel)
    layered = (
        package is not None
        and rel not in LAYERING_EXEMPT
        and not rel.endswith("/__main__.py")
    )
    sampler_spans = _sampler_spans(tree) if rel == MONITOR_FILE else None

    for node in ast.walk(tree):
        if layered:
            allowed = LAYERS.get(package, frozenset())
            for target in _imported_packages(node, rel):
                if target == package or allowed is None or target in allowed:
                    continue
                flag(
                    node,
                    "layering",
                    f"repro.{package} imports "
                    f"{'repro.' + target if target else 'the repro root'}; "
                    f"it may import only {sorted(allowed) or 'nothing'} "
                    "(the package DAG is LAYERS in tools/lint_repro.py)",
                )
        if (
            not accessor_allowed
            and isinstance(node, ast.Attribute)
            and node.attr in PRIVATE_ACCESSORS
        ):
            flag(
                node,
                "private-accessor",
                f"raw Instance accessor .{node.attr} outside "
                f"{PRIVATE_ACCESSOR_ALLOWED[0]} / {PRIVATE_ACCESSOR_ALLOWED[1]}; "
                "use lookup()/relation()/index() instead",
            )
        if (
            rel != ROUTING_TABLE_ALLOWED
            and isinstance(node, ast.Attribute)
            and node.attr == ROUTING_TABLE_ATTR
        ):
            flag(
                node,
                "routing-table",
                f"raw routing-table access .{ROUTING_TABLE_ATTR} outside "
                f"{ROUTING_TABLE_ALLOWED}; read the epoch snapshot via "
                "EpochRouter.snapshot() / ShardedExchange.routing_snapshot()",
            )
        if in_chase and isinstance(node, ast.Call) and _is_timing_call(node):
            flag(
                node,
                "chase-timing",
                "clock call inside the chase package; time at the caller "
                "(repro.obs instruments the serving layer)",
            )
        if (
            sampler_spans is not None
            and isinstance(node, ast.Call)
            and _is_monotonic_call(node)
            and not any(
                start <= node.lineno <= end for start, end in sampler_spans
            )
        ):
            flag(
                node,
                "monitor-clock",
                "time.monotonic() outside the sampler (Monitor._now) in "
                f"{MONITOR_FILE}; derive timestamps from tick(at=...) instead",
            )
        if isinstance(node, ast.With) and _with_mutexes(node, METRICS_MUTEXES):
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.With)
                    and _with_mutexes(inner, REGISTRY_MUTEXES)
                ):
                    flag(
                        inner,
                        "lock-order",
                        "registry/admin mutex acquired while holding a metrics "
                        "_mutex; invert the nesting (snapshot paths take "
                        "_mutex last)",
                    )
    for node, owner in _merged_view_writes(tree):
        if owner not in MERGED_VIEW_WRITERS:
            flag(
                node,
                "merged-view",
                f".{MERGED_VIEW_ATTR} assigned in {'.'.join(filter(None, owner)) or 'module scope'}; "
                "only ShardedExchange.__init__, _merged, _advance_merged and "
                "_swap_shards may write the merged view",
            )
    for node, owner in _method_calls(tree, {CARRY_CALL}):
        if owner not in CARRY_CALLERS:
            flag(
                node,
                "slot-answers",
                f".{CARRY_CALL}() called in {'.'.join(filter(None, owner)) or 'module scope'}; "
                "only ShardedExchange.apply_delta may carry partial answers "
                "forward (after the commit, under the write lock)",
            )
    for node, owner in _method_calls(tree, PUBLISH_CALLS):
        if owner not in PUBLISH_CALLERS:
            flag(
                node,
                "epoch-publish",
                f".{_attr_name(node.func)}() called in "
                f"{'.'.join(filter(None, owner)) or 'module scope'}; only "
                "ExchangeService._publishing may begin or settle an epoch publish",
            )
    return findings


def package_sizes(files: list[Path]) -> dict[str, int]:
    """Lines per ``src/repro/<package>/`` over ``files``."""
    sizes: dict[str, int] = {}
    for file in files:
        package = _package_of(_relpath(file))
        if package is not None:
            sizes[package] = sizes.get(package, 0) + len(file.read_text().splitlines())
    return sizes


def size_findings(sizes: dict[str, int]) -> list[Finding]:
    """Packages over (or missing from) the size budget; none without one.

    A partial lint counts only the files it walked, so it can undercount a
    package but never flag one falsely.
    """
    budget_path = REPO_ROOT / SIZE_BUDGET_FILE
    if not budget_path.exists():
        return []
    budget = json.loads(budget_path.read_text())
    findings = []
    for package, lines in sorted(sizes.items()):
        limit = budget.get(package)
        if limit is None or lines > limit:
            findings.append(
                Finding(
                    budget_path,
                    1,
                    "size-budget",
                    f"repro.{package} has {lines} lines, "
                    + ("no budget" if limit is None else f"over its budget of {limit}")
                    + f"; shrink it or change {SIZE_BUDGET_FILE} in the same diff",
                )
            )
    return findings


def lint_paths(paths: list[Path]) -> list[Finding]:
    # Each file once, however the given paths overlap: the size budget
    # must not count a file twice.
    files = list(
        dict.fromkeys(
            file
            for root in paths
            for file in (sorted(root.rglob("*.py")) if root.is_dir() else [root])
        )
    )
    findings = [finding for file in files for finding in lint_file(file)]
    findings.extend(size_findings(package_sizes(files)))
    findings.sort(key=lambda f: (str(f.path), f.line))
    return findings


def main(argv: list[str]) -> int:
    targets = [Path(arg).resolve() for arg in argv] or [REPO_ROOT / "src"]
    findings = lint_paths(targets)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
