"""Per-layer tracing installed from outside the library, for the traced run.

:class:`LayerTracer` keeps spans in memory — name, start, end, children —
on a per-thread stack; each client operation is one root span.  Spans
opened on a thread with an empty stack (the sharded exchange's fan-out
pool) are parented under the innermost open span of the client's
operation.

:func:`install` wraps the entry points of every serving layer at the
binding the caller actually uses (``materialized.py`` imports
``chase_incremental`` and friends by name, so the wrapper replaces
``repro.serving.materialized.chase_incremental``, not the defining
module's attribute) and returns an undo callable that restores the
originals.  Nothing is wrapped outside the traced run.

Self time is a span's duration minus the part of its interval that its
children cover.  Children that overlap each other (parallel shard round
trips) are scaled down to the union they cover, so the self times of one
operation's tree sum to exactly its duration.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator

import repro.core.certain as certain_mod
import repro.core.deqa as deqa_mod
import repro.serving.materialized as materialized_mod
import repro.serving.sharding as sharding_mod
from repro.obs.trace import TRACER
from repro.serving.cache import CertainAnswerCache
from repro.serving.materialized import MaterializedExchange
from repro.serving.registry import ScenarioRegistry
from repro.serving.service import ExchangeService
from repro.serving.sharding import ShardedExchange
from repro.serving.workers import ProcessShard

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "children")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.end = start
        self.children: list[Span] = []


class LayerTracer:
    """In-memory span trees plus per-layer counters (see module docstring)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._mutex = threading.Lock()
        self._client: list[Span] | None = None  # the client's stack during an op
        self.ops: list[Span] = []
        self.loose: list[Span] = []  # spans outside any op (registration)
        self.counts: Counter = Counter()
        self.worker_s = 0.0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float = 1) -> None:
        with self._mutex:
            self.counts[key] += amount

    def open(self, name: str) -> Span:
        span = Span(name, _clock())
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        elif self._client:
            self._client[-1].children.append(span)
        else:
            with self._mutex:
                self.loose.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def leaf(self, name: str, start: float, end: float) -> None:
        """Record a finished interval under the current span (generator steps)."""
        stack = self._stack()
        if stack:
            span = Span(name, start)
            span.end = end
            stack[-1].children.append(span)

    def op_begin(self, kind: str) -> Span:
        """Open the root span of one client operation on this thread."""
        stack = self._stack()
        root = Span(f"op.{kind}", _clock())
        stack.append(root)
        self._client = stack
        return root

    def op_end(self, root: Span) -> None:
        root.end = _clock()
        self._stack().pop()
        self._client = None
        self.ops.append(root)
        if TRACER.enabled:
            # Worker-side spans come back grafted into the library tracer;
            # drain it every op (its ring keeps only the latest roots).
            seconds = sum(_worker_seconds(root) for root in TRACER.drain())
            with self._mutex:
                self.worker_s += seconds

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name, summed over every recorded op."""
        out: dict[str, float] = defaultdict(float)
        for root in self.ops:
            _attribute(root, 1.0, out)
        return dict(out)

    def durations(self, name: str) -> list[float]:
        """Durations of loose (non-op) spans called ``name``, in order."""
        found: list[float] = []
        stack = list(self.loose)
        while stack:
            span = stack.pop()
            if span.name == name:
                found.append(span.end - span.start)
            stack.extend(span.children)
        return found


def _worker_seconds(span) -> float:
    if span.name.startswith("worker."):
        return span.duration
    return sum(_worker_seconds(child) for child in span.children)


def _covered(span: Span) -> tuple[float, float]:
    """(union length, summed length) of ``span``'s children, clipped to it."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in span.children
    )
    union = total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        total += end - start
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                union += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        union += cur_end - cur_start
    return union, total


def _attribute(span: Span, scale: float, out: dict[str, float]) -> None:
    union, total = _covered(span)
    out[span.name] += scale * (span.end - span.start - union)
    child_scale = scale * (union / total) if total > union else scale
    for child in span.children:
        _attribute(child, child_scale, out)


# -- wrappers -------------------------------------------------------------------


def _timed(tracer: LayerTracer, name: str, fn: Callable, after=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        tracer.count(name)
        if after is not None:
            after(result)
        return result

    return wrapper


def _timed_iter(tracer: LayerTracer, name: str, fn: Callable) -> Callable:
    """Wrap a generator function: every resumption is a leaf interval."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs) -> Iterator:
        tracer.count(name)
        inner = fn(*args, **kwargs)
        while True:
            start = _clock()
            try:
                item = next(inner)
            except StopIteration:
                tracer.leaf(name, start, _clock())
                return
            tracer.leaf(name, start, _clock())
            yield item

    return wrapper


class _Patches:
    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install_setup(tracer: LayerTracer) -> Callable[[], None]:
    """Wrap registration and worker spawn (``registry.register_s``, ``workers.spawn_s``)."""
    patches = _Patches()
    patches.set(ScenarioRegistry, "register", lambda f: _timed(tracer, "registry.register", f))
    patches.set(ProcessShard, "__init__", lambda f: _timed(tracer, "workers.spawn", f))
    return patches.undo


def install(tracer: LayerTracer) -> Callable[[], None]:
    """Wrap every serving layer's entry points; returns the undo callable."""
    patches = _Patches()
    t = functools.partial(_timed, tracer)

    def chase_after(result) -> None:
        tracer.count("chase.steps", len(result.steps))
        if getattr(result, "replay_required", False):
            tracer.count("chase.replays")

    def worlds_after(result) -> None:
        tracer.count("deqa.worlds_checked", result[1])

    patches.set(ExchangeService, "query", lambda f: t("service.query", f))
    patches.set(ExchangeService, "update", lambda f: t("service.update", f))
    patches.set(CertainAnswerCache, "get", lambda f: t("cache.get", f))
    patches.set(CertainAnswerCache, "put", lambda f: t("cache.put", f))
    patches.set(MaterializedExchange, "answer", lambda f: t("materialized.answer", f))
    patches.set(MaterializedExchange, "apply_delta", lambda f: t("materialized.apply_delta", f))
    for name in ("match_atoms", "match_atoms_delta"):
        patches.set(materialized_mod, name, lambda f, n=name: _timed_iter(tracer, f"cq.{n}", f))
    for module in (materialized_mod, sharding_mod):
        patches.set(module, "certain_answers_naive", lambda f: t("evaluate.naive", f))
    for name in ("chase_incremental", "retract_incremental"):
        patches.set(materialized_mod, name, lambda f, n=name: t(f"chase.{n}", f, chase_after))
    patches.set(materialized_mod, "core_of_delta", lambda f: t("core_engine.core_of_delta", f))
    patches.set(materialized_mod, "core_of_indexed", lambda f: t("core_engine.core_of_indexed", f))
    patches.set(ShardedExchange, "answer", lambda f: t("sharding.answer", f))
    patches.set(ShardedExchange, "apply_delta", lambda f: t("sharding.apply_delta", f))
    patches.set(ProcessShard, "answer", lambda f: t("workers.answer", f))
    patches.set(ProcessShard, "apply_delta", lambda f: t("workers.apply_delta", f))
    patches.set(ProcessShard, "_fetch_layers", lambda f: t("workers.fetch_layers", f))
    patches.set(materialized_mod, "certain_answers", lambda f: t("deqa.certain_answers", f))
    patches.set(certain_mod, "is_certain", lambda f: t("deqa.is_certain", f))
    patches.set(deqa_mod, "find_counterexample", lambda f: t("deqa.find_counterexample", f, worlds_after))
    return patches.undo
