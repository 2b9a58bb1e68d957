"""Per-shard worker processes: beyond-GIL scatter evaluation.

A :class:`ProcessShard` hosts one shard's
:class:`~repro.serving.materialized.SlotExchange` in a dedicated
worker process (``spawn`` start method, so the layout is identical on every
platform and Python version) while presenting the exchange's serving surface
to the parent :class:`~repro.serving.sharding.ShardedExchange`.  CPU-bound
join evaluation — the per-shard trigger matching of ``apply_delta`` and the
per-shard query answering of the scatter route — then runs outside the
parent's GIL, which is what turns the scatter fan-out into a real speedup on
CPU-bound workloads instead of overlapped waiting.  A worker only evaluates:
the answer caches, the per-slot partial answers and the pruning all stay in
the parent's sharded front.

Wire format
-----------
Requests and replies are plain tuples of facts, queries and answer sets,
pickled by :mod:`multiprocessing` itself.  An ``answer`` reply is the
answer set over the worker's target; an ``apply`` reply is the applied
facts plus the touched target facts, split by membership.  The only
identity the paper needs across the boundary is that of labelled nulls, and
a :class:`Null` is its ``ident``: each worker re-seeds ``Null._counter``
into a disjoint ident range (:data:`NULL_IDENT_STRIDE`), so chase nulls
minted in different processes can never collide, and ``Null.__reduce__``
rebuilds a null from its label and ident without minting a fresh one.

Every reply carries a **state summary** (target version vector, layer sizes,
update-stat counters), which the parent caches — size and version reads on a
healthy shard are local, with no round trip — plus a **span slot**: when the
parent's tracer is enabled it flags the request, the worker runs it under a
root span (its own process-global tracer enabled for just that request) and
ships the finished tree as compact nested tuples
(:meth:`repro.obs.trace.Span.to_record`), which the parent grafts under the
live request span.  Untraced requests carry ``None`` and cost nothing.

Failure model
-------------
A worker that *rejects* a batch (egd conflict, blown step budget) has already
rolled itself back; the proxy re-raises :class:`ServingError` and the
sharded all-or-nothing unwind proceeds exactly as in-process.  A worker that
*dies* (killed, crashed) surfaces as :class:`WorkerGone`, and the
front swaps the slot: :class:`~repro.serving.sharding.ShardedExchange`
replaces the proxy with an in-process exchange built from the proxy's
mirrored source slice — kept pre-batch-exact, it only advances on
acknowledged commits — and retries the call on it.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Any, Callable, Iterable, Optional

from repro.analysis.compiled import CompiledMapping, compile_mapping
from repro.obs.trace import TRACER
from repro.relational.instance import Instance
from repro.serving.materialized import (
    AnswerOutcome,
    AppliedDelta,
    ServingError,
    SlotExchange,
    UpdateStats,
)

__all__ = ["ProcessShard", "WorkerGone"]

#: Worker ``index`` re-seeds ``Null._counter`` at ``(index + 1) * this`` so
#: chase nulls minted in different processes occupy disjoint ident ranges.
NULL_IDENT_STRIDE = 1 << 34


class WorkerGone(Exception):
    """The worker process died or failed internally, or the proxy is closed."""


# -- the worker process ------------------------------------------------------


def _summary(exchange: SlotExchange) -> tuple:
    stats = exchange.update_stats
    target = exchange.target
    return (
        tuple(exchange._target_versions()),
        exchange.target_size,
        tuple(
            sorted(
                (name, len(target.relation(name)))
                for name in target.relation_names()
            )
        ),
        (
            stats.batches,
            stats.trigger_rounds,
            stats.target_repairs,
            stats.invalidation_rounds,
            stats.replays,
            stats.rollbacks,
        ),
    )


def _run_traced(trace: bool, name: str, index: int, fn: Callable[[], Any]) -> tuple:
    """Run one request, under a worker-root span when the parent flagged it.

    Returns ``(result, records)`` where ``records`` is the drained span
    forest as compact tuples (``None`` for untraced requests).  The drain
    before the span discards leftovers from a request that failed mid-trace,
    so stale trees can never graft under a later request.
    """
    if not trace:
        return fn(), None
    with TRACER.enable():
        TRACER.drain()
        with TRACER.span(name, shard=index):
            result = fn()
        return result, tuple(span.to_record() for span in TRACER.drain())


def _worker_main(conn, index: int) -> None:
    """One shard's server loop: delegate each request to the exchange."""
    import itertools

    from repro.relational import domain

    # Disjoint ident range: chase nulls minted here can never collide with
    # the parent's or a sibling worker's (null identity is the ident).
    domain.Null._counter = itertools.count((index + 1) * NULL_IDENT_STRIDE)
    exchange: Optional[SlotExchange] = None

    def reply_ok(payload: Any, spans: Optional[tuple] = None) -> None:
        conn.send(("ok", payload, _summary(exchange), spans))

    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                break
            try:
                if kind == "init":
                    (
                        _,
                        name,
                        mapping,
                        dependencies,
                        max_chase_steps,
                        schema,
                        facts,
                    ) = message
                    source = Instance(schema=schema)
                    for fact in facts:
                        source.add(*fact)
                    exchange = SlotExchange(
                        name,
                        compile_mapping(mapping, dependencies),
                        source,
                        max_chase_steps=max_chase_steps,
                    )
                    reply_ok(None)
                elif kind == "apply":
                    _, added, removed, trace = message
                    applied, spans = _run_traced(
                        trace,
                        "worker.apply_delta",
                        index,
                        lambda: exchange.apply_delta(added=added, removed=removed),
                    )
                    # The slot's touched target facts ride along, split by
                    # membership (None when unknown), for the front's merged view.
                    reply_ok((applied.added, applied.removed, applied.touched), spans)
                elif kind == "answer":
                    _, query, trace = message
                    outcome, spans = _run_traced(
                        trace, "worker.answer", index, lambda: exchange.answer(query)
                    )
                    reply_ok(outcome.answers, spans)
                elif kind == "facts":
                    reply_ok(tuple(exchange.target.facts()))
                else:  # pragma: no cover - protocol mismatch guard
                    conn.send(("fatal", f"unknown message kind {kind!r}", None, None))
            except ServingError as exc:
                # The exchange rolled itself back; the scenario is intact.
                conn.send(
                    (
                        "error",
                        str(exc),
                        _summary(exchange) if exchange is not None else None,
                        None,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - shipped to the parent
                conn.send(("fatal", f"{type(exc).__name__}: {exc}", None, None))
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover - parent gone
        pass
    finally:
        conn.close()


# -- the parent-side proxy ---------------------------------------------------


class ProcessShard:
    """One shard's exchange, hosted in a worker process (see module docstring).

    A plain proxy: every request does one round trip and returns the reply
    or raises :class:`WorkerGone` or :class:`ServingError`.  It proxies the
    surface of the :class:`SlotExchange` it hosts — ``apply_delta``/
    ``answer``/``update_stats``/``source``/``target``/``target_size``/
    ``target_relation_size``/``_target_versions``/``close``, all the sharded
    exchange uses of a slot — so thread- and process-backed shards are
    treated identically: ``answer`` evaluates over the worker's maintained
    target (no front, no core, no cache) and ``apply_delta`` reports the
    touched target facts split by membership.
    """

    def __init__(
        self,
        name: str,
        index: int,
        compiled: CompiledMapping,
        source: Instance,
        max_chase_steps: int | None = None,
    ):
        self.name = name
        self.index = index
        self.compiled = compiled
        # The parent-side mirror of the shard's source slice: advanced only on
        # acknowledged commits, so it is pre-batch-exact whenever the worker
        # dies mid-batch — exactly what the front rebuilds the slot from.
        self.source = source.copy()
        self._io_lock = threading.Lock()
        # The last reply's state summary, and its version and relation-size
        # entries parsed once per reply: the scatter front reads them per query.
        self._summary: Optional[tuple] = None
        self._versions: dict[str, int] = {}
        self._sizes: dict[str, int] = {}

        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_worker_main,
            args=(child, index),
            name=f"shard-worker-{name}",
            daemon=True,
        )
        self._proc.start()
        child.close()
        try:
            self._request(
                (
                    "init",
                    name,
                    compiled.mapping,
                    compiled.target_dependencies,
                    max_chase_steps,
                    self.source.schema,
                    tuple(self.source.facts()),
                )
            )
        except BaseException:
            self.close()
            raise

    # -- the round trip ----------------------------------------------------

    def _request(self, message: tuple) -> Any:
        """One round trip; caches the reply's summary.

        Raises :class:`WorkerGone` on death or internal failure (or a
        closed proxy) and :class:`ServingError` when the worker rejected (and
        rolled back) the request — the two failure classes the callers treat
        differently.
        """
        with self._io_lock:
            conn = self._conn
            if conn is None:
                raise WorkerGone(f"shard worker {self.index} is closed")
            try:
                conn.send(message)
                reply = conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerGone(f"shard worker {self.index} died: {exc}") from exc
        kind, payload, summary, spans = reply
        if kind == "fatal":
            raise WorkerGone(f"shard worker {self.index} failed: {payload}")
        if summary is not None:
            self._summary = summary
            self._versions = dict(summary[0])
            self._sizes = dict(summary[2])
        TRACER.graft(spans)
        if kind == "error":
            raise ServingError(payload)
        return payload

    # -- the SlotExchange surface ------------------------------------------

    def apply_delta(
        self,
        added: Iterable[tuple[str, Iterable[Any]]] = (),
        removed: Iterable[tuple[str, Iterable[Any]]] = (),
    ) -> AppliedDelta:
        applied_added, applied_removed, touched = self._request(
            (
                "apply",
                [(name, tuple(tup)) for name, tup in added],
                [(name, tuple(tup)) for name, tup in removed],
                TRACER.enabled,
            )
        )
        for fact in applied_removed:
            self.source.discard(*fact)
        for fact in applied_added:
            self.source.add(*fact)
        return AppliedDelta(added=applied_added, removed=applied_removed, touched=touched)

    def answer(self, query) -> AnswerOutcome:
        answers = self._request(("answer", query, TRACER.enabled))
        return AnswerOutcome(answers, "monotone", "target", False)

    @property
    def update_stats(self) -> UpdateStats:
        if self._summary is None:
            return UpdateStats()
        return UpdateStats(*self._summary[3])

    @property
    def target_size(self) -> int:
        return self._summary[1] if self._summary is not None else 0

    def target_relation_size(self, name: str) -> int:
        return self._sizes.get(name, 0)

    def _target_versions(self, relations: Iterable[str] | None = None) -> tuple:
        if relations is None:
            return () if self._summary is None else self._summary[0]
        known = self._versions
        return tuple((name, known.get(name, 0)) for name in sorted(set(relations)))

    def _fetch_layers(self) -> Instance:
        """The shard target, fetched per call (the sharded front keeps its
        own merged view; nothing caches here)."""
        instance = Instance(schema=self.compiled.mapping.target)
        for fact in self._request(("facts",)):
            instance.add(*fact)
        return instance

    @property
    def target(self) -> Instance:
        return self._fetch_layers()

    def kill_worker(self) -> None:
        """Hard-kill the worker process (failure drills and demos).

        The next request raises :class:`WorkerGone`; nothing is lost because
        the source mirror only ever reflects acknowledged commits.
        """
        if self._proc is not None and self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=2.0)

    def close(self) -> None:
        """Stop the worker process (idempotent).  Later requests raise
        :class:`WorkerGone`."""
        proc, conn = self._proc, self._conn
        self._proc = None
        self._conn = None
        if conn is not None:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
            conn.close()
        if proc is not None:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessShard({self.name!r}, index={self.index})"
