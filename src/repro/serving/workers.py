"""Per-shard worker processes: beyond-GIL scatter evaluation.

A :class:`ProcessShard` hosts one shard's
:class:`~repro.serving.materialized.MaterializedExchange` in a dedicated
worker process (``spawn`` start method, so the layout is identical on every
platform and Python version) while presenting the exchange's serving surface
to the parent :class:`~repro.serving.sharding.ShardedExchange`.  CPU-bound
join evaluation — the per-shard trigger matching of ``apply_delta`` and the
per-shard query answering of the scatter route — then runs outside the
parent's GIL, which is what turns the scatter fan-out into a real speedup on
CPU-bound workloads instead of overlapped waiting.

Wire format
-----------
Facts never cross the boundary as pickled tuple sets.  Both directions use
the interned representation of :mod:`repro.relational.interning`:

* the parent owns a :class:`~repro.relational.interning.ValueInterner` (dense
  codes from ``0``); each worker mirrors it, receiving **string-table
  deltas** — the ``(first_code, values)`` slices of constants interned since
  the previous message — ahead of every coded payload;
* facts and query answers travel as **flat int buffers** (``array('q')`` of
  codes) plus ``(relation, arity, count)`` segment descriptors;
* workers allocate constants the parent has never seen (e.g. literal
  constants in STD heads) in a disjoint region at
  ``(index + 1) * WORKER_CODE_STRIDE`` and report them back as sparse table
  deltas riding on each reply;
* null codes are ``NULL_CODE_BASE + ident`` — derivable from the ident on
  both sides, so nulls need *no* table traffic at all.  Workers re-seed
  ``Null._counter`` into a disjoint ident range, so chase nulls minted in
  different processes can never collide.

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
*dies* (killed, crashed, timed out) surfaces as :class:`WorkerGone`, and the
front swaps the slot: :class:`~repro.serving.sharding.ShardedExchange`
replaces the proxy with an in-process exchange built from the proxy's
mirrored source slice — kept pre-batch-exact, it only advances on
acknowledged commits — and retries the call on it.
"""

from __future__ import annotations

import multiprocessing
import threading
from array import array
from itertools import chain
from typing import Any, Callable, Iterable, Optional

from repro.analysis.compiled import CompiledMapping, compile_mapping
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.relational.instance import Instance
from repro.relational.interning import (
    WORKER_CODE_STRIDE,
    ColumnarInstance,
    ValueInterner,
)
from repro.serving.materialized import (
    AnswerOutcome,
    AppliedDelta,
    Fact,
    MaterializedExchange,
    ServingError,
    TouchedFacts,
    UpdateStats,
)

__all__ = ["ProcessShard", "WorkerGone"]

#: Worker ``index`` re-seeds ``Null._counter`` at ``(index + 1) * this`` so
#: chase nulls minted in different processes occupy disjoint ident ranges.
NULL_IDENT_STRIDE = 1 << 34

# Pre-bound instrument handle: bytes of coded fact/answer buffers crossing
# the worker pipe, request plus reply, observed once per round trip on the
# parent side.
_IPC_BUFFER_BYTES = METRICS.histogram(
    "workers.ipc_buffer_bytes",
    "Coded int-buffer bytes shipped per worker round trip",
)


class WorkerGone(Exception):
    """The worker process died, hung past the timeout, or failed internally."""


# -- wire helpers (used on both sides of the pipe) --------------------------


def _encode_facts(
    facts: Iterable[Fact], interner: ValueInterner
) -> tuple[list[tuple[str, int, int]], array]:
    """Facts -> ``(relation, arity, count)`` segments + one flat code buffer."""
    groups: dict[tuple[str, int], list[int]] = {}
    counts: dict[tuple[str, int], int] = {}
    encode = interner.encode
    for relation, tup in facts:
        key = (relation, len(tup))
        codes = groups.get(key)
        if codes is None:
            codes = groups[key] = []
            counts[key] = 0
        codes.extend(map(encode, tup))
        counts[key] += 1
    segments = []
    buffer = array("q")
    for key in sorted(groups):
        relation, arity = key
        segments.append((relation, arity, counts[key]))
        buffer.extend(groups[key])
    return segments, buffer


def _decode_facts(
    segments: list[tuple[str, int, int]], buffer: array, interner: ValueInterner
) -> list[Fact]:
    decode = interner.decode
    facts: list[Fact] = []
    offset = 0
    for relation, arity, count in segments:
        for _ in range(count):
            facts.append(
                (relation, tuple(map(decode, buffer[offset : offset + arity])))
            )
            offset += arity
    return facts


def _buffer_bytes(payload: Any) -> int:
    """Bytes of every ``array`` buffer inside a (nested) message tuple."""
    if isinstance(payload, array):
        return payload.itemsize * len(payload)
    if isinstance(payload, tuple):
        return sum(_buffer_bytes(item) for item in payload)
    return 0


def _register_table(interner: ValueInterner, table: Optional[tuple[int, list]]) -> None:
    if not table:
        return
    first_code, values = table
    for i, value in enumerate(values):
        interner.register(first_code + i, value)


def _drain_extras(
    interner: ValueInterner, reported: int
) -> tuple[int, Optional[tuple[int, list]]]:
    """The dense allocations made since ``reported`` — a reply's table delta."""
    values = interner.constants_slice(reported)
    if not values:
        return reported, None
    return reported + len(values), (interner.base + reported, values)


# -- the worker process ------------------------------------------------------


def _summary(exchange: MaterializedExchange) -> tuple:
    stats = exchange.update_stats
    target = exchange.target
    return (
        tuple(exchange._target_versions()),
        exchange.target_size,
        exchange.core_size,
        tuple(
            sorted(
                (name, len(target.relation(name)))
                for name in target.relation_names()
            )
        ),
        len(exchange.source),
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
    """One shard's server loop: decode, delegate to the exchange, encode."""
    import itertools

    from repro.relational import domain

    # Disjoint ident range: chase nulls minted here can never collide with
    # the parent's or a sibling worker's (null codes derive from idents).
    domain.Null._counter = itertools.count((index + 1) * NULL_IDENT_STRIDE)
    interner = ValueInterner(base=(index + 1) * WORKER_CODE_STRIDE)
    reported = interner.dense_size
    exchange: Optional[MaterializedExchange] = None

    def reply_ok(payload: Any, spans: Optional[tuple] = None) -> None:
        nonlocal reported
        reported, extras = _drain_extras(interner, reported)
        conn.send(("ok", payload, extras, _summary(exchange), spans))

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
                        cache_capacity,
                        table,
                        segments,
                        buffer,
                    ) = message
                    _register_table(interner, table)
                    # The shard's source lives interned/columnar, so the
                    # trigger joins inside apply_delta run over int codes too.
                    source = ColumnarInstance(interner=interner)
                    for relation, tup in _decode_facts(segments, buffer, interner):
                        source.add(relation, tup)
                    exchange = MaterializedExchange(
                        name,
                        compile_mapping(mapping, dependencies),
                        source,
                        max_chase_steps=max_chase_steps,
                        cache_capacity=cache_capacity,
                    )
                    reply_ok(None)
                elif kind == "apply":
                    _, table, add_seg, add_buf, rem_seg, rem_buf, trace = message
                    _register_table(interner, table)
                    applied, spans = _run_traced(
                        trace,
                        "worker.apply_delta",
                        index,
                        lambda: exchange.apply_delta(
                            added=_decode_facts(add_seg, add_buf, interner),
                            removed=_decode_facts(rem_seg, rem_buf, interner),
                        ),
                    )
                    # The touched target facts ride along split by membership
                    # (None when unknown), for the front's merged view.
                    split = exchange.split_touched(applied)
                    reply_ok(
                        (
                            _encode_facts(applied.added, interner),
                            _encode_facts(applied.removed, interner),
                            None
                            if split is None
                            else tuple(_encode_facts(facts, interner) for facts in split),
                        ),
                        spans,
                    )
                elif kind == "answer":
                    _, query, trace = message
                    outcome, spans = _run_traced(
                        trace, "worker.answer", index, lambda: exchange.answer(query)
                    )
                    answers = outcome.answers
                    arity = len(next(iter(answers))) if answers else 0
                    buffer = array("q", map(interner.encode, chain.from_iterable(answers)))
                    reply_ok(
                        (len(answers), arity, buffer, outcome.route, outcome.cached),
                        spans,
                    )
                elif kind == "facts":
                    reply_ok(_encode_facts(exchange.target.facts(), interner))
                else:  # pragma: no cover - protocol mismatch guard
                    conn.send(
                        ("fatal", f"unknown message kind {kind!r}", None, None, None)
                    )
            except ServingError as exc:
                # The exchange rolled itself back; the scenario is intact.
                reported, extras = _drain_extras(interner, reported)
                conn.send(
                    (
                        "error",
                        str(exc),
                        extras,
                        _summary(exchange) if exchange is not None else None,
                        None,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - shipped to the parent
                conn.send(("fatal", f"{type(exc).__name__}: {exc}", None, None, None))
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover - parent gone
        pass
    finally:
        conn.close()


# -- the parent-side proxy ---------------------------------------------------


class ProcessShard:
    """One shard's exchange, hosted in a worker process (see module docstring).

    A plain proxy: every request encodes, does one round trip, decodes, and
    raises :class:`WorkerGone` or :class:`ServingError`.  It duck-types the
    slice of the :class:`MaterializedExchange` surface the sharded exchange
    uses — ``apply_delta``/``split_touched``/``answer``/``update_stats``/
    ``source``/``target``/``target_size``/
    ``target_relation_size``/``core_size``/``_target_versions``/``close`` — so
    :class:`~repro.serving.sharding.ShardedExchange` treats thread- and
    process-backed shards identically.
    """

    def __init__(
        self,
        name: str,
        index: int,
        compiled: CompiledMapping,
        source: Instance,
        interner: ValueInterner,
        max_chase_steps: int | None = None,
        cache_capacity: int | None = None,
        timeout: float | None = None,
    ):
        self.name = name
        self.index = index
        self.compiled = compiled
        # The parent-side mirror of the shard's source slice: advanced only on
        # acknowledged commits, so it is pre-batch-exact whenever the worker
        # dies mid-batch — exactly what the front rebuilds the slot from.
        self.source = source.copy()
        self._interner = interner
        self._watermark = 0  # dense parent constants already shipped
        self._timeout = timeout
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
        segments, buffer = _encode_facts(self.source.facts(), interner)
        try:
            self._request(
                (
                    "init",
                    name,
                    compiled.mapping,
                    compiled.target_dependencies,
                    max_chase_steps,
                    cache_capacity,
                    self._table_delta(),
                    segments,
                    buffer,
                )
            )
        except BaseException:
            self.close()
            raise

    # -- wire plumbing -----------------------------------------------------

    def _table_delta(self) -> Optional[tuple[int, list]]:
        values = self._interner.constants_slice(self._watermark)
        if not values:
            return None
        delta = (self._interner.base + self._watermark, values)
        self._watermark += len(values)
        return delta

    def _request(self, message: tuple) -> Any:
        """One round trip; registers reply extras and caches the summary.

        Raises :class:`WorkerGone` on death/timeout/internal failure (or a
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
                if self._timeout is not None and not conn.poll(self._timeout):
                    raise WorkerGone(
                        f"shard worker {self.index} timed out after {self._timeout}s"
                    )
                reply = conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerGone(f"shard worker {self.index} died: {exc}") from exc
        kind, payload, extras, summary, spans = reply
        if METRICS.enabled:
            _IPC_BUFFER_BYTES.observe(_buffer_bytes(message) + _buffer_bytes(payload))
        if kind == "fatal":
            raise WorkerGone(f"shard worker {self.index} failed: {payload}")
        _register_table(self._interner, extras)
        if summary is not None:
            self._summary = summary
            self._versions = dict(summary[0])
            self._sizes = dict(summary[3])
        TRACER.graft(spans)
        if kind == "error":
            raise ServingError(payload)
        return payload

    # -- the MaterializedExchange surface ----------------------------------

    def apply_delta(
        self,
        added: Iterable[tuple[str, Iterable[Any]]] = (),
        removed: Iterable[tuple[str, Iterable[Any]]] = (),
    ) -> AppliedDelta:
        add_seg, add_buf = _encode_facts(
            [(name, tuple(tup)) for name, tup in added], self._interner
        )
        rem_seg, rem_buf = _encode_facts(
            [(name, tuple(tup)) for name, tup in removed], self._interner
        )
        (applied_add_seg, applied_add_buf), (applied_rem_seg, applied_rem_buf), split = (
            self._request(
                (
                    "apply",
                    self._table_delta(),
                    add_seg,
                    add_buf,
                    rem_seg,
                    rem_buf,
                    TRACER.enabled,
                )
            )
        )
        applied_added = _decode_facts(applied_add_seg, applied_add_buf, self._interner)
        applied_removed = _decode_facts(applied_rem_seg, applied_rem_buf, self._interner)
        for fact in applied_removed:
            self.source.discard(*fact)
        for fact in applied_added:
            self.source.add(*fact)
        return AppliedDelta(
            added=tuple(applied_added),
            removed=tuple(applied_removed),
            touched=None
            if split is None
            else tuple(
                tuple(_decode_facts(segments, buffer, self._interner))
                for segments, buffer in split
            ),
        )

    def split_touched(self, applied: AppliedDelta) -> TouchedFacts:
        """The worker already split the touched facts by membership (see
        :meth:`MaterializedExchange.split_touched`); the reply carried it."""
        return applied.touched

    def answer(self, query) -> AnswerOutcome:
        count, arity, buffer, route, cached = self._request(
            ("answer", query, TRACER.enabled)
        )
        if arity:
            values = list(map(self._interner.decode, buffer))
            answers = frozenset(zip(*[iter(values)] * arity))
        else:  # a boolean query: true ships one empty tuple and no codes
            answers = frozenset([()]) if count else frozenset()
        return AnswerOutcome(answers, "monotone", route, cached)

    @property
    def update_stats(self) -> UpdateStats:
        if self._summary is None:
            return UpdateStats()
        return UpdateStats(*self._summary[5])

    @property
    def target_size(self) -> int:
        return self._summary[1] if self._summary is not None else 0

    def target_relation_size(self, name: str) -> int:
        return self._sizes.get(name, 0)

    @property
    def core_size(self) -> Optional[int]:
        return self._summary[2] if self._summary is not None else None

    def _target_versions(self, relations: Iterable[str] | None = None) -> tuple:
        if relations is None:
            return () if self._summary is None else self._summary[0]
        known = self._versions
        return tuple((name, known.get(name, 0)) for name in sorted(set(relations)))

    def _fetch_layers(self) -> Instance:
        """The decoded shard target, fetched per call (the sharded front
        keeps its own merged view; nothing caches here)."""
        instance = Instance(schema=self.compiled.mapping.target)
        for fact in _decode_facts(*self._request(("facts",)), self._interner):
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
