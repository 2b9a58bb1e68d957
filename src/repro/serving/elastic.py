"""Elastic sharding: epoch-versioned routing, live reshard plans, rebalancing.

This module owns the *mutable* half of the sharded serving tier — everything
that PR 5 fixed at registration time and production traffic wants to change
live:

* :class:`RoutingTable` — the immutable, epoch-stamped bucket → worker-shard
  assignment.  Keys hash into ``workers × 16`` buckets (so the initial
  table routes exactly like the PR 5 ``hash(key) % workers`` layout) and a
  reshard reassigns whole buckets; the epoch is bumped on every publish, and
  it is folded into the composed version vectors, so any cache entry or
  merged view built under the old routing stales itself.
* :class:`EpochRouter` — the one holder of the live table.  The raw table
  attribute is private to this module (``tools/lint_repro.py`` enforces it:
  every read outside ``repro.serving.elastic`` goes through
  :meth:`EpochRouter.snapshot` / ``ShardedExchange.routing_snapshot``), so
  readers can only ever obtain one immutable epoch-consistent snapshot —
  never a half-updated view.
* :class:`EpochClock` — the service-global epoch: a monotone counter with
  two-phase publish (``begin_publish`` → apply → ``commit_publish``).
  Commits may settle out of order (transactions on disjoint scenarios run
  concurrently); ``current()`` is the *watermark* — the highest epoch all of
  whose predecessors have settled — so a reader never observes an epoch
  whose earlier publishes are still in flight.
* :class:`Rebalancer` — the split-hot/merge-cold policy: greedy bucket moves
  off the hottest worker onto the coldest, driven by the live per-bucket
  loads plus the :class:`~repro.serving.sharding.ShardingStats` hot-shard
  signal, until the projected imbalance drops under the threshold.
* :func:`plan_reshard` — the one reshard plan: the policy's moves or an
  explicit plan validated against the live table, with the imbalance
  before and after (``_imbalance``, the one formula ``ShardingStats``
  reports too).
* :class:`TopKCounter` — the bounded (space-saving) per-shard partition-key
  histogram ``ShardingStats`` exports: the rebalancer's capacity-debugging
  companion signal.

The reshard *mechanics* (shadow shards, inverse-delta-protected movement,
the O(1) publish window) live on
:class:`~repro.serving.sharding.ShardedExchange` — see
``prepare_reshard``/``commit_reshard``/``abort_reshard`` there; this module
deliberately holds only the plan, the policy and the epoch-versioned state,
so it imports nothing from the sharded data plane.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional

from repro.serving.materialized import ServingError

__all__ = [
    "DEFAULT_BUCKETS_PER_WORKER",
    "EpochClock",
    "EpochRouter",
    "PendingReshard",
    "RebalanceReport",
    "Rebalancer",
    "ReshardMove",
    "RoutingTable",
    "TopKCounter",
    "bucket_of_value",
    "project_worker_loads",
]

#: Buckets per worker shard in the initial routing table.  A multiple of the
#: worker count makes ``bucket % workers`` collapse to ``hash % workers`` —
#: the exact PR 5 layout — so registering elastically changes nothing until
#: the first reshard.
DEFAULT_BUCKETS_PER_WORKER = 16


def bucket_of_value(value: Any, buckets: int) -> int:
    """The hash bucket of a partition-key value.

    The one hashing rule of the whole partition layer (every fact reaches
    its shard through :meth:`RoutingTable.worker_of_value`): routing
    must agree with Python ``==`` — the equality the joins and the chase
    use — or equal-but-distinctly-spelled keys (``1`` vs ``1.0`` vs
    ``True``) would land in different buckets and a key-join trigger
    spanning them would silently never fire.  Strings/bytes hash by CRC32
    (equality-compatible *and* stable across worker processes, where
    ``hash()`` is salted); everything else by ``hash()``, which CPython
    keeps equality-compatible across the numeric tower and unsalted for
    numbers.
    """
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8", "surrogatepass")) % buckets
    if isinstance(value, bytes):
        return zlib.crc32(value) % buckets
    return hash(value) % buckets


@dataclass(frozen=True)
class RoutingTable:
    """One immutable epoch of the bucket → worker-shard assignment."""

    epoch: int
    workers: int
    assignment: tuple[int, ...]  # bucket index -> worker shard index

    @property
    def buckets(self) -> int:
        return len(self.assignment)

    @staticmethod
    def initial(
        workers: int, buckets_per_worker: int = DEFAULT_BUCKETS_PER_WORKER
    ) -> "RoutingTable":
        """Epoch 0: bucket ``b`` → worker ``b % workers`` (the PR 5 layout)."""
        if workers < 1:
            raise ValueError("a routing table needs at least one worker shard")
        if buckets_per_worker < 1:
            raise ValueError("a routing table needs at least one bucket per worker")
        count = workers * buckets_per_worker
        return RoutingTable(0, workers, tuple(b % workers for b in range(count)))

    def bucket_of(self, value: Any) -> int:
        return bucket_of_value(value, len(self.assignment))

    def worker_of_bucket(self, bucket: int) -> int:
        return self.assignment[bucket]

    def worker_of_value(self, value: Any) -> int:
        """The worker shard owning ``value`` — the per-fact routing hot path."""
        return self.assignment[bucket_of_value(value, len(self.assignment))]

    def owned(self, worker: int) -> tuple[int, ...]:
        """The buckets currently assigned to one worker shard."""
        return tuple(b for b, w in enumerate(self.assignment) if w == worker)

    def reassign(self, moves: Mapping[int, int]) -> "RoutingTable":
        """The next-epoch table with ``moves`` (bucket → new worker) applied."""
        assignment = list(self.assignment)
        for bucket, worker in moves.items():
            if not 0 <= bucket < len(assignment):
                raise ValueError(
                    f"bucket {bucket} out of range (table has {len(assignment)})"
                )
            if not 0 <= worker < self.workers:
                raise ValueError(
                    f"worker {worker} out of range (table has {self.workers} workers)"
                )
            assignment[bucket] = worker
        return RoutingTable(self.epoch + 1, self.workers, tuple(assignment))


class EpochRouter:
    """The single holder of a sharded exchange's live routing table.

    Reads return the current immutable :class:`RoutingTable` *snapshot*;
    publishes swap the whole table at the next epoch in one reference
    assignment (atomic under the GIL), so a concurrent reader sees either
    the old epoch or the new one, never a mix.  The raw ``_table``
    attribute must not be read outside this module — the ``routing-table``
    rule in ``tools/lint_repro.py`` keeps every other layer on
    :meth:`snapshot`.
    """

    __slots__ = ("_table",)

    def __init__(self, table: RoutingTable):
        self._table = table

    def snapshot(self) -> RoutingTable:
        """The current epoch-consistent routing table (immutable)."""
        return self._table

    def publish(self, table: RoutingTable) -> RoutingTable:
        """Swap in the next epoch's table; epochs must advance monotonically."""
        current = self._table
        if table.epoch <= current.epoch:
            raise ValueError(
                f"routing epoch must advance: {current.epoch} -> {table.epoch}"
            )
        if table.workers != current.workers or table.buckets != current.buckets:
            raise ValueError("a publish may reassign buckets, not reshape the table")
        self._table = table
        return table


@dataclass(frozen=True)
class ReshardMove:
    """One bucket relocation: ``bucket`` leaves ``donor`` for ``recipient``."""

    bucket: int
    donor: int
    recipient: int


class StaleReshard(ServingError):
    """A prepared reshard whose exchange committed a batch since the
    prepare: publishing its shadows would lose that batch, so the commit
    discarded them and the caller re-plans against the new state."""


@dataclass
class PendingReshard:
    """A prepared-but-unpublished reshard (phase one's hand-off to phase two).

    ``shadows`` maps affected shard indexes to their fully materialized
    shadow backends (donor minus the moved facts, recipient plus them —
    each movement applied through the inverse-delta-protected
    ``apply_delta``); ``batch_epoch`` pins the update-batch count the
    shadows were built against, so a commit can detect a writer that
    slipped in between the phases and refuse to publish a lost update.
    """

    table: RoutingTable
    moves: tuple[ReshardMove, ...]
    shadows: dict[int, Any]
    batch_epoch: int
    moved_facts: int
    moved_keys: int
    prepare_seconds: float = 0.0
    # Filled in by a successful commit: the exclusive reader-visible window.
    publish_seconds: float = 0.0

    @property
    def donors(self) -> tuple[int, ...]:
        return tuple(sorted({move.donor for move in self.moves}))

    @property
    def recipients(self) -> tuple[int, ...]:
        return tuple(sorted({move.recipient for move in self.moves}))


class EpochClock:
    """The service-global epoch: monotone counter plus two-phase publish.

    ``begin_publish`` issues the next epoch (phase one);
    ``commit_publish``/``abort_publish`` settle it (phase two).  Because
    transactions on disjoint scenarios commit concurrently, epochs may
    settle out of order; :meth:`current` reports the *watermark* — the
    highest epoch with every predecessor settled — so a reader can never
    observe an epoch whose earlier publishes are still mid-flight, and the
    epoch a query reports is consistent with the data its read lock
    guarded.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._issued = 0
        self._published = 0
        self._settled: set[int] = set()

    def begin_publish(self) -> int:
        """Issue the next epoch; the caller must settle it exactly once."""
        with self._mutex:
            self._issued += 1
            return self._issued

    def _settle(self, token: int) -> None:
        with self._mutex:
            if not 0 < token <= self._issued:
                raise ValueError(f"epoch token {token} was never issued")
            if token <= self._published or token in self._settled:
                raise ValueError(f"epoch token {token} already settled")
            self._settled.add(token)
            while self._published + 1 in self._settled:
                self._settled.remove(self._published + 1)
                self._published += 1

    def commit_publish(self, token: int) -> None:
        """Settle a successful publish; advances the watermark when contiguous."""
        self._settle(token)

    def abort_publish(self, token: int) -> None:
        """Settle a failed publish (no state changed; the epoch just passes)."""
        self._settle(token)

    def current(self) -> int:
        """The watermark epoch every settled publish up to it contributed to."""
        with self._mutex:
            return self._published


class TopKCounter:
    """A bounded top-K frequency counter (the *space-saving* sketch).

    At most ``capacity`` keys are tracked; when a new key arrives at a full
    sketch, the minimum-count entry is evicted and the newcomer inherits
    its count plus one — the classic overestimate that keeps genuinely hot
    keys in the sketch while bounding memory.  Counts are therefore upper
    bounds, exact while fewer than ``capacity`` distinct keys were seen.
    """

    __slots__ = ("capacity", "_counts")

    def __init__(self, capacity: int = 16):
        if capacity < 1:
            raise ValueError("a top-K counter needs capacity >= 1")
        self.capacity = capacity
        self._counts: dict[Any, int] = {}

    def add(self, key: Any, count: int = 1) -> None:
        counts = self._counts
        if key in counts:
            counts[key] += count
        elif len(counts) < self.capacity:
            counts[key] = count
        else:
            victim = min(counts, key=lambda k: counts[k])
            floor = counts.pop(victim)
            counts[key] = floor + count

    def top(self) -> tuple[tuple[Any, int], ...]:
        """``(key, count)`` pairs, hottest first (ties broken by repr)."""
        return tuple(
            sorted(self._counts.items(), key=lambda item: (-item[1], repr(item[0])))
        )

    def __len__(self) -> int:
        return len(self._counts)


def project_worker_loads(
    loads: Mapping[int, int], table: RoutingTable
) -> tuple[int, ...]:
    """Per-worker fact loads under ``table`` given per-bucket ``loads``."""
    workers = [0] * table.workers
    for bucket, count in loads.items():
        workers[table.worker_of_bucket(bucket)] += count
    return tuple(workers)


def _imbalance(worker_loads: Iterable[int]) -> float:
    sizes = list(worker_loads)
    mean = sum(sizes) / len(sizes) if sizes else 0.0
    return (max(sizes) / mean) if mean else 0.0


@dataclass(frozen=True)
class RebalanceReport:
    """What a (dry-run or applied) rebalance did, in one structured record.

    ``routing_epoch`` is the epoch the plan was computed against;
    ``epoch_after`` is the published epoch when ``applied`` (``None`` on a
    dry run).  ``publish_seconds`` is the reader-visible window — the time
    the exclusive swap took, *not* the shadow build, which ran while
    readers kept being served.
    """

    scenario: str
    moves: tuple[ReshardMove, ...]
    applied: bool
    routing_epoch: int
    imbalance_before: float
    imbalance_projected: float
    epoch_after: Optional[int] = None
    moved_facts: int = 0
    moved_keys: int = 0
    prepare_seconds: float = 0.0
    publish_seconds: float = 0.0
    #: Who asked for it: ``"manual"`` for explicit calls, ``"auto:<rule>"``
    #: when the monitor's control loop drove it.
    trigger: str = "manual"


@dataclass
class Rebalancer:
    """The split-hot/merge-cold policy over live per-bucket loads.

    Greedy: while the hottest worker carries more than ``threshold`` times
    the mean load (the :class:`ShardingStats.imbalance` signal), move one
    of its buckets to the coldest worker — preferring the largest bucket
    that still fits in the hot/cold gap, falling back to the hot worker's
    smallest non-empty bucket so progress never overshoots.  ``max_moves``
    bounds a single plan; every worker always keeps at least one bucket
    (merge-cold is the same move read backwards: cold workers absorb
    buckets rather than donating them).
    """

    threshold: float = 1.15
    max_moves: int = 32

    def plan_moves(
        self, table: RoutingTable, loads: Mapping[int, int]
    ) -> tuple[ReshardMove, ...]:
        owned: dict[int, set[int]] = {w: set() for w in range(table.workers)}
        for bucket in range(table.buckets):
            owned[table.worker_of_bucket(bucket)].add(bucket)
        worker_loads = list(project_worker_loads(loads, table))
        mean = sum(worker_loads) / len(worker_loads) if worker_loads else 0.0
        moves: list[ReshardMove] = []
        while len(moves) < self.max_moves and mean:
            hot = max(range(table.workers), key=lambda w: worker_loads[w])
            cold = min(range(table.workers), key=lambda w: worker_loads[w])
            if hot == cold or worker_loads[hot] <= self.threshold * mean:
                break
            gap = worker_loads[hot] - worker_loads[cold]
            movable = [
                bucket
                for bucket in owned[hot]
                if loads.get(bucket, 0) > 0 and len(owned[hot]) > 1
            ]
            if not movable:
                break
            fitting = [bucket for bucket in movable if 2 * loads[bucket] <= gap]
            pick = (
                max(fitting, key=lambda b: (loads[b], -b))
                if fitting
                else min(movable, key=lambda b: (loads[b], b))
            )
            if not fitting and 2 * loads[pick] > 2 * gap:
                break  # even the smallest bucket would overshoot badly
            moves.append(ReshardMove(bucket=pick, donor=hot, recipient=cold))
            owned[hot].remove(pick)
            owned[cold].add(pick)
            worker_loads[hot] -= loads[pick]
            worker_loads[cold] += loads[pick]
        return tuple(moves)


def plan_reshard(
    table: RoutingTable,
    loads: Mapping[int, int],
    moves: Iterable[ReshardMove | tuple[int, int]] | None = None,
) -> tuple[tuple[ReshardMove, ...], float, float]:
    """The reshard plan for ``table``: ``(moves, imbalance before, projected)``.

    With ``moves`` omitted the :class:`Rebalancer` policy proposes them from
    the per-bucket ``loads`` (possibly none).  Explicit moves are
    :class:`ReshardMove` records or bare ``(bucket, recipient)`` pairs,
    validated against ``table``: a move whose claimed donor disagrees with
    the table is a stale plan (computed under an older epoch) and is
    rejected rather than silently rerouted; no-op moves (the recipient
    already owns the bucket) drop out, and an entirely empty plan raises
    :class:`ServingError`.  Both imbalances are ``_imbalance`` of the
    per-worker loads, before and after the moves.
    """
    if moves is None:
        plan = Rebalancer().plan_moves(table, loads)
    else:
        checked: list[ReshardMove] = []
        seen: set[int] = set()
        for move in moves:
            if isinstance(move, ReshardMove):
                bucket, recipient, claimed = move.bucket, move.recipient, move.donor
            else:
                bucket, recipient = move
                claimed = None
            if not 0 <= bucket < table.buckets:
                raise ServingError(
                    f"bucket {bucket} out of range (table has {table.buckets})"
                )
            if not 0 <= recipient < table.workers:
                raise ServingError(
                    f"recipient {recipient} out of range ({table.workers} workers)"
                )
            donor = table.worker_of_bucket(bucket)
            if claimed is not None and claimed != donor:
                raise ServingError(
                    f"bucket {bucket} is owned by worker {donor}, not "
                    f"{claimed} — stale plan (routing epoch {table.epoch})"
                )
            if bucket in seen:
                raise ServingError(f"bucket {bucket} moved twice in one plan")
            seen.add(bucket)
            if donor != recipient:
                checked.append(ReshardMove(bucket, donor, recipient))
        if not checked:
            raise ServingError("a reshard needs at least one effective bucket move")
        plan = tuple(checked)
    before = _imbalance(project_worker_loads(loads, table))
    if not plan:
        return plan, before, before
    after = table.reassign({move.bucket: move.recipient for move in plan})
    return plan, before, _imbalance(project_worker_loads(loads, after))
