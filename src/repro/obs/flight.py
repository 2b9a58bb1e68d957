"""A bounded flight recorder for rare-path serving events.

Worker deaths, shard rollbacks and rebuilds, reshards and egd-forced
replays are individually rare but collectively the whole story of a
production incident.  The recorder is a fixed-size ring (old events
fall off the back) and is *always on* — every recorded event sits on a
failure/recovery path, never on the per-query or per-probe hot paths,
so there is nothing to gate.

Events carry a wall-clock stamp, a kind (``worker_failure``,
``shard_rollback``, ``shard_rebuild``, ``egd_replay``, ...), the scenario they
belong to when known, and free-form detail.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class FlightEvent:
    """One recorded rare-path event."""

    wall: float
    kind: str
    scenario: str | None
    detail: dict[str, Any] = field(default_factory=dict)
    #: Recorder-assigned monotonic sequence number (1-based).  Survives
    #: ring eviction and ``clear()`` so ``events(since_seq=)`` cursors
    #: held by long-lived consumers never see a number reused.
    seq: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "wall": self.wall,
            "kind": self.kind,
            "scenario": self.scenario,
            "seq": self.seq,
            "detail": {key: repr(value) for key, value in sorted(self.detail.items())},
        }


class FlightRecorder:
    """Mutex-guarded ring buffer of :class:`FlightEvent`."""

    def __init__(self, capacity: int = 256):
        self._mutex = threading.Lock()
        self._events: deque[FlightEvent] = deque(maxlen=capacity)
        self._seq = 0

    def record(self, kind: str, scenario: str | None = None, **detail: Any) -> FlightEvent:
        with self._mutex:
            self._seq += 1
            event = FlightEvent(time.time(), kind, scenario, detail, self._seq)
            self._events.append(event)
        return event

    def events(
        self,
        kind: str | None = None,
        scenario: str | None = None,
        since_seq: int | None = None,
    ) -> list[FlightEvent]:
        """Recorded events oldest-first, optionally filtered.

        ``since_seq`` drains incrementally: only events with a sequence
        number strictly greater than the cursor are returned, so a
        consumer can feed the last seen ``seq`` back in and never
        re-read the ring (events evicted before the cursor caught up
        are lost — the ring is bounded by design).
        """
        with self._mutex:
            events = list(self._events)
        if since_seq is not None:
            events = [event for event in events if event.seq > since_seq]
        if kind is not None:
            events = [event for event in events if event.kind == kind]
        if scenario is not None:
            events = [event for event in events if event.scenario == scenario]
        return events

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently recorded event (0 if none)."""
        with self._mutex:
            return self._seq

    def clear(self) -> None:
        """Drop buffered events.  Sequence numbering keeps advancing."""
        with self._mutex:
            self._events.clear()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._events)


#: The process-wide recorder the serving layers report into.
FLIGHT_RECORDER = FlightRecorder()
