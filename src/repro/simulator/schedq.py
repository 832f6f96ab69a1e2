"""The DES engine's event queue: :class:`BinaryHeapQueue`.

The engine keeps every runnable rank in a priority queue keyed by its local
virtual clock and always serves the globally minimal one; the sharded
executor's gate replay queues (:mod:`repro.simulator.parallel.shard`) use
the same queue for canonical-order mailbox replay.

**The exact-order contract.**  Entries are tuples whose first element is a
non-negative float timestamp; the *service order is the full lexicographic
tuple order*.  The engine feeds ``(clock, token, pid)`` with globally unique
monotone tokens, and the gate replay queues feed
``(time, pid, op_index, tie, ...)`` with a unique ``tie``, so comparisons
never reach non-comparable payload and the simulated execution (and
therefore ``run_fingerprint`` and the canonical report sha) is fully
determined.

**Lazy staleness.**  The engine re-pushes a proc every time it wakes, so
the queue accumulates superseded entries.  Instead of the caller peeking
past them, the queue takes a ``live`` predicate at construction and prunes
dead entries as they surface during :meth:`~BinaryHeapQueue.pop`,
:meth:`~BinaryHeapQueue.peek` and :meth:`~BinaryHeapQueue.min_time`.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterator

__all__ = ["BinaryHeapQueue"]

_INF = float("inf")


class BinaryHeapQueue:
    """A ``heapq`` min-heap with lazy staleness.

    ``live`` (optional) marks entries that are still meaningful; entries
    failing it are dropped whenever they surface at the top of the heap.
    """

    __slots__ = ("_heap", "_live")

    def __init__(self, live: Callable[[tuple], bool] | None = None) -> None:
        self._heap: list[tuple] = []
        self._live = live

    def push(self, entry: tuple) -> None:
        heapq.heappush(self._heap, entry)

    def pop(self, horizon: float | None = None) -> tuple | None:
        """Remove and return the minimal live entry.

        Returns None when no live entry exists, or when the minimal live
        entry's timestamp is ``>= horizon`` (the entry then stays queued —
        the windowed-drain contract).
        """
        heap = self._heap
        live = self._live
        while heap:
            entry = heap[0]
            if live is not None and not live(entry):
                heapq.heappop(heap)
                continue
            if horizon is not None and entry[0] >= horizon:
                return None
            heapq.heappop(heap)
            return entry
        return None

    def peek(self) -> tuple | None:
        """The minimal live entry without removing it (None when empty)."""
        heap = self._heap
        live = self._live
        while heap:
            entry = heap[0]
            if live is None or live(entry):
                return entry
            heapq.heappop(heap)
        return None

    def min_time(self) -> float:
        """Timestamp of the minimal live entry (``inf`` when none)."""
        entry = self.peek()
        return _INF if entry is None else entry[0]

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[tuple]:
        """All queued entries, in heap order (stale ones included)."""
        return iter(self._heap)
