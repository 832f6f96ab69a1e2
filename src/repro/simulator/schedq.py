"""The DES engine's event queue: :class:`BinaryHeapQueue`.

The engine keeps every runnable rank in a priority queue keyed by its local
virtual clock and always serves the globally minimal one.

**The exact-order contract.**  Entries are tuples whose first element is a
non-negative float timestamp; the *service order is the full lexicographic
tuple order*.  The engine feeds ``(clock, token, pid)`` with globally unique
monotone tokens, so comparisons never reach the pid and the simulated
execution (and therefore ``run_fingerprint`` and the canonical report sha)
is fully determined.

**Lazy staleness.**  The engine re-pushes a proc every time it wakes, so
the queue accumulates superseded entries.  Instead of the caller peeking
past them, the queue takes a ``live`` predicate at construction and prunes
dead entries as they surface during :meth:`~BinaryHeapQueue.pop`.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterator

__all__ = ["BinaryHeapQueue"]


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

    def pop(self, bound: float | None = None) -> tuple | None:
        """Remove and return the minimal live entry.

        Returns None when no live entry exists, or when the minimal live
        entry's timestamp is ``>= bound`` (the entry then stays queued —
        the engine's anti-churn check pops only ranks strictly earlier
        than the one it is stepping).
        """
        heap = self._heap
        live = self._live
        while heap:
            entry = heap[0]
            if live is not None and not live(entry):
                heapq.heappop(heap)
                continue
            if bound is not None and entry[0] >= bound:
                return None
            heapq.heappop(heap)
            return entry
        return None

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[tuple]:
        """All queued entries, in heap order (stale ones included)."""
        return iter(self._heap)
