"""Streaming progress events: a tiny subscriber bus.

Long-running drivers (``run_scales``, ``sweep``, ``run_lint_scales``)
emit structured progress events so a
caller — the CLI ``--progress`` renderer today, a job server tomorrow —
can watch a run live instead of polling for the final artifact.

Events are plain ``(kind, data)`` records.  The catalog in use:

========================= ==================================================
kind                      data keys
========================= ==================================================
``run_started``           digest, scales
``run_finished``          digest, scales, seconds
``scale_started``         nprocs
``scale_finished``        nprocs, cached, seconds
``cache_hit``             digest, nprocs, hits, misses
``cache_miss``            digest, nprocs, hits, misses
``sweep_started``         apps, scales, cells
``cell_finished``         app, nprocs, cached, done, total
``sweep_finished``        cells, cache_hits, seconds
``lint_scales_started``   lo, hi, status, witnesses
``lint_witness_finished`` nprocs, findings
``lint_scales_finished``  lo, hi, status, findings
========================= ==================================================

The disabled path is one attribute check: ``emit`` returns immediately
when there are no subscribers, so engines and drivers can emit
unconditionally at scale granularity without a config knob.
"""

from __future__ import annotations

import contextlib
import queue as _queue
import threading
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Event", "EventBus"]


@dataclass(frozen=True, slots=True)
class Event:
    kind: str
    data: dict = field(default_factory=dict)


class EventBus:
    """Callback fan-out with an empty-bus fast path.

    Subscribers are plain callables taking one :class:`Event`.  Exceptions
    in a subscriber are swallowed — a broken progress renderer must never
    corrupt an analysis run.
    """

    def __init__(self) -> None:
        self._subs: tuple[Callable[[Event], None], ...] = ()
        self._lock = threading.Lock()

    @property
    def active(self) -> bool:
        return bool(self._subs)

    def subscribe(self, callback: Callable[[Event], None]) -> Callable[[], None]:
        """Register ``callback``; returns an unsubscribe function."""
        with self._lock:
            self._subs = (*self._subs, callback)

        def unsubscribe() -> None:
            with self._lock:
                self._subs = tuple(s for s in self._subs if s is not callback)

        return unsubscribe

    def subscribe_queue(self, maxsize: int = 0) -> tuple["_queue.Queue[Event]", Callable[[], None]]:
        """Subscribe a queue; returns ``(queue, unsubscribe)``.

        Full queues drop events rather than block the producer — progress
        is advisory, analysis is not allowed to stall on a slow consumer.
        """
        q: _queue.Queue[Event] = _queue.Queue(maxsize=maxsize)

        def push(ev: Event) -> None:
            with contextlib.suppress(_queue.Full):
                q.put_nowait(ev)

        return q, self.subscribe(push)

    def emit(self, kind: str, **data: object) -> None:
        subs = self._subs
        if not subs:
            return
        ev = Event(kind, data)
        for cb in subs:
            with contextlib.suppress(Exception):
                cb(ev)
