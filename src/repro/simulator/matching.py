"""MPI point-to-point message matching.

Implements the matching semantics the analyses depend on:

* messages from the same sender to the same receiver are matched in posting
  order (MPI's non-overtaking rule),
* receives match in their own posting order against the earliest eligible
  pending message,
* ``ANY`` wildcards on source and/or tag match anything (and the actual
  source/tag are observable afterwards, mirroring ``status.MPI_SOURCE`` /
  ``status.MPI_TAG`` in Fig. 5 of the paper).

The engine owns the clock; this module is pure bookkeeping, which makes it
easy to property-test (FIFO per channel, no lost or duplicated messages).

**Data structure.**  The mailbox used to keep one flat list per side and
scan it linearly on every ``deliver``/``post_recv`` — O(outstanding) per
call, which dominated matching cost at high rank counts.  Both sides are
now hash-bucketed:

* pending messages bucket by their concrete ``(src, tag)``,
* posted receives bucket by their *declared* ``(src-or-ANY, tag-or-ANY)``,

so the fully-specified fast path (the overwhelmingly common case) is a
single dict probe + deque head.  Wildcards fall back to a bounded candidate
scan: a message can only match four posted-recv buckets — ``(src, tag)``,
``(src, ANY)``, ``(ANY, tag)``, ``(ANY, ANY)`` — and a wildcard receive
scans bucket *heads* only (FIFO inside a bucket means no deeper entry can
win).  Every insertion carries a mailbox-local monotone stamp so the
earliest-inserted-wins semantics of the old linear scan are reproduced
exactly: the minimum stamp over candidate bucket heads is the element the
old code would have found first.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from collections.abc import Iterator

from repro.simulator.ops import ANY

__all__ = ["Message", "PostedRecv", "Mailbox", "Match"]

_msg_counter = itertools.count()
_recv_counter = itertools.count()


@dataclass(slots=True)
class Message:
    """An in-flight (posted but unmatched) message."""

    src: int
    dest: int
    tag: int
    nbytes: int
    send_time: float
    arrival: float
    send_vid: int
    seq: int = field(default_factory=_msg_counter.__next__)


@dataclass(slots=True)
class PostedRecv:
    """A posted (blocking or non-blocking) receive awaiting a message."""

    rank: int
    src: object  # int or ANY
    tag: object  # int or ANY
    post_time: float
    recv_vid: int
    #: None for a blocking recv; request name for irecv.
    request: str | None = None
    seq: int = field(default_factory=_recv_counter.__next__)
    #: True when the program wrote ``src = ANY`` but the receive was
    #: devirtualized to a proven-unique concrete source (see
    #: :class:`repro.simulator.ops.DevirtRecvOp`).  Matching uses the
    #: concrete ``src``; trace recording still emits the wildcard
    #: sentinel so devirtualized runs stay bit-identical.
    wild_src: bool = False

    def accepts(self, msg: Message) -> bool:
        if self.src is not ANY and self.src != msg.src:
            return False
        if self.tag is not ANY and self.tag != msg.tag:
            return False
        return True


@dataclass(slots=True)
class Match:
    message: Message
    recv: PostedRecv

    @property
    def ready_time(self) -> float:
        """Earliest time the receive could complete."""
        return max(self.message.arrival, self.recv.post_time)


class Mailbox:
    """Pending messages and posted receives of one destination rank."""

    __slots__ = ("rank", "_pending", "_posted", "_stamp", "_pending_count",
                 "_posted_count", "_wild_posted")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        #: (src, tag) -> deque of (stamp, Message), FIFO in insertion order
        self._pending: dict[tuple[int, int], deque] = {}
        #: (src|ANY, tag|ANY) -> deque of (stamp, PostedRecv)
        self._posted: dict[tuple[object, object], deque] = {}
        self._stamp = 0
        self._pending_count = 0
        self._posted_count = 0
        #: posted receives whose key has a wildcard src or tag — while
        #: zero (the common case) deliver() probes one bucket, not four
        self._wild_posted = 0

    # -- the two entry points -------------------------------------------

    def deliver(self, msg: Message) -> Match | None:
        """A send was posted toward this rank.  Returns a match if some
        already-posted receive accepts it (earliest-posted wins)."""
        if msg.dest != self.rank:
            raise ValueError(f"message for rank {msg.dest} delivered to {self.rank}")
        if self._posted_count:
            posted = self._posted
            if not self._wild_posted:
                # No wildcard receives posted: only the fully-addressed
                # bucket can match — one probe instead of a four-key scan.
                key = (msg.src, msg.tag)
                bucket = posted.get(key)
                if bucket:
                    _, recv = bucket.popleft()
                    if not bucket:
                        del posted[key]
                    self._posted_count -= 1
                    return Match(message=msg, recv=recv)
            else:
                best_key = None
                best_stamp = -1
                # A message can only match these four declared-recv buckets.
                for key in (
                    (msg.src, msg.tag),
                    (msg.src, ANY),
                    (ANY, msg.tag),
                    (ANY, ANY),
                ):
                    bucket = posted.get(key)
                    if bucket:
                        stamp = bucket[0][0]
                        if best_key is None or stamp < best_stamp:
                            best_key, best_stamp = key, stamp
                if best_key is not None:
                    bucket = posted[best_key]
                    _, recv = bucket.popleft()
                    if not bucket:
                        del posted[best_key]
                    self._posted_count -= 1
                    if best_key[0] is ANY or best_key[1] is ANY:
                        self._wild_posted -= 1
                    return Match(message=msg, recv=recv)
        pkey = (msg.src, msg.tag)
        bucket = self._pending.get(pkey)
        if bucket is None:
            bucket = self._pending[pkey] = deque()
        self._stamp = stamp = self._stamp + 1
        bucket.append((stamp, msg))
        self._pending_count += 1
        return None

    def post_recv(self, recv: PostedRecv) -> Match | None:
        """A receive was posted.  Returns a match against the earliest
        eligible pending message, if any."""
        if recv.rank != self.rank:
            raise ValueError(f"recv of rank {recv.rank} posted to mailbox {self.rank}")
        src, tag = recv.src, recv.tag
        if src is not ANY and tag is not ANY:
            # fast path: a fully-addressed recv matches one bucket's head
            pkey = (src, tag)
            bucket = self._pending.get(pkey)
            if bucket:
                _, msg = bucket.popleft()
                if not bucket:
                    del self._pending[pkey]
                self._pending_count -= 1
                return Match(message=msg, recv=recv)
        elif self._pending_count:
            best = self._min_pending(recv)
            if best is not None:
                return Match(message=best, recv=recv)
        key = (src, tag)
        bucket = self._posted.get(key)
        if bucket is None:
            bucket = self._posted[key] = deque()
        self._stamp = stamp = self._stamp + 1
        bucket.append((stamp, recv))
        self._posted_count += 1
        if src is ANY or tag is ANY:
            self._wild_posted += 1
        return None

    def _min_pending(self, recv: PostedRecv) -> Message | None:
        """Pop and return the earliest-inserted pending message a wildcard
        ``recv`` accepts, or None.  Only bucket heads can win: buckets are
        FIFO and a recv is either eligible for a whole ``(src, tag)``
        bucket or for none of it."""
        pending = self._pending
        src, tag = recv.src, recv.tag
        keys: Iterator
        if src is not ANY:
            keys = (k for k in pending if k[0] == src)
        elif tag is not ANY:
            keys = (k for k in pending if k[1] == tag)
        else:
            keys = iter(list(pending))
        best_key = None
        best_stamp = -1
        for k in keys:
            bucket = pending.get(k)
            if bucket:
                stamp = bucket[0][0]
                if best_key is None or stamp < best_stamp:
                    best_key, best_stamp = k, stamp
        if best_key is None:
            return None
        bucket = pending[best_key]
        _, msg = bucket.popleft()
        if not bucket:
            del pending[best_key]
        self._pending_count -= 1
        return msg

    # -- introspection ----------------------------------------------------

    def outstanding(self) -> tuple[int, int]:
        """(pending messages, posted receives) — both non-zero only
        transiently inside an engine step."""
        return self._pending_count, self._posted_count

    def pending_messages(self) -> list[Message]:
        """All pending messages in insertion order (diagnostics only)."""
        entries = [e for bucket in self._pending.values() for e in bucket]
        entries.sort(key=lambda e: e[0])
        return [m for _stamp, m in entries]
