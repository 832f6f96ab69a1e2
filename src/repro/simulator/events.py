"""Event records produced by a simulation run.

These are the *ground truth* of an execution: every timeline segment, every
matched point-to-point message, every collective instance.  The three
measurement tools are built as different views over this ground truth —
the tracer keeps (a serialization of) all of it, the call-path profiler
keeps sampled aggregates, and ScalAna keeps sampled aggregates *plus*
compressed communication dependence.

**Records are views, not storage.**  The engine does not keep lists of
these dataclasses: ground truth lives in the columnar
:class:`~repro.simulator.trace.TraceBuffer` family — the event table for
:class:`Segment`, the :class:`~repro.simulator.trace.P2PTable` for
:class:`P2PRecord`, the :class:`~repro.simulator.trace.CollectiveTable`
for :class:`CollectiveRecord`.  ``SimulationResult.segments`` /
``.p2p_records`` / ``.collective_records`` are lazy
:class:`~repro.simulator.trace.RowView` sequences that materialize one of
these objects per access; vectorized consumers read the column arrays
directly.  A :class:`CollectiveRecord` also travels by value: the engine
builds one transient instance per completed collective to apply the
per-rank completions before it is appended to the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from repro.minilang.ast_nodes import MpiOp

__all__ = ["SegmentKind", "Segment", "P2PRecord", "CollectiveRecord", "IndirectNote"]


class SegmentKind(IntEnum):
    COMPUTE = 0
    MPI = 1


@dataclass(slots=True)
class Segment:
    """One contiguous span of a rank's timeline attributed to a PSG vertex."""

    rank: int
    vid: int
    kind: SegmentKind
    start: float
    end: float
    #: Portion of the span spent waiting on other ranks (MPI only).
    wait: float = 0.0
    mpi_op: MpiOp | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(slots=True)
class P2PRecord:
    """One matched point-to-point message."""

    send_rank: int
    send_vid: int
    recv_rank: int
    recv_vid: int
    tag: int
    nbytes: int
    send_time: float  # when the send was posted
    arrival: float  # when the payload reached the receiver
    recv_post: float  # when the receive was posted
    completion: float  # when the receiver's (wait-)call returned
    #: Vertex where the receiver actually blocked (recv itself, or the
    #: MPI_Wait/MPI_Waitall completing an irecv).
    wait_vid: int = -1
    wait_time: float = 0.0
    #: Source/tag as *declared* at the receive; None means a wildcard
    #: (MPI_ANY_SOURCE / MPI_ANY_TAG) that must be resolved from status.
    declared_src: int | None = None
    declared_tag: int | None = None

    @property
    def had_wait(self) -> bool:
        """Did the receiver actually wait on this message?  Backtracking
        prunes communication edges without waiting events (paper §IV-B)."""
        return self.wait_time > 0.0


@dataclass(slots=True)
class CollectiveRecord:
    """One completed collective instance (the i-th collective of the run)."""

    index: int
    mpi_op: MpiOp
    root: int
    nbytes: int
    #: Per-rank PSG vertex the collective executed under.  All three dicts
    #: share the instance's arrival-insertion key order, which collective
    #: trace replay depends on.
    vids: dict[int, int]
    arrivals: dict[int, float]
    completions: dict[int, float]
    #: Lazily cached :attr:`op_cost` (``compare=False``: equality between
    #: records must not depend on whether a wait was ever queried).
    cached_op_cost: float | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def op_cost(self) -> float:
        """Intrinsic cost of the operation: the smallest per-participant
        ``completion - arrival`` span (computed once, then cached, so an
        all-ranks ``wait_of`` loop stays O(P) per collective)."""
        cost = self.cached_op_cost
        if cost is None:
            cost = min(
                self.completions[r] - self.arrivals[r] for r in self.arrivals
            )
            self.cached_op_cost = cost
        return cost

    def wait_of(self, rank: int) -> float:
        """Time ``rank`` spent blocked in this collective beyond the
        intrinsic operation cost."""
        return max(
            0.0, (self.completions[rank] - self.arrivals[rank]) - self.op_cost
        )

    @property
    def last_arrival_rank(self) -> int:
        return max(self.arrivals, key=lambda r: (self.arrivals[r], r))


@dataclass(slots=True)
class IndirectNote:
    """Runtime resolution of an indirect call site (paper §III-B3)."""

    rank: int
    stmt_id: int
    inline_path: tuple[int, ...]
    target: str
