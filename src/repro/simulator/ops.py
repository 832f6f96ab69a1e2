"""Operations yielded by the per-process interpreter to the engine.

The interpreter (one Python generator per simulated MPI rank) never touches
the clock or other ranks directly: it *yields* one of these op records and
the engine decides when the op completes.  Every op carries the PSG vertex
id it executes under (``vid``) and the source location, which is how runtime
behaviour is attributed back to static structure.

**Ops are immutable once yielded.**  The engine only ever reads them, which
is what lets the interpreter *reuse* one slotted instance per call site
when rank-static memoization proves every argument fixed for the rank (see
``Interpreter._op_cache``) — the hot loop then pays zero dataclass
construction for loop-invariant MPI/compute statements.  Keep it that way:
a handler that needs per-execution state must keep it on the ``_Proc`` or
in its own records, never on the op.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.minilang.ast_nodes import MpiOp
from repro.minilang.errors import SourceLocation
from repro.simulator.costmodel import Workload

__all__ = [
    "Op",
    "ComputeOp",
    "PrecostedComputeOp",
    "SendOp",
    "PrecostedSendOp",
    "RecvOp",
    "DevirtRecvOp",
    "WaitOp",
    "WaitAllOp",
    "CollectiveOp",
    "IndirectCallNote",
    "ANY",
]

#: Wildcard marker for source/tag (MPI_ANY_SOURCE / MPI_ANY_TAG).
ANY = object()


@dataclass(slots=True)
class Op:
    vid: int
    location: SourceLocation


@dataclass(slots=True)
class ComputeOp(Op):
    workload: Workload


@dataclass(slots=True)
class PrecostedComputeOp(ComputeOp):
    """A compute op whose cost-model query was hoisted to build time.

    Class batching (``repro.simulator.classbatch``) evaluates
    ``CostModel.compute_cost`` once per distinct workload per class — the
    cost is rank-independent whenever per-execution noise is off, which
    the template build checks — and bakes the result into the template
    (a column over the members where the workload varies), so the
    engine's compute handler skips the per-event ``(pid, workload)`` cache
    probe entirely.
    Bit-identical to handling the plain :class:`ComputeOp` (gated by the
    per-rank oracle sweep).
    """

    duration: float = 0.0
    ins: float = 0.0
    cyc: float = 0.0
    lst: float = 0.0
    dcm: float = 0.0


@dataclass(slots=True)
class SendOp(Op):
    dest: int
    tag: int
    nbytes: int
    mpi_op: MpiOp = MpiOp.SEND
    blocking: bool = True
    request: str | None = None  # isend


@dataclass(slots=True)
class PrecostedSendOp(SendOp):
    """A send whose network-cost queries were hoisted to build time.

    ``overhead`` and ``transfer`` are pure functions of the (fixed)
    network model and the byte count, so class batching
    (``repro.simulator.classbatch``) bakes them into the template (once
    per distinct byte count) and the engine's send handler skips both
    cost-model calls per event.
    Bit-identical to handling the plain :class:`SendOp`.
    """

    overhead: float = 0.0
    transfer: float = 0.0
    op_code: int = -1  # baked MPI_OP_CODES[mpi_op] for the trace row


@dataclass(slots=True)
class RecvOp(Op):
    src: object  # int rank or ANY
    tag: object  # int or ANY
    mpi_op: MpiOp = MpiOp.RECV
    blocking: bool = True
    request: str | None = None  # irecv


@dataclass(slots=True)
class DevirtRecvOp(RecvOp):
    """A wildcard receive rewritten to its proven-unique concrete source.

    Produced by the engine's wildcard devirtualization pass (see
    :mod:`repro.analysis.matchorder`): when the static match-order
    analysis proves exactly one sender rank can ever match an
    ``ANY``-source receive, the receive is re-issued with that concrete
    ``src``.  The distinct type keeps the rewrite observable: trace rows
    still record the wildcard sentinel (the program *wrote* ``ANY``) and
    the engine counts devirtualizations — bit-identical to the
    undevirtualized path, which the proof guarantees and the identity
    sweep gates.
    """


@dataclass(slots=True)
class WaitOp(Op):
    request: str


@dataclass(slots=True)
class WaitAllOp(Op):
    pass


@dataclass(slots=True)
class CollectiveOp(Op):
    mpi_op: MpiOp = MpiOp.BARRIER
    root: int = 0
    nbytes: int = 0


@dataclass(slots=True)
class IndirectCallNote(Op):
    """Not a blocking op: tells the runtime layer that an indirect call site
    resolved to ``target`` (paper §III-B3).  The engine forwards it to hooks
    and resumes the process immediately at zero cost."""

    stmt_id: int = -1
    inline_path: tuple[int, ...] = ()
    target: str = ""
