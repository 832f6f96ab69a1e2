"""Static MPI communication lint over abstract per-rank op streams.

The lint runs **before any timed simulation**: it unrolls every rank's op
stream (compute ops dropped, compilation shared across ranks, bounded by
op/iteration budgets), then replays the streams through an untimed
matching simulation that mirrors the engine's semantics — eager sends,
FIFO-per-channel matching via the real
:class:`~repro.simulator.matching.Mailbox`, collectives matched by
per-rank call order.  Structural rules run over the same streams.

The replay visits ranks in round-robin order, but only the ranks a match
or a collective release woke since their last visit (see
:class:`_Replay`): the visits are those of plain round robin minus the
ones that could not progress, so wildcard receives match exactly as
under plain round robin.  Each class is classified once when it is
collected (one kind code per op): its members' op lists are patched
copies of one template, so they share its kind codes and its
request-hygiene result.

Streams are class-batched: for every behavioural class of two or more
ranks (:func:`~repro.analysis.symmetry.partition_ranks`), the engine's
builder (:func:`~repro.simulator.classbatch.build_batched_streams`)
interprets one representative and fans its stream out to the members,
who share op instances wherever no argument varies with the rank.  A
representative may run at most ``max_ops_per_rank`` loop iterations, so
a runaway loop costs it no more than the op budget costs a per-rank
unroll.  Singleton classes, classes holding a wildcard receive, and
classes the builder refuses or whose representative raised or ran out of
iterations unroll rank by rank through the ordinary per-rank interpreter,
which is the identity oracle; runtime errors and iteration-limit
truncation therefore always come from it.

Rule catalog (stable ids):

=========================  ========  =============================================
rule                       severity  fires when
=========================  ========  =============================================
``unmatched-recv``         error     a receive (or the wait/waitall observing an
                                     irecv) can never complete
``unmatched-send``         warning   a message is sent but no receive ever
                                     consumes it
``tag-mismatch``           error     a send and a starving receive agree on the
                                     channel but disagree on the concrete tag
``root-mismatch``          error     ranks reach the same collective instance
                                     with different roots
``collective-mismatch``    error     ranks reach the same collective instance
                                     with different operations
``collective-divergence``  error     some ranks wait at a collective other ranks
                                     never reach (rank-dependent call counts)
``self-send-deadlock``     error     a blocking send targets the sending rank
                                     with no receive already posted
``send-send-cycle``        warning   a cycle of ranks all issue blocking sends
                                     before their first blocking operation
                                     (deadlocks under rendezvous MPI)
``wildcard-recv``          info      an ANY-source receive has at most one
                                     possible sender (over-broad wildcard), or
                                     the match-order analysis proves its match
                                     deterministic (unique feasible sender per
                                     receiver — safe to devirtualize)
``wildcard-race``          warning   an ANY-source receive has two or more
                                     statically feasible senders whose arrival
                                     order decides the match (see
                                     :mod:`repro.analysis.matchorder`)
``request-leak``           warning   an isend/irecv request is never completed
                                     by a ``wait``/``waitall``
``double-wait``            error     a ``wait`` names a request with nothing
                                     outstanding (never posted, or already
                                     completed); the engine raises at run time
``exec-error``             error     a rank's stream raises a runtime error
                                     (bad rank/tag/workload arguments, ...)
=========================  ========  =============================================

Zero-false-positive stance: everything reported as a *deadlock* is either
wildcard-free (where FIFO matching is deterministic, so the replay is
ground truth) or backed by a counting proof (a maximum bipartite matching
over the full streams shows some receive can never be satisfied under
*any* wildcard resolution).  Wildcard-dependent stalls that some other
matching could resolve are suppressed — the engine still catches them at
simulation time if they are real.
"""

from __future__ import annotations

import enum
import re
from collections import deque
from itertools import compress
from operator import itemgetter
from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping

from repro.minilang import ast_nodes as ast
from repro.minilang.ast_nodes import MpiOp
from repro.minilang.errors import SourceLocation
from repro.psg.graph import PSG
from repro.simulator import ops
from repro.simulator.errors import IterationLimitError, SimulationError
from repro.simulator.interp import Interpreter
from repro.simulator.matching import Mailbox

from repro.analysis.rankdep import analyze_program
from repro.analysis.symmetry import SymmetrySummary, partition_ranks

__all__ = ["Severity", "LintFinding", "LintReport", "LintError", "run_lint"]


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def order(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class LintFinding:
    """One structured lint result, anchored to a source span."""

    rule: str
    severity: Severity
    message: str
    #: primary source span (None only for execution errors whose location
    #: could not be recovered)
    location: SourceLocation | None
    #: other spans involved (the mismatched peer, the starving irecvs, ...)
    related: tuple[SourceLocation, ...] = ()
    #: ranks the finding applies to (empty = program-wide)
    ranks: tuple[int, ...] = ()

    def render(self) -> str:
        where = str(self.location) if self.location is not None else "<program>"
        who = ""
        if self.ranks:
            label = "rank" if len(self.ranks) == 1 else "ranks"
            who = f" [{label} {','.join(map(str, self.ranks))}]"
        out = f"{where}: {self.severity.value}: {self.rule}: {self.message}{who}"
        for loc in self.related:
            out += f"\n    see also: {loc}"
        return out

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "location": str(self.location) if self.location else None,
            "line": self.location.line if self.location else None,
            "column": self.location.column if self.location else None,
            "related": [str(loc) for loc in self.related],
            "ranks": list(self.ranks),
        }


@dataclass
class LintReport:
    """Everything one lint run produced."""

    nprocs: int
    findings: tuple[LintFinding, ...]
    symmetry: SymmetrySummary
    #: True when an op/iteration budget stopped the stream unroll — the
    #: stream-based rules were then skipped (never guessed)
    incomplete: bool = False
    #: ranks whose stream came from a class representative rather than
    #: their own interpreter (engagement counter; not part of the output)
    ranks_batched: int = 0

    @property
    def errors(self) -> tuple[LintFinding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.ERROR)

    @property
    def ok(self) -> bool:
        return not self.errors

    def counts(self) -> dict[str, int]:
        out = {"error": 0, "warning": 0, "info": 0}
        for f in self.findings:
            out[f.severity.value] += 1
        return out

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        counts = self.counts()
        summary = (
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info at {self.nprocs} ranks "
            f"({self.symmetry.n_classes} behavioral class(es)"
            + (", degraded" if self.symmetry.degraded else "")
            + (", incomplete" if self.incomplete else "")
            + ")"
        )
        lines.append(summary)
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "nprocs": self.nprocs,
            "incomplete": self.incomplete,
            "counts": self.counts(),
            "symmetry": {
                "n_classes": self.symmetry.n_classes,
                "classes": [list(c.ranks) for c in self.symmetry.classes],
                "degraded": self.symmetry.degraded,
            },
            "findings": [f.to_json_dict() for f in self.findings],
        }


class LintError(RuntimeError):
    """Raised by fail-fast consumers when a lint run reports errors."""

    def __init__(self, report: LintReport) -> None:
        self.report = report
        first = report.errors[0]
        more = len(report.errors) - 1
        suffix = f" (+{more} more)" if more else ""
        super().__init__(f"static lint failed: {first.render()}{suffix}")


# --------------------------------------------------------------------------
# stream collection
# --------------------------------------------------------------------------

#: Kind codes of the ops the matching replay acts on.  ``_RECV`` is a
#: blocking receive, ``_IRECV`` a nonblocking one.
_SEND, _RECV, _IRECV, _WAIT, _WAITALL, _COLL = range(6)
_BASE_KINDS = (
    (ops.SendOp, _SEND), (ops.RecvOp, _RECV), (ops.WaitOp, _WAIT),
    (ops.WaitAllOp, _WAITALL), (ops.CollectiveOp, _COLL),
)


def _type_kind(op_type: type) -> int | None:
    """The kind code of an op type; None for the types the replay drops
    (compute, call notes)."""
    return next(
        (k for base, k in _BASE_KINDS if issubclass(op_type, base)), None
    )


#: :func:`_type_kind` of every op type the simulator defines
_TYPE_KINDS = {
    t: _type_kind(t) for t in vars(ops).values()
    if isinstance(t, type) and issubclass(t, ops.Op)
}


@dataclass(slots=True)
class _Stream:
    rank: int
    #: the ops the replay acts on, and each one's kind code; the members
    #: of a batched class share the kind codes (never mutated)
    events: list = field(default_factory=list)
    kinds: list[int] = field(default_factory=list)
    #: the stream holds a receive from ANY source
    any_src: bool = False
    error: str | None = None
    error_location: SourceLocation | None = None
    truncated: bool = False


def _unroll(
    stream: _Stream, source: Iterable, max_ops: int,
    positions: list[int] | None = None,
) -> None:
    """Filter and classify ``source`` into ``stream`` in one pass.  More
    than ``max_ops`` kept ops truncate it, and so does the interpreter's
    iteration budget; other interpreter errors land on the stream.
    ``positions``, when given, receives each kept op's index in
    ``source``."""
    events, kinds = stream.events, stream.kinds
    type_kinds = _TYPE_KINDS
    last_loc: SourceLocation | None = None
    try:
        for index, op in enumerate(source):
            last_loc = op.location
            op_type = type(op)
            kind = type_kinds.get(op_type, -1)
            if kind == -1:
                kind = _type_kind(op_type)
            if kind is None:
                continue
            if kind == _RECV:
                if not op.blocking:
                    kind = _IRECV
                if op.src is ops.ANY:
                    stream.any_src = True
            events.append(op)
            kinds.append(kind)
            if positions is not None:
                positions.append(index)
            if len(events) > max_ops:
                stream.truncated = True
                break
    except IterationLimitError:
        stream.truncated = True  # our budget, not the program's bug
    except SimulationError as exc:
        stream.error = str(exc)
        stream.error_location = _location_of(str(exc)) or last_loc


def _batched_streams(
    program: ast.Program,
    psg: PSG,
    nprocs: int,
    params: Mapping[str, object] | None,
    entry: str,
    max_iterations: int,
    symmetry: SymmetrySummary,
    expr_cache: dict,
) -> dict[int, list]:
    """Complete op lists for every rank of a batchable class (see
    :mod:`repro.simulator.classbatch`).  No devirtualization map, so a
    class with a wildcard receive stays per-rank and the wildcard rules
    still see ``ANY``; a class whose representative raised or ran past
    ``max_iterations`` is absent, so errors come from the per-rank path.
    No cost model either: the replay is untimed, so no op is precosted."""
    if symmetry.n_classes == nprocs:
        return {}  # all singletons (also every degraded partition)
    from repro.simulator.classbatch import build_batched_streams

    return build_batched_streams(
        program=program, psg=psg, nprocs=nprocs, params=params,
        entry=entry, max_iterations=max_iterations,
        analysis=symmetry.analysis, summary=symmetry, expr_cache=expr_cache,
        cost=None, precost_compute=False, devirt=None,
    ).streams


def _class_streams(
    members: tuple[int, ...], batched: dict[int, list], max_ops: int
) -> list[_Stream]:
    """The streams of one batched class, classified once.

    The members' op lists are patched copies of the representative's
    (``members[0]``): the same op types at every position, so the same
    kind codes, wildcard flag and truncation.  Each other member keeps
    its own ops at the representative's kept positions; members that
    share the representative's list share its events too."""
    base = batched[members[0]]
    first = _Stream(members[0])
    positions: list[int] = []
    _unroll(first, base, max_ops, positions)
    take = itemgetter(*positions) if len(positions) > 1 else (
        lambda whole: [whole[p] for p in positions]
    )
    out = [first]
    for rank in members[1:]:
        whole = batched[rank]
        out.append(_Stream(
            rank, first.events if whole is base else list(take(whole)),
            first.kinds, first.any_src, truncated=first.truncated,
        ))
    return out


def _collect_streams(
    program: ast.Program,
    psg: PSG,
    nprocs: int,
    params: Mapping[str, object] | None,
    entry: str,
    max_ops_per_rank: int,
    max_iterations: int,
    symmetry: SymmetrySummary,
    expr_cache: dict,
) -> tuple[list[_Stream], int]:
    """Every rank's filtered, classified op stream, plus how many came
    class-batched.  The rest run the per-rank interpreter, which is the
    oracle."""
    # a representative stops at the op budget's worth of loop iterations
    # (a per-rank unroll stops at that many P2P ops); its class then
    # unrolls per rank, which truncates exactly as before
    batched = _batched_streams(
        program, psg, nprocs, params, entry,
        min(max_iterations, max_ops_per_rank), symmetry, expr_cache,
    )
    # a class is batched whole or not at all: classify each batched
    # class once, through its representative
    classified: dict[int, _Stream] = {}
    for cls in symmetry.classes:
        if len(cls.ranks) > 1 and cls.ranks[0] in batched:
            for stream in _class_streams(cls.ranks, batched, max_ops_per_rank):
                classified[stream.rank] = stream
    streams: list[_Stream] = []
    for rank in range(nprocs):
        stream = classified.get(rank)
        if stream is None:
            stream = _Stream(rank)
            _unroll(stream, Interpreter(
                program, psg, rank, nprocs, params,
                max_iterations=max_iterations, entry=entry,
                expr_cache=expr_cache,
            ).run(), max_ops_per_rank)
        streams.append(stream)
    return streams, len(batched)


def _location_of(message: str) -> SourceLocation | None:
    """Recover the ``file:line`` span simulator errors prefix onto their
    message (op-argument failures raise before any op is yielded)."""
    match = re.match(r"^(.+?):(\d+): ", message)
    if match is None:
        return None
    return SourceLocation(filename=match.group(1), line=int(match.group(2)))


# --------------------------------------------------------------------------
# untimed matching replay
# --------------------------------------------------------------------------

_DONE, _RUN, _BLK_RECV, _BLK_WAIT, _BLK_COLL = range(5)


@dataclass(slots=True, eq=False)
class _Msg:
    """An in-flight message: the fields :class:`Mailbox` reads, plus the
    send that carries it."""

    src: int
    dest: int
    tag: int
    op: ops.SendOp


@dataclass(slots=True, eq=False)
class _Recv:
    """A posted receive: the fields :class:`Mailbox` reads, plus the
    receive op.  Hashed by identity, so an unmatched irecv keys its rank's
    ``open_irecvs``."""

    rank: int
    src: object  # int or ANY
    tag: object  # int or ANY
    op: ops.RecvOp
    irecv: bool


class _Replay:
    """Untimed replay of all per-rank streams against the engine's
    matching semantics: eager sends, FIFO channels through the real
    :class:`~repro.simulator.matching.Mailbox`, call-order collectives.

    **Visit order.**  ``run`` makes passes over ranks ``0..P-1`` in
    round-robin order; a visit runs its rank until it blocks or finishes.
    A pass visits only the ranks woken since their last visit, and only
    three events wake a blocked rank:

    * a match that satisfies its blocking receive;
    * a match of one of its irecvs while it waits (the wait may pass);
    * the release of the collective instance it waits at.

    A rank nobody woke cannot progress, so skipping it changes nothing:
    the visits are those of plain round robin minus the no-op ones, and
    the replay ends after a pass that visits no rank.  With wildcards
    the visit order decides which sender a receive matches, so keeping
    it keeps the lint's matching.  A visit still checks its rank's block
    itself; the wakes only spare the visits that would find it shut."""

    def __init__(self, streams: list[_Stream], nprocs: int) -> None:
        self.streams = streams
        self.nprocs = nprocs
        self.pos = [0] * nprocs
        self.state = [_RUN] * nprocs
        #: woken since its last visit (every rank starts awake)
        self.runnable = [True] * nprocs
        self.mailboxes = [Mailbox(r) for r in range(nprocs)]
        #: rank -> request name -> how many of its irecvs are unmatched
        self.outstanding: list[dict[str | None, int]] = [
            {} for _ in range(nprocs)
        ]
        #: rank -> its unmatched irecvs, in posting order
        self.open_irecvs: list[dict[_Recv, ops.RecvOp]] = [
            {} for _ in range(nprocs)
        ]
        #: the blocking receive a _BLK_RECV rank parked on has matched
        self.block_resolved = [False] * nprocs
        self.coll_count = [0] * nprocs
        #: unreleased collective instance -> rank -> op it arrived with
        self.coll_arrivals: dict[int, dict[int, ops.CollectiveOp]] = {}
        self.saw_wildcard = False
        self.self_send_hits: list[tuple[int, ops.SendOp]] = []
        self.coll_findings: list[tuple[str, int, dict[int, ops.CollectiveOp]]] = []

    # -- mechanics ------------------------------------------------------

    def _deliver(self, rank: int, op: ops.SendOp) -> None:
        match = self.mailboxes[op.dest].deliver(_Msg(rank, op.dest, op.tag, op))
        if match is None:
            if op.blocking and op.dest == rank:
                # a blocking send to yourself with nothing posted:
                # guaranteed deadlock under synchronous MPI (our eager
                # engine survives it, real rendezvous protocols do not)
                self.self_send_hits.append((rank, op))
            return
        recv = match.recv
        dest = recv.rank
        if not recv.irecv:
            # only a parked rank has a blocking receive posted
            self.block_resolved[dest] = True
            self.runnable[dest] = True
            return
        del self.open_irecvs[dest][recv]
        pending = self.outstanding[dest]
        request = recv.op.request
        if pending[request] == 1:
            del pending[request]
        else:
            pending[request] -= 1
        if self.state[dest] == _BLK_WAIT:
            self.runnable[dest] = True

    def _post(self, rank: int, op: ops.RecvOp, irecv: bool) -> bool:
        """Post a receive; True when it matched immediately."""
        if op.src is ops.ANY or op.tag is ops.ANY:
            self.saw_wildcard = True
        recv = _Recv(rank, op.src, op.tag, op, irecv)
        if self.mailboxes[rank].post_recv(recv) is not None:
            return True
        if irecv:
            pending = self.outstanding[rank]
            pending[op.request] = pending.get(op.request, 0) + 1
            self.open_irecvs[rank][recv] = op
        return False

    def _arrive(self, rank: int, op: ops.CollectiveOp) -> bool:
        """Arrive at ``rank``'s next collective instance; True when this
        arrival releases it."""
        instance = self.coll_count[rank]
        self.coll_count[rank] = instance + 1
        arrivals = self.coll_arrivals.get(instance)
        if arrivals is None:
            arrivals = self.coll_arrivals[instance] = {}
        arrivals[rank] = op
        if len(arrivals) < self.nprocs:
            return False
        del self.coll_arrivals[instance]
        # compared to the last arrival rather than hashed: class members
        # share op instances, and hashing an MpiOp member is slow
        if any(o.mpi_op is not op.mpi_op for o in arrivals.values()):
            self.coll_findings.append(
                ("collective-mismatch", instance, arrivals)
            )
        elif any(o.root != op.root for o in arrivals.values()):
            self.coll_findings.append(("root-mismatch", instance, arrivals))
        runnable = self.runnable
        for other in arrivals:
            if other != rank:
                runnable[other] = True
        return True

    # -- the drive loop -------------------------------------------------

    def _advance(self, rank: int) -> None:
        """Run ``rank`` until it blocks or finishes; a blocked rank first
        checks whether its block has lifted."""
        state = self.state[rank]
        if state == _DONE:
            return
        stream = self.streams[rank]
        events, kinds = stream.events, stream.kinds
        pos, end = self.pos[rank], len(events)
        if state != _RUN:
            if state == _BLK_RECV:
                if not self.block_resolved[rank]:
                    return
                self.block_resolved[rank] = False
            elif state == _BLK_WAIT:
                if (
                    self.open_irecvs[rank] if kinds[pos] == _WAITALL
                    else events[pos].request in self.outstanding[rank]
                ):
                    return
            elif self.coll_count[rank] - 1 in self.coll_arrivals:
                return  # _BLK_COLL: its instance is not released yet
            pos += 1
        state = _DONE
        while pos < end:
            kind = kinds[pos]
            if kind == _SEND:
                self._deliver(rank, events[pos])
            elif kind == _RECV:
                if not self._post(rank, events[pos], False):
                    state = _BLK_RECV
                    break
            elif kind == _IRECV:
                self._post(rank, events[pos], True)
            elif kind == _WAIT:
                if events[pos].request in self.outstanding[rank]:
                    state = _BLK_WAIT
                    break
            elif kind == _WAITALL:
                if self.open_irecvs[rank]:
                    state = _BLK_WAIT
                    break
            elif not self._arrive(rank, events[pos]):
                state = _BLK_COLL
                break
            pos += 1
        self.pos[rank] = pos
        self.state[rank] = state

    def run(self) -> None:
        runnable = self.runnable
        visited = True
        while visited:
            visited = False
            # compress reads each flag as the pass reaches it, so a rank
            # a lower rank wakes is visited later in the same pass
            for rank in compress(range(self.nprocs), runnable):
                runnable[rank] = False
                visited = True
                self._advance(rank)

    # -- end-state introspection ----------------------------------------

    def blocked_ranks(self) -> list[int]:
        return [r for r in range(self.nprocs) if self.state[r] != _DONE]

    def leftover_messages(self) -> list[tuple[int, ops.SendOp, int]]:
        """(src rank, send op, dest rank) of every never-received message."""
        return [
            (msg.src, msg.op, dest)
            for dest, mailbox in enumerate(self.mailboxes)
            for msg in mailbox.pending_messages()
        ]


# --------------------------------------------------------------------------
# counting proof for wildcard-involved stalls
# --------------------------------------------------------------------------

_MATCHING_WORK_CAP = 1_000_000  # |recvs| * |sends| beyond which we skip


def _recv_accepts(recv: ops.RecvOp, src_rank: int, send: ops.SendOp) -> bool:
    if recv.src is not ops.ANY and recv.src != src_rank:
        return False
    if recv.tag is not ops.ANY and recv.tag != send.tag:
        return False
    return True


def _unsatisfiable_recvs(
    dest: int, streams: list[_Stream]
) -> int | None:
    """How many of rank ``dest``'s receives can never complete under *any*
    message matching (full-stream bipartite maximum matching); None when
    the instance is too large to decide."""
    stream = streams[dest]
    recvs = [
        op for op, kind in zip(stream.events, stream.kinds)
        if kind == _RECV or kind == _IRECV
    ]
    sends = [
        (s.rank, op)
        for s in streams
        for op, kind in zip(s.events, s.kinds)
        if kind == _SEND and op.dest == dest
    ]
    if len(recvs) * len(sends) > _MATCHING_WORK_CAP:
        return None
    matched_to: dict[int, int] = {}  # send index -> recv index

    def augment(ri: int, visited: set[int]) -> bool:
        for si, (src_rank, send) in enumerate(sends):
            if si in visited or not _recv_accepts(recvs[ri], src_rank, send):
                continue
            visited.add(si)
            if si not in matched_to or augment(matched_to[si], visited):
                matched_to[si] = ri
                return True
        return False

    matched = sum(1 for ri in range(len(recvs)) if augment(ri, set()))
    return len(recvs) - matched


# --------------------------------------------------------------------------
# structural rules
# --------------------------------------------------------------------------


def _send_send_cycles(
    streams: list[_Stream], nprocs: int
) -> list[list[tuple[int, ops.SendOp]]]:
    """Cycles of ranks whose stream prefixes (up to the first genuinely
    blocking operation) contain blocking sends forming a dependency loop.
    Under rendezvous MPI every send in such a cycle waits for a receive
    that is only reachable after the cycle completes."""
    first_send: dict[int, dict[int, ops.SendOp]] = {}
    for stream in streams:
        edges: dict[int, ops.SendOp] = {}
        for op, kind in zip(stream.events, stream.kinds):
            if kind == _SEND:
                if (
                    op.mpi_op is MpiOp.SEND
                    and op.blocking
                    and op.dest != stream.rank
                    and op.dest not in edges
                ):
                    edges[op.dest] = op
            elif kind != _IRECV:
                break  # a blocking receive, wait, waitall or collective
        if edges:
            first_send[stream.rank] = edges
    # every rank has at most nprocs outgoing edges; find directed cycles
    # among first-phase sends with a plain colored DFS
    color: dict[int, int] = {}
    stack: list[int] = []
    cycles: list[list[tuple[int, ops.SendOp]]] = []
    seen_cycles: set[tuple[int, ...]] = set()

    def dfs(rank: int) -> None:
        color[rank] = 1
        stack.append(rank)
        for dest in first_send.get(rank, ()):  # noqa: B007
            if color.get(dest, 0) == 0 and dest in first_send:
                dfs(dest)
            elif color.get(dest) == 1:
                start = stack.index(dest)
                cycle_ranks = stack[start:]
                canon = tuple(sorted(cycle_ranks))
                if canon not in seen_cycles:
                    seen_cycles.add(canon)
                    cycle = []
                    for i, r in enumerate(cycle_ranks):
                        nxt = cycle_ranks[(i + 1) % len(cycle_ranks)]
                        if nxt in first_send.get(r, {}):
                            cycle.append((r, first_send[r][nxt]))
                    if len(cycle) == len(cycle_ranks):
                        cycles.append(cycle)
        stack.pop()
        color[rank] = 2

    for rank in sorted(first_send):
        if color.get(rank, 0) == 0:
            dfs(rank)
    return cycles


def _wildcard_hygiene(
    streams: list[_Stream],
) -> list[tuple[int, ops.RecvOp, dict[int, ops.SendOp]]]:
    """Every ANY-source receive with its possible-sender map (sender rank
    -> one matching send, kept for related spans).  At most one sender
    means the wildcard buys nothing and hides mismatches; two or more
    hand the verdict to the match-order analysis."""
    if not any(stream.any_src for stream in streams):
        return []
    sends_by_dest: dict[int, list[tuple[int, ops.SendOp]]] = {}
    for stream in streams:
        for op, kind in zip(stream.events, stream.kinds):
            if kind == _SEND:
                sends_by_dest.setdefault(op.dest, []).append(
                    (stream.rank, op)
                )
    out = []
    seen: set[tuple[int, str]] = set()
    for stream in streams:
        if not stream.any_src:
            continue
        for op, kind in zip(stream.events, stream.kinds):
            if kind not in (_RECV, _IRECV) or op.src is not ops.ANY:
                continue
            key = (stream.rank, str(op.location))
            if key in seen:
                continue
            seen.add(key)
            senders: dict[int, ops.SendOp] = {}
            for src, send in sends_by_dest.get(stream.rank, ()):
                if op.tag is ops.ANY or send.tag == op.tag:
                    senders.setdefault(src, send)
            out.append((stream.rank, op, senders))
    return out


def _request_hygiene(
    streams: list[_Stream],
) -> tuple[
    list[tuple[int, ops.SendOp | ops.RecvOp]],
    list[tuple[int, ops.WaitOp, ops.WaitOp | None]],
]:
    """Per-rank nonblocking-request bookkeeping (see
    :func:`_request_misuse`), checked once per distinct kind list (one per
    batched class) and attributed to every rank that runs it, with each
    rank's own ops.  Returns ``(leaks, double_waits)`` in rank order."""
    leaks: list[tuple[int, ops.SendOp | ops.RecvOp]] = []
    double_waits: list[tuple[int, ops.WaitOp, ops.WaitOp | None]] = []
    misuse_of: dict[int, tuple[list, list]] = {}
    for stream in streams:
        misuse = misuse_of.get(id(stream.kinds))
        if misuse is None:
            misuse = misuse_of[id(stream.kinds)] = _request_misuse(stream)
        list_leaks, list_waits = misuse
        events = stream.events
        if list_leaks:
            leaks.extend((stream.rank, events[j]) for j in list_leaks)
        if list_waits:
            double_waits.extend(
                (stream.rank, events[j], None if prior is None else events[prior])
                for j, prior in list_waits
            )
    return leaks, double_waits


def _request_misuse(
    stream: _Stream,
) -> tuple[list[int], list[tuple[int, int | None]]]:
    """One op list's request bookkeeping, mirroring the engine's per-name
    FIFO exactly: isend/irecv append to their request's queue, ``wait``
    pops the oldest entry of its name, ``waitall`` completes everything.
    Returns, as indices into the list, the nonblocking ops whose request
    survives to the end of the list, and the waits that found their
    queue empty (the engine raises ``MpiUsageError`` for those), each with
    the wait that last completed its request, if any.  Request names do
    not vary within a class, so the indices hold for every member."""
    leaks: list[int] = []
    double_waits: list[tuple[int, int | None]] = []
    queues: dict[str, deque] = {}
    completed_by: dict[str, int] = {}
    for j, (op, kind) in enumerate(zip(stream.events, stream.kinds)):
        if kind == _WAIT:
            queue = queues.get(op.request)
            if queue:
                queue.popleft()
                if not queue:
                    del queues[op.request]
                completed_by[op.request] = j
            else:
                double_waits.append((j, completed_by.get(op.request)))
        elif kind == _WAITALL:
            queues.clear()
        elif kind == _IRECV or kind == _SEND and not op.blocking:
            if op.request is not None:
                queues.setdefault(op.request, deque()).append(j)
    for queue in queues.values():
        leaks.extend(queue)
    return leaks, double_waits


# --------------------------------------------------------------------------
# finding assembly
# --------------------------------------------------------------------------


class _Findings:
    """Dedup + rank aggregation: one finding per (rule, span, message)."""

    def __init__(self) -> None:
        self._acc: dict[tuple, dict] = {}

    def add(
        self,
        rule: str,
        severity: Severity,
        message: str,
        location: SourceLocation | None,
        *,
        related: Iterable[SourceLocation] = (),
        ranks: Iterable[int] = (),
    ) -> None:
        key = (rule, str(location) if location else None, message)
        slot = self._acc.setdefault(
            key,
            {
                "rule": rule,
                "severity": severity,
                "message": message,
                "location": location,
                "related": {},
                "ranks": set(),
            },
        )
        for loc in related:
            slot["related"].setdefault(str(loc), loc)
        slot["ranks"].update(ranks)

    def build(self) -> tuple[LintFinding, ...]:
        findings = [
            LintFinding(
                rule=slot["rule"],
                severity=slot["severity"],
                message=slot["message"],
                location=slot["location"],
                related=tuple(
                    slot["related"][k] for k in sorted(slot["related"])
                ),
                ranks=tuple(sorted(slot["ranks"])),
            )
            for slot in self._acc.values()
        ]
        findings.sort(
            key=lambda f: (
                f.severity.order,
                str(f.location) if f.location else "~",
                f.location.line if f.location else 0,
                f.rule,
                f.message,
            )
        )
        return tuple(findings)


def _tag_mismatch_peers(
    recv: ops.RecvOp,
    rank: int,
    leftovers: list[tuple[int, ops.SendOp, int]],
) -> list[tuple[int, ops.SendOp]]:
    """Leftover messages on the right channel with the wrong tag."""
    if recv.src is ops.ANY or recv.tag is ops.ANY:
        return []
    return [
        (src, op)
        for src, op, dest in leftovers
        if dest == rank and src == recv.src and op.tag != recv.tag
    ]


def run_lint(
    program: ast.Program,
    psg: PSG,
    nprocs: int,
    params: Mapping[str, object] | None = None,
    *,
    entry: str = "main",
    max_ops_per_rank: int = 100_000,
    max_iterations: int = 2_000_000,
    expr_cache: dict | None = None,
) -> LintReport:
    """Lint one program at one scale.  Never raises on analyzable input;
    see :class:`LintReport` (and :class:`LintError` for fail-fast use).

    ``expr_cache`` is a per-program memo: compiled statements plus the
    call-graph facts of the rank analysis.  Pass one dict to lints of the
    same ``program`` at several scales to build them once; the compiled
    code reads rank, ``nprocs`` and params at run time and holds no op
    (memoized ops live on each interpreter)."""
    if expr_cache is None:
        expr_cache = {}
    symmetry = partition_ranks(
        program, nprocs, params, entry=entry,
        analysis=analyze_program(
            program, nprocs, params, entry=entry, cache=expr_cache
        ),
    )
    streams, ranks_batched = _collect_streams(
        program, psg, nprocs, params, entry, max_ops_per_rank,
        max_iterations, symmetry, expr_cache,
    )
    findings = _Findings()

    for stream in streams:
        if stream.error is not None:
            findings.add(
                "exec-error", Severity.ERROR, stream.error,
                stream.error_location, ranks=(stream.rank,),
            )
    incomplete = any(s.truncated for s in streams)
    if incomplete or any(s.error is not None for s in streams):
        # matching over partial/failed streams would fabricate mismatches
        return LintReport(
            nprocs=nprocs,
            findings=findings.build(),
            symmetry=symmetry,
            incomplete=incomplete,
            ranks_batched=ranks_batched,
        )

    replay = _Replay(streams, nprocs)
    replay.run()

    for rank, op in replay.self_send_hits:
        findings.add(
            "self-send-deadlock", Severity.ERROR,
            f"blocking send to own rank with no receive posted "
            f"(dest = src = {rank}); guaranteed deadlock under "
            "synchronous MPI",
            op.location, ranks=(rank,),
        )

    for rule, instance, arrivals in replay.coll_findings:
        by_shape: dict[tuple, list[int]] = {}
        for rank, op in sorted(arrivals.items()):
            shape = (op.mpi_op.name.lower(), op.root)
            by_shape.setdefault(shape, []).append(rank)
        desc = "; ".join(
            f"{'root ' + str(shape[1]) if rule == 'root-mismatch' else shape[0]}"
            f" on ranks {','.join(map(str, ranks))}"
            for shape, ranks in sorted(by_shape.items(), key=lambda kv: kv[1])
        )
        head = (
            "ranks reach collective instance "
            f"#{instance} with different "
            + ("roots" if rule == "root-mismatch" else "operations")
            + f": {desc}"
        )
        primary = min(arrivals.items())[1]
        related = {
            str(op.location): op.location for _, op in sorted(arrivals.items())
        }
        related.pop(str(primary.location), None)
        findings.add(
            rule, Severity.ERROR, head, primary.location,
            related=related.values(), ranks=sorted(arrivals),
        )

    blocked = replay.blocked_ranks()
    leftovers = replay.leftover_messages()

    if blocked:
        _deadlock_findings(findings, replay, streams, blocked, leftovers)
    else:
        _completion_findings(findings, replay, streams, leftovers)

    wildcards = _wildcard_hygiene(streams)
    match_report = None
    if any(len(senders) > 1 for _, _, senders in wildcards):
        from repro.analysis.matchorder import analyze_match_order

        try:
            match_report = analyze_match_order(
                program, nprocs, params, entry=entry
            )
        except Exception:
            match_report = None  # degraded analysis never blocks the lint
    for rank, op, senders in wildcards:
        if len(senders) <= 1:
            why = (
                f"only rank {next(iter(senders))} ever sends a matching message"
                if senders
                else "no rank ever sends a matching message"
            )
            findings.add(
                "wildcard-recv", Severity.INFO,
                f"receive from ANY source, but {why}; a concrete source "
                "would catch mismatches",
                op.location, ranks=(rank,),
            )
            continue
        verdict = None
        if (
            match_report is not None
            and match_report.exact
            and op.location is not None
        ):
            verdict = match_report.verdict_at(
                (op.location.filename, op.location.line, op.location.column)
            )
        if verdict is not None and verdict.deterministic:
            findings.add(
                "wildcard-recv", Severity.INFO,
                "receive from ANY source is proven match-deterministic: "
                "every receiver has exactly one feasible sender at "
                f"{nprocs} ranks; safe to devirtualize to a concrete "
                "source (see also: the unique matcher)",
                op.location,
                related=verdict.matchers,
                ranks=(rank,),
            )
        else:
            racing = sorted(senders)
            findings.add(
                "wildcard-race", Severity.WARNING,
                f"receive from ANY source has {len(racing)} feasible "
                f"senders (ranks {','.join(map(str, racing))}) at "
                f"{nprocs} ranks; the match depends on message timing",
                op.location,
                related=[
                    senders[src].location
                    for src in racing
                    if senders[src].location is not None
                ],
                ranks=(rank,),
            )

    leaks, double_waits = _request_hygiene(streams)
    for rank, op in leaks:
        kind = "isend" if isinstance(op, ops.SendOp) else "irecv"
        findings.add(
            "request-leak", Severity.WARNING,
            f"nonblocking {kind} (request {op.request!r}) is never "
            "completed by wait/waitall; its completion is never observed",
            op.location, ranks=(rank,),
        )
    for rank, op, prior in double_waits:
        if prior is not None:
            findings.add(
                "double-wait", Severity.ERROR,
                f"wait on request {op.request!r} has nothing outstanding: "
                "the request was already completed by an earlier wait "
                "(the engine raises MpiUsageError here)",
                op.location, related=(prior.location,), ranks=(rank,),
            )
        else:
            findings.add(
                "double-wait", Severity.ERROR,
                f"wait on request {op.request!r} has nothing outstanding: "
                "no isend/irecv ever posts it "
                "(the engine raises MpiUsageError here)",
                op.location, ranks=(rank,),
            )

    for cycle in _send_send_cycles(streams, nprocs):
        ranks = [r for r, _ in cycle]
        path = " -> ".join(map(str, ranks + ranks[:1]))
        first = cycle[0][1]
        findings.add(
            "send-send-cycle", Severity.WARNING,
            f"blocking sends form a cycle ({path}) before any rank "
            "receives; deadlocks under rendezvous MPI (use sendrecv, "
            "isend, or reorder)",
            first.location,
            related=[op.location for _, op in cycle[1:]],
            ranks=ranks,
        )

    return LintReport(
        nprocs=nprocs,
        findings=findings.build(),
        symmetry=symmetry,
        incomplete=False,
        ranks_batched=ranks_batched,
    )


def _deadlock_findings(
    findings: _Findings,
    replay: _Replay,
    streams: list[_Stream],
    blocked: list[int],
    leftovers: list,
) -> None:
    """Report a quiesced-but-unfinished replay.  Wildcard-involved stalls
    need a counting proof; wildcard-free FIFO matching is deterministic,
    so the replay itself is the proof."""
    p2p_blocked = [
        r for r in blocked if replay.state[r] in (_BLK_RECV, _BLK_WAIT)
    ]
    coll_blocked = [r for r in blocked if replay.state[r] == _BLK_COLL]

    proven: dict[int, bool] = {}

    def stall_is_proven(dest: int) -> bool:
        if not replay.saw_wildcard:
            return True
        if dest not in proven:
            deficit = _unsatisfiable_recvs(dest, streams)
            proven[dest] = deficit is not None and deficit > 0
        return proven[dest]

    for rank in p2p_blocked:
        if not stall_is_proven(rank):
            continue  # some other wildcard matching might complete: stay silent
        op = streams[rank].events[replay.pos[rank]]
        if replay.state[rank] == _BLK_RECV:
            assert isinstance(op, ops.RecvOp)
            peers = _tag_mismatch_peers(op, rank, leftovers)
            src = "ANY" if op.src is ops.ANY else op.src
            tag = "ANY" if op.tag is ops.ANY else op.tag
            if peers:
                psrc, pop = peers[0]
                findings.add(
                    "tag-mismatch", Severity.ERROR,
                    f"receive waits for (src={src}, tag={tag}) but rank "
                    f"{psrc} sends tag {pop.tag} on that channel",
                    op.location,
                    related=[pop.location for _, pop in peers],
                    ranks=(rank,),
                )
            else:
                findings.add(
                    "unmatched-recv", Severity.ERROR,
                    f"blocking receive (src={src}, tag={tag}) can never "
                    "complete: no matching message is ever sent",
                    op.location, ranks=(rank,),
                )
        else:  # blocked in wait/waitall on unmatched irecvs
            open_recvs = list(replay.open_irecvs[rank].values())
            reported = False
            for recv in open_recvs:
                peers = _tag_mismatch_peers(recv, rank, leftovers)
                if peers:
                    findings.add(
                        "tag-mismatch", Severity.ERROR,
                        f"irecv waits for (src={recv.src}, tag={recv.tag}) "
                        f"but rank {peers[0][0]} sends tag "
                        f"{peers[0][1].tag} on that channel",
                        recv.location,
                        related=[pop.location for _, pop in peers]
                        + [op.location],
                        ranks=(rank,),
                    )
                    reported = True
            if not reported:
                findings.add(
                    "unmatched-recv", Severity.ERROR,
                    f"{'wait' if isinstance(op, ops.WaitOp) else 'waitall'} "
                    "blocks forever: posted irecv(s) never receive a "
                    "matching message",
                    op.location,
                    related=[r.location for r in open_recvs],
                    ranks=(rank,),
                )

    if coll_blocked and not p2p_blocked:
        # a pure collective stall: some ranks arrived, the rest finished
        # (or diverged) without ever calling it — rank-dependent collective
        # call counts.  With p2p blocking present the collective starvation
        # is a cascade of the p2p root cause; stay silent about it then.
        by_op: dict[str, list[int]] = {}
        locs: dict[str, SourceLocation] = {}
        for rank in coll_blocked:
            op = streams[rank].events[replay.pos[rank]]
            name = op.mpi_op.name.lower()
            by_op.setdefault(name, []).append(rank)
            locs.setdefault(name, op.location)
        absent = [r for r in range(replay.nprocs) if r not in coll_blocked]
        for name, ranks in sorted(by_op.items()):
            findings.add(
                "collective-divergence", Severity.ERROR,
                f"{name} waits forever: ranks "
                f"{','.join(map(str, absent))} never reach this collective "
                "(rank-dependent collective sequence)",
                locs[name], ranks=ranks,
            )


def _completion_findings(
    findings: _Findings,
    replay: _Replay,
    streams: list[_Stream],
    leftovers: list,
) -> None:
    """The replay finished; leftover traffic is still worth flagging."""
    # keyed by sender too: batched class members share one SendOp instance
    claimed: set[tuple[int, int]] = set()
    for rank in range(replay.nprocs):
        for recv in replay.open_irecvs[rank].values():
            peers = _tag_mismatch_peers(recv, rank, leftovers)
            if peers:
                findings.add(
                    "tag-mismatch", Severity.ERROR,
                    f"irecv waits for (src={recv.src}, tag={recv.tag}) "
                    f"but rank {peers[0][0]} sends tag {peers[0][1].tag} "
                    "on that channel",
                    recv.location,
                    related=[pop.location for _, pop in peers],
                    ranks=(rank,),
                )
                claimed.update((psrc, id(pop)) for psrc, pop in peers)
    for src, op, dest in leftovers:
        if (src, id(op)) in claimed:
            continue
        findings.add(
            "unmatched-send", Severity.WARNING,
            f"message (dest={dest}, tag={op.tag}, {op.nbytes} bytes) is "
            "sent but never received",
            op.location, ranks=(src,),
        )
