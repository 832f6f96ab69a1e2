"""Lockstep drain: a class-batched run, one template position at a time.

When class batching covers every rank, each rank class runs one
template (see :mod:`repro.simulator.classbatch`): position ``k`` of every
member's stream is the same kind of operation at the same statement, and
only rank-varying fields (partners, tags, sizes, workloads) differ, held
as one numpy column over the members.  :func:`schedule` reads those
columns directly (no member op object is built) and checks, once at
``Engine.start``, that every position of every class has a lockstep rule
and that the point-to-point matching is fixed by program order alone:

* every position is a compute, a send or isend, a receive or irecv
  with a concrete source and tag, a wait or waitall, or a collective
  whose op, root and byte count are the same on every rank.  The k-th
  collective of every class is one instance.  A template carries no
  costs: a compute is costed for all members at once by
  ``CostModel.compute_cost_columns``, and a send from its byte-count
  column and the send overhead;
* MPI's non-overtaking rule pairs the k-th receive of a channel
  ``(source, destination, tag)`` with its k-th send.  With concrete
  sources that pairing is static: a rank belongs to one class, so its
  positions are in program order, and one sort of all classes' send and
  receive rows by channel, then position, pairs every receive row with
  exactly one send row.  A receive position may draw from several send
  positions of several classes; each member gathers its message by a
  precomputed send row;
* the classes' positions merge into one order in which every message is
  sent before the position that completes its receive (the blocking
  receive itself, or the wait or waitall of its request): a class
  advances until its next position needs a send that is not yet
  scheduled, or reaches its next collective, which runs once every class
  has reached it;
* every wait names an outstanding request, and every request is waited
  on.

Then every value a position reads was written earlier in the merged
order, so running it is one legal schedule of the run.  Every receive
source is concrete, so by Kahn's determinacy all schedules give the same
clocks and rows, and this one completes: the run cannot deadlock or
raise.  :meth:`Plan.run` executes it as float64 columns over each
class's members, a few numpy operations per position.  One class of
every rank is the one-class instance of the same code.

The proof and the plan are two steps.  :func:`schedule` proves the
conditions without costing anything: one Python pass over each class's
positions (:func:`_schedule_class`, memoized per distinct op or column
set) records every position's cost-free runtime step, the send and
receive rows, and the class's *gates*, the receive-completing positions
(a collective is a gate too).  Pairing is then numpy over all rows, and
so is each gate's needs: per sending class, the highest send position it
reads.  Only gates can wait for another class, and a class's sends are
scheduled in position order, so the merge visits gates alone: a gate
may run once every class it reads from has passed that position.  The
merged order is kept as runs of one class's positions and collective
instances, at a Python cost of O(positions) for the pass and O(gates)
for the merge (``Schedule.merge_visits`` counts the receive gates it
visits).  :func:`compile_plan` then emits the plan from the schedule:
it costs each distinct compute and send, fills the P2P and collective
identity rows, and lays the steps out run by run.  The static lint
(:mod:`repro.analysis.lint`) asks :func:`schedule` alone: a proven
schedule is a run that completes.

Per-execution noise is drawn at emission: each rank draws from its
own stream, once per compute in program order, and a rank runs its
class's template positions in order, so the ``k``-th compute position
of a class takes every member's ``k``-th factor
(``CostModel.noise_columns``).  The factors apply per position, after
the memo of distinct ops, since one op may fill several positions: an
op's noise-free columns are costed once, and each position scales only
the duration and cycle columns, the two that depend on the factor.

Each column operation repeats the per-event handler's arithmetic in the
same association, and each Python ``max`` or ternary becomes the
``np.where`` that keeps the same operand on ties (``np.maximum`` would
not: it differs from ``max`` on ``±0.0``).  A message's arrival is its
send time plus its transfer time, added where it is received instead of
where it is sent: the same two operands, so the same bits.  A waitall
takes its requests in position order where the engine sorts them by
post time; the maximum does not depend on that order, since clocks are
never ``-0.0`` or NaN.

When any check fails :func:`schedule` raises :class:`Refusal` with one
reason, naming the source location of the position that failed; the
engine then drains through its time-ordered loop.  Only per-rank
row order is contract: lockstep appends each class's rows position by
position, class after class, when segments are recorded, and in ring
mode hands the event and counter rows on in merged order, in blocks of
at most the ring's seal size.
"""

from __future__ import annotations

import itertools
import struct

import numpy as np

from repro.minilang.ast_nodes import MpiOp
from repro.simulator import ops
from repro.simulator.classbatch import (
    WORKLOAD_FIELDS,
    ColumnSet,
    field_values,
    stack_columns,
    transfer_column,
)
from repro.simulator.matching import pair_channels
from repro.simulator.trace import MPI_OP_CODES, WILDCARD_CODE

__all__ = ["Plan", "Refusal", "Schedule", "compile_plan", "schedule"]

#: step kinds of a compiled position.  A compute names its index among
#: its class's computes (``Plan.durations``); an isend's wait costs the
#: send overhead alone; a wait on an irecv runs as a waitall over its one
#: request (the handlers' arithmetic agrees).
_COMPUTE, _SEND, _ISEND_WAIT, _RECV, _IRECV, _WAITALL, _COLL = range(7)

_WAIT_CODE = MPI_OP_CODES[MpiOp.WAIT]
_WAITALL_CODE = MPI_OP_CODES[MpiOp.WAITALL]
_ROOTED_SPREAD = (MpiOp.BCAST, MpiOp.SCATTER)
_ROOTED_GATHER = (MpiOp.REDUCE, MpiOp.GATHER)
_PACK_4D = struct.Struct("<4d").pack
_NO_EVENTS = np.empty((0, 7))
_NO_COUNTERS = np.empty((0, 6))


class Refusal(Exception):
    """Nothing is proven: the engine's per-event drain runs instead."""


class Plan:
    """A compiled lockstep run: the classes' steps in one merged order,
    plus the rows whose values do not depend on clocks (the event and
    counter identity columns, the P2P identity columns, the collective
    instances).

    Clock vectors run in class order: the members of the first class,
    then of the second, and so on (``ranks``)."""

    def __init__(self, nprocs: int, send_ovh: float, recv_ovh: float) -> None:
        self.nprocs = nprocs
        self.send_ovh = send_ovh
        self.recv_ovh = recv_ovh
        #: ``(kind, class, rows, a, b)`` per step in merged order; a
        #: collective is one step over every class (class -1)
        self.steps: list[tuple] = []
        #: per class, the duration of each compute position in order: one
        #: value every member shares, or a member column
        self.durations: list[list] = []
        #: the class-ordered rank vector, and each class's slice of it
        self.ranks = np.empty(0, dtype=np.int64)
        self.class_slices: list[slice] = []
        #: per class: its first event row, its members, and per position
        #: the vid and op code of its rows (op -1 marks a compute row,
        #: kind 0; every other row is kind 1, MPI); a class's event rows
        #: run position by position
        self.class_rows: list[tuple] = []
        self.event_rows = 0
        #: per class: its members, and per compute position its counter
        #: row ``(vid, ins, cyc, lst, dcm)``, each counter a member column
        #: (see :func:`_counter_rows`)
        self.counter_classes: list[tuple] = []
        #: send rows (every send position's members)
        self.send_rows = 0
        #: per receive position (numbered class after class, position
        #: by position): the send row each member reads, their transfer
        #: times and the position's block of P2P rows
        self.received: list[tuple] = []
        self.p2p_ints = np.empty((0, 9), dtype=np.int64)
        self.collective_rows = np.empty((0, 4), dtype=np.int64)
        #: the participants' rank and vid columns, instance after instance
        self.collective_parts = np.empty((0, 2))
        #: work counts, for the engine's counters
        self.mpi_calls = 0
        self.compute_ops = 0
        self.devirt = 0
        #: gates the merge visited, a work count
        self.merge_visits = 0

    def run(self, trace) -> list[float]:
        """Execute every step, hand the rows to ``trace`` and return the
        finish clocks in rank order.

        A trace that keeps its rows takes the event and counter tables as
        one block each.  A ring trace (``trace.block_rows()`` rows per
        block) takes them in blocks as the steps produce them, so no
        whole-run event or counter matrix is built; each rank's rows
        still come in its program order, which is all its per-key sums
        read.  A plan runs once: it drops its steps as it starts, so an
        engine kept alive after its run does not keep them."""
        steps, self.steps = self.steps, []
        received, self.received = self.received, []
        durations, self.durations = self.durations, []
        nprocs, send_ovh, recv_ovh = self.nprocs, self.send_ovh, self.recv_ovh
        size = trace.block_rows()
        if size is None:
            slabs = None
            events = np.empty((self.event_rows, 7))
            for first, members, vids, op_codes in self.class_rows:
                block = events[first:first + len(vids) * len(members)]
                block[:, 0] = np.tile(members, len(vids))
                block[:, 1] = np.repeat(vids, len(members))
                block[:, 6] = np.repeat(op_codes, len(members))
            events[:, 2] = events[:, 6] >= 0
            events[:, 5] = 0.0
            end, wait = events[:, 4], events[:, 5]
        else:
            slabs = _Slabs(lambda m: trace.append_block(m, _NO_COUNTERS), 7, size)
        #: send times by send row; an arrival is added where it is read
        sent = np.empty(self.send_rows)
        #: the P2P float rows: send time, arrival, post, completion, wait
        p2p = np.empty((len(self.p2p_ints), 5))
        #: receive position of an irecv -> post times, until completed
        posted: list = [None] * len(received)
        #: the participants' arrival and completion columns
        coll = np.empty((2, len(self.collective_parts)))
        slices = self.class_slices
        clks = [np.zeros(s.stop - s.start) for s in slices]
        where = np.where
        for kind, c, rows, a, b in steps:
            if kind == _COLL:
                mpi_op, root, cost, ovh, code = a
                arrival = np.concatenate(clks)
                if mpi_op in _ROOTED_SPREAD:
                    late = arrival[root] + cost
                    clk = where(late > arrival, late, arrival)
                elif mpi_op in _ROOTED_GATHER:
                    clk = arrival + ovh
                    clk[root] = arrival.max() + cost
                else:
                    clk = np.full(nprocs, arrival.max() + cost)
                w = clk - arrival - cost
                w = where(w > 0.0, w, 0.0)
                if slabs is None:
                    wait[rows] = w
                    end[rows] = clk
                else:
                    rank, vid = self.collective_parts[b].T
                    slabs.put(nprocs, rank, vid, 1.0, arrival, clk, w, code)
                coll[0, b] = arrival
                coll[1, b] = clk
                clks = [clk[s] for s in slices]
                continue
            start = clk = clks[c]
            w = None
            if kind == _COMPUTE:
                clk = clk + durations[c][a]
            elif kind == _SEND:
                sent[b] = clk
                clk = clk + send_ovh
            elif kind == _ISEND_WAIT:
                clk = clk + send_ovh
            elif kind == _RECV:
                gather, transfer, block = received[a]
                send_time = sent[gather]
                arrival = send_time + transfer
                clk = where(arrival > start, arrival, start) + recv_ovh
                w = arrival - start
                w = where(w < 0.0, 0.0, w)
                _p2p_rows(p2p[block], send_time, arrival, start, clk, w)
            elif kind == _IRECV:
                posted[b] = clk
                clk = clk + recv_ovh
            else:  # _WAITALL
                latest = clk
                taken = []
                for ri in a:
                    gather, transfer, block = received[ri]
                    send_time = sent[gather]
                    arrival = send_time + transfer
                    post = posted[ri]
                    ready = where(post > arrival, post, arrival)
                    latest = where(ready > latest, ready, latest)
                    taken.append((block, send_time, arrival, post, ready))
                clk = latest + recv_ovh
                w = latest - start
                w = where(w > 0.0, w, 0.0)
                for block, send_time, arrival, post, ready in taken:
                    late = ready - start
                    _p2p_rows(
                        p2p[block], send_time, arrival, post, clk,
                        where(late > 0.0, late, 0.0),
                    )
            clks[c] = clk
            if slabs is None:
                end[rows] = clk
                if w is not None:
                    wait[rows] = w
            else:
                first, members, vids, op_codes = self.class_rows[c]
                n = len(members)
                pos = (rows.start - first) // n
                op = op_codes[pos]
                slabs.put(
                    n, members, vids[pos], op >= 0, start, clk,
                    0.0 if w is None else w, op,
                )
        if slabs is None:
            # a position starts where the class's previous one ended
            for first, members, vids, _ in self.class_rows:
                if len(vids):
                    n = len(members)
                    last = first + len(vids) * n
                    events[first:first + n, 3] = 0.0
                    events[first + n:last, 3] = events[first:last - n, 4]
            trace.append_block(events, _counter_rows(self.counter_classes))
        else:
            slabs.flush()
            counters = _Slabs(lambda m: trace.append_block(_NO_EVENTS, m), 6, size)
            for members, table in self.counter_classes:
                for row in table:
                    counters.put(len(members), members, *row)
            counters.flush()
        trace.p2p.append_block(self.p2p_ints, p2p)
        ncoll = len(self.collective_rows)
        if ncoll:
            trace.collectives.append_block(
                self.collective_rows, np.full(ncoll, nprocs),
                np.column_stack((self.collective_parts, coll.T)),
            )
        finish = np.empty(nprocs)
        finish[self.ranks] = np.concatenate(clks)
        return finish.tolist()


class _Slabs:
    """Rows handed on in blocks of at most ``size`` rows, in the order
    they are put: how a ring trace takes its event and counter rows."""

    def __init__(self, hand, width: int, size: int) -> None:
        self.hand, self.width, self.size = hand, width, size
        # column-major, so that each column is written in one sweep
        self.block = np.empty((width, size)).T
        self.at = 0

    def put(self, n: int, *columns) -> None:
        """Put ``n`` rows, each column given as one value for every row
        or as a column of ``n`` values."""
        done = 0
        while done < n:
            take = min(self.size - self.at, n - done)
            rows = self.block[self.at:self.at + take]
            for j, column in enumerate(columns):
                rows[:, j] = (
                    column[done:done + take] if type(column) is np.ndarray
                    else column
                )
            done += take
            self.at += take
            if self.at == self.size:
                self.flush()

    def flush(self) -> None:
        """Hand on the rows put since the last block."""
        if self.at:
            self.hand(self.block[:self.at])
            self.block = np.empty((self.width, self.size)).T
            self.at = 0


def _p2p_rows(rows: np.ndarray, *columns) -> None:
    """Fill a block of P2P float rows column by column."""
    for j, column in enumerate(columns):
        rows[:, j] = column


class _Class:
    """One class's scheduled positions, over its member columns.

    Member ``i`` is rank ``members[i]``.  ``runtime`` holds the cost-free
    runtime step of every position (``None`` at a collective, which is
    merged across classes); ``gates`` the positions that may have to wait
    for another class: each receive-completing position, as ``(position,
    needs, receive positions)`` once :func:`_gate_needs` has filled in
    the sends it reads."""

    def __init__(self, members, base: list, first_row: int) -> None:
        self.members = np.asarray(members, dtype=np.int64)
        self.n = len(members)
        self.base = base
        self.first_row = first_row
        self.runtime: list = []
        self.vids: list[int] = []
        self.op_codes: list[int] = []
        #: the distinct computes, each ``(op, values)`` of its first
        #: position, and each compute position's index among them
        self.computes: list[tuple] = []
        self.compute_at: list[int] = []
        #: receive-completing positions in order, each ``(position, the
        #: receive positions it completes)``; then ``(position, needs,
        #: receive positions)``
        self.gates: list[tuple] = []
        #: the positions of the class's collectives, in order, and each
        #: one's ``(op, root, nbytes)``
        self.collectives: list[int] = []
        self.coll_fields: list[tuple] = []
        self.mpi_positions = 0
        self.devirt_positions = 0

    def rows(self, pos: int) -> slice:
        """The event rows of one position."""
        first = self.first_row + pos * self.n
        return slice(first, first + self.n)


class Schedule:
    """A proven lockstep order, before any cost (see :func:`schedule`):
    the classes' scheduled positions, the channel pairing of every
    receive row, and the merged order, which :func:`compile_plan` turns
    into a :class:`Plan`."""

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self.classes: list[_Class] = []
        #: every class's send and receive positions, class after class and
        #: position by position, each one row per member.  Per send
        #: position ``(class, position, vid, (dest, tag, nbytes))``, the
        #: last its member columns; positions holding one op or column set
        #: share the tuple.  Per receive position ``[class, position, vid,
        #: vid of the position completing it, devirtualized, gate
        #: completing it, (source, tag, devirtualized)]``, shared alike; a
        #: step names its receive position by its index (``ri``)
        self.sends: list[tuple] = []
        self.send_rows = 0
        self.recvs: list[list] = []
        self.gates = 0
        #: the class-ordered rank vector
        self.ranks = np.empty(0, dtype=np.int64)
        self.event_rows = 0
        #: per receive row (receive positions in order, each over its
        #: members): its source, rank and tag, the send row it pairs with,
        #: that row's send position and its own receive position
        self.r_src = self.r_rank = self.r_tag = np.empty(0, dtype=np.int64)
        self.paired = self.read_from = self.r_of_row = self.r_src
        #: each receive position's first receive row, and the rows' end
        self.r_first: list[int] = [0]
        #: the merged order: ``(class, start, stop)`` runs of one class's
        #: positions, and ``(-1, k, k + 1)`` for collective instance ``k``
        self.order: list[tuple] = []
        self.instances = 0
        #: gates the merge visited, a work count
        self.merge_visits = 0

    def self_message(self) -> int | None:
        """The first rank that receives a message it sent itself, if any."""
        own = np.flatnonzero(self.r_src == self.r_rank)
        return int(self.r_rank[own[0]]) if len(own) else None


def schedule(classes, nprocs: int) -> Schedule:
    """Prove the lockstep conditions for batched classes ``(members, base,
    patches)`` that together cover every rank once (see the module
    docstring) without costing any op; raises :class:`Refusal` with the
    first failed condition."""
    sched = Schedule(nprocs)
    parts = sched.classes
    first = 0
    for c, (members, base, patches) in enumerate(classes):
        parts.append(_schedule_class(c, members, base, patches, first, sched))
        first += len(base) * len(members)
    sched.event_rows = first
    sched.ranks = _concat([cls.members for cls in parts])
    links = _pair(sched)
    _gate_needs(sched, links)
    _merge(sched, links)
    return sched


def compile_plan(
    classes, nprocs: int, *, cost, delays: dict, send_ovh: float,
    recv_ovh: float,
) -> Plan:
    """The :func:`schedule` of ``classes``, emitted as a plan: each
    distinct compute and send costed, the P2P and collective identity
    rows filled and the steps laid out in the merged order.  Raises
    :class:`Refusal` with the schedule's first failed condition."""
    sched = schedule(classes, nprocs)
    parts = sched.classes
    plan = Plan(nprocs, send_ovh, recv_ovh)
    at = 0
    for cls in parts:
        plan.class_slices.append(slice(at, at + cls.n))
        at += cls.n
        plan.class_rows.append((
            cls.first_row, cls.members,
            np.asarray(cls.vids, dtype=np.float64),
            np.asarray(cls.op_codes, dtype=np.float64),
        ))
        durations, counters = _compute_columns(cls, cost, delays)
        plan.durations.append(durations)
        plan.counter_classes.append((cls.members, counters))
    plan.event_rows = sched.event_rows
    plan.ranks = sched.ranks
    _p2p(plan, sched, cost)
    collectives = _collectives(plan, sched, cost)
    steps = plan.steps
    runtimes = [cls.runtime for cls in parts]
    for c, start, stop in sched.order:
        if c < 0:
            steps.append(collectives[start])
        else:
            steps.extend(runtimes[c][start:stop])
    plan.merge_visits = sched.merge_visits
    plan.mpi_calls = sum(cls.mpi_positions * cls.n for cls in parts)
    plan.compute_ops = sum(len(cls.compute_at) * cls.n for cls in parts)
    plan.devirt = sum(cls.devirt_positions * cls.n for cls in parts)
    return plan


def _schedule_class(
    c: int, members, base: list, patches: list, first_row: int,
    sched: Schedule,
) -> _Class:
    """The one pass over class ``c``'s positions: check each, record its
    cost-free runtime step, append its send or receive rows to ``sched``
    and note its gates, computes and collectives.  Pairing and merging
    follow over all classes at once.

    A position's checks and columns depend only on its op or, when
    patched, its column set (which class batching shares between the
    positions of equal columns), so each is worked out once; only the
    rows and the request bookkeeping follow the positions one by one."""
    cls = _Class(members, base, first_row)
    slots = base.copy()
    for pos, column_set in patches:
        slots[pos] = column_set
    runtime, vids, op_codes = cls.runtime, cls.vids, cls.op_codes
    compute_at = cls.compute_at
    n = cls.n
    #: id of a position's op or column set -> :func:`_position`
    memo: dict[int, tuple] = {}
    #: request name -> FIFO of (position, receive number or None for an
    #: isend), like ``_Proc.requests``
    requests: dict[str, list] = {}
    sends, recvs, nprocs = sched.sends, sched.recvs, sched.nprocs

    def complete(pos: int, vid: int, received: list) -> None:
        for ri in received:
            recv = recvs[ri]
            recv[3] = vid
            recv[5] = sched.gates
        cls.gates.append((pos, received))
        sched.gates += 1

    row = first_row
    for pos, slot in enumerate(slots):
        info = memo.get(id(slot))
        if info is None:
            info = memo[id(slot)] = _position(
                base[pos], slot if type(slot) is ColumnSet else None, nprocs,
                cls.computes,
            )
        what, vid, op_code, detail = info
        vids.append(vid)
        op_codes.append(op_code)
        rows = slice(row, row + n)
        row += n
        if what == "compute":
            runtime.append((_COMPUTE, c, rows, len(compute_at), None))
            compute_at.append(detail)
            continue
        cls.mpi_positions += 1
        if what == "send":
            columns, request = detail
            lo = sched.send_rows
            sched.send_rows = lo + n
            runtime.append((_SEND, c, rows, None, slice(lo, lo + n)))
            sends.append((c, pos, vid, columns))
            if request is not None:
                requests.setdefault(request, []).append((pos, None))
        elif what == "recv":
            columns, request = detail
            devirt = columns[2]
            cls.devirt_positions += devirt
            ri = len(recvs)
            recvs.append([c, pos, vid, vid, devirt, -1, columns])
            if request is None:
                runtime.append((_RECV, c, rows, ri, None))
                complete(pos, vid, [ri])
            else:
                runtime.append((_IRECV, c, rows, None, ri))
                requests.setdefault(request, []).append((pos, ri))
        elif what == "wait":
            queue = requests.get(detail)
            if not queue:
                raise Refusal(
                    f"{base[pos].location}: wait on unknown request {detail!r}"
                )
            _posted, ri = queue.pop(0)
            if not queue:
                del requests[detail]
            if ri is None:  # an isend's: only the send overhead
                runtime.append((_ISEND_WAIT, c, rows, None, None))
            else:
                complete(pos, vid, [ri])
                runtime.append((_WAITALL, c, rows, [ri], None))
        elif what == "waitall":
            received = sorted(
                ri for queue in requests.values() for _, ri in queue
                if ri is not None
            )
            requests.clear()
            if received:
                complete(pos, vid, received)
            runtime.append((_WAITALL, c, rows, received, None))
        else:  # a collective: merged across classes
            runtime.append(None)
            cls.collectives.append(pos)
            cls.coll_fields.append(detail)

    if requests:
        pos, _ri = next(iter(requests.values()))[0]
        raise Refusal(
            f"{base[pos].location}: request {base[pos].request!r} is never "
            "waited on"
        )
    return cls


def _pair(sched: Schedule) -> tuple:
    """Pair every receive row with its send row (see
    :func:`~repro.simulator.matching.pair_channels`) and keep the receive
    rows' columns and pairing on ``sched``.

    Returns the distinct ``(receive position, send position)`` links,
    sorted, as two columns: which send positions each receive position
    reads from."""
    parts = sched.classes
    s_class, s_pos, _s_vid, s_cols = _columns(sched.sends, 4)
    r_class, r_pos, *_, r_cols = _columns(sched.recvs, 7)
    nsend, nrecv = len(s_class), len(r_class)
    sizes = np.asarray([cls.n for cls in parts], dtype=np.int64)
    s_classes = np.asarray(s_class, dtype=np.int64)
    r_classes = np.asarray(r_class, dtype=np.int64)
    s_sizes, r_sizes = sizes[s_classes], sizes[r_classes]
    i64 = np.int64
    s_rank = _member_ranks(parts, s_classes)
    s_dest, s_tag = _stacked(parts, s_classes, s_cols, (i64, i64))
    r_rank = sched.r_rank = _member_ranks(parts, r_classes)
    r_src, r_tag = sched.r_src, sched.r_tag = _stacked(
        parts, r_classes, r_cols, (i64, i64),
    )
    paired, mismatch = pair_channels(
        sched.nprocs, (s_rank, s_dest, s_tag), (r_src, r_rank, r_tag),
    )
    if mismatch is not None:
        # the earlier of the two rows where the sorted channels part
        send_row, recv_row = mismatch
        where = []
        if send_row is not None:
            index = _owner(s_sizes, send_row)
            where.append((s_class[index], s_pos[index]))
        if recv_row is not None:
            index = _owner(r_sizes, recv_row)
            where.append((r_class[index], r_pos[index]))
        c, pos = min(where, key=lambda at: at[1])
        raise Refusal(
            f"{parts[c].base[pos].location}: sends and receives do not pair "
            "up channel by channel"
        )
    # the pairing's own columns go before the row owners are allocated
    del s_rank, s_dest, s_tag
    sched.paired = paired
    read_from = sched.read_from = np.repeat(np.arange(nsend), s_sizes)[paired]
    r_of_row = sched.r_of_row = np.repeat(np.arange(nrecv), r_sizes)
    sched.r_first = [0, *itertools.accumulate(r_sizes.tolist())]
    width = nsend or 1
    links = _distinct(r_of_row * width + read_from)
    return links // width, links % width


def _owner(sizes: np.ndarray, row: int) -> int:
    """The position owning ``row`` of positions ``sizes`` rows long."""
    return int(np.searchsorted(np.cumsum(sizes), row, side="right"))


def _columns(rows: list, width: int) -> list:
    """``rows`` of ``width`` fields as ``width`` column tuples."""
    return list(zip(*rows)) if rows else [()] * width


def _member_ranks(parts: list, classes: np.ndarray) -> np.ndarray:
    """The member rank of every row of the positions numbered class after
    class as ``classes`` says, each position over its class's members."""
    counts = np.bincount(classes, minlength=len(parts)).tolist()
    return _concat([
        np.tile(cls.members, count)
        for cls, count in zip(parts, counts) if count
    ])


def _stacked(
    parts: list, classes: np.ndarray, columns: tuple, dtypes: tuple,
    fields=None,
) -> list[np.ndarray]:
    """The ``dtypes`` fields of each position's member-column tuple
    (``columns``, positions numbered class after class as ``classes``
    says), each one column over all rows: a class's positions are
    stacked at once (see
    :func:`~repro.simulator.classbatch.stack_columns`, which also
    describes ``fields``)."""
    bounds = np.searchsorted(classes, np.arange(len(parts) + 1)).tolist()
    out: list[list] = [[] for _ in dtypes]
    for cls, lo, hi in zip(parts, bounds, bounds[1:]):
        if hi > lo:
            stacked = stack_columns(columns[lo:hi], cls.n, dtypes, fields)
            for field, column in zip(out, stacked):
                field.append(column)
    return [_concat(field, dtype) for field, dtype in zip(out, dtypes)]


def _gate_needs(sched: Schedule, links: tuple) -> None:
    """Add each gate's needs to it: per sending
    class, the highest send position it reads.  Sends of a class are
    scheduled in position order, so a gate may run once every such
    class has passed that position."""
    parts = sched.classes
    link_r, link_s = links
    s_class, s_pos, *_ = _columns(sched.sends, 4)
    gate = np.asarray([recv[5] for recv in sched.recvs], dtype=np.int64)[link_r]
    sender = np.asarray(s_class, dtype=np.int64)[link_s]
    position = np.asarray(s_pos, dtype=np.int64)[link_s]
    # (gate, sending class) groups, the highest position last in each
    key = gate * len(parts) + sender
    order = np.lexsort((position, key))
    key = key[order]
    last = np.ones(len(key), dtype=bool)
    last[:-1] = key[1:] != key[:-1]
    kept = order[last]
    bounds = np.searchsorted(gate[kept], np.arange(sched.gates + 1)).tolist()
    needs = list(zip(sender[kept].tolist(), position[kept].tolist()))
    g = 0
    for cls in parts:
        gates = cls.gates
        for i, (pos, received) in enumerate(gates):
            gates[i] = (pos, needs[bounds[g]:bounds[g + 1]], received)
            g += 1


def _merge(sched: Schedule, links) -> None:
    """Merge the classes' positions into ``sched.order``: each class
    advances until its next gate needs a send not yet scheduled or it
    reaches its next collective, and a collective runs once every class
    has reached it with the same op, root and size.  Refuses when no
    class can advance.

    A class's positions between two gates need nothing from another
    class, so only gates are visited (``sched.merge_visits`` counts the
    visits): a class blocked at gate ``g`` has scheduled exactly its
    positions before ``g``, so a send at position ``p`` of class ``s`` is
    scheduled exactly when ``cursor[s] > p``."""
    parts = sched.classes
    cursor = [0] * len(parts)
    #: per class, the index of its first gate at or after its cursor
    next_gate = [0] * len(parts)
    order = sched.order
    visits = k = 0
    while True:
        stops = [
            cls.collectives[k] if k < len(cls.collectives)
            else len(cls.runtime)
            for cls in parts
        ]
        while True:
            moved = False
            for c, cls in enumerate(parts):
                at, stop = cursor[c], stops[c]
                if at == stop:
                    continue
                gates = cls.gates
                i, pos = next_gate[c], stop
                while i < len(gates):
                    gate, needs, _ = gates[i]
                    if gate >= stop:
                        break
                    visits += 1
                    # everything before the gate is scheduled
                    cursor[c] = gate
                    if not all(cursor[s] > p for s, p in needs):
                        pos = gate
                        break
                    i += 1
                next_gate[c] = i
                cursor[c] = pos
                if pos != at:
                    order.append((c, at, pos))
                    moved = True
            if not moved or cursor == stops:
                break
        if all(
            k < len(cls.collectives) and cursor[c] == stops[c]
            for c, cls in enumerate(parts)
        ):
            _collective(parts, k)
            order.append((-1, k, k + 1))
            for c in range(len(parts)):
                cursor[c] += 1
            k += 1
        elif all(cursor[c] == len(cls.runtime) for c, cls in enumerate(parts)):
            break
        else:
            raise Refusal(_stuck(sched, cursor, k, links))
    sched.instances = k
    sched.merge_visits = visits


def _collective(parts: list, k: int) -> None:
    """Check that every class's ``k``-th collective has the same op, root
    and byte count: they are one instance."""
    ref = parts[0]
    fields = ref.coll_fields[k]
    for cls in parts[1:]:
        for name, value, expected in zip(
            ("op", "root", "nbytes"), cls.coll_fields[k], fields,
        ):
            if value != expected:
                raise Refusal(
                    f"{cls.base[cls.collectives[k]].location}: collective "
                    f"#{k} {name} differs from "
                    f"{ref.base[ref.collectives[k]].location}"
                )


def _stuck(sched: Schedule, cursor: list, k: int, links) -> str:
    """Why no class can advance: the first receive whose send cannot be
    scheduled first (receive positions in order, then the send positions
    each reads), else the first collective some class never reaches."""
    parts, link_r, link_s = sched.classes, *links
    for c, cls in enumerate(parts):
        received = next(
            (r for gate, _, r in cls.gates if gate == cursor[c]), ()
        )
        for ri in received:
            lo, hi = np.searchsorted(link_r, (ri, ri + 1)).tolist()
            for index in link_s[lo:hi].tolist():
                send_c, send_pos = sched.sends[index][:2]
                if cursor[send_c] <= send_pos:
                    return (
                        f"{cls.base[sched.recvs[ri][1]].location}: receive "
                        "completes before its paired send at "
                        f"{parts[send_c].base[send_pos].location}"
                    )
    # no receive waits, so some class waits at a collective
    c = next(c for c, cls in enumerate(parts) if cursor[c] < len(cls.runtime))
    return (
        f"{parts[c].base[cursor[c]].location}: collective #{k} is not "
        "reached by every rank class"
    )


def _position(op, column_set, nprocs: int, computes: list) -> tuple:
    """``(what, vid, op code, detail)`` of a position holding ``op``, or
    the members' ops of ``column_set`` when it is patched; raises
    :class:`Refusal` when it has no lockstep rule.  Nothing is costed
    here.  The detail is a compute's index in ``computes``, to which its
    ``(op, values)`` is added, a send's ``((dest, tag, nbytes), request)``,
    a receive's ``((src, tag, devirtualized), request)``, a wait's request
    or a collective's ``(op, root, nbytes)``; a receive or wait depends
    on the requests outstanding, so :func:`_schedule_class` builds its
    step."""
    if column_set is None:
        op_type, values = type(op), field_values(op)
    else:
        op_type, values = column_set.make, column_set.values
    vid = values["vid"]
    if op_type is ops.ComputeOp:
        computes.append((op, values))
        return "compute", vid, -1, len(computes) - 1
    if op_type is ops.SendOp:
        return (
            "send", vid, MPI_OP_CODES[values["mpi_op"]],
            ((values["dest"], values["tag"], values["nbytes"]),
             values["request"]),
        )
    if op_type is ops.RecvOp or op_type is ops.DevirtRecvOp:
        for name in ("src", "tag"):
            if values[name] is ops.ANY:
                raise Refusal(f"{op.location}: receive from ANY {name}")
        return (
            "recv", vid, MPI_OP_CODES[values["mpi_op"]],
            ((values["src"], values["tag"], op_type is ops.DevirtRecvOp),
             values["request"]),
        )
    if op_type is ops.WaitOp:
        return "wait", vid, _WAIT_CODE, values["request"]
    if op_type is ops.WaitAllOp:
        return "waitall", vid, _WAITALL_CODE, None
    if op_type is ops.CollectiveOp:
        mpi_op, root, nbytes = (
            _uniform(op, values, name) for name in ("mpi_op", "root", "nbytes")
        )
        if not 0 <= root < nprocs:
            raise Refusal(f"{op.location}: root {root} is not a rank")
        return "coll", vid, MPI_OP_CODES[mpi_op], (mpi_op, root, nbytes)
    raise Refusal(f"{op.location}: no lockstep rule for {op_type.__name__}")


def _uniform(op, values: dict, name: str):
    """A field every member holds the same value of."""
    value = values[name]
    if type(value) is np.ndarray:
        if not (value == value[0]).all():
            raise Refusal(f"{op.location}: {name} varies by rank")
        return value[0].item()
    return value


# --------------------------------------------------------------------------
# emission: what compile_plan adds to a schedule
# --------------------------------------------------------------------------


def _compute_columns(cls: _Class, cost, delays: dict) -> tuple[list, list]:
    """Every compute position's duration and counter row ``(vid, ins,
    cyc, lst, dcm)``, in order.  Each distinct compute is costed once
    (:func:`_member_costs`); with per-execution noise each position then
    takes its own factors (``CostModel.noisy_cost_columns``)."""
    n, members, at = cls.n, cls.members, cls.compute_at
    delay_at = _delay_columns(delays, members)
    costs: dict[bytes, tuple] = {}
    columns, delayed = [], []
    for op, values in cls.computes:
        columns.append(_member_costs(cost, costs, values, members))
        delayed.append(delay_at.get((op.location.filename, op.location.line)))
    vids = [values["vid"] for _, values in cls.computes]
    if cost.machine.noise_sigma > 0.0:
        # row k: every member's factor for its k-th compute
        noise = cost.noise_columns(members, len(at))
        durations, counters = [], []
        for k, s in enumerate(at):
            duration, *row = cost.noisy_cost_columns(columns[s], noise[k])
            durations.append(_delayed(duration, delayed[s], n))
            counters.append((vids[s], *row))
        return durations, counters
    durations = [
        _delayed(column[0], extra, n) for column, extra in zip(columns, delayed)
    ]
    rows = [(vid, *column[1:]) for vid, column in zip(vids, columns)]
    return list(map(durations.__getitem__, at)), list(map(rows.__getitem__, at))


def _p2p(plan: Plan, sched: Schedule, cost) -> None:
    """Fill the plan's P2P identity columns and each receive position's
    gather rows, transfer times and P2P block (``plan.received``); each
    distinct send's transfer times are queried once
    (:func:`~repro.simulator.classbatch.transfer_column`)."""
    parts = sched.classes
    s_class, _s_pos, s_vid, s_cols = _columns(sched.sends, 4)
    _r_class, _r_pos, r_vid, r_wait_vid, r_devirt, _gate, _r_cols = \
        _columns(sched.recvs, 7)
    s_nbytes, s_transfer = _stacked(
        parts, np.asarray(s_class, dtype=np.int64), s_cols,
        (np.int64, np.float64),
        lambda columns: (columns[2], transfer_column(columns[2], cost)),
    )
    paired, r_first = sched.paired, sched.r_first
    transfer = s_transfer[paired]
    del s_transfer
    plan.received = [
        (paired[lo:hi], transfer[lo:hi], slice(lo, hi))
        for lo, hi in zip(r_first, r_first[1:])
    ]
    plan.send_rows = sched.send_rows
    if len(paired):
        r_of_row, r_src, r_tag = sched.r_of_row, sched.r_src, sched.r_tag
        # column-major, so that each column is written in one sweep, and
        # column by column, so that one gathered column is alive at once
        ints = plan.p2p_ints = np.empty((9, len(paired)), dtype=np.int64).T
        ints[:, 0] = r_src
        ints[:, 1] = np.asarray(s_vid, dtype=np.int64)[sched.read_from]
        ints[:, 2] = sched.r_rank
        ints[:, 3] = np.asarray(r_vid, dtype=np.int64)[r_of_row]
        ints[:, 4] = np.asarray(r_wait_vid, dtype=np.int64)[r_of_row]
        ints[:, 5] = r_tag
        ints[:, 6] = s_nbytes[paired]
        ints[:, 7] = np.where(np.asarray(r_devirt)[r_of_row], WILDCARD_CODE, r_src)
        ints[:, 8] = r_tag


def _collectives(plan: Plan, sched: Schedule, cost) -> list[tuple]:
    """The step of every collective instance, each costed once per
    distinct ``(op, nbytes)``, and the plan's collective rows."""
    parts, nprocs, k = sched.classes, sched.nprocs, sched.instances
    #: class-order index of every rank (a rooted collective's root)
    at_rank = np.empty(nprocs, dtype=np.int64)
    at_rank[sched.ranks] = np.arange(nprocs)
    overhead = cost.network.call_overhead
    #: (op code, nbytes) -> the collective's cost
    costs: dict[tuple, float] = {}
    steps, collectives = [], []
    for i in range(k):
        stops = [cls.collectives[i] for cls in parts]
        mpi_op, root, nbytes = parts[0].coll_fields[i]
        spans = [cls.rows(stop) for cls, stop in zip(parts, stops)]
        rows = spans[0] if len(spans) == 1 else np.concatenate(
            [np.arange(s.start, s.stop) for s in spans]
        )
        # keyed by op code: hashing an MpiOp member is slow
        code = parts[0].op_codes[stops[0]]
        key = (code, nbytes)
        if key not in costs:
            costs[key] = cost.collective_cost(mpi_op, nprocs, nbytes)
        steps.append((
            _COLL, -1, rows,
            (mpi_op, int(at_rank[root]), costs[key], overhead, code),
            slice(i * nprocs, (i + 1) * nprocs),
        ))
        collectives.append((i, code, root, nbytes))
    if collectives:
        plan.collective_rows = np.asarray(collectives, dtype=np.int64)
        # instance after instance, each over the classes' members in order
        vids = np.concatenate([
            np.repeat(
                np.asarray(cls.vids, dtype=np.float64)[cls.collectives[:k]],
                cls.n,
            ).reshape(k, cls.n)
            for cls in parts
        ], axis=1)
        plan.collective_parts = np.column_stack((
            np.tile(plan.ranks, k), vids.reshape(-1),
        ))
    return steps


def _counter_rows(classes: list) -> np.ndarray:
    """The counter rows (rank, vid, ins, cyc, lst, dcm) of ``classes``
    (``Plan.counter_classes``), class after class, compute position after
    compute position."""
    sizes = [len(counters) * len(members) for members, counters in classes]
    # column-major, so that each column is written in one sweep
    out = np.empty((6, sum(sizes))).T
    at = 0
    for (members, counters), size in zip(classes, sizes):
        if not counters:
            continue
        rows = out[at:at + size]
        at += size
        rows[:, 0] = np.tile(members, len(counters))
        vids, *columns = zip(*counters)
        rows[:, 1] = np.repeat(np.asarray(vids, dtype=np.float64), len(members))
        for j, column in enumerate(columns, 2):
            rows[:, j] = np.concatenate(column)
    return out


def _member_costs(cost, costs: dict, values: dict, members) -> tuple:
    """Noise-free duration and counter columns of a compute position:
    ``cost.compute_cost(rank, workload)`` of every member at once,
    without the noise factor (pure, like the engine's
    ``_compute_cache``).  ``costs`` keeps the columns of an unpatched
    position per distinct workload bits."""
    workload = [values[name] for name in WORKLOAD_FIELDS]
    if any(type(v) is np.ndarray for v in workload):
        return cost.compute_cost_columns(members, *workload)
    key = _PACK_4D(*workload)
    columns = costs.get(key)
    if columns is None:
        columns = costs[key] = cost.compute_cost_columns(members, *workload)
    return columns


def _delayed(duration, delayed, n: int):
    """A compute's duration plus the injected delays ``(member indices,
    extra seconds)`` of its statement, if any (see :func:`_delay_columns`)."""
    if delayed is None:
        return duration
    idx, extra = delayed
    duration = np.broadcast_to(duration, n).astype(np.float64)
    duration[idx] += extra
    return duration


def _delay_columns(delays: dict, members) -> dict:
    """``(filename, line) -> (member indices, extra seconds)`` for every
    injected delay on a member (the handlers add an extra only when it
    is nonzero)."""
    index = {rank: i for i, rank in enumerate(members)}
    out: dict[tuple, tuple[list, list]] = {}
    for (rank, filename, line), extra in delays.items():
        if extra and rank in index:
            idx, extras = out.setdefault((filename, line), ([], []))
            idx.append(index[rank])
            extras.append(extra)
    return {
        key: (np.asarray(idx, dtype=np.int64), np.asarray(extras))
        for key, (idx, extras) in out.items()
    }


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys in increasing order (a stable sort, which is
    linear on the runs of a nearly sorted column)."""
    keys = np.sort(keys, kind="stable")
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _concat(columns: list, dtype=np.int64) -> np.ndarray:
    """The columns end to end (empty when there are none)."""
    return np.concatenate(columns) if columns else np.empty(0, dtype=dtype)
