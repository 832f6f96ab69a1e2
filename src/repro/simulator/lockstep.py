"""Lockstep drain: a class-batched recorded run, one template position at a time.

When class batching covers every rank, each rank class runs one
template (see :mod:`repro.simulator.classbatch`): position ``k`` of every
member's stream is the same kind of operation at the same statement, and
only rank-varying fields (partners, tags, sizes, workloads) differ, held
as one numpy column over the members.  :func:`compile_plan` reads those
columns directly (no member op object is built) and checks, once at
``Engine.start``, that every position of every class has a lockstep rule
and that the point-to-point matching is fixed by program order alone:

* every position is a compute whose cost is pure (precosted, or costed
  for all members at once by ``CostModel.compute_cost_columns`` when
  per-execution noise is off), a send or isend, a receive or irecv with
  a concrete source and tag, a wait or waitall, or a collective whose
  op, root and byte count are the same on every rank.  The k-th
  collective of every class is one instance;
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

Each column operation repeats the per-event handler's arithmetic in the
same association, and each Python ``max`` or ternary becomes the
``np.where`` that keeps the same operand on ties (``np.maximum`` would
not: it differs from ``max`` on ``±0.0``).  A message's arrival is its
send time plus its transfer time, added where it is received instead of
where it is sent: the same two operands, so the same bits.  A waitall
takes its requests in position order where the engine sorts them by
post time; the maximum does not depend on that order, since clocks are
never ``-0.0`` or NaN.

When any check fails the compiler raises :class:`Refusal` with one
reason, naming the source location of the position that failed; the
engine then drains through its per-event loops unchanged.  Only per-rank
row order is contract: lockstep appends each class's rows position by
position, class after class.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.minilang.ast_nodes import MpiOp
from repro.simulator import ops
from repro.simulator.classbatch import COST_FIELDS, WORKLOAD_FIELDS, field_values
from repro.simulator.trace import MPI_OP_CODES, WILDCARD_CODE

__all__ = ["Plan", "Refusal", "compile_plan"]

#: step kinds of a compiled position.  ``_ADVANCE`` moves the clock by a
#: fixed amount (a compute's duration, an isend wait's overhead); a wait
#: on an irecv runs as a waitall over its one request (the handlers'
#: arithmetic agrees).
_ADVANCE, _SEND, _RECV, _IRECV, _WAITALL, _COLL = range(6)

_WAIT_CODE = MPI_OP_CODES[MpiOp.WAIT]
_WAITALL_CODE = MPI_OP_CODES[MpiOp.WAITALL]
_ROOTED_SPREAD = (MpiOp.BCAST, MpiOp.SCATTER)
_ROOTED_GATHER = (MpiOp.REDUCE, MpiOp.GATHER)
_PACK_4D = struct.Struct("<4d").pack
_I64_MAX = (1 << 63) - 1


class Refusal(Exception):
    """Nothing is proven: the engine's per-event drain runs instead."""


class Plan:
    """A compiled lockstep run: the classes' steps in one merged order,
    plus the rows whose values do not depend on clocks (the event and
    counter identity columns, the P2P identity columns, the collective
    instances).

    Clock vectors run in class order: the members of the first class,
    then of the second, and so on (``ranks``)."""

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        #: ``(kind, class, rows, a, b)`` per step in merged order; a
        #: collective is one step over every class (class -1)
        self.steps: list[tuple] = []
        #: the class-ordered rank vector, and each class's slice of it
        self.ranks = np.empty(0, dtype=np.int64)
        self.class_slices: list[slice] = []
        #: per class: its first event row, its members, and per position
        #: the vid and op code of its rows (op -1 marks a compute row,
        #: kind 0; every other row is kind 1, MPI); a class's event rows
        #: run position by position
        self.class_rows: list[tuple] = []
        self.event_rows = 0
        self.counters = np.empty((0, 6))
        #: send rows (every send position's members) and irecv slots
        self.send_rows = 0
        self.irecvs = 0
        self.p2p_ints = np.empty((0, 9), dtype=np.int64)
        self.collective_rows = np.empty((0, 4), dtype=np.int64)
        #: the participants' rank and vid columns, instance after instance
        self.collective_parts = np.empty((0, 2))
        #: work counts, for the engine's counters
        self.mpi_calls = 0
        self.compute_ops = 0
        self.devirt = 0

    def run(self, trace) -> list[float]:
        """Execute every step, append the rows to ``trace`` and return
        the finish clocks in rank order.  A plan runs once: it drops its
        steps as it starts, so an engine kept alive after its run does
        not keep them."""
        steps, self.steps = self.steps, []
        nprocs = self.nprocs
        events = np.empty((self.event_rows, 7))
        for first, members, vids, op_codes in self.class_rows:
            block = events[first:first + len(vids) * len(members)]
            block[:, 0] = np.tile(members, len(vids))
            block[:, 1] = np.repeat(vids, len(members))
            block[:, 6] = np.repeat(op_codes, len(members))
        events[:, 2] = events[:, 6] >= 0
        events[:, 5] = 0.0
        end, wait = events[:, 4], events[:, 5]
        #: send times by send row; an arrival is added where it is read
        sent = np.empty(self.send_rows)
        #: the P2P float rows: send time, arrival, post, completion, wait
        p2p = np.empty((len(self.p2p_ints), 5))
        #: irecv slot -> post times, until completed
        posted: list = [None] * self.irecvs
        #: the participants' arrival and completion columns
        coll = np.empty((2, len(self.collective_parts)))
        slices = self.class_slices
        clks = [np.zeros(s.stop - s.start) for s in slices]
        where = np.where
        for kind, c, rows, a, b in steps:
            if kind == _COLL:
                mpi_op, root, cost, ovh = a
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
                wait[rows] = where(w > 0.0, w, 0.0)
                end[rows] = clk
                coll[0, b] = arrival
                coll[1, b] = clk
                clks = [clk[s] for s in slices]
                continue
            clk = clks[c]
            if kind == _ADVANCE:
                clk = clk + a
            elif kind == _SEND:
                sent[b] = clk
                clk = clk + a
            elif kind == _RECV:
                gather, transfer, block = a
                send_time = sent[gather]
                arrival = send_time + transfer
                start = clk
                clk = where(arrival > start, arrival, start) + b
                w = arrival - start
                w = where(w < 0.0, 0.0, w)
                wait[rows] = w
                _p2p_rows(p2p[block], send_time, arrival, start, clk, w)
            elif kind == _IRECV:
                posted[b] = clk
                clk = clk + a
            else:  # _WAITALL
                start = latest = clk
                taken = []
                for slot, gather, transfer, block in a:
                    send_time = sent[gather]
                    arrival = send_time + transfer
                    post = posted[slot]
                    ready = where(post > arrival, post, arrival)
                    latest = where(ready > latest, ready, latest)
                    taken.append((block, send_time, arrival, post, ready))
                clk = latest + b
                w = latest - start
                wait[rows] = where(w > 0.0, w, 0.0)
                for block, send_time, arrival, post, ready in taken:
                    w = ready - start
                    _p2p_rows(
                        p2p[block], send_time, arrival, post, clk,
                        where(w > 0.0, w, 0.0),
                    )
            clks[c] = clk
            end[rows] = clk
        # a position starts where the class's previous one ended
        for first, members, vids, _ in self.class_rows:
            if len(vids):
                n = len(members)
                last = first + len(vids) * n
                events[first:first + n, 3] = 0.0
                events[first + n:last, 3] = events[first:last - n, 4]
        trace.append_block(events, self.counters)
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


def _p2p_rows(rows: np.ndarray, *columns) -> None:
    """Fill a block of P2P float rows column by column."""
    for j, column in enumerate(columns):
        rows[:, j] = column


class _Class:
    """One class's compiled positions, over its member columns.

    Member ``i`` is rank ``members[i]``.  ``steps`` holds one partial
    step per position until :func:`compile_plan` has paired the messages
    and merged the classes."""

    def __init__(self, members, base: list) -> None:
        self.members = np.asarray(members, dtype=np.int64)
        self.n = len(members)
        self.base = base
        self.steps: list[tuple] = []
        self.vids: list[int] = []
        self.op_codes: list[int] = []
        self.counters: list[tuple] = []
        #: send position -> (dest, tag, nbytes) columns
        self.sends: dict[int, tuple] = {}
        #: receive positions in order, each (position, src, tag, devirt)
        self.recvs: list[tuple] = []
        #: irecv position -> position of the wait or waitall completing it
        self.completed_at: dict[int, int] = {}
        #: the positions of the class's collectives, in order
        self.collectives: list[int] = []
        self.mpi_positions = 0
        self.devirt_positions = 0
        #: filled once the messages are paired: the first event row, the
        #: runtime step of every position but the collectives, the send
        #: positions each receive-completing position needs scheduled
        #: first, as ``(receive position, send position index)``, and
        #: each send position's index among all classes' send positions
        self.first_row = 0
        self.runtime: list = []
        self.needs: dict[int, list] = {}
        self.send_index: dict[int, int] = {}

    def rows(self, pos: int) -> slice:
        """The event rows of one position."""
        first = self.first_row + pos * self.n
        return slice(first, first + self.n)


def compile_plan(
    classes, nprocs: int, *, cost, delays: dict, send_ovh: float,
    recv_ovh: float,
) -> Plan:
    """Prove the lockstep conditions for batched classes ``(members, base,
    patches)`` that together cover every rank once (see the module
    docstring) and compile their plan; raises :class:`Refusal` with the
    first failed condition."""
    parts = [
        _compile_class(
            members, base, patches, nprocs=nprocs, cost=cost,
            delays=delays, send_ovh=send_ovh, recv_ovh=recv_ovh,
        )
        for members, base, patches in classes
    ]
    plan = Plan(nprocs)
    first = at = 0
    for cls in parts:
        cls.first_row = first
        plan.class_slices.append(slice(at, at + cls.n))
        plan.class_rows.append((
            first, cls.members, np.asarray(cls.vids, dtype=np.float64),
            np.asarray(cls.op_codes, dtype=np.float64),
        ))
        first += len(cls.steps) * cls.n
        at += cls.n
    plan.event_rows = first
    plan.ranks = _concat([cls.members for cls in parts])
    send_at, send_first, received = _messages(plan, parts)
    _runtime_steps(plan, parts, send_first, received, recv_ovh)
    _merge(plan, parts, send_at, cost)

    sizes = [len(cls.counters) * cls.n for cls in parts]
    # column-major, so that each column is written in one sweep
    plan.counters = np.empty((6, sum(sizes))).T
    at = 0
    for cls, size in zip(parts, sizes):
        _counter_rows(cls, plan.counters[at:at + size])
        at += size
    plan.mpi_calls = sum(cls.mpi_positions * cls.n for cls in parts)
    plan.compute_ops = sum(len(cls.counters) * cls.n for cls in parts)
    plan.devirt = sum(cls.devirt_positions * cls.n for cls in parts)
    return plan


def _messages(plan: Plan, parts: list) -> tuple[list, list, dict]:
    """Pair every receive row with its send row (see :func:`_pair`) and
    fill the plan's send rows and P2P identity columns.

    Returns the send positions ``(class, position)`` in send-row order,
    their first send rows, and per receive position ``(class,
    position)``: the send rows its members read, their transfer times,
    its block of P2P rows, and the indices of the send positions it
    reads from."""
    # Send rows: every send position's members, class after class.
    send_at = [(c, pos) for c, cls in enumerate(parts) for pos in cls.sends]
    s_first, s_of_row = _layout(parts, send_at)
    s_transfer = np.empty(s_first[-1])
    for index, (c, pos) in enumerate(send_at):
        parts[c].send_index[pos] = index
        lo, hi = s_first[index], s_first[index + 1]
        s_transfer[lo:hi] = parts[c].steps[pos][2]
    s_dest, s_tag, s_nbytes = (
        _concat([parts[c].sends[pos][i] for c, pos in send_at])
        for i in range(3)
    )
    s_vid = np.asarray(
        [parts[c].vids[pos] for c, pos in send_at], dtype=np.int64
    )
    # Receive rows: every receive position's members, class after class.
    recv_at = [(c, recv) for c, cls in enumerate(parts) for recv in cls.recvs]
    r_first, r_of_row = _layout(parts, recv_at)
    r_src = _concat([recv[1] for _, recv in recv_at])
    r_tag = _concat([recv[2] for _, recv in recv_at])
    r_rank = _concat([parts[c].members for c, _ in recv_at])
    paired = _pair(
        parts, plan.nprocs,
        (_concat([parts[c].members for c, _ in send_at]), s_dest, s_tag),
        (r_src, r_rank, r_tag),
        lambda row: send_at[s_of_row[row]],
        lambda row: (recv_at[r_of_row[row]][0], recv_at[r_of_row[row]][1][0]),
    )
    # each receive row's send position, and the send positions each
    # receive position reads from, as distinct (receive position, send
    # position) links in receive position order
    read_from = s_of_row[paired]
    nsend = len(send_at) or 1
    links = _distinct(r_of_row * nsend + read_from)
    bounds = np.searchsorted(
        links // nsend, np.arange(len(recv_at) + 1)
    ).tolist()
    sources = (links % nsend).tolist()

    received: dict[tuple, tuple] = {}
    block_vids: list[tuple] = []
    transfer = s_transfer[paired]
    for index, (c, (pos, *_)) in enumerate(recv_at):
        cls = parts[c]
        lo, hi = r_first[index], r_first[index + 1]
        received[c, pos] = (
            paired[lo:hi], transfer[lo:hi], slice(lo, hi),
            sources[bounds[index]:bounds[index + 1]],
        )
        block_vids.append(
            (cls.vids[pos], cls.vids[cls.completed_at.get(pos, pos)])
        )
    if recv_at:
        recv_vid, wait_vid = (
            np.asarray(col)[r_of_row] for col in zip(*block_vids)
        )
        devirt = np.asarray([recv[3] for _, recv in recv_at])[r_of_row]
        # column-major, so that each column is written in one sweep
        ints = plan.p2p_ints = np.empty((9, len(paired)), dtype=np.int64).T
        for j, column in enumerate((
            r_src, s_vid[read_from], r_rank, recv_vid, wait_vid, r_tag,
            s_nbytes[paired], np.where(devirt, WILDCARD_CODE, r_src), r_tag,
        )):
            ints[:, j] = column
    plan.send_rows = int(s_first[-1])
    return send_at, s_first, received


def _runtime_steps(
    plan: Plan, parts: list, send_first: list, received: dict, recv_ovh,
) -> None:
    """Each class's runtime step per position (collectives aside: they
    are merged across classes) and the sends each receive-completing
    position needs scheduled first."""
    slot = 0
    for c, cls in enumerate(parts):
        slots: dict[int, int] = {}
        n = cls.n
        first = cls.first_row
        for pos, step in enumerate(cls.steps):
            kind = step[0]
            rows = slice(first, first + n)
            first += n
            if kind == _ADVANCE:
                out = (_ADVANCE, c, rows, step[1], None)
            elif kind == _SEND:
                lo = send_first[cls.send_index[pos]]
                out = (_SEND, c, rows, step[1], slice(lo, lo + cls.n))
            elif kind == _RECV:
                gather, transfer, block, deps = received[c, pos]
                out = (_RECV, c, rows, (gather, transfer, block), recv_ovh)
                cls.needs[pos] = [(pos, d) for d in deps]
            elif kind == _IRECV:
                slots[pos] = slot
                out = (_IRECV, c, rows, step[1], slot)
                slot += 1
            elif kind == _WAITALL:
                reqs = []
                needs = []
                for irecv_pos in step[1]:
                    gather, transfer, block, deps = received[c, irecv_pos]
                    reqs.append((slots[irecv_pos], gather, transfer, block))
                    needs.extend((irecv_pos, d) for d in deps)
                out = (_WAITALL, c, rows, reqs, recv_ovh)
                if needs:
                    cls.needs[pos] = needs
            else:  # _COLL: merged across classes
                out = None
            cls.runtime.append(out)
    plan.irecvs = slot


def _compile_class(
    members, base: list, patches: list, *, nprocs: int, cost, delays: dict,
    send_ovh: float, recv_ovh: float,
) -> _Class:
    """Check every position of one class and compile its partial steps;
    messages are paired and collectives merged across classes later.

    A position's checks and columns depend only on its op or, when
    patched, its column set (which class batching shares between the
    positions of equal columns), so each is worked out once; only the
    request bookkeeping follows the positions one by one."""
    cls = _Class(members, base)
    patched = dict(patches)
    steps, vids, op_codes = cls.steps, cls.vids, cls.op_codes
    #: id of a position's op or column set -> :func:`_position`
    memo: dict[int, tuple] = {}
    context = (
        cls.n, cls.members, cost, _delay_columns(delays, members), {},
        cost.machine.noise_sigma > 0.0, nprocs,
    )
    #: request name -> FIFO of (kind, position), like ``_Proc.requests``
    requests: dict[str, list] = {}

    for pos, op in enumerate(base):
        column_set = patched.get(pos)
        key = id(op) if column_set is None else id(column_set)
        info = memo.get(key)
        if info is None:
            info = memo[key] = _position(op, column_set, *context)
        what, vid, op_code, step, detail = info
        vids.append(vid)
        op_codes.append(op_code)
        if what == "compute":
            steps.append(step)
            cls.counters.append(detail)
            continue
        cls.mpi_positions += 1
        if what == "send":
            steps.append(step)
            cls.sends[pos], request = detail
            if request is not None:
                requests.setdefault(request, []).append(("send", pos))
        elif what == "recv":
            (src, tag, devirt), request = detail
            cls.devirt_positions += devirt
            cls.recvs.append((pos, src, tag, devirt))
            if request is None:
                steps.append((_RECV,))
            else:
                steps.append((_IRECV, recv_ovh))
                requests.setdefault(request, []).append(("recv", pos))
        elif what == "wait":
            queue = requests.get(detail)
            if not queue:
                raise Refusal(
                    f"{op.location}: wait on unknown request {detail!r}"
                )
            kind, posted = queue.pop(0)
            if not queue:
                del requests[detail]
            if kind == "send":
                steps.append((_ADVANCE, send_ovh))
            else:
                cls.completed_at[posted] = pos
                steps.append((_WAITALL, [posted]))
        elif what == "waitall":
            posted = sorted(
                p for queue in requests.values() for kind, p in queue
                if kind == "recv"
            )
            requests.clear()
            for p in posted:
                cls.completed_at[p] = pos
            steps.append((_WAITALL, posted))
        else:  # a collective
            steps.append(step)
            cls.collectives.append(pos)

    if requests:
        _kind, pos = next(iter(requests.values()))[0]
        raise Refusal(
            f"{base[pos].location}: request {base[pos].request!r} is never "
            "waited on"
        )
    return cls


def _position(
    op, column_set, n: int, members, cost, delay_at: dict, costs: dict,
    noisy: bool, nprocs: int,
) -> tuple:
    """``(what, vid, op code, step, detail)`` of a position holding
    ``op``, or the members' ops of ``column_set`` when it is patched;
    raises :class:`Refusal` when it has no lockstep rule.  The step of a
    receive or wait depends on the requests outstanding, so
    :func:`_compile_class` builds it."""
    if column_set is None:
        op_type, values = type(op), field_values(op)
    else:
        op_type, values = column_set.make, column_set.values
    vid = values["vid"]
    if op_type is ops.PrecostedComputeOp:
        duration, *row = (values[name] for name in COST_FIELDS)
    elif op_type is ops.ComputeOp:
        if noisy:
            raise Refusal(
                f"{op.location}: compute cost draws per-execution noise"
            )
        duration, *row = _member_costs(cost, costs, values, members)
    if op_type is ops.PrecostedComputeOp or op_type is ops.ComputeOp:
        delayed = delay_at.get((op.location.filename, op.location.line))
        if delayed is not None:
            idx, extra = delayed
            duration = np.broadcast_to(duration, n).astype(np.float64)
            duration[idx] += extra
        return "compute", vid, -1, (_ADVANCE, duration), (vid, *row)
    if op_type is ops.PrecostedSendOp:
        # the engine's batched sends are always precosted
        return (
            "send", vid, values["op_code"],
            (_SEND, values["overhead"], values["transfer"]),
            (tuple(
                _ints(values, name, n) for name in ("dest", "tag", "nbytes")
            ), values["request"]),
        )
    if op_type is ops.RecvOp or op_type is ops.DevirtRecvOp:
        for name in ("src", "tag"):
            if values[name] is ops.ANY:
                raise Refusal(f"{op.location}: receive from ANY {name}")
        return (
            "recv", vid, MPI_OP_CODES[values["mpi_op"]], None,
            ((_ints(values, "src", n), _ints(values, "tag", n),
              op_type is ops.DevirtRecvOp), values["request"]),
        )
    if op_type is ops.WaitOp:
        return "wait", vid, _WAIT_CODE, None, values["request"]
    if op_type is ops.WaitAllOp:
        return "waitall", vid, _WAITALL_CODE, None, None
    if op_type is ops.CollectiveOp:
        mpi_op, root, nbytes = (
            _uniform(op, values, name) for name in ("mpi_op", "root", "nbytes")
        )
        if not 0 <= root < nprocs:
            raise Refusal(f"{op.location}: root {root} is not a rank")
        return (
            "coll", vid, MPI_OP_CODES[mpi_op], (_COLL, mpi_op, root, nbytes),
            None,
        )
    raise Refusal(f"{op.location}: no lockstep rule for {op_type.__name__}")


def _uniform(op, values: dict, name: str):
    """A field every member holds the same value of."""
    value = values[name]
    if type(value) is np.ndarray:
        if not (value == value[0]).all():
            raise Refusal(f"{op.location}: {name} varies by rank")
        return value[0].item()
    return value


def _ints(values: dict, name: str, n: int) -> np.ndarray:
    """An integer field as a per-member column."""
    value = values[name]
    if type(value) is np.ndarray:
        return value
    return np.full(n, value, dtype=np.int64)


def _merge(plan: Plan, parts: list, send_at: list, cost) -> None:
    """Merge the classes' steps into ``plan.steps``: each class advances
    until its next position needs a send not yet scheduled or reaches
    its next collective, and a collective runs once every class has
    reached it.  Refuses when no class can advance."""
    scheduled = [False] * len(send_at)
    cursor = [0] * len(parts)
    steps = plan.steps
    #: class-order index of every rank (a rooted collective's root)
    at_rank = np.empty(plan.nprocs, dtype=np.int64)
    at_rank[plan.ranks] = np.arange(plan.nprocs)
    collectives: list[tuple] = []
    vids: list[np.ndarray] = []
    k = 0
    while True:
        moved = False
        for c, cls in enumerate(parts):
            pos = at = cursor[c]
            stop = (
                cls.collectives[k] if k < len(cls.collectives)
                else len(cls.steps)
            )
            needs, runtime, send_index = cls.needs, cls.runtime, cls.send_index
            while pos < stop:
                need = needs.get(pos)
                if need is not None and not all(scheduled[d] for _, d in need):
                    break
                steps.append(runtime[pos])
                index = send_index.get(pos)
                if index is not None:
                    scheduled[index] = True
                pos += 1
            cursor[c] = pos
            moved = moved or pos != at
        if all(
            k < len(cls.collectives) and cursor[c] == cls.collectives[k]
            for c, cls in enumerate(parts)
        ):
            mpi_op, root, nbytes = _collective(parts, k)
            spans = [cls.rows(cls.collectives[k]) for cls in parts]
            rows = spans[0] if len(spans) == 1 else np.concatenate(
                [np.arange(s.start, s.stop) for s in spans]
            )
            nprocs = plan.nprocs
            steps.append((
                _COLL, -1, rows,
                (mpi_op, int(at_rank[root]),
                 cost.collective_cost(mpi_op, nprocs, nbytes),
                 cost.network.call_overhead),
                slice(k * nprocs, (k + 1) * nprocs),
            ))
            collectives.append((k, MPI_OP_CODES[mpi_op], root, nbytes))
            for c, cls in enumerate(parts):
                vids.append(np.full(cls.n, cls.vids[cursor[c]]))
                cursor[c] += 1
            k += 1
        elif all(cursor[c] == len(cls.steps) for c, cls in enumerate(parts)):
            break
        elif not moved:
            raise Refusal(_stuck(parts, cursor, k, scheduled, send_at))
    if collectives:
        plan.collective_rows = np.asarray(collectives, dtype=np.int64)
        plan.collective_parts = np.column_stack((
            np.tile(plan.ranks, k), np.concatenate(vids),
        )).astype(np.float64)


def _collective(parts: list, k: int) -> tuple:
    """The op, root and byte count of every class's ``k``-th collective,
    which must agree: they are one instance."""
    ref = parts[0]
    ref_pos = ref.collectives[k]
    fields = ref.steps[ref_pos][1:]
    for cls in parts[1:]:
        pos = cls.collectives[k]
        for name, value, expected in zip(
            ("op", "root", "nbytes"), cls.steps[pos][1:], fields,
        ):
            if value != expected:
                raise Refusal(
                    f"{cls.base[pos].location}: collective #{k} {name} "
                    f"differs from {ref.base[ref_pos].location}"
                )
    return fields


def _stuck(parts: list, cursor: list, k: int, scheduled: list, send_at) -> str:
    """Why no class can advance: the first receive whose send cannot be
    scheduled first, else the first collective some class never reaches."""
    for c, cls in enumerate(parts):
        for recv_pos, index in cls.needs.get(cursor[c], ()):
            if not scheduled[index]:
                send_c, send_pos = send_at[index]
                return (
                    f"{cls.base[recv_pos].location}: receive completes "
                    "before its paired send at "
                    f"{parts[send_c].base[send_pos].location}"
                )
    # no receive waits, so some class waits at a collective
    c = next(c for c, cls in enumerate(parts) if cursor[c] < len(cls.steps))
    return (
        f"{parts[c].base[cursor[c]].location}: collective #{k} is not "
        "reached by every rank class"
    )


def _counter_rows(cls: _Class, out: np.ndarray) -> None:
    """Fill ``out`` with the class's counter rows (rank, vid, ins, cyc,
    lst, dcm), compute position after compute position."""
    if not cls.counters:
        return
    positions = len(cls.counters)
    out[:, 0] = np.tile(cls.members, positions)
    for j, values in enumerate(zip(*cls.counters), 1):
        column = out[:, j].reshape(positions, cls.n)
        if any(type(v) is np.ndarray for v in values):
            for i, value in enumerate(values):
                column[i] = value
        else:
            column[:] = np.asarray(values, dtype=np.float64)[:, None]


def _member_costs(cost, costs: dict, values: dict, members) -> tuple:
    """Duration and counter columns of a compute position whose cost is
    not precosted: ``cost.compute_cost(rank, workload)`` of every member
    at once (pure when per-execution noise is off, like the engine's
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


def _pair(
    parts: list, nprocs: int, sends: tuple, recvs: tuple, send_at, recv_at,
) -> np.ndarray:
    """The send row each receive row pairs with.

    MPI's non-overtaking rule pairs the k-th receive of each channel
    ``(source, destination, tag)`` with its k-th send.  Rows run class
    after class, position by position, and a rank belongs to one class,
    so the rows of one channel already run in its sender's (and its
    receiver's) program order: a stable sort of both sides by channel
    lines the pairs up.  ``send_at``/``recv_at`` map a row to its
    ``(class, position)``."""
    keys = _channel_keys(nprocs, sends, recvs)
    orders = [np.argsort(key, kind="stable") for key in keys]
    ordered = [key[order] for key, order in zip(keys, orders)]
    m = min(len(order) for order in orders)
    differ = np.flatnonzero(ordered[0][:m] != ordered[1][:m])
    if len(differ) or len(orders[0]) != len(orders[1]):
        k = differ[0] if len(differ) else m
        c, pos = min(
            (at(order[k]) for order, at in zip(orders, (send_at, recv_at))
             if k < len(order)),
            key=lambda where: where[1],
        )
        raise Refusal(
            f"{parts[c].base[pos].location}: sends and receives do not pair "
            "up channel by channel"
        )
    paired = np.empty(len(orders[1]), dtype=np.int64)
    paired[orders[1]] = orders[0]
    return paired


def _channel_keys(nprocs: int, *sides: tuple) -> list[np.ndarray]:
    """One int64 key per row of each side's ``(source, destination,
    tag)`` columns, ordered like the channels; tags are first numbered
    densely when the key would not fit int64 otherwise."""
    tags = [tag for _, _, tag in sides]
    width = max((int(tag.max()) for tag in tags if len(tag)), default=0) + 1
    if nprocs * nprocs * width > _I64_MAX:
        distinct, dense = np.unique(np.concatenate(tags), return_inverse=True)
        width = len(distinct)
        tags = np.split(dense.reshape(-1), [len(tags[0])])
    return [
        (src * nprocs + dest) * width + tag
        for (src, dest, _), tag in zip(sides, tags)
    ]


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys in increasing order (a stable sort, which is
    linear on the runs of a nearly sorted column)."""
    keys = np.sort(keys, kind="stable")
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _layout(parts: list, at: list) -> tuple[np.ndarray, np.ndarray]:
    """Rows for ``at``'s positions ``(class, ...)``, one per member: each
    position's first row (plus the end, a list), and each row's
    position."""
    sizes = [parts[c].n for c, *_ in at]
    first = [0]
    for size in sizes:
        first.append(first[-1] + size)
    return first, np.repeat(np.arange(len(at)), sizes)


def _concat(columns: list, dtype=np.int64) -> np.ndarray:
    """The columns end to end (empty when there are none)."""
    return np.concatenate(columns) if columns else np.empty(0, dtype=dtype)
