"""Lockstep drain: a rank-symmetric recorded run, one template position at a time.

When class batching proves that one rank class covers every rank, every
rank's op stream is a patched copy of one template (see
:mod:`repro.simulator.classbatch`): position ``k`` of each stream is the
same kind of operation at the same statement, and only rank-varying
fields (partners, tags, sizes, workloads) differ.  :func:`compile_plan`
checks, once at ``Engine.start``, that every position has a lockstep rule
and that the point-to-point matching is fixed by program order alone:

* every position is a compute whose cost is pure (precosted, or costed
  per member once per distinct workload when per-execution noise is
  off), a send or isend, a receive or irecv with a concrete source and
  tag, a wait or waitall, or a collective whose op, root and byte count
  are the same on every rank;
* MPI's non-overtaking rule pairs the k-th receive of a channel
  ``(source, destination, tag)`` with its k-th send.  With concrete
  sources that pairing is static, and the compiler proves that it pairs
  each receive position with exactly one send position, as a permutation
  of the members, and that the send position comes before the position
  that completes the receive (the blocking receive itself, or the wait or
  waitall of its request);
* every wait names an outstanding request, and every request is waited
  on.

Then every value a position reads was written by an earlier position, so
running all ranks through position ``k`` before any rank starts ``k + 1``
is one legal schedule of the run.  Every receive source is concrete, so
by Kahn's determinacy all schedules give the same clocks and rows, and
this one completes: the run cannot deadlock or raise.  :meth:`Plan.run`
executes it as float64 columns over the members, a few numpy operations
per position.

Each column operation repeats the per-event handler's arithmetic in the
same association, and each Python ``max`` or ternary becomes the
``np.where`` that keeps the same operand on ties (``np.maximum`` would
not: it differs from ``max`` on ``±0.0``).  A waitall takes its requests
in position order where the engine sorts them by post time; the maximum
does not depend on that order, since clocks are never ``-0.0`` or NaN.

When any check fails the compiler raises :class:`Refusal` with one
reason, naming the source location of the position that failed; the
engine then drains through its per-event loops unchanged.  Only per-rank
row order is contract: lockstep appends rows position by position.
"""

from __future__ import annotations

import numpy as np

from repro.minilang.ast_nodes import MpiOp
from repro.simulator import ops
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


class Refusal(Exception):
    """Nothing is proven: the engine's per-event drain runs instead."""


class Plan:
    """A compiled lockstep run: one step per template position, plus the
    rows whose values do not depend on clocks (counter rows, the P2P
    identity columns, the collective instances)."""

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        #: one ``(kind, *args)`` tuple per position
        self.steps: list[tuple] = []
        #: per position: the event rows' vid and op columns (op -1 marks
        #: a compute row, kind 0; every other row is kind 1, MPI)
        self.vids: list[int] = []
        self.op_codes: list[int] = []
        self.counters = np.empty((0, 6))
        self.p2p_ints = np.empty((0, 9), dtype=np.int64)
        self.collective_rows = np.empty((0, 4), dtype=np.int64)
        self.collective_vids: list[int] = []
        #: work counts, for the engine's counters
        self.mpi_calls = 0
        self.compute_ops = 0
        self.devirt = 0

    def run(self, trace) -> list[float]:
        """Execute every position over all members, append the rows to
        ``trace`` and return the members' finish clocks."""
        n = self.nprocs
        npos = len(self.steps)
        ranks = np.arange(n, dtype=np.float64)
        events = np.empty((npos * n, 7))
        events[:, 0] = np.tile(ranks, npos)
        events[:, 1] = np.repeat(np.asarray(self.vids, dtype=np.float64), n)
        op_codes = np.repeat(np.asarray(self.op_codes, dtype=np.float64), n)
        events[:, 2] = op_codes >= 0
        events[:, 5] = 0.0
        events[:, 6] = op_codes
        #: the P2P float columns, one row per column until the end
        p2p = np.empty((5, len(self.p2p_ints)))
        ncoll = len(self.collective_vids)
        parts = np.empty((ncoll * n, 4))
        clk = np.zeros(n)
        #: send position -> (send times, arrivals), until received
        sent: dict[int, tuple] = {}
        #: irecv position -> post times, until completed
        posted: dict[int, np.ndarray] = {}
        where = np.where
        for pos, step in enumerate(self.steps):
            rows = events[pos * n:(pos + 1) * n]
            rows[:, 3] = clk
            kind = step[0]
            if kind == _ADVANCE:
                clk = clk + step[1]
            elif kind == _SEND:
                sent[pos] = (clk, clk + step[2])
                clk = clk + step[1]
            elif kind == _RECV:
                _, send_pos, src, ovh, block = step
                send_time, arrival = sent.pop(send_pos)
                send_time = send_time[src]
                arrival = arrival[src]
                start = clk
                clk = where(arrival > start, arrival, start) + ovh
                wait = arrival - start
                wait = where(wait < 0.0, 0.0, wait)
                rows[:, 5] = wait
                p2p[:, block * n:(block + 1) * n] = (
                    send_time, arrival, start, clk, wait,
                )
            elif kind == _IRECV:
                posted[pos] = clk
                clk = clk + step[1]
            elif kind == _WAITALL:
                _, reqs, ovh = step
                start = clk
                latest = start
                taken = []
                for irecv_pos, send_pos, src, block in reqs:
                    send_time, arrival = sent.pop(send_pos)
                    send_time = send_time[src]
                    arrival = arrival[src]
                    post = posted.pop(irecv_pos)
                    ready = where(post > arrival, post, arrival)
                    latest = where(ready > latest, ready, latest)
                    taken.append((block, send_time, arrival, post, ready))
                clk = latest + ovh
                wait = latest - start
                rows[:, 5] = where(wait > 0.0, wait, 0.0)
                for block, send_time, arrival, post, ready in taken:
                    wait = ready - start
                    p2p[:, block * n:(block + 1) * n] = (
                        send_time, arrival, post, clk,
                        where(wait > 0.0, wait, 0.0),
                    )
            else:  # _COLL
                _, mpi_op, root, cost, ovh, index = step
                arrival = clk
                if mpi_op in _ROOTED_SPREAD:
                    late = arrival[root] + cost
                    clk = where(late > arrival, late, arrival)
                elif mpi_op in _ROOTED_GATHER:
                    clk = arrival + ovh
                    clk[root] = arrival.max() + cost
                else:
                    clk = np.full(n, arrival.max() + cost)
                wait = clk - arrival - cost
                rows[:, 5] = where(wait > 0.0, wait, 0.0)
                block = parts[index * n:(index + 1) * n]
                block[:, 2] = arrival
                block[:, 3] = clk
            rows[:, 4] = clk
        trace.append_block(events, self.counters)
        trace.p2p.append_block(self.p2p_ints, np.ascontiguousarray(p2p.T))
        if ncoll:
            parts[:, 0] = np.tile(ranks, ncoll)
            parts[:, 1] = np.repeat(
                np.asarray(self.collective_vids, dtype=np.float64), n
            )
            trace.collectives.append_block(
                self.collective_rows, np.full(ncoll, n), parts
            )
        return clk.tolist()


class _Columns:
    """Per-member field columns of a template position.

    A position outside the patches holds one op for every member, so its
    fields are scalars; a patched position holds one op per member, and
    its columns are cached per patch list (class batching shares one
    list between the positions of equal fan-outs)."""

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self._cache: dict[tuple, object] = {}

    def kind(self, op, per_member) -> type:
        """The position's op type, the same for every member."""
        op_type = type(op)
        if per_member is not None:
            key = (id(per_member), "__type__")
            same = self._cache.get(key)
            if same is None:
                same = self._cache[key] = all(
                    type(o) is op_type for o in per_member
                )
            if not same:
                raise Refusal(f"{op.location}: op type varies by rank")
        return op_type

    def uniform(self, op, per_member, name: str):
        """A field every member holds the same value of."""
        value = getattr(op, name)
        if per_member is not None:
            key = (id(per_member), name, "uniform")
            same = self._cache.get(key)
            if same is None:
                same = self._cache[key] = all(
                    getattr(o, name) == value for o in per_member
                )
            if not same:
                raise Refusal(f"{op.location}: {name} varies by rank")
        return value

    def holds_any(self, op, per_member, name: str) -> bool:
        """Does any member's field hold the ``ANY`` wildcard?"""
        if per_member is None:
            return getattr(op, name) is ops.ANY
        return self.derived(
            (id(per_member), name, "any"),
            lambda: any(getattr(o, name) is ops.ANY for o in per_member),
        )

    def scalar_or_column(self, op, per_member, name: str):
        """A float field as a scalar (unpatched) or a per-member column."""
        if per_member is None:
            return getattr(op, name)
        return self.column(op, per_member, name, np.float64)

    def column(self, op, per_member, name: str, dtype=np.int64) -> np.ndarray:
        """The field as a per-member column."""
        if per_member is None:
            return np.full(self.nprocs, getattr(op, name), dtype=dtype)
        key = (id(per_member), name)
        col = self._cache.get(key)
        if col is None:
            col = self._cache[key] = np.asarray(
                [getattr(o, name) for o in per_member], dtype=dtype
            )
        return col

    def derived(self, key: tuple, build):
        """A per-member value cached under ``key`` (built once)."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value


def compile_plan(
    members, base: list, patches: list, *, cost, delays: dict,
    send_ovh: float, recv_ovh: float,
) -> Plan:
    """Prove the lockstep conditions for one class covering every rank
    (see the module docstring) and compile its plan; raises
    :class:`Refusal` with the first failed condition.  A class lists its
    ranks in ascending order, so member ``i`` is rank ``i``."""
    n = len(members)
    patched = dict(patches)
    cols = _Columns(n)
    plan = Plan(n)
    steps, vids, op_codes = plan.steps, plan.vids, plan.op_codes
    ranks = np.arange(n)
    delay_at = _delay_columns(delays, n)
    noisy = cost.machine.noise_sigma > 0.0
    counters: list[tuple] = []
    #: send position -> (dest, tag, nbytes) columns
    sends: dict[int, tuple] = {}
    #: receive positions in order, each (position, src, tag, devirt)
    recvs: list[tuple] = []
    #: request name -> FIFO of (kind, position), like ``_Proc.requests``
    requests: dict[str, list] = {}
    #: irecv position -> position of the wait or waitall completing it
    completed_at: dict[int, int] = {}
    collectives: list[tuple] = []
    mpi_positions = 0
    devirt_positions = 0

    for pos, op in enumerate(base):
        per_member = patched.get(pos)
        if per_member is not None:
            # the representative's own op may be the plain twin of what
            # the members run (not precosted): read the member ops only
            op = per_member[0]
        op_type = cols.kind(op, per_member)
        vids.append(cols.uniform(op, per_member, "vid"))
        if op_type is ops.PrecostedComputeOp:
            duration = cols.scalar_or_column(op, per_member, "duration")
            row = tuple(
                cols.scalar_or_column(op, per_member, name)
                for name in ("ins", "cyc", "lst", "dcm")
            )
        elif op_type is ops.ComputeOp:
            if noisy:
                raise Refusal(
                    f"{op.location}: compute cost draws per-execution noise"
                )
            duration, *row = _member_costs(cost, cols, op, per_member, n)
            row = tuple(row)
        if op_type is ops.PrecostedComputeOp or op_type is ops.ComputeOp:
            delayed = delay_at.get((op.location.filename, op.location.line))
            if delayed is not None:
                idx, extra = delayed
                duration = np.broadcast_to(duration, n).astype(np.float64)
                duration[idx] += extra
            steps.append((_ADVANCE, duration))
            op_codes.append(-1)
            counters.append((vids[-1], *row))
            continue
        mpi_positions += 1
        if op_type is ops.PrecostedSendOp:
            # the engine's batched sends are always precosted
            op_codes.append(cols.uniform(op, per_member, "op_code"))
            request = cols.uniform(op, per_member, "request")
            steps.append((
                _SEND, cols.scalar_or_column(op, per_member, "overhead"),
                cols.scalar_or_column(op, per_member, "transfer"),
            ))
            sends[pos] = tuple(
                cols.column(op, per_member, name)
                for name in ("dest", "tag", "nbytes")
            )
            if request is not None:
                requests.setdefault(request, []).append(("send", pos))
        elif op_type is ops.RecvOp or op_type is ops.DevirtRecvOp:
            op_codes.append(MPI_OP_CODES[cols.uniform(op, per_member, "mpi_op")])
            request = cols.uniform(op, per_member, "request")
            for name in ("src", "tag"):
                if cols.holds_any(op, per_member, name):
                    raise Refusal(f"{op.location}: receive from ANY {name}")
            devirt = op_type is ops.DevirtRecvOp
            devirt_positions += devirt
            recvs.append((
                pos, cols.column(op, per_member, "src"),
                cols.column(op, per_member, "tag"), devirt,
            ))
            if request is None:
                steps.append(None)  # filled in once paired
            else:
                steps.append((_IRECV, recv_ovh))
                requests.setdefault(request, []).append(("recv", pos))
        elif op_type is ops.WaitOp:
            op_codes.append(_WAIT_CODE)
            request = cols.uniform(op, per_member, "request")
            queue = requests.get(request)
            if not queue:
                raise Refusal(
                    f"{op.location}: wait on unknown request {request!r}"
                )
            kind, posted = queue.pop(0)
            if not queue:
                del requests[request]
            if kind == "send":
                steps.append((_ADVANCE, send_ovh))
            else:
                completed_at[posted] = pos
                steps.append((_WAITALL, [posted], recv_ovh))
        elif op_type is ops.WaitAllOp:
            op_codes.append(_WAITALL_CODE)
            posted = sorted(
                p for queue in requests.values() for kind, p in queue
                if kind == "recv"
            )
            requests.clear()
            for p in posted:
                completed_at[p] = pos
            steps.append((_WAITALL, posted, recv_ovh))
        elif op_type is ops.CollectiveOp:
            mpi_op = cols.uniform(op, per_member, "mpi_op")
            root = cols.uniform(op, per_member, "root")
            nbytes = cols.uniform(op, per_member, "nbytes")
            if not 0 <= root < n:
                raise Refusal(f"{op.location}: root {root} is not a rank")
            op_codes.append(MPI_OP_CODES[mpi_op])
            steps.append((
                _COLL, mpi_op, root, cost.collective_cost(mpi_op, n, nbytes),
                cost.network.call_overhead, len(collectives),
            ))
            collectives.append((len(collectives), op_codes[-1], root, nbytes))
            plan.collective_vids.append(vids[-1])
        else:
            raise Refusal(
                f"{op.location}: no lockstep rule for {op_type.__name__}"
            )

    if requests:
        _kind, pos = next(iter(requests.values()))[0]
        raise Refusal(
            f"{base[pos].location}: request {base[pos].request!r} is never "
            "waited on"
        )
    paired = _pair(base, sends, recvs, ranks)

    # Receive steps and P2P identity columns, one block of rows per
    # receive position in position order.
    reqs_of: dict[int, tuple] = {}
    #: per block: send vid, receive vid, wait vid
    block_vids: list[tuple] = []
    nbytes_of: list[np.ndarray] = []
    for block, ((pos, src, _tag, _devirt), send_pos) in enumerate(
        zip(recvs, paired)
    ):
        done = completed_at.get(pos, pos)
        if send_pos > done:
            raise Refusal(
                f"{base[pos].location}: receive completes before its paired "
                f"send at {base[send_pos].location}"
            )
        if steps[pos] is None:
            steps[pos] = (_RECV, send_pos, src, recv_ovh, block)
        else:
            reqs_of[pos] = (pos, send_pos, src, block)
        block_vids.append((vids[send_pos], vids[pos], vids[done]))
        nbytes_of.append(sends[send_pos][2][src])
    if recvs:
        src = np.concatenate([r[1] for r in recvs])
        tag = np.concatenate([r[2] for r in recvs])
        send_vid, recv_vid, wait_vid = (
            np.repeat(np.asarray(col, dtype=np.int64), n)
            for col in zip(*block_vids)
        )
        devirt = np.repeat(np.asarray([r[3] for r in recvs]), n)
        plan.p2p_ints = np.column_stack((
            src, send_vid, np.tile(ranks, len(recvs)), recv_vid, wait_vid,
            tag, np.concatenate(nbytes_of),
            np.where(devirt, WILDCARD_CODE, src), tag,
        )).astype(np.int64)
    for pos, step in enumerate(steps):
        if step[0] == _WAITALL:
            steps[pos] = (_WAITALL, [reqs_of[p] for p in step[1]], step[2])

    if counters:
        block = np.empty((len(counters), 6, n))
        block[:, 0, :] = ranks
        for i, row in enumerate(counters):
            for j, value in enumerate(row, start=1):
                block[i, j, :] = value
        plan.counters = block.transpose(0, 2, 1).reshape(-1, 6)
    if collectives:
        plan.collective_rows = np.asarray(collectives, dtype=np.int64)
    plan.mpi_calls = mpi_positions * n
    plan.compute_ops = len(counters) * n
    plan.devirt = devirt_positions * n
    return plan


def _member_costs(cost, cols: _Columns, op, per_member, n: int) -> tuple:
    """Duration and counter columns of a compute position whose cost is
    not precosted: ``cost.compute_cost(rank, workload)`` once per member
    and distinct workload (pure when per-execution noise is off, like the
    engine's ``_compute_cache``)."""
    if per_member is None:
        workload = op.workload
        key = ("costs", workload.bits())
        workloads = (workload,) * n
    else:
        key = ("costs", id(per_member))
        workloads = [o.workload for o in per_member]

    def build():
        out = [[], [], [], [], []]
        for rank, workload in enumerate(workloads):
            duration, c = cost.compute_cost(rank, workload)
            for col, value in zip(out, (
                duration, c.tot_ins, c.tot_cyc, c.tot_lst_ins, c.l2_dcm,
            )):
                col.append(value)
        return tuple(np.asarray(col, dtype=np.float64) for col in out)

    return cols.derived(key, build)


def _delay_columns(delays: dict, n: int) -> dict:
    """``(filename, line) -> (member indices, extra seconds)`` for every
    injected delay that applies (the handlers add an extra only when it
    is nonzero)."""
    out: dict[tuple, tuple[list, list]] = {}
    for (rank, filename, line), extra in delays.items():
        if extra and 0 <= rank < n:
            idx, extras = out.setdefault((filename, line), ([], []))
            idx.append(rank)
            extras.append(extra)
    return {
        key: (np.asarray(idx, dtype=np.int64), np.asarray(extras))
        for key, (idx, extras) in out.items()
    }


def _pair(base: list, sends: dict, recvs: list, ranks: np.ndarray) -> list[int]:
    """The send position each receive position pairs with.

    MPI's non-overtaking rule pairs the k-th receive of each channel
    ``(source, destination, tag)`` with its k-th send; a stable sort of
    both sides by channel, then position, lines the pairs up.  Each
    receive position must draw all its messages from one send position."""
    n = len(ranks)
    send_pos = sorted(sends)
    s_pos = np.repeat(np.asarray(send_pos, dtype=np.int64), n)
    s_from = np.tile(ranks, len(send_pos))
    s_to = _concat([sends[p][0] for p in send_pos])
    s_tag = _concat([sends[p][1] for p in send_pos])
    r_pos = np.repeat(np.asarray([r[0] for r in recvs], dtype=np.int64), n)
    r_from = _concat([r[1] for r in recvs])
    r_to = np.tile(ranks, len(recvs))
    r_tag = _concat([r[2] for r in recvs])
    order_s = np.lexsort((s_pos, s_tag, s_to, s_from))
    order_r = np.lexsort((r_pos, r_tag, r_to, r_from))
    keys_s = np.stack((s_from, s_to, s_tag))[:, order_s]
    keys_r = np.stack((r_from, r_to, r_tag))[:, order_r]
    m = min(len(order_s), len(order_r))
    differ = np.flatnonzero((keys_s[:, :m] != keys_r[:, :m]).any(axis=0))
    if len(differ) or len(order_s) != len(order_r):
        k = differ[0] if len(differ) else m
        where = [
            int(pos[order[k]]) for pos, order in ((s_pos, order_s), (r_pos, order_r))
            if k < len(order)
        ]
        raise Refusal(
            f"{base[min(where)].location}: sends and receives do not pair "
            "up channel by channel"
        )
    paired = np.empty(len(r_pos), dtype=np.int64)
    paired[order_r] = s_pos[order_s]
    paired = paired.reshape(len(recvs), n)
    mixed = np.flatnonzero((paired != paired[:, :1]).any(axis=1))
    if len(mixed):
        raise Refusal(
            f"{base[recvs[mixed[0]][0]].location}: receive pairs with more "
            "than one send position"
        )
    return paired[:, 0].tolist()


def _concat(columns: list) -> np.ndarray:
    """The int64 columns end to end (empty when there are none)."""
    return np.concatenate(columns) if columns else np.empty(0, dtype=np.int64)
