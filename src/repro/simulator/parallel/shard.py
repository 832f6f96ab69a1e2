"""One shard of a conservative parallel simulation.

A :class:`ShardEngine` is the serial :class:`~repro.simulator.engine.Engine`
restricted to a contiguous rank range, with the three cross-shard seams
rewired:

* **sends** whose destination lives on another shard go to an outbox that
  the coordinator routes at the next window edge,
* **collectives** park the arriving rank and report the arrival; the
  coordinator completes instances once all ranks (across shards) arrived
  and broadcasts the per-rank completion times back,
* **wildcard receives** (``MPI_ANY_SOURCE``) are *held*: their match order
  depends on the global send order, which a single shard cannot observe,
  so the decision is deferred until the coordinator proves — via the
  conservative safety bound — that every message that could order before
  the receive has been delivered.

Everything else — virtual clocks, matching of fully-addressed traffic,
waits, tracing — runs untouched serial-engine code, which is what makes
the merged result bit-identical: completion times are pure functions of
matched timestamps, and pairings of non-wildcard traffic are fixed by
per-``(src, tag)`` FIFO order regardless of discovery time.

**Wildcard gates.**  A mailbox that has posted a wildcard receive switches
to *gated* mode: every subsequent mailbox operation (delivery or receive
post) is queued under the canonical key ``(time, pid, op_index)`` and
replayed in key order, but only up to the round's safety bound.  At gate
creation, pending messages that canonically order *after* the wildcard are
rewound into the queue, so the mailbox's committed state never runs ahead
of the canonical order.  The held wildcard itself resolves only when the
coordinator designates it (one resolution per round, the globally minimal
hold): it matches the canonically-earliest eligible pending message below
its own key, or becomes an ordinarily-posted receive that later queued
deliveries match in canonical order.
"""

from __future__ import annotations

import itertools

from repro.minilang import ast_nodes as ast
from repro.psg.graph import PSG
from repro.simulator import ops
from repro.simulator.engine import (
    Engine,
    SimulationConfig,
    _Proc,
    _Request,
    _Status,
)
from repro.simulator.matching import Message, PostedRecv
from repro.simulator.parallel.messages import (
    Arrival,
    CanonicalKey,
    RoundInput,
    RoundOutput,
    ShardFinal,
)
from repro.simulator.parallel.plan import ShardPlan
from repro.simulator.schedq import BinaryHeapQueue
from repro.simulator.trace import MPI_OP_CODES

__all__ = ["ShardEngine"]


def _message_key(msg: Message) -> CanonicalKey:
    return (msg.send_time, msg.src, msg.src_seq)


class _Gate:
    """Canonical-order replay queue of one gated mailbox.

    Entries flatten the canonical key into the queue tuple —
    ``(time, pid, op_index, tie, kind, payload)`` with a per-gate unique
    ``tie`` so comparisons never reach the payload — and ride the same
    :class:`~repro.simulator.schedq.BinaryHeapQueue` as the engine's
    runnable-rank queue (gate entries are never stale, so no ``live``).
    """

    __slots__ = ("rank", "entries", "_tie")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        #: queue of (time, pid, op_index, tie, kind, payload);
        #: kind is "deliver" or "recv"
        self.entries = BinaryHeapQueue()
        self._tie = itertools.count()

    def push(self, key: CanonicalKey, kind: str, payload) -> None:
        self.entries.push(key + (next(self._tie), kind, payload))

    def min_hold(self) -> CanonicalKey | None:
        """Key of this gate's earliest queued wildcard receive, if any."""
        best = None
        for entry in self.entries:
            if entry[4] == "recv" and entry[5][1].src is ops.ANY:
                key = entry[:3]
                if best is None or key < best:
                    best = key
        return best


class ShardEngine(Engine):
    """The serial engine over one shard's rank subset."""

    def __init__(
        self,
        program: ast.Program,
        psg: PSG,
        config: SimulationConfig,
        plan: ShardPlan,
        shard_index: int,
    ) -> None:
        super().__init__(
            program, psg, config, local_ranks=plan.ranks(shard_index)
        )
        self.plan = plan
        self.shard_index = shard_index
        self._owner = plan.owner_table()
        self.outbox: list[Message] = []
        self.arrivals: list[Arrival] = []
        #: per-local-rank collective call-order counters
        self._coll_index: dict[int, int] = {}
        #: rank -> _Gate for mailboxes in wildcard-ordered mode
        self._gates: dict[int, _Gate] = {}
        self._gate_bound: CanonicalKey = (0.0, -1, -1)
        self._gate_pops = 0
        self._sharded = plan.nshards > 1

    # ------------------------------------------------------------------
    # seam overrides
    # ------------------------------------------------------------------

    def _route_send(self, msg: Message) -> None:
        if self._owner[msg.dest] != self.shard_index:
            self.outbox.append(msg)
            return
        gate = self._gates.get(msg.dest)
        if gate is None:
            match = self.mailboxes[msg.dest].deliver(msg)
            if match is not None:
                self._complete_match(match)
        else:
            gate.push(_message_key(msg), "deliver", msg)
            self._gate_process(gate)

    def _handle_recv(self, proc: _Proc, op: ops.RecvOp) -> bool:
        gate = self._gates.get(proc.pid)
        wildcard = op.src is ops.ANY and self._sharded
        if gate is None and not wildcard:
            return super()._handle_recv(proc, op)
        # gated path: queue the post under the canonical key
        self.mpi_call_count += 1
        proc.op_index += 1
        recv = PostedRecv(
            rank=proc.pid,
            src=op.src,
            tag=op.tag,
            post_time=proc.clock,
            recv_vid=op.vid,
            request=op.request,
            wild_src=type(op) is ops.DevirtRecvOp,
        )
        key = (proc.clock, proc.pid, proc.op_index)
        if gate is None:
            gate = self._gates[proc.pid] = _Gate(proc.pid)
            # Rewind pending messages that canonically order after the
            # wildcard: they must replay through the gate, or the held
            # receive's candidate scan would see the future.
            self._rewind_pending(gate, key)
        elif wildcard:
            # Same rewind for a wildcard posted through an *existing* gate:
            # this round's replay may have committed deliveries up to the
            # round bound — computed before this receive existed — so the
            # mailbox's committed state can already sit past the new
            # wildcard's key.  Without the rewind, the resolution scan
            # (bounded by the receive's own key) cannot see those
            # messages, and a later queued delivery would jump the
            # canonical order when it matches the posted receive directly.
            self._rewind_pending(gate, key)
        gate.push(key, "recv", (proc, recv, op))
        if op.request is not None:
            # irecv: never blocks; the request resolves through the gate.
            req = _Request(
                name=op.request, kind="recv", post_time=proc.clock, vid=op.vid
            )
            proc.requests.setdefault(op.request, []).append(req)
            self._attach_request(proc.pid, recv, req)
            self._gate_process(gate)
            start = proc.clock
            proc.clock = start + self._recv_ovh
            self._trace_append(
                proc.pid, op.vid, 1, start, proc.clock, 0.0,
                MPI_OP_CODES[op.mpi_op],
            )
            return False
        # blocking recv: park; gate replay (now or in a later round)
        # either matches it (waking the proc) or posts it.
        proc.blocked_on = ("recv", recv, op)
        proc.block_start = proc.clock
        proc.status = _Status.BLOCKED
        self._gate_process(gate)
        return True

    def _handle_devirt_recv(self, proc: _Proc, op) -> bool:
        """A devirtualized wildcard receive: concrete source, so it takes
        the fast path through :meth:`_handle_recv` (no ANY-source gate is
        opened and no gate hold is paid).  When this rank's mailbox has no
        gate open, the as-written op *would* have opened one — count the
        skip.  With a gate already open (another, unproven wildcard on the
        same rank) the op still routes through it as a concrete receive,
        which is correct either way."""
        if self._sharded and self._gates.get(proc.pid) is None:
            self.wildcard_stats["gate_skips"] += 1
        return super()._handle_devirt_recv(proc, op)

    def _handle_collective(self, proc: _Proc, op: ops.CollectiveOp) -> bool:
        self.mpi_call_count += 1
        index = self._coll_index.get(proc.pid, 0)
        self._coll_index[proc.pid] = index + 1
        self.arrivals.append(
            Arrival(
                index=index,
                rank=proc.pid,
                time=proc.clock,
                vid=op.vid,
                mpi_op=op.mpi_op,
                root=op.root,
                nbytes=op.nbytes,
                location=op.location,
            )
        )
        proc.blocked_on = ("collective-shard", index, op)
        proc.block_start = proc.clock
        proc.status = _Status.BLOCKED
        return True

    def _describe_block(self, proc: _Proc) -> str:
        if proc.blocked_on and proc.blocked_on[0] == "collective-shard":
            index, op = proc.blocked_on[1], proc.blocked_on[2]
            return (
                f"rank {proc.pid} blocked at t={proc.clock:.6f} in "
                f"{op.mpi_op.display_name} #{index}"
            )
        return super()._describe_block(proc)

    # ------------------------------------------------------------------
    # wildcard gates
    # ------------------------------------------------------------------

    def _rewind_pending(self, gate: _Gate, recv_key: CanonicalKey) -> None:
        mailbox = self.mailboxes[gate.rank]
        for msg in mailbox.pending_messages():
            if _message_key(msg) > recv_key:
                mailbox.remove_pending(msg)
                gate.push(_message_key(msg), "deliver", msg)

    def _gate_process(
        self, gate: _Gate, resolve: CanonicalKey | None = None
    ) -> None:
        """Replay queued mailbox operations in canonical order, strictly
        below the safety bound; stop at a wildcard receive unless it is
        this round's designated resolution."""
        entries = gate.entries
        bound = self._gate_bound
        mailbox = self.mailboxes[gate.rank]
        while entries:
            entry = entries.peek()
            key, kind, payload = entry[:3], entry[4], entry[5]
            if (
                resolve is not None
                and key == resolve
                and kind == "recv"
                and payload[1].src is ops.ANY
            ):
                # The designated resolution sits exactly at the bound
                # (the bound *is* min(B, its key)): everything ordering
                # before it was just replayed, so decide it now.
                entries.pop()
                self._gate_pops += 1
                resolve = None
                self._resolve_wildcard(payload[1], key)
                continue
            if key >= bound:
                break
            if kind == "deliver":
                entries.pop()
                self._gate_pops += 1
                match = mailbox.deliver(payload)
                if match is not None:
                    self._complete_match(match)
                continue
            proc, recv, op = payload
            if recv.src is ops.ANY:
                break  # held: the coordinator has not cleared it yet
            entries.pop()
            self._gate_pops += 1
            match = mailbox.post_recv(recv)
            if match is not None:
                self._complete_match(match)
        if not entries and not mailbox.has_wildcard_posted():
            del self._gates[gate.rank]  # back to the direct fast path

    def _resolve_wildcard(self, recv: PostedRecv, key: CanonicalKey) -> None:
        """Decide a held wildcard receive.

        Pending messages below the receive's own canonical key are exactly
        the sends the serial engine would have executed before it (the
        safety bound proved no earlier send is still unknown), so the
        canonically-earliest eligible one is the serial match.  With no
        such candidate the receive posts normally: the first eligible
        later send — replayed through the gate in canonical order —
        matches it, exactly as in the serial engine.
        """
        mailbox = self.mailboxes[recv.rank]
        match = mailbox.take_pending(recv, _message_key, bound=key)
        if match is None:
            mailbox.post_unmatched(recv)
            return
        self._complete_match(match)

    # ------------------------------------------------------------------
    # the conservative round
    # ------------------------------------------------------------------

    def _done_count(self) -> int:
        return sum(
            1 for pid in self.local_ranks
            if self.procs[pid].status is _Status.DONE
        )

    def run_round(self, rinput: RoundInput) -> RoundOutput:
        # Progress snapshot: every real step either executes an op (the
        # counters move), replays a gate entry, or finishes a rank.
        before = (
            self.mpi_call_count, self.compute_count, self._gate_pops,
            self._done_count(),
        )
        self._gate_bound = rinput.gate_bound
        for comp in rinput.completions:
            self._apply_collective(comp.record, comp.cost, arriving=None)
        for msg in sorted(rinput.deliveries, key=_message_key):
            self._deliver_remote(msg)
        resolve = rinput.resolve
        for rank in sorted(self._gates):
            gate = self._gates.get(rank)
            if gate is not None:
                self._gate_process(gate, resolve=resolve)
        self.drain(rinput.horizon)
        out = RoundOutput(
            outbox=self.outbox,
            arrivals=self.arrivals,
            holds=[
                k for k in (
                    g.min_hold() for g in self._gates.values()
                ) if k is not None
            ],
            next_event=self.next_event_time(),
            done=all(
                self.procs[pid].status is _Status.DONE
                for pid in self.local_ranks
            ),
            blocked=len(self.blocked_procs()),
            progressed=(
                (
                    self.mpi_call_count, self.compute_count,
                    self._gate_pops, self._done_count(),
                )
                != before
            ),
        )
        self.outbox = []
        self.arrivals = []
        return out

    def _deliver_remote(self, msg: Message) -> None:
        gate = self._gates.get(msg.dest)
        if gate is None:
            match = self.mailboxes[msg.dest].deliver(msg)
            if match is not None:
                self._complete_match(match)
        else:
            gate.push(_message_key(msg), "deliver", msg)

    def describe_blocked(self) -> list[str]:
        return [self._describe_block(p) for p in self.blocked_procs()]

    def fill_metrics(self, reg) -> None:
        super().fill_metrics(reg)
        reg.counter("engine.gate_replays").inc(self._gate_pops)

    def finalize(self) -> ShardFinal:
        # Seal every pending flat list first: a multiprocessing transport
        # then pickles packed column arrays, not per-record Python lists.
        self.trace.seal()
        return ShardFinal(
            shard_index=self.shard_index,
            trace=self.trace,
            indirect_notes=self.indirect_notes,
            finish_times={
                pid: self.procs[pid].clock for pid in self.local_ranks
            },
            mpi_call_count=self.mpi_call_count,
            compute_count=self.compute_count,
            metrics=self.metrics_snapshot(),
        )
