"""The conservative round coordinator.

One logical simulation, P shard engines, barrier-synchronized rounds:

1. **Route** — cross-shard messages collected at the previous window edge
   are handed to their destination shards, and collective instances whose
   last arrival came in are completed (timestamps computed exactly like
   the serial engine's, via the shared
   :func:`repro.simulator.engine.collective_completions`).
2. **Bound** — the coordinator derives the round's *safety bound* ``B``:
   a lower bound on the canonical key of every send no shard has seen
   yet.  All quiescent-shard activity must be woken by something the
   coordinator routes, so ``B`` is the minimum over routed message
   arrivals, routed collective completion times and (in bounded-window
   mode) the shards' next-event clocks.  The network lookahead is what
   makes the bound useful: a message routed with arrival ``a`` was sent
   no later than ``a - latency``, and everything a delivery wakes acts at
   or after ``a`` — so wildcard decisions strictly below ``B`` can never
   be invalidated.  If held wildcard receives exist and the globally
   minimal one lies below ``B``, it is designated for resolution (one per
   round: a freshly released rank may send again *above its own post
   time* but possibly below other holds, so releases are serialized).
3. **Advance** — every shard applies its inputs, replays gated mailboxes
   up to the bound, and drains its local event heap (to quiescence by
   default, or to the ``GVT + lookahead`` horizon in bounded-window
   mode).  This is null-message-free: shards never talk to each other,
   only to the coordinator at window edges.
4. **Collect** — outboxes, collective arrivals, held-wildcard keys and
   termination flags come back; the loop ends when every rank ran to
   completion, or diagnoses a deadlock exactly like the serial engine
   (all ranks blocked, nothing in flight, nothing resolvable).

The round structure is a pure function of the simulation inputs, and both
executors (in-process and multiprocessing) traverse it identically — which
is why merged results are bit-identical to each other and to the serial
engine.
"""

from __future__ import annotations

from typing import Protocol

from repro import obs
from repro.minilang import ast_nodes as ast
from repro.psg.graph import PSG
from repro.simulator.collectives import CollectiveTracker
from repro.simulator.costmodel import CostModel
from repro.simulator.engine import (
    Engine,
    ParallelRunStats,
    SimulationConfig,
    SimulationResult,
    add_simulation_calls,
    build_collective_record,
)
from repro.simulator.errors import DeadlockError
from repro.simulator.matching import Message
from repro.simulator.parallel.messages import (
    CanonicalKey,
    CompletedCollective,
    RoundInput,
    RoundOutput,
    ShardFinal,
)
from repro.simulator.parallel.plan import ShardPlan
from repro.simulator.parallel.shard import ShardEngine
from repro.simulator.trace import CollectiveTable, TraceBuffer

__all__ = [
    "ShardHandle",
    "LocalShardHandle",
    "run_coordinated",
    "simulate_sharded",
]

_INF = float("inf")


class ShardHandle(Protocol):
    """Transport-agnostic face of one shard engine."""

    def begin_round(self, rinput: RoundInput) -> None: ...
    def end_round(self) -> RoundOutput: ...
    def describe_blocked(self) -> list[str]: ...
    def finalize(self) -> ShardFinal: ...
    def shutdown(self) -> None: ...


class LocalShardHandle:
    """In-process shard: the deterministic scheduler for tests/debugging."""

    def __init__(self, engine: ShardEngine) -> None:
        self.engine = engine
        engine.start()
        self._pending: RoundOutput | None = None

    def begin_round(self, rinput: RoundInput) -> None:
        self._pending = self.engine.run_round(rinput)

    def end_round(self) -> RoundOutput:
        out, self._pending = self._pending, None
        return out

    def describe_blocked(self) -> list[str]:
        return self.engine.describe_blocked()

    def finalize(self) -> ShardFinal:
        return self.engine.finalize()

    def shutdown(self) -> None:
        pass


def run_coordinated(
    handles: list[ShardHandle],
    plan: ShardPlan,
    config: SimulationConfig,
    *,
    executor: str,
    bounded_windows: bool = False,
) -> SimulationResult:
    nprocs = config.nprocs
    nshards = plan.nshards
    owner = plan.owner_table()
    cost = CostModel(config.machine, config.network, seed=config.seed)
    lookahead = plan.lookahead(config.network)
    tracker = CollectiveTracker(nprocs)
    # Collectives complete in the coordinator (a shard only sees its local
    # arrivals), so the run's CollectiveTable is built here, in completion
    # order — the order the serial engine appends in.
    collective_records = CollectiveTable()

    deliveries: list[list[Message]] = [[] for _ in range(nshards)]
    completions: list[CompletedCollective] = []
    holds: list[CanonicalKey] = []
    next_events: list[float] = [0.0] * nshards
    # Run-local registry: the coordinator's own series (parallel.*) merge
    # with the shard snapshots at finalize time (satellite of the obs
    # layer — ParallelRunStats is now a view over these counters).
    reg = obs.MetricsRegistry()
    rounds_c = reg.counter("parallel.rounds")
    routed_c = reg.counter("parallel.messages_routed")
    round_hist = reg.histogram("parallel.round_messages", bounds=(
        0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
        1024.0, 4096.0,
    ))

    while True:
        rounds_c.inc()
        # -- the safety bound (step 2 of the module docstring) ----------
        b_times = [m.arrival for batch in deliveries for m in batch]
        b_times += [
            min(c.record.completions.values()) for c in completions
        ]
        b_times += [t for t in next_events if t != _INF]
        b = min(b_times) if b_times else _INF
        b_key: CanonicalKey = (b, -1, -1)
        resolve: CanonicalKey | None = None
        if holds:
            smallest = min(holds)
            if smallest < b_key:
                resolve = smallest
        gate_bound = b_key if resolve is None else min(b_key, resolve)
        horizon = None
        if bounded_windows and b != _INF:
            horizon = b + lookahead

        with obs.span(
            "parallel.round", round=rounds_c.value, shards=nshards
        ):
            for s, handle in enumerate(handles):
                handle.begin_round(
                    RoundInput(
                        deliveries=deliveries[s],
                        completions=completions,
                        gate_bound=gate_bound,
                        resolve=resolve,
                        horizon=horizon,
                    )
                )
            outputs = [handle.end_round() for handle in handles]

        routed_something = any(deliveries) or bool(completions)
        routed_this_round = sum(len(batch) for batch in deliveries)
        routed_c.inc(routed_this_round)
        round_hist.observe(float(routed_this_round))
        deliveries = [[] for _ in range(nshards)]
        completions = []
        holds = []
        next_events = []

        produced_something = False
        for out in outputs:
            for msg in out.outbox:
                deliveries[owner[msg.dest]].append(msg)
            for arrival in out.arrivals:
                inst, complete = tracker.arrive(
                    arrival.rank, arrival.time, arrival.vid, arrival.mpi_op,
                    arrival.root, arrival.nbytes, arrival.location,
                )
                if complete:
                    record, ccost = build_collective_record(inst, cost, nprocs)
                    collective_records.append_record(record)
                    completions.append(CompletedCollective(record, ccost))
            if out.outbox or out.arrivals:
                produced_something = True
            holds.extend(out.holds)
            next_events.append(out.next_event)

        obs.emit(
            "round_completed",
            round=rounds_c.value,
            messages=routed_this_round,
            in_flight=sum(len(batch) for batch in deliveries),
        )
        if all(out.done for out in outputs):
            break
        if (
            not routed_something
            and resolve is None
            and not produced_something
            and not any(out.progressed for out in outputs)
        ):
            # Nothing was routed, nothing resolved, nothing came back and
            # nothing ever will: the same stuck state the serial engine
            # diagnoses when its heap runs dry with ranks still blocked.
            blocked_count = sum(out.blocked for out in outputs)
            diagnostics = [
                line for handle in handles
                for line in handle.describe_blocked()
            ]
            raise DeadlockError(
                f"deadlock: {blocked_count} of {nprocs} ranks blocked",
                diagnostics,
            )

    finals = [handle.finalize() for handle in handles]
    return _merge(finals, collective_records, config, reg, executor, plan)


def _merge(
    finals: list[ShardFinal],
    collective_records: CollectiveTable,
    config: SimulationConfig,
    reg: obs.MetricsRegistry,
    executor: str,
    plan: ShardPlan,
) -> SimulationResult:
    finals = sorted(finals, key=lambda f: f.shard_index)
    finish = [0.0] * config.nprocs
    for final in finals:
        for pid, clock in final.finish_times.items():
            finish[pid] = clock
    # Shard traces concatenate (each shard's P2PTable rides along inside
    # its TraceBuffer); the collective table was built coordinator-side.
    trace = TraceBuffer.merge([f.trace for f in finals])
    trace.collectives = collective_records
    # Collective records exist only here (shards see arrivals, not
    # instances), so the coordinator contributes the count the serial
    # engine would have reported — merged metrics match serial exactly.
    reg.counter("engine.collectives").inc(collective_records.row_count)
    metrics = obs.RunMetrics.merge(
        [f.metrics for f in finals] + [reg.snapshot()]
    )
    return SimulationResult(
        nprocs=config.nprocs,
        config=config,
        finish_times=finish,
        trace=trace,
        indirect_notes=[n for f in finals for n in f.indirect_notes],
        mpi_call_count=sum(f.mpi_call_count for f in finals),
        compute_count=sum(f.compute_count for f in finals),
        parallel_stats=ParallelRunStats(
            shards=plan.nshards,
            executor=executor,
            rounds=int(metrics.counter("parallel.rounds")),
            messages_routed=int(metrics.counter("parallel.messages_routed")),
            engine_runs=int(metrics.counter("engine.runs")),
        ),
        metrics=metrics,
    )


def simulate_sharded(
    program: ast.Program,
    psg: PSG,
    config: SimulationConfig,
    *,
    plan: ShardPlan | None = None,
    executor: str | None = None,
    bounded_windows: bool = False,
) -> SimulationResult:
    """Run one simulation over multiple shard engines.

    Bit-identical to :func:`repro.simulator.engine.simulate` with the same
    config; ``sim_shards``/``sim_executor`` only choose *how* the work is
    executed.  Counts as one logical simulation in
    :func:`~repro.simulator.engine.simulation_call_count`.
    """
    add_simulation_calls(1)
    if plan is None:
        plan = ShardPlan.contiguous(config.nprocs, config.sim_shards)
    if plan.nshards <= 1:
        return Engine(program, psg, config).run()
    executor = executor or config.sim_executor
    if executor == "auto":
        import os
        import threading

        cores = os.cpu_count() or 1
        # Never auto-fork off the main thread: Pipeline.run_scales /
        # Session.sweep call simulate() from ThreadPoolExecutor workers,
        # and forking a multithreaded process from a non-main thread can
        # leave children holding another thread's locks (deadlock).  An
        # explicit sim_executor="process" still honours the caller.
        on_main = threading.current_thread() is threading.main_thread()
        executor = "process" if cores > 1 and on_main else "inprocess"
    if executor == "process":
        from repro.simulator.parallel.mp import run_multiprocess

        with obs.span(
            "engine.run_sharded", nprocs=config.nprocs,
            shards=plan.nshards, executor="process",
        ):
            return run_multiprocess(
                program, psg, config, plan, bounded_windows=bounded_windows
            )
    handles = [
        LocalShardHandle(ShardEngine(program, psg, config, plan, s))
        for s in range(plan.nshards)
    ]
    with obs.span(
        "engine.run_sharded", nprocs=config.nprocs,
        shards=plan.nshards, executor="inprocess",
    ):
        return run_coordinated(
            handles, plan, config,
            executor="inprocess", bounded_windows=bounded_windows,
        )
