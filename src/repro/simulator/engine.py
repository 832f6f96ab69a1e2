"""The discrete-event simulation engine.

A sequential conservative DES: all runnable ranks sit in a binary-heap
priority queue (:class:`repro.simulator.schedq.BinaryHeapQueue`) keyed by
their local virtual clock, and the engine always steps the rank with the
smallest clock.  Because a rank's ops are handled in nondecreasing global
time order, message matching is causal and deterministic — the property
the whole reproduction rests on (two runs of the same configuration are
bit-identical).

Blocking semantics:

* sends are *eager*: they complete locally after a software overhead; the
  payload arrives at the destination after a latency + size/bandwidth delay,
* a blocking receive completes at ``max(post, arrival) + overhead``; any gap
  between post and arrival is recorded as a *waiting event*, which is what
  the backtracking detector's edge pruning keys on (paper §IV-B),
* non-blocking receives complete at their matching MPI_Wait / MPI_Waitall,
  where the waiting time is attributed to the wait vertex — matching how
  delays surface in real MPI programs (and in the paper's case studies,
  all three of which blame loops *behind* ``MPI_Waitall``),
* collectives group by per-rank call order; synchronizing collectives
  (barrier/allreduce/alltoall/allgather) complete for everyone at
  ``max(arrivals) + cost``; rooted ones follow root-relative rules.

The engine also detects deadlock (heap empty, ranks still blocked) and
reports a per-rank stuck-at diagnostic.

When every rank runs a class-batched stream (in either recording mode)
and :meth:`Engine.start` proves the point-to-point pairing and a merge
order of the class templates, the drain runs all ranks in lockstep instead,
one template position at a time as numpy columns (see
:meth:`Engine.drain` and :mod:`repro.simulator.lockstep`).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from enum import Enum
from collections.abc import Iterator

from repro import obs
from repro.minilang import ast_nodes as ast
from repro.minilang.ast_nodes import MpiOp
from repro.psg.graph import PSG
from repro.simulator import ops
from repro.simulator.collectives import CollectiveTracker
from repro.simulator.costmodel import (
    CostModel,
    MachineModel,
    NetworkModel,
    PerfCounters,
)
from repro.simulator.errors import DeadlockError, MpiUsageError, SimulationError
from repro.simulator.events import (
    CollectiveRecord,
    IndirectNote,
)
from repro.simulator.interp import Interpreter
from repro.simulator.matching import Mailbox, Message, PostedRecv
from repro.simulator.schedq import BinaryHeapQueue
from repro.simulator.trace import (
    MPI_OP_CODES,
    WILDCARD_CODE,
    RowView,
    TraceBuffer,
)

#: Hot-loop op codes (module constants beat dict lookups in the wait paths).
_WAIT_CODE = MPI_OP_CODES[MpiOp.WAIT]
_WAITALL_CODE = MPI_OP_CODES[MpiOp.WAITALL]

__all__ = [
    "DelayInjection",
    "SimulationConfig",
    "SimulationResult",
    "Engine",
    "simulate",
    "simulation_call_count",
]

#: Process-wide count of started simulations, backed by the global
#: metrics registry (series ``sim.engine_runs``).  The artifact cache's
#: contract is "a cache hit performs zero new simulations" — this counter
#: is how that contract is asserted (and how batch drivers report work
#: actually done vs. served from cache).  ``simulation_call_count`` remains
#: as a thin compatibility view.
_sim_runs = obs.registry.counter("sim.engine_runs")


#: id(program) -> its compile cache (see :func:`program_cache`)
_PROGRAM_CACHES: dict[int, dict] = {}
_PROGRAM_CACHES_LOCK = threading.Lock()


def program_cache(program: ast.Program) -> dict:
    """The one compile cache shared by every engine started on
    ``program``: compiled statements, the rank analysis's call-graph
    facts (``rankdep._FACTS_KEY``) and class batching's op -> statement
    index.  Every entry depends on the program alone (nothing nprocs-,
    params- or rank-specific; a compiled statement holds no op), so the
    engines of all scales of one static artifact reuse them, from any
    thread: a dict lookup or store is atomic, and two threads that
    compile one entry at once build equal values.  The entry goes with
    the program."""
    key = id(program)
    with _PROGRAM_CACHES_LOCK:
        cache = _PROGRAM_CACHES.get(key)
        if cache is None:
            cache = _PROGRAM_CACHES[key] = {}
            weakref.finalize(program, _PROGRAM_CACHES.pop, key, None)
    return cache


def simulation_call_count() -> int:
    """How many simulations this process has started (monotonic).

    Every :func:`simulate` call counts once, so `Session`'s cache
    assertions hold: a miss is +1, a hit +0.
    """
    return _sim_runs.value


@dataclass(frozen=True)
class DelayInjection:
    """Inject ``extra_seconds`` into every execution of the compute statement
    at ``filename:line`` on ``rank`` — the paper's motivating experiment
    (Fig. 2) injects such a delay into process 4 of NPB-CG."""

    rank: int
    filename: str
    line: int
    extra_seconds: float


@dataclass
class SimulationConfig:
    nprocs: int
    params: dict = field(default_factory=dict)
    machine: MachineModel = field(default_factory=MachineModel)
    network: NetworkModel = field(default_factory=NetworkModel)
    seed: int = 0
    max_iterations: int = 10_000_000
    #: Keep every event and counter row (recorded mode), or only their
    #: per-vertex sums (ring mode: memory bounded by chunk size and
    #: vertices).  Both fold the sums by one rule, so both give the same
    #: aggregates and finish times bit for bit, and both drain in
    #: lockstep when it applies.
    record_segments: bool = True
    injected_delays: list[DelayInjection] = field(default_factory=list)
    entry: str = "main"

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")


@dataclass
class SimulationResult:
    """Ground truth of one run.

    Timeline events and communication records live in a columnar
    :class:`TraceBuffer`; the accessors (``segments``, ``p2p_records``,
    ``collective_records``, ``vertex_time``, ``vertex_wait``,
    ``vertex_counters``, ``vertex_visits``, ``time_of``) are lazy views
    over it.
    """

    nprocs: int
    config: SimulationConfig
    finish_times: list[float]
    trace: TraceBuffer
    indirect_notes: list[IndirectNote]
    mpi_call_count: int
    compute_count: int
    #: Execution metrics of this run (engine.* counters, per-rank finish
    #: histogram).  Built once at finish time from aggregates the engine
    #: keeps anyway —
    #: never from per-event hot-loop work — and digest-neutral: nothing
    #: here feeds fingerprints or report shas.
    metrics: obs.RunMetrics | None = None

    @property
    def segments(self) -> RowView:
        """Timeline events as Segment objects (lazy; empty when the run was
        executed with ``record_segments=False``)."""
        return self.trace.segments()

    @property
    def p2p_records(self) -> RowView:
        """Matched messages as P2PRecord objects (lazy view over the
        columnar :class:`~repro.simulator.trace.P2PTable`)."""
        return self.trace.p2p.records()

    @property
    def collective_records(self) -> RowView:
        """Completed collectives as CollectiveRecord objects (lazy view
        over the columnar :class:`~repro.simulator.trace.CollectiveTable`)."""
        return self.trace.collectives.records()

    @property
    def vertex_time(self) -> dict[tuple[int, int], float]:
        """Exact per-(rank, vid) executed time (lazy aggregate)."""
        return self.trace.vertex_time()

    @property
    def vertex_wait(self) -> dict[tuple[int, int], float]:
        return self.trace.vertex_wait()

    @property
    def vertex_counters(self) -> dict[tuple[int, int], PerfCounters]:
        return self.trace.vertex_counters()

    @property
    def vertex_visits(self) -> dict[tuple[int, int], int]:
        return self.trace.vertex_visits()

    @property
    def total_time(self) -> float:
        """Makespan: the finish time of the slowest rank."""
        return max(self.finish_times) if self.finish_times else 0.0

    def rank_vertex_time(self, rank: int) -> dict[int, float]:
        return {
            vid: t for (r, vid), t in self.vertex_time.items() if r == rank
        }

    def time_of(self, vid: int) -> list[float]:
        """Per-rank exact time of one PSG vertex (0.0 where never executed)."""
        vt = self.vertex_time
        return [vt.get((r, vid), 0.0) for r in range(self.nprocs)]


class _Status(Enum):
    READY = 0
    BLOCKED = 1
    DONE = 2


@dataclass
class _Request:
    name: str
    kind: str  # "send" | "recv"
    post_time: float
    vid: int
    #: For recv requests: earliest completion time once matched.
    ready_time: float | None = None
    #: Row of this request's message in the run's P2PTable (-1 until
    #: matched); the wait that completes the request fills the row's
    #: completion columns in place.
    row: int = -1

    @property
    def matched(self) -> bool:
        return self.kind == "send" or self.ready_time is not None


class _Proc:
    __slots__ = (
        "pid", "gen", "clock", "status", "token", "blocked_on", "block_start",
        "requests", "waitall_reqs",
    )

    def __init__(self, pid: int, gen: Iterator[ops.Op]) -> None:
        self.pid = pid
        self.gen = gen
        self.clock = 0.0
        self.status = _Status.READY
        self.token = -1
        self.blocked_on: tuple | None = None
        self.block_start = 0.0
        #: request name -> FIFO of outstanding requests
        self.requests: dict[str, list[_Request]] = {}
        #: requests captured by an in-progress waitall
        self.waitall_reqs: list[_Request] = []


class Engine:
    """Runs one MiniMPI program at one scale and produces ground truth."""

    def __init__(
        self, program: ast.Program, psg: PSG, config: SimulationConfig
    ) -> None:
        self.program = program
        self.psg = psg
        self.config = config
        self.cost = CostModel(config.machine, config.network, seed=config.seed)
        #: hoisted per-call MPI overheads — constants of the network model
        #: (pure ``call_overhead`` reads), queried once instead of per event
        self._send_ovh = self.cost.send_overhead()
        self._recv_ovh = self.cost.recv_overhead()
        self.tracker = CollectiveTracker(config.nprocs)
        self.mailboxes = [Mailbox(r) for r in range(config.nprocs)]
        #: pid -> _Proc (filled by :meth:`start`)
        self.procs: list[_Proc] = []
        #: runnable-rank queue, entries (clock, token, pid); stale
        #: entries (superseded token / non-READY proc) are pruned lazily
        #: by the queue itself via the :func:`_entry_live` predicate
        self._queue = BinaryHeapQueue(live=_entry_live(self.procs))
        #: op-type dispatch: one dict lookup per op.  The handlers are the
        #: class's plain functions (called with the engine), not bound
        #: methods: nothing the engine holds refers back to it, so a
        #: finished engine is freed by reference counting alone
        self._handlers = {
            op_type: getattr(type(self), name)
            for op_type, name in _HANDLER_NAMES.items()
        }
        #: ``_push`` calls so far: every hand-off of a rank back to the
        #: scheduler (the engine.rank_handoffs counter); also the heap
        #: tie-break token
        self._handoffs = 0
        #: the batched classes' templates ``(members, base, patches)``,
        #: until start has compiled (or refused) the lockstep plan
        self._batch_classes: list | None = None
        #: the lockstep plan compiled by start (None: it refused)
        self._lockstep = None
        #: why start compiled no lockstep plan (None when it did); kept
        #: apart from ``class_batch_reasons``, since a refusal is not a
        #: batching fallback
        self.lockstep_reason: str | None = None
        # recording: columnar trace (ring mode when segments are not kept);
        # the buffer owns the p2p/collective record tables too
        self.trace = TraceBuffer(keep_events=config.record_segments)
        self._trace_append = self.trace.append
        self._p2p_append = self.trace.p2p.append
        self.indirect_notes: list[IndirectNote] = []
        self.mpi_call_count = 0
        self.compute_count = 0
        #: irecv PostedRecv.seq -> its _Request, until matched
        self._recv_reqs: dict[int, _Request] = {}
        #: memoized (rank, workload) -> (duration, counter 4-tuple, the
        #: workload it was computed for); only valid when per-execution
        #: noise is off (the cost is then pure)
        self._compute_cache: dict = {}
        self._compute_cacheable = config.machine.noise_sigma <= 0.0
        # delay injection lookup
        self._delays: dict[tuple[int, str, int], float] = {}
        for d in config.injected_delays:
            key = (d.rank, d.filename, d.line)
            self._delays[key] = self._delays.get(key, 0.0) + d.extra_seconds
        #: class-batching outcome (filled by start; zeros when unused)
        self.class_batch_stats: dict[str, int] = {
            "classes": 0, "ranks_batched": 0, "fallbacks": 0,
        }
        #: why optimizers stepped aside: class fallback reasons, a degraded
        #: rank partition, or an optimizer analysis that raised
        self.class_batch_reasons: tuple[str, ...] = ()
        #: wildcard devirtualization outcome: ``devirt`` counts rewritten
        #: receive executions
        self.wildcard_stats: dict[str, int] = {"devirt": 0}

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        with obs.span("engine.run", nprocs=self.config.nprocs):
            self.start()
            self.drain()
            return self.finish()

    def start(self) -> None:
        """Create the interpreters, make every rank runnable and, where
        it applies, compile the lockstep plan (see :meth:`drain`).

        The class templates carry no costs: lockstep costs what it runs.
        Only a run that gets no plan precosts them, in one pass
        (:meth:`_precosted_streams`), for the time-ordered loop."""
        cfg = self.config
        # One compiled-expression cache shared by every rank, and by every
        # engine of this program: the AST is rank- and scale-independent,
        # so each expression compiles exactly once.
        expr_cache = program_cache(self.program)
        analysis = self._rank_analysis(expr_cache)
        devirt = self._devirt_map()
        batched = self._build_batched_streams(analysis, expr_cache, devirt)
        self._lockstep = self._compile_lockstep(len(batched))
        classes, self._batch_classes = self._batch_classes, None
        if self._lockstep is not None:
            # A compiled plan runs every rank, so no stream is fanned out
            # (see classbatch.BatchedStreams) and no rank is queued; each
            # still counts the one hand-off start gives it.
            self.procs.extend(_Proc(pid, iter(())) for pid in range(cfg.nprocs))
            self._handoffs = cfg.nprocs
            return
        if classes:
            batched = self._precosted_streams(classes, batched)
        for pid in range(cfg.nprocs):
            stream = batched.get(pid)
            if stream is not None:
                # Class-batched rank: its whole op stream was derived from
                # the class representative — consume it through a plain
                # list iterator instead of a generator chain.
                gen = iter(stream)
            else:
                interp = Interpreter(
                    self.program,
                    self.psg,
                    pid,
                    cfg.nprocs,
                    cfg.params,
                    max_iterations=cfg.max_iterations,
                    entry=cfg.entry,
                    expr_cache=expr_cache,
                )
                gen = interp.run()
                if devirt:
                    gen = _devirt_stream(gen, pid, devirt)
            proc = _Proc(pid, gen)
            self.procs.append(proc)
            self._push(proc)

    def _rank_analysis(self, cache: dict | None = None):
        """Whole-program rank-dependence analysis, or ``None``; ``cache``
        is the program's compile cache (see :func:`program_cache`).

        An auxiliary optimizer: with fewer than two ranks there is
        nothing to batch, and an analysis that raises steps
        aside (recorded in ``class_batch_reasons``) so every rank runs
        through its own interpreter — the per-rank path that is the
        bit-identity oracle."""
        cfg = self.config
        if cfg.nprocs < 2:
            return None
        from repro.analysis.rankdep import analyze_program

        try:
            return analyze_program(
                self.program, cfg.nprocs, cfg.params, entry=cfg.entry,
                cache=cache,
            )
        except Exception as exc:
            self._step_aside("analyze_program", exc)
            return None

    def _devirt_map(self) -> dict:
        """Proven-unique sources for wildcard receives, or ``{}``.

        Purely an optimizer like class batching: the static proof either
        holds (the rewrite is bit-identical by construction, gated by the
        differential oracle sweep) or the analysis degrades and nothing is
        rewritten (an exception is recorded in ``class_batch_reasons``)."""
        cfg = self.config
        if cfg.nprocs < 2:
            return {}
        from repro.analysis.matchorder import devirt_sources

        try:
            return devirt_sources(
                self.program, cfg.nprocs, cfg.params, entry=cfg.entry
            )
        except Exception as exc:
            self._step_aside("devirt_sources", exc)
            return {}

    def _compile_lockstep(self, ranks_batched: int):
        """The lockstep plan of this run (see :mod:`repro.simulator.lockstep`),
        or None with the refusal in ``lockstep_reason``.

        Lockstep needs every rank class-batched, so that every receive
        source is concrete (batching refuses a wildcard it cannot
        devirtualize).  The compiler then proves the rest over all the
        batched classes or refuses.  Ring mode is no condition: its
        per-key sums fold each rank's rows in order, whatever the drain
        (see :func:`repro.simulator.trace.fold_rows`)."""
        cfg = self.config
        if ranks_batched != cfg.nprocs:
            reason = f"{ranks_batched} of {cfg.nprocs} ranks class-batched"
        else:
            from repro.simulator.lockstep import Refusal, compile_plan

            try:
                return compile_plan(
                    self._batch_classes, cfg.nprocs, cost=self.cost,
                    delays=self._delays, send_ovh=self._send_ovh,
                    recv_ovh=self._recv_ovh,
                )
            except Refusal as exc:
                reason = str(exc)
            except Exception as exc:
                self._step_aside("compile_plan", exc)
                reason = f"compile_plan raised {type(exc).__name__}"
        self.lockstep_reason = reason
        return None

    def _precosted_streams(self, classes: list, batched):
        """The batched ranks' streams with their sends, and their computes
        when the cost is rank- and execution-independent, swapped for
        precosted twins (:func:`repro.simulator.classbatch.precost_classes`),
        so the time-ordered loop skips their per-event cost queries.  Purely
        an optimizer: a pass that raises steps aside, and ``batched``, the
        plain ops, runs instead."""
        from repro.simulator.classbatch import BatchedStreams, precost_classes

        machine = self.config.machine
        try:
            return BatchedStreams(precost_classes(
                classes, self.cost,
                precost_compute=(
                    machine.noise_sigma <= 0.0
                    and machine.core_speed_sigma <= 0.0
                    and machine.mem_speed_sigma <= 0.0
                ),
            ))
        except Exception as exc:
            self._step_aside("precost_classes", exc)
            return batched

    def _step_aside(self, component: str, exc: Exception) -> None:
        """Record why an optimizer analysis raised and was skipped."""
        self.class_batch_reasons += (
            f"{component} raised {type(exc).__name__}: {exc}",
        )

    def _build_batched_streams(
        self, analysis, expr_cache: dict, devirt: dict
    ) -> dict:
        """Per-rank op streams for every batchable equivalence class (see
        :mod:`repro.simulator.classbatch`), fanned out from the class
        templates only when first read; empty = everything runs per-rank.
        Purely an optimizer: any failure degrades to per-rank, with its
        reason appended to ``class_batch_reasons``; the identity sweep
        plus the batch counters keep it honest."""
        cfg = self.config
        if analysis is None:
            return {}
        from repro.analysis.symmetry import partition_ranks
        from repro.simulator.classbatch import build_batched_streams

        try:
            summary = partition_ranks(
                self.program, cfg.nprocs, cfg.params,
                entry=cfg.entry, analysis=analysis,
            )
            if summary.degraded is not None:
                self.class_batch_reasons += (
                    f"partition_ranks degraded: {summary.degraded}",
                )
                return {}
            result = build_batched_streams(
                program=self.program,
                psg=self.psg,
                nprocs=cfg.nprocs,
                params=cfg.params,
                entry=cfg.entry,
                max_iterations=cfg.max_iterations,
                analysis=analysis,
                summary=summary,
                expr_cache=expr_cache,
                devirt=devirt,
            )
        except Exception as exc:
            self._step_aside("build_batched_streams", exc)
            return {}
        stats = self.class_batch_stats
        stats["classes"] = result.classes_batched
        stats["ranks_batched"] = result.ranks_batched
        stats["fallbacks"] = result.fallbacks
        self.class_batch_reasons += result.fallback_reasons
        self._batch_classes = result.classes
        return result.streams

    def drain(self) -> None:
        """Run runnable ranks until none is runnable.

        It returns when no rank is runnable: all done, or all blocked — a
        deadlock the caller diagnoses via :meth:`finish`.

        Two drains serve it.  The time-ordered loop always steps the rank
        with the smallest clock; it is the loop the per-rank oracle runs,
        and it drains every run that :meth:`start` compiled no lockstep
        plan for, so every error and deadlock comes from it.

        **Lockstep.**  When every rank runs a class-batched stream, in
        either recording mode, every rank runs a patched copy of its
        class's template, so :meth:`start` can check the whole run
        statically (:func:`repro.simulator.lockstep.compile_plan`): every
        position is a compute (its per-execution noise drawn up front), a
        send, a concrete-source receive, a wait or waitall, or a
        collective whose op, root and size are the same on every rank of
        every class; non-overtaking pairs each receive row with one send
        row of any class; the classes' positions merge into one order in
        which every send comes before the position completing its receive
        and each collective runs once every class has reached it; every
        wait names an outstanding request, and every request is waited
        on.  Then the merged order is a schedule in which every value is
        written before it is read.  Every receive source is concrete, so
        MPI's non-overtaking rule fixes each match from per-rank program
        order and (Kahn's determinacy of process networks) every clock
        and every row value is independent of the schedule: lockstep
        gives the time-ordered loop's values bit for bit, and it cannot
        deadlock or raise.  The drain runs that schedule as float64
        columns and appends the rows as blocks: one per table when
        segments are recorded, and in ring mode event and counter blocks
        no larger than the ring's seal size, as the positions run.  Any
        failed check leaves a reason in ``lockstep_reason`` and the
        time-ordered loop drains instead; it stays lockstep's fallback
        and oracle.

        Only the global row order of the trace tables differs between the
        two drains, so only per-rank row order is contract.  The
        interleaving of different ranks' event rows, the order of P2P and
        collective rows, and a collective record's participant order may
        differ; consumers that compare or fold across ranks re-sort (by
        rank, then per-rank order) rather than rely on global row order.
        """
        if self._lockstep is not None:
            self._drain_lockstep()
        else:
            self._drain_time_ordered()

    def _drain_time_ordered(self) -> None:
        """Step the globally minimal rank until none is runnable."""
        queue = self._queue
        procs = self.procs
        entry = queue.pop()
        while entry is not None:
            entry = self._step(procs[entry[2]])

    def _drain_lockstep(self) -> None:
        """Run the compiled lockstep plan: every rank to completion, one
        template position at a time (see :meth:`drain`)."""
        plan = self._lockstep
        clocks = plan.run(self.trace)
        for proc, clock in zip(self.procs, clocks):
            proc.clock = clock
            proc.status = _Status.DONE
        self.mpi_call_count += plan.mpi_calls
        self.compute_count += plan.compute_ops
        self.wildcard_stats["devirt"] += plan.devirt

    def finish(self) -> SimulationResult:
        """Diagnose deadlock and assemble the run's result."""
        cfg = self.config
        blocked = [p for p in self.procs if p.status is _Status.BLOCKED]
        if blocked:
            raise DeadlockError(
                f"deadlock: {len(blocked)} of {cfg.nprocs} ranks blocked",
                [self._describe_block(p) for p in blocked],
            )
        return SimulationResult(
            nprocs=cfg.nprocs,
            config=cfg,
            finish_times=[proc.clock for proc in self.procs],
            trace=self.trace,
            indirect_notes=self.indirect_notes,
            mpi_call_count=self.mpi_call_count,
            compute_count=self.compute_count,
            metrics=self.metrics_snapshot(),
        )

    def fill_metrics(self, reg: obs.MetricsRegistry) -> None:
        """Fold this engine's run aggregates into ``reg``.

        Called exactly once per run, at finish time — every value
        comes from an aggregate the engine maintains anyway (op counters,
        columnar table row counts, per-rank clocks), so the hot loop pays
        nothing for observability, on or off.
        """
        reg.counter("engine.runs").inc()
        reg.counter("engine.mpi_calls").inc(self.mpi_call_count)
        reg.counter("engine.compute_ops").inc(self.compute_count)
        reg.counter("engine.trace_events").inc(self.trace.event_count)
        reg.counter("engine.p2p_matches").inc(self.trace.p2p.row_count)
        reg.counter("engine.collectives").inc(
            self.trace.collectives.row_count
        )
        # drain-dependent: lockstep hands no rank off after start.
        # engine.run_to_block is an alias of engine.lockstep, kept so the
        # pinned work counters of benchmarks/baseline.json still match.
        lockstep = int(self._lockstep is not None)
        reg.counter("engine.run_to_block").inc(lockstep)
        reg.counter("engine.lockstep").inc(lockstep)
        reg.counter("engine.rank_handoffs").inc(self._handoffs)
        stats = self.class_batch_stats
        reg.counter("sim.class_batch.classes").inc(stats["classes"])
        reg.counter("sim.class_batch.ranks_batched").inc(
            stats["ranks_batched"]
        )
        reg.counter("sim.class_batch.fallbacks").inc(stats["fallbacks"])
        reg.counter("sim.wildcard.devirt").inc(self.wildcard_stats["devirt"])
        hist = reg.histogram("engine.rank_finish_seconds")
        for proc in self.procs:
            hist.observe(proc.clock)

    def metrics_snapshot(self) -> obs.RunMetrics:
        """This run's execution metrics as a frozen, picklable snapshot."""
        reg = obs.MetricsRegistry()
        self.fill_metrics(reg)
        return reg.snapshot()

    def _push(self, proc: _Proc) -> None:
        proc.status = _Status.READY
        proc.token = self._handoffs = self._handoffs + 1
        self._queue.push((proc.clock, proc.token, proc.pid))

    def _describe_block(self, proc: _Proc) -> str:
        kind = proc.blocked_on[0] if proc.blocked_on else "?"
        detail = ""
        if kind == "recv":
            recv: PostedRecv = proc.blocked_on[1]
            src = "ANY" if recv.src is ops.ANY or recv.wild_src else recv.src
            tag = "ANY" if recv.tag is ops.ANY else recv.tag
            detail = f"recv(src={src}, tag={tag})"
        elif kind == "wait":
            detail = f"wait(req={proc.blocked_on[1].name})"
        elif kind == "waitall":
            # Report only the *incomplete* requests — blocked_on[1] is the
            # live id-set that _complete_match drains, so cross-check the
            # captured list against it rather than dumping every captured
            # request — and name them like the wait branch does.
            remaining = proc.blocked_on[1]
            names = [
                r.name for r in proc.waitall_reqs if id(r) in remaining
            ]
            detail = (
                f"waitall({len(names)} incomplete: req={', '.join(names)})"
                if names
                else f"waitall({len(remaining)} incomplete)"
            )
        elif kind == "collective":
            inst = proc.blocked_on[1]
            detail = f"{inst.mpi_op.display_name} #{inst.index} ({len(inst.arrivals)}/{inst.nprocs} arrived)"
        return f"rank {proc.pid} blocked at t={proc.clock:.6f} in {detail}"

    # ------------------------------------------------------------------
    # stepping one process
    # ------------------------------------------------------------------

    def _step(self, proc: _Proc) -> tuple | None:
        """Run ``proc`` op-by-op while it stays the globally minimal clock;
        returns the queue entry of the next rank to serve (None when the
        drain is over)."""
        queue_pop = self._queue.pop
        handlers = self._handlers
        gen_next = proc.gen.__next__
        while True:
            try:
                op = gen_next()
            except StopIteration:
                proc.status = _Status.DONE
                return queue_pop()
            handler = handlers.get(type(op))
            if handler is None:
                raise SimulationError(f"engine cannot handle {type(op).__name__}")
            if handler(self, proc, op):
                return queue_pop()
            # Anti-churn check: keep stepping while this proc is still the
            # globally minimal clock.  One fused queue op does it all:
            # pop-below-own-clock prunes stale entries on the way (so a
            # stale front never re-parks this proc for nothing) and, when a
            # strictly earlier rank exists, hands it over directly — no
            # separate peek, no extra pop in the drain loop.
            nxt = queue_pop(proc.clock)
            if nxt is not None:
                self._push(proc)
                return nxt
            # else: still the minimum — keep stepping without queue churn.

    def _handle_compute_op(self, proc: _Proc, op: ops.ComputeOp) -> bool:
        self._handle_compute(proc, op)
        return False

    def _handle_send_op(self, proc: _Proc, op: ops.SendOp) -> bool:
        self._handle_send(proc, op)
        return False

    def _handle_precosted_send_op(
        self, proc: _Proc, op: ops.PrecostedSendOp
    ) -> bool:
        """Send with baked network costs (see
        :mod:`repro.simulator.classbatch`) — same message and trace row as
        :meth:`_handle_send`, minus the two cost-model calls per event."""
        self.mpi_call_count += 1
        start = proc.clock
        proc.clock = start + op.overhead
        msg = Message(
            proc.pid, op.dest, op.tag, op.nbytes,
            start, start + op.transfer, op.vid,
        )
        if op.request is not None:  # isend: completes locally right away
            proc.requests.setdefault(op.request, []).append(
                _Request(name=op.request, kind="send", post_time=start, vid=op.vid)
            )
        self._trace_append(
            proc.pid, op.vid, 1, start, proc.clock, 0.0, op.op_code
        )
        match = self.mailboxes[op.dest].deliver(msg)
        if match is not None:
            self._complete_match(match)
        return False

    def _handle_precosted_compute_op(
        self, proc: _Proc, op: ops.PrecostedComputeOp
    ) -> bool:
        """Compute whose cost-model query was baked into the class template
        (see :mod:`repro.simulator.classbatch`) — same clock arithmetic and
        trace rows as :meth:`_handle_compute`, minus the per-event cache
        probe."""
        pid = proc.pid
        duration = op.duration
        if self._delays:
            extra = self._delays.get(
                (pid, op.location.filename, op.location.line)
            )
            if extra:
                duration += extra
        start = proc.clock
        proc.clock = start + duration
        self.compute_count += 1
        self._trace_append(pid, op.vid, 0, start, proc.clock, 0.0, -1)
        self.trace.append_counters(pid, op.vid, op.ins, op.cyc, op.lst, op.dcm)
        return False

    def _handle_indirect_note(self, proc: _Proc, op: ops.IndirectCallNote) -> bool:
        self.indirect_notes.append(
            IndirectNote(
                rank=proc.pid,
                stmt_id=op.stmt_id,
                inline_path=op.inline_path,
                target=op.target,
            )
        )
        return False

    # -- compute -----------------------------------------------------------

    def _handle_compute(self, proc: _Proc, op: ops.ComputeOp) -> None:
        pid = proc.pid
        if self._compute_cacheable:
            workload = op.workload
            ckey = (pid, workload)
            cached = self._compute_cache.get(ckey)
            # an equal workload is not always bit-equal (-0.0 == 0.0):
            # reuse another instance's cost only when the bits agree
            if cached is None or (
                cached[5] is not workload
                and cached[5].bits() != workload.bits()
            ):
                duration, counters = self.cost.compute_cost(pid, workload)
                cached = (
                    duration, counters.tot_ins, counters.tot_cyc,
                    counters.tot_lst_ins, counters.l2_dcm, workload,
                )
                self._compute_cache[ckey] = cached
            duration, ins, cyc, lst, dcm, _ = cached
        else:
            duration, counters = self.cost.compute_cost(pid, op.workload)
            ins, cyc, lst, dcm = (
                counters.tot_ins, counters.tot_cyc,
                counters.tot_lst_ins, counters.l2_dcm,
            )
        if self._delays:
            extra = self._delays.get(
                (pid, op.location.filename, op.location.line)
            )
            if extra:
                duration += extra
        start = proc.clock
        proc.clock = start + duration
        self.compute_count += 1
        self._trace_append(pid, op.vid, 0, start, proc.clock, 0.0, -1)
        self.trace.append_counters(pid, op.vid, ins, cyc, lst, dcm)

    # -- point-to-point ------------------------------------------------------

    def _handle_send(self, proc: _Proc, op: ops.SendOp) -> None:
        self.mpi_call_count += 1
        start = proc.clock
        proc.clock = start + self._send_ovh
        # positional: this constructor runs once per message sent
        msg = Message(
            proc.pid, op.dest, op.tag, op.nbytes,
            start, start + self.cost.p2p_transfer(op.nbytes), op.vid,
        )
        if op.request is not None:  # isend: completes locally right away
            proc.requests.setdefault(op.request, []).append(
                _Request(name=op.request, kind="send", post_time=start, vid=op.vid)
            )
        self._trace_append(
            proc.pid, op.vid, 1, start, proc.clock, 0.0, MPI_OP_CODES[op.mpi_op]
        )
        match = self.mailboxes[op.dest].deliver(msg)
        if match is not None:
            self._complete_match(match)

    def _handle_recv(self, proc: _Proc, op: ops.RecvOp) -> bool:
        self.mpi_call_count += 1
        recv = PostedRecv(
            rank=proc.pid,
            src=op.src,
            tag=op.tag,
            post_time=proc.clock,
            recv_vid=op.vid,
            request=op.request,
            wild_src=type(op) is ops.DevirtRecvOp,
        )
        match = self.mailboxes[proc.pid].post_recv(recv)
        if op.request is not None:
            # irecv: never blocks; completion is observed at wait time.
            req = _Request(
                name=op.request, kind="recv", post_time=proc.clock, vid=op.vid
            )
            proc.requests.setdefault(op.request, []).append(req)
            recv.request = op.request
            self._attach_request(proc.pid, recv, req)
            if match is not None:
                self._complete_match(match)
            start = proc.clock
            proc.clock = start + self._recv_ovh
            self._trace_append(
                proc.pid, op.vid, 1, start, proc.clock, 0.0,
                MPI_OP_CODES[op.mpi_op],
            )
            return False
        # blocking recv
        if match is not None:
            self._finish_blocking_recv(proc, op, match)
            return False
        proc.blocked_on = ("recv", recv, op)
        proc.block_start = proc.clock
        proc.status = _Status.BLOCKED
        return True

    def _handle_devirt_recv(self, proc: _Proc, op: ops.DevirtRecvOp) -> bool:
        """A wildcard receive rewritten to its proven-unique concrete
        source (see :meth:`_devirt_map`).  Identical to
        :meth:`_handle_recv` — which keeps the wildcard sentinel in trace
        rows via ``PostedRecv.wild_src`` — except the rewrite is counted."""
        self.wildcard_stats["devirt"] += 1
        return self._handle_recv(proc, op)

    def _finish_blocking_recv(self, proc: _Proc, op: ops.RecvOp, match) -> None:
        msg, recv = match.message, match.recv
        start = proc.clock
        # inlined Match.ready_time: max(message arrival, recv post time)
        arrival = msg.arrival
        ready = arrival if arrival >= recv.post_time else recv.post_time
        completion = max(start, ready) + self._recv_ovh
        wait = arrival - start
        if wait < 0.0:
            wait = 0.0
        proc.clock = completion
        self._trace_append(
            proc.pid, op.vid, 1, start, completion, wait, MPI_OP_CODES[op.mpi_op]
        )
        # one P2PTable row per matched message (flat-list append, no object)
        self._p2p_append(
            msg.src, msg.send_vid, proc.pid, op.vid, op.vid,
            msg.tag, msg.nbytes,
            WILDCARD_CODE if recv.src is ops.ANY or recv.wild_src else recv.src,
            WILDCARD_CODE if recv.tag is ops.ANY else recv.tag,
            msg.send_time, msg.arrival, recv.post_time, completion, wait,
        )

    def _attach_request(self, rank: int, recv: PostedRecv, req: _Request) -> None:
        """Remember which _Request a posted irecv belongs to so a later
        deliver() can complete it."""
        self._recv_reqs[recv.seq] = req

    def _complete_match(self, match) -> None:
        """A deliver() or post_recv() produced a match for a receive that is
        either a parked blocking recv or an irecv request."""
        recv = match.recv
        proc = self.procs[recv.rank]
        if recv.request is None:
            # Parked blocking recv: wake the process.
            assert proc.status is _Status.BLOCKED and proc.blocked_on is not None
            kind, parked_recv, op = proc.blocked_on
            assert kind == "recv" and parked_recv.seq == recv.seq
            proc.blocked_on = None
            self._finish_blocking_recv(proc, op, match)
            self._push(proc)
            return
        # irecv: mark the request ready; maybe wake a waiting process.
        # The row is appended at match time with completion = NaN (the
        # sentinel a matched-never-waited irecv keeps); the observing
        # wait/waitall fills it via set_wait.
        req = self._recv_reqs.pop(recv.seq)
        req.ready_time = match.ready_time
        req.row = self._p2p_append(
            match.message.src, match.message.send_vid,
            recv.rank, recv.recv_vid, -1,
            match.message.tag, match.message.nbytes,
            WILDCARD_CODE if recv.src is ops.ANY or recv.wild_src
            else recv.src,
            WILDCARD_CODE if recv.tag is ops.ANY else recv.tag,
            match.message.send_time, match.message.arrival,
            recv.post_time, float("nan"), 0.0,
        )
        if proc.status is _Status.BLOCKED and proc.blocked_on is not None:
            kind = proc.blocked_on[0]
            if kind == "wait" and proc.blocked_on[1] is req:
                _, _, wop = proc.blocked_on
                proc.blocked_on = None
                self._finish_wait(proc, wop, req, block_start=proc.block_start)
                self._push(proc)
            elif kind == "waitall":
                remaining, wop = proc.blocked_on[1], proc.blocked_on[2]
                remaining.discard(id(req))
                if not remaining:
                    proc.blocked_on = None
                    self._finish_waitall(proc, wop, block_start=proc.block_start)
                    self._push(proc)

    # -- wait / waitall -------------------------------------------------------

    def _handle_wait(self, proc: _Proc, op: ops.WaitOp) -> bool:
        self.mpi_call_count += 1
        queue = proc.requests.get(op.request)
        if not queue:
            raise MpiUsageError(
                f"{op.location}: rank {proc.pid} waits on unknown request "
                f"{op.request!r}"
            )
        req = queue.pop(0)
        if not queue:
            del proc.requests[op.request]
        if req.matched:
            self._finish_wait(proc, op, req, block_start=proc.clock)
            return False
        proc.blocked_on = ("wait", req, op)
        proc.block_start = proc.clock
        proc.status = _Status.BLOCKED
        return True

    def _finish_wait(
        self, proc: _Proc, op: ops.WaitOp, req: _Request, *, block_start: float
    ) -> None:
        if req.kind == "send":
            # An isend completed locally at post time: its MPI_Wait returns
            # after the *send-side* software overhead (this used to charge
            # the receive overhead — wrong side of the protocol stack).
            start = block_start
            proc.clock = start + self._send_ovh
            self._trace_append(
                proc.pid, op.vid, 1, start, proc.clock, 0.0, _WAIT_CODE
            )
            return
        assert req.ready_time is not None
        start = block_start
        completion = max(start, req.ready_time) + self._recv_ovh
        wait = max(0.0, req.ready_time - start)
        proc.clock = completion
        if req.row >= 0:
            self.trace.p2p.set_wait(req.row, completion, op.vid, wait)
        self._trace_append(
            proc.pid, op.vid, 1, start, completion, wait, _WAIT_CODE
        )

    def _outstanding_requests(self, proc: _Proc) -> list[_Request]:
        out: list[_Request] = []
        for queue in proc.requests.values():
            out.extend(queue)
        out.sort(key=lambda r: r.post_time)
        return out

    def _handle_waitall(self, proc: _Proc, op: ops.WaitAllOp) -> bool:
        self.mpi_call_count += 1
        outstanding = self._outstanding_requests(proc)
        unmatched = {id(r) for r in outstanding if not r.matched}
        proc.waitall_reqs = outstanding
        if not unmatched:
            self._finish_waitall(proc, op, block_start=proc.clock)
            return False
        proc.blocked_on = ("waitall", unmatched, op)
        proc.block_start = proc.clock
        proc.status = _Status.BLOCKED
        return True

    def _finish_waitall(self, proc: _Proc, op: ops.WaitAllOp, *, block_start: float) -> None:
        outstanding = proc.waitall_reqs
        ready_times = [block_start]
        for req in outstanding:
            if req.kind == "recv":
                assert req.ready_time is not None
                ready_times.append(req.ready_time)
        completion = max(ready_times) + self._recv_ovh
        wait = max(0.0, max(ready_times) - block_start)
        proc.clock = completion
        set_wait = self.trace.p2p.set_wait
        for req in outstanding:
            if req.row >= 0:
                set_wait(
                    req.row, completion, op.vid,
                    max(0.0, req.ready_time - block_start),
                )
        proc.requests.clear()
        proc.waitall_reqs = []
        self._trace_append(
            proc.pid, op.vid, 1, block_start, completion, wait, _WAITALL_CODE
        )

    # -- collectives ------------------------------------------------------------

    def _handle_collective(self, proc: _Proc, op: ops.CollectiveOp) -> bool:
        self.mpi_call_count += 1
        inst, complete = self.tracker.arrive(
            proc.pid, proc.clock, op.vid, op.mpi_op, op.root, op.nbytes, op.location
        )
        if not complete:
            proc.blocked_on = ("collective", inst, op)
            proc.block_start = proc.clock
            proc.status = _Status.BLOCKED
            return True
        # Last arrival: complete the instance for everyone.
        record, cost = build_collective_record(
            inst, self.cost, self.config.nprocs
        )
        self.trace.collectives.append_record(record)
        self._apply_collective(record, cost, arriving=proc)
        return False

    def _apply_collective(
        self, record: CollectiveRecord, cost: float, arriving: _Proc
    ) -> None:
        """Record the per-rank collective rows and release the ranks.

        ``arriving`` is the rank whose arrival completed the instance (it
        is still READY and mid-step); everyone else is parked and gets
        woken.
        """
        op_code = MPI_OP_CODES[record.mpi_op]
        completions = record.completions
        for rank, arrival in record.arrivals.items():
            vid = record.vids[rank]
            completion = completions[rank]
            wait = max(0.0, completion - arrival - cost)
            self._trace_append(
                rank, vid, 1, arrival, completion, wait, op_code
            )
            if rank == arriving.pid:
                arriving.clock = completion
            else:
                other = self.procs[rank]
                assert other.status is _Status.BLOCKED
                other.blocked_on = None
                other.clock = completion
                self._push(other)


def _entry_live(procs: list[_Proc]):
    """The queue's staleness predicate over the engine's procs: does an
    entry still schedule its proc?  (Superseded tokens and parked or
    finished procs do not.)"""

    def live(entry: tuple) -> bool:
        proc = procs[entry[2]]
        return proc.status is _Status.READY and proc.token == entry[1]

    return live


def _devirt_stream(gen, pid: int, devirt: dict):
    """Rewrite proven-unique wildcard receives in one rank's op stream.

    ``devirt`` maps ``(filename, line, column) -> {rank -> source}`` from
    :func:`repro.analysis.matchorder.devirt_sources`.  Ops are immutable
    and memoized per call site, so the rewrite allocates a replacement
    :class:`ops.DevirtRecvOp` and caches it by the original op's identity
    — a loop re-yielding the interpreter's memoized instance pays one
    dict probe per iteration, mirroring the interpreter's own op cache.
    Ranks without a proven source (racing, or never matched) keep the op
    as written.
    """
    cache: dict = {}
    for op in gen:
        if type(op) is ops.RecvOp and op.src is ops.ANY:
            loc = op.location
            srcs = devirt.get((loc.filename, loc.line, loc.column))
            if srcs is not None:
                src = srcs.get(pid)
                if src is not None:
                    cached = cache.get(id(op))
                    if cached is not None and cached[0] is op:
                        yield cached[1]
                        continue
                    new = ops.DevirtRecvOp(
                        vid=op.vid, location=op.location, src=src,
                        tag=op.tag, mpi_op=op.mpi_op,
                        blocking=op.blocking, request=op.request,
                    )
                    if len(cache) < 1024:
                        cache[id(op)] = (op, new)
                    yield new
                    continue
        yield op


#: Op-type dispatch for the hot loop: resolved per engine class in
#: ``__init__`` (one dict lookup + one call per op).
_HANDLER_NAMES = {
    ops.ComputeOp: "_handle_compute_op",
    ops.PrecostedComputeOp: "_handle_precosted_compute_op",
    ops.PrecostedSendOp: "_handle_precosted_send_op",
    ops.SendOp: "_handle_send_op",
    ops.RecvOp: "_handle_recv",
    ops.DevirtRecvOp: "_handle_devirt_recv",
    ops.WaitOp: "_handle_wait",
    ops.WaitAllOp: "_handle_waitall",
    ops.CollectiveOp: "_handle_collective",
    ops.IndirectCallNote: "_handle_indirect_note",
}


def build_collective_record(
    inst, cost_model: CostModel, nprocs: int
) -> tuple[CollectiveRecord, float]:
    """The :class:`CollectiveRecord` of a fully-arrived instance and the
    collective's cost: per-rank completion times are a pure function of
    the arrival data and the cost model."""
    cost = cost_model.collective_cost(inst.mpi_op, nprocs, inst.nbytes)
    max_arrival = inst.max_arrival
    root_arrival = inst.root_arrival
    completions: dict[int, float] = {}
    for rank, (arrival, _vid) in inst.arrivals.items():
        if inst.mpi_op in (MpiOp.BCAST, MpiOp.SCATTER):
            completions[rank] = max(arrival, root_arrival + cost)
        elif inst.mpi_op in (MpiOp.REDUCE, MpiOp.GATHER):
            completions[rank] = (
                max_arrival + cost
                if rank == inst.root
                else arrival + cost_model.network.call_overhead
            )
        else:  # synchronizing collectives
            completions[rank] = max_arrival + cost
    record = CollectiveRecord(
        index=inst.index,
        mpi_op=inst.mpi_op,
        root=inst.root,
        nbytes=inst.nbytes,
        vids={r: vid for r, (_t, vid) in inst.arrivals.items()},
        arrivals={r: t for r, (t, _vid) in inst.arrivals.items()},
        completions=completions,
    )
    return record, cost


def simulate(program: ast.Program, psg: PSG, config: SimulationConfig) -> SimulationResult:
    """Convenience wrapper: run one simulation to completion (counted by
    :func:`simulation_call_count`)."""
    _sim_runs.inc()
    return Engine(program, psg, config).run()
