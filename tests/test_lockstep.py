"""Lockstep drain: where it engages, that it changes nothing, and that a
refusal leaves the per-event drain's results and errors as they were.

When batched classes cover every rank of a run, recorded or ring mode,
the engine proves the point-to-point pairing at start, merges the
classes' positions into one order, and runs all ranks one template
position at a time as numpy columns.  These tests pin:

- identity: engaged runs equal the per-rank oracle
  (:func:`tests.conftest.per_rank_oracle`), bit for bit, including
  tie-heavy, delay-injected and noisy runs, one class or many (a seeded
  multi-class corpus among them);
- refusal reasons, kept in ``Engine.lockstep_reason`` with the source
  location of the position that failed, and never in
  ``class_batch_reasons``;
- refusal parity: a program lockstep refuses deadlocks, raises, or
  leaves a request open exactly as the oracle does;
- one schedule proof, two consumers: the lint's templates, ops and
  member columns like the engine's, compile where the engine's do, to
  the same clocks.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.simulator.classbatch as classbatch
from repro.analysis import run_lint
from repro.api import run_fingerprint
from repro.apps import APPS, get_app
from repro.runtime import profile_run
from repro.simulator import SimulationConfig
from repro.simulator.costmodel import CostModel, MachineModel, NetworkModel
from repro.simulator.engine import DelayInjection, Engine
from repro.simulator.collectives import CollectiveMismatchError
from repro.simulator.errors import DeadlockError, MpiUsageError
from repro.simulator.lockstep import Refusal, compile_plan
from repro.simulator.trace import TraceBuffer
from tests.conftest import (
    _compiled,
    aggregate_bits,
    canonical_collective_rows,
    canonical_p2p_rows,
    per_rank_oracle,
    per_rank_trace_bytes,
)


def ground_truth(program, psg, config):
    """Everything identity compares: fingerprint, per-rank trace bytes,
    communication tables, finish-time bits, per-vertex aggregates and
    work counters; plus the run's metrics."""
    run = profile_run(program, psg, config)
    result = run.result
    trace = result.trace

    def bits(view):
        return {
            key: np.asarray(
                value if not hasattr(value, "tot_ins") else (
                    value.tot_ins, value.tot_cyc, value.tot_lst_ins,
                    value.l2_dcm,
                ),
                dtype=np.float64,
            ).tobytes()
            for key, value in view.items()
        }

    counters = {
        name: result.metrics.counter(name)
        for name in (
            "engine.mpi_calls", "engine.compute_ops", "engine.trace_events",
            "engine.p2p_matches", "engine.collectives",
        )
    }
    return {
        "fingerprint": run_fingerprint(run),
        "trace": per_rank_trace_bytes(trace),
        "p2p": canonical_p2p_rows(trace.p2p),
        "collectives": canonical_collective_rows(trace.collectives),
        "finish": np.asarray(result.finish_times).tobytes(),
        "vertex_time": bits(result.vertex_time),
        "vertex_wait": bits(result.vertex_wait),
        "vertex_visits": result.vertex_visits,
        "vertex_counters": bits(result.vertex_counters),
        "counters": counters,
    }, result.metrics


def assert_matches_oracle(program, psg, config):
    """Lockstep engages and equals the per-rank oracle; returns the
    lockstep run's metrics."""
    lockstep, metrics = ground_truth(program, psg, config)
    with per_rank_oracle():
        oracle, oracle_metrics = ground_truth(program, psg, config)
    assert metrics.counter("engine.lockstep") == 1
    assert oracle_metrics.counter("engine.lockstep") == 0
    for key in lockstep:
        assert lockstep[key] == oracle[key], key
    return metrics


def _engine(source, name, nprocs, **cfg):
    program, psg = _compiled(source, name)
    return Engine(program, psg, SimulationConfig(nprocs=nprocs, **cfg))


# ---------------------------------------------------------------------------
# identity where lockstep engages


#: Every position kind: sendrecv, irecv/isend/waitall, wait on an irecv
#: whose message is sent after it was posted, wait on an isend, and every
#: collective, rooted ones included.
EVERY_KIND = """\
def main() {
    for (var it = 0; it < 3; it = it + 1) {
        compute(flops = 1000 * (rank + 1) + 500 * it, bytes = 64 * rank);
        sendrecv(dest = (rank + 1) % nprocs, tag = 2, bytes = 256,
                 src = (rank - 1 + nprocs) % nprocs);
        irecv(src = (rank + 2) % nprocs, tag = 3, req = r);
        compute(flops = 3000 * (nprocs - rank));
        isend(dest = (rank - 2 + nprocs) % nprocs, tag = 3, bytes = 4096,
              req = s);
        waitall();
        irecv(src = (rank - 1 + nprocs) % nprocs, tag = 4, req = q);
        send(dest = (rank + 1) % nprocs, tag = 4, bytes = 8 * (rank + 1));
        wait(req = q);
        isend(dest = (rank + 3) % nprocs, tag = 5, bytes = 16, req = t);
        recv(src = (rank - 3 + nprocs) % nprocs, tag = 5);
        wait(req = t);
        bcast(root = 1, bytes = 64);
        reduce(root = 2, bytes = 32);
        gather(root = 0, bytes = 8);
        scatter(root = 3, bytes = 8);
        allgather(bytes = 16);
        alltoall(bytes = 16);
        barrier();
        allreduce(bytes = 8);
    }
}
"""


#: Each rank's ANY-source receive has one possible sender, so it
#: devirtualizes; its P2P rows still record the wildcard.
DEVIRTUALIZED = """\
def main() {
    compute(flops = 1000 * (rank + 1));
    send(dest = (rank + 1) % nprocs, tag = 1, bytes = 8);
    recv(src = ANY, tag = 1);
    irecv(src = ANY, tag = 2, req = r);
    send(dest = (rank + 2) % nprocs, tag = 2, bytes = 16);
    wait(req = r);
}
"""


#: At P=4 the first receive's message comes from the first send on rank
#: 0 but from the second send on rank 1: one receive position gathers
#: from two send positions.
CROSSED = """\
def main() {
    send(dest = (rank + 1) % nprocs, tag = 1, bytes = 8);
    send(dest = nprocs - 1 - rank, tag = 1, bytes = 8);
    recv(src = nprocs - 1 - rank, tag = 1);
    recv(src = (rank - 1 + nprocs) % nprocs, tag = 1);
}
"""


class TestIdentity:
    NPROCS = 6

    def test_receive_gathers_from_two_send_positions(self):
        program, psg = _compiled(CROSSED, "crossed")
        assert_matches_oracle(program, psg, SimulationConfig(nprocs=4))

    def test_devirtualized_wildcards(self):
        program, psg = _compiled(DEVIRTUALIZED, "devirt")
        metrics = assert_matches_oracle(program, psg, SimulationConfig(
            nprocs=self.NPROCS,
        ))
        assert metrics.counter("sim.wildcard.devirt") == 2 * self.NPROCS

    def test_every_position_kind(self):
        program, psg = _compiled(EVERY_KIND, "every_kind")
        assert_matches_oracle(program, psg, SimulationConfig(nprocs=self.NPROCS))

    def test_ties(self):
        """A free network makes arrivals equal posts and clocks equal
        each other: every max and ternary meets its tie."""
        program, psg = _compiled(EVERY_KIND, "every_kind")
        free = NetworkModel(latency=0.0, bandwidth=float("inf"),
                            call_overhead=0.0)
        assert_matches_oracle(program, psg, SimulationConfig(
            nprocs=self.NPROCS, network=free,
        ))

    def test_delay_injection(self):
        program, psg = _compiled(EVERY_KIND, "every_kind")
        delays = [
            DelayInjection(2, "every_kind.mm", 5, 0.25),
            DelayInjection(2, "every_kind.mm", 5, 0.5),
            DelayInjection(4, "every_kind.mm", 3, 1e-3),
        ]
        assert_matches_oracle(program, psg, SimulationConfig(
            nprocs=self.NPROCS, injected_delays=delays,
        ))

    def test_per_rank_cost_model(self):
        """Per-rank speed spread: compute is costed per member, once per
        distinct workload."""
        program, psg = _compiled(EVERY_KIND, "every_kind")
        machine = MachineModel(core_speed_sigma=0.2, mem_speed_sigma=0.3)
        assert_matches_oracle(program, psg, SimulationConfig(
            nprocs=self.NPROCS, machine=machine, seed=3,
        ))

    @pytest.mark.parametrize("app, nprocs", [
        ("cg", 16), ("ep", 8), ("ft", 8), ("is", 8), ("mg", 8), ("bt", 9),
        ("sp", 9), ("nekbone", 8), ("nekbone_fixed", 8), ("sst", 8),
        ("sst_fixed", 8),
    ])
    def test_bundled_single_class_apps(self, app, nprocs):
        spec = get_app(app)
        delays = []
        if app == "cg":
            delays = [DelayInjection(4, "cg.mm", 13, 25.0)]
        assert_matches_oracle(spec.program, spec.psg, SimulationConfig(
            nprocs=nprocs, params=spec.merged_params(),
            machine=spec.machine or MachineModel(), seed=1,
            injected_delays=delays,
        ))


# ---------------------------------------------------------------------------
# identity over several rank classes


#: Three classes (``rank % 3``) with one, two and three computes before a
#: ring exchange that crosses classes; the rooted collectives' roots
#: (ranks 1 and 5 at P=6) sit in the second and third class.
THREE_CLASSES = """\
def main() {
    for (var it = 0; it < 2; it = it + 1) {
        if (rank % 3 == 0) {
            compute(flops = 1000 * (rank + 1));
        }
        if (rank % 3 == 1) {
            compute(flops = 2000 * (rank + 1));
            compute(flops = 500 + it);
        }
        if (rank % 3 == 2) {
            compute(flops = 3000);
            compute(flops = 700 * rank, bytes = 64 * rank);
            compute(flops = 900);
        }
        isend(dest = (rank + 1) % nprocs, tag = 7, bytes = 512, req = s);
        irecv(src = (rank - 1 + nprocs) % nprocs, tag = 7, req = r);
        waitall();
        bcast(root = 1, bytes = 64);
        reduce(root = 5, bytes = 32);
        allreduce(bytes = 8);
    }
}
"""

#: Even ranks send first and receive last; odd ranks receive first and
#: send last: cross-class messages at different template positions, in
#: both directions.
CROSS_POSITIONS = """\
def main() {
    compute(flops = 1000 * (rank + 1));
    if (rank % 2 == 0) {
        send(dest = rank + 1, tag = 1, bytes = 64);
        compute(flops = 5000);
        compute(flops = 7000);
        recv(src = rank + 1, tag = 2);
    } else {
        compute(flops = 3000);
        recv(src = rank - 1, tag = 1);
        send(dest = rank - 1, tag = 2, bytes = 128);
    }
    sendrecv(dest = (rank + 3) % nprocs, tag = 3, bytes = 32,
             src = (rank - 3 + nprocs) % nprocs);
    gather(root = 3, bytes = 16);
    barrier();
}
"""


def make_multiclass_workload(seed: int) -> tuple[str, int, int]:
    """A seeded program whose ranks split into ``m`` classes by
    ``rank % m``: per class a different number of computes around a
    send to the next rank and a receive from the previous one, then
    shared fragments (a shifted isend/irecv/waitall exchange, a
    sendrecv, collectives with random roots).  Returns the source, the
    scale and ``m``."""
    rng = random.Random(seed)
    m = rng.choice((2, 3, 4))
    nprocs = m * rng.choice((2, 3))
    lines = [
        "def main() {",
        f"    for (var it = 0; it < {rng.randint(1, 3)}; it = it + 1) {{",
    ]
    for r in range(m):
        tag = 10 + r
        before = [
            f"            compute(flops = {rng.randint(1, 9)}000 * (rank + 1));"
            for _ in range(rng.randint(0, 2))
        ]
        after = [
            f"            compute(flops = {rng.randint(1, 9)}00 + it);"
            for _ in range(rng.randint(0, 2))
        ]
        lines += [
            f"        if (rank % {m} == {r}) {{",
            *before,
            f"            send(dest = (rank + 1) % nprocs, tag = {tag}, "
            f"bytes = {rng.choice((8, 256, 4096))});",
            *after,
            f"            recv(src = (rank - 1 + nprocs) % nprocs, "
            f"tag = {10 + (r - 1) % m});",
            "        }",
        ]
    shift = rng.randint(1, nprocs - 1)
    fragments = [
        f"        isend(dest = (rank + {shift}) % nprocs, tag = 20, "
        "bytes = 1024, req = s);\n"
        f"        irecv(src = (rank - {shift} + nprocs) % nprocs, tag = 20, "
        "req = r);\n"
        f"        compute(flops = {rng.randint(1, 9)}00 * (nprocs - rank));\n"
        "        waitall();",
        "        sendrecv(dest = (rank + 1) % nprocs, tag = 21, bytes = 64, "
        "src = (rank - 1 + nprocs) % nprocs);",
        f"        bcast(root = {rng.randrange(nprocs)}, bytes = 64);",
        f"        reduce(root = {rng.randrange(nprocs)}, bytes = 32);",
        "        allreduce(bytes = 8);",
    ]
    rng.shuffle(fragments)
    lines += fragments[:rng.randint(2, len(fragments))]
    lines += ["    }", "}", ""]
    return "\n".join(lines), nprocs, m


def assert_multiclass(program, psg, config, classes: int) -> None:
    metrics = assert_matches_oracle(program, psg, config)
    assert metrics.counter("sim.class_batch.classes") == classes


class TestMultiClassIdentity:
    NPROCS = 6

    @pytest.mark.parametrize("app", ["zeusmp", "zeusmp_fixed"])
    @pytest.mark.parametrize("nprocs", [8, 16, 64])
    def test_zeusmp(self, app, nprocs):
        spec = get_app(app)
        assert_multiclass(spec.program, spec.psg, SimulationConfig(
            nprocs=nprocs, params=spec.merged_params(),
            machine=spec.machine or MachineModel(), seed=1,
        ), 2)

    def test_three_classes(self):
        program, psg = _compiled(THREE_CLASSES, "three")
        assert_multiclass(
            program, psg, SimulationConfig(nprocs=self.NPROCS), 3,
        )

    def test_cross_class_positions(self):
        program, psg = _compiled(CROSS_POSITIONS, "cross")
        assert_multiclass(program, psg, SimulationConfig(nprocs=8), 2)

    def test_delay_on_a_second_class_member(self):
        program, psg = _compiled(THREE_CLASSES, "three")
        assert_multiclass(program, psg, SimulationConfig(
            nprocs=self.NPROCS,
            injected_delays=[DelayInjection(4, "three.mm", 8, 0.5)],
        ), 3)

    def test_per_rank_cost_model(self):
        """Per-rank speed spread: each member is costed as its own rank,
        not as its index in the class."""
        program, psg = _compiled(THREE_CLASSES, "three")
        machine = MachineModel(core_speed_sigma=0.2, mem_speed_sigma=0.3)
        assert_multiclass(program, psg, SimulationConfig(
            nprocs=self.NPROCS, machine=machine, seed=3,
        ), 3)

    @pytest.mark.parametrize("seed", range(16))
    def test_seeded_corpus(self, seed):
        source, nprocs, classes = make_multiclass_workload(seed)
        program, psg = _compiled(source, f"multiclass{seed}")
        assert_multiclass(
            program, psg, SimulationConfig(nprocs=nprocs, seed=seed), classes,
        )


# ---------------------------------------------------------------------------
# identity under per-execution noise


#: Two compute ops, each filling one position per iteration: every
#: position takes its own factors, however the compiler memoizes the op.
NOISY_LOOP = """\
def main() {
    for (var it = 0; it < 5; it = it + 1) {
        compute(flops = 1000 * (rank + 1), bytes = 64 * rank);
        sendrecv(dest = (rank + 1) % nprocs, tag = 2, bytes = 256,
                 src = (rank - 1 + nprocs) % nprocs);
        compute(flops = 3000);
    }
    allreduce(bytes = 8);
}
"""

#: Two chains, r -> r + 2: at P=8 the heads, the middle and the tails are
#: three classes.  A middle rank's receive reads another middle rank's
#: later send, which class-granular merging cannot order, so lockstep
#: refuses at merge, after the compiler drew the noise; the run itself
#: completes.
CHAINS = """\
def main() {
    compute(flops = 1000000 * (rank + 1));
    if (rank >= 2) {
        recv(src = rank - 2, tag = 1);
    }
    compute(flops = 2000 * (rank + 1));
    if (rank < nprocs - 2) {
        send(dest = rank + 2, tag = 1, bytes = 64);
    }
    allreduce(bytes = 8);
}
"""

NOISE = MachineModel(noise_sigma=0.1)


class TestNoise:
    """Each rank's k-th compute draws the k-th factor of its own stream,
    in lockstep as in the per-event handler."""

    NPROCS = 6

    @pytest.mark.parametrize("seed", [1, 3])
    def test_every_position_kind(self, seed):
        program, psg = _compiled(EVERY_KIND, "every_kind")
        assert_matches_oracle(program, psg, SimulationConfig(
            nprocs=self.NPROCS, machine=NOISE, seed=seed,
        ))

    def test_one_op_fills_several_positions(self):
        program, psg = _compiled(NOISY_LOOP, "noisy_loop")
        assert_matches_oracle(program, psg, SimulationConfig(
            nprocs=self.NPROCS, machine=NOISE, seed=2,
        ))

    def test_each_op_is_costed_once(self, monkeypatch):
        """A noisy compute op is costed once however many positions it
        fills; each position scales only its duration and cycles."""
        calls = []
        columns = CostModel.compute_cost_columns

        def counting(cost, *args):
            calls.append(args)
            return columns(cost, *args)

        monkeypatch.setattr(CostModel, "compute_cost_columns", counting)
        program, psg = _compiled(NOISY_LOOP, "noisy_loop")
        engine = Engine(program, psg, SimulationConfig(
            nprocs=self.NPROCS, machine=NOISE, seed=2,
        ))
        engine.run()
        assert engine.lockstep_reason is None
        assert engine.class_batch_stats["classes"] == 1
        # two compute statements fill ten positions
        assert len(calls) == 2

    def test_with_per_rank_speeds(self):
        machine = MachineModel(
            noise_sigma=0.1, core_speed_sigma=0.2, mem_speed_sigma=0.3,
        )
        program, psg = _compiled(EVERY_KIND, "every_kind")
        assert_matches_oracle(program, psg, SimulationConfig(
            nprocs=self.NPROCS, machine=machine, seed=3,
        ))
        program, psg = _compiled(THREE_CLASSES, "three")
        assert_multiclass(program, psg, SimulationConfig(
            nprocs=self.NPROCS, machine=machine, seed=3,
        ), 3)

    def test_delay_injection(self):
        """An injected delay adds to the noisy duration; the cycle
        counter stays the noisy duration's."""
        program, psg = _compiled(NOISY_LOOP, "noisy_loop")
        assert_matches_oracle(program, psg, SimulationConfig(
            nprocs=self.NPROCS, machine=NOISE, seed=1,
            injected_delays=[DelayInjection(2, "noisy_loop.mm", 3, 0.25)],
        ))

    def test_refusal_at_merge_leaves_the_noise_streams(self):
        program, psg = _compiled(CHAINS, "chains")
        config = SimulationConfig(nprocs=8, machine=NOISE, seed=2)
        engine = Engine(program, psg, config)
        engine.run()
        assert engine.class_batch_stats["classes"] == 3
        assert engine.lockstep_reason == (
            "chains.mm:4: receive completes before its paired send at "
            "chains.mm:8"
        )
        refused, metrics = ground_truth(program, psg, config)
        with per_rank_oracle():
            oracle, _ = ground_truth(program, psg, config)
        assert metrics.counter("engine.lockstep") == 0
        for key in refused:
            assert refused[key] == oracle[key], key


class TestRingSlabs:
    """A ring-mode lockstep run hands its event and counter rows to the
    trace in blocks no larger than the ring's seal size, and the trace
    keeps none of them: no whole-run matrix is built or kept."""

    @pytest.mark.parametrize("chunk", [4, 16])
    def test_blocks_stay_within_the_seal_size(self, monkeypatch, chunk):
        import repro.simulator.trace as trace_mod

        monkeypatch.setattr(trace_mod, "CHUNK_EVENTS", chunk)
        recorded = _engine(EVERY_KIND, "every_kind", 6).run()
        blocks = []
        append_block = trace_mod.TraceBuffer.append_block

        def spy(trace, events, counters):
            blocks.append((len(events), len(counters)))
            append_block(trace, events, counters)

        monkeypatch.setattr(trace_mod.TraceBuffer, "append_block", spy)
        engine = _engine(EVERY_KIND, "every_kind", 6, record_segments=False)
        result = engine.run()
        assert result.metrics.counter("engine.lockstep") == 1
        events, counters = (sum(column) for column in zip(*blocks))
        assert (events, counters) == (
            result.trace.event_count, result.trace.counter_count
        )
        assert events > 2 * chunk and counters > chunk
        assert max(max(sizes) for sizes in blocks) <= chunk
        assert result.trace._events._chunks == []
        assert result.trace._counters._chunks == []
        assert aggregate_bits(result) == aggregate_bits(recorded)


# ---------------------------------------------------------------------------
# refusal reasons


#: A message nobody receives (MPI leaves it pending; no error).
UNRECEIVED = """\
def main() {
    compute(flops = 1000 * (rank + 1));
    send(dest = (rank + 1) % nprocs, tag = 1, bytes = 8);
    barrier();
}
"""

class TestRefusalReasons:
    def test_two_classes(self):
        """zeusmp's busy and idle ranks batch as two classes, and
        lockstep runs them both."""
        spec = get_app("zeusmp")
        engine = Engine(spec.program, spec.psg, SimulationConfig(
            nprocs=8, params=spec.merged_params(),
            machine=spec.machine or MachineModel(),
        ))
        result = engine.run()
        assert engine.lockstep_reason is None
        assert engine.class_batch_stats["classes"] == 2
        assert result.metrics.counter("engine.lockstep") == 1
        assert result.metrics.counter("engine.run_to_block") == 1
        assert result.metrics.counter("engine.rank_handoffs") == 8
        assert not engine.class_batch_reasons

    def test_singleton_ranks(self):
        spec = get_app("lu")
        engine = Engine(spec.program, spec.psg, SimulationConfig(
            nprocs=8, params=spec.merged_params(),
            machine=spec.machine or MachineModel(),
        ))
        result = engine.run()
        assert engine.lockstep_reason == "6 of 8 ranks class-batched"
        assert result.metrics.counter("engine.lockstep") == 0

    def test_ring_mode(self):
        """Ring mode is no refusal: its per-key sums fold each rank's rows
        in order whatever the drain, so they keep the oracle's bits."""
        engine = _engine(EVERY_KIND, "every_kind", 6, record_segments=False)
        result = engine.run()
        assert engine.lockstep_reason is None
        assert result.metrics.counter("engine.lockstep") == 1
        assert result.metrics.counter("engine.trace_events") > 0
        with per_rank_oracle():
            oracle = _engine(
                EVERY_KIND, "every_kind", 6, record_segments=False
            ).run()
        assert oracle.metrics.counter("engine.lockstep") == 0
        assert aggregate_bits(result) == aggregate_bits(oracle)
        assert canonical_p2p_rows(result.trace.p2p) == canonical_p2p_rows(
            oracle.trace.p2p
        )
        assert canonical_collective_rows(
            result.trace.collectives
        ) == canonical_collective_rows(oracle.trace.collectives)

    def test_noisy_compute(self):
        """Per-execution noise is drawn at start, so it refuses nothing."""
        engine = _engine(
            EVERY_KIND, "every_kind", 6,
            machine=MachineModel(noise_sigma=0.1),
        )
        result = engine.run()
        assert engine.lockstep_reason is None
        assert result.metrics.counter("engine.lockstep") == 1

    @pytest.mark.parametrize("source, reason", [
        (UNRECEIVED, "unreceived.mm:3: sends and receives do not pair up "
                     "channel by channel"),
    ])
    def test_pairing_refusals_keep_the_oracle_result(self, source, reason):
        name = reason.split(".")[0]
        engine, result = _outcome(source, name, 4)
        with per_rank_oracle():
            _, oracle = _outcome(source, name, 4)
        assert engine.lockstep_reason == reason
        assert engine.class_batch_stats["ranks_batched"] == 4
        assert result.finish_times == oracle.finish_times
        assert canonical_p2p_rows(result.trace.p2p) == canonical_p2p_rows(
            oracle.trace.p2p
        )

    def test_engaged_run_has_no_reason(self):
        engine = _engine(EVERY_KIND, "every_kind", 6)
        result = engine.run()
        assert engine.lockstep_reason is None
        assert result.metrics.counter("engine.lockstep") == 1
        # every rank was handed to the scheduler once, at start
        assert result.metrics.counter("engine.rank_handoffs") == 6


# ---------------------------------------------------------------------------
# refusal parity: what lockstep refuses behaves exactly as before


#: The ring's blocking receive comes before the send that feeds it.
RECV_BEFORE_SEND = """\
def main() {
    compute(flops = 1000000 * (rank + 1));
    recv(src = (rank - 1 + nprocs) % nprocs, tag = 1);
    send(dest = (rank + 1) % nprocs, tag = 1, bytes = 8);
}
"""

UNKNOWN_WAIT = """\
def main() {
    compute(flops = 1000000 * (nprocs - rank));
    wait(req = r);
}
"""

NEVER_WAITED = """\
def main() {
    irecv(src = (rank - 1 + nprocs) % nprocs, tag = 1, req = r);
    compute(flops = 1000 * (rank + 1));
    send(dest = (rank + 1) % nprocs, tag = 1, bytes = 64);
    barrier();
}
"""

VARYING_NBYTES = """\
def main() {
    compute(flops = 1000000 * (rank + 1));
    allreduce(bytes = 8 * (rank + 1));
    compute(flops = 1000);
}
"""


def _outcome(source, name, nprocs):
    """(engine, result or exception) of one run."""
    engine = _engine(source, name, nprocs)
    try:
        return engine, engine.run()
    except Exception as exc:
        return engine, exc


class TestRefusalParity:
    NPROCS = 5

    def _both(self, source, name):
        engine, outcome = _outcome(source, name, self.NPROCS)
        with per_rank_oracle():
            _, oracle = _outcome(source, name, self.NPROCS)
        assert engine.class_batch_stats["ranks_batched"] == self.NPROCS
        assert engine._lockstep is None
        return engine, outcome, oracle

    def test_receive_before_its_send_deadlocks_as_before(self):
        engine, exc, oracle = self._both(RECV_BEFORE_SEND, "recv_first")
        assert engine.lockstep_reason == (
            "recv_first.mm:3: receive completes before its paired send at "
            "recv_first.mm:4"
        )
        assert isinstance(exc, DeadlockError)
        assert type(oracle) is DeadlockError
        assert str(exc) == str(oracle)
        assert exc.blocked == oracle.blocked

    def test_unknown_request_raises_as_before(self):
        engine, exc, oracle = self._both(UNKNOWN_WAIT, "unknown")
        assert engine.lockstep_reason == (
            "unknown.mm:3: wait on unknown request 'r'"
        )
        assert isinstance(exc, MpiUsageError)
        assert type(oracle) is MpiUsageError
        assert str(exc) == str(oracle)

    def test_irecv_never_waited_keeps_nan_completions(self):
        engine, result, oracle = self._both(NEVER_WAITED, "never_waited")
        assert engine.lockstep_reason == (
            "never_waited.mm:2: request 'r' is never waited on"
        )
        completion = result.trace.p2p.columns()["completion"]
        assert len(completion) == self.NPROCS
        assert np.isnan(completion).all()
        assert canonical_p2p_rows(result.trace.p2p) == canonical_p2p_rows(
            oracle.trace.p2p
        )
        assert per_rank_trace_bytes(result.trace) == per_rank_trace_bytes(
            oracle.trace
        )

    def test_rank_varying_collective_bytes(self):
        engine, result, oracle = self._both(VARYING_NBYTES, "nbytes")
        assert engine.lockstep_reason == (
            "nbytes.mm:3: nbytes varies by rank"
        )
        if isinstance(oracle, Exception):
            assert type(result) is type(oracle)
            assert str(result) == str(oracle)
            return
        assert result.finish_times == oracle.finish_times
        assert canonical_collective_rows(
            result.trace.collectives
        ) == canonical_collective_rows(oracle.trace.collectives)
        assert per_rank_trace_bytes(result.trace) == per_rank_trace_bytes(
            oracle.trace
        )


#: Each class's receive needs the other class's later send.
CYCLE = """\
def main() {
    compute(flops = 1000000 * (rank + 1));
    if (rank % 2 == 0) {
        recv(src = rank + 1, tag = 1);
        send(dest = rank + 1, tag = 2, bytes = 8);
    } else {
        recv(src = rank - 1, tag = 2);
        send(dest = rank - 1, tag = 1, bytes = 8);
    }
}
"""

#: Only the even ranks call the barrier.
LONE_COLLECTIVE = """\
def main() {
    compute(flops = 1000000 * (rank + 1));
    if (rank % 2 == 0) {
        barrier();
    }
    compute(flops = 1000);
}
"""

#: The classes' first collective differs in its op or its byte count.
MISMATCH = """\
def main() {
    compute(flops = 1000000 * (rank + 1));
    if (rank % 2 == 0) {
        allreduce(bytes = 8);
    } else {
        OTHER
    }
    compute(flops = 1000);
}
"""


class TestCrossClassRefusalParity:
    NPROCS = 6

    def _both(self, source, name):
        engine, outcome = _outcome(source, name, self.NPROCS)
        with per_rank_oracle():
            _, oracle = _outcome(source, name, self.NPROCS)
        assert engine.class_batch_stats["classes"] == 2
        assert engine.class_batch_stats["ranks_batched"] == self.NPROCS
        assert engine._lockstep is None
        return engine, outcome, oracle

    def test_receive_cycle_deadlocks_as_before(self):
        engine, exc, oracle = self._both(CYCLE, "cycle")
        assert engine.lockstep_reason == (
            "cycle.mm:4: receive completes before its paired send at "
            "cycle.mm:8"
        )
        assert isinstance(exc, DeadlockError)
        assert type(oracle) is DeadlockError
        assert str(exc) == str(oracle)
        assert exc.blocked == oracle.blocked

    def test_collective_one_class_skips_deadlocks_as_before(self):
        engine, exc, oracle = self._both(LONE_COLLECTIVE, "lone")
        assert engine.lockstep_reason == (
            "lone.mm:4: collective #0 is not reached by every rank class"
        )
        assert isinstance(exc, DeadlockError)
        assert type(oracle) is DeadlockError
        assert str(exc) == str(oracle)
        assert exc.blocked == oracle.blocked

    def test_collective_op_mismatch_raises_as_before(self):
        engine, exc, oracle = self._both(MISMATCH.replace("OTHER", "barrier();"), "op")
        assert engine.lockstep_reason == (
            "op.mm:6: collective #0 op differs from op.mm:4"
        )
        assert isinstance(exc, CollectiveMismatchError)
        assert type(oracle) is CollectiveMismatchError
        assert str(exc) == str(oracle)

    def test_collective_nbytes_mismatch_matches_the_oracle(self):
        engine, result, oracle = self._both(
            MISMATCH.replace("OTHER", "allreduce(bytes = 16);"), "nbytes"
        )
        assert engine.lockstep_reason == (
            "nbytes.mm:6: collective #0 nbytes differs from nbytes.mm:4"
        )
        assert result.finish_times == oracle.finish_times
        assert canonical_collective_rows(
            result.trace.collectives
        ) == canonical_collective_rows(oracle.trace.collectives)
        assert per_rank_trace_bytes(result.trace) == per_rank_trace_bytes(
            oracle.trace
        )


# ---------------------------------------------------------------------------
# the lint's templates


@pytest.mark.parametrize("app", sorted(APPS))
def test_lint_templates_compile_where_the_engines_do(app, monkeypatch):
    """The lint's class templates, given the engine's cost model, compile
    exactly where the engine's own do, to the same finish clocks, and
    refuse elsewhere with the engine's reason."""
    spec = get_app(app)
    nprocs = 16
    engine = Engine(spec.program, spec.psg, SimulationConfig(
        nprocs=nprocs, params=spec.merged_params(),
        machine=spec.machine or MachineModel(),
    ))
    result = engine.run()
    builds = []
    build = classbatch.build_batched_streams

    def capturing(**kwargs):
        builds.append(build(**kwargs))
        return builds[-1]

    monkeypatch.setattr(classbatch, "build_batched_streams", capturing)
    run_lint(spec.program, spec.psg, nprocs, spec.merged_params())
    (lint,) = builds
    batched = sum(len(members) for members, _base, _patches in lint.classes)
    plan = None
    if batched != nprocs:
        reason = f"{batched} of {nprocs} ranks class-batched"
    else:
        try:
            plan = compile_plan(
                lint.classes, nprocs, cost=engine.cost, delays=engine._delays,
                send_ovh=engine._send_ovh, recv_ovh=engine._recv_ovh,
            )
            reason = None
        except Refusal as exc:
            reason = str(exc)
    assert reason == engine.lockstep_reason
    if plan is not None:
        finish = plan.run(TraceBuffer(keep_events=True))
        assert np.asarray(finish).tobytes() == np.asarray(
            result.finish_times
        ).tobytes()
