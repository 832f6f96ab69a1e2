"""Lockstep drain: where it engages, that it changes nothing, and that a
refusal leaves the per-event drain's results and errors as they were.

When one batched class covers every rank of a recorded run, the engine
proves the point-to-point pairing at start and runs all ranks one
template position at a time as numpy columns.  These tests pin:

- identity: engaged runs equal the run-to-block FIFO drain
  (:func:`tests.conftest.fifo_drain`) and the per-rank oracle, bit for
  bit, including tie-heavy and delay-injected runs;
- refusal reasons, kept in ``Engine.lockstep_reason`` with the source
  location of the position that failed, and never in
  ``class_batch_reasons``;
- refusal parity: a program lockstep refuses deadlocks, raises, or
  leaves a request open exactly as the oracle does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import run_fingerprint
from repro.apps import get_app
from repro.runtime import profile_run
from repro.simulator import SimulationConfig
from repro.simulator.costmodel import MachineModel, NetworkModel
from repro.simulator.engine import DelayInjection, Engine
from repro.simulator.errors import DeadlockError, MpiUsageError
from tests.conftest import (
    _compiled,
    canonical_collective_rows,
    canonical_p2p_rows,
    fifo_drain,
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


def assert_three_way(program, psg, config) -> tuple:
    """Lockstep engages, and equals the FIFO drain and the oracle; returns
    the lockstep and FIFO runs' metrics."""
    lockstep, metrics = ground_truth(program, psg, config)
    with fifo_drain():
        fifo, fifo_metrics = ground_truth(program, psg, config)
    with per_rank_oracle():
        oracle, _ = ground_truth(program, psg, config)
    assert metrics.counter("engine.lockstep") == 1
    assert fifo_metrics.counter("engine.lockstep") == 0
    for key in lockstep:
        assert lockstep[key] == fifo[key] == oracle[key], key
    return metrics, fifo_metrics


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


class TestIdentity:
    NPROCS = 6

    def test_devirtualized_wildcards(self):
        program, psg = _compiled(DEVIRTUALIZED, "devirt")
        metrics = assert_three_way(program, psg, SimulationConfig(
            nprocs=self.NPROCS,
        ))
        assert [m.counter("sim.wildcard.devirt") for m in metrics] == [
            2 * self.NPROCS, 2 * self.NPROCS,
        ]

    def test_every_position_kind(self):
        program, psg = _compiled(EVERY_KIND, "every_kind")
        assert_three_way(program, psg, SimulationConfig(nprocs=self.NPROCS))

    def test_ties(self):
        """A free network makes arrivals equal posts and clocks equal
        each other: every max and ternary meets its tie."""
        program, psg = _compiled(EVERY_KIND, "every_kind")
        free = NetworkModel(latency=0.0, bandwidth=float("inf"),
                            call_overhead=0.0)
        assert_three_way(program, psg, SimulationConfig(
            nprocs=self.NPROCS, network=free,
        ))

    def test_delay_injection(self):
        program, psg = _compiled(EVERY_KIND, "every_kind")
        delays = [
            DelayInjection(2, "every_kind.mm", 5, 0.25),
            DelayInjection(2, "every_kind.mm", 5, 0.5),
            DelayInjection(4, "every_kind.mm", 3, 1e-3),
        ]
        assert_three_way(program, psg, SimulationConfig(
            nprocs=self.NPROCS, injected_delays=delays,
        ))

    def test_per_rank_cost_model(self):
        """Per-rank speed spread: compute is costed per member (not
        precosted), once per distinct workload."""
        program, psg = _compiled(EVERY_KIND, "every_kind")
        machine = MachineModel(core_speed_sigma=0.2, mem_speed_sigma=0.3)
        assert_three_way(program, psg, SimulationConfig(
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
        assert_three_way(spec.program, spec.psg, SimulationConfig(
            nprocs=nprocs, params=spec.merged_params(),
            machine=spec.machine or MachineModel(), seed=1,
            injected_delays=delays,
        ))


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

#: At P=4 the first receive's message comes from the first send on rank
#: 0 but from the second send on rank 1: no one send position feeds it.
CROSSED = """\
def main() {
    send(dest = (rank + 1) % nprocs, tag = 1, bytes = 8);
    send(dest = nprocs - 1 - rank, tag = 1, bytes = 8);
    recv(src = nprocs - 1 - rank, tag = 1);
    recv(src = (rank - 1 + nprocs) % nprocs, tag = 1);
}
"""


class TestRefusalReasons:
    def test_two_classes(self):
        spec = get_app("zeusmp")
        engine = Engine(spec.program, spec.psg, SimulationConfig(
            nprocs=8, params=spec.merged_params(),
            machine=spec.machine or MachineModel(),
        ))
        result = engine.run()
        assert engine.lockstep_reason == "2 rank classes"
        assert result.metrics.counter("engine.lockstep") == 0
        assert result.metrics.counter("engine.run_to_block") == 1
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
        engine = _engine(EVERY_KIND, "every_kind", 6, record_segments=False)
        result = engine.run()
        assert engine.lockstep_reason == "ring mode: segments are not recorded"
        assert result.metrics.counter("engine.lockstep") == 0
        assert result.metrics.counter("sim.class_batch.ranks_batched") == 6

    def test_noisy_compute(self):
        engine = _engine(
            EVERY_KIND, "every_kind", 6,
            machine=MachineModel(noise_sigma=0.1),
        )
        engine.run()
        assert engine.lockstep_reason == (
            "every_kind.mm:3: compute cost draws per-execution noise"
        )

    @pytest.mark.parametrize("source, reason", [
        (UNRECEIVED, "unreceived.mm:3: sends and receives do not pair up "
                     "channel by channel"),
        (CROSSED, "crossed.mm:4: receive pairs with more than one send "
                  "position"),
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
