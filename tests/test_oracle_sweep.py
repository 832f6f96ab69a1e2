"""The optimized engine is bit-identical to the per-rank oracle.

The engine always engages its two optimizers: class batching and
wildcard devirtualization.  Each may only change *how* a run executes, never what any rank computes.
The oracle is the serial engine with every optimizer off
(:func:`tests.conftest.per_rank_oracle`): every rank interpreted on its
own, every wildcard receive matched as written.

One sweep covers three randomized generators — ``make_workload`` (p2p,
nonblocking, collectives, time-separated wildcard races),
``make_wild_workload`` (devirtualizable wildcard patterns next to racy
ones) and ``make_stride_workload`` (loop-carried strides whose partners
read ``("frame", name)`` leaves, next to invalidation traps) — at 100
seeds each.  Draws whose pairing the lockstep compiler proves run
through the engine's lockstep drain and the rest through its
time-ordered loop, so the sweep gates both.
"""

import random

import pytest

from repro.simulator import SimulationConfig, simulate
from repro.simulator.engine import Engine
from tests.conftest import (
    GENERATORS,
    _compiled,
    _fingerprint,
    aggregate_bits,
    canonical_collective_rows,
    canonical_p2p_rows,
    per_rank_oracle,
    per_rank_trace_bytes,
)

def _draw(generator, seed):
    source = GENERATORS[generator](seed)
    rng = random.Random(20_000 + seed)
    nprocs = rng.randint(5, 9)
    program, psg = _compiled(source, f"{generator}{seed}")
    return program, psg, nprocs


@pytest.mark.parametrize("seed", range(100))
@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_optimized_engine_matches_per_rank_oracle(generator, seed):
    program, psg, nprocs = _draw(generator, seed)
    with per_rank_oracle():
        oracle = _fingerprint(program, psg, nprocs)
    assert _fingerprint(program, psg, nprocs) == oracle, (
        f"{generator} seed {seed} diverges from the per-rank oracle"
    )


def test_stride_draws_mostly_batch():
    """The stride sweep is not vacuous: at least half of its draws run
    class-batched (the rest hold an invalidation trap, which must not)."""
    batched = 0
    for seed in range(100):
        program, psg, nprocs = _draw("stride", seed)
        engine = Engine(program, psg, SimulationConfig(nprocs=nprocs))
        engine.start()
        batched += engine.class_batch_stats.get("ranks_batched", 0) > 0
    assert batched >= 50, f"only {batched}/100 stride draws batch"


#: Minimum serial draws out of 100 per generator that run lockstep
#: (measured: stride 69, workload 26, wild 16 -- every draw whose ranks
#: all class-batch, each one class of every rank; multi-class runs are
#: covered by ``tests/test_lockstep.py``).  Draws with a racing
#: wildcard, a singleton class or an invalidation trap keep the
#: time-ordered loop, which the sweep covers too.
LOCKSTEP_SHARE = {"stride": 60, "workload": 20, "wild": 12}


def _ground_truth(program, psg, nprocs):
    result = simulate(program, psg, SimulationConfig(nprocs=nprocs))
    trace = result.trace
    return (
        _fingerprint(program, psg, nprocs),
        per_rank_trace_bytes(trace),
        canonical_p2p_rows(trace.p2p),
        canonical_collective_rows(trace.collectives),
        result.finish_times,
        aggregate_bits(result),
    ), result.metrics.counter("engine.lockstep")


@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_serial_draws_run_lockstep(generator):
    """Lockstep cannot silently stop engaging: a stated share of each
    generator's draws run it, and each engaged draw equals the per-rank
    oracle (fingerprint, per-rank trace rows, communication tables,
    finish times).  Each engaged draw runs ring mode too, in lockstep,
    and keeps the recorded run's aggregate and finish-time bits."""
    engaged = 0
    for seed in range(100):
        program, psg, nprocs = _draw(generator, seed)
        lockstep, ran = _ground_truth(program, psg, nprocs)
        if not ran:
            continue
        engaged += 1
        with per_rank_oracle():
            oracle, _ = _ground_truth(program, psg, nprocs)
        assert lockstep == oracle, (
            f"{generator} seed {seed}: lockstep and oracle differ"
        )
        ring = simulate(
            program, psg, SimulationConfig(nprocs=nprocs, record_segments=False)
        )
        assert ring.metrics.counter("engine.lockstep") == 1
        assert aggregate_bits(ring) == lockstep[-1], (
            f"{generator} seed {seed}: ring and recorded aggregates differ"
        )
    want = LOCKSTEP_SHARE[generator]
    assert engaged >= want, (
        f"only {engaged}/100 {generator} draws run lockstep (want {want})"
    )
