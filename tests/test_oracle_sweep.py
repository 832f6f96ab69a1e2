"""The optimized engine is bit-identical to the per-rank oracle.

The engine always engages its three optimizers: cross-rank op-record
sharing (``const_stmts``), class batching and wildcard devirtualization.
Each may only change *how* a run executes, never what any rank computes.
The oracle is the serial engine with every optimizer off
(:func:`tests.conftest.per_rank_oracle`): every rank interpreted on its
own, every wildcard receive matched as written.

One sweep covers three randomized generators — ``make_workload`` (p2p,
nonblocking, collectives, time-separated wildcard races),
``make_wild_workload`` (devirtualizable wildcard patterns next to racy
ones) and ``make_stride_workload`` (loop-carried strides whose partners
read ``("frame", name)`` leaves, next to invalidation traps) — across the
remaining strategy matrix: serial, in-process shards and, for a subset of
seeds, the process executor.
"""

import random

import pytest

from repro.simulator import SimulationConfig
from repro.simulator.engine import Engine
from tests.conftest import (
    _compiled,
    _fingerprint,
    make_stride_workload,
    make_wild_workload,
    make_workload,
    per_rank_oracle,
)

GENERATORS = {
    "workload": make_workload,
    "wild": make_wild_workload,
    "stride": make_stride_workload,
}

#: Seeds that also run through the multiprocess executor (forking
#: workers per run is the slow leg, so only a sample takes it).
PROCESS_SEEDS = {2, 5, 19, 37, 41, 44, 64, 71, 77, 93}


def _draw(generator, seed):
    source = GENERATORS[generator](seed)
    rng = random.Random(20_000 + seed)
    nprocs = rng.randint(5, 9)
    program, psg = _compiled(source, f"{generator}{seed}")
    return program, psg, nprocs, rng


@pytest.mark.parametrize("seed", range(100))
@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_optimized_engine_matches_per_rank_oracle(generator, seed):
    program, psg, nprocs, rng = _draw(generator, seed)
    with per_rank_oracle():
        oracle = _fingerprint(program, psg, nprocs)
    strategies = [
        {},
        dict(sim_shards=rng.randint(2, 4), sim_executor="inprocess"),
    ]
    if seed in PROCESS_SEEDS:
        strategies.append(dict(sim_shards=2, sim_executor="process"))
    for strategy in strategies:
        assert _fingerprint(program, psg, nprocs, **strategy) == oracle, (
            f"{generator} seed {seed} diverges under {strategy or 'serial'}"
        )


def test_stride_draws_mostly_batch():
    """The stride sweep is not vacuous: at least half of its draws run
    class-batched (the rest hold an invalidation trap, which must not)."""
    batched = 0
    for seed in range(100):
        program, psg, nprocs, _rng = _draw("stride", seed)
        engine = Engine(program, psg, SimulationConfig(nprocs=nprocs))
        engine.start()
        batched += engine.class_batch_stats.get("ranks_batched", 0) > 0
    assert batched >= 50, f"only {batched}/100 stride draws batch"
