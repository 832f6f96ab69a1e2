"""The optimized engine is bit-identical to the per-rank oracle.

The engine always engages its three optimizers: cross-rank op-record
sharing (``const_stmts``), class batching and wildcard devirtualization.
Each may only change *how* a run executes, never what any rank computes.
The oracle is the serial engine with every optimizer off
(:func:`tests.conftest.per_rank_oracle`): every rank interpreted on its
own, every wildcard receive matched as written.

One sweep covers both randomized generators — ``make_workload`` (p2p,
nonblocking, collectives, time-separated wildcard races) and
``make_wild_workload`` (devirtualizable wildcard patterns next to racy
ones) — across the remaining strategy matrix: serial, in-process shards
and, for a subset of seeds, the process executor.
"""

import random

import pytest

from tests.conftest import (
    _compiled,
    _fingerprint,
    make_wild_workload,
    make_workload,
    per_rank_oracle,
)

GENERATORS = {"workload": make_workload, "wild": make_wild_workload}

#: Seeds that also run through the multiprocess executor (forking
#: workers per run is the slow leg, so only a sample takes it).
PROCESS_SEEDS = {2, 5, 19, 37, 41, 44, 64, 71, 77, 93}


@pytest.mark.parametrize("seed", range(100))
@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_optimized_engine_matches_per_rank_oracle(generator, seed):
    source = GENERATORS[generator](seed)
    rng = random.Random(20_000 + seed)
    nprocs = rng.randint(5, 9)
    program, psg = _compiled(source, f"{generator}{seed}")
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
