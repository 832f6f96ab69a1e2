"""Conservative parallel DES: sharded multi-core simulation of one run.

``Pipeline.run_scales(jobs=N)`` already parallelizes *across* scales; this
subsystem parallelizes *within* one run.  Ranks are partitioned into P
contiguous shards, each running its own engine over its rank subset;
shards advance in conservative windows and meet the coordinator at
null-message-free barrier edges, where cross-shard messages are routed,
collectives spanning shards are completed, and wildcard-receive ordering
decisions are released under a safety bound derived from the cost model's
minimum network latency (the lookahead — a message posted at *t* cannot
reach another shard before ``t + latency``).

Guarantee: **bit-identical results**.  For the same
:class:`~repro.simulator.engine.SimulationConfig`, a sharded run produces
the same per-rank timelines, aggregates, profiles, communication
dependence and detection reports as the serial engine — float-for-float —
because every cross-rank completion time is a pure function of matched
timestamps, per-rank trace order is preserved by the shard merge, and the
globally-order-sensitive decisions (``MPI_ANY_SOURCE`` matching) are made
under the conservative bound in canonical time order.  One carve-out:
when *distinct senders* race for one wildcard receive at *exactly* equal
virtual times (symmetric programs — identical per-rank work under the
default zero-noise cost model — produce such ties routinely), the match
is ambiguous in MPI semantics and the two engines resolve it differently:
sharded mode picks canonically (lowest sender rank, deterministic across
shard counts and executors), the serial engine by its emergent scheduler
order.  Programs whose wildcard candidates are time-separated — every
workload in the test matrix and app registry — are covered by the full
guarantee.

Two executors drive the same round protocol: the deterministic in-process
scheduler (tests, debugging, profiling) and the ``multiprocessing``
executor (one worker per shard, columnar trace chunks shipped back and
merged).  Entry points: set ``SimulationConfig.sim_shards`` /
``AnalysisConfig.sim_shards`` / ``--sim-shards`` and every existing API
routes here through :func:`repro.simulator.simulate`, or call
:func:`simulate_sharded` directly.
"""

from repro.simulator.parallel.coordinator import (
    LocalShardHandle,
    run_coordinated,
    simulate_sharded,
)
from repro.simulator.parallel.messages import (
    Arrival,
    CompletedCollective,
    RoundInput,
    RoundOutput,
    ShardFinal,
)
from repro.simulator.parallel.plan import ShardPlan
from repro.simulator.parallel.shard import ShardEngine

__all__ = [
    "Arrival",
    "CompletedCollective",
    "LocalShardHandle",
    "RoundInput",
    "RoundOutput",
    "ShardEngine",
    "ShardFinal",
    "ShardPlan",
    "run_coordinated",
    "simulate_sharded",
]
