"""Discrete-event MPI simulator: the reproduction's "cluster".

Runs MiniMPI programs over P simulated ranks with MPI-faithful semantics
(message matching with wildcards, non-blocking requests, order-matched
collectives), a latency/bandwidth network model, and a roofline-style
computation cost model with simulated PMU counters.

Determinism: all randomness (noise, heterogeneity) is derived from the
config seed; the engine processes events in virtual-time order, so two runs
of the same configuration produce identical results.
"""

from repro.simulator.collectives import CollectiveMismatchError, CollectiveTracker
from repro.simulator.costmodel import (
    CostModel,
    MachineModel,
    NetworkModel,
    PerfCounters,
    Workload,
)
from repro.simulator.engine import (
    DelayInjection,
    Engine,
    SimulationConfig,
    SimulationResult,
    simulate,
    simulation_call_count,
)
from repro.simulator.errors import (
    DeadlockError,
    IterationLimitError,
    MpiUsageError,
    SimulationError,
)
from repro.simulator.events import (
    CollectiveRecord,
    IndirectNote,
    P2PRecord,
    Segment,
    SegmentKind,
)
from repro.simulator.interp import FuncRefValue, Interpreter
from repro.simulator.matching import Mailbox, Match, Message, PostedRecv
from repro.simulator.ops import ANY
from repro.simulator.schedq import BinaryHeapQueue
from repro.simulator.trace import (
    CollectiveTable,
    P2PTable,
    TraceBuffer,
    WILDCARD_CODE,
)

__all__ = [
    "ANY",
    "BinaryHeapQueue",
    "CollectiveMismatchError",
    "CollectiveRecord",
    "CollectiveTable",
    "CollectiveTracker",
    "CostModel",
    "DeadlockError",
    "DelayInjection",
    "Engine",
    "FuncRefValue",
    "IndirectNote",
    "Interpreter",
    "IterationLimitError",
    "MachineModel",
    "Mailbox",
    "Match",
    "Message",
    "MpiUsageError",
    "NetworkModel",
    "P2PRecord",
    "P2PTable",
    "PerfCounters",
    "PostedRecv",
    "Segment",
    "SegmentKind",
    "SimulationConfig",
    "SimulationError",
    "SimulationResult",
    "TraceBuffer",
    "WILDCARD_CODE",
    "Workload",
    "simulate",
    "simulation_call_count",
]
