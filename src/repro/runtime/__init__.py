"""ScalAna's runtime layer: sampling profiling + communication dependence.

:class:`ProfiledRun` bundles everything ``ScalAna-prof`` produces for one
(application, process count) execution: sampled per-vertex performance
vectors, compressed communication dependence, indirect-call resolutions,
and the measured overhead/storage of collecting it all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.minilang import ast_nodes as ast
from repro.psg.graph import PSG
from repro.runtime.accounting import (
    DEFAULT_PARAMS,
    OverheadReport,
    ToolCostParams,
    profiler_costs,
    scalana_costs,
    tracer_costs,
)
from repro.runtime.interposition import (
    CollectiveGroup,
    CommDependence,
    CommEdge,
    collect_comm_dependence,
)
from repro.runtime.perfdata import PerformanceVector
from repro.runtime.sampling import (
    DEFAULT_FREQ_HZ,
    SamplingProfile,
    exact_profile,
    sample_result,
)
from repro.simulator.engine import SimulationConfig, SimulationResult, simulate

__all__ = [
    "PerformanceVector",
    "SamplingProfile",
    "sample_result",
    "exact_profile",
    "profile_run_averaged",
    "DEFAULT_FREQ_HZ",
    "CommEdge",
    "CollectiveGroup",
    "CommDependence",
    "collect_comm_dependence",
    "ToolCostParams",
    "OverheadReport",
    "DEFAULT_PARAMS",
    "scalana_costs",
    "tracer_costs",
    "profiler_costs",
    "ProfiledRun",
    "profile_run",
]


@dataclass
class ProfiledRun:
    """Output of ``ScalAna-prof`` for one (program, nprocs) execution."""

    nprocs: int
    result: SimulationResult
    profile: SamplingProfile
    comm: CommDependence
    overhead: OverheadReport

    @property
    def app_time(self) -> float:
        return self.result.total_time


def profile_run(
    program: ast.Program,
    psg: PSG,
    config: SimulationConfig,
    *,
    freq_hz: float = DEFAULT_FREQ_HZ,
    comm_sample_probability: float = 1.0,
    params: ToolCostParams = DEFAULT_PARAMS,
) -> ProfiledRun:
    """Simulate one run and apply ScalAna's runtime collection to it."""
    result = simulate(program, psg, config)
    profile = sample_result(result, freq_hz)
    comm = collect_comm_dependence(
        result, sample_probability=comm_sample_probability, seed=config.seed
    )
    group_member_ranks = config.nprocs
    overhead = scalana_costs(
        app_time=result.total_time,
        nprocs=config.nprocs,
        total_samples=profile.total_samples,
        mpi_calls=result.mpi_call_count,
        recorded_comm_events=comm.recorded_events,
        unique_edges=len(comm.edge_counts),
        unique_groups=len(comm.groups),
        group_member_ranks=group_member_ranks,
        psg_vertices=len(psg),
        sampled_vertex_vectors=len(profile.ranks),
        params=params,
    )
    return ProfiledRun(
        nprocs=config.nprocs,
        result=result,
        profile=profile,
        comm=comm,
        overhead=overhead,
    )


# imported last: averaging builds on profile_run / ProfiledRun defined above
from repro.runtime.averaging import profile_run_averaged  # noqa: E402
