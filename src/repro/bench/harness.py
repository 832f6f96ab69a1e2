"""Shared machinery for the per-table/per-figure benchmark targets.

Every bench target regenerates one table or figure of the paper: it runs
the relevant (app, scale, tool) grid, renders the same rows/series the
paper reports, prints them, and writes them under ``benchmarks/results/``
so the output survives pytest's capture.

To keep the suite fast, each (app, scale) is simulated **once** and the
three measurement tools' views are derived from that single ground truth
(they are deterministic post-processors).  Results are memoized per
process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

from repro.apps.spec import AppSpec
from repro.runtime import (
    OverheadReport,
    collect_comm_dependence,
    profiler_costs,
    sample_result,
    scalana_costs,
    tracer_costs,
)
from repro.runtime.sampling import DEFAULT_FREQ_HZ, SamplingProfile
from repro.runtime.interposition import CommDependence
from repro.simulator import MachineModel, SimulationConfig, SimulationResult, simulate

__all__ = [
    "BENCH_SEED",
    "ThreeToolReport",
    "app_scales",
    "emit",
    "measure_three_tools",
    "profile_app",
    "results_dir",
    "run_app",
    "speedup_curve",
]

BENCH_SEED = 20200903  # the paper's arXiv date


def results_dir() -> Path:
    """benchmarks/results/ at the repo root (created on demand)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if any((parent / marker).exists() for marker in ("pyproject.toml", "setup.py")):
            out = parent / "benchmarks" / "results"
            out.mkdir(parents=True, exist_ok=True)
            return out
    # not installed from a source checkout: fall back to the working dir
    out = Path.cwd() / "benchmark_results"
    out.mkdir(parents=True, exist_ok=True)
    return out


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    banner = f"\n{'#' * 70}\n# {name}\n{'#' * 70}\n"
    print(banner + text)
    (results_dir() / f"{name}.txt").write_text(text + "\n")


def app_scales(spec: AppSpec, scales: list[int]) -> list[int]:
    """Filter a scale list to the app's process-count constraint, mapping
    invalid entries to the nearest smaller valid count (e.g. 128 -> 121 for
    BT/SP, exactly as the paper does)."""
    out: list[int] = []
    for p in scales:
        if spec.nprocs_valid(p):
            out.append(p)
            continue
        q = p
        while q > 1 and not spec.nprocs_valid(q):
            q -= 1
        if q >= 2 and q not in out:
            out.append(q)
    return sorted(set(out))


def _config(spec: AppSpec, nprocs: int, params: dict | None = None) -> SimulationConfig:
    return SimulationConfig(
        nprocs=nprocs,
        params=spec.merged_params(params),
        machine=spec.machine or MachineModel(),
        network=spec.network or SimulationConfig(nprocs=1).network,
        seed=BENCH_SEED,
    )


@functools.lru_cache(maxsize=256)
def _run_cached(app_name: str, nprocs: int) -> SimulationResult:
    from repro.apps import get_app

    spec = get_app(app_name)
    return simulate(spec.program, spec.psg, _config(spec, nprocs))


def run_app(spec: AppSpec, nprocs: int) -> SimulationResult:
    """Simulate (memoized on (app name, nprocs) with default params)."""
    return _run_cached(spec.name, nprocs)


def profile_app(spec: AppSpec, nprocs: int) -> tuple[SamplingProfile, CommDependence, SimulationResult]:
    result = run_app(spec, nprocs)
    profile = sample_result(result, DEFAULT_FREQ_HZ)
    comm = collect_comm_dependence(result, seed=BENCH_SEED)
    return profile, comm, result


@dataclass(frozen=True)
class ThreeToolReport:
    app: str
    nprocs: int
    tracer: OverheadReport
    profiler: OverheadReport
    scalana: OverheadReport


def measure_three_tools(spec: AppSpec, nprocs: int) -> ThreeToolReport:
    """Derive all three tools' cost reports from one simulated execution."""
    profile, comm, result = profile_app(spec, nprocs)

    trace_mpi_events = result.mpi_call_count + 2 * len(result.p2p_records)
    trace_region_events = 2 * result.compute_count + result.mpi_call_count
    from repro.simulator.events import SegmentKind

    compute_seconds = sum(
        s.duration for s in result.segments if s.kind is SegmentKind.COMPUTE
    )
    tracer = tracer_costs(
        app_time=result.total_time,
        nprocs=nprocs,
        mpi_events=trace_mpi_events,
        region_events=trace_region_events,
        compute_seconds=compute_seconds,
    )

    per_rank_paths: dict[int, set[int]] = {}
    for (rank, vid) in profile.perf:
        per_rank_paths.setdefault(rank, set()).add(vid)
    mean_paths = (
        sum(len(s) for s in per_rank_paths.values()) / max(1, len(per_rank_paths))
        if per_rank_paths
        else 0.0
    )
    profiler = profiler_costs(
        app_time=result.total_time,
        nprocs=nprocs,
        total_samples=profile.total_samples,
        unique_callpaths_per_rank=mean_paths,
    )

    scalana = scalana_costs(
        app_time=result.total_time,
        nprocs=nprocs,
        total_samples=profile.total_samples,
        mpi_calls=result.mpi_call_count,
        recorded_comm_events=comm.recorded_events,
        unique_edges=len(comm.edge_counts),
        unique_groups=len(comm.groups),
        group_member_ranks=nprocs,
        psg_vertices=len(spec.psg),
        sampled_vertex_vectors=len(profile.ranks),
    )
    return ThreeToolReport(
        app=spec.name, nprocs=nprocs, tracer=tracer, profiler=profiler, scalana=scalana
    )


def speedup_curve(spec: AppSpec, scales: list[int], base: int | None = None) -> dict[int, float]:
    """Speedup per scale relative to the smallest (or given) baseline."""
    valid = app_scales(spec, scales)
    times = {p: run_app(spec, p).total_time for p in valid}
    base_p = base if base is not None else valid[0]
    return {p: times[base_p] / times[p] for p in valid}
