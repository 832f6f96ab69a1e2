"""Multi-run averaging (paper §VI-A methodology).

"For all experiments, we run three times and average the results for each
process scale to reduce performance variance."  With a noisy machine model
(``noise_sigma > 0``) single runs jitter; this module runs ``repetitions``
simulations with derived seeds and averages the sampled performance
vectors, keeping the union of communication dependence (comm structure is
identical across repetitions; only timings vary).
"""

from __future__ import annotations

from dataclasses import replace

from repro.minilang import ast_nodes as ast
from repro.psg.graph import PSG
from repro.runtime import ProfiledRun, profile_run
from repro.runtime.accounting import OverheadReport
from repro.runtime.interposition import CommDependence
from repro.runtime.perfdata import PerformanceVector
from repro.runtime.sampling import DEFAULT_FREQ_HZ, SamplingProfile
from repro.simulator import SimulationConfig
from repro.util.rng import derive_seed

__all__ = ["profile_run_averaged"]


def _merge_comm(runs: list[ProfiledRun]) -> CommDependence:
    """Union of dependence records; per-key stats keep max wait, mean count."""
    merged = CommDependence()
    edge_stats: dict[tuple, tuple[int, float]] = {}
    n = len(runs)
    for run in runs:
        dep = run.comm
        merged.observed_events += dep.observed_events
        merged.recorded_events += dep.recorded_events
        for key, (count, max_wait) in dep.edge_stats.items():
            old_count, old_wait = edge_stats.get(key, (0, 0.0))
            edge_stats[key] = (old_count + count, max(old_wait, max_wait))
        for key, group in dep.groups.items():
            merged.groups[key] = group
            count, max_wait, laggard = dep.group_stats[key]
            old = merged.group_stats.get(key, (0, 0.0, -1))
            merged.group_stats[key] = (
                (old[0] + count, max_wait, laggard)
                if max_wait >= old[1]
                else (old[0] + count, old[1], old[2])
            )
        for key, targets in dep.indirect_targets.items():
            merged.indirect_targets.setdefault(key, set()).update(targets)
    merged.set_edge_stats(edge_stats)
    merged.observed_events //= n
    merged.recorded_events //= n
    return merged


def profile_run_averaged(
    program: ast.Program,
    psg: PSG,
    config: SimulationConfig,
    *,
    repetitions: int = 3,
    freq_hz: float = DEFAULT_FREQ_HZ,
    comm_sample_probability: float = 1.0,
) -> ProfiledRun:
    """Profile ``repetitions`` runs with derived seeds and average them.

    The returned :class:`ProfiledRun` carries the averaged sampling profile
    and overheads; ``result`` is the first repetition's ground truth (for
    inspection — its timings are one sample, not the average).
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    runs: list[ProfiledRun] = []
    for rep in range(repetitions):
        rep_config = replace(
            config, seed=derive_seed(config.seed, "repetition", rep)
        )
        runs.append(
            profile_run(
                program,
                psg,
                rep_config,
                freq_hz=freq_hz,
                comm_sample_probability=comm_sample_probability,
            )
        )
    if repetitions == 1:
        return runs[0]

    n = float(repetitions)
    keys = set()
    for run in runs:
        keys.update(run.profile.perf)
    perf: dict[tuple[int, int], PerformanceVector] = {}
    for key in keys:
        merged = PerformanceVector()
        for run in runs:
            vec = run.profile.perf.get(key)
            if vec is not None:
                merged.merge(vec)
        perf[key] = PerformanceVector(
            time=merged.time / n,
            wait=merged.wait / n,
            visits=int(round(merged.visits / n)),
            counters=merged.counters.scaled(1.0 / n),
        )
    profile = SamplingProfile.from_vectors(
        freq_hz, config.nprocs,
        int(sum(r.profile.total_samples for r in runs) / n), perf,
    )
    overhead = OverheadReport(
        tool="ScalAna",
        app_time=sum(r.app_time for r in runs) / n,
        overhead_seconds=sum(r.overhead.overhead_seconds for r in runs) / n,
        storage_bytes=int(sum(r.overhead.storage_bytes for r in runs) / n),
    )
    return ProfiledRun(
        nprocs=config.nprocs,
        result=runs[0].result,
        profile=profile,
        comm=_merge_comm(runs),
        overhead=overhead,
    )
