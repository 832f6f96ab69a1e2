"""Sampling-based performance profiling (paper §III-B1).

ScalAna interrupts the program at a fixed frequency (the paper uses 200 Hz,
matching HPCToolkit's setting) and attributes each sample to the PSG vertex
executing at the interrupt, via the call stack.  Here the simulated
equivalent samples each rank's recorded timeline at ``1/freq`` intervals:
the vertex owning the sample instant gets one sample period of attributed
time.

PMU counters are attributed proportionally: a vertex that received ``k`` of
the ``n`` samples landing inside one of its segments gets ``k/n`` of that
segment's counters — the same "counter deltas between interrupts" behaviour
as PAPI overflow sampling, including its attribution error on short
segments (which tests assert really appears and really shrinks as the
sampling frequency rises).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.perfdata import PerformanceVector
from repro.simulator.costmodel import PerfCounters
from repro.simulator.engine import SimulationResult
from repro.simulator.trace import group_rows

__all__ = ["SamplingProfile", "sample_result", "DEFAULT_FREQ_HZ"]

#: The paper's sampling frequency (§VI-A).
DEFAULT_FREQ_HZ = 200.0


@dataclass
class SamplingProfile:
    """Sampled per-(rank, vertex) performance vectors."""

    freq_hz: float
    nprocs: int
    total_samples: int
    perf: dict[tuple[int, int], PerformanceVector]

    def vector(self, rank: int, vid: int) -> PerformanceVector:
        return self.perf.get((rank, vid), PerformanceVector())

    def vertex_times(self, vid: int) -> list[float]:
        return [self.vector(r, vid).time for r in range(self.nprocs)]

    def sampled_vids(self) -> set[int]:
        return {vid for (_r, vid) in self.perf}


def sample_result(
    result: SimulationResult, freq_hz: float = DEFAULT_FREQ_HZ
) -> SamplingProfile:
    """Sample a simulation's ground-truth timeline at ``freq_hz``.

    Requires the run to have recorded segments
    (``SimulationConfig.record_segments=True``).

    One columnar pass over the TraceBuffer event columns.  A segment
    ``[start, end]`` holds the samples at instants ``k/freq_hz`` with
    ``start < t <= end``; segments holding none are dropped (so every
    segment kept has a positive duration).  The rest are put in
    rank-major ``(rank, start, end)`` order (ties in recorded order),
    grouped by ``(rank, vid)`` in first-occurrence order, and accumulated
    per group with ``np.bincount``:

    - ``time`` sums ``count * period`` and ``visits`` counts segments;
    - ``wait`` sums ``wait * frac``, where
      ``frac = min(1, count * period / duration)`` is the sampled share;
    - each PMU counter sums ``exact * (duration / total * frac)``: the
      vertex's exact counters spread by sampled share of its exact time
      ``total`` (a vertex without counters, or with zero exact time,
      gets none).

    ``np.bincount`` adds weights in occurrence order, so every float sum
    has the association of a per-segment ``+=`` loop in that order, and
    ``perf`` is keyed in the order such a loop would first meet each key.
    """
    if freq_hz <= 0:
        raise ValueError("sampling frequency must be positive")
    if not result.segments and result.compute_count:
        raise ValueError("run was executed without segment recording")
    period = 1.0 / freq_hz
    perf: dict[tuple[int, int], PerformanceVector] = {}
    total_samples = 0

    cols = result.trace.columns()
    start_c, end_c = cols["start"], cols["end"]
    order = np.lexsort((end_c, start_c, cols["rank"]))
    # samples at instants t = k*period with start < t <= end:
    counts = (np.floor(end_c / period) - np.floor(start_c / period))[order]
    keep = counts > 0
    order, counts = order[keep], counts[keep]
    if len(order):
        total_samples = int(counts.astype(np.int64).sum())
        duration = end_c[order] - start_c[order]
        inv, keys = group_rows(cols["rank"][order], cols["vid"][order])
        n = len(keys)
        sampled = counts * period
        frac = sampled / duration
        frac = np.where(frac < 1.0, frac, 1.0)  # Python's min(1.0, frac)
        time_sums = np.bincount(inv, weights=sampled, minlength=n)
        visit_counts = np.bincount(inv, minlength=n)
        wait_sums = np.bincount(inv, weights=cols["wait"][order] * frac, minlength=n)
        # per-group exact counters and exact time, looked up once per key;
        # groups left at zero add +0.0 per segment, which changes no sum
        vertex_counters = result.vertex_counters
        vertex_time = result.vertex_time
        exact = np.zeros((n, 4))
        total = np.zeros(n)
        for g, key in enumerate(keys):
            c = vertex_counters.get(key)
            t = vertex_time.get(key, 0.0)
            if c is not None and t > 0:
                exact[g] = (c.tot_ins, c.tot_cyc, c.tot_lst_ins, c.l2_dcm)
                total[g] = t
        row_total = total[inv]
        share = np.divide(
            duration, row_total, out=np.zeros(len(inv)), where=row_total > 0
        ) * frac
        counter_sums = [
            np.bincount(inv, weights=exact[inv, f] * share, minlength=n)
            for f in range(4)
        ]
        for g, key in enumerate(keys):
            perf[key] = PerformanceVector(
                time=float(time_sums[g]),
                wait=float(wait_sums[g]),
                visits=int(visit_counts[g]),
                counters=PerfCounters(
                    tot_ins=float(counter_sums[0][g]),
                    tot_cyc=float(counter_sums[1][g]),
                    tot_lst_ins=float(counter_sums[2][g]),
                    l2_dcm=float(counter_sums[3][g]),
                ),
            )

    return SamplingProfile(
        freq_hz=freq_hz,
        nprocs=result.nprocs,
        total_samples=total_samples,
        perf=perf,
    )


def exact_profile(result: SimulationResult) -> SamplingProfile:
    """Ground-truth profile in the same shape as a sampled one.

    Used by tests (to bound sampling error) and by ablation benches.
    """
    perf: dict[tuple[int, int], PerformanceVector] = {}
    vertex_wait = result.vertex_wait
    vertex_visits = result.vertex_visits
    vertex_counters = result.vertex_counters
    for key, t in result.vertex_time.items():
        perf[key] = PerformanceVector.from_trace_aggregates(
            t,
            vertex_wait.get(key, 0.0),
            vertex_visits.get(key, 0),
            vertex_counters.get(key),
        )
    return SamplingProfile(
        freq_hz=float("inf"),
        nprocs=result.nprocs,
        total_samples=0,
        perf=perf,
    )
