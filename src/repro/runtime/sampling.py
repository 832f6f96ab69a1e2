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
        """The vector of ``(rank, vid)``; a fresh empty one if unsampled."""
        vec = self.perf.get((rank, vid))
        return PerformanceVector() if vec is None else vec

    def vertex_times(self, vid: int) -> list[float]:
        get = self.perf.get
        return [
            0.0 if vec is None else vec.time
            for vec in (get((r, vid)) for r in range(self.nprocs))
        ]

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
    segment kept has a positive duration).  The result is defined by
    rank-major ``(rank, start, end)`` order (ties in recorded order):
    ``perf`` is keyed in the order a per-segment ``+=`` loop in that order
    would first meet each key, and every float sum has that loop's
    association.  The rest are grouped by ``(rank, vid)``
    (:func:`~repro.simulator.trace.group_rows`) and accumulated per group
    with ``np.bincount``:

    - ``time`` sums ``count * period`` and ``visits`` counts segments;
    - ``wait`` sums ``wait * frac``, where
      ``frac = min(1, count * period / duration)`` is the sampled share;
    - each PMU counter sums ``exact * (duration / total * frac)``: the
      vertex's exact counters spread by sampled share of its exact time
      ``total`` (a vertex without counters, or with zero exact time,
      gets none).

    No row is sorted when each rank's kept rows already come in
    ``(start, end)`` order, which an O(rows) check over a stable radix
    sort of the ranks confirms.  All rows of a key come from one rank, so
    ``np.bincount``'s occurrence-order sums are then the rank-major loop's
    sums, and ordering the keys by (rank, first row) gives its key order.
    A run that fails the check is put in rank-major order by
    ``np.lexsort`` first, so the result is the same either way.
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
    # samples at instants t = k*period with start < t <= end (in-place
    # steps: fresh row-sized arrays cost more than the arithmetic)
    counts = np.floor(np.divide(end_c, period))
    counts -= np.floor(np.divide(start_c, period))
    kept = np.flatnonzero(counts > 0)
    if len(kept):
        rank, vid, start, end, wait, counts = (
            c[kept] for c in (
                cols["rank"], cols["vid"], start_c, end_c, cols["wait"], counts
            )
        )
        if not _rank_ordered(rank, start, end):
            order = np.lexsort((end, start, rank))
            rank, vid, start, end, wait, counts = (
                c[order] for c in (rank, vid, start, end, wait, counts)
            )
        total_samples = int(counts.astype(np.int64).sum())
        inv, ranks, vids = group_rows(rank, vid)
        n = len(ranks)
        sampled = np.multiply(counts, period, out=counts)
        duration = np.subtract(end, start, out=end)
        frac = sampled / duration
        np.fmin(frac, 1.0, out=frac)  # Python's min(1.0, frac), NaN -> 1.0
        # per-group exact counters and exact time, looked up once per key;
        # groups left at zero add +0.0 per segment, which changes no sum
        vertex_counters = result.vertex_counters
        vertex_time = result.vertex_time
        keys = list(zip(ranks.tolist(), vids.tolist()))
        spread, totals, exacts = [], [], []
        for g, c in enumerate(map(vertex_counters.get, keys)):
            if c is not None:
                t = vertex_time.get(keys[g], 0.0)
                if t > 0:
                    spread.append(g)
                    totals.append(t)
                    exacts.append((c.tot_ins, c.tot_cyc, c.tot_lst_ins, c.l2_dcm))
        total = np.zeros(n)
        exact = np.zeros((4, n))
        if spread:
            total[spread] = totals
            exact[:, spread] = np.array(exacts).T
        row_total = total[inv]
        share = np.zeros(len(inv))
        np.divide(duration, row_total, out=share, where=row_total > 0)
        share *= frac
        sums = [
            np.bincount(inv, weights=sampled, minlength=n),
            np.bincount(inv, weights=np.multiply(wait, frac, out=wait), minlength=n),
            np.bincount(inv, minlength=n),
        ]
        for column in exact:
            weights = column[inv]
            weights *= share
            sums.append(np.bincount(inv, weights=weights, minlength=n))
        # key order: rank-major, then first row (a stable sort by rank)
        order = np.argsort(ranks, kind="stable")
        for g, t, w, v, ins, cyc, lst, dcm in zip(
            order.tolist(), *(s[order].tolist() for s in sums)
        ):
            perf[keys[g]] = PerformanceVector(t, w, v, PerfCounters(ins, cyc, lst, dcm))

    return SamplingProfile(
        freq_hz=freq_hz,
        nprocs=result.nprocs,
        total_samples=total_samples,
        perf=perf,
    )


def _rank_ordered(rank: np.ndarray, start: np.ndarray, end: np.ndarray) -> bool:
    """Whether every rank's rows are ``(start, end)``-nondecreasing in row
    order, i.e. whether a stable sort by rank alone is already rank-major
    ``(rank, start, end)`` order.  O(rows) after a stable sort of the
    ranks, radix for 16-bit ranks; a NaN time fails the check."""
    key = rank.astype(np.uint16 if rank.max() < 1 << 16 else np.int64)
    order = np.argsort(key, kind="stable")
    r, s, e = rank[order], start[order], end[order]
    s0, s1 = s[:-1], s[1:]
    ok = (s1 > s0) | ((s1 == s0) & (e[1:] >= e[:-1])) | (r[1:] != r[:-1])
    return bool(ok.all())


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
