"""Columnar ``sample_result`` vs the per-segment sampling loop it replaced.

``_oracle_sample`` is the historical implementation, kept verbatim: one
Python iteration per trace segment in rank-major ``(start, end)`` order,
``+=`` into per-key vectors.  The columnar pass must reproduce it exactly —
``total_samples``, the key order of ``perf`` and the bit pattern of every
float — on every bundled app, at several sampling frequencies, on noisy
runs, and on hand-built traces that hit the edge cases.
"""

from __future__ import annotations

import contextlib
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps import APPS, get_app
from repro.runtime import sample_result
from repro.runtime.perfdata import PerformanceVector
from repro.runtime import sampling
from repro.runtime.sampling import SamplingProfile
from repro.simulator import SimulationConfig, simulate
from repro.simulator.costmodel import MachineModel, PerfCounters
from repro.simulator.trace import CHUNK_EVENTS, TraceBuffer
from tests.conftest import fifo_drain, per_rank_oracle

FREQS = (20.0, 200.0, 1000.0)
SCALES = (4, 16)


def _oracle_sample(result, freq_hz: float) -> SamplingProfile:
    """The per-segment sampling loop, as it was before the columnar pass."""
    if freq_hz <= 0:
        raise ValueError("sampling frequency must be positive")
    if not result.segments and result.compute_count:
        raise ValueError("run was executed without segment recording")
    period = 1.0 / freq_hz
    perf: dict[tuple[int, int], PerformanceVector] = {}
    total_samples = 0

    cols = result.trace.columns()
    rank_c, vid_c = cols["rank"], cols["vid"]
    start_c, end_c, wait_c = cols["start"], cols["end"], cols["wait"]
    if len(rank_c):
        # samples at instants t = k*period with start < t <= end:
        counts = (np.floor(end_c / period) - np.floor(start_c / period)).tolist()
        durations = (end_c - start_c).tolist()
        ranks = rank_c.tolist()
        vids = vid_c.tolist()
        waits = wait_c.tolist()
        # rank-major, then (start, end), ties in recorded order — matches
        # the old per-rank stable sort of Segment lists
        order = np.lexsort((end_c, start_c, rank_c)).tolist()
        vertex_counters = result.vertex_counters
        vertex_time = result.vertex_time
        for i in order:
            count = int(counts[i])
            if count <= 0:
                continue
            total_samples += count
            key = (int(ranks[i]), int(vids[i]))
            vec = perf.get(key)
            if vec is None:
                vec = PerformanceVector()
                perf[key] = vec
            sampled_time = count * period
            vec.time += sampled_time
            vec.visits += 1
            duration = durations[i]
            if duration > 0:
                frac = min(1.0, sampled_time / duration)
                vec.wait += waits[i] * frac
                exact = vertex_counters.get(key)
                if exact is not None:
                    # distribute the vertex's exact counters by sampled share
                    total = vertex_time.get(key, 0.0)
                    if total > 0:
                        vec.counters += exact.scaled(duration / total * frac)

    return SamplingProfile(
        freq_hz=freq_hz,
        nprocs=result.nprocs,
        total_samples=total_samples,
        perf=perf,
    )


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _rows(profile: SamplingProfile) -> list:
    """(key, field bit patterns) in ``perf`` order — stricter than ``==``:
    it also tells ``-0.0`` from ``0.0`` and compares key order."""
    out = []
    for key, vec in profile.perf.items():
        c = vec.counters
        out.append((key, _bits(vec.time), _bits(vec.wait), vec.visits,
                    _bits(c.tot_ins), _bits(c.tot_cyc),
                    _bits(c.tot_lst_ins), _bits(c.l2_dcm)))
    return out


def assert_same_profile(result, freq_hz: float) -> SamplingProfile:
    got = sample_result(result, freq_hz)
    want = _oracle_sample(result, freq_hz)
    assert got.total_samples == want.total_samples
    assert got.nprocs == want.nprocs and got.freq_hz == want.freq_hz
    assert list(got.perf) == list(want.perf)
    for key, vec in want.perf.items():
        assert got.perf[key] == vec, key
    assert _rows(got) == _rows(want)
    return got


def _run_app(name: str, nprocs: int, **overrides):
    spec = get_app(name)
    machine = overrides.pop("machine", None) or spec.machine or MachineModel()
    cfg = SimulationConfig(
        nprocs=nprocs, params=spec.merged_params(), machine=machine,
        **overrides,
    )
    return simulate(spec.program, spec.psg, cfg)


@pytest.mark.parametrize("nprocs", SCALES)
@pytest.mark.parametrize("app", sorted(APPS))
def test_bundled_apps_match_oracle(app, nprocs):
    result = _run_app(app, nprocs)
    for freq in FREQS:
        profile = assert_same_profile(result, freq)
        assert profile.total_samples > 0


def test_noisy_machine_matches_oracle():
    result = _run_app("mg", 8, machine=MachineModel(noise_sigma=0.05), seed=3)
    for freq in FREQS:
        assert_same_profile(result, freq)


# -- hand-built traces ---------------------------------------------------


def _fake_result(rows, counters=None, vertex_time=None, nprocs=2):
    """A minimal result exposing what ``sample_result`` reads; ``rows`` are
    (rank, vid, start, end, wait) timeline events."""
    buf = TraceBuffer()
    for rank, vid, start, end, wait in rows:
        buf.append(rank, vid, 0, start, end, wait, -1)
    if vertex_time is None:
        vertex_time = dict(buf.vertex_time())
    return SimpleNamespace(
        trace=buf,
        segments=buf.segments(),
        compute_count=len(rows),
        vertex_counters=counters or {},
        vertex_time=vertex_time,
        nprocs=nprocs,
    )


def test_empty_trace():
    result = _fake_result([])
    profile = assert_same_profile(result, 200.0)
    assert profile.total_samples == 0 and profile.perf == {}


def test_zero_duration_segments_are_never_sampled():
    rows = [
        (0, 1, 0.0, 0.0, 0.0),
        (0, 1, 0.01, 0.01, 0.0),
        (1, 2, 0.005, 0.005, 0.0),
        (1, 3, 0.0, 0.02, 0.004),
    ]
    profile = assert_same_profile(_fake_result(rows), 200.0)
    assert list(profile.perf) == [(1, 3)]


def test_vertex_missing_from_counters():
    rows = [
        (0, 1, 0.0, 0.013, 0.0),
        (0, 2, 0.013, 0.031, 0.002),
        (1, 1, 0.0, 0.022, 0.001),
        (0, 1, 0.031, 0.047, 0.0),
    ]
    counters = {(0, 1): PerfCounters(1e6, 2e6, 3e5, 4e3)}
    profile = assert_same_profile(_fake_result(rows, counters), 200.0)
    assert profile.perf[(0, 2)].counters == PerfCounters()
    assert profile.perf[(0, 1)].counters.tot_ins > 0


def test_zero_vertex_time_spreads_no_counters():
    rows = [(0, 1, 0.0, 0.013, 0.0), (0, 2, 0.013, 0.04, 0.0)]
    counters = {
        (0, 1): PerfCounters(1e6, 2e6, 3e5, 4e3),
        (0, 2): PerfCounters(5e6, 6e6, 7e5, 8e3),
    }
    vertex_time = {(0, 1): 0.0, (0, 2): 0.027}
    profile = assert_same_profile(
        _fake_result(rows, counters, vertex_time), 100.0
    )
    assert profile.perf[(0, 1)].counters == PerfCounters()
    assert profile.perf[(0, 2)].counters.l2_dcm > 0


def test_rank_major_start_end_order_with_ties_in_recorded_order(monkeypatch):
    # ranks interleaved, one rank's equal-start rows recorded longest
    # first, and exact (rank, start, end) ties recorded out of vid order
    rows = [
        (1, 4, 0.0, 0.05, 0.0),
        (0, 7, 0.0, 0.05, 0.01),
        (0, 3, 0.0, 0.05, 0.02),
        (0, 9, 0.0, 0.03, 0.0),
        (1, 4, 0.05, 0.09, 0.0),
        (0, 7, 0.05, 0.06, 0.0),
    ]
    checks = _spy_rank_order_check(monkeypatch)
    profile = assert_same_profile(_fake_result(rows), 200.0)
    assert list(profile.perf) == [(0, 9), (0, 7), (0, 3), (1, 4)]
    # rank 0's equal-start rows come longest first: not (start, end) order,
    # so the columnar pass took its lexsort fallback
    assert checks == [False]


def _spy_rank_order_check(monkeypatch) -> list[bool]:
    """Record every answer of ``sample_result``'s row-order check."""
    checks: list[bool] = []

    def spy(*args):
        checks.append(real(*args))
        return checks[-1]

    real = sampling._rank_ordered
    monkeypatch.setattr(sampling, "_rank_ordered", spy)
    return checks


# -- the fast path's precondition on every drain ---------------------------


def _ranks_in_start_end_order(trace) -> bool:
    """Every rank's event rows (start, end)-nondecreasing in row order,
    checked rank by rank."""
    cols = trace.columns()
    rank, start, end = cols["rank"], cols["start"], cols["end"]
    for r in np.unique(rank):
        s, e = start[rank == r], end[rank == r]
        ordered = (s[1:] > s[:-1]) | ((s[1:] == s[:-1]) & (e[1:] >= e[:-1]))
        if not ordered.all():
            return False
    return True


DRAINS = {
    "lockstep": contextlib.nullcontext,
    "fifo": fifo_drain,
    "time_ordered": per_rank_oracle,
}


@pytest.mark.parametrize("drain", sorted(DRAINS))
@pytest.mark.parametrize("nprocs", SCALES)
@pytest.mark.parametrize("app", sorted(APPS))
def test_every_drain_records_ranks_in_start_end_order(app, nprocs, drain, monkeypatch):
    """``sample_result`` sorts no row when each rank's rows already come in
    (start, end) order; every drain records them that way, so the bundled
    apps never take the lexsort fallback."""
    with DRAINS[drain]():
        result = _run_app(app, nprocs)
    assert _ranks_in_start_end_order(result.trace)
    checks = _spy_rank_order_check(monkeypatch)
    assert_same_profile(result, 200.0)
    assert checks == [True]


def test_multi_chunk_lockstep_run_matches_oracle_and_one_shot_sums():
    """cg at P=128 drains in lockstep into several sealed chunks; the
    sampled profile still equals the per-segment loop, and the per-key
    sums behind ``vertex_time`` / ``vertex_counters`` equal one-shot
    ``np.bincount`` sums over the whole table."""
    result = _run_app("cg", 128)
    assert result.metrics.counter("engine.lockstep") == 1
    assert result.trace.event_count > CHUNK_EVENTS
    for freq in FREQS:
        assert_same_profile(result, freq)

    def one_shot(cols, *names):
        code = cols["rank"].astype(np.int64) * (1 << 32) + cols["vid"].astype(np.int64)
        _uniq, first, inv = np.unique(code, return_index=True, return_inverse=True)
        sums = [np.bincount(inv, weights=w).tolist() for w in names]
        return {  # keyed in first-occurrence order, like the fold
            (int(cols["rank"][first[g]]), int(cols["vid"][first[g]])):
                tuple(s[g] for s in sums)
            for g in np.argsort(first).tolist()
        }

    ev = result.trace.columns()
    want_time = one_shot(ev, ev["end"] - ev["start"])
    got_time = result.vertex_time
    assert list(got_time) == list(want_time)
    for key, (t,) in want_time.items():
        assert _bits(got_time[key]) == _bits(t), key
    cc = result.trace.counter_columns()
    want_counters = one_shot(
        cc, cc["tot_ins"], cc["tot_cyc"], cc["tot_lst_ins"], cc["l2_dcm"]
    )
    got_counters = result.vertex_counters
    assert list(got_counters) == list(want_counters)
    for key, sums in want_counters.items():
        c = got_counters[key]
        assert [_bits(x) for x in (c.tot_ins, c.tot_cyc, c.tot_lst_ins, c.l2_dcm)] == [
            _bits(x) for x in sums
        ], key
