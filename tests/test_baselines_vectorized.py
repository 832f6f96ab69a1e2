"""Vectorized baseline analyses vs the per-record walks, kept as oracles.

Mirrors ``tests/test_comm_tables.py``'s contract: the historical
object-walking implementations of Scalasca-style wait-state classification
and the tracer's backward-replay analysis are kept here verbatim, and the
column-reading implementations (which fixed the O(P²)-per-collective
``wait_of`` laggard loops) must reproduce them bit for bit — values *and*
order — over randomized workloads.
"""

from collections import defaultdict

import pytest

from repro.baselines import TracerTool, classify_wait_states
from repro.baselines.tracer import TraceAnalysis
from repro.baselines.waitstates import _COLLECTIVE_KIND, WaitState, WaitStateKind
from repro.minilang import parse_program
from repro.psg import build_psg
from repro.simulator import SimulationConfig, simulate
from repro.simulator.events import SegmentKind
from tests.conftest import IMBALANCED_SOURCE, make_workload


def _run(source, nprocs, **cfg):
    program = parse_program(source, "vec.mm")
    psg = build_psg(program).psg
    return program, psg, simulate(
        program, psg, SimulationConfig(nprocs=nprocs, **cfg)
    )


# ----------------------------------------------------------------------
# reference implementations (pre-vectorization, object-walking), verbatim
# ----------------------------------------------------------------------


def reference_classify(result):
    """The historical per-record loop (wait_of recomputed the op-cost min
    per call, making the laggard loop O(P²) per collective)."""
    states = []
    for rec in result.p2p_records:
        if rec.wait_time <= 0.0:
            continue
        if rec.send_time > rec.recv_post:
            kind = WaitStateKind.LATE_SENDER
            late = min(rec.wait_time, rec.send_time - rec.recv_post)
            states.append(
                WaitState(kind, rec.recv_rank, rec.wait_vid, late, rec.send_rank)
            )
            rest = rec.wait_time - late
            if rest > 0:
                states.append(
                    WaitState(
                        WaitStateKind.TRANSFER, rec.recv_rank, rec.wait_vid, rest
                    )
                )
        else:
            states.append(
                WaitState(
                    WaitStateKind.TRANSFER,
                    rec.recv_rank,
                    rec.wait_vid,
                    rec.wait_time,
                )
            )
    for crec in result.collective_records:
        kind = _COLLECTIVE_KIND[crec.mpi_op]
        laggard = crec.last_arrival_rank
        for rank in crec.arrivals:
            op_cost = min(
                crec.completions[r] - crec.arrivals[r] for r in crec.arrivals
            )
            w = max(
                0.0, (crec.completions[rank] - crec.arrivals[rank]) - op_cost
            )
            if w <= 0.0 or rank == laggard:
                continue
            states.append(WaitState(kind, rank, crec.vids[rank], w, laggard))
    return states


def reference_analyze(result) -> TraceAnalysis:
    """The historical per-record Bohme-style backward replay."""
    analysis = TraceAnalysis()
    compute_by_rank: dict[int, list] = defaultdict(list)
    for seg in result.segments:
        if seg.kind is SegmentKind.COMPUTE:
            compute_by_rank[seg.rank].append(seg)
    for segs in compute_by_rank.values():
        segs.sort(key=lambda s: s.start)

    def cause_at(rank: int, t: float) -> int | None:
        segs = compute_by_rank.get(rank)
        if not segs:
            return None
        lo, hi = 0, len(segs)
        while lo < hi:
            mid = (lo + hi) // 2
            if segs[mid].start <= t:
                lo = mid + 1
            else:
                hi = mid
        idx = lo - 1
        if idx < 0:
            return None
        return segs[idx].vid

    for rec in result.p2p_records:
        if rec.wait_time <= 0:
            continue
        wvid = rec.wait_vid
        analysis.wait_by_vertex[wvid] = (
            analysis.wait_by_vertex.get(wvid, 0.0) + rec.wait_time
        )
        cause = cause_at(rec.send_rank, rec.send_time)
        if cause is not None:
            causes = analysis.wait_causes.setdefault(wvid, {})
            causes[cause] = causes.get(cause, 0.0) + rec.wait_time
    for crec in result.collective_records:
        laggard = crec.last_arrival_rank
        for rank in crec.arrivals:
            w = crec.wait_of(rank)
            if w <= 0:
                continue
            vid = crec.vids[rank]
            analysis.wait_by_vertex[vid] = (
                analysis.wait_by_vertex.get(vid, 0.0) + w
            )
            cause = cause_at(laggard, crec.arrivals[laggard])
            if cause is not None:
                causes = analysis.wait_causes.setdefault(vid, {})
                causes[cause] = causes.get(cause, 0.0) + w
    return analysis


def assert_analysis_identical(got: TraceAnalysis, want: TraceAnalysis):
    """Bit-identity including dict insertion order."""
    assert list(got.wait_by_vertex) == list(want.wait_by_vertex)
    assert repr(got.wait_by_vertex) == repr(want.wait_by_vertex)
    assert list(got.wait_causes) == list(want.wait_causes)
    assert repr(got.wait_causes) == repr(want.wait_causes)


WORKLOAD_SEEDS = list(range(0, 40, 2))


class TestClassifyWaitStates:
    @pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
    def test_matches_reference_on_randomized_workloads(self, seed):
        _, _, result = _run(make_workload(seed), nprocs=7)
        assert classify_wait_states(result).states == reference_classify(result)

    def test_matches_reference_imbalanced(self):
        _, _, result = _run(IMBALANCED_SOURCE, nprocs=9)
        got = classify_wait_states(result).states
        assert got == reference_classify(result)
        assert got, "workload must actually produce wait states"

    def test_empty_run_has_no_states(self):
        _, _, result = _run("def main() { compute(flops = 1000); }", nprocs=2)
        assert classify_wait_states(result).states == []


class TestTracerAnalyze:
    @pytest.mark.parametrize("seed", WORKLOAD_SEEDS[:10])
    def test_matches_reference_on_randomized_workloads(self, seed):
        program, psg, _ = _run(make_workload(seed), nprocs=6)
        tool = TracerTool()
        run = tool.run(program, psg, SimulationConfig(nprocs=6))
        assert_analysis_identical(
            tool.analyze(run), reference_analyze(run.result)
        )

    def test_collective_causes_attributed(self):
        program, psg, _ = _run(IMBALANCED_SOURCE, nprocs=8)
        tool = TracerTool()
        run = tool.run(program, psg, SimulationConfig(nprocs=8))
        analysis = tool.analyze(run)
        assert_analysis_identical(analysis, reference_analyze(run.result))
        assert analysis.wait_by_vertex, "expected waiting vertices"
        assert analysis.wait_causes, "expected attributed causes"


class TestWaitOfCaching:
    def test_wait_of_values_unchanged_and_cached(self):
        _, _, result = _run(IMBALANCED_SOURCE, nprocs=6)
        for crec in result.collective_records:
            expected_cost = min(
                crec.completions[r] - crec.arrivals[r] for r in crec.arrivals
            )
            assert crec.cached_op_cost is None
            waits = [crec.wait_of(r) for r in crec.arrivals]
            assert crec.cached_op_cost == expected_cost
            assert waits == [
                max(
                    0.0,
                    (crec.completions[r] - crec.arrivals[r]) - expected_cost,
                )
                for r in crec.arrivals
            ]

    def test_cache_state_does_not_affect_equality(self):
        _, _, result = _run(IMBALANCED_SOURCE, nprocs=6)
        a = result.collective_records[0]
        b = result.collective_records[0]  # fresh view materialization
        a.wait_of(next(iter(a.arrivals)))
        assert a.cached_op_cost is not None and b.cached_op_cost is None
        assert a == b

    def test_wait_columns_match_record_walk(self):
        _, _, result = _run(IMBALANCED_SOURCE, nprocs=7)
        table = result.trace.collectives
        wc = table.wait_columns()
        flat = 0
        for i, crec in enumerate(table.records()):
            assert wc["op_cost"][i] == min(
                crec.completions[r] - crec.arrivals[r] for r in crec.arrivals
            )
            assert int(wc["laggard"][i]) == crec.last_arrival_rank
            assert (
                wc["laggard_arrival"][i]
                == crec.arrivals[crec.last_arrival_rank]
            )
            for rank in crec.arrivals:
                assert int(wc["row"][flat]) == i
                assert wc["wait"][flat] == crec.wait_of(rank)
                flat += 1
        assert flat == len(wc["wait"])

    def test_wait_columns_empty_table(self):
        _, _, result = _run("def main() { compute(flops = 10); }", nprocs=2)
        wc = result.trace.collectives.wait_columns()
        assert all(len(v) == 0 for v in wc.values())
