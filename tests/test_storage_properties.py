"""Hypothesis round-trip properties for profile storage."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minilang.ast_nodes import MpiOp
from repro.runtime import ProfiledRun
from repro.runtime.accounting import OverheadReport
from repro.runtime.interposition import CollectiveGroup, CommDependence, CommEdge
from repro.runtime.perfdata import PerformanceVector
from repro.runtime.sampling import SamplingProfile
from repro.simulator.costmodel import PerfCounters
from repro.tools.storage import load_profile, save_profile

finite = st.floats(min_value=0, max_value=1e12, allow_nan=False)


@st.composite
def synthetic_runs(draw):
    nprocs = draw(st.integers(min_value=1, max_value=8))
    n_vecs = draw(st.integers(min_value=0, max_value=12))
    perf = {}
    for _ in range(n_vecs):
        key = (
            draw(st.integers(min_value=0, max_value=nprocs - 1)),
            draw(st.integers(min_value=0, max_value=30)),
        )
        perf[key] = PerformanceVector(
            time=draw(finite),
            wait=draw(finite),
            visits=draw(st.integers(min_value=0, max_value=1000)),
            counters=PerfCounters(
                tot_ins=draw(finite), tot_cyc=draw(finite),
                tot_lst_ins=draw(finite), l2_dcm=draw(finite),
            ),
        )
    profile = SamplingProfile.from_vectors(
        200.0, nprocs, draw(st.integers(min_value=0, max_value=10**6)), perf
    )
    comm = CommDependence()
    edge_stats = {}
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        edge = CommEdge(
            send_rank=draw(st.integers(0, nprocs - 1)),
            send_vid=draw(st.integers(0, 30)),
            recv_rank=draw(st.integers(0, nprocs - 1)),
            recv_vid=draw(st.integers(0, 30)),
            wait_vid=draw(st.integers(0, 30)),
            tag=draw(st.integers(0, 99)),
            nbytes=draw(st.integers(0, 10**9)),
        )
        edge_stats[edge.key()] = (draw(st.integers(1, 1000)), draw(finite))
    comm.set_edge_stats(edge_stats)
    if draw(st.booleans()):
        group = CollectiveGroup(
            mpi_op=draw(st.sampled_from([MpiOp.ALLREDUCE, MpiOp.BARRIER, MpiOp.BCAST])),
            root=0,
            nbytes=draw(st.integers(0, 10**6)),
            vids=tuple((r, 5) for r in range(nprocs)),
        )
        comm.groups[group.key()] = group
        comm.group_stats[group.key()] = (
            draw(st.integers(1, 100)), draw(finite), draw(st.integers(0, nprocs - 1)),
        )
    overhead = OverheadReport(
        tool="ScalAna", app_time=draw(finite) + 1e-9,
        overhead_seconds=draw(finite), storage_bytes=draw(st.integers(0, 10**9)),
    )

    class _Fake:
        pass

    run = ProfiledRun.__new__(ProfiledRun)
    run.nprocs = nprocs
    run.profile = profile
    run.comm = comm
    run.overhead = overhead
    run.result = _Fake()
    run.result.total_time = overhead.app_time
    return run


class TestStorageRoundtripProperty:
    @settings(max_examples=60, deadline=None)
    @given(run=synthetic_runs())
    def test_roundtrip_preserves_everything(self, tmp_path_factory, run):
        path = tmp_path_factory.mktemp("prof") / "p.json"
        save_profile(run, path)
        loaded = load_profile(path)
        assert loaded.nprocs == run.nprocs
        assert set(loaded.profile.perf) == set(run.profile.perf)
        for key, vec in run.profile.perf.items():
            lv = loaded.profile.perf[key]
            assert math.isclose(lv.time, vec.time, rel_tol=1e-12, abs_tol=1e-12)
            assert lv.visits == vec.visits
            assert math.isclose(
                lv.counters.l2_dcm, vec.counters.l2_dcm, rel_tol=1e-12, abs_tol=1e-12
            )
        assert set(loaded.comm.edges) == set(run.comm.edges)
        for key, stats in run.comm.edge_stats.items():
            assert loaded.comm.edge_stats[key][0] == stats[0]
        assert set(loaded.comm.groups) == set(run.comm.groups)
        assert loaded.profile.total_samples == run.profile.total_samples
