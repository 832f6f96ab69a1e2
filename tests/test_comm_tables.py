"""Columnar communication ground truth: tables, views, and the vectorized
collection path.

The contract under test mirrors PR 3's Mailbox reference test: the
historical object-walking ``collect_comm_dependence`` is kept here verbatim
as the behavioural oracle, and the vectorized column-reading implementation
must reproduce it bit for bit — edges, stats, groups, laggards, sampled
subsets at ``sample_probability < 1`` — over randomized workloads.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minilang import parse_program
from repro.minilang.ast_nodes import MpiOp
from repro.psg import build_psg
from repro.runtime import collect_comm_dependence
from repro.runtime.interposition import (
    CommEdge,
    CollectiveGroup,
    _RequestConverter,
)
from repro.simulator import (
    CollectiveTable,
    P2PTable,
    SimulationConfig,
    TraceBuffer,
    WILDCARD_CODE,
    simulate,
)
from repro.simulator.events import CollectiveRecord
from repro.util.rng import derive_seed


def _run(source, nprocs):
    program = parse_program(source, "prop.mm")
    psg = build_psg(program).psg
    return simulate(program, psg, SimulationConfig(nprocs=nprocs))


# ----------------------------------------------------------------------
# the reference implementation (pre-columnar, object-walking), verbatim
# ----------------------------------------------------------------------


def reference_collect(result, *, sample_probability=1.0, seed=0):
    """The historical per-record loop over ``P2PRecord`` objects.

    Kept as the oracle for the vectorized path: any divergence on any
    workload — values *or* dict insertion order — is a columnarization
    bug.  It fills plain dicts (``CommDependence`` keeps its edges as
    columns, with ``edges`` / ``edge_stats`` as views).  The in-loop
    request-converter equivalence ``assert`` of the old code lives in
    :class:`TestRequestConverter` now.
    """
    threshold = sample_probability * float(2**63)

    def keep(*key):
        return derive_seed(seed, "comm_sampling", *key) < threshold

    dep = SimpleNamespace(
        edges={}, edge_stats={}, groups={}, group_stats={},
        observed_events=0, recorded_events=0, indirect_targets={},
    )
    for rec in result.p2p_records:
        dep.observed_events += 1
        if sample_probability < 1.0 and not keep(
            "p2p", rec.send_rank, rec.send_vid, rec.recv_rank,
            rec.recv_vid, rec.tag, rec.nbytes, rec.send_time, rec.recv_post,
        ):
            continue
        dep.recorded_events += 1
        edge = CommEdge(
            send_rank=rec.send_rank,
            send_vid=rec.send_vid,
            recv_rank=rec.recv_rank,
            recv_vid=rec.recv_vid,
            wait_vid=rec.wait_vid,
            tag=rec.tag,
            nbytes=rec.nbytes,
        )
        key = edge.key()
        count, max_wait = dep.edge_stats.get(key, (0, 0.0))
        dep.edges[key] = edge
        dep.edge_stats[key] = (count + 1, max(max_wait, rec.wait_time))

    for crec in result.collective_records:
        dep.observed_events += 1
        if sample_probability < 1.0 and not keep("collective", crec.index):
            continue
        dep.recorded_events += 1
        group = CollectiveGroup(
            mpi_op=crec.mpi_op,
            root=crec.root,
            nbytes=crec.nbytes,
            vids=tuple(sorted(crec.vids.items())),
        )
        key = group.key()
        count, max_wait, laggard = dep.group_stats.get(key, (0, 0.0, -1))
        worst = max(crec.wait_of(r) for r in crec.arrivals)
        if worst >= max_wait:
            laggard = crec.last_arrival_rank
        dep.groups[key] = group
        dep.group_stats[key] = (count + 1, max(max_wait, worst), laggard)

    for note in result.indirect_notes:
        key = (note.inline_path, note.stmt_id)
        dep.indirect_targets.setdefault(key, set()).add(note.target)

    return dep


def assert_dependence_identical(got, want):
    """Bit-identity including dict insertion order and value types."""
    assert list(got.edges) == list(want.edges)
    assert got.edges == want.edges
    assert list(got.edge_stats) == list(want.edge_stats)
    assert repr(got.edge_stats) == repr(want.edge_stats)
    assert list(got.groups) == list(want.groups)
    assert got.groups == want.groups
    assert list(got.group_stats) == list(want.group_stats)
    assert repr(got.group_stats) == repr(want.group_stats)
    assert got.observed_events == want.observed_events
    assert got.recorded_events == want.recorded_events
    assert got.indirect_targets == want.indirect_targets


# ----------------------------------------------------------------------
# randomized workloads
# ----------------------------------------------------------------------

_RING = """\
    for (var it{i} = 0; it{i} < {iters}; it{i} = it{i} + 1) {{
        compute(flops = {flops} + {stagger} * rank);
        sendrecv(dest = (rank + 1) % nprocs, tag = {tag}, bytes = {nbytes},
                 src = (rank - 1 + nprocs) % nprocs);
    }}
"""

_GATHER_WILD = """\
    if (rank == 0) {{
        for (var g{i} = 1; g{i} < nprocs; g{i} = g{i} + 1) {{
            recv(src = ANY, tag = {tag});
        }}
    }} else {{
        compute(flops = {flops} + {stagger} * rank);
        send(dest = 0, tag = {tag}, bytes = {nbytes});
    }}
"""

_IRECV_WILD = """\
    for (var w{i} = 0; w{i} < {iters}; w{i} = w{i} + 1) {{
        compute(flops = {flops} + {stagger} * rank);
        if (rank == 0) {{
            for (var j{i} = 1; j{i} < nprocs; j{i} = j{i} + 1) {{
                irecv(src = ANY, tag = ANY, req = r{i});
            }}
            waitall();
        }} else {{
            send(dest = 0, tag = rank, bytes = {nbytes});
        }}
    }}
"""

_ISEND_RING = """\
    for (var p{i} = 0; p{i} < {iters}; p{i} = p{i} + 1) {{
        compute(flops = {flops} + {stagger} * (rank % 3));
        isend(dest = (rank + 1) % nprocs, tag = {tag}, bytes = {nbytes}, req = s{i});
        irecv(src = (rank - 1 + nprocs) % nprocs, tag = {tag}, req = q{i});
        waitall();
    }}
"""

_COLLECTIVES = """\
    for (var c{i} = 0; c{i} < {iters}; c{i} = c{i} + 1) {{
        compute(flops = {flops} + {stagger} * (rank % 4));
        allreduce(bytes = {nbytes});
        bcast(root = 0, bytes = {nbytes});
    }}
"""

_UNWAITED_IRECV = """\
    if (rank == 0) {{
        irecv(src = 1, tag = {tag}, req = u{i});
    }}
    if (rank == 1) {{
        send(dest = 0, tag = {tag}, bytes = {nbytes});
    }}
    barrier();
"""

_PHASES = [
    _RING, _GATHER_WILD, _IRECV_WILD, _ISEND_RING, _COLLECTIVES,
    _UNWAITED_IRECV,
]


@st.composite
def workloads(draw):
    """A random MiniMPI program from deadlock-free phase templates, plus a
    process count — the randomized-workload space of the equivalence
    property (tags, sizes, staggers and phase mixes all vary)."""
    nprocs = draw(st.integers(min_value=2, max_value=6))
    nphases = draw(st.integers(min_value=1, max_value=3))
    body = []
    for i in range(nphases):
        template = draw(st.sampled_from(_PHASES))
        body.append(
            template.format(
                i=i,
                iters=draw(st.integers(1, 3)),
                flops=draw(st.sampled_from([20000, 50000, 120000])),
                stagger=draw(st.sampled_from([0, 7000, 31000])),
                tag=draw(st.integers(0, 4)),
                nbytes=draw(st.sampled_from([8, 256, 4096])),
            )
        )
    # Barrier-separated phases: an ANY/ANY wildcard phase would otherwise
    # steal a later phase's differently-tagged sends (deadlock); the
    # barrier means later sends cannot exist until the phase drained.
    source = "def main() {\n" + "    barrier();\n".join(body) + "}\n"
    return source, nprocs


class TestVectorizedCollectionEquivalence:
    """Vectorized column path == historical object walk, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(workloads(), st.sampled_from([1.0, 0.65, 0.3]),
           st.integers(0, 5))
    def test_matches_reference(self, workload, probability, seed):
        source, nprocs = workload
        result = _run(source, nprocs)
        got = collect_comm_dependence(
            result, sample_probability=probability, seed=seed
        )
        want = reference_collect(
            result, sample_probability=probability, seed=seed
        )
        assert_dependence_identical(got, want)


WILDCARD_HEAVY = """\
def main() {
    for (var it = 0; it < 5; it = it + 1) {
        compute(flops = 40000 + 9000 * rank);
        if (rank == 0) {
            for (var i = 1; i < nprocs; i = i + 1) {
                irecv(src = ANY, tag = ANY, req = r);
            }
            waitall();
        } else {
            send(dest = 0, tag = 2 + rank % 3, bytes = 64 * rank);
        }
        if (rank == 1) {
            recv(src = ANY, tag = 9);
        }
        if (rank == 2) {
            send(dest = 1, tag = 9, bytes = 32);
        }
        barrier();
    }
}
"""


class TestRequestConverter:
    """The Fig. 5 request-converter equivalence, moved out of the
    collection hot loop (where it was a bare ``assert`` that ``python -O``
    silently dropped) into a dedicated test over wildcard-heavy traffic."""

    @pytest.mark.parametrize("nprocs", [4, 7])
    def test_resolves_to_matched_message_values(self, nprocs):
        result = _run(WILDCARD_HEAVY, nprocs)
        records = list(result.p2p_records)
        wildcards = [r for r in records if r.declared_src is None]
        assert wildcards, "workload must exercise MPI_ANY_SOURCE"
        assert any(r.declared_tag is None for r in records)
        converter = _RequestConverter()
        for rec_id, rec in enumerate(records):
            converter.on_irecv(rec_id, rec.declared_src, rec.declared_tag)
            src, tag = converter.on_wait(rec_id, rec.send_rank, rec.tag)
            # declared ints pass through; wildcards resolve from "status"
            assert src == rec.send_rank
            assert tag == rec.tag

    def test_fully_declared_values_win_over_status(self):
        converter = _RequestConverter()
        converter.on_irecv(0, 3, 7)
        assert converter.on_wait(0, 99, 99) == (3, 7)
        # unknown record id: everything from status
        assert converter.on_wait(1, 5, 6) == (5, 6)


class TestP2PTable:
    def test_append_and_row_roundtrip(self):
        table = P2PTable()
        row = table.append(1, 2, 3, 4, 5, 6, 7, WILDCARD_CODE, 9,
                           0.5, 1.5, 0.25, 2.5, 0.75)
        assert row == 0
        rec = table.row(0)
        assert (rec.send_rank, rec.send_vid, rec.recv_rank, rec.recv_vid,
                rec.wait_vid, rec.tag, rec.nbytes) == (1, 2, 3, 4, 5, 6, 7)
        assert rec.declared_src is None  # wildcard sentinel decodes to None
        assert rec.declared_tag == 9
        assert (rec.send_time, rec.arrival, rec.recv_post, rec.completion,
                rec.wait_time) == (0.5, 1.5, 0.25, 2.5, 0.75)

    def test_set_wait_reaches_sealed_chunks(self):
        table = P2PTable()
        rows = [
            table.append(0, 0, 1, 1, -1, 0, 8, 0, 0,
                         float(i), float(i), float(i), float("nan"), 0.0)
            for i in range(5)
        ]
        table.seal()  # rows 0..4 now live in a sealed chunk
        late = table.append(0, 0, 1, 1, -1, 0, 8, 0, 0,
                            9.0, 9.0, 9.0, float("nan"), 0.0)
        table.set_wait(rows[2], 42.0, 17, 1.25)  # sealed row
        table.set_wait(late, 43.0, 18, 2.5)  # pending row
        assert table.row(2).completion == 42.0
        assert table.row(2).wait_vid == 17
        assert table.row(2).wait_time == 1.25
        assert table.row(late).completion == 43.0
        assert table.row(late).wait_vid == 18
        assert math.isnan(table.row(0).completion)

    def test_doc_roundtrip_preserves_nan_and_sentinels(self):
        table = P2PTable()
        table.append(1, 2, 3, 4, -1, 5, 6, WILDCARD_CODE, WILDCARD_CODE,
                     0.125, 0.25, 0.5, float("nan"), 0.0)
        back = P2PTable.from_doc(table.to_doc())
        assert back.row_count == 1
        rec = back.row(0)
        assert rec.declared_src is None and rec.declared_tag is None
        assert math.isnan(rec.completion)
        assert rec.send_time == 0.125

    def test_records_view_sequence_protocol(self):
        result = _run(WILDCARD_HEAVY, 4)
        view = result.p2p_records
        records = list(view)
        assert len(view) == len(records) > 0
        assert view[0] == records[0]
        assert view[-1] == records[-1]
        assert view[1:3] == records[1:3]
        assert view == records  # equality against a plain list
        with pytest.raises(IndexError):
            view[len(view)]


class TestCollectiveTable:
    def test_engine_rows_match_views(self):
        result = _run(WILDCARD_HEAVY, 5)
        table = result.trace.collectives
        cols = table.columns()
        assert table.row_count == len(result.collective_records) == 5
        # ragged participant layout: every barrier has all 5 ranks
        assert np.array_equal(
            np.diff(cols["offsets"]), np.full(5, 5, dtype=np.int64)
        )
        rec = table.row(0)
        assert rec.arrivals.keys() == rec.completions.keys() == rec.vids.keys()
        assert rec.wait_of(rec.last_arrival_rank) >= 0.0

    def test_doc_roundtrip(self):
        result = _run(WILDCARD_HEAVY, 4)
        table = result.trace.collectives
        back = CollectiveTable.from_doc(table.to_doc())
        assert back.row_count == table.row_count
        for a, b in zip(back.records(), table.records()):
            assert a == b


def _collective_result(instances):
    """A minimal result holding only hand-built collective instances, each
    ``(op, root, nbytes, [(rank, vid, arrival, completion), ...])`` with
    participants in arrival-insertion order."""
    buf = TraceBuffer()
    for index, (op, root, nbytes, parts) in enumerate(instances):
        buf.collectives.append_record(CollectiveRecord(
            index=index, mpi_op=op, root=root, nbytes=nbytes,
            vids={r: v for r, v, _a, _c in parts},
            arrivals={r: a for r, _v, a, _c in parts},
            completions={r: c for r, _v, _a, c in parts},
        ))
    return SimpleNamespace(
        trace=buf,
        p2p_records=buf.p2p.records(),
        collective_records=buf.collectives.records(),
        indirect_notes=[],
    )


def _assert_collectives_match_reference(instances):
    result = _collective_result(instances)
    for probability, seeds in ((1.0, (0,)), (0.65, range(8)), (0.3, range(8))):
        for seed in seeds:
            got = collect_comm_dependence(
                result, sample_probability=probability, seed=seed
            )
            want = reference_collect(
                result, sample_probability=probability, seed=seed
            )
            assert_dependence_identical(got, want)
    return collect_comm_dependence(result)


def dep_laggards(instances):
    """Each instance's laggard, from the table's wait columns."""
    table = _collective_result(instances).trace.collectives
    return table.wait_columns()["laggard"].tolist()


class TestCollectiveEdgeCases:
    """Hand-built collective tables against the per-record reference, at
    ``sample_probability`` 1 and below."""

    ALLREDUCE = MpiOp.ALLREDUCE

    def test_repeated_signature_with_exactly_tied_worst_waits(self):
        # instances 0 and 2 share a signature (participants inserted in
        # different orders) and both have worst wait exactly 1.0; the
        # last tied instance's laggard (rank 0) must win
        instances = [
            (self.ALLREDUCE, 0, 8, [(0, 5, 1.0, 3.0), (1, 6, 2.0, 3.0), (2, 7, 1.5, 3.0)]),
            (MpiOp.BCAST, 1, 64, [(1, 9, 2.5, 3.5), (0, 9, 3.0, 3.5), (2, 9, 3.0, 3.5)]),
            (self.ALLREDUCE, 0, 8, [(2, 7, 4.0, 6.0), (0, 5, 5.0, 6.0), (1, 6, 4.5, 6.0)]),
            (self.ALLREDUCE, 0, 8, [(0, 5, 7.0, 8.0), (1, 6, 7.25, 8.0), (2, 7, 7.0, 8.0)]),
        ]
        dep = _assert_collectives_match_reference(instances)
        key = (self.ALLREDUCE, 0, 8, ((0, 5), (1, 6), (2, 7)))
        assert list(dep.groups) == [key, (MpiOp.BCAST, 1, 64, ((0, 9), (1, 9), (2, 9)))]
        assert dep.group_stats[key] == (3, 1.0, 0)

    def test_tied_arrivals_pick_the_max_rank_laggard(self):
        instances = [
            (MpiOp.BARRIER, 0, 0, [(2, 4, 3.0, 4.0), (0, 4, 3.0, 4.0), (1, 4, 1.0, 4.0)]),
            (MpiOp.BARRIER, 0, 0, [(1, 4, 5.0, 6.0), (0, 4, 5.0, 6.0), (2, 4, 4.0, 6.0)]),
            # everyone arrives at once: worst wait 0.0, below the maximum,
            # so the first instance's laggard (rank 2 of the 3.0 tie) stays
            (MpiOp.BARRIER, 0, 0, [(0, 4, 7.0, 8.0), (2, 4, 7.0, 8.0), (1, 4, 7.0, 8.0)]),
        ]
        dep = _assert_collectives_match_reference(instances)
        ((_key, stats),) = dep.group_stats.items()
        assert stats == (3, 2.0, 2)
        laggards = dep_laggards(instances)
        assert laggards == [2, 1, 2]  # max rank among each tie

    def test_all_zero_worst_waits_keep_a_zero_maximum(self):
        instances = [
            (self.ALLREDUCE, 0, 8, [(0, 3, 1.0, 2.0), (1, 3, 1.0, 2.0)]),
            (self.ALLREDUCE, 0, 8, [(1, 3, 3.0, 4.0), (0, 3, 3.0, 4.0)]),
        ]
        dep = _assert_collectives_match_reference(instances)
        ((_key, stats),) = dep.group_stats.items()
        assert repr(stats) == "(2, 0.0, 1)"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_ragged_tables_with_many_ties(self, data):
        """Ragged participant sets, a small signature pool and times drawn
        from a few values, so worst waits and arrivals tie often."""
        times = st.sampled_from([0.0, 0.5, 1.0, 1.5])
        instances = []
        for _ in range(data.draw(st.integers(1, 12))):
            ranks = data.draw(st.permutations(range(4)))
            size = data.draw(st.integers(1, 4))
            parts = []
            for r in ranks[:size]:
                arrival = data.draw(times)
                parts.append((r, data.draw(st.integers(0, 1)), arrival,
                              arrival + data.draw(times) + 1.0))
            op = data.draw(st.sampled_from([MpiOp.ALLREDUCE, MpiOp.BARRIER]))
            instances.append((op, data.draw(st.integers(0, 1)), 8, parts))
        _assert_collectives_match_reference(instances)


class TestTraceBufferOwnership:
    def test_trace_doc_roundtrips_comm_tables(self):
        result = _run(WILDCARD_HEAVY, 4)
        from repro.simulator import TraceBuffer

        back = TraceBuffer.from_doc(result.trace.to_doc())
        assert back.p2p.records() == result.p2p_records
        assert back.collectives.records() == result.collective_records

    def test_pre_table_docs_still_load(self):
        result = _run(WILDCARD_HEAVY, 4)
        from repro.simulator import TraceBuffer

        doc = result.trace.to_doc()
        del doc["p2p"], doc["collectives"]  # a PR-2-era document
        back = TraceBuffer.from_doc(doc)
        assert back.event_count == result.trace.event_count
        assert back.p2p.row_count == 0
        assert back.collectives.row_count == 0

    def test_collection_from_reloaded_trace_matches(self):
        """Comm-dependence collection re-runs identically from a
        round-tripped trace document (the post-mortem path)."""
        from dataclasses import replace
        from repro.simulator import TraceBuffer

        result = _run(WILDCARD_HEAVY, 4)
        reloaded = replace(result, trace=TraceBuffer.from_doc(result.trace.to_doc()))
        got = collect_comm_dependence(reloaded)
        want = collect_comm_dependence(result)
        assert_dependence_identical(got, want)
