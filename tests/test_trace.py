"""TraceBuffer unit tests: columnar recording, lazy views, aggregation."""

import math

import numpy as np
import pytest

from repro.minilang.ast_nodes import MpiOp
from repro.simulator import SegmentKind
from repro.simulator.events import Segment
from repro.simulator.trace import (
    CHUNK_EVENTS,
    MPI_OP_CODES,
    WILDCARD_CODE,
    TraceBuffer,
    group_rows,
    mpi_op_code,
)
from tests.conftest import run_source


def _fill(buf, events):
    for rank, vid, kind, start, end, wait, op in events:
        buf.append(rank, vid, kind, start, end, wait, op)


EVENTS = [
    (0, 3, 0, 0.0, 1.0, 0.0, -1),
    (0, 4, 1, 1.0, 1.5, 0.25, MPI_OP_CODES[MpiOp.RECV]),
    (1, 3, 0, 0.0, 0.5, 0.0, -1),
    (0, 3, 0, 1.5, 2.0, 0.0, -1),
    (1, 4, 1, 0.5, 0.75, 0.0, MPI_OP_CODES[MpiOp.SEND]),
]


class TestOpCodes:
    def test_round_trip_all_ops(self):
        for op in MpiOp:
            code = mpi_op_code(op)
            assert code >= 0
            buf = TraceBuffer()
            buf.append(0, 1, 1, 0.0, 1.0, 0.0, code)
            assert buf.segment(0).mpi_op is op

    def test_none_is_minus_one(self):
        assert mpi_op_code(None) == -1
        buf = TraceBuffer()
        buf.append(0, 1, 0, 0.0, 1.0, 0.0, -1)
        assert buf.segment(0).mpi_op is None


class TestSegmentsView:
    def test_len_getitem_iteration(self):
        buf = TraceBuffer()
        _fill(buf, EVENTS)
        view = buf.segments()
        assert len(view) == 5
        assert view[0] == Segment(0, 3, SegmentKind.COMPUTE, 0.0, 1.0)
        assert view[1].wait == 0.25
        assert view[1].mpi_op is MpiOp.RECV
        assert view[-1].rank == 1
        assert [s.vid for s in view] == [3, 4, 3, 3, 4]

    def test_slice_and_index_errors(self):
        buf = TraceBuffer()
        _fill(buf, EVENTS)
        view = buf.segments()
        assert [s.start for s in view[1:3]] == [1.0, 0.0]
        with pytest.raises(IndexError):
            view[5]
        with pytest.raises(IndexError):
            view[-6]

    def test_equality_with_lists(self):
        buf = TraceBuffer()
        assert buf.segments() == []
        _fill(buf, EVENTS)
        view = buf.segments()
        assert view == list(view)
        assert view != list(view)[:-1]
        assert view == buf.segments()

    def test_ring_mode_view_is_empty(self):
        buf = TraceBuffer(keep_events=False)
        _fill(buf, EVENTS)
        assert len(buf.segments()) == 0
        assert buf.segments() == []
        assert buf.event_count == 5  # events were counted, not kept


class TestAggregation:
    def _reference(self, events):
        """The old engine's streaming dict accumulation, verbatim."""
        time, wait_d, visits = {}, {}, {}
        for rank, vid, _kind, start, end, wait, _op in events:
            key = (rank, vid)
            time[key] = time.get(key, 0.0) + (end - start)
            if wait:
                wait_d[key] = wait_d.get(key, 0.0) + wait
            visits[key] = visits.get(key, 0) + 1
        return time, wait_d, visits

    def test_matches_streaming_reference_bitwise(self):
        buf = TraceBuffer()
        _fill(buf, EVENTS)
        time, wait, visits = self._reference(EVENTS)
        assert buf.vertex_time() == time
        assert buf.vertex_wait() == wait
        assert buf.vertex_visits() == visits

    def test_zero_wait_keys_absent(self):
        buf = TraceBuffer()
        _fill(buf, EVENTS)
        assert (1, 4) not in buf.vertex_wait()  # waited 0.0 only
        assert (0, 4) in buf.vertex_wait()

    def test_ring_mode_aggregates_match_kept_mode(self):
        kept = TraceBuffer(keep_events=True)
        ring = TraceBuffer(keep_events=False)
        rng = np.random.default_rng(7)
        events = [
            (int(r), int(v), 1, float(s), float(s) + float(d), float(w), -1)
            for r, v, s, d, w in zip(
                rng.integers(0, 4, 500),
                rng.integers(0, 6, 500),
                rng.random(500),
                rng.random(500),
                rng.random(500) * (rng.random(500) > 0.5),
            )
        ]
        _fill(kept, events)
        _fill(ring, events)
        assert kept.vertex_time() == ring.vertex_time()
        assert kept.vertex_wait() == ring.vertex_wait()
        assert kept.vertex_visits() == ring.vertex_visits()

    def test_counters_aggregate(self):
        buf = TraceBuffer()
        buf.append_counters(0, 3, 10.0, 20.0, 5.0, 1.0)
        buf.append_counters(0, 3, 1.0, 2.0, 0.5, 0.25)
        buf.append_counters(1, 3, 7.0, 7.0, 7.0, 7.0)
        agg = buf.vertex_counters()
        assert agg[(0, 3)].tot_ins == 11.0
        assert agg[(0, 3)].tot_cyc == 22.0
        assert agg[(0, 3)].tot_lst_ins == 5.5
        assert agg[(0, 3)].l2_dcm == 1.25
        assert agg[(1, 3)].tot_ins == 7.0

    @pytest.mark.parametrize("slots_per_row", [0, 1 << 40], ids=["sort", "dense"])
    @pytest.mark.parametrize("vid_span", [3, 50, 10**6])
    def test_group_rows_matches_first_occurrence_walk(
        self, monkeypatch, slots_per_row, vid_span
    ):
        """Both grouping paths (a dense code table, or a sort when the code
        space is sparse) number keys exactly like a first-occurrence walk."""
        import repro.simulator.trace as trace_mod

        monkeypatch.setattr(trace_mod, "_DENSE_SLOTS_PER_ROW", slots_per_row)
        rng = np.random.default_rng(vid_span)
        rank = rng.integers(0, 7, 400).astype(np.float64)
        vid = rng.integers(0, vid_span, 400).astype(np.float64)
        number: dict[tuple[int, int], int] = {}
        want = [
            number.setdefault((int(r), int(v)), len(number))
            for r, v in zip(rank, vid)
        ]
        inv, ranks, vids = group_rows(rank, vid)
        assert inv.tolist() == want
        assert list(zip(ranks.tolist(), vids.tolist())) == list(number)

    def test_group_rows_rejects_negative_keys(self):
        with pytest.raises(ValueError):
            group_rows(np.array([0.0, 1.0]), np.array([2.0, -1.0]))

    def test_empty_buffer(self):
        buf = TraceBuffer()
        assert buf.vertex_time() == {}
        assert buf.vertex_wait() == {}
        assert buf.vertex_visits() == {}
        assert buf.vertex_counters() == {}
        assert len(buf.segments()) == 0


class TestChunking:
    def test_multi_chunk_columns(self, monkeypatch):
        import repro.simulator.trace as trace_mod

        monkeypatch.setattr(trace_mod, "CHUNK_EVENTS", 16)
        buf = TraceBuffer()
        events = [
            (r % 3, r % 5, 0, float(r), float(r) + 1.0, 0.0, -1)
            for r in range(100)
        ]
        _fill(buf, events)
        assert buf.event_count == 100
        cols = buf.columns()
        assert len(cols["rank"]) == 100
        assert cols["start"].tolist() == [float(r) for r in range(100)]
        ref_time, _ref_wait, ref_visits = TestAggregation()._reference(events)
        assert buf.vertex_time() == ref_time
        assert buf.vertex_visits() == ref_visits

    def test_ring_mode_folds_chunks(self, monkeypatch):
        import repro.simulator.trace as trace_mod

        monkeypatch.setattr(trace_mod, "CHUNK_EVENTS", 16)
        buf = TraceBuffer(keep_events=False)
        events = [
            (r % 3, r % 5, 0, float(r), float(r) + 1.0, 0.5, -1)
            for r in range(100)
        ]
        _fill(buf, events)
        ref_time, ref_wait, ref_visits = TestAggregation()._reference(events)
        assert buf.vertex_time() == ref_time
        assert buf.vertex_wait() == ref_wait
        assert buf.vertex_visits() == ref_visits
        # the ring kept no columns around
        assert len(buf.segments()) == 0

    def test_default_chunk_bound(self):
        assert CHUNK_EVENTS >= 1024  # appends amortize over real chunks


class TestSerialization:
    def test_round_trip(self):
        buf = TraceBuffer()
        _fill(buf, EVENTS)
        buf.append_counters(0, 3, 10.0, 20.0, 5.0, 1.0)
        doc = buf.to_doc()
        assert doc["format"] == "scalana-trace-v1"
        back = TraceBuffer.from_doc(doc)
        assert back.event_count == buf.event_count
        assert list(back.segments()) == list(buf.segments())
        assert back.vertex_counters() == buf.vertex_counters()
        assert back.vertex_time() == buf.vertex_time()

    def test_ring_mode_refuses_serialization(self):
        buf = TraceBuffer(keep_events=False)
        with pytest.raises(ValueError, match="ring-mode"):
            buf.to_doc()

    def test_bad_doc_rejected(self):
        with pytest.raises(ValueError, match="not a serialized TraceBuffer"):
            TraceBuffer.from_doc({"format": "nope"})


class TestEngineIntegration:
    def test_simulation_result_views_consistent(self):
        res, _, _ = run_source(
            "def main() { compute(flops = 1000000); allreduce(bytes = 8); }",
            nprocs=4,
        )
        # the lazy views and the raw columns describe the same events
        assert res.trace.event_count == len(res.segments)
        cols = res.trace.columns()
        assert cols["end"].tolist() == [s.end for s in res.segments]
        total = sum(s.duration for s in res.segments if s.rank == 2)
        assert total == pytest.approx(res.finish_times[2], rel=1e-9)

    def test_record_segments_off_matches_on_aggregates(self):
        src = """def main() {
            for (var i = 0; i < 4; i = i + 1) {
                compute(flops = 100000 * (rank + 1));
                allreduce(bytes = 8);
            }
        }"""
        on, _, _ = run_source(src, nprocs=4)
        off, _, _ = run_source(src, nprocs=4, record_segments=False)
        assert off.segments == []
        assert on.vertex_time == off.vertex_time
        assert on.vertex_wait == off.vertex_wait
        assert on.vertex_visits == off.vertex_visits
        assert on.vertex_counters == off.vertex_counters
        assert on.finish_times == off.finish_times

    def test_nbytes_reports_columnar_footprint(self):
        res, _, _ = run_source(
            "def main() { compute(flops = 1000); barrier(); }", nprocs=2
        )
        res.trace.columns()  # seal
        assert res.trace.nbytes() > 0
        # 7 float64 event columns + 6 float64 counter columns
        expected = 8 * (7 * res.trace.event_count + 6 * res.trace.counter_count)
        assert res.trace.nbytes() == expected


class TestChunkedTables:
    """Pins what every chunked table keeps across many seals: column
    layout, in-place updates, float association of the ring fold, and
    the document bytes."""

    @pytest.fixture(autouse=True)
    def _small_chunks(self, monkeypatch):
        import repro.simulator.trace as trace_mod

        monkeypatch.setattr(trace_mod, "CHUNK_EVENTS", 16)

    @staticmethod
    def _collective_records(n):
        from repro.simulator.events import CollectiveRecord

        ops = [MpiOp.BARRIER, MpiOp.ALLREDUCE, MpiOp.BCAST, MpiOp.REDUCE]
        rng = np.random.default_rng(11)
        records = []
        for i in range(n):
            ranks = [int(r) for r in rng.permutation(9)[: 1 + i % 7]]
            arrivals = {r: float(rng.random()) for r in ranks}
            records.append(CollectiveRecord(
                index=i,
                mpi_op=ops[i % len(ops)],
                root=ranks[0],
                nbytes=8 * i,
                vids={r: 100 + r + i for r in ranks},
                arrivals=arrivals,
                completions={r: a + 0.1 + float(rng.random()) for r, a in arrivals.items()},
            ))
        return records

    def test_collective_rows_span_seals(self):
        from repro.simulator.trace import CollectiveTable

        records = self._collective_records(40)
        table = CollectiveTable()
        for rec in records:
            table.append_record(rec)
        assert table.row_count == len(table) == 40
        cols = table.columns()
        assert cols["index"].tolist() == list(range(40))
        assert cols["op"].tolist() == [MPI_OP_CODES[r.mpi_op] for r in records]
        assert cols["root"].tolist() == [r.root for r in records]
        assert cols["nbytes"].tolist() == [r.nbytes for r in records]
        assert cols["offsets"].tolist() == np.cumsum(
            [0] + [len(r.arrivals) for r in records]
        ).tolist()
        assert cols["part_rank"].dtype == np.int64
        assert cols["part_rank"].tolist() == [
            rk for r in records for rk in r.arrivals
        ]
        assert cols["part_vid"].tolist() == [
            r.vids[rk] for r in records for rk in r.arrivals
        ]
        assert cols["part_arrival"].tolist() == [
            a for r in records for a in r.arrivals.values()
        ]
        assert cols["part_completion"].tolist() == [
            r.completions[rk] for r in records for rk in r.arrivals
        ]
        wc = table.wait_columns()
        assert wc["op_cost"].tolist() == [r.op_cost for r in records]
        assert wc["laggard"].tolist() == [r.last_arrival_rank for r in records]
        assert wc["laggard_arrival"].tolist() == [
            r.arrivals[r.last_arrival_rank] for r in records
        ]
        assert wc["wait"].tolist() == [
            r.wait_of(rk) for r in records for rk in r.arrivals
        ]
        for i, rec in enumerate(records):
            row = table.row(i)
            assert row == rec
            assert list(row.arrivals) == list(rec.arrivals)  # key order
        assert list(table.records()) == records
        doc = table.to_doc()
        back = CollectiveTable.from_doc(doc)
        assert back.to_doc() == doc
        assert list(back.records()) == records
        assert all(
            np.array_equal(a, b)
            for a, b in zip(back.columns().values(), cols.values())
        )

    @staticmethod
    def _chunked_reference(rows, chunk, nweights):
        """Per chunk, a left fold of each key's weights in row order; the
        chunk partials then join each key's total in chunk order."""
        totals, flags = {}, {}
        for c0 in range(0, len(rows), chunk):
            partials = {}
            for key, weights in rows[c0:c0 + chunk]:
                part = partials.setdefault(key, [0.0] * nweights)
                for j, w in enumerate(weights):
                    part[j] = part[j] + w
                flags[key] = flags.get(key, False) or weights[-1] != 0.0
            for key, part in partials.items():
                if key in totals:
                    totals[key] = [a + b for a, b in zip(totals[key], part)]
                else:
                    totals[key] = part
        return totals, flags

    @staticmethod
    def _bits(d):
        import struct

        return [
            (k, struct.pack("<d", v) if isinstance(v, float) else v)
            for k, v in d.items()
        ]

    def test_ring_fold_associates_per_chunk(self):
        rng = np.random.default_rng(5)
        n = 300
        events = [
            (int(r), int(v), 0, float(s), float(s) + float(d), float(w), -1)
            for r, v, s, d, w in zip(
                rng.integers(0, 3, n),
                rng.integers(0, 4, n),
                rng.random(n) * 10.0,
                rng.random(n) / 3.0,
                rng.random(n) / 7.0 * (rng.random(n) > 0.4),
            )
        ]
        counters = [
            (int(r), int(v), *(float(x) for x in rng.random(4) * 1e3 / 3.0))
            for r, v in zip(rng.integers(0, 3, n), rng.integers(0, 4, n))
        ]
        buf = TraceBuffer(keep_events=False)
        _fill(buf, events)
        for row in counters:
            buf.append_counters(*row)

        totals, waited = self._chunked_reference(
            [((r, v), (e - s, w)) for r, v, _k, s, e, w, _o in events], 16, 2
        )
        ref_time = {k: t[0] for k, t in totals.items()}
        ref_wait = {k: t[1] for k, t in totals.items() if waited[k]}
        ref_visits = {}
        for r, v, *_ in events:
            ref_visits[(r, v)] = ref_visits.get((r, v), 0) + 1
        assert self._bits(buf.vertex_time()) == self._bits(ref_time)
        assert self._bits(buf.vertex_wait()) == self._bits(ref_wait)
        assert list(buf.vertex_visits().items()) == list(ref_visits.items())
        # the chunked association really differs from one flat pass here
        flat = TraceBuffer()
        _fill(flat, events)
        assert self._bits(flat.vertex_time()) != self._bits(ref_time)

        ctotals, _ = self._chunked_reference(
            [((r, v), tuple(w)) for r, v, *w in counters], 16, 4
        )
        got = buf.vertex_counters()
        assert list(got) == list(ctotals)
        for key, (ins, cyc, lst, dcm) in ctotals.items():
            c = got[key]
            assert self._bits({0: c.tot_ins, 1: c.tot_cyc, 2: c.tot_lst_ins,
                               3: c.l2_dcm}) == self._bits(
                {0: ins, 1: cyc, 2: lst, 3: dcm}
            )

    def test_ring_fold_appends_keys_first_seen_in_later_chunks(self):
        # chunk 1 holds keys of rank 0 only; ranks 1 and 2 first appear in
        # chunks 2 and 3, interleaved with rows of keys already held
        events = [
            (r, v, 0, 0.1 * i, 0.1 * i + 0.3 / (i + 1), 0.01 * (i % 3), -1)
            for i, (r, v) in enumerate(
                [(0, i % 2) for i in range(16)]
                + [(1, 5), (0, 1)] * 8
                + [(2, 3), (0, 0), (1, 5), (2, 4)] * 4
            )
        ]
        buf = TraceBuffer(keep_events=False)
        _fill(buf, events)
        totals, waited = self._chunked_reference(
            [((r, v), (e - s, w)) for r, v, _k, s, e, w, _o in events], 16, 2
        )
        assert list(buf.vertex_time()) == [(0, 0), (0, 1), (1, 5), (2, 3), (2, 4)]
        assert self._bits(buf.vertex_time()) == self._bits(
            {k: t[0] for k, t in totals.items()}
        )
        assert self._bits(buf.vertex_wait()) == self._bits(
            {k: t[1] for k, t in totals.items() if waited[k]}
        )

    def test_sealed_set_wait_survives_json_round_trip(self):
        import json

        buf = TraceBuffer()
        _fill(buf, EVENTS * 10)
        for i in range(10):
            buf.append_counters(i % 3, 7, 1.0 / (i + 3), 2.5, 0.1 * i, 1e-3)
        rows = [
            buf.p2p.append(i % 4, 5, (i + 1) % 4, 6, -1, i, 8 * i,
                           WILDCARD_CODE if i % 3 else i % 4, i,
                           0.1 * i, 0.2 * i, 0.05 * i, float("nan"), 0.0)
            for i in range(40)
        ]
        buf.p2p.set_wait(rows[3], 7.25, 12, 0.125)  # sealed at row 16
        buf.p2p.set_wait(rows[20], 8.5, 13, 0.25)  # sealed at row 32
        buf.p2p.set_wait(rows[39], 9.75, 14, 0.5)  # still pending
        for i, rec in enumerate(self._collective_records(12)):
            buf.collectives.append_record(rec)
        assert (buf.p2p.row(3).completion, buf.p2p.row(3).wait_vid,
                buf.p2p.row(3).wait_time) == (7.25, 12, 0.125)
        assert buf.p2p.row(20).wait_vid == 13
        assert buf.p2p.row(39).completion == 9.75
        assert math.isnan(buf.p2p.row(4).completion)
        text = json.dumps(buf.to_doc())
        back = TraceBuffer.from_doc(json.loads(text))
        assert json.dumps(back.to_doc()) == text
        # NaN completions compare unequal, so compare the reprs
        assert list(map(repr, back.p2p.records())) == list(
            map(repr, buf.p2p.records())
        )
        assert list(back.segments()) == list(buf.segments())
