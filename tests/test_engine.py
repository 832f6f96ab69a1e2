"""Engine semantics tests: time, waiting, non-blocking, collectives."""

import math

import pytest

from repro.minilang.ast_nodes import MpiOp
from repro.simulator import DeadlockError, SegmentKind
from repro.simulator.collectives import CollectiveMismatchError
from tests.conftest import run_source


class TestComputeTiming:
    def test_single_rank_compute_time(self):
        res, _, _ = run_source(
            "def main() { compute(flops = 2000000000); }", nprocs=1
        )
        # default flop rate 2e9 -> exactly 1 second
        assert res.total_time == pytest.approx(1.0)

    def test_compute_counters_aggregated(self):
        res, psg, _ = run_source(
            "def main() { compute(flops = 1000, bytes = 800); "
            "compute(flops = 1000, bytes = 800); }", nprocs=1
        )
        (key,) = [k for k in res.vertex_counters if k[0] == 0]
        # the two computes merged into one Comp vertex by contraction
        assert res.vertex_counters[key].tot_lst_ins == pytest.approx(200)
        assert res.vertex_visits[key] == 2

    def test_finish_times_per_rank(self):
        res, _, _ = run_source(
            "def main() { compute(flops = 1000000 * (rank + 1)); }", nprocs=4
        )
        assert res.finish_times == sorted(res.finish_times)
        assert res.total_time == res.finish_times[3]


class TestBlockingP2P:
    def test_receiver_waits_for_sender(self):
        src = """def main() {
            if (rank == 0) {
                compute(flops = 2000000000);
                send(dest = 1, tag = 1, bytes = 8);
            } else {
                recv(src = 0, tag = 1);
            }
        }"""
        res, _, _ = run_source(src, nprocs=2)
        (rec,) = res.p2p_records
        assert rec.wait_time == pytest.approx(1.0, rel=1e-3)
        assert rec.had_wait
        assert res.finish_times[1] >= 1.0

    def test_sender_does_not_block(self):
        src = """def main() {
            if (rank == 0) {
                send(dest = 1, tag = 1, bytes = 8);
            } else {
                compute(flops = 2000000000);
                recv(src = 0, tag = 1);
            }
        }"""
        res, _, _ = run_source(src, nprocs=2)
        assert res.finish_times[0] < 0.01  # eager send returns immediately
        (rec,) = res.p2p_records
        assert rec.wait_time == 0.0

    def test_transfer_time_respected(self):
        src = """def main() {
            if (rank == 0) {
                send(dest = 1, tag = 1, bytes = 600000000);
            } else {
                recv(src = 0, tag = 1);
            }
        }"""
        res, _, _ = run_source(src, nprocs=2)
        # 6e8 bytes / 6e9 B/s = 0.1 s on the wire
        assert res.finish_times[1] == pytest.approx(0.1, rel=1e-2)

    def test_message_order_fifo(self):
        src = """def main() {
            if (rank == 0) {
                send(dest = 1, tag = 1, bytes = 8);
                send(dest = 1, tag = 1, bytes = 16);
            } else {
                recv(src = 0, tag = 1);
                recv(src = 0, tag = 1);
            }
        }"""
        res, _, _ = run_source(src, nprocs=2)
        sizes = [r.nbytes for r in sorted(res.p2p_records, key=lambda r: r.completion)]
        assert sizes == [8, 16]

    def test_any_source_recv_records_true_source(self):
        src = """def main() {
            if (rank == 0) {
                recv(src = ANY, tag = ANY);
                recv(src = ANY, tag = ANY);
            } else {
                send(dest = 0, tag = rank, bytes = 8);
            }
        }"""
        res, _, _ = run_source(src, nprocs=3)
        srcs = {r.send_rank for r in res.p2p_records}
        assert srcs == {1, 2}
        for r in res.p2p_records:
            assert r.declared_src is None  # wildcard recorded as such
            assert r.tag == r.send_rank


class TestNonBlocking:
    def test_irecv_wait_attributes_wait_to_wait_vertex(self):
        src = """def main() {
            if (rank == 0) {
                compute(flops = 1000000000);
                send(dest = 1, tag = 1, bytes = 8);
            } else {
                irecv(src = 0, tag = 1, req = r1);
                wait(req = r1);
            }
        }"""
        res, psg, _ = run_source(src, nprocs=2)
        (rec,) = res.p2p_records
        assert rec.wait_vid != rec.recv_vid
        assert rec.wait_time == pytest.approx(0.5, rel=1e-2)
        wait_v = psg.vertices[rec.wait_vid]
        assert wait_v.mpi_op is MpiOp.WAIT

    def test_waitall_collects_all_requests(self):
        src = """def main() {
            var right = (rank + 1) % nprocs;
            var left = (rank - 1 + nprocs) % nprocs;
            isend(dest = right, tag = 1, bytes = 64, req = s1);
            isend(dest = left, tag = 2, bytes = 64, req = s2);
            irecv(src = left, tag = 1, req = r1);
            irecv(src = right, tag = 2, req = r2);
            waitall();
        }"""
        res, _, _ = run_source(src, nprocs=4)
        assert len(res.p2p_records) == 8
        assert all(not math.isnan(r.completion) for r in res.p2p_records)
        # all four requests completed at the same waitall vertex
        assert len({r.wait_vid for r in res.p2p_records}) == 1

    def test_wait_on_send_request_is_fast(self):
        src = """def main() {
            if (rank == 0) {
                isend(dest = 1, tag = 1, bytes = 8, req = s);
                wait(req = s);
            } else {
                recv(src = 0, tag = 1);
            }
        }"""
        res, _, _ = run_source(src, nprocs=2)
        assert res.finish_times[0] < 0.001

    def test_wait_unknown_request_raises(self):
        from repro.simulator.errors import MpiUsageError

        with pytest.raises(MpiUsageError, match="unknown request"):
            run_source("def main() { wait(req = ghost); }", nprocs=1)

    def test_out_of_order_tags_match_correctly(self):
        src = """def main() {
            if (rank == 0) {
                send(dest = 1, tag = 2, bytes = 200);
                send(dest = 1, tag = 1, bytes = 100);
            } else {
                recv(src = 0, tag = 1);
                recv(src = 0, tag = 2);
            }
        }"""
        res, _, _ = run_source(src, nprocs=2)
        by_tag = {r.tag: r.nbytes for r in res.p2p_records}
        assert by_tag == {1: 100, 2: 200}


class TestCollectives:
    def test_barrier_synchronizes(self):
        src = """def main() {
            compute(flops = 1000000 * (rank + 1));
            barrier();
            compute(flops = 1);
        }"""
        res, _, _ = run_source(src, nprocs=4)
        (coll,) = res.collective_records
        assert coll.mpi_op is MpiOp.BARRIER
        finish = max(coll.completions.values())
        assert all(
            c == pytest.approx(finish) for c in coll.completions.values()
        )
        assert coll.last_arrival_rank == 3

    def test_allreduce_wait_attribution(self):
        src = """def main() {
            if (rank == 2) { compute(flops = 2000000000); }
            allreduce(bytes = 8);
        }"""
        res, _, _ = run_source(src, nprocs=4)
        (coll,) = res.collective_records
        assert coll.wait_of(2) == pytest.approx(0.0, abs=1e-6)
        for r in (0, 1, 3):
            assert coll.wait_of(r) == pytest.approx(1.0, rel=1e-3)

    def test_bcast_root_gates_others(self):
        src = """def main() {
            if (rank == 0) { compute(flops = 2000000000); }
            bcast(root = 0, bytes = 1024);
        }"""
        res, _, _ = run_source(src, nprocs=4)
        (coll,) = res.collective_records
        for r in range(1, 4):
            assert coll.completions[r] >= 1.0

    def test_reduce_nonroot_does_not_wait(self):
        src = """def main() {
            if (rank == 0) { compute(flops = 2000000000); }
            reduce(root = 0, bytes = 8);
        }"""
        res, _, _ = run_source(src, nprocs=4)
        (coll,) = res.collective_records
        assert coll.completions[1] < 0.01  # fire-and-forget contribution
        assert coll.completions[0] >= 1.0

    def test_collective_mismatch_detected(self):
        src = """def main() {
            if (rank == 0) { barrier(); } else { allreduce(bytes = 8); }
        }"""
        with pytest.raises(CollectiveMismatchError):
            run_source(src, nprocs=2)

    def test_consecutive_collectives_instance_order(self):
        src = """def main() {
            barrier();
            allreduce(bytes = 8);
            barrier();
        }"""
        res, _, _ = run_source(src, nprocs=3)
        ops_seen = [c.mpi_op for c in sorted(res.collective_records, key=lambda c: c.index)]
        assert ops_seen == [MpiOp.BARRIER, MpiOp.ALLREDUCE, MpiOp.BARRIER]


class TestDeadlock:
    def test_recv_without_send_deadlocks(self):
        with pytest.raises(DeadlockError) as exc:
            run_source("def main() { recv(src = (rank + 1) % nprocs, tag = 1); }", nprocs=2)
        assert "blocked" in str(exc.value)
        assert "recv" in str(exc.value)

    def test_collective_partial_arrival_deadlocks(self):
        src = """def main() {
            if (rank == 0) { barrier(); }
        }"""
        with pytest.raises(DeadlockError) as exc:
            run_source(src, nprocs=2)
        assert "MPI_Barrier" in str(exc.value)

    def test_wait_never_matched_deadlocks(self):
        src = """def main() {
            if (rank == 0) { irecv(src = 1, tag = 1, req = r); wait(req = r); }
        }"""
        with pytest.raises(DeadlockError):
            run_source(src, nprocs=2)

    def test_tag_mismatch_deadlocks(self):
        src = """def main() {
            if (rank == 0) { send(dest = 1, tag = 1, bytes = 8); }
            else { recv(src = 0, tag = 2); }
        }"""
        with pytest.raises(DeadlockError):
            run_source(src, nprocs=2)


class TestBlockDiagnostics:
    """Direct coverage of _describe_block for every block kind: the
    deadlock stack-dump must say what each rank is stuck *on*."""

    @staticmethod
    def _diagnostics(src, nprocs, **cfg):
        with pytest.raises(DeadlockError) as exc:
            run_source(src, nprocs=nprocs, **cfg)
        return exc.value.blocked

    def test_recv_names_source_and_tag(self):
        blocked = self._diagnostics(
            "def main() { if (rank == 0) { recv(src = 1, tag = 5); } }",
            nprocs=2,
        )
        assert len(blocked) == 1
        assert "rank 0 blocked" in blocked[0]
        assert "recv(src=1, tag=5)" in blocked[0]

    def test_wildcard_recv_names_any(self):
        blocked = self._diagnostics(
            "def main() { if (rank == 0) { recv(src = ANY, tag = ANY); } }",
            nprocs=2,
        )
        assert "recv(src=ANY, tag=ANY)" in blocked[0]

    def test_wait_names_request(self):
        blocked = self._diagnostics(
            "def main() { if (rank == 0) {"
            " irecv(src = 1, tag = 1, req = r); wait(req = r); } }",
            nprocs=2,
        )
        assert "wait(req=r)" in blocked[0]

    def test_waitall_reports_only_incomplete_requests_by_name(self):
        # Three captured requests; the isend completes locally and one
        # irecv is matched by rank 1's send, so exactly one is incomplete
        # at the deadlock — the diagnostic must name it (and only it).
        src = """def main() {
            if (rank == 0) {
                isend(dest = 1, tag = 1, bytes = 8, req = s);
                irecv(src = 1, tag = 1, req = a);
                irecv(src = 1, tag = 2, req = b);
                waitall();
            } else {
                recv(src = 0, tag = 1);
                send(dest = 0, tag = 1, bytes = 8);
            }
        }"""
        blocked = self._diagnostics(src, nprocs=2)
        assert len(blocked) == 1
        assert "waitall(1 incomplete: req=b)" in blocked[0]
        assert "req=a" not in blocked[0]
        assert "req=s" not in blocked[0]

    def test_waitall_names_every_incomplete_request(self):
        src = """def main() {
            if (rank == 0) {
                irecv(src = 1, tag = 1, req = a);
                irecv(src = 1, tag = 2, req = b);
                waitall();
            } else { compute(flops = 1000); }
        }"""
        blocked = self._diagnostics(src, nprocs=2)
        assert "waitall(2 incomplete: req=a, b)" in blocked[0]

    def test_collective_names_op_and_arrival_count(self):
        blocked = self._diagnostics(
            "def main() { if (rank == 0) { barrier(); } }", nprocs=3
        )
        assert len(blocked) == 1
        assert "MPI_Barrier #0 (1/3 arrived)" in blocked[0]

    def test_partial_allreduce_block_names_op(self):
        blocked = self._diagnostics(
            "def main() { if (rank < 2) { allreduce(bytes = 8); } }",
            nprocs=4,
        )
        assert len(blocked) == 2
        assert all("MPI_Allreduce #0 (2/4 arrived)" in line for line in blocked)


class TestSegments:
    def test_segments_cover_rank_time(self):
        res, _, _ = run_source(
            "def main() { compute(flops = 1000000); allreduce(bytes = 8); }",
            nprocs=4,
        )
        for rank in range(4):
            segs = [s for s in res.segments if s.rank == rank]
            covered = sum(s.duration for s in segs)
            assert covered == pytest.approx(res.finish_times[rank], rel=1e-9)

    def test_segments_per_rank_nonoverlapping(self):
        res, _, _ = run_source(
            "def main() { for (var i = 0; i < 5; i = i + 1) {"
            " compute(flops = 100000); sendrecv(dest = (rank + 1) % nprocs,"
            " tag = 1, bytes = 64, src = (rank - 1 + nprocs) % nprocs); } }",
            nprocs=4,
        )
        for rank in range(4):
            segs = sorted(
                (s for s in res.segments if s.rank == rank), key=lambda s: s.start
            )
            for a, b in zip(segs, segs[1:]):
                assert a.end <= b.start + 1e-12

    def test_record_segments_off(self):
        res, _, _ = run_source(
            "def main() { compute(flops = 1000); }", nprocs=2,
            record_segments=False,
        )
        assert res.segments == []
        assert res.vertex_time  # aggregates still maintained

    def test_kind_classification(self):
        res, _, _ = run_source(
            "def main() { compute(flops = 1000); barrier(); }", nprocs=2
        )
        kinds = {s.kind for s in res.segments}
        assert kinds == {SegmentKind.COMPUTE, SegmentKind.MPI}


class TestWaitAccounting:
    """Regression tests for the PR-2 wait-accounting bug fixes."""

    def test_wait_on_send_request_charges_send_overhead(self):
        """MPI_Wait on an isend must complete with *send-side* overhead.

        The engine used to charge ``recv_overhead()`` here.  The wait
        vertex's exact time is pinned to the network call overhead so any
        future drift in which cost is charged fails loudly.
        """
        src = """def main() {
            if (rank == 0) {
                isend(dest = 1, tag = 1, bytes = 8, req = s);
                wait(req = s);
            } else {
                recv(src = 0, tag = 1);
            }
        }"""
        res, psg, _ = run_source(src, nprocs=2)
        overhead = res.config.network.call_overhead
        wait_vids = [
            v.vid for v in psg.vertices.values() if v.mpi_op is MpiOp.WAIT
        ]
        (wait_vid,) = wait_vids
        assert res.vertex_time[(0, wait_vid)] == pytest.approx(overhead)
        # rank 0's timeline: isend overhead + wait overhead, nothing else
        assert res.finish_times[0] == pytest.approx(2 * overhead)

    def test_irecv_matched_but_never_waited_leaves_nan_completion(self):
        """An irecv that matches but is never waited on has no completion
        time; the sentinel is NaN in-memory (exports sanitize it)."""
        src = """def main() {
            if (rank == 0) {
                irecv(src = 1, tag = 1, req = r);
                compute(flops = 1000000);
            } else {
                send(dest = 0, tag = 1, bytes = 8);
            }
        }"""
        res, _, _ = run_source(src, nprocs=2)
        (rec,) = res.p2p_records
        assert math.isnan(rec.completion)
        assert rec.wait_time == 0.0

    def test_anti_churn_peeks_past_stale_heap_entries(self):
        """A stale heap top (superseded token) must not re-park the
        running proc; and peeking past stale entries must not change any
        observable result.  Exercised with a pattern that generates heavy
        wake/re-push churn, asserted by exact agreement of two runs and by
        segment coverage."""
        src = """def main() {
            for (var i = 0; i < 6; i = i + 1) {
                if (rank % 2 == 0) {
                    compute(flops = 100000 * (rank + i + 1));
                    send(dest = (rank + 1) % nprocs, tag = i, bytes = 64);
                } else {
                    recv(src = (rank - 1 + nprocs) % nprocs, tag = i);
                    compute(flops = 50000);
                }
                allreduce(bytes = 8);
            }
        }"""
        r1, _, _ = run_source(src, nprocs=6)
        r2, _, _ = run_source(src, nprocs=6)
        assert r1.finish_times == r2.finish_times
        assert [s.end for s in r1.segments] == [s.end for s in r2.segments]
        for rank in range(6):
            covered = sum(s.duration for s in r1.segments if s.rank == rank)
            assert covered == pytest.approx(r1.finish_times[rank], rel=1e-9)


class TestDeterminism:
    def test_same_seed_identical(self):
        src = """def main() {
            for (var i = 0; i < 10; i = i + 1) {
                compute(flops = 1000000 * hashrand(rank, i) + 1000);
                isend(dest = (rank + 1) % nprocs, tag = 1, bytes = 512, req = s);
                irecv(src = ANY, tag = 1, req = r);
                waitall();
                allreduce(bytes = 8);
            }
        }"""
        r1, _, _ = run_source(src, nprocs=8, seed=5)
        r2, _, _ = run_source(src, nprocs=8, seed=5)
        assert r1.finish_times == r2.finish_times
        assert len(r1.p2p_records) == len(r2.p2p_records)
        assert [s.end for s in r1.segments] == [s.end for s in r2.segments]

    def test_noise_seed_changes_times(self):
        from repro.simulator import MachineModel

        src = "def main() { compute(flops = 1000000); }"
        r1, _, _ = run_source(src, nprocs=2, seed=1,
                              machine=MachineModel(noise_sigma=0.1))
        r2, _, _ = run_source(src, nprocs=2, seed=2,
                              machine=MachineModel(noise_sigma=0.1))
        assert r1.total_time != r2.total_time
