"""Conservative parallel DES: sharded-vs-serial bit-identity and plumbing.

The contract under test is the hard one: for any shard count and executor,
a sharded run must reproduce the serial engine float-for-float —
same ``run_fingerprint`` (profiles + communication dependence + app time)
and the same canonical detection report.
"""

import json
import random

import pytest

from repro.api import AnalysisConfig, Pipeline, Session, run_fingerprint
from repro.api.config import canonical_json
from repro.runtime import profile_run
from repro.simulator import (
    DeadlockError,
    SimulationConfig,
    simulate,
    simulation_call_count,
)
from repro.simulator.parallel import ShardPlan, simulate_sharded
from tests.conftest import (
    IMBALANCED_SOURCE,
    _compiled,
    canonical_p2p_rows,
    make_workload,
    per_rank_trace_bytes,
)

RING = """\
def main() {
    for (var it = 0; it < 8; it = it + 1) {
        compute(flops = 100000 + 5000 * rank);
        sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 1024,
                 src = (rank - 1 + nprocs) % nprocs);
    }
}
"""

#: Many-to-one wildcard receives: the matching order depends on the global
#: send order, the exact case the conservative hold protocol exists for.
WILDCARD = """\
def main() {
    if (rank == 0) {
        for (var i = 1; i < nprocs; i = i + 1) {
            recv(src = ANY, tag = 7);
        }
        for (var i = 1; i < nprocs; i = i + 1) {
            send(dest = i, tag = 9, bytes = 8);
        }
    } else {
        compute(flops = 100000 * rank);
        send(dest = 0, tag = 7, bytes = 64 * rank);
        recv(src = 0, tag = 9);
    }
}
"""

#: Wildcard irecvs + waitall + a collective per iteration: every kind of
#: cross-shard coordination in one loop.
WILDCARD_IRECV = """\
def main() {
    for (var it = 0; it < 4; it = it + 1) {
        compute(flops = 50000 + 10000 * rank);
        if (rank == 0) {
            for (var i = 1; i < nprocs; i = i + 1) {
                irecv(src = ANY, tag = ANY, req = r);
            }
            waitall();
            bcast(root = 0, bytes = 8);
        } else {
            send(dest = 0, tag = rank, bytes = 128);
            bcast(root = 0, bytes = 8);
        }
    }
}
"""

COLLECTIVES = """\
def main() {
    for (var it = 0; it < 6; it = it + 1) {
        compute(flops = 80000 + 30000 * (rank % 3));
        allreduce(bytes = 8);
        if (rank % 2 == 0) {
            reduce(root = 0, bytes = 64);
        } else {
            reduce(root = 0, bytes = 64);
        }
    }
    barrier();
}
"""

WORKLOADS = {
    "ring": RING,
    "wildcard": WILDCARD,
    "wildcard_irecv": WILDCARD_IRECV,
    "collectives": COLLECTIVES,
    "imbalanced": IMBALANCED_SOURCE,
}


def _fingerprint(source, name, nprocs, **cfg):
    program, psg = _compiled(source, name)
    run = profile_run(program, psg, SimulationConfig(nprocs=nprocs, **cfg))
    return run_fingerprint(run)


def _skewed_bounds(nprocs, nshards):
    """Shard 0 takes all but ``nshards - 1`` ranks; the rest take one each."""
    head = nprocs - (nshards - 1)
    return ((0, head),) + tuple((r, r + 1) for r in range(head, nprocs))


def _assert_plan_matches_serial(workload, bounds, executor="inprocess"):
    from repro.runtime import collect_comm_dependence, sample_result

    program, psg = _compiled(WORKLOADS[workload], workload)
    config = SimulationConfig(nprocs=9)
    serial = profile_run(program, psg, config)
    plan = ShardPlan(nprocs=9, bounds=bounds)
    result = simulate_sharded(
        program, psg, config, plan=plan, executor=executor
    )
    assert result.finish_times == serial.result.finish_times
    assert sample_result(result, 200.0).perf == serial.profile.perf
    comm = collect_comm_dependence(result)
    assert comm.edge_stats == serial.comm.edge_stats
    assert comm.group_stats == serial.comm.group_stats


class TestBitIdentity:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_fingerprint_matches_serial(self, workload, shards):
        source = WORKLOADS[workload]
        serial = _fingerprint(source, workload, 9)
        sharded = _fingerprint(
            source, workload, 9,
            sim_shards=shards, sim_executor="inprocess",
        )
        assert sharded == serial

    @pytest.mark.parametrize(
        "bounds", [((0, 1), (1, 9)), ((0, 4), (4, 6), (6, 9))]
    )
    def test_ragged_partitions(self, bounds):
        """Unbalanced explicit partitions reproduce the serial run too."""
        for workload in ("ring", "wildcard_irecv"):
            _assert_plan_matches_serial(workload, bounds)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_skewed_partitions(self, workload, shards):
        """One large leading shard plus single-rank trailing shards: most
        traffic stays shard-internal while the tail ranks cross a shard
        boundary on every message."""
        _assert_plan_matches_serial(workload, _skewed_bounds(9, shards))

    def test_skewed_partition_process_executor(self):
        _assert_plan_matches_serial(
            "wildcard_irecv", _skewed_bounds(9, 3), executor="process"
        )

    def test_bounded_windows_mode(self):
        """The lookahead-bounded window mode is equally bit-identical."""
        program, psg = _compiled(RING, "ring")
        config = SimulationConfig(nprocs=8)
        serial = simulate(program, psg, config)
        windowed = simulate_sharded(
            program, psg,
            SimulationConfig(nprocs=8, sim_shards=2),
            executor="inprocess", bounded_windows=True,
        )
        assert windowed.finish_times == serial.finish_times
        assert windowed.parallel_stats.rounds >= 2

    def test_canonical_report_bit_identical(self):
        """The BENCH_2 acceptance criterion: AnalysisConfig(sim_shards=4)
        produces a detection report bit-identical to serial."""
        serial_cfg = AnalysisConfig(seed=0)
        shard_cfg = AnalysisConfig(
            seed=0, sim_shards=4, sim_executor="inprocess"
        )
        scales = [4, 8, 16]
        serial = Pipeline(
            source=IMBALANCED_SOURCE, filename="imbalanced.mm",
            config=serial_cfg,
        ).run(scales)
        sharded = Pipeline(
            source=IMBALANCED_SOURCE, filename="imbalanced.mm",
            config=shard_cfg,
        ).run(scales)
        a = serial.report.to_json_dict()
        b = sharded.report.to_json_dict()
        a["detection_seconds"] = b["detection_seconds"] = 0.0
        assert canonical_json(a) == canonical_json(b)

    def test_sampled_comm_collection_matches_serial(self):
        """Random-instrumentation sampling (comm_sample_probability < 1)
        must sample the identical event subset for sharded runs: the
        keep/drop draw is a pure function of event content, not of the
        (order-divergent) merged record order."""
        program, psg = _compiled(IMBALANCED_SOURCE, "imb")
        config = dict(nprocs=12)
        for probability in (0.3, 0.7):
            serial = profile_run(
                program, psg, SimulationConfig(**config),
                comm_sample_probability=probability,
            )
            sharded = profile_run(
                program, psg,
                SimulationConfig(
                    **config, sim_shards=3, sim_executor="inprocess"
                ),
                comm_sample_probability=probability,
            )
            assert sharded.comm.recorded_events == serial.comm.recorded_events
            assert run_fingerprint(sharded) == run_fingerprint(serial)

    def test_trace_aggregates_match_serial(self):
        """Merged columnar traces aggregate bit-identically (per-(rank,
        vid) float sums), including ring mode (record_segments=False)."""
        program, psg = _compiled(IMBALANCED_SOURCE, "imb")
        for record in (True, False):
            serial = simulate(
                program, psg,
                SimulationConfig(nprocs=8, record_segments=record),
            )
            sharded = simulate(
                program, psg,
                SimulationConfig(
                    nprocs=8, record_segments=record,
                    sim_shards=3, sim_executor="inprocess",
                ),
            )
            assert sharded.vertex_time == serial.vertex_time
            assert sharded.vertex_wait == serial.vertex_wait
            assert sharded.vertex_visits == serial.vertex_visits
            assert sharded.finish_times == serial.finish_times
            assert sharded.trace.event_count == serial.trace.event_count


class TestRandomizedWorkloads:
    """The shared randomized generator (wildcards, collectives,
    imbalanced compute, irecv/waitall) through the serial-vs-sharded
    identity check."""

    #: ~100 randomized workloads through the full identity check.
    SEEDS = range(100)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sharded_matches_serial(self, seed):
        source = make_workload(seed)
        rng = random.Random(10_000 + seed)
        nprocs = rng.randint(5, 9)
        serial = _fingerprint(source, f"rand{seed}", nprocs)
        sharded = _fingerprint(
            source, f"rand{seed}", nprocs,
            sim_shards=rng.randint(2, 4), sim_executor="inprocess",
        )
        assert sharded == serial, f"sharded divergence on seed {seed}"

    @pytest.mark.parametrize("seed", [0, 17, 33, 58, 76, 91])
    def test_process_executor_matches_serial(self, seed):
        source = make_workload(seed)
        serial = _fingerprint(source, f"randmp{seed}", 6)
        sharded = _fingerprint(
            source, f"randmp{seed}", 6, sim_shards=2, sim_executor="process"
        )
        assert sharded == serial, seed

    @pytest.mark.parametrize("seed", [3, 41])
    def test_trace_columns_identical_not_just_fingerprints(self, seed):
        program, psg = _compiled(make_workload(seed), f"randcols{seed}")
        a = simulate(program, psg, SimulationConfig(nprocs=7))
        b = simulate(
            program, psg,
            SimulationConfig(nprocs=7, sim_shards=3, sim_executor="inprocess"),
        )
        assert a.finish_times == b.finish_times
        # the shard merge preserves per-rank row order, not global order
        assert per_rank_trace_bytes(a.trace) == per_rank_trace_bytes(b.trace)
        assert canonical_p2p_rows(a.trace.p2p) == canonical_p2p_rows(
            b.trace.p2p
        )


#: Regression for the wildcard-gate rewind bug: a multi-iteration wildcard
#: fan-in where fast senders race a whole iteration ahead of the receiver.
#: A round's replay then commits far-future deliveries to the mailbox
#: *before* the receiver posts its next wildcard into the existing gate —
#: without rewinding the committed-but-unmatched messages past the new
#: receive's key, its resolution scan cannot see them and a later queued
#: delivery jumps the canonical match order (diverging from serial).
RACING_WILDCARD_LOOP = """\
def main() {
    for (var it = 0; it < 2; it = it + 1) {
        compute(flops = 50000 + floor(30000 * hashrand(rank, it)));
        if (rank == 0) {
            for (var i = 1; i < nprocs; i = i + 1) {
                recv(src = ANY, tag = 2);
            }
        } else {
            compute(flops = 20000 * rank + floor(20000 * hashrand(rank, it)));
            send(dest = 0, tag = 2, bytes = 256);
        }
        isend(dest = (rank + 1) % nprocs, tag = 1, bytes = 2048, req = s);
        irecv(src = (rank - 1 + nprocs) % nprocs, tag = 1, req = r);
        waitall();
    }
}
"""


class TestWildcardGateRewind:
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_racing_wildcard_loop_matches_serial(self, shards):
        serial = _fingerprint(RACING_WILDCARD_LOOP, "racewild", 9)
        assert _fingerprint(
            RACING_WILDCARD_LOOP, "racewild", 9,
            sim_shards=shards, sim_executor="inprocess",
        ) == serial

    def test_match_pairing_identical_to_serial(self):
        program, psg = _compiled(RACING_WILDCARD_LOOP, "racewild")
        serial = simulate(program, psg, SimulationConfig(nprocs=9))
        sharded = simulate_sharded(
            program, psg, SimulationConfig(nprocs=9, sim_shards=3),
            executor="inprocess",
        )
        pair = lambda r: sorted(
            (rec.send_rank, rec.send_time, rec.recv_rank, rec.completion)
            for rec in r.p2p_records
        )
        assert pair(sharded) == pair(serial)
        assert sharded.finish_times == serial.finish_times


#: All senders race one wildcard receiver at *exactly* equal virtual
#: times: the match order is ambiguous in MPI semantics (and emergent in
#: the serial engine), so this sits outside the bit-identity guarantee —
#: see the carve-out in repro/simulator/parallel/__init__.py.
SYMMETRIC_WILDCARD = """\
def main() {
    if (rank == 0) {
        for (var i = 1; i < nprocs; i = i + 1) {
            recv(src = ANY, tag = 7);
        }
    } else {
        compute(flops = 100000);
        send(dest = 0, tag = 7, bytes = 64);
    }
}
"""


class TestWildcardTieCarveOut:
    """Simultaneous ANY-source races: sharded mode must be *canonical*
    (lowest sender first) and deterministic across shard counts and
    executors — equality with the serial engine's emergent tie order is
    explicitly not promised."""

    def test_tied_race_is_canonical_and_shard_count_invariant(self):
        program, psg = _compiled(SYMMETRIC_WILDCARD, "symwild")
        outcomes = set()
        for shards in (2, 3, 4):
            result = simulate_sharded(
                program, psg, SimulationConfig(nprocs=7, sim_shards=shards),
                executor="inprocess",
            )
            order = [r.send_rank for r in result.p2p_records]
            # canonical resolution: simultaneous senders match lowest-first
            assert order == sorted(order)
            outcomes.add(
                (tuple(order), tuple(result.finish_times))
            )
        assert len(outcomes) == 1  # invariant across shard counts

    def test_time_separated_race_matches_serial(self):
        """The same shape with distinct send times is inside the
        guarantee (this is what WILDCARD above sweeps; asserted here
        side by side with the tied variant for contrast)."""
        staggered = SYMMETRIC_WILDCARD.replace(
            "flops = 100000", "flops = 100000 * rank"
        )
        serial = _fingerprint(staggered, "stagwild", 7)
        for shards in (2, 3):
            assert _fingerprint(
                staggered, "stagwild", 7,
                sim_shards=shards, sim_executor="inprocess",
            ) == serial


class TestMultiprocessExecutor:
    def test_fingerprint_matches_serial(self):
        serial = _fingerprint(RING, "ring", 8)
        sharded = _fingerprint(
            RING, "ring", 8, sim_shards=2, sim_executor="process"
        )
        assert sharded == serial

    def test_identical_to_inprocess_executor(self):
        """Both executors traverse the same rounds: traces, records and
        stats are equal element-for-element, not just fingerprint-equal."""
        program, psg = _compiled(WILDCARD_IRECV, "wi")
        results = {}
        for executor in ("inprocess", "process"):
            results[executor] = simulate_sharded(
                program, psg, SimulationConfig(nprocs=6, sim_shards=2),
                executor=executor,
            )
        a, b = results["inprocess"], results["process"]
        assert a.parallel_stats.rounds == b.parallel_stats.rounds
        assert a.finish_times == b.finish_times
        ca, cb = a.trace.columns(), b.trace.columns()
        for column in ca:
            assert ca[column].tolist() == cb[column].tolist()
        assert len(a.p2p_records) == len(b.p2p_records)
        for ra, rb in zip(a.p2p_records, b.p2p_records):
            assert (ra.send_rank, ra.send_vid, ra.recv_rank, ra.recv_vid,
                    ra.send_time, ra.arrival) == (
                rb.send_rank, rb.send_vid, rb.recv_rank, rb.recv_vid,
                rb.send_time, rb.arrival)


class TestShardPlan:
    def test_contiguous_balanced_and_clamped(self):
        plan = ShardPlan.contiguous(10, 3)
        assert plan.bounds == ((0, 4), (4, 7), (7, 10))
        assert ShardPlan.contiguous(2, 8).nshards == 2
        assert ShardPlan.contiguous(5, 1).bounds == ((0, 5),)

    def test_shard_of_and_owner_table(self):
        plan = ShardPlan.contiguous(10, 3)
        table = plan.owner_table()
        for rank in range(10):
            assert plan.shard_of(rank) == table[rank]
            assert rank in plan.ranks(table[rank])

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan(nprocs=4, bounds=((0, 2), (3, 4)))  # gap
        with pytest.raises(ValueError):
            ShardPlan(nprocs=4, bounds=((0, 2), (2, 2), (2, 4)))  # empty
        with pytest.raises(ValueError):
            ShardPlan(nprocs=4, bounds=((0, 2),))  # short

    def test_lookahead_is_network_latency(self):
        from repro.simulator import NetworkModel

        plan = ShardPlan.contiguous(8, 2)
        assert plan.lookahead(NetworkModel(latency=3.5e-6)) == 3.5e-6


class TestAccounting:
    def test_sharded_run_counts_one_logical_simulation(self):
        """The satellite fix: multiprocess execution must not under-report
        to the coordinator process's counter."""
        program, psg = _compiled(RING, "ring")
        for executor in ("inprocess", "process"):
            before = simulation_call_count()
            result = simulate(
                program, psg,
                SimulationConfig(
                    nprocs=6, sim_shards=2, sim_executor=executor
                ),
            )
            assert simulation_call_count() - before == 1
            stats = result.parallel_stats
            assert stats.shards == 2
            assert stats.executor == executor
            # worker engine runs aggregated back to the coordinator
            assert stats.engine_runs == 2
            assert stats.rounds >= 1

    def test_session_cache_hits_across_shard_settings(self):
        """sim_shards is digest-neutral: a serial-cached artifact is a hit
        for a sharded request, and the hit performs zero simulations."""
        serial_cfg = AnalysisConfig(seed=0)
        shard_cfg = AnalysisConfig(
            seed=0, sim_shards=3, sim_executor="inprocess"
        )
        assert serial_cfg.digest() == shard_cfg.digest()
        session = Session()
        session.pipeline(IMBALANCED_SOURCE, serial_cfg).profile(8)
        before = simulation_call_count()
        artifact = session.pipeline(IMBALANCED_SOURCE, shard_cfg).profile(8)
        assert artifact.cached
        assert simulation_call_count() == before
        assert session.stats.hits == 1

    def test_config_round_trips_shard_fields(self):
        config = AnalysisConfig(sim_shards=4, sim_executor="process")
        assert AnalysisConfig.from_json(config.to_json()) == config
        # pre-sharding documents load with defaults
        doc = json.loads(config.to_json())
        del doc["sim_shards"], doc["sim_executor"]
        old = AnalysisConfig.from_dict(doc)
        assert old.sim_shards == 1 and old.sim_executor == "auto"
        with pytest.raises(ValueError):
            AnalysisConfig(sim_shards=0)
        with pytest.raises(ValueError):
            AnalysisConfig(sim_executor="threads")


DEADLOCK = """\
def main() {
    if (rank == 0) {
        recv(src = 1, tag = 1);
    } else {
        if (rank == 1) {
            recv(src = 0, tag = 1);
        } else {
            compute(flops = 1000);
        }
    }
}
"""


class TestErrorParity:
    def test_deadlock_detected_like_serial(self):
        program, psg = _compiled(DEADLOCK, "deadlock")
        with pytest.raises(DeadlockError) as serial_err:
            simulate(program, psg, SimulationConfig(nprocs=4))
        with pytest.raises(DeadlockError) as shard_err:
            simulate(
                program, psg,
                SimulationConfig(
                    nprocs=4, sim_shards=2, sim_executor="inprocess"
                ),
            )
        assert len(shard_err.value.blocked) == len(serial_err.value.blocked)
        assert "2 of 4 ranks blocked" in str(shard_err.value)

    def test_deadlock_with_held_wildcard(self):
        """A wildcard receive that never gets a message deadlocks, not
        livelocks, under the hold protocol."""
        source = """\
def main() {
    if (rank == 0) {
        recv(src = ANY, tag = 1);
    } else {
        compute(flops = 1000);
    }
}
"""
        program, psg = _compiled(source, "wilddead")
        with pytest.raises(DeadlockError):
            simulate(
                program, psg,
                SimulationConfig(
                    nprocs=4, sim_shards=2, sim_executor="inprocess"
                ),
            )

    def test_collective_mismatch_propagates(self):
        from repro.simulator import CollectiveMismatchError

        source = """\
def main() {
    if (rank == 0) {
        allreduce(bytes = 8);
    } else {
        barrier();
    }
}
"""
        program, psg = _compiled(source, "mismatch")
        with pytest.raises(CollectiveMismatchError):
            simulate(
                program, psg,
                SimulationConfig(
                    nprocs=4, sim_shards=2, sim_executor="inprocess"
                ),
            )


class TestCLI:
    def test_run_with_sim_shards_is_bit_identical(self, tmp_path, capsys):
        from repro.tools.cli import main

        source = tmp_path / "ring.mm"
        source.write_text(RING)
        assert main([
            "run", "--source", str(source), "--scales", "4,8", "--json",
        ]) == 0
        serial_out = capsys.readouterr().out
        assert main([
            "run", "--source", str(source), "--scales", "4,8", "--json",
            "--sim-shards", "2", "--sim-executor", "inprocess",
        ]) == 0
        shard_out = capsys.readouterr().out
        a, b = json.loads(serial_out), json.loads(shard_out)
        a["detection_seconds"] = b["detection_seconds"] = 0.0
        assert a == b

    def test_simulate_subcommand(self, tmp_path, capsys):
        from repro.tools.cli import main

        source = tmp_path / "ring.mm"
        source.write_text(RING)
        assert main([
            "simulate", "--source", str(source), "--nprocs", "8",
            "--sim-shards", "2", "--sim-executor", "inprocess",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 shards" in out
        assert "events" in out
