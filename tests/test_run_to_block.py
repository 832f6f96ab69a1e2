"""Which drain a run takes: lockstep or the time-ordered loop.

When every rank runs a class-batched stream, in either recording mode,
every receive source is concrete, so matches, clocks and row values do
not depend on how ranks interleave; only the global row order of the
trace tables does.  Such a run drains in lockstep when the
compiler proves it (see ``tests/test_lockstep.py``), and through the
time-ordered loop otherwise.  These tests pin:

- engagement: every bundled app at two scales where all its ranks batch,
  noise-free and noisy, and the four ``diagnose_apps`` case-study
  pipelines run lockstep and equal the per-rank oracle (fingerprint,
  per-rank trace rows, communication tables, report sha);
- non-engagement: a refused class and an undevirtualized wildcard keep
  the time-ordered loop, while ring mode engages like recorded mode;
- errors and deadlocks: a fully batched program lockstep refuses raises
  or deadlocks through the time-ordered loop, exactly as the oracle
  does.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.batching import _RECV_FIELDS, _SENDRECV_FIELDS, FieldRule
from repro.api import (
    AnalysisConfig,
    Pipeline,
    canonical_report_sha,
    run_fingerprint,
)
from repro.apps import get_app
from repro.runtime import profile_run
from repro.simulator import SimulationConfig, ops, simulate
from repro.simulator.classbatch import _Fallback, _member_values
from repro.simulator.costmodel import MachineModel
from repro.simulator.engine import DelayInjection, Engine
from tests.conftest import (
    _compiled,
    _fingerprint,
    aggregate_bits,
    canonical_collective_rows,
    canonical_p2p_rows,
    per_rank_oracle,
    per_rank_trace_bytes,
)


def _engaged(result) -> int:
    lockstep = result.metrics.counter("engine.lockstep")
    # the gated alias of benchmarks/baseline.json
    assert result.metrics.counter("engine.run_to_block") == lockstep
    return lockstep


def _app_config(spec, nprocs, **cfg):
    cfg.setdefault("machine", spec.machine or MachineModel())
    return SimulationConfig(nprocs=nprocs, params=spec.merged_params(), **cfg)


def _tables(result):
    trace = result.trace
    return (
        canonical_p2p_rows(trace.p2p),
        canonical_collective_rows(trace.collectives),
    )


# ---------------------------------------------------------------------------
# engagement: bundled apps and the case-study pipelines


#: Two valid scales per bundled app at which every rank class batches.
#: ``lu`` is absent: its first and last ranks are singleton classes at
#: every scale, which class batching leaves per-rank (see
#: ``test_lu_keeps_the_time_ordered_loop``).
ENGAGED_APPS = [
    ("bt", 4), ("bt", 9),
    ("cg", 8), ("cg", 16),
    ("ep", 4), ("ep", 8),
    ("ft", 4), ("ft", 8),
    ("is", 4), ("is", 8),
    ("mg", 4), ("mg", 8),
    ("nekbone", 4), ("nekbone", 8),
    ("nekbone_fixed", 4), ("nekbone_fixed", 8),
    ("sp", 4), ("sp", 9),
    ("sst", 4), ("sst", 8),
    ("sst_fixed", 4), ("sst_fixed", 8),
    ("zeusmp", 8), ("zeusmp", 16),
    ("zeusmp_fixed", 8), ("zeusmp_fixed", 16),
]


def _assert_engages_and_matches_oracle(spec, config):
    with per_rank_oracle():
        oracle = profile_run(spec.program, spec.psg, config)
    run = profile_run(spec.program, spec.psg, config)
    assert _engaged(run.result) == 1
    assert _engaged(oracle.result) == 0
    assert run_fingerprint(run) == run_fingerprint(oracle)
    assert per_rank_trace_bytes(run.result.trace) == per_rank_trace_bytes(
        oracle.result.trace
    )
    assert _tables(run.result) == _tables(oracle.result)
    assert run.result.finish_times == oracle.result.finish_times


@pytest.mark.parametrize("app, nprocs", ENGAGED_APPS)
def test_bundled_app_engages_and_matches_oracle(app, nprocs):
    spec = get_app(app)
    _assert_engages_and_matches_oracle(spec, _app_config(spec, nprocs))


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("app, nprocs", ENGAGED_APPS)
def test_noisy_bundled_app_engages_and_matches_oracle(app, nprocs, seed):
    """Per-execution noise (the averaged repetitions of paper §VI-A)
    runs lockstep too."""
    spec = get_app(app)
    machine = replace(spec.machine or MachineModel(), noise_sigma=0.05)
    _assert_engages_and_matches_oracle(
        spec, _app_config(spec, nprocs, seed=seed, machine=machine),
    )


def test_lu_keeps_the_time_ordered_loop():
    spec = get_app("lu")
    config = _app_config(spec, 8)
    with per_rank_oracle():
        oracle = profile_run(spec.program, spec.psg, config)
    engine = Engine(spec.program, spec.psg, config)
    result = engine.run()
    assert engine.class_batch_stats["ranks_batched"] == 6
    assert _engaged(result) == 0
    assert run_fingerprint(
        profile_run(spec.program, spec.psg, config)
    ) == run_fingerprint(oracle)


#: The ``diagnose_apps`` benchmark's pipelines: paper §VI-D case studies
#: plus the Fig. 2 delayed CG.
CASE_STUDIES = {
    "zeusmp": (16, 32, 64, 128),
    "sst": (32, 64, 128),
    "nekbone": (32, 64, 128, 256),
    "cg": (16, 32, 64, 128),
}


@pytest.mark.parametrize("app", sorted(CASE_STUDIES))
def test_case_study_report_matches_per_rank_oracle(app):
    spec = get_app(app)
    delays = []
    if app == "cg":
        delays = [DelayInjection(4, "cg.mm", 13, 25.0)]
    config = AnalysisConfig.for_app(spec, seed=1, injected_delays=delays)

    def sha():
        return canonical_report_sha(
            Pipeline.for_app(spec, config).run(CASE_STUDIES[app]).report
        )

    with per_rank_oracle():
        oracle = sha()
    assert sha() == oracle


# ---------------------------------------------------------------------------
# non-engagement


#: One ring class plus a stencil-like exchange: fully batched.
BATCHED = """\
def main() {
    for (var it = 0; it < 4; it = it + 1) {
        compute(flops = 1000 * (rank + 1) + 500 * it);
        sendrecv(dest = (rank + 1) % nprocs, tag = 2, bytes = 256,
                 src = (rank - 1 + nprocs) % nprocs);
        irecv(src = (rank + 2) % nprocs, tag = 3, req = r);
        isend(dest = (rank - 2 + nprocs) % nprocs, tag = 3, bytes = 4096,
              req = s);
        waitall();
    }
    allreduce(bytes = 8);
}
"""

#: The odd ranks' flop count has no closed rank function (a rank-dependent
#: trip count writes it), so their class is refused while the even class
#: batches.
ONE_REFUSED_CLASS = """\
def main() {
    var x = rank;
    while (x > 3) {
        x = x - 3;
    }
    for (var it = 0; it < 3; it = it + 1) {
        if (rank % 2 == 0) {
            compute(flops = 1000 * (rank + 1));
        } else {
            compute(flops = 1000 * x + 500);
        }
        sendrecv(dest = (rank + 1) % nprocs, tag = 2, bytes = 256,
                 src = (rank - 1 + nprocs) % nprocs);
    }
    allreduce(bytes = 8);
}
"""

#: Two senders race for each rank's two ANY-source receives: no unique
#: source exists, so the wildcard stays as written and refuses the class.
RACING_WILDCARDS = """\
def main() {
    compute(flops = 1000 * rank);
    send(dest = (rank + 1) % nprocs, tag = 1, bytes = 8);
    compute(flops = 700 * rank);
    send(dest = (rank + 2) % nprocs, tag = 1, bytes = 8);
    recv(src = ANY, tag = 1);
    recv(src = ANY, tag = 1);
    barrier();
}
"""


class TestStaysTimeOrdered:
    NPROCS = 8

    def test_batched_program_engages(self):
        program, psg = _compiled(BATCHED, "batched")
        config = SimulationConfig(nprocs=self.NPROCS)
        assert _engaged(simulate(program, psg, config)) == 1
        with per_rank_oracle():
            oracle = _fingerprint(program, psg, self.NPROCS)
        assert _fingerprint(program, psg, self.NPROCS) == oracle

    def test_ring_mode(self):
        """Ring mode folds each rank's rows in order whatever the drain,
        so it runs lockstep too, and its folded aggregates stay
        bit-identical to the per-rank oracle's."""
        program, psg = _compiled(BATCHED, "batched")
        config = SimulationConfig(nprocs=self.NPROCS, record_segments=False)
        with per_rank_oracle():
            oracle = simulate(program, psg, config)
        result = simulate(program, psg, config)
        assert _engaged(result) == 1
        assert _engaged(oracle) == 0
        assert result.metrics.counter("sim.class_batch.ranks_batched") == 8
        assert aggregate_bits(result) == aggregate_bits(oracle)
        assert _tables(result) == _tables(oracle)

    @pytest.mark.parametrize("source, name", [
        (ONE_REFUSED_CLASS, "refused"),
        (RACING_WILDCARDS, "racing"),
    ])
    def test_partly_batched(self, source, name):
        program, psg = _compiled(source, name)
        engine = Engine(program, psg, SimulationConfig(nprocs=self.NPROCS))
        result = engine.run()
        assert engine.class_batch_stats["fallbacks"] == 1
        assert engine.class_batch_stats["ranks_batched"] < self.NPROCS
        assert _engaged(result) == 0
        with per_rank_oracle():
            oracle = _fingerprint(program, psg, self.NPROCS)
        assert _fingerprint(program, psg, self.NPROCS) == oracle


#: Rank 2's receive source is ANY, every other rank's is concrete: one
#: class whose src column is rank-varying.
RANK_VARYING_ANY_SOURCE = """\
def main() {
    var s = (rank - 1 + nprocs) % nprocs;
    if (rank == 2) {
        s = ANY;
    }
    send(dest = (rank + 1) % nprocs, tag = 1, bytes = 8);
    recv(src = s, tag = 1);
}
"""


class TestNoWildcardInBatchedColumns:
    """A rank-varying source column of a batched class never holds ANY,
    which is what lets "every rank batched" stand in for "every receive
    source concrete"."""

    def test_source_fields_coerce_as_ranks(self):
        sources = [
            coerce for field, coerce in _RECV_FIELDS + _SENDRECV_FIELDS
            if field in ("src", "recv_src")
        ]
        assert sources == ["rank", "rank"]

    def test_any_member_value_refuses_the_class(self):
        rule = FieldRule("src", "rank", ("const", ops.ANY))
        members = np.arange(2, dtype=np.int64)  # the evaluator's column
        with pytest.raises(_Fallback, match="not a valid rank"):
            _member_values(rule, members, 4, None)

    def test_any_on_one_member_refuses_the_class(self):
        # the other members' ints must not let the column through
        rule = FieldRule("src", "rank", (
            "sel", ("bin", "==", ("rank",), ("const", 2)),
            ("const", ops.ANY), ("rank",),
        ))
        members = np.arange(4, dtype=np.int64)
        with pytest.raises(_Fallback, match="not a valid rank"):
            _member_values(rule, members, 4, None)

    def test_program_with_a_rank_varying_any_source(self):
        program, psg = _compiled(RANK_VARYING_ANY_SOURCE, "anysrc")
        engine = Engine(program, psg, SimulationConfig(nprocs=4))
        result = engine.run()
        assert engine.class_batch_stats["ranks_batched"] == 0
        assert "is not a valid rank" in engine.class_batch_reasons[0]
        assert _engaged(result) == 0
        with per_rank_oracle():
            oracle = _fingerprint(program, psg, 4)
        assert _fingerprint(program, psg, 4) == oracle


# ---------------------------------------------------------------------------
# error and deadlock parity


#: Every rank waits on a request it never posted; rank 0 gets there last
#: in virtual time.
UNKNOWN_REQUESTS = """\
def main() {
    compute(flops = 1000000 * (nprocs - rank));
    wait(req = r);
}
"""

#: Even ranks broadcast from root 0, odd ones from root 1: the message
#: names whichever rank arrives second.
ROOT_MISMATCH = """\
def main() {
    compute(flops = 1000000 * (nprocs - rank));
    bcast(root = rank % 2, bytes = 8);
}
"""

RECV_CYCLE = """\
def main() {
    compute(flops = 1000000 * (rank + 1));
    recv(src = (rank + 1) % nprocs, tag = 1);
    send(dest = (rank - 1 + nprocs) % nprocs, tag = 1, bytes = 8);
}
"""

#: Even ranks wait in a barrier the odd ranks never reach (they wait for
#: a message nobody sends); two batched classes.
COLLECTIVE_DEADLOCK = """\
def main() {
    compute(flops = 1000000 * (rank + 1));
    if (rank % 2 == 0) {
        barrier();
    } else {
        recv(src = rank - 1, tag = 1);
    }
}
"""


def _raised(program, psg, nprocs):
    engine = Engine(program, psg, SimulationConfig(nprocs=nprocs))
    with pytest.raises(Exception) as info:
        engine.run()
    return engine, info.value


class TestErrorParity:
    """Lockstep refuses every program that would raise or deadlock, so
    errors and deadlocks come from the time-ordered loop, fully batched
    or not."""

    NPROCS = 4

    @pytest.mark.parametrize("source, name, reason", [
        (UNKNOWN_REQUESTS, "unknown", "unknown.mm:3: wait on unknown request 'r'"),
        (ROOT_MISMATCH, "mismatch", "mismatch.mm:3: root varies by rank"),
    ])
    def test_error_is_the_time_ordered_one(self, source, name, reason):
        program, psg = _compiled(source, name)
        with per_rank_oracle():
            _, oracle = _raised(program, psg, self.NPROCS)
        engine, exc = _raised(program, psg, self.NPROCS)
        assert engine.class_batch_stats["ranks_batched"] == self.NPROCS
        assert engine.lockstep_reason == reason
        assert type(exc) is type(oracle)
        assert str(exc) == str(oracle)

    @pytest.mark.parametrize("source, name, reason", [
        (RECV_CYCLE, "cycle",
         "cycle.mm:3: receive completes before its paired send at cycle.mm:4"),
        (COLLECTIVE_DEADLOCK, "colldead",
         "colldead.mm:6: sends and receives do not pair up channel by channel"),
    ])
    def test_deadlock_report_is_interleaving_free(self, source, name, reason):
        program, psg = _compiled(source, name)
        with per_rank_oracle():
            _, oracle = _raised(program, psg, self.NPROCS)
        engine, exc = _raised(program, psg, self.NPROCS)
        assert engine.class_batch_stats["ranks_batched"] == self.NPROCS
        assert engine.lockstep_reason == reason
        assert type(exc) is type(oracle)
        assert str(exc) == str(oracle)
        assert exc.blocked == oracle.blocked
