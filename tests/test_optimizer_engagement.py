"""Optimizers engage where they should, and say why when they do not.

- Class templates carry no costs; each drain costs what it runs.  A
  lockstep run queries ``CostModel.compute_cost_columns`` once per
  distinct workload bits among a class's unpatched computes (and once
  per rank-varying compute) and builds no precosted op.  A run that gets
  no plan precosts its templates in one pass, which queries
  ``CostModel.compute_cost`` once per distinct workload *value*, not
  once per fanned-out instance.
- Both memos' keys tell ``-0.0`` from ``0.0`` (``Workload.__eq__`` does
  not), so signed zeros are costed exactly as the per-rank oracle costs
  them.
- An optimizer analysis that raises steps aside with a recorded reason,
  and the run stays bit-identical to the per-rank oracle.
- NPB-CG batches as one rank class: its hypercube partner reads the
  loop-carried stride through a frame leaf bound per execution.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.simulator.classbatch as classbatch
from repro.api import AnalysisConfig, Pipeline, canonical_report_sha
from repro.apps import get_app
from repro.simulator import SimulationConfig, lockstep, ops
from repro.simulator.classbatch import BatchedStreams
from repro.simulator.costmodel import CostModel, MachineModel
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

#: One class of ranks whose compute workloads hold signed zeros: the
#: first statement gives rank 0 ``-0.0`` and every other rank ``0.0``;
#: the second gives the representative ``-0.0``, ``0.5`` and then
#: ``0.0`` bytes on successive iterations next to a rank-varying flop
#: count, so one statement fans out with bit-distinct but ``==`` values;
#: the third turns ``-0.0`` bytes into ``0.0`` on the next iteration,
#: which the interpreter's per-statement workload memo (``==``-keyed)
#: folds into the ``-0.0`` workload on every rank alike; the last two
#: are rank-invariant, ``==`` to each other and bit-distinct.
SIGNED_ZEROS = """\
def main() {
    for (var it = 0; it < 3; it = it + 1) {
        compute(flops = (rank - 1) * 0.0, bytes = (rank - 1) * 0.0);
        compute(flops = 1000 * (rank + 1), bytes = (it - 0.5) * (it % 2));
        compute(flops = 2000 * (rank + 1), bytes = (it - 0.5) * 0.0);
        compute(flops = 300, bytes = -0.0);
        compute(flops = 300, bytes = 0.0);
        sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 64,
                 src = (rank - 1 + nprocs) % nprocs);
    }
    allreduce(bytes = 8);
}
"""

#: A ``±0.0`` local read by a rank-varying compute: ``-0.0`` bytes on the
#: first iteration, ``0.0`` on the next two (``==``, bit-distinct).
SIGNED_ZERO_LOCAL = """\
def main() {
    var z = -0.0;
    for (var it = 0; it < 3; it = it + 1) {
        compute(flops = 1000 * (rank + 1), bytes = z);
        z = 0.0;
    }
    barrier();
}
"""


class _Spy:
    """Counts ``compute_cost`` and ``compute_cost_columns`` calls, and
    keeps each template build's and precost pass's result."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.column_calls = 0
        self.results = []
        self.precosted = []
        compute_cost = CostModel.compute_cost
        compute_cost_columns = CostModel.compute_cost_columns
        build = classbatch.build_batched_streams
        precost = classbatch.precost_classes

        def counting(model, rank, workload):
            self.calls += 1
            return compute_cost(model, rank, workload)

        def counting_columns(model, *args):
            self.column_calls += 1
            return compute_cost_columns(model, *args)

        def capturing(**kwargs):
            result = build(**kwargs)
            self.results.append(result)
            return result

        def capturing_precost(*args, **kwargs):
            classes = precost(*args, **kwargs)
            self.precosted.append(classes)
            return classes

        monkeypatch.setattr(CostModel, "compute_cost", counting)
        monkeypatch.setattr(
            CostModel, "compute_cost_columns", counting_columns
        )
        monkeypatch.setattr(classbatch, "build_batched_streams", capturing)
        monkeypatch.setattr(classbatch, "precost_classes", capturing_precost)


def _no_plan(monkeypatch) -> None:
    """Let lockstep refuse every run: start then precosts its templates
    for the time-ordered loop."""
    def refuse(*_args, **_kwargs):
        raise lockstep.Refusal("no plan")

    monkeypatch.setattr(lockstep, "compile_plan", refuse)


def _unpatched_computes(classes) -> list:
    """Per class, the compute ops at its unpatched positions."""
    out = []
    for _members, base, patches in classes:
        patched = {pos for pos, _ in patches}
        out.append([
            op for pos, op in enumerate(base)
            if pos not in patched and type(op) is ops.ComputeOp
        ])
    return out


def _lockstep_queries(classes) -> int:
    """The ``compute_cost_columns`` calls a lockstep compile makes: per
    class, one per distinct workload bits among its unpatched computes
    and one per rank-varying compute (a column set)."""
    distinct = sum(
        len({op.workload.bits() for op in computes})
        for computes in _unpatched_computes(classes)
    )
    return distinct + sum(
        len({
            id(column_set) for _, column_set in patches
            if column_set.make is ops.ComputeOp
        })
        for _members, _base, patches in classes
    )


def _computes(classes) -> list:
    """Every compute op the batched ranks run."""
    return [
        op for stream in BatchedStreams(classes).values() for op in stream
        if isinstance(op, ops.ComputeOp)
    ]


def _sst_engine() -> Engine:
    spec = get_app("sst")
    return Engine(spec.program, spec.psg, SimulationConfig(
        nprocs=32, params=spec.merged_params(),
        machine=spec.machine or MachineModel(),
    ))


def test_sst_lockstep_costs_each_distinct_workload_once(monkeypatch):
    engine = _sst_engine()
    spy = _Spy(monkeypatch)
    engine.start()
    assert engine.lockstep_reason is None
    (result,) = spy.results
    assert result.ranks_batched == 32
    assert spy.precosted == [] and spy.calls == 0
    assert spy.column_calls == _lockstep_queries(result.classes)
    # the memos are what keep it there: far fewer queries than positions
    positions = sum(
        type(op) is ops.ComputeOp for _members, base, _ in result.classes
        for op in base
    )
    assert spy.column_calls * 100 < positions


def test_sst_precosts_each_distinct_workload_once(monkeypatch):
    engine = _sst_engine()
    spy = _Spy(monkeypatch)
    _no_plan(monkeypatch)
    engine.start()
    assert engine.lockstep_reason == "no plan"
    (classes,) = spy.precosted
    computes = _computes(classes)
    precosted = [op for op in computes if type(op) is ops.PrecostedComputeOp]
    distinct = {op.workload.bits() for op in computes}
    assert len(precosted) == len(computes)
    assert spy.calls == len(distinct)
    assert spy.column_calls == 0
    # the memo is what keeps it there: far fewer queries than instances
    assert spy.calls * 100 < len(precosted)


def _app_engine(name: str, nprocs: int, **machine) -> Engine:
    spec = get_app(name)
    return Engine(spec.program, spec.psg, SimulationConfig(
        nprocs=nprocs, params=spec.merged_params(),
        machine=MachineModel(**machine) if machine
        else spec.machine or MachineModel(),
    ))


def _precosted_ops_built(monkeypatch) -> list:
    """The type of every precosted op built from now on, in order."""
    built = []
    for op_type in (ops.PrecostedComputeOp, ops.PrecostedSendOp):
        def counting(self, *args, _init=op_type.__init__, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(op_type, "__init__", counting)
    return built


def test_lockstep_run_builds_no_precosted_op(monkeypatch):
    built = _precosted_ops_built(monkeypatch)
    engine = _app_engine("zeusmp", 16)
    engine.run()
    assert engine.lockstep_reason is None
    assert engine.class_batch_stats["ranks_batched"] == 16
    assert built == []


def _assert_same_bits(result, oracle) -> None:
    """Two engine runs agree bit for bit: per-rank trace rows, per-vertex
    aggregates and finish times."""
    assert per_rank_trace_bytes(result.trace) == per_rank_trace_bytes(
        oracle.trace
    )
    assert aggregate_bits(result) == aggregate_bits(oracle)


@pytest.mark.parametrize("machine, compute_type", [
    ({}, ops.PrecostedComputeOp),
    # a per-rank speed spread makes the compute cost rank-dependent
    ({"mem_speed_sigma": 0.3}, ops.ComputeOp),
])
def test_lu_fans_out_precosted_twins(monkeypatch, machine, compute_type):
    """lu refuses lockstep (two singleton ranks), so its batched classes
    run the time-ordered loop on precosted twins."""
    spy = _Spy(monkeypatch)
    engine = _app_engine("lu", 16, **machine)
    result = engine.run()
    assert engine.lockstep_reason == "14 of 16 ranks class-batched"
    assert engine.class_batch_reasons == ()
    with per_rank_oracle():
        oracle = _app_engine("lu", 16, **machine).run()
    _assert_same_bits(result, oracle)
    (classes,) = spy.precosted
    streams = [
        op for stream in BatchedStreams(classes).values() for op in stream
    ]
    sends = {type(op) for op in streams if isinstance(op, ops.SendOp)}
    computes = {type(op) for op in streams if isinstance(op, ops.ComputeOp)}
    assert sends == {ops.PrecostedSendOp}
    assert computes == {compute_type}
    # a twin's baked fields are plain Python scalars, like the op's
    for op in streams:
        for name in type(op).__dataclass_fields__:
            assert not isinstance(getattr(op, name), np.generic), (op, name)


def _zero_signs(workloads) -> set:
    """The signs of the zero flop and byte counts among ``workloads``."""
    return {
        math.copysign(1.0, getattr(w, f)) for w in workloads
        for f in ("flops", "mem_bytes") if getattr(w, f) == 0.0
    }


class TestSignedZeros:
    NPROCS = 6

    def _batched_share(self, program, psg):
        engine = Engine(program, psg, SimulationConfig(nprocs=self.NPROCS))
        engine.run()
        return engine.class_batch_stats["ranks_batched"]

    def test_workloads_carry_signed_zeros(self, monkeypatch):
        """Lockstep's memo over a class's unpatched computes and the
        precost pass's memo both key on bits."""
        program, psg = _compiled(SIGNED_ZEROS, "signed_zeros")
        spy = _Spy(monkeypatch)
        engine = Engine(program, psg, SimulationConfig(nprocs=self.NPROCS))
        engine.start()
        assert engine.lockstep_reason is None
        (result,) = spy.results
        assert result.ranks_batched == self.NPROCS
        (unpatched,) = _unpatched_computes(result.classes)
        assert _zero_signs(op.workload for op in unpatched) == {-1.0, 1.0}
        assert spy.column_calls == _lockstep_queries(result.classes)

        _no_plan(monkeypatch)
        Engine(program, psg, SimulationConfig(nprocs=self.NPROCS)).start()
        (classes,) = spy.precosted
        workloads = [op.workload for op in _computes(classes)]
        assert _zero_signs(workloads) == {-1.0, 1.0}
        assert spy.calls == len({w.bits() for w in workloads})

    def test_signed_zero_local_gives_two_ops(self, monkeypatch):
        """The recorder memoizes ops by the bits of the locals they read:
        ``-0.0`` and ``0.0`` give two ops, two classifications and two
        column sets."""
        program, psg = _compiled(SIGNED_ZERO_LOCAL, "signed_zero_local")
        spy = _Spy(monkeypatch)
        classify = classbatch._classify_op
        classified = []

        def counting(op, *args):
            classified.append(op)
            return classify(op, *args)

        monkeypatch.setattr(classbatch, "_classify_op", counting)
        Engine(program, psg, SimulationConfig(nprocs=self.NPROCS)).start()
        (result,) = spy.results
        assert result.ranks_batched == self.NPROCS
        ((_members, base, patches),) = result.classes
        first, second, third = (
            op for op in base if type(op) is ops.ComputeOp
        )
        assert second is third and first is not second
        assert _zero_signs([first.workload, second.workload]) == {-1.0, 1.0}
        assert [op for op in classified if type(op) is ops.ComputeOp] == [
            first, second,
        ]
        assert len({id(column_set) for _, column_set in patches}) == 2

    def test_signed_zero_local_matches_per_rank_oracle(self):
        program, psg = _compiled(SIGNED_ZERO_LOCAL, "signed_zero_local")
        with per_rank_oracle():
            oracle = _fingerprint(program, psg, self.NPROCS)
        assert _fingerprint(program, psg, self.NPROCS) == oracle

    def test_fingerprint_matches_per_rank_oracle(self):
        program, psg = _compiled(SIGNED_ZEROS, "signed_zeros")
        assert self._batched_share(program, psg) == self.NPROCS
        with per_rank_oracle():
            oracle = _fingerprint(program, psg, self.NPROCS)
        assert _fingerprint(program, psg, self.NPROCS) == oracle

    def test_trace_columns_match_per_rank_oracle_bytewise(self):
        """Per-rank event and counter rows, and the communication tables
        in canonical order, byte for byte: the batched run drains to
        block, so only the global row interleaving may differ."""
        program, psg = _compiled(SIGNED_ZEROS, "signed_zeros")
        config = SimulationConfig(nprocs=self.NPROCS)
        with per_rank_oracle():
            oracle = Engine(program, psg, config).run().trace
        trace = Engine(program, psg, config).run().trace
        assert per_rank_trace_bytes(trace) == per_rank_trace_bytes(oracle)
        assert canonical_p2p_rows(trace.p2p) == canonical_p2p_rows(
            oracle.p2p
        )
        assert canonical_collective_rows(
            trace.collectives
        ) == canonical_collective_rows(oracle.collectives)

    def test_canonical_report_matches_per_rank_oracle(self):
        def sha():
            return canonical_report_sha(Pipeline(
                source=SIGNED_ZEROS, filename="signed_zeros.mm",
                config=AnalysisConfig(seed=0),
            ).run([4, 8]).report)

        with per_rank_oracle():
            oracle = sha()
        assert sha() == oracle


class TestCgBatches:
    @pytest.mark.parametrize("nprocs", [16, 32, 64, 128])
    def test_one_class_no_fallback(self, nprocs):
        spec = get_app("cg")
        engine = Engine(spec.program, spec.psg, SimulationConfig(
            nprocs=nprocs, params=spec.merged_params(),
            machine=spec.machine or MachineModel(),
        ))
        engine.start()
        assert engine.class_batch_stats["fallbacks"] == 0
        assert engine.class_batch_stats["ranks_batched"] == nprocs
        assert engine.class_batch_reasons == ()

    def test_delayed_cg_report_matches_per_rank_oracle(self):
        """The Fig. 2 set-up: a 40 s delay on rank 4's matvec."""
        spec = get_app("cg")
        line = next(
            v.location.line
            for v in spec.psg.vertices.values()
            if v.name == "matvec"
        )
        config = AnalysisConfig.for_app(
            spec, seed=1,
            injected_delays=[DelayInjection(4, "cg.mm", line, 40.0)],
        )

        def sha():
            return canonical_report_sha(
                Pipeline.for_app(spec, config).run([8, 16, 32]).report
            )

        with per_rank_oracle():
            oracle = sha()
        assert sha() == oracle


class TestStepAsideReasons:
    def _run(self, program, psg):
        engine = Engine(program, psg, SimulationConfig(nprocs=6))
        return engine, engine.run()

    @pytest.mark.step_aside
    def test_raising_batch_build_is_recorded(self, monkeypatch):
        program, psg = _compiled(SIGNED_ZEROS, "signed_zeros")
        with per_rank_oracle():
            oracle = _fingerprint(program, psg, 6)

        def boom(**_kwargs):
            raise RuntimeError("template exploded")

        monkeypatch.setattr(classbatch, "build_batched_streams", boom)
        engine, _ = self._run(program, psg)
        assert engine.class_batch_reasons == (
            "build_batched_streams raised RuntimeError: template exploded",
        )
        assert engine.class_batch_stats["ranks_batched"] == 0
        assert _fingerprint(program, psg, 6) == oracle

    @pytest.mark.step_aside
    @pytest.mark.parametrize("target, component", [
        ("repro.analysis.rankdep.analyze_program", "analyze_program"),
        ("repro.analysis.matchorder.devirt_sources", "devirt_sources"),
    ])
    def test_raising_analysis_is_recorded(self, monkeypatch, target, component):
        program, psg = _compiled(SIGNED_ZEROS, "signed_zeros")
        with per_rank_oracle():
            oracle = _fingerprint(program, psg, 6)

        def boom(*_args, **_kwargs):
            raise ValueError("proof budget")

        monkeypatch.setattr(target, boom)
        engine, _ = self._run(program, psg)
        assert f"{component} raised ValueError: proof budget" \
            in engine.class_batch_reasons
        assert _fingerprint(program, psg, 6) == oracle

    @pytest.mark.step_aside
    def test_raising_precost_pass_is_recorded(self, monkeypatch):
        engine = _app_engine("lu", 16)
        with per_rank_oracle():
            oracle = _app_engine("lu", 16).run()

        def boom(*_args, **_kwargs):
            raise RuntimeError("cost table exploded")

        monkeypatch.setattr(classbatch, "precost_classes", boom)
        built = _precosted_ops_built(monkeypatch)
        result = engine.run()
        assert engine.class_batch_reasons == (
            "precost_classes raised RuntimeError: cost table exploded",
        )
        # the batched ranks run their plain ops
        assert engine.class_batch_stats["ranks_batched"] == 14
        assert engine.lockstep_reason == "14 of 16 ranks class-batched"
        assert built == []
        _assert_same_bits(result, oracle)

    def test_degraded_partition_is_recorded(self, monkeypatch):
        from repro.analysis import symmetry

        program, psg = _compiled(SIGNED_ZEROS, "signed_zeros")
        with per_rank_oracle():
            oracle = _fingerprint(program, psg, 6)
        partition = symmetry.partition_ranks

        def degraded(program, nprocs, params=None, *, entry, analysis):
            summary = partition(
                program, nprocs, params, entry=entry, analysis=analysis
            )
            return symmetry._singletons(nprocs, "budget exhausted", analysis) \
                if summary.degraded is None else summary

        monkeypatch.setattr(symmetry, "partition_ranks", degraded)
        engine, _ = self._run(program, psg)
        assert engine.class_batch_reasons == (
            "partition_ranks degraded: budget exhausted",
        )
        assert _fingerprint(program, psg, 6) == oracle
