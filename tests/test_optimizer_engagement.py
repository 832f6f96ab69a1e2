"""Optimizers engage where they should, and say why when they do not.

- The class-batch cost memo queries ``CostModel.compute_cost`` once per
  distinct workload *value*, not once per fanned-out instance.
- Its keys tell ``-0.0`` from ``0.0`` (``Workload.__eq__`` does not), so
  signed zeros fan out exactly as the per-rank oracle computes them.
- An optimizer analysis that raises steps aside with a recorded reason,
  and the run stays bit-identical to the per-rank oracle.
- NPB-CG batches as one rank class: its hypercube partner reads the
  loop-carried stride through a frame leaf bound per execution.
"""

from __future__ import annotations

import math

import pytest

import repro.simulator.classbatch as classbatch
from repro.api import AnalysisConfig, Pipeline, canonical_report_sha
from repro.apps import get_app
from repro.simulator import SimulationConfig, ops
from repro.simulator.costmodel import CostModel, MachineModel
from repro.simulator.engine import DelayInjection, Engine
from tests.conftest import (
    _compiled,
    _fingerprint,
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
#: folds into the ``-0.0`` workload on every rank alike.
SIGNED_ZEROS = """\
def main() {
    for (var it = 0; it < 3; it = it + 1) {
        compute(flops = (rank - 1) * 0.0, bytes = (rank - 1) * 0.0);
        compute(flops = 1000 * (rank + 1), bytes = (it - 0.5) * (it % 2));
        compute(flops = 2000 * (rank + 1), bytes = (it - 0.5) * 0.0);
        sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 64,
                 src = (rank - 1 + nprocs) % nprocs);
    }
    allreduce(bytes = 8);
}
"""


class _Spy:
    """Counts ``compute_cost`` calls and keeps each batch build result."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.results = []
        compute_cost = CostModel.compute_cost
        build = classbatch.build_batched_streams

        def counting(model, rank, workload):
            self.calls += 1
            return compute_cost(model, rank, workload)

        def capturing(**kwargs):
            result = build(**kwargs)
            self.results.append(result)
            return result

        monkeypatch.setattr(CostModel, "compute_cost", counting)
        monkeypatch.setattr(classbatch, "build_batched_streams", capturing)


def test_sst_precosts_each_distinct_workload_once(monkeypatch):
    spec = get_app("sst")
    engine = Engine(spec.program, spec.psg, SimulationConfig(
        nprocs=32, params=spec.merged_params(),
        machine=spec.machine or MachineModel(),
    ))
    spy = _Spy(monkeypatch)
    engine.start()
    (result,) = spy.results
    assert result.ranks_batched == 32
    computes = [
        op for stream in result.streams.values() for op in stream
        if isinstance(op, ops.ComputeOp)
    ]
    precosted = [op for op in computes if type(op) is ops.PrecostedComputeOp]
    distinct = {op.workload.bits() for op in computes}
    assert spy.calls == len(distinct)
    # the memo is what keeps it there: far fewer queries than instances
    assert spy.calls * 100 < len(precosted)


class TestSignedZeros:
    NPROCS = 6

    def _batched_share(self, program, psg):
        engine = Engine(program, psg, SimulationConfig(nprocs=self.NPROCS))
        engine.run()
        return engine.class_batch_stats["ranks_batched"]

    def test_workloads_carry_signed_zeros(self, monkeypatch):
        program, psg = _compiled(SIGNED_ZEROS, "signed_zeros")
        spy = _Spy(monkeypatch)
        Engine(program, psg, SimulationConfig(nprocs=self.NPROCS)).start()
        (result,) = spy.results
        assert result.ranks_batched == self.NPROCS
        workloads = [
            op.workload for stream in result.streams.values() for op in stream
            if isinstance(op, ops.ComputeOp)
        ]
        bits = {w.bits() for w in workloads}
        zero_signs = {
            math.copysign(1.0, getattr(w, f)) for w in workloads
            for f in ("flops", "mem_bytes") if getattr(w, f) == 0.0
        }
        assert zero_signs == {-1.0, 1.0}
        assert spy.calls == len(bits)

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
