"""The class representative's recorder yields one op per distinct
(statement, inline path, bits of the frame locals the statement reads),
so the template builder classifies each distinct op once; and the
rank-varying size cap is charged per column set, not per op instance.

- Bit-equal executions of one statement at one inline path return the
  same op; an execution with other bits returns a new one (``1`` and
  ``1.0`` included, though their ops are equal).
- ``_classify_op`` runs once per distinct key's op (a sendrecv key has
  two): pinned for the engine's cg and mg at P=16 and the lint's cg at
  P=128.
- A key also holds the locals the statement's template reads through
  ``("frame", name)`` leaves, which an intermediate local can hide from
  the statement's own arguments.
- A representative that raises still falls back with its error.
"""

from __future__ import annotations

import pytest

import repro.simulator.classbatch as classbatch
from repro.analysis import run_lint
from repro.apps import get_app
from repro.simulator import SimulationConfig, ops
from repro.simulator.costmodel import MachineModel
from repro.simulator.engine import Engine
from repro.simulator.errors import MpiUsageError
from tests.conftest import _compiled, _fingerprint, per_rank_oracle
from tests.test_lockstep import assert_matches_oracle


class _Recorders:
    """Counts ``_classify_op`` calls and keeps every recorder built."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.recorders = []
        classify = classbatch._classify_op
        outer = self

        def counting(*args):
            self.calls += 1
            return classify(*args)

        class Kept(classbatch._FrameRecorder):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                outer.recorders.append(self)

        monkeypatch.setattr(classbatch, "_classify_op", counting)
        monkeypatch.setattr(classbatch, "_FrameRecorder", Kept)

    def distinct_ops(self) -> int:
        """The ops of every recorder's distinct (statement, inline path,
        frame bits) keys: its own memo's, plus the per-rank memo's for
        statements whose arguments are rank-static (no frame bits).  A
        sendrecv's key holds two ops."""
        memos = [rec.recorded_ops for rec in self.recorders] + [
            paths for rec in self.recorders
            for paths in rec._op_cache.values()
        ]
        return sum(
            2 if type(out) is tuple else 1
            for memo in memos for out in memo.values()
        )


def _computes(source: str, name: str, nprocs: int = 4) -> list:
    """The compute ops of rank 0's recorded stream."""
    program, psg = _compiled(source, name)
    stream, _ = classbatch._materialize(
        program, psg, 0, nprocs, {}, "main", 10_000, {}, {},
    )
    return [op for op in stream if type(op) is ops.ComputeOp]


def test_equal_bits_share_an_op():
    source = (
        "def main() {\n"
        "    var n = 1000;\n"
        "    for (var i = 0; i < 4; i = i + 1) {\n"
        "        if (i == 2) {\n"
        "            n = 2000;\n"
        "        }\n"
        "        compute(flops = n);\n"
        "    }\n"
        "}\n"
    )
    a, b, c, d = _computes(source, "same_frame")
    assert a is b and c is d
    assert a is not c and a.workload.flops == 1000.0
    assert c.workload.flops == 2000.0


def test_int_and_float_get_their_own_ops():
    """``1000`` and ``1000.0`` give equal ops, which the memo keeps apart
    (it keys on type and bits, not ``==``)."""
    source = (
        "def main() {\n"
        "    var n = 1000;\n"
        "    for (var i = 0; i < 4; i = i + 1) {\n"
        "        if (i == 2) {\n"
        "            n = 1000.0;\n"
        "        }\n"
        "        compute(flops = n);\n"
        "    }\n"
        "}\n"
    )
    a, b, c, d = _computes(source, "int_float")
    assert a is b and c is d and a is not c
    assert a == c


def test_call_sites_get_their_own_ops():
    source = (
        "def work(n) {\n"
        "    compute(flops = n);\n"
        "}\n"
        "def main() {\n"
        "    for (var i = 0; i < 2; i = i + 1) {\n"
        "        work(1000);\n"
        "        work(1000);\n"
        "    }\n"
        "}\n"
    )
    a, b, c, d = _computes(source, "call_sites")
    assert a is c and b is d and a is not b
    assert a == b  # one PSG vertex: only the inline paths differ


def test_frame_key_tells_types_and_zeros_apart():
    keys = {
        classbatch._frame_key((v,))
        for v in (1, 1.0, True, 0.0, -0.0, classbatch._UNBOUND)
    }
    assert len(keys) == 6


#: _classify_op calls (one per distinct key's op) per batch
CLASSIFICATIONS = {
    ("engine", "cg", 16): 25,
    ("engine", "mg", 16): 91,
    ("lint", "cg", 128): 37,
}


@pytest.mark.parametrize("consumer, app, nprocs", sorted(CLASSIFICATIONS))
def test_one_classification_per_distinct_key(
    monkeypatch, consumer, app, nprocs,
):
    spy = _Recorders(monkeypatch)
    spec = get_app(app)
    if consumer == "engine":
        engine = Engine(spec.program, spec.psg, SimulationConfig(
            nprocs=nprocs, params=spec.merged_params(),
            machine=spec.machine or MachineModel(),
        ))
        engine.start()
        assert engine.class_batch_stats["fallbacks"] == 0
    else:
        run_lint(spec.program, spec.psg, nprocs, spec.merged_params())
    assert spy.recorders
    assert spy.calls == spy.distinct_ops()
    assert spy.calls == CLASSIFICATIONS[consumer, app, nprocs]


#: ``w`` reads the stride ``s`` through a frame leaf, but the compute
#: reads only ``w``: the representative (rank 0) has ``w == 0`` at every
#: stride, the other members do not.
HIDDEN_STRIDE = """\
def main() {
    var s = 1;
    while (s < nprocs) {
        var w = rank * s;
        compute(flops = 1000 * w + 1000);
        s = s * 2;
    }
    allreduce(bytes = 8);
}
"""


def test_key_holds_the_template_frame_locals(monkeypatch):
    program, psg = _compiled(HIDDEN_STRIDE, "hidden_stride")
    spy = _Recorders(monkeypatch)
    engine = Engine(program, psg, SimulationConfig(nprocs=8))
    engine.start()
    assert engine.class_batch_stats["ranks_batched"] == 8
    (rec,) = spy.recorders
    computes = {
        id(op) for op in rec.recorded_ops.values()
        if type(op) is ops.ComputeOp
    }
    assert len(computes) == 3  # s = 1, 2, 4
    assert {rec.frame_values[i] for i in computes} == {(1,), (2,), (4,)}


def test_hidden_stride_matches_per_rank_oracle():
    program, psg = _compiled(HIDDEN_STRIDE, "hidden_stride")
    with per_rank_oracle():
        oracle = _fingerprint(program, psg, 8)
    assert _fingerprint(program, psg, 8) == oracle


def test_raising_representative_falls_back_with_its_error():
    """Two memo hits, then a build that raises: the class falls back
    and the error surfaces from the per-rank path, as in the oracle."""
    source = (
        "def main() {\n"
        "    for (var i = 0; i < 6; i = i + 1) {\n"
        "        compute(flops = 1000 * (1 - i / 2) + rank);\n"
        "        barrier();\n"
        "    }\n"
        "}\n"
    )
    program, psg = _compiled(source, "raising")
    engine = Engine(program, psg, SimulationConfig(nprocs=4))
    engine.start()
    assert engine.class_batch_reasons == (
        "representative rank 0 raised: raising.mm:3: negative workload",
    )
    with pytest.raises(MpiUsageError, match="raising.mm:3: negative workload"):
        engine.drain()
    with per_rank_oracle(), pytest.raises(
        MpiUsageError, match="raising.mm:3: negative workload",
    ):
        Engine(program, psg, SimulationConfig(nprocs=4)).run()


# -- the rank-varying size cap ----------------------------------------------


def _ring(iters: int, nbytes: str) -> str:
    return (
        "def main() {\n"
        f"    for (var it = 0; it < {iters}; it = it + 1) {{\n"
        "        compute(flops = 1000 * (it + 1), bytes = 64);\n"
        "        sendrecv(dest = (rank + 1) % nprocs, tag = 1, "
        f"bytes = {nbytes},\n"
        "                 src = (rank - 1 + nprocs) % nprocs);\n"
        "    }\n"
        "}\n"
    )


class TestSizeCap:
    """400 rank-varying halves at P=16 are 6,400 member ops by instance
    but 16 times the number of distinct column sets by what fan-out
    builds: the cap reads the latter."""

    NPROCS = 16
    CAP = 2_000

    def test_few_column_sets_batch(self, monkeypatch):
        monkeypatch.setattr(classbatch, "_MAX_VARYING_INSTANCES", self.CAP)
        program, psg = _compiled(_ring(200, "8 * (it % 7 + 1)"), "capped")
        engine = Engine(program, psg, SimulationConfig(nprocs=self.NPROCS))
        engine.start()
        assert engine.class_batch_stats["ranks_batched"] == self.NPROCS
        assert engine.class_batch_reasons == ()
        assert_matches_oracle(
            program, psg, SimulationConfig(nprocs=self.NPROCS),
        )

    def test_many_column_sets_refuse(self, monkeypatch):
        monkeypatch.setattr(classbatch, "_MAX_VARYING_INSTANCES", self.CAP)
        program, psg = _compiled(_ring(200, "8 * (it + 1)"), "uncapped")
        engine = Engine(program, psg, SimulationConfig(nprocs=self.NPROCS))
        engine.start()
        assert engine.class_batch_stats["ranks_batched"] == 0
        assert engine.class_batch_reasons == (
            "rank-varying instances exceed size cap",
        )
