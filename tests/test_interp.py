"""Interpreter tests: expression evaluation, control flow, error paths, memos."""

import math

import pytest

from repro.minilang.parser import parse_program
from repro.psg import build_psg
from repro.simulator import SimulationConfig, ops, simulate
from repro.simulator.errors import (
    IterationLimitError,
    MpiUsageError,
    SimulationError,
)
from repro.simulator.interp import Interpreter


def run_ops(source, rank=0, nprocs=2, params=None, max_iterations=10_000):
    prog = parse_program(source)
    psg = build_psg(prog).psg
    interp = Interpreter(
        prog, psg, rank, nprocs, params, max_iterations=max_iterations
    )
    return list(interp.run())


def first_compute(source, **kw) -> ops.ComputeOp:
    result = [o for o in run_ops(source, **kw) if isinstance(o, ops.ComputeOp)]
    return result[0]


class TestExpressionEvaluation:
    def _flops(self, expr, rank=3, nprocs=8, params=None):
        op = first_compute(
            f"def main() {{ compute(flops = {expr}); }}",
            rank=rank, nprocs=nprocs, params=params,
        )
        return op.workload.flops

    def test_arithmetic(self):
        assert self._flops("2 + 3 * 4") == 14
        assert self._flops("(2 + 3) * 4") == 20
        assert self._flops("10 - 3") == 7

    def test_int_division_truncates(self):
        assert self._flops("7 / 2") == 3
        assert self._flops("7.0 / 2") == 3.5

    def test_modulo(self):
        assert self._flops("7 % 3") == 1

    def test_rank_and_nprocs(self):
        assert self._flops("rank * 10 + nprocs", rank=3, nprocs=8) == 38

    def test_params(self):
        assert self._flops("n * 2", params={"n": 21}) == 42

    def test_builtins(self):
        assert self._flops("min(3, 5) + max(3, 5)") == 8
        assert self._flops("log2(8)") == 3
        assert self._flops("sqrt(16)") == 4
        assert self._flops("pow(2, 5)") == 32
        assert self._flops("floor(2.7) + ceil(2.1)") == 5
        assert self._flops("abs(0 - 4)") == 4

    def test_hashrand_deterministic_and_bounded(self):
        a = self._flops("1000000 * hashrand(rank, 7)", rank=3)
        b = self._flops("1000000 * hashrand(rank, 7)", rank=3)
        c = self._flops("1000000 * hashrand(rank, 7)", rank=4)
        assert a == b
        assert a != c
        assert 0 <= a < 1_000_000

    def test_division_by_zero(self):
        with pytest.raises(SimulationError, match="division by zero"):
            self._flops("1 / 0")

    def test_undefined_variable(self):
        with pytest.raises(SimulationError, match="undefined variable"):
            self._flops("nope")


class TestControlFlow:
    def test_for_loop_iterations(self):
        result = run_ops(
            "def main() { for (var i = 0; i < 5; i = i + 1) {"
            " compute(flops = i); } }"
        )
        flops = [o.workload.flops for o in result]
        assert flops == [0, 1, 2, 3, 4]

    def test_while_loop(self):
        result = run_ops(
            "def main() { var x = 8; while (x > 1) { compute(flops = x);"
            " x = x / 2; } }"
        )
        assert [o.workload.flops for o in result] == [8, 4, 2]

    def test_if_branch_taken_by_rank(self):
        src = (
            "def main() { if (rank == 0) { compute(flops = 1); }"
            " else { compute(flops = 2); } }"
        )
        assert first_compute(src, rank=0).workload.flops == 1
        assert first_compute(src, rank=1).workload.flops == 2

    def test_short_circuit_and(self):
        # (x != 0 && 1/x > 0) must not divide by zero when x == 0
        result = run_ops(
            "def main() { var x = 0; if (x != 0 && 1 / x > 0) {"
            " compute(flops = 1); } barrier(); }"
        )
        assert not any(isinstance(o, ops.ComputeOp) for o in result)

    def test_return_stops_function(self):
        result = run_ops(
            "def main() { compute(flops = 1); return; compute(flops = 2); }"
        )
        assert len([o for o in result if isinstance(o, ops.ComputeOp)]) == 1

    def test_function_call_and_args(self):
        result = run_ops(
            "def main() { work(5); work(7); }"
            "def work(n) { compute(flops = n); }"
        )
        assert [o.workload.flops for o in result] == [5, 7]

    def test_recursion(self):
        result = run_ops(
            "def main() { f(4); }"
            "def f(n) { if (n > 0) { compute(flops = n); f(n - 1); } }"
        )
        assert [o.workload.flops for o in result] == [4, 3, 2, 1]

    def test_indirect_call_note_emitted(self):
        result = run_ops(
            "def main() { var f = &h; f(); }"
            "def h() { compute(flops = 9); }"
        )
        notes = [o for o in result if isinstance(o, ops.IndirectCallNote)]
        assert len(notes) == 1
        assert notes[0].target == "h"
        assert any(
            isinstance(o, ops.ComputeOp) and o.workload.flops == 9 for o in result
        )

    def test_iteration_limit(self):
        with pytest.raises(IterationLimitError):
            run_ops(
                "def main() { while (true) { compute(flops = 1); } }",
                max_iterations=100,
            )

    def test_assignment_to_undeclared_rejected(self):
        with pytest.raises(SimulationError, match="undeclared"):
            run_ops("def main() { x = 1; }")

    def test_call_to_undefined_function(self):
        with pytest.raises(SimulationError, match="not a function|undefined"):
            run_ops("def main() { ghost(); }")

    def test_wrong_arity(self):
        with pytest.raises(SimulationError, match="takes 1 arguments"):
            run_ops("def main() { f(); } def f(a) { }")


class TestMpiOpEmission:
    def test_send_fields(self):
        (op,) = [
            o for o in run_ops(
                "def main() { if (rank == 0) { send(dest = 1, tag = 3, bytes = 100); } }"
            )
            if isinstance(o, ops.SendOp)
        ]
        assert (op.dest, op.tag, op.nbytes) == (1, 3, 100)
        assert op.blocking

    def test_sendrecv_emits_send_then_recv(self):
        result = run_ops(
            "def main() { sendrecv(dest = 1, tag = 1, bytes = 8, src = 1); }"
        )
        assert isinstance(result[0], ops.SendOp)
        assert isinstance(result[1], ops.RecvOp)
        assert result[0].vid == result[1].vid
        assert not result[0].blocking

    def test_any_wildcards(self):
        (op,) = [
            o for o in run_ops("def main() { recv(src = ANY, tag = ANY); }", nprocs=2)
            if isinstance(o, ops.RecvOp)
        ]
        assert op.src is ops.ANY and op.tag is ops.ANY

    def test_dest_out_of_range(self):
        with pytest.raises(MpiUsageError, match="out of range"):
            run_ops("def main() { send(dest = 5, tag = 1, bytes = 8); }", nprocs=2)

    def test_negative_tag_rejected(self):
        with pytest.raises(MpiUsageError, match="non-negative"):
            run_ops("def main() { send(dest = 1, tag = 0 - 1, bytes = 8); }")

    def test_any_as_send_tag_rejected(self):
        with pytest.raises(MpiUsageError, match="not a valid send tag"):
            run_ops("def main() { send(dest = 1, tag = ANY, bytes = 8); }")

    def test_float_dest_rejected(self):
        with pytest.raises(MpiUsageError, match="integer rank"):
            run_ops("def main() { send(dest = 1.5, tag = 1, bytes = 8); }")

    def test_negative_bytes_rejected(self):
        with pytest.raises(MpiUsageError, match="non-negative"):
            run_ops("def main() { send(dest = 1, tag = 1, bytes = 0 - 8); }")

    def test_collective_root_default_zero(self):
        (op,) = [
            o for o in run_ops("def main() { allreduce(bytes = 8); }")
            if isinstance(o, ops.CollectiveOp)
        ]
        assert op.root == 0

    def test_entry_with_params_rejected(self):
        prog = parse_program("def main(x) { }")
        psg = build_psg(prog).psg
        with pytest.raises(SimulationError, match="no arguments"):
            list(Interpreter(prog, psg, 0, 1).run())

    def test_rank_out_of_range_rejected(self):
        prog = parse_program("def main() { }")
        psg = build_psg(prog).psg
        with pytest.raises(ValueError):
            Interpreter(prog, psg, 5, 2)


SIGNED_ZERO_TEMPLATE = """\
def main() {{
    for (var i = 0; i < 2; i = i + 1) {{
        var b = {second};
        if (i == 0) {{
            b = {first};
        }}
        compute(flops = 100, bytes = b);
    }}
}}
"""

#: One compute statement executed with ``-0.0`` bytes, then with ``0.0``.
SIGNED_ZERO_BYTES = SIGNED_ZERO_TEMPLATE.format(first="-0.0", second="0.0")
#: The same statement executed with ``0.0`` bytes, then with ``-0.0``.
ZERO_THEN_NEGATIVE_ZERO_BYTES = SIGNED_ZERO_TEMPLATE.format(
    first="0.0", second="-0.0"
)


class TestWorkloadMemo:
    """The per-statement Workload memo keys on IEEE bit patterns: ``0.0``
    and ``-0.0`` compare equal but cost differently."""

    def test_zero_after_negative_zero_gets_its_own_workload(self):
        first, second = [
            o for o in run_ops(SIGNED_ZERO_BYTES, nprocs=1)
            if isinstance(o, ops.ComputeOp)
        ]
        assert math.copysign(1.0, first.workload.mem_bytes) == -1.0
        assert math.copysign(1.0, second.workload.mem_bytes) == 1.0

    def test_negative_zero_after_zero_gets_its_own_workload(self):
        first, second = [
            o for o in run_ops(ZERO_THEN_NEGATIVE_ZERO_BYTES, nprocs=1)
            if isinstance(o, ops.ComputeOp)
        ]
        assert math.copysign(1.0, first.workload.mem_bytes) == 1.0
        assert math.copysign(1.0, second.workload.mem_bytes) == -1.0

    @pytest.mark.parametrize(
        ("source", "last_bytes"),
        [(SIGNED_ZERO_BYTES, "0.0"), (ZERO_THEN_NEGATIVE_ZERO_BYTES, "-0.0")],
        ids=["neg_then_pos", "pos_then_neg"],
    )
    def test_counters_match_a_fresh_interpreter(self, source, last_bytes):
        def counters(source):
            prog = parse_program(source)
            psg = build_psg(prog).psg
            result = simulate(prog, psg, SimulationConfig(nprocs=1))
            return result.trace.counter_columns()

        history = counters(source)
        fresh = counters(
            "def main() {\n"
            f"    compute(flops = 100, bytes = {last_bytes});\n"
            "}\n"
        )
        for name in ("tot_ins", "tot_cyc", "tot_lst_ins", "l2_dcm"):
            # bytes, not ==: -0.0 == 0.0 would hide the bug
            assert history[name][-1:].tobytes() == fresh[name].tobytes(), name


#: A rank-static send and a frame-reading compute in one loop.
OP_MEMO_LOOP = """\
def main() {
    for (var i = 0; i < 3; i = i + 1) {
        send(dest = (rank + 1) % nprocs, tag = 1, bytes = 64);
        compute(flops = 1000 * i);
        recv(src = (rank - 1 + nprocs) % nprocs, tag = 1);
    }
}
"""

#: A collective whose byte count reads ``nprocs``, executed twice.
NPROCS_BYTES = """\
def main() {
    for (var i = 0; i < 2; i = i + 1) {
        allreduce(bytes = 8 * nprocs);
    }
}
"""


class TestOpMemo:
    """The interpreter's one op memo: a statement whose captured
    arguments are all rank-static yields one op instance per
    (interpreter, inline path); every other statement builds a fresh op
    per execution.  Class batching classifies each distinct instance
    once, so reuse is observable and pinned here."""

    def test_rank_static_send_is_one_instance_per_loop(self):
        sends = [o for o in run_ops(OP_MEMO_LOOP, nprocs=4)
                 if isinstance(o, ops.SendOp)]
        assert len(sends) == 3
        assert sends[0] is sends[1] is sends[2]
        assert sends[0].dest == 1

    def test_frame_reading_compute_is_fresh_per_execution(self):
        computes = [o for o in run_ops(OP_MEMO_LOOP, nprocs=4)
                    if isinstance(o, ops.ComputeOp)]
        assert [c.workload.flops for c in computes] == [0, 1000, 2000]
        assert len({id(c) for c in computes}) == 3

    def test_shared_cache_never_shares_ops_across_interpreters(self):
        prog = parse_program(NPROCS_BYTES)
        psg = build_psg(prog).psg
        cache: dict = {}
        runs = {}
        for rank, nprocs in ((0, 4), (1, 4), (0, 8), (1, 8)):
            runs[rank, nprocs] = list(
                Interpreter(prog, psg, rank, nprocs, expr_cache=cache).run()
            )
        seen: dict[int, tuple] = {}
        for key, stream in runs.items():
            assert stream[0] is stream[1]  # memoized within one rank
            for op in stream:
                assert seen.setdefault(id(op), key) == key
            assert [op.nbytes for op in stream] == [8 * key[1]] * 2
            assert stream == list(Interpreter(prog, psg, *key).run())
