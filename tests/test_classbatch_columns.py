"""Columnar class templates: what the column evaluator, the fan-out and a
lockstep start build.

Class batching evaluates each rank-varying field as one numpy column over
a class's members, and builds member op objects only when a template is
fanned out into per-rank lists.  These tests pin:

- the column evaluator against the per-member Python evaluation it
  replaces (:func:`reference_values`): the same values, or the same
  refusal reason, at int64 overflow, ``% 0``, floored negative moduli,
  ``ANY`` constants, float byte counts and clamped localities;
- that every fanned-out op holds plain Python ``int``/``float`` fields;
- that a lockstep ``Engine.start`` builds O(positions) op objects, not
  O(P x positions), and never fans a template out, while the lint's
  fan-out shares member ops between positions with equal columns;
- that a finished engine is freed by reference counting alone.
"""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest

import repro.simulator.classbatch as classbatch
from repro.analysis import run_lint
from repro.analysis.batching import FieldRule
from repro.apps import APPS, get_app
from repro.simulator import SimulationConfig, ops
from repro.simulator.classbatch import (
    _check_workload,
    _Fallback,
    _member_values,
)
from repro.simulator.costmodel import CostModel, MachineModel, Workload
from repro.simulator.engine import Engine
from repro.simulator.errors import SimulationError
from repro.analysis.rankdep import eval_term
from tests.conftest import _compiled, fifo_drain

# ---------------------------------------------------------------------------
# the column evaluator


def reference_values(rule, members, nprocs, env=None) -> list:
    """The per-member Python evaluation and coercion the column evaluator
    must agree with (the interpreter's argument validators)."""
    affine = rule.affine
    if affine is not None:
        a, b, mod = affine
        raw = (
            [a * r + b for r in members]
            if mod is None
            else [(a * r + b) % mod for r in members]
        )
    else:
        try:
            raw = [eval_term(rule.term, r, nprocs, env) for r in members]
        except SimulationError as exc:
            raise _Fallback(f"term evaluation failed: {exc}") from exc
    out = []
    for v in raw:
        if rule.coerce == "rank":
            if isinstance(v, bool) or not isinstance(v, int) \
                    or not 0 <= v < nprocs:
                raise _Fallback(f"derived {rule.field}={v!r} is not a valid rank")
        elif rule.coerce == "tag":
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise _Fallback(f"derived {rule.field}={v!r} is not a valid tag")
        elif rule.coerce == "bytes":
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0:
                raise _Fallback(f"derived {rule.field}={v!r} is not a byte count")
            v = int(v)
        else:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise _Fallback(f"derived {rule.field}={v!r} is not a number")
            v = float(v)
        out.append(v)
    return out


def _outcome(fn):
    """``("values", [(type, value)...])`` or ``(exception type, message)``."""
    try:
        values = fn()
    except Exception as exc:  # the reason is what is compared
        return type(exc), str(exc)
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return "values", [
        (type(v), np.float64(v).tobytes() if type(v) is float else v)
        for v in values
    ]


def assert_agrees(rule, members, nprocs=8, env=None):
    """The column evaluator gives the reference's values (and types and
    bits) or raises its exception with the same message; returns it."""
    column = _outcome(lambda: _member_values(
        rule, np.asarray(members, dtype=np.int64), nprocs, env,
    ))
    assert column == _outcome(
        lambda: reference_values(rule, members, nprocs, env)
    )
    return column


MEMBERS = list(range(8))

#: a rank, a tag, a byte count and a compute field, one rule each
COERCIONS = [("dest", "rank"), ("tag", "tag"), ("nbytes", "bytes"),
             ("flops", "number")]


def _affine(field, coerce, a, b, mod=None):
    return FieldRule(field, coerce, ("rank",), (a, b, mod))


class TestAffineColumns:
    @pytest.mark.parametrize("field, coerce", COERCIONS)
    @pytest.mark.parametrize("a, b, mod", [
        (1, 0, None), (1, 1, 8), (-1, 7, None), (3, -5, 4),
        # negative modulus and operands: both floor, as Python's % does
        (-3, 5, -4), (2, -9, -3), (-1, -1, 8), (5, 2, -1),
    ])
    def test_agrees_with_python(self, field, coerce, a, b, mod):
        assert_agrees(_affine(field, coerce, a, b, mod), MEMBERS)

    def test_negative_modulus_floors(self):
        rule = _affine("flops", "number", -3, 5, -4)
        column = _member_values(rule, MEMBERS, 8, None)
        assert column.tolist() == [float((-3 * r + 5) % -4) for r in MEMBERS]
        assert (column <= 0).all()

    @pytest.mark.parametrize("field, coerce", COERCIONS)
    def test_int64_overflow_takes_the_exact_path(self, field, coerce):
        # a * r overflows int64 from r = 2 on; the modulus brings the
        # result back into range, so only exact ints give these values
        rule = _affine(field, coerce, 2 ** 62 + 1, 3, 7)
        outcome = assert_agrees(rule, MEMBERS)
        assert outcome[0] == "values"

    def test_overflowing_rank_names_the_first_offender(self):
        rule = _affine("dest", "rank", 2 ** 63, 0)
        assert assert_agrees(rule, MEMBERS) == (
            _Fallback, f"derived dest={2 ** 63} is not a valid rank",
        )

    def test_overflowing_coefficient_alone(self):
        # a does not fit int64 even though a * 0 + b does
        rule = _affine("nbytes", "bytes", -(2 ** 64), 5)
        assert assert_agrees(rule, [0]) == ("values", [(int, 5)])

    @pytest.mark.parametrize("rule, first", [
        (_affine("tag", "tag", 2 ** 63, 1), 2 ** 63 + 1),
        (FieldRule("nbytes", "bytes", ("bin", "*", ("rank",), ("const", 1e30))),
         int(1e30)),
    ])
    def test_valid_value_beyond_int64_refuses(self, rule, first):
        # a value the interpreter accepts but no int64 column holds: the
        # class refuses, so its ranks run the per-rank path instead
        reference_values(rule, MEMBERS, 8)  # accepted per member
        with pytest.raises(_Fallback, match=(
            f"derived {rule.field}={first} exceeds the int64 range"
        )):
            _member_values(rule, MEMBERS, 8, None)

    def test_modulo_by_zero_refuses_like_the_term(self):
        rule = _affine("dest", "rank", 1, 0, 0)
        with pytest.raises(ZeroDivisionError):
            reference_values(rule, MEMBERS, 8)  # the old affine path
        term = FieldRule(
            "dest", "rank", ("bin", "%", ("rank",), ("const", 0)),
        )
        expected = (_Fallback, "term evaluation failed: modulo by zero")
        assert assert_agrees(term, MEMBERS) == expected
        assert _outcome(
            lambda: _member_values(rule, MEMBERS, 8, None)
        ) == expected

    def test_columns_are_int64_or_float64(self):
        for field, coerce in COERCIONS:
            column = _member_values(_affine(field, coerce, 1, 0), MEMBERS, 8, None)
            assert column.dtype == (
                np.float64 if coerce == "number" else np.int64
            )


class TestTermColumns:
    @pytest.mark.parametrize("coerce", ["rank", "tag"])
    def test_any_constant_refuses(self, coerce):
        rule = FieldRule("src", coerce, ("const", ops.ANY))
        assert assert_agrees(rule, MEMBERS)[0] is _Fallback

    def test_float_byte_counts_truncate(self):
        rule = FieldRule(
            "nbytes", "bytes", ("bin", "*", ("rank",), ("const", 2.7)),
        )
        assert assert_agrees(rule, MEMBERS) == (
            "values", [(int, int(r * 2.7)) for r in MEMBERS],
        )

    @pytest.mark.parametrize("value", [-0.0, 0.5, 2.0 ** 62, -0.5, math.nan,
                                       math.inf, True, "x"])
    def test_byte_count_edge_values(self, value):
        # -0.0 and 0.5 truncate to 0; a negative count refuses; NaN and
        # inf raise the same conversion error int() raises per member
        rule = FieldRule(
            "nbytes", "bytes",
            ("sel", ("bin", "==", ("rank",), ("const", 3)),
             ("const", value), ("const", 64)),
        )
        assert_agrees(rule, MEMBERS)

    @pytest.mark.parametrize("coerce", ["rank", "tag", "bytes", "number"])
    def test_mixed_types(self, coerce):
        # an int on some members, a float on others
        rule = FieldRule(coerce, coerce, ("sel", (
            "bin", "<", ("rank",), ("const", 4)), ("rank",),
            ("bin", "*", ("rank",), ("const", 0.5)),
        ))
        assert_agrees(rule, MEMBERS)

    def test_huge_python_ints(self):
        rule = FieldRule(
            "flops", "number", ("bin", "*", ("rank",), ("const", 2 ** 70)),
        )
        assert assert_agrees(rule, MEMBERS)[0] == "values"

    def test_frame_leaf(self):
        rule = FieldRule(
            "dest", "rank",
            ("bin", "%", ("bin", "+", ("rank",), ("frame", "s")), ("P",)),
            frame=("s",),
        )
        assert assert_agrees(rule, MEMBERS, env={"s": 3})[0] == "values"

    def test_failed_evaluation(self):
        rule = FieldRule("dest", "rank", ("frame", "s"), frame=("s",))
        assert assert_agrees(rule, MEMBERS, env={}) == (
            _Fallback, "term evaluation failed: term uses unbound variable 's'",
        )


class TestWorkloadColumns:
    @pytest.mark.parametrize("locality", [
        -0.0, 0.0, 0.25, 1.0, 1.5, math.nan, -3.0, math.inf, -math.inf,
    ])
    def test_locality_clamps_like_workload(self, locality):
        column = np.asarray([0.5, locality, locality])
        values = {"flops": 1.0, "mem_bytes": 8.0, "locality": column,
                  "threads": 1.0}
        _check_workload(ops.ComputeOp(0, None, None), values)
        expected = [Workload(1.0, 8.0, v, 1.0).locality for v in column]
        assert values["locality"].tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("flops, threads, reason", [
        ([1.0, -1.0, 1.0], [1.0, 1.0, 0.5], "negative derived workload"),
        ([1.0, 1.0, -1.0], [1.0, 0.5, 1.0], "derived threads < 1"),
        ([1.0, -0.0, math.nan], [1.0, math.nan, 1.0], None),
    ])
    def test_first_offending_member_names_the_reason(
        self, flops, threads, reason
    ):
        values = {"flops": np.asarray(flops), "mem_bytes": 0.0,
                  "locality": 1.0, "threads": np.asarray(threads)}
        op = ops.ComputeOp(0, "w.mm:1", None)
        if reason is None:
            _check_workload(op, values)
        else:
            with pytest.raises(_Fallback, match=f"w.mm:1: {reason}"):
                _check_workload(op, values)


class TestVectorizedCosts:
    @pytest.mark.parametrize("machine", [
        MachineModel(mem_speed_sigma=0.3),
        MachineModel(core_speed_sigma=0.2, mem_speed_sigma=0.1,
                     cores_per_rank=4),
    ])
    def test_bits_equal_the_scalar_cost(self, machine):
        cost = CostModel(machine, seed=3)
        ranks = np.arange(0, 64, 3, dtype=np.int64)
        rng = np.random.default_rng(0)
        flops = rng.uniform(0, 1e9, len(ranks))
        flops[:3] = (-0.0, 0.0, 1e-300)
        mem = rng.uniform(0, 1e8, len(ranks))
        locality = np.clip(rng.uniform(-0.5, 1.5, len(ranks)), 0.0, 1.0)
        threads = rng.choice([1.0, 2.0, 4.0, 8.0, 16.0], len(ranks))
        columns = cost.compute_cost_columns(ranks, flops, mem, locality, threads)
        shared = cost.compute_cost_columns(ranks, 5e6, 1e5, 0.5, 2.0)
        for i, rank in enumerate(ranks.tolist()):
            for cols, w in (
                (columns, Workload(flops[i], mem[i], locality[i], threads[i])),
                (shared, Workload(5e6, 1e5, 0.5, 2.0)),
            ):
                duration, c = cost.compute_cost(rank, w)
                scalar = (duration, c.tot_ins, c.tot_cyc, c.tot_lst_ins,
                          c.l2_dcm)
                assert np.asarray(scalar).tobytes() == np.asarray(
                    [col[i] for col in cols]
                ).tobytes()


# ---------------------------------------------------------------------------
# fan-out field types


class _Capture:
    """Keeps every template build's result."""

    def __init__(self, monkeypatch):
        self.results = []
        build = classbatch.build_batched_streams

        def capturing(**kwargs):
            result = build(**kwargs)
            self.results.append(result)
            return result

        monkeypatch.setattr(classbatch, "build_batched_streams", capturing)


def _app_config(spec, nprocs):
    return SimulationConfig(
        nprocs=nprocs, params=spec.merged_params(),
        machine=spec.machine or MachineModel(),
    )


def _scale(spec) -> int:
    return next(p for p in (16, 9, 8, 4) if spec.nprocs_valid(p))


_NUMERIC = (int, float)


def _assert_plain_fields(op):
    for name in type(op).__dataclass_fields__:
        value = getattr(op, name)
        assert not isinstance(value, np.generic), (op, name)
        if name == "workload":
            for f in classbatch.WORKLOAD_FIELDS:
                assert type(getattr(value, f)) is float, (op, f)
        elif isinstance(value, _NUMERIC) and not isinstance(value, bool):
            assert type(value) in _NUMERIC, (op, name)


@pytest.mark.parametrize("name", sorted(APPS))
def test_fanned_out_ops_hold_python_scalars(name, monkeypatch):
    spec = get_app(name)
    nprocs = _scale(spec)
    capture = _Capture(monkeypatch)
    Engine(spec.program, spec.psg, _app_config(spec, nprocs)).start()
    run_lint(spec.program, spec.psg, nprocs, spec.merged_params())
    engine_build, lint_build = capture.results
    patched = 0
    for result in (engine_build, lint_build):
        assert result.ranks_batched > 0
        patched += sum(len(patches) for _, _, patches in result.classes)
        for stream in result.streams.values():
            for op in stream:
                _assert_plain_fields(op)
    if name in ("cg", "sst", "zeusmp"):  # partners or workloads vary
        assert patched > 0, "no rank-varying position was fanned out"


# ---------------------------------------------------------------------------
# work shape


#: A ring with a rank-varying compute, a devirtualized wildcard and a
#: collective: the same template positions at every scale.
SHAPE = """\
def main() {
    for (var it = 0; it < 4; it = it + 1) {
        compute(flops = 1000 * (rank % 3 + 1), bytes = 64);
        sendrecv(dest = (rank + 1) % nprocs, tag = it, bytes = 256,
                 src = (rank - 1 + nprocs) % nprocs);
        send(dest = (rank + 2) % nprocs, tag = 9, bytes = 8 * (rank % 2 + 1));
        recv(src = ANY, tag = 9);
        allreduce(bytes = 8);
    }
}
"""

_OP_TYPES = (
    ops.SendOp, ops.PrecostedSendOp, ops.RecvOp, ops.DevirtRecvOp,
    ops.ComputeOp, ops.PrecostedComputeOp, ops.CollectiveOp,
)


def _count_start(monkeypatch, program, psg, nprocs) -> dict:
    """Op objects built per type while a lockstep ``Engine.start`` runs."""
    counts = dict.fromkeys(_OP_TYPES, 0)

    def never(self):
        raise AssertionError("a lockstep start fanned a template out")

    engine = Engine(program, psg, SimulationConfig(nprocs=nprocs))
    with monkeypatch.context() as patch:
        for op_type in _OP_TYPES:
            def counting(self, *args, _init=op_type.__init__, _type=op_type,
                         **kwargs):
                if type(self) is _type:
                    counts[_type] += 1
                _init(self, *args, **kwargs)

            patch.setattr(op_type, "__init__", counting)
        patch.setattr(classbatch.BatchedStreams, "_fanned_out", never)
        engine.start()
    assert engine._lockstep is not None, engine.lockstep_reason
    engine.drain()
    result = engine.finish()
    assert result.metrics.counter("sim.class_batch.ranks_batched") == nprocs
    assert result.metrics.counter("sim.wildcard.devirt") > 0
    return counts


def test_lockstep_start_builds_no_member_ops(monkeypatch):
    program, psg = _compiled(SHAPE, "shape")
    small = _count_start(monkeypatch, program, psg, 16)
    large = _count_start(monkeypatch, program, psg, 256)
    assert small == large
    assert sum(small.values()) < 100, small


def test_lint_shares_member_ops_between_equal_columns(monkeypatch):
    spec = get_app("cg")
    capture = _Capture(monkeypatch)
    run_lint(spec.program, spec.psg, 64, spec.merged_params())
    (result,) = capture.results
    streams = result.streams
    shared = 0
    for members, _base, patches in result.classes:
        at: dict[int, list[int]] = {}
        for pos, column_set in patches:
            at.setdefault(id(column_set), []).append(pos)
        for positions in at.values():
            first, *rest = positions
            for pos in rest:
                for rank in members[1:]:
                    assert streams[rank][pos] is streams[rank][first]
                shared += 1
    assert shared > 0


# ---------------------------------------------------------------------------
# engine lifetime


def _dies_by_refcount(spec_name: str, nprocs: int, lockstep: bool):
    spec = get_app(spec_name)
    engine = Engine(spec.program, spec.psg, _app_config(spec, nprocs))
    result = engine.run()
    assert (engine._lockstep is not None) == lockstep, engine.lockstep_reason
    ref = weakref.ref(engine)
    del engine
    assert ref() is None, "a finished engine outlived its last reference"
    return result


@pytest.mark.parametrize("name, nprocs, lockstep", [
    ("zeusmp", 64, True),   # lockstep
    ("lu", 8, False),        # time-ordered loop (singleton classes)
])
def test_finished_engine_dies_by_refcount(name, nprocs, lockstep):
    enabled = gc.isenabled()
    gc.disable()
    try:
        _dies_by_refcount(name, nprocs, lockstep)
        with fifo_drain():  # the run-to-block FIFO drain
            if lockstep:
                _dies_by_refcount(name, nprocs, False)
    finally:
        if enabled:
            gc.enable()
