"""The per-rank MiniMPI interpreter.

Each simulated MPI process is a Python generator produced by
:meth:`Interpreter.run`.  The interpreter executes the AST for its rank,
evaluating expressions locally (they are pure) and *yielding* an op record
(:mod:`repro.simulator.ops`) whenever simulated time must advance or
coordination with other ranks is needed.  The engine drives all ranks'
generators in virtual-time order.

Attribution: the interpreter tracks the dynamic inline path (the stack of
call-site statement ids) and resolves each executed statement to its PSG
vertex via ``psg.lookup_stmt`` — this is the runtime half of the paper's
"associate performance data with the corresponding PSG vertex" (§III-B1).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from collections.abc import Iterator, Mapping

from repro.minilang import ast_nodes as ast
from repro.minilang.ast_nodes import MpiOp
from repro.psg.graph import PSG
from repro.simulator import ops
from repro.simulator.costmodel import Workload
from repro.simulator.errors import IterationLimitError, MpiUsageError, SimulationError
from repro.simulator.exprcompile import (
    compile_expr,
    expr_is_static,
    frame_names_for,
    truthy as _truthy_impl,
)

__all__ = ["Interpreter", "FuncRefValue"]


@dataclass(frozen=True)
class FuncRefValue:
    """Runtime value of ``&func`` — a first-class function reference."""

    name: str


class _Return(Exception):
    """Internal non-error signal used to unwind a returning function."""

    def __init__(self, value: object) -> None:
        self.value = value


#: Compiled-statement kinds (how a statement closure emits ops).
_ACTION, _YIELD_ONE, _YIELD_PAIR, _SUBGEN = 0, 1, 2, 3

#: packs a compute statement's four float arguments into their bit patterns
_PACK_4D = struct.Struct("<4d").pack


def _reused(build, stmt_id: int):
    """Memoize a statement's op record per (interpreter, inline path).

    Sound only when every argument the op captures is rank-static (fixed
    per interpreter context — the caller checks): the vid is already fixed
    per ``(stmt, inline path)``, the engine never mutates ops (see
    :mod:`repro.simulator.ops`), and a rank cannot have two in-flight
    yields of one call site, so the slotted instance is freely reusable —
    loop-invariant MPI/compute statements then construct their op exactly
    once per rank instead of once per execution.

    The per-rank store is a per-statement inner dict keyed by inline path
    (``ctx._op_cache[stmt_id][ip]``) so the hot path never allocates a
    ``(stmt_id, ip)`` key tuple per yield.  It lives on the interpreter,
    not in the closure, so a compiled statement holds no op and one
    ``expr_cache`` is safe to share across ranks, engines and scales.
    """

    def fn(frame, ctx, ip):
        per_stmt = ctx._op_cache.get(stmt_id)
        if per_stmt is None:
            per_stmt = ctx._op_cache[stmt_id] = {}
        op = per_stmt.get(ip)
        if op is None:
            op = build(frame, ctx, ip)
            per_stmt[ip] = op
        return op

    fn._memoized_op = True
    return fn


def _run_entry(entry, frame, ctx, ip):
    """Run one compiled (kind, fn) entry from generator context."""
    kind, fn = entry
    if kind == _ACTION:
        fn(frame, ctx, ip)
    elif kind == _YIELD_ONE:
        yield fn(frame, ctx, ip)
    elif kind == _SUBGEN:
        yield from fn(frame, ctx, ip)
    else:
        first, second = fn(frame, ctx, ip)
        yield first
        yield second


# -- typed argument validators (compiled form of the old _eval_* helpers) --


def _number_arg(expr_fn, loc, what):
    def fn(frame, ctx):
        value = expr_fn(frame, ctx)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MpiUsageError(f"{loc}: {what} must be a number, got {value!r}")
        return float(value)

    return fn


#: The largest tag or byte count: the trace tables and the lockstep
#: pairing hold them as int64.
_I64_MAX = (1 << 63) - 1


def check_rank(value, nprocs: int, loc, what: str) -> int:
    """A rank argument as the engine takes it, or :class:`MpiUsageError`.
    The interpreter's validators and the comm graph's instantiation
    (:mod:`repro.analysis.commgraph`) share these checks."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MpiUsageError(
            f"{loc}: {what} must be an integer rank, got {value!r}"
        )
    if not (0 <= value < nprocs):
        raise MpiUsageError(
            f"{loc}: {what}={value} out of range for {nprocs} processes"
        )
    return value


def check_rank_or_any(value, nprocs: int, loc, what: str):
    """A receive's source: a rank, or ``ANY``."""
    if value is ops.ANY:
        return ops.ANY
    if isinstance(value, bool) or not isinstance(value, int):
        raise MpiUsageError(f"{loc}: {what} must be a rank or ANY, got {value!r}")
    return check_rank(value, nprocs, loc, what)


def check_tag(value, loc, *, allow_any: bool):
    """A tag: a non-negative int64, or ``ANY`` where ``allow_any``."""
    if value is ops.ANY:
        if allow_any:
            return ops.ANY
        raise MpiUsageError(f"{loc}: ANY is not a valid send tag")
    if isinstance(value, bool) or not isinstance(value, int):
        raise MpiUsageError(f"{loc}: tag must be an integer, got {value!r}")
    if value < 0:
        raise MpiUsageError(f"{loc}: tag must be non-negative, got {value}")
    if value > _I64_MAX:
        raise MpiUsageError(f"{loc}: tag must be below 2**63, got {value}")
    return value


def check_bytes(value, loc) -> int:
    """A byte count: a finite number, truncated to a non-negative
    int64."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MpiUsageError(f"{loc}: bytes must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise MpiUsageError(f"{loc}: bytes must be finite, got {value!r}")
    nbytes = int(value)
    if nbytes < 0:
        raise MpiUsageError(f"{loc}: bytes must be non-negative, got {nbytes}")
    if nbytes > _I64_MAX:
        raise MpiUsageError(f"{loc}: bytes must be below 2**63, got {nbytes}")
    return nbytes


def _rank_arg(expr_fn, loc, what):
    def fn(frame, ctx):
        return check_rank(expr_fn(frame, ctx), ctx.nprocs, loc, what)

    return fn


def _rank_or_any_arg(expr_fn, loc, what):
    def fn(frame, ctx):
        return check_rank_or_any(expr_fn(frame, ctx), ctx.nprocs, loc, what)

    return fn


def _tag_arg(expr_fn, loc, *, allow_any):
    def fn(frame, ctx):
        return check_tag(expr_fn(frame, ctx), loc, allow_any=allow_any)

    return fn


def _bytes_arg(expr, loc, compiler):
    if expr is None:
        return lambda frame, ctx: 0
    expr_fn = compiler(expr)

    def fn(frame, ctx):
        return check_bytes(expr_fn(frame, ctx), loc)

    return fn


class Interpreter:
    """Executes one rank of a MiniMPI program as a generator of ops."""

    def __init__(
        self,
        program: ast.Program,
        psg: PSG,
        rank: int,
        nprocs: int,
        params: Mapping[str, object] | None = None,
        *,
        max_iterations: int = 10_000_000,
        entry: str = "main",
        expr_cache: dict | None = None,
    ) -> None:
        if not (0 <= rank < nprocs):
            raise ValueError(f"rank {rank} out of range for {nprocs} processes")
        self.program = program
        self.psg = psg
        self.rank = rank
        self.nprocs = nprocs
        self.params = dict(params or {})
        self.max_iterations = max_iterations
        self.entry = entry
        self.iterations = 0
        self._vid_cache: dict[tuple[tuple[int, ...], int], int] = {}
        #: compiled-expression cache, shareable across same-program ranks
        #: (expressions are pure; rank-dependence flows in via the context)
        self._expr_cache: dict = expr_cache if expr_cache is not None else {}
        #: id(function) -> its compiled body (they live in the shared cache)
        self._bodies: dict = self._expr_cache
        #: names that may ever be frame-resident (rank-static analysis)
        self._fnames = frame_names_for(program, self._expr_cache)
        #: per-rank values of memoized rank-static subtrees
        self._static_cache: dict = {}
        #: per-statement memo of the last Workload built (usually
        #: invariant), keyed on the arguments' IEEE bit patterns
        self._workload_cache: dict[int, tuple[bytes, Workload]] = {}
        #: stmt_id -> {inline_path -> reusable op record}, for statements
        #: whose arguments are all rank-static (see :func:`_reused`)
        self._op_cache: dict[int, dict[tuple[int, ...], object]] = {}

    def _compile_expr(self, expr: ast.Expr):
        """Compile through the shared cache with rank-static analysis on."""
        return compile_expr(expr, self._expr_cache, self._fnames)

    def _static_args(self, *exprs: ast.Expr | None) -> bool:
        """True when every given expression (None = defaulted) is
        rank-static — the op built from them is then reusable."""
        return all(
            expr_is_static(e, self._expr_cache, self._fnames) for e in exprs
        )

    def _memoize_op(self, fn, stmt: ast.Stmt, exprs: tuple) -> object:
        """Wrap an op builder in :func:`_reused` when every captured
        argument is rank-static; bare otherwise."""
        if self._static_args(*exprs):
            return _reused(fn, stmt.stmt_id)
        return fn

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def run(self) -> Iterator[ops.Op]:
        func = self.program.functions.get(self.entry)
        if func is None:
            raise SimulationError(f"program has no entry function {self.entry!r}")
        if func.params:
            raise SimulationError(f"entry function {self.entry!r} must take no arguments")
        yield from self._call_function(func, [], ())

    # ------------------------------------------------------------------
    # statement compilation
    #
    # Statements compile once (per program, shared across ranks via the
    # engine's expr_cache) into closures of signature (frame, ctx, ip):
    # ``ctx`` is the evaluating Interpreter, ``ip`` the dynamic inline
    # path.  Each compiled statement is tagged with how it emits ops so
    # blocks only pay generator machinery where ops actually flow:
    #
    #   _ACTION      runs for effect, emits nothing (VarDecl/Assign/Return)
    #   _YIELD_ONE   returns exactly one op (compute, most MPI)
    #   _YIELD_PAIR  returns an op 2-tuple (sendrecv)
    #   _SUBGEN      is a generator (if/for/while/call)
    # ------------------------------------------------------------------

    def _call_function(
        self, func: ast.FunctionDef, args: list, ip: tuple[int, ...]
    ) -> Iterator[ops.Op]:
        if len(args) != len(func.params):
            raise SimulationError(
                f"{func.name}() takes {len(func.params)} arguments, got {len(args)}"
            )
        frame = dict(zip(func.params, args))
        body = self._bodies.get(id(func))
        if body is None:
            body = self._body(func)
        try:
            yield from body(frame, self, ip)
        except _Return:
            return

    def _body(self, func: ast.FunctionDef):
        """Compile ``func``'s body, once, into the shared cache."""
        body = self._expr_cache[id(func)] = self._compile_block(func.body)
        return body

    def _compile_block(self, block: ast.Block):
        plan = tuple(self._compile_stmt(s) for s in block.statements)
        if len(plan) == 1 and plan[0][0] == _SUBGEN:
            return plan[0][1]

        def run_block(frame, ctx, ip, _plan=plan):
            for kind, fn in _plan:
                if kind == _ACTION:
                    fn(frame, ctx, ip)
                elif kind == _YIELD_ONE:
                    yield fn(frame, ctx, ip)
                elif kind == _SUBGEN:
                    yield from fn(frame, ctx, ip)
                else:
                    first, second = fn(frame, ctx, ip)
                    yield first
                    yield second

        return run_block

    def _compile_stmt(self, stmt: ast.Stmt):
        if isinstance(stmt, ast.VarDecl):
            name = stmt.name
            if stmt.init is not None:
                init = self._compile_expr(stmt.init)

                def fn(frame, ctx, ip):
                    frame[name] = init(frame, ctx)

            else:

                def fn(frame, ctx, ip):
                    frame[name] = 0

            return _ACTION, fn
        if isinstance(stmt, ast.Assign):
            name, loc = stmt.name, stmt.location
            value = self._compile_expr(stmt.value)

            def fn(frame, ctx, ip):
                if name not in frame:
                    raise SimulationError(
                        f"{loc}: assignment to undeclared variable {name!r}"
                    )
                frame[name] = value(frame, ctx)

            return _ACTION, fn
        if isinstance(stmt, ast.ReturnStmt):
            value = (
                self._compile_expr(stmt.value) if stmt.value is not None else None
            )

            def fn(frame, ctx, ip):
                raise _Return(value(frame, ctx) if value is not None else None)

            return _ACTION, fn
        if isinstance(stmt, ast.ComputeStmt):
            return _YIELD_ONE, self._compile_compute(stmt)
        if isinstance(stmt, ast.MpiStmt):
            return self._compile_mpi(stmt)
        if isinstance(stmt, ast.IfStmt):
            cond = self._compile_expr(stmt.cond)
            then_body = self._compile_block(stmt.then_body)
            else_body = (
                self._compile_block(stmt.else_body)
                if stmt.else_body is not None
                else None
            )

            def fn(frame, ctx, ip):
                if _truthy_impl(cond(frame, ctx)):
                    yield from then_body(frame, ctx, ip)
                elif else_body is not None:
                    yield from else_body(frame, ctx, ip)

            return _SUBGEN, fn
        if isinstance(stmt, ast.ForStmt):
            init = self._compile_stmt(stmt.init) if stmt.init is not None else None
            cond = self._compile_expr(stmt.cond) if stmt.cond is not None else None
            step = self._compile_stmt(stmt.step) if stmt.step is not None else None
            body = self._compile_block(stmt.body)

            def fn(frame, ctx, ip):
                if init is not None:
                    yield from _run_entry(init, frame, ctx, ip)
                while cond is None or _truthy_impl(cond(frame, ctx)):
                    ctx._count_iteration(stmt)
                    yield from body(frame, ctx, ip)
                    if step is not None:
                        kind, sfn = step
                        if kind == _ACTION:
                            sfn(frame, ctx, ip)
                        else:
                            yield from _run_entry(step, frame, ctx, ip)

            return _SUBGEN, fn
        if isinstance(stmt, ast.WhileStmt):
            cond = self._compile_expr(stmt.cond)
            body = self._compile_block(stmt.body)

            def fn(frame, ctx, ip):
                while _truthy_impl(cond(frame, ctx)):
                    ctx._count_iteration(stmt)
                    yield from body(frame, ctx, ip)

            return _SUBGEN, fn
        if isinstance(stmt, ast.CallStmt):
            return _SUBGEN, self._compile_call(stmt)
        raise SimulationError(f"cannot execute {type(stmt).__name__}")

    def _compile_call(self, stmt: ast.CallStmt):
        functions = self.program.functions
        callee = stmt.callee
        loc = stmt.location
        arg_fns = tuple(self._compile_expr(a) for a in stmt.args)
        direct = (
            callee.name
            if isinstance(callee, ast.VarRef) and callee.name in functions
            else None
        )
        callee_fn = self._compile_expr(callee) if direct is None else None

        def fn(frame, ctx, ip):
            if direct is not None:
                target = direct
                indirect = False
            else:
                value = callee_fn(frame, ctx)
                if not isinstance(value, FuncRefValue):
                    raise SimulationError(
                        f"{loc}: call target is not a function "
                        f"(got {type(value).__name__})"
                    )
                target = value.name
                indirect = True
            func = functions.get(target)
            if func is None:
                raise SimulationError(
                    f"{loc}: call to undefined function {target!r}"
                )
            if indirect:
                yield ops.IndirectCallNote(
                    vid=-1,
                    location=loc,
                    stmt_id=stmt.stmt_id,
                    inline_path=ip,
                    target=target,
                )
            args = [a(frame, ctx) for a in arg_fns]
            yield from ctx._call_function(func, args, ip + (stmt.stmt_id,))

        return fn

    def _count_iteration(self, stmt: ast.Stmt) -> None:
        self.iterations += 1
        if self.iterations > self.max_iterations:
            raise IterationLimitError(
                f"{stmt.location}: exceeded {self.max_iterations} loop iterations "
                f"on rank {self.rank} (runaway loop?)"
            )

    # ------------------------------------------------------------------
    # MPI / compute statement compilation
    # ------------------------------------------------------------------

    def _compile_mpi(self, stmt: ast.MpiStmt):
        loc = stmt.location
        op = stmt.op

        if op in (MpiOp.SEND, MpiOp.ISEND):
            dest = _rank_arg(self._compile_expr(stmt.dest), loc, "dest")
            tag = _tag_arg(self._compile_expr(stmt.tag), loc, allow_any=False)
            nbytes = _bytes_arg(stmt.bytes_expr, loc, self._compile_expr)
            blocking = op is MpiOp.SEND
            request = stmt.request

            def fn(frame, ctx, ip):
                return ops.SendOp(
                    ctx._vid_of(stmt, ip), loc, dest(frame, ctx),
                    tag(frame, ctx), nbytes(frame, ctx), op, blocking, request,
                )

            fn = self._memoize_op(fn, stmt, (stmt.dest, stmt.tag, stmt.bytes_expr))
            return _YIELD_ONE, fn
        if op in (MpiOp.RECV, MpiOp.IRECV):
            src = _rank_or_any_arg(self._compile_expr(stmt.src), loc, "src")
            tag = _tag_arg(self._compile_expr(stmt.tag), loc, allow_any=True)
            blocking = op is MpiOp.RECV
            request = stmt.request

            def fn(frame, ctx, ip):
                return ops.RecvOp(
                    ctx._vid_of(stmt, ip), loc, src(frame, ctx),
                    tag(frame, ctx), op, blocking, request,
                )

            fn = self._memoize_op(fn, stmt, (stmt.src, stmt.tag))
            return _YIELD_ONE, fn
        if op is MpiOp.SENDRECV:
            dest = _rank_arg(self._compile_expr(stmt.dest), loc, "dest")
            tag = _tag_arg(self._compile_expr(stmt.tag), loc, allow_any=False)
            nbytes = _bytes_arg(stmt.bytes_expr, loc, self._compile_expr)
            src = _rank_or_any_arg(self._compile_expr(stmt.recv_src), loc, "src")
            recv_tag = _tag_arg(
                self._compile_expr(stmt.recv_tag), loc, allow_any=True
            )

            def fn(frame, ctx, ip):
                vid = ctx._vid_of(stmt, ip)
                send = ops.SendOp(
                    vid, loc, dest(frame, ctx), tag(frame, ctx),
                    nbytes(frame, ctx), MpiOp.SENDRECV, False, None,
                )
                recv = ops.RecvOp(
                    vid, loc, src(frame, ctx), recv_tag(frame, ctx),
                    MpiOp.SENDRECV, True, None,
                )
                return send, recv

            # caches the (send, recv) pair
            fn = self._memoize_op(
                fn, stmt,
                (stmt.dest, stmt.tag, stmt.bytes_expr,
                 stmt.recv_src, stmt.recv_tag),
            )
            return _YIELD_PAIR, fn
        if op is MpiOp.WAIT:
            assert stmt.request is not None
            request = stmt.request

            def fn(frame, ctx, ip):
                return ops.WaitOp(
                    vid=ctx._vid_of(stmt, ip), location=loc, request=request
                )

            return _YIELD_ONE, self._memoize_op(fn, stmt, ())
        if op is MpiOp.WAITALL:

            def fn(frame, ctx, ip):
                return ops.WaitAllOp(vid=ctx._vid_of(stmt, ip), location=loc)

            return _YIELD_ONE, self._memoize_op(fn, stmt, ())
        # collectives
        root = (
            _rank_arg(self._compile_expr(stmt.root), loc, "root")
            if stmt.root is not None
            else None
        )
        nbytes = _bytes_arg(stmt.bytes_expr, loc, self._compile_expr)

        def fn(frame, ctx, ip):
            return ops.CollectiveOp(
                vid=ctx._vid_of(stmt, ip),
                location=loc,
                mpi_op=op,
                root=root(frame, ctx) if root is not None else 0,
                nbytes=nbytes(frame, ctx),
            )

        fn = self._memoize_op(fn, stmt, (stmt.root, stmt.bytes_expr))
        return _YIELD_ONE, fn

    def _compile_compute(self, stmt: ast.ComputeStmt):
        loc = stmt.location
        stmt_id = stmt.stmt_id
        flops_fn = _number_arg(self._compile_expr(stmt.flops), loc, "flops")
        mem_fn = (
            _number_arg(self._compile_expr(stmt.mem_bytes), loc, "bytes")
            if stmt.mem_bytes is not None
            else None
        )
        locality_fn = (
            _number_arg(self._compile_expr(stmt.locality), loc, "locality")
            if stmt.locality is not None
            else None
        )
        threads_fn = (
            _number_arg(self._compile_expr(stmt.threads), loc, "threads")
            if stmt.threads is not None
            else None
        )

        def fn(frame, ctx, ip):
            flops = flops_fn(frame, ctx)
            mem = mem_fn(frame, ctx) if mem_fn is not None else 0.0
            locality = locality_fn(frame, ctx) if locality_fn is not None else 1.0
            threads = threads_fn(frame, ctx) if threads_fn is not None else 1.0
            if flops < 0 or mem < 0:
                raise MpiUsageError(f"{loc}: negative workload")
            if threads < 1:
                raise MpiUsageError(f"{loc}: threads must be >= 1")
            # Workload is frozen + validated, which makes construction the
            # costliest part of a compute op; per-statement arguments are
            # usually loop-invariant, so memoize the last instance built.
            # Keyed on the IEEE bit patterns, not ``==``: a ``0.0`` after
            # a ``-0.0`` must get its own Workload (see Workload.bits).
            key = _PACK_4D(flops, mem, locality, threads)
            cached = ctx._workload_cache.get(stmt_id)
            if cached is not None and cached[0] == key:
                workload = cached[1]
            else:
                workload = Workload(
                    flops=flops, mem_bytes=mem,
                    locality=locality, threads=threads,
                )
                ctx._workload_cache[stmt_id] = (key, workload)
            return ops.ComputeOp(
                vid=ctx._vid_of(stmt, ip), location=loc, workload=workload
            )

        return self._memoize_op(
            fn, stmt, (stmt.flops, stmt.mem_bytes, stmt.locality, stmt.threads)
        )

    def _vid_of(self, stmt: ast.Stmt, inline_path: tuple[int, ...]) -> int:
        key = (inline_path, stmt.stmt_id)
        vid = self._vid_cache.get(key)
        if vid is None:
            found = self.psg.lookup_stmt(inline_path, stmt.stmt_id)
            if found is None:
                # Statement reached through an unrefined indirect call: the
                # static PSG has no vertex for the target's body, so the
                # work attributes to the innermost Call vertex on the path
                # (the paper instruments indirect-call entry/exit, §III-B3).
                for k in range(len(inline_path), 0, -1):
                    found = self.psg.lookup_stmt(
                        inline_path[: k - 1], inline_path[k - 1]
                    )
                    if found is not None:
                        break
            if found is None:
                raise SimulationError(
                    f"{stmt.location}: no PSG vertex for statement "
                    f"{stmt.stmt_id} at inline path {inline_path}"
                )
            vid = found
            self._vid_cache[key] = vid
        return vid
