"""Closure compilation for MiniMPI expressions.

Each expression node compiles *once* into a Python closure
``fn(frame, ctx) -> value`` (``ctx`` is the evaluating Interpreter,
supplying ``rank`` / ``nprocs`` / ``params`` / the program); the engine
shares one compile cache across every rank of a run, so an expression
like ``(rank + 1) % nprocs`` is never re-dispatched per AST node.

Semantics: a variable resolves frame first, then params, then the
builtins ``rank`` and ``nprocs``, else it raises "undefined variable".
``/`` truncates toward zero on two ints (C-style) and ``/`` and ``%``
raise on a zero divisor; arithmetic and ordering need numbers, unary
``-`` needs a non-bool number, and ``&&`` / ``||`` short-circuit on
:func:`truthy`.
Literal-only subtrees are constant-folded at compile time, but only when
folding does not raise — an expression that fails (division by zero,
negating a bool) keeps failing at evaluation time.

Beyond folding, subtrees that provably never read the frame (their variable
references cannot be shadowed by any declared variable or parameter — see
:func:`collect_frame_names`) are *rank-static*: their value is fixed per
interpreter context, so they are evaluated once per rank and memoized
(``(rank + 1) % nprocs`` in a 50-iteration loop evaluates once, not 50
times).  Raising subtrees are never memoized and keep raising per
evaluation.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable

from repro.minilang import ast_nodes as ast
from repro.simulator import ops
from repro.simulator.errors import SimulationError

__all__ = [
    "compile_expr",
    "expr_is_static",
    "collect_frame_names",
    "frame_names_for",
    "FRAME_NAMES_KEY",
    "truthy",
    "hashrand",
    "BUILTIN_IMPL",
]

#: Compiled expression: (frame, interpreter) -> runtime value.
CompiledExpr = Callable[[dict, object], object]

_MISSING = object()

#: Compilation kinds: frame-dependent, compile-time constant, or fixed per
#: interpreter context (rank/nprocs/params only).
_DYN, _CONST, _STATIC = 0, 1, 2

#: Shared-cache key under which the program's frame-name set is stored.
FRAME_NAMES_KEY = "__frame_names__"


def collect_frame_names(program: ast.Program) -> frozenset[str]:
    """Every name that can ever live in a frame (declared vars + params).

    A variable reference to any *other* name can never be shadowed by a
    frame entry, so it resolves purely from the interpreter context — the
    soundness condition for rank-static memoization.
    """
    names: set[str] = set()

    def walk_block(block: ast.Block) -> None:
        for stmt in block.statements:
            walk_stmt(stmt)

    def walk_stmt(stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            names.add(stmt.name)
        elif isinstance(stmt, ast.IfStmt):
            walk_block(stmt.then_body)
            if stmt.else_body is not None:
                walk_block(stmt.else_body)
        elif isinstance(stmt, ast.ForStmt):
            if stmt.init is not None:
                walk_stmt(stmt.init)
            if stmt.step is not None:
                walk_stmt(stmt.step)
            walk_block(stmt.body)
        elif isinstance(stmt, ast.WhileStmt):
            walk_block(stmt.body)

    for func in program.functions.values():
        names.update(func.params)
        walk_block(func.body)
    return frozenset(names)


def frame_names_for(program: ast.Program, cache: dict) -> frozenset[str]:
    """The program's frame-name set, memoized in the shared compile cache."""
    names = cache.get(FRAME_NAMES_KEY)
    if names is None:
        names = collect_frame_names(program)
        cache[FRAME_NAMES_KEY] = names
    return names


def _memoized(fn: CompiledExpr, key: int) -> CompiledExpr:
    """Evaluate a rank-static subtree once per interpreter context."""

    def memo(frame, ctx):
        cache = ctx._static_cache
        value = cache.get(key, _MISSING)
        if value is _MISSING:
            value = fn(frame, ctx)
            cache[key] = value
        return value

    return memo


def hashrand(args: tuple) -> float:
    """Deterministic pseudo-random in [0, 1) from the argument tuple.

    Apps use this to write reproducible load imbalance (e.g. per-rank,
    per-iteration work variation) without any hidden RNG state.
    """
    h = hashlib.blake2b(repr(args).encode(), digest_size=8).digest()
    return int.from_bytes(h, "little") / 2.0**64


BUILTIN_IMPL = {
    "min": min,
    "max": max,
    "abs": abs,
    "log2": math.log2,
    "sqrt": math.sqrt,
    "pow": pow,
    "floor": math.floor,
    "ceil": math.ceil,
}


def truthy(value: object) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise SimulationError(f"value {value!r} is not usable as a condition")


def compile_expr(
    expr: ast.Expr, cache: dict, fnames: frozenset[str] | None = None
) -> CompiledExpr:
    """Compile ``expr`` (memoized in ``cache`` by node identity).

    ``fnames`` is the program's frame-name set (see
    :func:`collect_frame_names`); it enables rank-static memoization of
    subtrees whose variables can never be frame-shadowed.  ``None`` (the
    default) disables the analysis — every variable is treated as
    potentially frame-resident, which is always sound.
    """
    fn = cache.get(id(expr))
    if fn is None:
        fn, kind = _compile(expr, fnames)
        if kind == _STATIC:
            fn = _memoized(fn, id(expr))
        cache[id(expr)] = fn
        cache[("kind", id(expr))] = kind
    return fn


def expr_is_static(
    expr: ast.Expr | None, cache: dict, fnames: frozenset[str] | None = None
) -> bool:
    """Is ``expr``'s value fixed per interpreter context (or absent)?

    True for constants and rank-static subtrees — the soundness condition
    for reusing an op record built from it (the interpreter memoizes whole
    slotted op instances per call site when every argument is static).
    """
    if expr is None:
        return True
    kind = cache.get(("kind", id(expr)))
    if kind is None:
        compile_expr(expr, cache, fnames)
        kind = cache.get(("kind", id(expr)))
        if kind is None:  # fn cached before kind tracking: re-analyze
            kind = _compile(expr, fnames)[1]
    return kind != _DYN


def _const(value: object) -> tuple[CompiledExpr, int]:
    return (lambda frame, ctx: value), _CONST


def _try_fold(fn: CompiledExpr, kind: int) -> tuple[CompiledExpr, int]:
    """Fold a closure whose inputs are all constants, unless it raises."""
    if kind != _CONST:
        return fn, kind
    try:
        value = fn({}, None)
    except Exception:
        # deterministic failure: keep raising at evaluation time, but the
        # result can never be cached (it has none)
        return fn, _DYN
    return _const(value)


def _combine(*kinds: int) -> int:
    """Kind of a pure node from its children's kinds."""
    out = _CONST
    for kind in kinds:
        if kind == _DYN:
            return _DYN
        if kind == _STATIC:
            out = _STATIC
    return out


def _wrap_child(fn: CompiledExpr, kind: int, expr: ast.Expr, parent_kind: int):
    """Memoize a static child when its parent cannot be memoized itself."""
    if kind == _STATIC and parent_kind == _DYN:
        return _memoized(fn, id(expr))
    return fn


def _compile(expr: ast.Expr, fnames: frozenset[str] | None) -> tuple[CompiledExpr, int]:
    if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.StringLit, ast.BoolLit)):
        return _const(expr.value)
    if isinstance(expr, ast.AnyLit):
        return _const(ops.ANY)
    if isinstance(expr, ast.FuncRef):
        return _compile_funcref(expr), _STATIC
    if isinstance(expr, ast.VarRef):
        static = fnames is not None and expr.name not in fnames
        return _compile_varref(expr, static), (_STATIC if static else _DYN)
    if isinstance(expr, ast.UnaryExpr):
        return _compile_unary(expr, fnames)
    if isinstance(expr, ast.BinaryExpr):
        return _compile_binary(expr, fnames)
    if isinstance(expr, ast.CallExpr):
        return _compile_call(expr, fnames)
    raise SimulationError(f"cannot evaluate {type(expr).__name__}")


def _compile_funcref(expr: ast.FuncRef) -> CompiledExpr:
    from repro.simulator.interp import FuncRefValue

    name, loc = expr.name, expr.location
    value = FuncRefValue(name)

    def fn(frame, ctx):
        if name not in ctx.program.functions:
            raise SimulationError(
                f"{loc}: &{name} references undefined function"
            )
        return value

    return fn


def _compile_varref(expr: ast.VarRef, static: bool) -> CompiledExpr:
    name, loc = expr.name, expr.location

    if static:
        # Proven never frame-resident (collect_frame_names): the frame
        # probe cannot hit, so resolution starts at the params — same
        # shadowing order as the general closure, one dict probe shorter.
        def fn(frame, ctx):
            value = ctx.params.get(name, _MISSING)
            if value is not _MISSING:
                return value
            if name == "rank":
                return ctx.rank
            if name == "nprocs":
                return ctx.nprocs
            raise SimulationError(f"{loc}: undefined variable {name!r}")

        return fn

    def fn(frame, ctx):
        value = frame.get(name, _MISSING)
        if value is not _MISSING:
            return value
        value = ctx.params.get(name, _MISSING)
        if value is not _MISSING:
            return value
        if name == "rank":
            return ctx.rank
        if name == "nprocs":
            return ctx.nprocs
        raise SimulationError(f"{loc}: undefined variable {name!r}")

    return fn


def _compile_unary(
    expr: ast.UnaryExpr, fnames: frozenset[str] | None
) -> tuple[CompiledExpr, int]:
    ofn, okind = _compile(expr.operand, fnames)
    kind = _combine(okind)
    operand = _wrap_child(ofn, okind, expr.operand, kind)
    loc = expr.location
    if expr.op == "-":

        def fn(frame, ctx):
            value = operand(frame, ctx)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SimulationError(f"{loc}: cannot negate {value!r}")
            return -value

    elif expr.op == "!":

        def fn(frame, ctx):
            return not truthy(operand(frame, ctx))

    else:
        raise SimulationError(f"unknown unary op {expr.op!r}")
    return _try_fold(fn, kind)


def _compile_binary(
    expr: ast.BinaryExpr, fnames: frozenset[str] | None
) -> tuple[CompiledExpr, int]:
    op, loc = expr.op, expr.location
    lfn, lkind = _compile(expr.left, fnames)
    rfn, rkind = _compile(expr.right, fnames)
    kind = _combine(lkind, rkind)
    left = _wrap_child(lfn, lkind, expr.left, kind)
    right = _wrap_child(rfn, rkind, expr.right, kind)

    if op == "&&":

        def fn(frame, ctx):
            return truthy(left(frame, ctx)) and truthy(right(frame, ctx))

    elif op == "||":

        def fn(frame, ctx):
            return truthy(left(frame, ctx)) or truthy(right(frame, ctx))

    elif op == "==":

        def fn(frame, ctx):
            return left(frame, ctx) == right(frame, ctx)

    elif op == "!=":

        def fn(frame, ctx):
            return left(frame, ctx) != right(frame, ctx)

    elif op in _NUMERIC_OPS:
        fn = _NUMERIC_OPS[op](left, right, loc, op)
    else:
        raise SimulationError(f"unknown binary op {op!r}")
    return _try_fold(fn, kind)


def _check_numbers(a, b, loc, op):
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        raise SimulationError(
            f"{loc}: operator {op!r} needs numbers, got {a!r} and {b!r}"
        )


def _make_arith(apply):
    def factory(left, right, loc, op):
        def fn(frame, ctx):
            a = left(frame, ctx)
            b = right(frame, ctx)
            if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                return apply(a, b)
            _check_numbers(a, b, loc, op)

        return fn

    return factory


def _div_factory(left, right, loc, op):
    def fn(frame, ctx):
        a = left(frame, ctx)
        b = right(frame, ctx)
        _check_numbers(a, b, loc, op)
        if b == 0:
            raise SimulationError(f"{loc}: division by zero")
        if isinstance(a, int) and isinstance(b, int):
            return int(a / b)  # C-style truncation
        return a / b

    return fn


def _mod_factory(left, right, loc, op):
    def fn(frame, ctx):
        a = left(frame, ctx)
        b = right(frame, ctx)
        _check_numbers(a, b, loc, op)
        if b == 0:
            raise SimulationError(f"{loc}: modulo by zero")
        return a % b

    return fn


_NUMERIC_OPS = {
    "+": _make_arith(lambda a, b: a + b),
    "-": _make_arith(lambda a, b: a - b),
    "*": _make_arith(lambda a, b: a * b),
    "/": _div_factory,
    "%": _mod_factory,
    "<": _make_arith(lambda a, b: a < b),
    ">": _make_arith(lambda a, b: a > b),
    "<=": _make_arith(lambda a, b: a <= b),
    ">=": _make_arith(lambda a, b: a >= b),
}


def _compile_call(
    expr: ast.CallExpr, fnames: frozenset[str] | None
) -> tuple[CompiledExpr, int]:
    compiled = [_compile(a, fnames) for a in expr.args]
    kind = _combine(*(k for _fn, k in compiled))
    arg_fns = tuple(
        _wrap_child(fn, k, arg, kind)
        for (fn, k), arg in zip(compiled, expr.args)
    )
    loc, name = expr.location, expr.func

    if name == "hashrand":

        def fn(frame, ctx):
            return hashrand(tuple(a(frame, ctx) for a in arg_fns))

    else:
        impl = BUILTIN_IMPL[name]

        def fn(frame, ctx):
            args = [a(frame, ctx) for a in arg_fns]
            try:
                return impl(*args)
            except (TypeError, ValueError) as exc:
                raise SimulationError(f"{loc}: {name}(): {exc}") from exc

    return _try_fold(fn, kind)
