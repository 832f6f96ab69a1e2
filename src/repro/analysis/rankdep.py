"""Rank-dependence dataflow: abstract interpretation over the MiniMPI AST.

The analysis answers, for every expression and statement of one program at
one scale, *how its value varies across ranks*:

* ``CONST`` — one known value, identical on every rank and every execution
  (``RankAnalysis.const_stmts`` lists the statements whose every captured
  argument is CONST),
* ``INVARIANT`` — unknown value, but provably identical across ranks at
  every execution (loop counters, doubling strides, ...),
* ``AFFINE`` — ``(a * rank + b) % m`` neighbor arithmetic, the paper's
  canonical stencil/ring pattern, with the coefficients recovered,
* ``DEPENDENT`` — varies across ranks in some other way.

Rank-varying values additionally carry a symbolic **term** — a closed
rank function built from the same operator semantics the interpreter uses
(C-style integer division, modulo-by-zero errors, the ``hashrand``
builtin) — which :func:`eval_term` can evaluate for any concrete rank.
Terms are what :mod:`repro.analysis.symmetry` evaluates to split ranks
into behavioral classes, and what the lint uses to expand one
representative walk into per-rank communication endpoints.

A loop-carried, rank-invariant variable — the doubling stride ``s`` of a
hypercube exchange — has no closed form in ``rank``, but at the loop head
its value is, by definition, whatever the frame holds.  Such a variable
gets the leaf ``("frame", name)``: "the runtime value of local ``name``
in the current frame".  Terms built on it (``rank - s``, the ``sel`` that
picks ``rank + s`` on half the ranks) are closed rank functions *once the
frame is bound*: :func:`eval_term` reads the leaf from ``env``, and
:mod:`repro.simulator.classbatch` binds it per execution from the class
representative's frame.  That binding is only sound while ``name`` keeps
the value it had when the term was built, on every rank alike, so any
assignment or declaration of ``name`` — and any branch that assigns it in
either arm, or a loop with a rank-dependent trip count that assigns it —
drops the term of every value that mentions it (the kind stays), and a
call hands the callee no frame-bearing term (the callee's frame is
another frame).  Verdicts inside a loop are recorded only under its
stable head state.  Consumers that evaluate terms with no frame at hand —
the rank partition, the scale-parametric lint — read them through
:func:`closed_term`, which maps frame-bearing terms to ``None``.

The walk is a standard join-over-paths fixpoint with two twists that make
it *rank*-aware rather than merely flow-aware:

* a branch merge under a rank-dependent condition taints every variable
  the arms disagree on (two rank-invariant values selected by a
  rank-dependent predicate are rank-dependent — where possible the merge
  keeps precision with a ``('sel', cond, a, b)`` term), and
* a loop whose condition is rank-dependent taints everything its body
  changed (different ranks run different trip counts).

Soundness contract: every classification is an over-approximation —
``CONST``/``INVARIANT``/a term is only reported when it holds on *every*
execution path of *every* rank, assuming the program does not raise a
runtime error (a program that crashes mid-run has no meaningful op
stream to preserve; the lint surfaces such crashes separately).
Function calls are analyzed at their call sites with abstract arguments;
recursive and address-taken functions are analyzed once with
fully-unknown parameters instead (MiniMPI passes by value and has no
globals, so calls never mutate the caller frame).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from enum import IntEnum
from collections.abc import Iterator, Mapping

from repro.minilang import ast_nodes as ast
from repro.psg.callgraph import build_call_graph
from repro.simulator import ops
from repro.simulator.errors import SimulationError
from repro.simulator.exprcompile import BUILTIN_IMPL, hashrand, truthy

__all__ = [
    "Rankness",
    "AbstractValue",
    "Decider",
    "RankAnalysis",
    "analyze_program",
    "closed_term",
    "eval_term",
    "frame_names",
    "mpi_arg_exprs",
]

#: Fixpoint iterations per loop before forced widening.
_MAX_LOOP_ITERS = 8
#: Statement visits before the whole analysis gives up (degraded, empty
#: const set) — a backstop, not a tuning knob; real programs use ~1e3.
_MAX_STEPS = 300_000
#: Node-count cap on symbolic terms (``sel`` chains in loops could
#: otherwise grow without bound).
_MAX_TERM_SIZE = 96


class Rankness(IntEnum):
    """How a value varies across ranks (ordered: join takes the max)."""

    CONST = 0
    INVARIANT = 1
    AFFINE = 2
    DEPENDENT = 3


@dataclass(frozen=True)
class AbstractValue:
    """One lattice point, optionally with a symbolic rank function.

    ``value`` is meaningful only for ``CONST``.  ``term`` — when present —
    is a nested-tuple symbolic expression over ``rank`` evaluable with
    :func:`eval_term`; it means the runtime value equals
    ``eval_term(term, rank)`` on every execution.  ``affine`` documents
    the recovered ``(a, b, mod)`` coefficients of an AFFINE value.
    """

    kind: Rankness
    value: object = None
    term: tuple | None = None
    affine: tuple | None = None


_INV = AbstractValue(Rankness.INVARIANT)
_DEP = AbstractValue(Rankness.DEPENDENT)
_RANK = AbstractValue(
    Rankness.AFFINE, term=("rank",), affine=(1, 0, None)
)
#: ``nprocs`` in symbolic mode (``analyze_program(nprocs=None)``): an
#: unknown-but-rank-invariant value carrying the ``("P",)`` term, so every
#: verdict stays a closed function of (rank, P) —
#: :mod:`repro.analysis.scaleparam` instantiates them at any scale.
_P = AbstractValue(Rankness.INVARIANT, term=("P",))


def const_av(value: object) -> AbstractValue:
    return AbstractValue(Rankness.CONST, value=value, term=("const", value))


#: Defaulted (absent) optional argument: constant by definition.
_ABSENT = const_av(None)


def _same_const(a: object, b: object) -> bool:
    """Value equality that does not conflate 1 / 1.0 / True."""
    return type(a) is type(b) and a == b


def _terms_equal(a: tuple | None, b: tuple | None) -> bool:
    if a is None or b is None:
        return False
    if a is b:
        return True
    if a[0] != b[0] or len(a) != len(b):
        return False
    if a[0] == "const":
        return _same_const(a[1], b[1])
    return all(
        _terms_equal(x, y) if isinstance(x, tuple) else x == y
        for x, y in zip(a[1:], b[1:])
    )


def _term_size(term: tuple) -> int:
    return 1 + sum(_term_size(t) for t in term[1:] if isinstance(t, tuple))


def _capped(term: tuple | None) -> tuple | None:
    if term is not None and _term_size(term) > _MAX_TERM_SIZE:
        return None
    return term


def frame_names(term: tuple | None) -> frozenset[str]:
    """The locals a term reads through ``("frame", name)`` leaves."""
    out: set[str] = set()

    def walk(t: tuple) -> None:
        if t[0] == "frame":
            out.add(t[1])
            return
        for sub in t[1:]:
            if isinstance(sub, tuple):
                walk(sub)

    if term is not None:
        walk(term)
    return frozenset(out)


def closed_term(av: AbstractValue) -> tuple | None:
    """``av.term`` when it is a closed function of (rank, P), else None.

    A frame-bearing term needs the executing frame to evaluate; consumers
    with no frame at hand (the rank partition, the scale-parametric
    lint) must treat it exactly like a missing term.
    """
    return None if frame_names(av.term) else av.term


def _without_frame(av: AbstractValue, name: str | None = None) -> AbstractValue:
    """``av`` minus its term when that term reads ``name``'s frame leaf
    (any frame leaf when ``name`` is None); the kind stays."""
    names = frame_names(av.term)
    if names and (name is None or name in names):
        return replace(av, term=None)
    return av


def av_equal(x: AbstractValue, y: AbstractValue) -> bool:
    if x is y:
        return True
    if x.kind != y.kind:
        return False
    if x.kind is Rankness.CONST:
        return _same_const(x.value, y.value)
    if x.term is None and y.term is None:
        return True
    return _terms_equal(x.term, y.term)


def join(x: AbstractValue | None, y: AbstractValue | None) -> AbstractValue:
    """Least upper bound of two *path-equivalent* values.

    Only valid when both paths are taken identically on every rank (loop
    iterations, rank-invariant branches); rank-dependent merges go
    through ``_Analyzer._merge_branch`` which adds the condition taint.
    """
    if x is None:
        return y  # type: ignore[return-value]
    if y is None:
        return x
    if x is y:
        return x
    if x.kind is Rankness.CONST and y.kind is Rankness.CONST:
        if _same_const(x.value, y.value):
            return x
        return _INV
    if _terms_equal(x.term, y.term):
        return x if x.kind >= y.kind else y
    if x.kind <= Rankness.INVARIANT and y.kind <= Rankness.INVARIANT:
        return _INV
    return _DEP


# --------------------------------------------------------------------------
# concrete operator semantics (shared by constant folding and eval_term)
# --------------------------------------------------------------------------


def _apply_binop(op: str, a: object, b: object) -> object:
    """Exactly the interpreter's binary-operator semantics (exprcompile)."""
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "&&":
        return truthy(a) and truthy(b)
    if op == "||":
        return truthy(a) or truthy(b)
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        raise SimulationError(
            f"operator {op!r} needs numbers, got {a!r} and {b!r}"
        )
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "<":
        return a < b
    if op == ">":
        return a > b
    if op == "<=":
        return a <= b
    if op == ">=":
        return a >= b
    if op == "/":
        if b == 0:
            raise SimulationError("division by zero")
        if isinstance(a, int) and isinstance(b, int):
            return int(a / b)  # C-style truncation
        return a / b
    if op == "%":
        if b == 0:
            raise SimulationError("modulo by zero")
        return a % b
    raise SimulationError(f"unknown binary op {op!r}")


def _apply_unop(op: str, v: object) -> object:
    if op == "-":
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise SimulationError(f"cannot negate {v!r}")
        return -v
    if op == "!":
        return not truthy(v)
    raise SimulationError(f"unknown unary op {op!r}")


def _apply_call(name: str, args: list) -> object:
    if name == "hashrand":
        return hashrand(tuple(args))
    impl = BUILTIN_IMPL[name]
    try:
        return impl(*args)
    except (TypeError, ValueError) as exc:
        raise SimulationError(f"{name}(): {exc}") from exc


def _trip_count(cmp: str, delta: int, start: object, bound: object) -> int:
    """Closed-form iteration count of ``for (x = start; x cmp bound; x += delta)``."""
    if not isinstance(start, int) or not isinstance(bound, int):
        raise SimulationError("non-integer loop bounds")
    if cmp in ("<", "<="):
        span = bound - start + (1 if cmp == "<=" else 0)
        if delta <= 0:
            if span > 0:
                raise SimulationError("non-terminating loop")
            return 0
        return max(0, -((-span) // delta))
    if cmp in (">", ">="):
        span = start - bound + (1 if cmp == ">=" else 0)
        if delta >= 0:
            if span > 0:
                raise SimulationError("non-terminating loop")
            return 0
        return max(0, -((-span) // (-delta)))
    raise SimulationError(f"uncountable loop comparison {cmp!r}")


def eval_term(
    term: tuple,
    rank: int,
    nprocs: int | None = None,
    env: Mapping[str, object] | None = None,
) -> object:
    """Evaluate a symbolic rank function for one concrete rank.

    ``nprocs`` binds the symbolic ``("P",)`` scale parameter produced by
    :func:`analyze_program` in symbolic mode; ``env`` binds ``("var", name)``
    iteration variables used by :mod:`repro.analysis.commgraph` families
    and ``("frame", name)`` locals of the executing frame.
    Raises :class:`SimulationError` exactly where the interpreter would
    (division by zero, type errors, an unbound symbol) — callers degrade
    on failure.
    """
    tag = term[0]
    if tag == "const":
        return term[1]
    if tag == "rank":
        return rank
    if tag == "P":
        if nprocs is None:
            raise SimulationError("term uses symbolic nprocs with no scale bound")
        return nprocs
    if tag in ("var", "frame"):
        if env is None or term[1] not in env:
            raise SimulationError(f"term uses unbound variable {term[1]!r}")
        return env[term[1]]
    if tag == "bin":
        op = term[1]
        # short-circuit like the interpreter: the right operand of a
        # decided &&/|| is never evaluated (and so may never raise)
        if op == "&&":
            if not truthy(eval_term(term[2], rank, nprocs, env)):
                return False
            return truthy(eval_term(term[3], rank, nprocs, env))
        if op == "||":
            if truthy(eval_term(term[2], rank, nprocs, env)):
                return True
            return truthy(eval_term(term[3], rank, nprocs, env))
        return _apply_binop(
            op,
            eval_term(term[2], rank, nprocs, env),
            eval_term(term[3], rank, nprocs, env),
        )
    if tag == "un":
        return _apply_unop(term[1], eval_term(term[2], rank, nprocs, env))
    if tag == "call":
        return _apply_call(
            term[1], [eval_term(t, rank, nprocs, env) for t in term[2:]]
        )
    if tag == "sel":
        if truthy(eval_term(term[1], rank, nprocs, env)):
            return eval_term(term[2], rank, nprocs, env)
        return eval_term(term[3], rank, nprocs, env)
    if tag == "trip":
        return _trip_count(
            term[1], term[2],
            eval_term(term[3], rank, nprocs, env),
            eval_term(term[4], rank, nprocs, env),
        )
    raise SimulationError(f"unknown term tag {tag!r}")


# --------------------------------------------------------------------------
# affine coefficient tracking
# --------------------------------------------------------------------------


def _affine_form(av: AbstractValue) -> tuple | None:
    """The value as (a, b, mod) over ints, or None."""
    if av.affine is not None:
        return av.affine
    if av.kind is Rankness.CONST and isinstance(av.value, int) \
            and not isinstance(av.value, bool):
        return (0, av.value, None)
    return None


def _affine_binop(op: str, left: AbstractValue, right: AbstractValue) -> tuple | None:
    la, ra = _affine_form(left), _affine_form(right)
    if la is None or ra is None:
        return None
    (a1, b1, m1), (a2, b2, m2) = la, ra
    if op == "+" and m1 is None and m2 is None:
        return (a1 + a2, b1 + b2, None)
    if op == "-" and m1 is None and m2 is None:
        return (a1 - a2, b1 - b2, None)
    if op == "*" and m1 is None and m2 is None and (a1 == 0 or a2 == 0):
        if a1 == 0:
            return (b1 * a2, b1 * b2, None)
        return (a1 * b2, b1 * b2, None)
    if op == "%" and m1 is None and a2 == 0 and m2 is None and b2 > 0:
        return (a1, b1, b2)
    return None


def _affine_result(form: tuple, term: tuple | None) -> AbstractValue:
    a, b, mod = form
    if a == 0:
        return const_av(b if mod is None else b % mod)
    return AbstractValue(Rankness.DEPENDENT if term is None else Rankness.AFFINE,
                         term=term, affine=form) \
        if term is None else AbstractValue(Rankness.AFFINE, term=term, affine=form)


# --------------------------------------------------------------------------
# analysis results
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Decider:
    """An observable rank-dependent control decision.

    ``kind`` is ``"branch"`` (an ``if`` whose arms emit ops), ``"loop"``
    (a countable ``for`` whose trip count varies by rank — the term then
    evaluates to the per-rank iteration count) or ``"call"`` (an indirect
    call with a rank-dependent target).  ``av`` is the joined abstract
    condition; a missing ``av.term`` makes the partition degrade.
    """

    stmt_id: int
    location: object
    kind: str
    av: AbstractValue


@dataclass
class RankAnalysis:
    """Everything one whole-program dataflow run produced.

    ``nprocs`` is ``None`` for a *symbolic* run (``analyze_program`` with
    ``nprocs=None``): verdicts and terms are then closed over the extra
    ``("P",)`` symbol and hold for every scale — see
    :mod:`repro.analysis.scaleparam`.
    """

    program: ast.Program
    nprocs: int | None
    params: dict
    entry: str
    #: id(expr node) -> joined verdict (the program object pins the ids)
    expr_verdicts: dict[int, AbstractValue]
    #: stmt_id -> joined AVs of the statement's op-captured arguments, in
    #: the same order the interpreter captures them (None entries become
    #: the CONST placeholder) — only MPI and compute statements appear
    stmt_args: dict[int, tuple[AbstractValue, ...]]
    #: statements whose every captured argument is CONST: their op record
    #: is identical on every rank and every execution (a precision summary
    #: of the analysis; the simulator does not consume it)
    const_stmts: frozenset[int]
    deciders: dict[int, Decider]
    degraded_reasons: tuple[str, ...]

    @property
    def degraded(self) -> str | None:
        """First reason the rank partition cannot be trusted (None = ok)."""
        return self.degraded_reasons[0] if self.degraded_reasons else None

    def verdict_of(self, expr: ast.Expr) -> AbstractValue | None:
        """The joined abstract value of one expression node (None when the
        expression was never reached from the entry)."""
        return self.expr_verdicts.get(id(expr))

    def classify_stmt(self, stmt_id: int) -> Rankness | None:
        """Worst-case rankness over a statement's captured arguments."""
        avs = self.stmt_args.get(stmt_id)
        if avs is None:
            return None
        return max((av.kind for av in avs), default=Rankness.CONST)


def mpi_arg_exprs(stmt: ast.MpiStmt) -> tuple[ast.Expr | None, ...]:
    """The expressions an MpiStmt's op record captures, in capture order
    (mirrors ``Interpreter._compile_mpi``)."""
    op = stmt.op
    if op in (ast.MpiOp.SEND, ast.MpiOp.ISEND):
        return (stmt.dest, stmt.tag, stmt.bytes_expr)
    if op in (ast.MpiOp.RECV, ast.MpiOp.IRECV):
        return (stmt.src, stmt.tag)
    if op is ast.MpiOp.SENDRECV:
        return (stmt.dest, stmt.tag, stmt.bytes_expr,
                stmt.recv_src, stmt.recv_tag)
    if op in ast.WAIT_OPS:
        return ()
    return (stmt.root, stmt.bytes_expr)


def _compute_arg_exprs(stmt: ast.ComputeStmt) -> tuple[ast.Expr | None, ...]:
    return (stmt.flops, stmt.mem_bytes, stmt.locality, stmt.threads)


class _BudgetExceeded(Exception):
    pass


def _walk_exprs(stmt: ast.Stmt) -> Iterator[ast.Expr]:
    """Top-level expressions of one statement (not recursing into blocks)."""
    if isinstance(stmt, ast.VarDecl):
        if stmt.init is not None:
            yield stmt.init
    elif isinstance(stmt, ast.Assign):
        yield stmt.value
    elif isinstance(stmt, (ast.IfStmt, ast.WhileStmt)):
        yield stmt.cond
    elif isinstance(stmt, ast.ForStmt):
        if stmt.cond is not None:
            yield stmt.cond
    elif isinstance(stmt, ast.ReturnStmt):
        if stmt.value is not None:
            yield stmt.value
    elif isinstance(stmt, ast.CallStmt):
        yield stmt.callee
        yield from stmt.args
    elif isinstance(stmt, ast.ComputeStmt):
        yield from (e for e in _compute_arg_exprs(stmt) if e is not None)
    elif isinstance(stmt, ast.MpiStmt):
        yield from (e for e in mpi_arg_exprs(stmt) if e is not None)


def _address_taken(program: ast.Program) -> set[str]:
    out: set[str] = set()

    def walk_expr(expr: ast.Expr) -> None:
        if isinstance(expr, ast.FuncRef):
            out.add(expr.name)
        elif isinstance(expr, ast.UnaryExpr):
            walk_expr(expr.operand)
        elif isinstance(expr, ast.BinaryExpr):
            walk_expr(expr.left)
            walk_expr(expr.right)
        elif isinstance(expr, ast.CallExpr):
            for a in expr.args:
                walk_expr(a)

    for func in program.functions.values():
        for stmt in ast.walk_statements(func.body):
            for expr in _walk_exprs(stmt):
                walk_expr(expr)
    return out


def _assigned_names(block: ast.Block) -> set[str]:
    """Every name a block (transitively) writes to its frame."""
    names: set[str] = set()
    for stmt in ast.walk_statements(block):
        if isinstance(stmt, (ast.VarDecl, ast.Assign)):
            names.add(stmt.name)
    return names


def _free_names(expr: ast.Expr, out: set[str]) -> None:
    if isinstance(expr, ast.VarRef):
        out.add(expr.name)
    elif isinstance(expr, ast.UnaryExpr):
        _free_names(expr.operand, out)
    elif isinstance(expr, ast.BinaryExpr):
        _free_names(expr.left, out)
        _free_names(expr.right, out)
    elif isinstance(expr, ast.CallExpr):
        for a in expr.args:
            _free_names(a, out)


# --------------------------------------------------------------------------
# the analyzer
# --------------------------------------------------------------------------


#: Key of the program-only facts in a caller's per-program cache.
_FACTS_KEY = "__rankdep_facts__"


def _program_facts(program: ast.Program, cache: dict | None) -> tuple:
    """(recursive functions, address-taken functions): scale- and
    params-independent, so one computation serves every analysis that
    shares ``cache``."""
    facts = cache.get(_FACTS_KEY) if cache is not None else None
    if facts is None:
        facts = (
            frozenset(build_call_graph(program).recursive_functions()),
            frozenset(_address_taken(program)),
        )
        if cache is not None:
            cache[_FACTS_KEY] = facts
    return facts


class _Analyzer:
    def __init__(
        self,
        program: ast.Program,
        nprocs: int | None,
        params: Mapping[str, object],
        entry: str,
        cache: dict | None = None,
    ) -> None:
        self.program = program
        self.nprocs = nprocs
        self.params = dict(params or {})
        self.entry = entry
        self.recursive, self.address_taken = _program_facts(program, cache)
        self.expr_verdicts: dict[int, AbstractValue] = {}
        self.stmt_args: dict[int, tuple[AbstractValue, ...]] = {}
        self.deciders: dict[int, Decider] = {}
        self.degraded: list[str] = []
        self._emits_block: dict[int, bool] = {}
        self._emits_func: dict[str, bool] = {}
        self._active: set[str] = set()
        self._summaries: set[tuple] = set()
        #: > 0 while a loop iterates towards its fixpoint: verdicts,
        #: degradations and callees are recorded only under the stable
        #: head state (a first iteration's constant terms would join the
        #: symbolic ones down to DEPENDENT; a callee cannot change the
        #: caller's frame, so the iterations need not visit it)
        self._quiet = 0
        #: every local that ever got a ("frame", name) leaf
        self._frame_vars: set[str] = set()
        self._steps = 0

    # -- recording -----------------------------------------------------

    def _record_expr(self, expr: ast.Expr, av: AbstractValue) -> None:
        if self._quiet:
            return
        key = id(expr)
        old = self.expr_verdicts.get(key)
        self.expr_verdicts[key] = av if old is None else join(old, av)

    def _record_stmt_args(self, stmt: ast.Stmt, avs: tuple) -> None:
        if self._quiet:
            return
        old = self.stmt_args.get(stmt.stmt_id)
        self.stmt_args[stmt.stmt_id] = (
            avs if old is None
            else tuple(join(a, b) for a, b in zip(old, avs))
        )

    def _record_decider(
        self, stmt: ast.Stmt, kind: str, av: AbstractValue
    ) -> None:
        if self._quiet:
            return
        old = self.deciders.get(stmt.stmt_id)
        joined = av if old is None else join(old.av, av)
        self.deciders[stmt.stmt_id] = Decider(
            stmt_id=stmt.stmt_id, location=stmt.location, kind=kind, av=joined
        )

    def _degrade(self, stmt: ast.Stmt, reason: str) -> None:
        if self._quiet:
            return
        self.degraded.append(f"{stmt.location}: {reason}")

    # -- observability -------------------------------------------------

    def _func_emits(self, name: str, _active: set | None = None) -> bool:
        memo = self._emits_func
        if name in memo:
            return memo[name]
        func = self.program.functions.get(name)
        if func is None:
            return False
        active = _active if _active is not None else set()
        if name in active:
            return True  # conservative on recursion
        active.add(name)
        result = self._block_emits(func.body, active)
        active.discard(name)
        memo[name] = result
        return result

    def _block_emits(self, block: ast.Block, active: set | None = None) -> bool:
        memo = self._emits_block
        key = id(block)
        if active is None and key in memo:
            return memo[key]
        result = False
        for stmt in block.statements:
            if isinstance(stmt, (ast.MpiStmt, ast.ComputeStmt)):
                result = True
            elif isinstance(stmt, ast.CallStmt):
                callee = stmt.callee
                result = (
                    self._func_emits(callee.name, active)
                    if isinstance(callee, ast.VarRef)
                    and callee.name in self.program.functions
                    else True  # unknown target: assume it emits
                )
            elif isinstance(stmt, ast.IfStmt):
                result = self._block_emits(stmt.then_body, active) or (
                    stmt.else_body is not None
                    and self._block_emits(stmt.else_body, active)
                )
            elif isinstance(stmt, (ast.ForStmt, ast.WhileStmt)):
                result = self._block_emits(stmt.body, active)
            if result:
                break
        if active is None:
            memo[key] = result
        return result

    # -- expression evaluation ----------------------------------------

    def _resolve_name(self, name: str, env: dict) -> AbstractValue:
        if name in env:
            return env[name]
        if name in self.params:
            return const_av(self.params[name])
        if name == "rank":
            return _RANK
        if name == "nprocs":
            # symbolic mode: keep the scale a closed symbol instead of a
            # constant, so terms stay evaluable at *any* P
            return const_av(self.nprocs) if self.nprocs is not None else _P
        return _DEP  # undefined at runtime: the interpreter raises

    def _eval(self, expr: ast.Expr, env: dict) -> AbstractValue:
        av = self._eval_inner(expr, env)
        self._record_expr(expr, av)
        return av

    def _eval_inner(self, expr: ast.Expr, env: dict) -> AbstractValue:
        # the two most common nodes first, by exact type (every lint
        # witness re-runs this evaluator; subclasses take the chain below)
        expr_type = type(expr)
        if expr_type is ast.BinaryExpr:
            return self._eval_binary(expr, env)
        if expr_type is ast.VarRef:
            return self._resolve_name(expr.name, env)
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.StringLit, ast.BoolLit)):
            return const_av(expr.value)
        if isinstance(expr, ast.AnyLit):
            return const_av(ops.ANY)
        if isinstance(expr, ast.FuncRef):
            from repro.simulator.interp import FuncRefValue

            return const_av(FuncRefValue(expr.name))
        if isinstance(expr, ast.VarRef):
            return self._resolve_name(expr.name, env)
        if isinstance(expr, ast.UnaryExpr):
            v = self._eval(expr.operand, env)
            if v.kind is Rankness.CONST:
                try:
                    return const_av(_apply_unop(expr.op, v.value))
                except Exception:
                    return _DEP  # raising expressions never fold
            term = None
            if v.term is not None:
                term = _capped(("un", expr.op, v.term))
            if expr.op == "-":
                form = _affine_form(v)
                if form is not None and form[2] is None:
                    return _affine_result(
                        (-form[0], -form[1], None), term
                    )
            if v.kind <= Rankness.INVARIANT:
                # keep the symbolic term: in symbolic-P mode INVARIANT
                # values (functions of P/params) no longer fold to CONST
                return AbstractValue(Rankness.INVARIANT, term=term)
            return AbstractValue(Rankness.DEPENDENT, term=term)
        if isinstance(expr, ast.BinaryExpr):
            return self._eval_binary(expr, env)
        if isinstance(expr, ast.CallExpr):
            avs = [self._eval(a, env) for a in expr.args]
            if all(a.kind is Rankness.CONST for a in avs):
                try:
                    return const_av(
                        _apply_call(expr.func, [a.value for a in avs])
                    )
                except Exception:
                    return _DEP
            term = None
            if all(a.term is not None for a in avs):
                term = _capped(
                    ("call", expr.func) + tuple(a.term for a in avs)
                )
            if all(a.kind <= Rankness.INVARIANT for a in avs):
                return AbstractValue(Rankness.INVARIANT, term=term)
            return AbstractValue(Rankness.DEPENDENT, term=term)
        return _DEP  # unknown node type: the interpreter raises on it

    def _eval_binary(self, expr: ast.BinaryExpr, env: dict) -> AbstractValue:
        op = expr.op
        left = self._eval(expr.left, env)
        # short-circuit: a decided && / || never evaluates its right side,
        # so fold on the left alone when possible (matching the runtime)
        if op in ("&&", "||") and left.kind is Rankness.CONST:
            try:
                lt = truthy(left.value)
            except Exception:
                self._eval(expr.right, env)  # still record the right side
                return _DEP
            if (op == "&&" and not lt) or (op == "||" and lt):
                self._eval(expr.right, env)
                return const_av(op == "||")
            right = self._eval(expr.right, env)
            if right.kind is Rankness.CONST:
                try:
                    return const_av(truthy(right.value))
                except Exception:
                    return _DEP
            term = None
            if right.term is not None:
                term = _capped(("bin", op, left.term, right.term))
            if right.kind <= Rankness.INVARIANT:
                return AbstractValue(Rankness.INVARIANT, term=term)
            return AbstractValue(Rankness.DEPENDENT, term=term)
        right = self._eval(expr.right, env)
        if left.kind is Rankness.CONST and right.kind is Rankness.CONST:
            try:
                return const_av(_apply_binop(op, left.value, right.value))
            except Exception:
                return _DEP
        term = None
        if left.term is not None and right.term is not None:
            term = _capped(("bin", op, left.term, right.term))
        if op in ("+", "-", "*", "%"):
            form = _affine_binop(op, left, right)
            if form is not None:
                return _affine_result(form, term)
        if left.kind <= Rankness.INVARIANT and right.kind <= Rankness.INVARIANT:
            return AbstractValue(Rankness.INVARIANT, term=term)
        return AbstractValue(Rankness.DEPENDENT, term=term)

    # -- environment merging -------------------------------------------

    def _merge_branch(
        self, env_t: dict, env_e: dict, cond_av: AbstractValue
    ) -> dict:
        """Merge the two arm environments of an if statement.

        Under a rank-dependent condition, any variable the arms disagree
        on becomes rank-dependent (with a ``sel`` term when both sides
        stayed symbolic).
        """
        rank_split = cond_av.kind >= Rankness.AFFINE
        out: dict = {}
        for name in set(env_t) | set(env_e):
            a = env_t[name] if name in env_t else self._resolve_name(name, {})
            b = env_e[name] if name in env_e else self._resolve_name(name, {})
            j = join(a, b)
            if rank_split and not av_equal(a, b):
                if a.term is not None and b.term is not None \
                        and cond_av.term is not None:
                    term = _capped(("sel", cond_av.term, a.term, b.term))
                    j = AbstractValue(Rankness.DEPENDENT, term=term)
                else:
                    j = _DEP
            out[name] = j
        return out

    def _invalidate(self, env: dict, names) -> None:
        """Drop every term in ``env`` that reads a frame leaf of one of
        ``names`` (their frame value changed, or may have on some path)."""
        for name in self._frame_vars.intersection(names):
            for key, av in env.items():
                env[key] = _without_frame(av, name)

    def _bind(self, env: dict, name: str, av: AbstractValue) -> None:
        """``name = av``: terms that read ``name``'s old frame value —
        including ``av``'s own (``s = s * 2``) — lose them."""
        env[name] = av
        self._invalidate(env, (name,))

    def _join_env(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for name in set(a) | set(b):
            x = a[name] if name in a else self._resolve_name(name, {})
            y = b[name] if name in b else self._resolve_name(name, {})
            out[name] = join(x, y)
        return out

    def _env_equal(self, a: dict, b: dict) -> bool:
        return set(a) == set(b) and all(av_equal(a[k], b[k]) for k in a)

    # -- statements -----------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > _MAX_STEPS:
            raise _BudgetExceeded

    def _analyze_block(self, block: ast.Block, env: dict) -> None:
        for stmt in block.statements:
            self._analyze_stmt(stmt, env)

    def _analyze_stmt(self, stmt: ast.Stmt, env: dict) -> None:
        self._tick()
        if isinstance(stmt, ast.VarDecl):
            self._bind(
                env, stmt.name,
                self._eval(stmt.init, env)
                if stmt.init is not None
                else const_av(0),
            )
            return
        if isinstance(stmt, ast.Assign):
            self._bind(env, stmt.name, self._eval(stmt.value, env))
            return
        if isinstance(stmt, (ast.ReturnStmt, ast.ComputeStmt, ast.MpiStmt)) \
                and self._quiet:
            # these write no local, and evaluation is pure: a loop's
            # fixpoint iterations would compute verdicts nobody records
            return
        if isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                self._eval(stmt.value, env)
            return  # treated as fall-through (join over paths is sound)
        if isinstance(stmt, ast.ComputeStmt):
            self._record_stmt_args(
                stmt,
                tuple(
                    self._eval(e, env) if e is not None else _ABSENT
                    for e in _compute_arg_exprs(stmt)
                ),
            )
            return
        if isinstance(stmt, ast.MpiStmt):
            self._record_stmt_args(
                stmt,
                tuple(
                    self._eval(e, env) if e is not None else _ABSENT
                    for e in mpi_arg_exprs(stmt)
                ),
            )
            return
        if isinstance(stmt, ast.IfStmt):
            self._analyze_if(stmt, env)
            return
        if isinstance(stmt, ast.ForStmt):
            self._analyze_for(stmt, env)
            return
        if isinstance(stmt, ast.WhileStmt):
            self._analyze_while(stmt, env)
            return
        if isinstance(stmt, ast.CallStmt):
            self._analyze_call(stmt, env)
            return

    def _analyze_if(self, stmt: ast.IfStmt, env: dict) -> None:
        cond_av = self._eval(stmt.cond, env)
        if cond_av.kind is Rankness.CONST:
            try:
                taken = truthy(cond_av.value)
            except Exception:
                taken = None  # invalid condition: runtime raises
            if taken is True:
                self._analyze_block(stmt.then_body, env)
                return
            if taken is False:
                if stmt.else_body is not None:
                    self._analyze_block(stmt.else_body, env)
                return
        env_t = dict(env)
        self._analyze_block(stmt.then_body, env_t)
        env_e = dict(env)
        if stmt.else_body is not None:
            self._analyze_block(stmt.else_body, env_e)
        merged = self._merge_branch(env_t, env_e, cond_av)
        # a frame leaf stands for a rank-invariant frame value; a local
        # assigned in either arm may now differ across ranks (and the
        # condition read its pre-branch value), so no term keeps it
        written = _assigned_names(stmt.then_body)
        if stmt.else_body is not None:
            written |= _assigned_names(stmt.else_body)
        self._invalidate(merged, written)
        env.clear()
        env.update(merged)
        if cond_av.kind >= Rankness.AFFINE:
            observable = self._block_emits(stmt.then_body) or (
                stmt.else_body is not None
                and self._block_emits(stmt.else_body)
            )
            if observable:
                self._record_decider(stmt, "branch", cond_av)

    def _loop_fixpoint(self, stmt, env: dict, run_body) -> AbstractValue:
        """Join-over-iterations fixpoint; returns the joined condition AV.

        ``run_body`` analyzes one abstract iteration (body, or body +
        step) into a given environment and returns that iteration's
        condition AV (None for condition-less loops).
        """
        written = _assigned_names(stmt.body)
        if isinstance(stmt, ast.ForStmt) and stmt.step is not None:
            written.add(stmt.step.name)
        # loop-carried locals already in the frame at the loop head
        carried = written & set(env)
        cond_joined: AbstractValue | None = None
        state = dict(env)
        self._quiet += 1
        try:
            for _ in range(_MAX_LOOP_ITERS):
                body_env = dict(state)
                cond_av = run_body(body_env)
                cond_joined = join(cond_joined, cond_av) \
                    if cond_av is not None else cond_joined
                new_state = self._join_env(state, body_env)
                for name in carried:
                    leaf = self._head_leaf(name, state[name], body_env[name])
                    if leaf is not None:
                        new_state[name] = leaf
                if self._env_equal(new_state, state):
                    break
                state = new_state
            else:
                # forced widening: anything still moving becomes unknown
                body_env = dict(state)
                run_body(body_env)
                state = {
                    name: (state[name] if name in state and (
                        av_equal(state[name], body_env.get(name, _DEP))
                        or name in carried
                        and self._is_head_leaf(name, state[name], body_env[name])
                    ) else _DEP)
                    for name in set(state) | set(body_env)
                }
        finally:
            self._quiet -= 1
        run_body(dict(state))  # record under the stable head state
        cond_final = cond_joined if cond_joined is not None else const_av(True)
        if cond_final.kind >= Rankness.AFFINE:
            # rank-dependent trip count: every variable the loop body can
            # write diverges across ranks after the loop — unless it holds
            # one constant throughout (equal INVARIANT verdicts may still
            # be different values: ranks that skip the body keep theirs)
            for name in written:
                before = env.get(name)
                after = state.get(name)
                if before is None or after is None \
                        or before.kind is not Rankness.CONST \
                        or not av_equal(before, after):
                    state[name] = _DEP
            self._invalidate(state, written)
        env.clear()
        env.update(state)
        return cond_final

    def _head_leaf(
        self, name: str, before: AbstractValue, after: AbstractValue
    ) -> AbstractValue | None:
        """The loop-head value of a carried local whose iterations
        disagree while staying rank-invariant: the ``("frame", name)``
        leaf (None when the plain join applies)."""
        if before.kind <= Rankness.INVARIANT \
                and after.kind <= Rankness.INVARIANT \
                and not av_equal(before, after):
            self._frame_vars.add(name)
            return AbstractValue(Rankness.INVARIANT, term=("frame", name))
        return None

    def _is_head_leaf(
        self, name: str, before: AbstractValue, after: AbstractValue
    ) -> bool:
        """Is ``before`` already the stable head leaf of ``name``?"""
        leaf = self._head_leaf(name, before, after)
        return leaf is not None and av_equal(before, leaf)

    def _analyze_while(self, stmt: ast.WhileStmt, env: dict) -> None:
        first_cond = self._eval(stmt.cond, env)
        if first_cond.kind is Rankness.CONST:
            try:
                if not truthy(first_cond.value):
                    return  # loop never runs
            except Exception:
                return  # invalid condition: runtime raises before the body

        def run_body(body_env: dict) -> AbstractValue:
            self._analyze_block(stmt.body, body_env)
            return self._eval(stmt.cond, body_env)

        cond_joined = join(first_cond, self._loop_fixpoint(stmt, env, run_body))
        if cond_joined.kind >= Rankness.AFFINE and self._block_emits(stmt.body):
            self._record_decider(stmt, "loop", _DEP)
            self._degrade(
                stmt, "while loop with rank-dependent condition emits ops"
            )

    def _analyze_for(self, stmt: ast.ForStmt, env: dict) -> None:
        if stmt.init is not None:
            self._analyze_stmt(stmt.init, env)
        entry_env = dict(env)
        first_cond = (
            self._eval(stmt.cond, env) if stmt.cond is not None else None
        )
        if first_cond is not None and first_cond.kind is Rankness.CONST:
            try:
                if not truthy(first_cond.value):
                    return
            except Exception:
                return

        def run_body(body_env: dict) -> AbstractValue | None:
            self._analyze_block(stmt.body, body_env)
            if stmt.step is not None:
                self._analyze_stmt(stmt.step, body_env)
            if stmt.cond is not None:
                return self._eval(stmt.cond, body_env)
            return None

        cond_joined = join(
            first_cond, self._loop_fixpoint(stmt, env, run_body)
        )
        if cond_joined.kind >= Rankness.AFFINE and (
            self._block_emits(stmt.body)
        ):
            trip = self._countable_trip(stmt, entry_env)
            if trip is not None:
                self._record_decider(
                    stmt, "loop",
                    AbstractValue(Rankness.DEPENDENT, term=trip),
                )
            else:
                self._record_decider(stmt, "loop", _DEP)
                self._degrade(
                    stmt,
                    "rank-dependent loop bound is not a countable "
                    "for-pattern",
                )

    def _countable_trip(
        self, stmt: ast.ForStmt, entry_env: dict
    ) -> tuple | None:
        """A ('trip', cmp, delta, init, bound) term for the classic
        ``for (x = e0; x cmp e1; x = x +/- c)`` shape, else None."""
        init, cond, step = stmt.init, stmt.cond, stmt.step
        if init is None or cond is None or step is None:
            return None
        if not isinstance(init, (ast.VarDecl, ast.Assign)):
            return None
        var = init.name
        init_expr = init.init if isinstance(init, ast.VarDecl) else init.value
        if init_expr is None:
            return None
        if not (
            isinstance(cond, ast.BinaryExpr)
            and cond.op in ("<", "<=", ">", ">=")
            and isinstance(cond.left, ast.BinaryExpr) is False
            and isinstance(cond.left, ast.VarRef)
            and cond.left.name == var
        ):
            return None
        # step must be x = x + c or x = x - c with an integer literal c
        if not (
            isinstance(step, ast.Assign)
            and step.name == var
            and isinstance(step.value, ast.BinaryExpr)
            and step.value.op in ("+", "-")
            and isinstance(step.value.left, ast.VarRef)
            and step.value.left.name == var
            and isinstance(step.value.right, ast.IntLit)
        ):
            return None
        delta = step.value.right.value
        if step.value.op == "-":
            delta = -delta
        if delta == 0:
            return None
        # the body must not write the loop variable or the bound's inputs
        written = _assigned_names(stmt.body)
        if var in written:
            return None
        bound_free: set[str] = set()
        _free_names(cond.right, bound_free)
        if bound_free & written:
            return None
        init_term = closed_term(self._eval(init_expr, entry_env))
        bound_term = closed_term(self._eval(cond.right, entry_env))
        if init_term is None or bound_term is None:
            return None
        return _capped(("trip", cond.op, delta, init_term, bound_term))

    def _analyze_call(self, stmt: ast.CallStmt, env: dict) -> None:
        if self._quiet:
            return
        # the callee runs in a fresh frame: caller frame leaves mean
        # nothing there (a parameter may even shadow the caller's name)
        arg_avs = [_without_frame(self._eval(a, env)) for a in stmt.args]
        callee = stmt.callee
        target: str | None = None
        if isinstance(callee, ast.VarRef) \
                and callee.name in self.program.functions:
            target = callee.name
        else:
            from repro.simulator.interp import FuncRefValue

            callee_av = self._eval(callee, env)
            if callee_av.kind is Rankness.CONST \
                    and isinstance(callee_av.value, FuncRefValue):
                target = callee_av.value.name
            elif callee_av.kind >= Rankness.AFFINE:
                # different ranks may call different functions
                self._record_decider(stmt, "call", callee_av)
                self._degrade(
                    stmt, "indirect call with rank-dependent target"
                )
                return
            else:
                # unknown-but-rank-invariant target: every rank calls the
                # same function; its body was pre-analyzed pessimistically
                # (address-taken), so nothing more to do here
                return
        func = self.program.functions.get(target)
        if func is None or len(func.params) != len(stmt.args):
            return  # runtime error; nothing executes past it
        if target in self._active or target in self.recursive:
            return  # covered by the pessimistic pre-analysis
        key = (target,) + tuple(
            (av.kind, type(av.value).__name__, av.value, av.term)
            if av.kind is Rankness.CONST
            else (av.kind, av.term)
            for av in arg_avs
        )
        with contextlib.suppress(TypeError):  # unhashable: just re-analyze
            hash(key)
            if key in self._summaries:
                return  # same abstract context already analyzed
            self._summaries.add(key)
        self._analyze_function(target, dict(zip(func.params, arg_avs)))

    def _analyze_function(self, name: str, env: dict) -> None:
        func = self.program.functions[name]
        self._active.add(name)
        try:
            self._analyze_block(func.body, env)
        finally:
            self._active.discard(name)

    # -- driver ----------------------------------------------------------

    def run(self) -> RankAnalysis:
        # recursive and address-taken functions: one pessimistic pass each
        # (all parameters unknown) so their statements are covered no
        # matter who calls them with what
        pessimistic = sorted(
            (self.recursive | self.address_taken)
            & set(self.program.functions)
        )
        for name in pessimistic:
            func = self.program.functions[name]
            self._analyze_function(
                name, {p: _DEP for p in func.params}
            )
        entry = self.program.functions.get(self.entry)
        if entry is not None and not entry.params:
            self._analyze_function(self.entry, {})
        const_stmts = frozenset(
            sid
            for sid, avs in self.stmt_args.items()
            if all(av.kind is Rankness.CONST for av in avs)
        )
        return RankAnalysis(
            program=self.program,
            nprocs=self.nprocs,
            params=self.params,
            entry=self.entry,
            expr_verdicts=self.expr_verdicts,
            stmt_args=self.stmt_args,
            const_stmts=const_stmts,
            deciders=self.deciders,
            degraded_reasons=tuple(dict.fromkeys(self.degraded)),
        )


def analyze_program(
    program: ast.Program,
    nprocs: int | None,
    params: Mapping[str, object] | None = None,
    *,
    entry: str = "main",
    cache: dict | None = None,
) -> RankAnalysis:
    """Run the whole-program rank-dependence dataflow at one scale.

    ``nprocs=None`` runs the *symbolic* variant: ``nprocs`` stays an
    opaque rank-invariant symbol (term ``("P",)``) instead of a folded
    constant, so one dataflow run produces terms valid at every scale —
    pass them to :func:`eval_term` with a concrete ``nprocs``.  Precision
    only ever shrinks versus a concrete run (branches on ``nprocs`` are
    joined instead of decided), so every symbolic verdict is sound at
    every concrete scale.

    Total: never raises on valid ASTs.  When the internal step budget is
    exhausted (pathological programs) the result is fully degraded — an
    empty ``const_stmts`` and a degradation reason — which every consumer
    treats as "assume nothing".

    ``cache`` is a per-program memo dict (the lint passes its compile
    cache) that keeps the call-graph facts across analyses of the same
    program at several scales.
    """
    analyzer = _Analyzer(program, nprocs, params or {}, entry, cache)
    try:
        return analyzer.run()
    except _BudgetExceeded:
        return RankAnalysis(
            program=program,
            nprocs=nprocs,
            params=dict(params or {}),
            entry=entry,
            expr_verdicts=analyzer.expr_verdicts,
            stmt_args={},
            const_stmts=frozenset(),
            deciders=analyzer.deciders,
            degraded_reasons=("analysis step budget exceeded",),
        )
