"""Parametric communication graph: symbolic edge families over (rank, P).

Where :mod:`repro.analysis.rankdep` answers "how does this *expression*
depend on the rank?", this module recovers the program's communication
*structure* with the process count left symbolic: every MPI statement
becomes a :class:`CommFamily` — its argument expressions as closed
symbolic terms over ``rank``, ``P`` and enclosing loop variables, the
loop nest as iteration-space descriptors, and the path condition as a
guard term.  A family set instantiates at any concrete ``P`` in time
proportional to the edges *produced* (O(edges), never O(P²) pair
enumeration), which is what

* the static scaling skeleton (closed-form message/collective counts as
  functions of P) surfaces in reports, and
* the static match-order analysis (:mod:`repro.analysis.matchorder`)
  builds its happens-before relation over.

The builder is **binary**: either the whole walk stays closed
(``graph.exact``) or one opaque construct — an uncountable loop that
emits, a loop-carried value reaching an endpoint, an early return, an
indirect call, recursion — degrades the entire graph with a recorded
reason, exactly the ``partition_ranks`` degradation discipline.  A
degraded graph never guesses: ``instantiate`` refuses and callers fall
back to concrete extraction (:func:`extract_concrete`, the per-rank
interpreter oracle the property tests equate against).

Instantiation mirrors the interpreter's argument coercions bit for bit
(C-style int semantics via :func:`repro.analysis.rankdep.eval_term`,
range/type checks, ``int(nbytes)`` with default 0, collective root
default 0, sendrecv splitting into a send/recv pair) so the equality
``graph.instantiate(P) == extract_concrete(program, psg, P)`` is exact,
not approximate — property-tested across the randomized corpus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.minilang import ast_nodes as ast
from repro.psg.graph import PSG
from repro.simulator import ops
from repro.simulator.errors import MpiUsageError, SimulationError
from repro.simulator.exprcompile import truthy

from repro.analysis.rankdep import _assigned_names, _free_names, eval_term

__all__ = [
    "CommFamily",
    "CommGraph",
    "CommInstance",
    "LoopSpec",
    "ScalingSkeleton",
    "build_comm_graph",
    "extract_concrete",
]

#: term-size cap: beyond this the walk degrades instead of building
#: unboundedly large symbolic expressions
_MAX_TERM_NODES = 512
#: family-count cap (runaway inlining backstop)
_MAX_FAMILIES = 4096
#: iteration cap while *walking* nested const loops is not needed (the
#: walk visits each body once); this caps *instantiation* work instead
_MAX_INSTANCE_OPS = 2_000_000

#: sentinel for variables whose value the walk cannot express
_POISON = ("var", "!opaque")


class _Opaque(Exception):
    """The walk left the closed-form fragment; the graph degrades."""


# --------------------------------------------------------------------------
# the symbolic families
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LoopSpec:
    """One countable enclosing loop: ``for (var = init; var cmp bound;
    var += delta)`` with ``init``/``bound`` as symbolic terms (they may
    reference outer loop variables)."""

    var: str
    cmp: str
    delta: int
    init: tuple
    bound: tuple


@dataclass(frozen=True)
class CommFamily:
    """One MPI statement as a symbolic edge family.

    ``args`` holds ``(name, term)`` pairs whose names depend on ``kind``:
    send -> dest/tag/nbytes; recv -> src/tag; sendrecv -> dest/tag/
    nbytes/src/recv_tag; collective -> root/nbytes (terms may be None
    for defaulted arguments: nbytes -> 0, root -> 0).
    """

    stmt_id: int
    location: str
    op: ast.MpiOp
    kind: str  # "send" | "recv" | "sendrecv" | "collective"
    blocking: bool
    args: tuple
    loops: tuple
    guard: tuple | None
    #: loop variables the guard/args actually reference; loops not in
    #: here contribute a pure multiplicity (the O(edges) fast path)
    free_vars: frozenset

    def arg(self, name: str) -> tuple | None:
        for key, term in self.args:
            if key == name:
                return term
        return None


@dataclass
class CommInstance:
    """A concrete communication multiset at one scale.

    Keys mirror exactly what the interpreter emits: sends as
    ``(rank, dest, tag, nbytes, blocking)``, receive posts as
    ``(rank, src, tag, blocking)`` (``src``/``tag`` may be ``ops.ANY``),
    collectives as ``(rank, op name, root, nbytes)``; values are
    occurrence counts.
    """

    nprocs: int
    sends: dict = field(default_factory=dict)
    recvs: dict = field(default_factory=dict)
    collectives: dict = field(default_factory=dict)

    def total_ops(self) -> int:
        return (
            sum(self.sends.values())
            + sum(self.recvs.values())
            + sum(self.collectives.values())
        )


# --------------------------------------------------------------------------
# the builder walk
# --------------------------------------------------------------------------


def _term_size(term: tuple) -> int:
    if not isinstance(term, tuple):
        return 1
    return 1 + sum(_term_size(t) for t in term[1:])


def _conj(a: tuple | None, b: tuple) -> tuple:
    return b if a is None else ("bin", "&&", a, b)


def _neg(t: tuple) -> tuple:
    return ("un", "!", t)


def _block_emits(block: ast.Block) -> bool:
    """Conservative: MPI statements or user calls inside mean the block
    can communicate."""
    return any(
        isinstance(stmt, (ast.MpiStmt, ast.CallStmt))
        for stmt in ast.walk_statements(block)
    )


def _early_return(func: ast.FunctionDef) -> bool:
    """True when a ReturnStmt occurs anywhere but as the final top-level
    statement — a control shape the single-pass walk cannot honor."""
    top = func.body.statements
    last = top[-1] if top else None
    return any(
        isinstance(stmt, ast.ReturnStmt) and stmt is not last
        for stmt in ast.walk_statements(func.body)
    )


class _GraphBuilder:
    def __init__(self, program: ast.Program, params: Mapping[str, object],
                 entry: str):
        self.program = program
        self.params = dict(params)
        self.entry = entry
        self.families: list = []
        self.call_stack: list = []

    # -- expressions -> terms -------------------------------------------

    def _name_term(self, name: str, env: dict) -> tuple:
        # resolution order mirrors the interpreter (and rankdep):
        # locals, then params, then the rank/nprocs builtins
        if name in env:
            term = env[name]
            if term is _POISON:
                raise _Opaque(f"variable {name!r} has no closed form here")
            return term
        if name in self.params:
            return ("const", self.params[name])
        if name == "rank":
            return ("rank",)
        if name == "nprocs":
            return ("P",)
        raise _Opaque(f"undefined variable {name!r}")

    def _term(self, expr: ast.Expr, env: dict) -> tuple:
        if isinstance(
            expr, (ast.IntLit, ast.FloatLit, ast.StringLit, ast.BoolLit)
        ):
            return ("const", expr.value)
        if isinstance(expr, ast.AnyLit):
            return ("const", ops.ANY)
        if isinstance(expr, ast.VarRef):
            return self._name_term(expr.name, env)
        if isinstance(expr, ast.UnaryExpr):
            return ("un", expr.op, self._term(expr.operand, env))
        if isinstance(expr, ast.BinaryExpr):
            term = (
                "bin", expr.op,
                self._term(expr.left, env), self._term(expr.right, env),
            )
            if _term_size(term) > _MAX_TERM_NODES:
                raise _Opaque("symbolic term too large")
            return term
        if isinstance(expr, ast.CallExpr):
            return ("call", expr.func) + tuple(
                self._term(a, env) for a in expr.args
            )
        if isinstance(expr, ast.FuncRef):
            raise _Opaque("first-class function reference")
        raise _Opaque(f"expression {type(expr).__name__}")

    # -- statements ------------------------------------------------------

    def _emit(self, stmt: ast.MpiStmt, env: dict, loops: tuple,
              guard: tuple | None) -> None:
        if stmt.op in ast.WAIT_OPS:
            return  # no edges; request hygiene is the lint's business
        if len(self.families) >= _MAX_FAMILIES:
            raise _Opaque("family budget exceeded")

        def t(expr):
            return None if expr is None else self._term(expr, env)

        if stmt.op in (ast.MpiOp.SEND, ast.MpiOp.ISEND):
            kind = "send"
            args = (
                ("dest", t(stmt.dest)), ("tag", t(stmt.tag)),
                ("nbytes", t(stmt.bytes_expr)),
            )
            blocking = stmt.op is ast.MpiOp.SEND
        elif stmt.op in (ast.MpiOp.RECV, ast.MpiOp.IRECV):
            kind = "recv"
            args = (("src", t(stmt.src)), ("tag", t(stmt.tag)))
            blocking = stmt.op is ast.MpiOp.RECV
        elif stmt.op is ast.MpiOp.SENDRECV:
            kind = "sendrecv"
            args = (
                ("dest", t(stmt.dest)), ("tag", t(stmt.tag)),
                ("nbytes", t(stmt.bytes_expr)),
                ("src", t(stmt.recv_src)), ("recv_tag", t(stmt.recv_tag)),
            )
            blocking = True
        else:  # collective
            kind = "collective"
            args = (("root", t(stmt.root)), ("nbytes", t(stmt.bytes_expr)))
            blocking = True

        free: set = set()
        loop_vars = {spec.var for spec in loops}
        for term in [term for _, term in args] + [guard]:
            _free_loop_vars(term, loop_vars, free)
        self.families.append(CommFamily(
            stmt_id=stmt.stmt_id,
            location=str(stmt.location),
            op=stmt.op,
            kind=kind,
            blocking=blocking,
            args=args,
            loops=loops,
            guard=guard,
            free_vars=frozenset(free),
        ))

    def _walk_block(self, block: ast.Block, env: dict, loops: tuple,
                    guard: tuple | None) -> None:
        for stmt in block.statements:
            self._walk_stmt(stmt, env, loops, guard)

    def _walk_stmt(self, stmt: ast.Stmt, env: dict, loops: tuple,
                   guard: tuple | None) -> None:
        if isinstance(stmt, (ast.VarDecl, ast.Assign)):
            value = stmt.init if isinstance(stmt, ast.VarDecl) else stmt.value
            if value is None:
                env[stmt.name] = _POISON
                return
            try:
                env[stmt.name] = self._term(value, env)
            except _Opaque:
                # only degrade if the value ever reaches an endpoint
                env[stmt.name] = _POISON
            return
        if isinstance(stmt, ast.ComputeStmt):
            return  # no communication
        if isinstance(stmt, ast.MpiStmt):
            self._emit(stmt, env, loops, guard)
            return
        if isinstance(stmt, ast.IfStmt):
            try:
                cond = self._term(stmt.cond, env)
            except _Opaque:
                # an unexpressible condition only matters if a branch
                # communicates; otherwise poison what the branches write
                if _block_emits(stmt.then_body) or (
                    stmt.else_body is not None
                    and _block_emits(stmt.else_body)
                ):
                    raise
                for name in _assigned_names(stmt.then_body):
                    env[name] = _POISON
                if stmt.else_body is not None:
                    for name in _assigned_names(stmt.else_body):
                        env[name] = _POISON
                return
            if cond[0] == "const":
                taken = stmt.then_body if truthy(cond[1]) else stmt.else_body
                if taken is not None:
                    self._walk_block(taken, env, loops, guard)
                return
            env_t = dict(env)
            env_e = dict(env)
            self._walk_block(stmt.then_body, env_t, loops, _conj(guard, cond))
            if stmt.else_body is not None:
                self._walk_block(
                    stmt.else_body, env_e, loops, _conj(guard, _neg(cond))
                )
            for name in set(env_t) | set(env_e):
                t_val = env_t.get(name, _POISON)
                e_val = env_e.get(name, _POISON)
                if t_val is e_val:
                    merged = t_val
                elif t_val is _POISON or e_val is _POISON:
                    merged = _POISON
                elif t_val == e_val:
                    merged = t_val
                else:
                    merged = ("sel", cond, t_val, e_val)
                    if _term_size(merged) > _MAX_TERM_NODES:
                        merged = _POISON
                env[name] = merged
            return
        if isinstance(stmt, ast.ForStmt):
            self._walk_for(stmt, env, loops, guard)
            return
        if isinstance(stmt, ast.WhileStmt):
            try:
                cond = self._term(stmt.cond, env)
            except _Opaque:
                cond = None
            if cond is not None and cond[0] == "const" \
                    and not truthy(cond[1]):
                return
            if _block_emits(stmt.body):
                raise _Opaque(
                    f"{stmt.location}: while loop around communication "
                    "has no countable trip"
                )
            for name in _assigned_names(stmt.body):
                env[name] = _POISON
            return
        if isinstance(stmt, ast.CallStmt):
            self._walk_call(stmt, env, loops, guard)
            return
        if isinstance(stmt, ast.ReturnStmt):
            return  # only reachable as a final statement (checked upfront)
        raise _Opaque(f"{stmt.location}: statement {type(stmt).__name__}")

    def _walk_for(self, stmt: ast.ForStmt, env: dict, loops: tuple,
                  guard: tuple | None) -> None:
        found = self._countable_spec(stmt, env)
        if found is None:
            if _block_emits(stmt.body):
                raise _Opaque(
                    f"{stmt.location}: uncountable for loop around "
                    "communication"
                )
            for name in _assigned_names(stmt.body):
                env[name] = _POISON
            if isinstance(stmt.init, (ast.VarDecl, ast.Assign)):
                env[stmt.init.name] = _POISON
            return
        src_var, spec = found
        body_env = dict(env)
        # poison body-assigned names *before* the walk: a loop-carried
        # value (x = x + 1) must not leak its first-iteration term
        for name in _assigned_names(stmt.body):
            body_env[name] = _POISON
        body_env[src_var] = ("var", spec.var)
        self._walk_block(stmt.body, body_env, loops + (spec,), guard)
        for name in _assigned_names(stmt.body):
            env[name] = _POISON
        # the loop variable's exit value is init + trip*delta — expressible,
        # but poisoning is sound and nothing in the corpus reads it
        env[src_var] = _POISON

    def _countable_spec(self, stmt: ast.ForStmt, env: dict) -> tuple | None:
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
            and isinstance(cond.left, ast.VarRef)
            and cond.left.name == var
        ):
            return None
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
        written = _assigned_names(stmt.body)
        if var in written:
            return None
        bound_free: set = set()
        _free_names(cond.right, bound_free)
        if bound_free & written:
            return None
        try:
            init_term = self._term(init_expr, env)
            bound_term = self._term(cond.right, env)
        except _Opaque:
            return None
        # mangle with the stmt id so nested frames (inlined calls) that
        # reuse a variable name can never collide in one instantiation env
        return var, LoopSpec(
            var=f"{var}#{stmt.stmt_id}", cmp=cond.op, delta=delta,
            init=init_term, bound=bound_term,
        )

    def _walk_call(self, stmt: ast.CallStmt, env: dict, loops: tuple,
                   guard: tuple | None) -> None:
        callee = stmt.callee
        if not (
            isinstance(callee, ast.VarRef)
            and callee.name in self.program.functions
        ):
            raise _Opaque(f"{stmt.location}: indirect call")
        name = callee.name
        if name in self.call_stack:
            raise _Opaque(f"{stmt.location}: recursive call to {name!r}")
        func = self.program.functions[name]
        if _early_return(func):
            raise _Opaque(f"{stmt.location}: {name!r} returns early")
        if len(func.params) != len(stmt.args):
            raise _Opaque(f"{stmt.location}: arity mismatch calling {name!r}")
        frame = {
            p: self._term(a, env) for p, a in zip(func.params, stmt.args)
        }
        self.call_stack.append(name)
        try:
            self._walk_block(func.body, frame, loops, guard)
        finally:
            self.call_stack.pop()

    def build(self) -> "CommGraph":
        func = self.program.functions.get(self.entry)
        if func is None:
            raise _Opaque(f"no entry function {self.entry!r}")
        if func.params:
            raise _Opaque(f"entry {self.entry!r} takes parameters")
        if _early_return(func):
            raise _Opaque(f"entry {self.entry!r} returns early")
        self.call_stack.append(self.entry)
        self._walk_block(func.body, {}, (), None)
        return CommGraph(
            program=self.program,
            params=dict(self.params),
            entry=self.entry,
            exact=True,
            reason=None,
            families=tuple(self.families),
        )


def _free_loop_vars(term: tuple | None, loop_vars: set, out: set) -> None:
    if term is None or not isinstance(term, tuple):
        return
    if term[0] == "var" and term[1] in loop_vars:
        out.add(term[1])
    for sub in term[1:]:
        _free_loop_vars(sub, loop_vars, out)


def build_comm_graph(
    program: ast.Program,
    params: Mapping[str, object] | None = None,
    *,
    entry: str = "main",
) -> "CommGraph":
    """Walk the program once with symbolic (rank, P) and return its
    parametric communication graph — degraded (with the reason) rather
    than wrong whenever a construct has no closed form."""
    try:
        return _GraphBuilder(program, params or {}, entry).build()
    except _Opaque as exc:
        return CommGraph(
            program=program,
            params=dict(params or {}),
            entry=entry,
            exact=False,
            reason=str(exc),
            families=(),
        )


# --------------------------------------------------------------------------
# instantiation (interpreter-faithful coercions)
# --------------------------------------------------------------------------


def _coerce_rank(value, nprocs: int, loc: str, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MpiUsageError(
            f"{loc}: {what} must be an integer rank, got {value!r}"
        )
    if not (0 <= value < nprocs):
        raise MpiUsageError(
            f"{loc}: {what}={value} out of range for {nprocs} processes"
        )
    return value


def _coerce_rank_or_any(value, nprocs: int, loc: str, what: str):
    if value is ops.ANY:
        return ops.ANY
    return _coerce_rank(value, nprocs, loc, what)


def _coerce_tag(value, loc: str, *, allow_any: bool):
    if value is ops.ANY:
        if allow_any:
            return ops.ANY
        raise MpiUsageError(f"{loc}: ANY is not a valid send tag")
    if isinstance(value, bool) or not isinstance(value, int):
        raise MpiUsageError(f"{loc}: tag must be an integer, got {value!r}")
    if value < 0:
        raise MpiUsageError(f"{loc}: tag must be non-negative, got {value}")
    return value


def _coerce_bytes(value, loc: str) -> int:
    if value is None:
        return 0
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MpiUsageError(f"{loc}: bytes must be a number, got {value!r}")
    nbytes = int(value)
    if nbytes < 0:
        raise MpiUsageError(f"{loc}: bytes must be non-negative, got {nbytes}")
    return nbytes


def _trip_count(init_v, bound_v, cmp: str, delta: int, loc: str) -> int:
    """Closed-form iteration count of ``for (x = init; x cmp bound;
    x += delta)`` — exact for ints, conservative for float bounds."""
    if isinstance(init_v, bool) or isinstance(bound_v, bool) or not (
        isinstance(init_v, (int, float)) and isinstance(bound_v, (int, float))
    ):
        raise SimulationError(
            f"{loc}: non-numeric loop bounds {init_v!r}, {bound_v!r}"
        )
    if delta > 0:
        if cmp == "<":
            diff = bound_v - init_v
        elif cmp == "<=":
            diff = bound_v - init_v + 1
        else:
            held = init_v > bound_v if cmp == ">" else init_v >= bound_v
            if not held:
                return 0
            raise SimulationError(f"{loc}: non-terminating loop")
        step = delta
    else:
        if cmp == ">":
            diff = init_v - bound_v
        elif cmp == ">=":
            diff = init_v - bound_v + 1
        else:
            held = init_v < bound_v if cmp == "<" else init_v <= bound_v
            if not held:
                return 0
            raise SimulationError(f"{loc}: non-terminating loop")
        step = -delta
    if isinstance(diff, int):
        return max(0, -(-diff // step))  # exact integer ceiling
    return max(0, math.ceil(diff / step))


@dataclass
class CommGraph:
    """See module docstring.  ``exact`` is the binary trust bit."""

    program: ast.Program
    params: dict
    entry: str
    exact: bool
    reason: str | None
    families: tuple

    @property
    def n_families(self) -> int:
        return len(self.families)

    def instantiate(self, nprocs: int) -> CommInstance:
        """Concrete communication multiset at one scale; O(edges
        produced).  Raises :class:`SimulationError` when the graph is
        degraded and :class:`MpiUsageError` exactly where the
        interpreter's argument coercions would."""
        if not self.exact:
            raise SimulationError(
                f"parametric comm graph degraded: {self.reason}"
            )
        if nprocs < 1:
            raise SimulationError(f"nprocs must be >= 1, got {nprocs}")
        inst = CommInstance(nprocs=nprocs)
        budget = [_MAX_INSTANCE_OPS]
        for family in self.families:
            for rank in range(nprocs):
                self._emit_family(family, rank, nprocs, inst, budget)
        return inst

    # -- per-family emission --------------------------------------------

    def _emit_family(self, family: CommFamily, rank: int, nprocs: int,
                     inst: CommInstance, budget: list) -> None:
        self._expand_loops(family, family.loops, rank, nprocs, {}, 1,
                           inst, budget)

    def _expand_loops(self, family: CommFamily, loops: tuple, rank: int,
                      nprocs: int, env: dict, mult: int,
                      inst: CommInstance, budget: list) -> None:
        if not loops:
            if mult:
                self._emit_instance(family, rank, nprocs, env, mult,
                                    inst, budget)
            return
        spec, rest = loops[0], loops[1:]
        init_v = eval_term(spec.init, rank, nprocs, env)
        bound_v = eval_term(spec.bound, rank, nprocs, env)
        n = _trip_count(init_v, bound_v, spec.cmp, spec.delta,
                        family.location)
        if n == 0:
            return
        if spec.var not in family.free_vars and not any(
            _term_refs_var(r, spec.var) for r in rest
        ):
            # fast path: nothing downstream reads this variable — the
            # whole loop is a pure multiplicity factor
            self._expand_loops(family, rest, rank, nprocs, env, mult * n,
                               inst, budget)
            return
        value = init_v
        for _ in range(n):
            env[spec.var] = value
            self._expand_loops(family, rest, rank, nprocs, env, mult,
                               inst, budget)
            value += spec.delta
        env.pop(spec.var, None)

    def _emit_instance(self, family: CommFamily, rank: int, nprocs: int,
                       env: dict, mult: int, inst: CommInstance,
                       budget: list) -> None:
        if family.guard is not None and not truthy(
            eval_term(family.guard, rank, nprocs, env)
        ):
            return
        budget[0] -= mult
        if budget[0] < 0:
            raise SimulationError(
                f"comm graph instantiation exceeds {_MAX_INSTANCE_OPS} ops"
            )
        loc = family.location

        def val(name):
            term = family.arg(name)
            return None if term is None else eval_term(term, rank, nprocs, env)

        if family.kind == "send":
            key = (
                rank,
                _coerce_rank(val("dest"), nprocs, loc, "dest"),
                _coerce_tag(val("tag"), loc, allow_any=False),
                _coerce_bytes(val("nbytes"), loc),
                family.blocking,
            )
            inst.sends[key] = inst.sends.get(key, 0) + mult
        elif family.kind == "recv":
            key = (
                rank,
                _coerce_rank_or_any(val("src"), nprocs, loc, "src"),
                _coerce_tag(val("tag"), loc, allow_any=True),
                family.blocking,
            )
            inst.recvs[key] = inst.recvs.get(key, 0) + mult
        elif family.kind == "sendrecv":
            skey = (
                rank,
                _coerce_rank(val("dest"), nprocs, loc, "dest"),
                _coerce_tag(val("tag"), loc, allow_any=False),
                _coerce_bytes(val("nbytes"), loc),
                False,  # the send half of sendrecv never blocks alone
            )
            rkey = (
                rank,
                _coerce_rank_or_any(val("src"), nprocs, loc, "src"),
                _coerce_tag(val("recv_tag"), loc, allow_any=True),
                True,
            )
            inst.sends[skey] = inst.sends.get(skey, 0) + mult
            inst.recvs[rkey] = inst.recvs.get(rkey, 0) + mult
        else:  # collective
            root_v = val("root")
            key = (
                rank,
                family.op.value,
                _coerce_rank(root_v, nprocs, loc, "root")
                if root_v is not None else 0,
                _coerce_bytes(val("nbytes"), loc),
            )
            inst.collectives[key] = inst.collectives.get(key, 0) + mult

    # -- downstream products --------------------------------------------

    def skeleton(self) -> "ScalingSkeleton":
        if not self.exact:
            raise SimulationError(
                f"parametric comm graph degraded: {self.reason}"
            )
        return ScalingSkeleton(graph=self)


def _term_refs_var(spec: LoopSpec, var: str) -> bool:
    seen: set = set()
    _free_loop_vars(spec.init, {var}, seen)
    _free_loop_vars(spec.bound, {var}, seen)
    return bool(seen)


@dataclass
class ScalingSkeleton:
    """Closed-form per-scale communication volume, derived from the
    parametric graph: total message / receive-post / collective counts
    as functions of P, evaluable at any scale in O(edges) and
    cross-checkable against profiled communication tables."""

    graph: CommGraph

    def counts_at(self, nprocs: int) -> dict:
        inst = self.graph.instantiate(nprocs)
        return {
            "messages": sum(inst.sends.values()),
            "recv_posts": sum(inst.recvs.values()),
            "collective_ops": sum(inst.collectives.values()),
        }

    def per_rank_counts(self, nprocs: int) -> dict:
        """rank-indexed lists (sends, recv posts, collective ops)."""
        inst = self.graph.instantiate(nprocs)
        sends = [0] * nprocs
        recvs = [0] * nprocs
        colls = [0] * nprocs
        for (rank, *_rest), n in inst.sends.items():
            sends[rank] += n
        for (rank, *_rest), n in inst.recvs.items():
            recvs[rank] += n
        for (rank, *_rest), n in inst.collectives.items():
            colls[rank] += n
        return {"sends": sends, "recv_posts": recvs, "collective_ops": colls}

    def formulas(self) -> list:
        from repro.analysis.scaleparam import render_term

        out = []
        for family in self.graph.families:
            bits = [
                f"{name}={render_term(term)}"
                for name, term in family.args
                if term is not None
            ]
            desc = f"{family.location}: {family.op.value} " + ", ".join(bits)
            for spec in family.loops:
                desc += (
                    f" x trip({render_term(spec.init)} .. {spec.var} "
                    f"{spec.cmp} {render_term(spec.bound)} by {spec.delta})"
                )
            if family.guard is not None:
                desc += f" when {render_term(family.guard)}"
            out.append(desc)
        return out

    def summary(self, nprocs: int) -> str:
        counts = self.counts_at(nprocs)
        return (
            f"{self.graph.n_families} edge families; at P={nprocs}: "
            f"{counts['messages']} messages, "
            f"{counts['collective_ops']} collective ops"
        )

    def to_json_dict(self, nprocs: int) -> dict:
        return {
            "n_families": self.graph.n_families,
            "formulas": self.formulas(),
            "counts_at": {str(nprocs): self.counts_at(nprocs)},
        }


# --------------------------------------------------------------------------
# the concrete oracle
# --------------------------------------------------------------------------


def extract_concrete(
    program: ast.Program,
    psg: PSG,
    nprocs: int,
    params: Mapping[str, object] | None = None,
    *,
    entry: str = "main",
    max_iterations: int = 2_000_000,
    expr_cache: dict | None = None,
) -> CommInstance:
    """Per-rank interpreter unroll aggregated into the same multiset
    shape as :meth:`CommGraph.instantiate` — the ground truth the
    property tests equate the parametric graph against.  Interpreter
    errors propagate (the parametric instantiation raises on the same
    programs, through the same coercion checks).  ``expr_cache`` is the
    interpreters' compile cache, shareable with lints of the same
    program (see :func:`repro.analysis.lint.run_lint`)."""
    from repro.simulator.interp import Interpreter

    inst = CommInstance(nprocs=nprocs)
    if expr_cache is None:
        expr_cache = {}
    for rank in range(nprocs):
        interp = Interpreter(
            program, psg, rank, nprocs, params,
            max_iterations=max_iterations, entry=entry,
            expr_cache=expr_cache,
        )
        for op in interp.run():
            if isinstance(op, ops.SendOp):
                key = (rank, op.dest, op.tag, op.nbytes, op.blocking)
                inst.sends[key] = inst.sends.get(key, 0) + 1
            elif isinstance(op, ops.RecvOp):
                key = (rank, op.src, op.tag, op.blocking)
                inst.recvs[key] = inst.recvs.get(key, 0) + 1
            elif isinstance(op, ops.CollectiveOp):
                key = (rank, op.mpi_op.value, op.root, op.nbytes)
                inst.collectives[key] = inst.collectives.get(key, 0) + 1
    return inst
