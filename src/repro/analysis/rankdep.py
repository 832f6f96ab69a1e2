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
builtin) — which :func:`~repro.analysis.terms.eval_term` can evaluate
for any concrete rank.  Terms are built and interned by the analysis's
:class:`~repro.analysis.terms.Terms` table (``RankAnalysis.terms``), so
two terms are equal exactly when they are one object.
Terms are what :mod:`repro.analysis.symmetry` evaluates to split ranks
into behavioral classes, and what the lint uses to expand one
representative walk into per-rank communication endpoints.

A loop-carried, rank-invariant variable — the doubling stride ``s`` of a
hypercube exchange — has no closed form in ``rank``, but at the loop head
its value is, by definition, whatever the frame holds.  Such a variable
gets the leaf ``("frame", name)``: "the runtime value of local ``name``
in the current frame".  Terms built on it (``rank - s``, the ``sel`` that
picks ``rank + s`` on half the ranks) are closed rank functions *once the
frame is bound*: ``eval_term`` reads the leaf from ``env``, and
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
:meth:`RankAnalysis.closed_term`, which maps frame-bearing terms to
``None``.

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

from dataclasses import dataclass, field, replace
from enum import IntEnum
from collections.abc import Mapping

from repro.minilang import ast_nodes as ast
from repro.psg.callgraph import build_call_graph
from repro.simulator import ops
from repro.simulator.exprcompile import truthy

from repro.analysis.terms import (
    P,
    RANK,
    Terms,
    apply_binop,
    apply_call,
    apply_unop,
)

__all__ = [
    "Rankness",
    "AbstractValue",
    "Decider",
    "NotInstantiable",
    "RankAnalysis",
    "analyze_program",
    "mpi_arg_exprs",
]

#: Fixpoint iterations per loop before forced widening.
_MAX_LOOP_ITERS = 8
#: Statement visits before the whole analysis gives up (degraded, empty
#: const set) — a backstop, not a tuning knob; real programs use ~1e3.
_MAX_STEPS = 300_000


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
    is an interned symbolic expression over ``rank`` (see
    :mod:`repro.analysis.terms`); it means the runtime value equals
    ``eval_term(term, rank)`` on every execution.  ``affine`` documents
    the recovered ``(a, b, mod)`` coefficients of an AFFINE value.
    """

    kind: Rankness
    value: object = None
    term: tuple | None = None
    affine: tuple | None = None


_INV = AbstractValue(Rankness.INVARIANT)
_DEP = AbstractValue(Rankness.DEPENDENT)
_RANK = AbstractValue(Rankness.AFFINE, term=RANK, affine=(1, 0, None))
#: ``nprocs`` in symbolic mode (``analyze_program(nprocs=None)``): an
#: unknown-but-rank-invariant value carrying the ``("P",)`` term, so every
#: verdict stays a closed function of (rank, P) —
#: :mod:`repro.analysis.scaleparam` instantiates them at any scale.
_P = AbstractValue(Rankness.INVARIANT, term=P)


def const_av(terms: Terms, value: object) -> AbstractValue:
    return AbstractValue(Rankness.CONST, value=value, term=terms.const(value))


def _same_const(a: object, b: object) -> bool:
    """Value equality that does not conflate 1 / 1.0 / True."""
    return type(a) is type(b) and a == b


def _without_frame(
    terms: Terms, av: AbstractValue, name: str | None = None
) -> AbstractValue:
    """``av`` minus its term when that term reads ``name``'s frame leaf
    (any frame leaf when ``name`` is None); the kind stays."""
    names = terms.env_names(av.term)
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
    return x.term is y.term


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
    if x.term is not None and x.term is y.term:
        return x if x.kind >= y.kind else y
    if x.kind <= Rankness.INVARIANT and y.kind <= Rankness.INVARIANT:
        return _INV
    return _DEP


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


def _affine_result(
    terms: Terms, form: tuple, term: tuple | None
) -> AbstractValue:
    a, b, mod = form
    if a == 0:
        return const_av(terms, b if mod is None else b % mod)
    kind = Rankness.DEPENDENT if term is None else Rankness.AFFINE
    return AbstractValue(kind, term=term, affine=form)


# --------------------------------------------------------------------------
# expression folds (one verdict from its operands' verdicts)
# --------------------------------------------------------------------------


def _fold_unary(terms: Terms, op: str, v: AbstractValue) -> AbstractValue:
    if v.kind is Rankness.CONST:
        try:
            return const_av(terms, apply_unop(op, v.value))
        except Exception:
            return _DEP  # raising expressions never fold
    term = None
    if v.term is not None:
        term = terms.node("un", op, v.term)
    if op == "-":
        form = _affine_form(v)
        if form is not None and form[2] is None:
            return _affine_result(terms, (-form[0], -form[1], None), term)
    if v.kind <= Rankness.INVARIANT:
        # keep the symbolic term: in symbolic-P mode INVARIANT values
        # (functions of P/params) no longer fold to CONST
        return AbstractValue(Rankness.INVARIANT, term=term)
    return AbstractValue(Rankness.DEPENDENT, term=term)


def _fold_call(terms: Terms, func: str, *avs: AbstractValue) -> AbstractValue:
    if all(a.kind is Rankness.CONST for a in avs):
        try:
            return const_av(terms, apply_call(func, [a.value for a in avs]))
        except Exception:
            return _DEP
    term = None
    if all(a.term is not None for a in avs):
        term = terms.node("call", func, *(a.term for a in avs))
    if all(a.kind <= Rankness.INVARIANT for a in avs):
        return AbstractValue(Rankness.INVARIANT, term=term)
    return AbstractValue(Rankness.DEPENDENT, term=term)


def _fold_binary(
    terms: Terms, op: str, left: AbstractValue, right: AbstractValue
) -> AbstractValue:
    # short-circuit: a decided && / || never evaluates its right side, so
    # fold on the left alone when possible (matching the runtime); the
    # walk still evaluates the right side, to record its verdict
    if op in ("&&", "||") and left.kind is Rankness.CONST:
        try:
            lt = truthy(left.value)
        except Exception:
            return _DEP
        if (op == "&&" and not lt) or (op == "||" and lt):
            return const_av(terms, op == "||")
        if right.kind is Rankness.CONST:
            try:
                return const_av(terms, truthy(right.value))
            except Exception:
                return _DEP
        term = None
        if right.term is not None:
            term = terms.node("bin", op, left.term, right.term)
        if right.kind <= Rankness.INVARIANT:
            return AbstractValue(Rankness.INVARIANT, term=term)
        return AbstractValue(Rankness.DEPENDENT, term=term)
    if left.kind is Rankness.CONST and right.kind is Rankness.CONST:
        try:
            return const_av(terms, apply_binop(op, left.value, right.value))
        except Exception:
            return _DEP
    term = None
    if left.term is not None and right.term is not None:
        term = terms.node("bin", op, left.term, right.term)
    if op in ("+", "-", "*", "%"):
        form = _affine_binop(op, left, right)
        if form is not None:
            return _affine_result(terms, form, term)
    if left.kind <= Rankness.INVARIANT and right.kind <= Rankness.INVARIANT:
        return AbstractValue(Rankness.INVARIANT, term=term)
    return AbstractValue(Rankness.DEPENDENT, term=term)


# --------------------------------------------------------------------------
# walk decisions (each a function of verdicts, so a concrete scale can
# recompute it: see RankAnalysis.instantiate)
# --------------------------------------------------------------------------


def _branch_outcome(cond: AbstractValue) -> str:
    """How the walk takes an ``if``: one arm ("then"/"else") on a constant
    condition, both arms merged under the condition's taint ("split") on
    a rank-dependent one, both arms joined ("join") otherwise."""
    if cond.kind is Rankness.CONST:
        try:
            return "then" if truthy(cond.value) else "else"
        except Exception:
            return "join"  # invalid condition: runtime raises
    return "split" if cond.kind >= Rankness.AFFINE else "join"


def _loop_entered(cond: AbstractValue) -> bool:
    """Does the walk analyze the body of a loop with this entry condition?"""
    if cond.kind is not Rankness.CONST:
        return True
    try:
        return truthy(cond.value)
    except Exception:
        return False  # invalid condition: runtime raises before the body


def _rank_split(av: AbstractValue) -> bool:
    return av.kind >= Rankness.AFFINE


def _diverges(before: AbstractValue | None, after: AbstractValue | None) -> bool:
    """After a loop with a rank-dependent trip count, may a local its body
    writes differ across ranks?  Unless it holds one constant throughout
    (equal INVARIANT verdicts may still be different values: ranks that
    skip the body keep theirs)."""
    return (
        before is None or after is None
        or before.kind is not Rankness.CONST
        or not av_equal(before, after)
    )


def _leaf_differs(before: AbstractValue, after: AbstractValue) -> bool:
    """Do a carried local's iterations disagree while staying
    rank-invariant (it then gets its ``("frame", name)`` head leaf)?"""
    return (
        before.kind <= Rankness.INVARIANT
        and after.kind <= Rankness.INVARIANT
        and not av_equal(before, after)
    )


def _call_outcome(callee: AbstractValue) -> tuple:
    """An indirect call's target: ("target", name) when constant,
    ("split",) when it varies across ranks, ("invariant",) otherwise."""
    from repro.simulator.interp import FuncRefValue

    if callee.kind is Rankness.CONST and isinstance(callee.value, FuncRefValue):
        return ("target", callee.value.name)
    return ("split",) if callee.kind >= Rankness.AFFINE else ("invariant",)


def _has_closed_term(terms: Terms, av: AbstractValue) -> bool:
    return terms.closed(av.term) is not None


def _summary_key(target: str, arg_avs) -> tuple:
    """The abstract calling context a callee's analysis is memoized by
    (an interned term stands for its structure, a constant's for its
    type and bits)."""
    return (target,) + tuple((av.kind, id(av.term)) for av in arg_avs)


#: How an instantiation that steps aside names each recorded step.
_STEP_LABELS = {
    join: "a join",
    av_equal: "a comparison",
    _fold_unary: "a folded value",
    _fold_call: "a folded value",
    _fold_binary: "a folded value",
    _without_frame: "a frame invalidation",
    _branch_outcome: "a branch",
    _loop_entered: "a loop entry",
    _rank_split: "a rank split",
    _diverges: "a loop exit",
    _leaf_differs: "a loop head",
    _call_outcome: "a call target",
    _has_closed_term: "a trip-count bound",
}


# --------------------------------------------------------------------------
# instantiating a symbolic analysis at one scale
# --------------------------------------------------------------------------


def _same_av(a: AbstractValue | None, b: AbstractValue | None) -> bool:
    """Field-for-field equality that tells 1, 1.0 and True apart."""
    if a is b:
        return True
    if a is None or b is None:
        return False
    return (
        a.kind is b.kind
        and _same_const(a.value, b.value)
        and a.affine == b.affine
        and a.term is b.term
    )


class NotInstantiable(Exception):
    """A symbolic analysis cannot stand for the concrete one at a scale;
    the message says where the walk would have gone another way."""


def _where(node: object) -> str:
    location = getattr(node, "location", None)
    return f"{location}: " if location is not None else ""


class _Refold:
    """Verdicts of a symbolic run at one concrete scale: every term that
    reads ``("P",)`` re-folds bottom-up through the walk's own folds with
    P bound; every other verdict is shared as it is.

    Terms are interned in the symbolic run's table, which builds the
    re-folded ones too, so the memos key on ``id(term)`` and an equal
    sub-term anywhere in the run folds once: ``free`` (the verdict of
    each P-free sub-term) holds for every scale and is the record's."""

    def __init__(self, nprocs: int, terms: Terms, free: dict) -> None:
        self.nprocs = nprocs
        self.terms = terms
        self._free = free
        self._memo: dict[int, AbstractValue] = {}

    def av(self, av):
        if type(av) is not AbstractValue or not self.terms.reads_p(av.term):
            return av
        return self.term(av.term)

    def term(self, term: tuple) -> AbstractValue:
        key = id(term)
        out = self._memo.get(key) or self._free.get(key)
        if out is None:
            out = self._fold(term)
            memo = self._memo if self.terms.reads_p(term) else self._free
            memo[key] = out
        return out

    def _fold(self, term: tuple) -> AbstractValue:
        terms = self.terms
        tag = term[0]
        if tag == "const":
            return AbstractValue(Rankness.CONST, value=term[1], term=term)
        if tag == "rank":
            return _RANK
        if tag == "P":
            return const_av(terms, self.nprocs)
        if tag == "frame":
            return AbstractValue(Rankness.INVARIANT, term=term)
        if tag == "bin":
            return _fold_binary(
                terms, term[1], self.term(term[2]), self.term(term[3])
            )
        if tag == "un":
            return _fold_unary(terms, term[1], self.term(term[2]))
        if tag == "call":
            return _fold_call(terms, term[1], *map(self.term, term[2:]))
        if tag == "sel":
            # a merge under a rank-dependent condition (which the recorded
            # branch outcome keeps rank-dependent at this scale)
            parts = [self.term(t).term for t in term[1:]]
            if None in parts:
                return _DEP
            return AbstractValue(
                Rankness.DEPENDENT, term=terms.node("sel", *parts)
            )
        if tag == "trip":
            ends = [terms.closed(self.term(t).term) for t in term[3:]]
            if None in ends:
                raise NotInstantiable("a trip-count bound has no closed term")
            return AbstractValue(
                Rankness.DEPENDENT,
                term=terms.node("trip", term[1], term[2], *ends),
            )
        raise NotInstantiable(f"term tag {tag!r} does not re-fold")


@dataclass
class _SymbolicRecord:
    """What a symbolic run noted for :meth:`RankAnalysis.instantiate`."""

    #: reasons no scale can take the symbolic run's verdicts
    hazards: tuple[str, ...]
    #: (step function, arguments, symbolic outcome, AST node) of every
    #: walk step whose outcome a concrete scale could change
    steps: list[tuple]
    #: callee -> the argument verdicts of each context it was analyzed
    #: in, for callees where a context reads P (two contexts that meet
    #: at some scale are analyzed once there)
    contexts: dict[str, list[tuple]]
    #: keys of the verdicts that read P
    p_exprs: tuple[int, ...]
    p_stmts: tuple[int, ...]
    p_deciders: tuple[int, ...]
    #: :class:`_Refold`'s scale-free memo
    _free: dict = field(default_factory=dict)

    def instantiate(self, analysis: RankAnalysis, nprocs: int) -> RankAnalysis:
        if self.hazards:
            raise NotInstantiable(self.hazards[0])
        refold = _Refold(nprocs, analysis.terms, self._free)
        inst = refold.av
        for step, args, out, node in self.steps:
            got = step(*map(inst, args))
            if not (
                _same_av(got, inst(out)) if type(out) is AbstractValue
                else got == out
            ):
                raise NotInstantiable(
                    f"{_where(node)}{_STEP_LABELS[step]} on nprocs goes "
                    f"another way at P={nprocs}"
                )
        for target, contexts in self.contexts.items():
            seen: set = set()
            for args in contexts:
                key = _summary_key(target, map(inst, args))
                if key in seen:
                    raise NotInstantiable(
                        f"two calling contexts of {target}() meet at "
                        f"P={nprocs}"
                    )
                seen.add(key)
        expr_verdicts = dict(analysis.expr_verdicts)
        for key in self.p_exprs:
            expr_verdicts[key] = refold.term(expr_verdicts[key].term)
        stmt_args = dict(analysis.stmt_args)
        for sid in self.p_stmts:
            stmt_args[sid] = tuple(map(inst, stmt_args[sid]))
        deciders = dict(analysis.deciders)
        for sid in self.p_deciders:
            deciders[sid] = replace(deciders[sid], av=inst(deciders[sid].av))
        return RankAnalysis(
            program=analysis.program,
            nprocs=nprocs,
            params=dict(analysis.params),
            entry=analysis.entry,
            expr_verdicts=expr_verdicts,
            stmt_args=stmt_args,
            # a statement with a P argument is not constant with P symbolic
            const_stmts=analysis.const_stmts | _const_stmts(
                {sid: stmt_args[sid] for sid in self.p_stmts}
            ),
            deciders=deciders,
            degraded_reasons=analysis.degraded_reasons,
            terms=analysis.terms,
        )


def _const_stmts(stmt_args: dict) -> frozenset[int]:
    return frozenset(
        sid
        for sid, avs in stmt_args.items()
        if all(av.kind is Rankness.CONST for av in avs)
    )


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
    :mod:`repro.analysis.scaleparam`.  A symbolic run also notes every
    walk step whose outcome a concrete scale could change, so that
    :meth:`instantiate` can produce the concrete run at any scale, field
    for field, or step aside.
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
    #: the table every term of this analysis is interned in
    terms: Terms = field(repr=False, compare=False)
    #: a symbolic run's notes for :meth:`instantiate` (None otherwise)
    _record: _SymbolicRecord | None = field(
        default=None, repr=False, compare=False
    )

    def instantiate(self, nprocs: int) -> RankAnalysis:
        """This symbolic analysis at one concrete scale, without running
        the dataflow again: equal field for field to
        ``analyze_program(program, nprocs, params)``.

        Every verdict that reads P re-folds with P bound, through the
        walk's own folds; every noted walk step (a branch or loop entry
        on P, a join or comparison where a P term meets another term, a
        value whose P term was dropped) is recomputed at ``nprocs`` and
        must come out as it did with P symbolic, or the walk there would
        have gone another way.  Raises :class:`NotInstantiable` with the
        first such step (or whole-program reason) otherwise."""
        if self._record is None:
            raise NotInstantiable(
                "not a symbolic analysis" if self.nprocs is not None
                else self.degraded or "no symbolic record"
            )
        return self._record.instantiate(self, nprocs)

    def closed_term(self, av: AbstractValue) -> tuple | None:
        """``av.term`` when it is a closed function of (rank, P), else
        None: consumers with no frame at hand (the rank partition, the
        scale-parametric lint) treat a frame-bearing term as no term."""
        return self.terms.closed(av.term)

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


def countable_for(stmt: ast.ForStmt) -> tuple | None:
    """``(var, cmp, delta, init expr, bound expr)`` of a loop of the
    classic ``for (x = e0; x cmp e1; x = x +/- c)`` shape, with ``c`` an
    integer literal, whose body writes neither ``x`` nor the bound's
    inputs, else None: its trip count is ``trip_count(cmp, delta, e0, e1)``
    with the bounds read at loop entry."""
    init, cond, step = stmt.init, stmt.cond, stmt.step
    if not isinstance(init, (ast.VarDecl, ast.Assign)):
        return None
    var = init.name
    init_expr = init.init if isinstance(init, ast.VarDecl) else init.value
    if init_expr is None or not (
        isinstance(cond, ast.BinaryExpr)
        and cond.op in ("<", "<=", ">", ">=")
        and isinstance(cond.left, ast.VarRef)
        and cond.left.name == var
        and isinstance(step, ast.Assign)
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
    written = _assigned_names(stmt.body)
    bound_free: set[str] = set()
    _free_names(cond.right, bound_free)
    if delta == 0 or var in written or bound_free & written:
        return None
    return var, cond.op, delta, init_expr, cond.right


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
        graph = build_call_graph(program)
        facts = (
            frozenset(graph.recursive_functions()),
            frozenset(graph.address_taken),
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
        self.terms = Terms()
        #: defaulted (absent) optional argument: constant by definition
        self._absent = const_av(self.terms, None)
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

    # -- walk steps a symbolic run notes (see _SymbolicAnalyzer) --------

    def _join(self, x, y, node=None) -> AbstractValue:
        return join(x, y)

    def _av_equal(self, x, y, node=None) -> bool:
        return av_equal(x, y)

    def _decide(self, outcome, node, *avs):
        return outcome(*avs)

    def _drop_frame(self, av, name=None, node=None) -> AbstractValue:
        return _without_frame(self.terms, av, name)

    def _build(self, node, tag: str, *args) -> tuple | None:
        return self.terms.node(tag, *args)

    def _fold(self, expr, fold, *args) -> AbstractValue:
        return fold(self.terms, *args)

    def _note_context(self, target: str, arg_avs: list) -> None:
        pass

    # -- recording -----------------------------------------------------

    def _record_expr(self, expr: ast.Expr, av: AbstractValue) -> None:
        if self._quiet:
            return
        key = id(expr)
        old = self.expr_verdicts.get(key)
        self.expr_verdicts[key] = av if old is None else self._join(old, av, expr)

    def _record_stmt_args(self, stmt: ast.Stmt, avs: tuple) -> None:
        if self._quiet:
            return
        old = self.stmt_args.get(stmt.stmt_id)
        self.stmt_args[stmt.stmt_id] = (
            avs if old is None
            else tuple(self._join(a, b, stmt) for a, b in zip(old, avs))
        )

    def _record_decider(
        self, stmt: ast.Stmt, kind: str, av: AbstractValue
    ) -> None:
        if self._quiet:
            return
        old = self.deciders.get(stmt.stmt_id)
        joined = av if old is None else self._join(old.av, av, stmt)
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
            return const_av(self.terms, self.params[name])
        if name == "rank":
            return _RANK
        if name == "nprocs":
            # symbolic mode: keep the scale a closed symbol instead of a
            # constant, so terms stay evaluable at *any* P
            if self.nprocs is None:
                return _P
            return const_av(self.terms, self.nprocs)
        return _DEP  # undefined at runtime: the interpreter raises

    def _eval(self, expr: ast.Expr, env: dict) -> AbstractValue:
        av = self._eval_inner(expr, env)
        self._record_expr(expr, av)
        return av

    def _eval_inner(self, expr: ast.Expr, env: dict) -> AbstractValue:
        # the two most common nodes first, by exact type (every lint
        # witness re-runs this evaluator)
        expr_type = type(expr)
        if expr_type is ast.BinaryExpr:
            return self._fold(
                expr, _fold_binary, expr.op,
                self._eval(expr.left, env), self._eval(expr.right, env),
            )
        if expr_type is ast.VarRef:
            return self._resolve_name(expr.name, env)
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.StringLit, ast.BoolLit)):
            return const_av(self.terms, expr.value)
        if isinstance(expr, ast.AnyLit):
            return const_av(self.terms, ops.ANY)
        if isinstance(expr, ast.FuncRef):
            from repro.simulator.interp import FuncRefValue

            return const_av(self.terms, FuncRefValue(expr.name))
        if isinstance(expr, ast.UnaryExpr):
            return self._fold(
                expr, _fold_unary, expr.op, self._eval(expr.operand, env)
            )
        if isinstance(expr, ast.CallExpr):
            return self._fold(
                expr, _fold_call, expr.func,
                *[self._eval(a, env) for a in expr.args],
            )
        return _DEP  # unknown node type: the interpreter raises on it

    # -- environment merging -------------------------------------------

    def _merge_branch(
        self, env_t: dict, env_e: dict, cond_av: AbstractValue,
        rank_split: bool, stmt: ast.Stmt,
    ) -> dict:
        """Merge the two arm environments of an if statement.

        Under a rank-dependent condition, any variable the arms disagree
        on becomes rank-dependent (with a ``sel`` term when both sides
        stayed symbolic).
        """
        out: dict = {}
        for name in set(env_t) | set(env_e):
            a = env_t[name] if name in env_t else self._resolve_name(name, {})
            b = env_e[name] if name in env_e else self._resolve_name(name, {})
            if rank_split and not self._av_equal(a, b, stmt):
                if a.term is not None and b.term is not None \
                        and cond_av.term is not None:
                    term = self._build(
                        stmt, "sel", cond_av.term, a.term, b.term
                    )
                    out[name] = AbstractValue(Rankness.DEPENDENT, term=term)
                else:
                    out[name] = _DEP
            else:
                out[name] = self._join(a, b, stmt)
        return out

    def _invalidate(self, env: dict, names, node=None) -> None:
        """Drop every term in ``env`` that reads a frame leaf of one of
        ``names`` (their frame value changed, or may have on some path)."""
        for name in self._frame_vars.intersection(names):
            for key, av in env.items():
                env[key] = self._drop_frame(av, name, node)

    def _bind(self, env: dict, name: str, av: AbstractValue, node) -> None:
        """``name = av``: terms that read ``name``'s old frame value —
        including ``av``'s own (``s = s * 2``) — lose them."""
        env[name] = av
        self._invalidate(env, (name,), node)

    def _join_env(self, a: dict, b: dict, node) -> dict:
        out: dict = {}
        for name in set(a) | set(b):
            x = a[name] if name in a else self._resolve_name(name, {})
            y = b[name] if name in b else self._resolve_name(name, {})
            out[name] = self._join(x, y, node)
        return out

    def _env_equal(self, a: dict, b: dict, node) -> bool:
        return set(a) == set(b) and all(
            self._av_equal(a[k], b[k], node) for k in a
        )

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
                else const_av(self.terms, 0),
                stmt,
            )
            return
        if isinstance(stmt, ast.Assign):
            self._bind(env, stmt.name, self._eval(stmt.value, env), stmt)
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
                    self._eval(e, env) if e is not None else self._absent
                    for e in _compute_arg_exprs(stmt)
                ),
            )
            return
        if isinstance(stmt, ast.MpiStmt):
            self._record_stmt_args(
                stmt,
                tuple(
                    self._eval(e, env) if e is not None else self._absent
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
        outcome = self._decide(_branch_outcome, stmt, cond_av)
        if outcome == "then":
            self._analyze_block(stmt.then_body, env)
            return
        if outcome == "else":
            if stmt.else_body is not None:
                self._analyze_block(stmt.else_body, env)
            return
        env_t = dict(env)
        self._analyze_block(stmt.then_body, env_t)
        env_e = dict(env)
        if stmt.else_body is not None:
            self._analyze_block(stmt.else_body, env_e)
        merged = self._merge_branch(
            env_t, env_e, cond_av, outcome == "split", stmt
        )
        # a frame leaf stands for a rank-invariant frame value; a local
        # assigned in either arm may now differ across ranks (and the
        # condition read its pre-branch value), so no term keeps it
        written = _assigned_names(stmt.then_body)
        if stmt.else_body is not None:
            written |= _assigned_names(stmt.else_body)
        self._invalidate(merged, written, stmt)
        env.clear()
        env.update(merged)
        if outcome == "split":
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
                cond_joined = self._join(cond_joined, cond_av, stmt) \
                    if cond_av is not None else cond_joined
                new_state = self._join_env(state, body_env, stmt)
                for name in carried:
                    leaf = self._head_leaf(
                        name, state[name], body_env[name], stmt
                    )
                    if leaf is not None:
                        new_state[name] = leaf
                if self._env_equal(new_state, state, stmt):
                    break
                state = new_state
            else:
                # forced widening: anything still moving becomes unknown
                body_env = dict(state)
                run_body(body_env)
                state = {
                    name: (state[name] if name in state and (
                        self._av_equal(
                            state[name], body_env.get(name, _DEP), stmt
                        )
                        or name in carried
                        and self._is_head_leaf(
                            name, state[name], body_env[name], stmt
                        )
                    ) else _DEP)
                    for name in set(state) | set(body_env)
                }
        finally:
            self._quiet -= 1
        run_body(dict(state))  # record under the stable head state
        cond_final = (
            cond_joined if cond_joined is not None
            else const_av(self.terms, True)
        )
        if self._decide(_rank_split, stmt, cond_final):
            # rank-dependent trip count: every variable the loop body can
            # write diverges across ranks after the loop
            for name in written:
                if self._decide(
                    _diverges, stmt, env.get(name), state.get(name)
                ):
                    state[name] = _DEP
            self._invalidate(state, written, stmt)
        env.clear()
        env.update(state)
        return cond_final

    def _head_leaf(
        self, name: str, before: AbstractValue, after: AbstractValue, stmt
    ) -> AbstractValue | None:
        """The loop-head value of a carried local whose iterations
        disagree while staying rank-invariant: the ``("frame", name)``
        leaf (None when the plain join applies)."""
        if self._decide(_leaf_differs, stmt, before, after):
            self._frame_vars.add(name)
            return AbstractValue(
                Rankness.INVARIANT, term=self.terms.leaf("frame", name)
            )
        return None

    def _is_head_leaf(
        self, name: str, before: AbstractValue, after: AbstractValue, stmt
    ) -> bool:
        """Is ``before`` already the stable head leaf of ``name``?"""
        leaf = self._head_leaf(name, before, after, stmt)
        return leaf is not None and self._av_equal(before, leaf, stmt)

    def _analyze_while(self, stmt: ast.WhileStmt, env: dict) -> None:
        first_cond = self._eval(stmt.cond, env)
        if not self._decide(_loop_entered, stmt, first_cond):
            return

        def run_body(body_env: dict) -> AbstractValue:
            self._analyze_block(stmt.body, body_env)
            return self._eval(stmt.cond, body_env)

        cond_joined = self._join(
            first_cond, self._loop_fixpoint(stmt, env, run_body), stmt
        )
        if self._decide(_rank_split, stmt, cond_joined) \
                and self._block_emits(stmt.body):
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
        if first_cond is not None \
                and not self._decide(_loop_entered, stmt, first_cond):
            return

        def run_body(body_env: dict) -> AbstractValue | None:
            self._analyze_block(stmt.body, body_env)
            if stmt.step is not None:
                self._analyze_stmt(stmt.step, body_env)
            if stmt.cond is not None:
                return self._eval(stmt.cond, body_env)
            return None

        cond_joined = self._join(
            first_cond, self._loop_fixpoint(stmt, env, run_body), stmt
        )
        if self._decide(_rank_split, stmt, cond_joined) and (
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
        """A ('trip', cmp, delta, init, bound) term for a countable
        loop (:func:`countable_for`), else None."""
        found = countable_for(stmt)
        if found is None:
            return None
        _var, cmp, delta, init_expr, bound_expr = found
        init_av = self._eval(init_expr, entry_env)
        bound_av = self._eval(bound_expr, entry_env)
        if not all(
            self._decide(_has_closed_term, stmt, self.terms, av)
            for av in (init_av, bound_av)
        ):
            return None
        return self._build(stmt, "trip", cmp, delta, init_av.term, bound_av.term)

    def _analyze_call(self, stmt: ast.CallStmt, env: dict) -> None:
        if self._quiet:
            return
        # the callee runs in a fresh frame: caller frame leaves mean
        # nothing there (a parameter may even shadow the caller's name)
        arg_avs = [
            self._drop_frame(self._eval(a, env), None, stmt) for a in stmt.args
        ]
        callee = stmt.callee
        target: str | None = None
        if isinstance(callee, ast.VarRef) \
                and callee.name in self.program.functions:
            target = callee.name
        else:
            callee_av = self._eval(callee, env)
            outcome = self._decide(_call_outcome, stmt, callee_av)
            if outcome[0] == "split":
                # different ranks may call different functions
                self._record_decider(stmt, "call", callee_av)
                self._degrade(
                    stmt, "indirect call with rank-dependent target"
                )
                return
            if outcome[0] == "invariant":
                # unknown-but-rank-invariant target: every rank calls the
                # same function; its body was pre-analyzed pessimistically
                # (address-taken), so nothing more to do here
                return
            target = outcome[1]
        func = self.program.functions.get(target)
        if func is None or len(func.params) != len(stmt.args):
            return  # runtime error; nothing executes past it
        if target in self._active or target in self.recursive:
            return  # covered by the pessimistic pre-analysis
        key = _summary_key(target, arg_avs)
        if key in self._summaries:
            return  # same abstract context already analyzed
        self._summaries.add(key)
        self._note_context(target, arg_avs)
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
        return RankAnalysis(
            program=self.program,
            nprocs=self.nprocs,
            params=self.params,
            entry=self.entry,
            expr_verdicts=self.expr_verdicts,
            stmt_args=self.stmt_args,
            const_stmts=_const_stmts(self.stmt_args),
            deciders=self.deciders,
            degraded_reasons=tuple(dict.fromkeys(self.degraded)),
            terms=self.terms,
        )


class _SymbolicAnalyzer(_Analyzer):
    """The walk with ``nprocs`` symbolic (``("P",)``), noting every step
    whose outcome a concrete scale could change: a join or comparison
    where a P term meets another term, a decision on a P term, a value
    whose P term a fold, a frame invalidation or the size cap dropped.
    A verdict that keeps its P term needs no note — it re-folds at any
    scale (see :meth:`RankAnalysis.instantiate`)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._steps_noted: list[tuple] = []
        self._hazards: list[str] = []
        self._contexts: dict[str, list[tuple]] = {}

    def _join(self, x, y, node=None) -> AbstractValue:
        out = join(x, y)
        reads_p = self.terms.reads_p
        if x is not None and y is not None and out.term is None \
                and (reads_p(x.term) or reads_p(y.term)):
            self._steps_noted.append((join, (x, y), out, node))
        return out

    def _av_equal(self, x, y, node=None) -> bool:
        out = av_equal(x, y)
        reads_p = self.terms.reads_p
        if not out and (reads_p(x.term) or reads_p(y.term)):
            self._steps_noted.append((av_equal, (x, y), out, node))
        return out

    def _decide(self, outcome, node, *avs):
        out = outcome(*avs)
        for av in avs:
            if type(av) is AbstractValue and self.terms.reads_p(av.term):
                self._steps_noted.append((outcome, avs, out, node))
                break
        return out

    def _drop_frame(self, av, name=None, node=None) -> AbstractValue:
        out = _without_frame(self.terms, av, name)
        if out is not av and self.terms.reads_p(av.term):
            self._steps_noted.append(
                (_without_frame, (self.terms, av, name), out, node)
            )
        return out

    def _build(self, node, tag: str, *args) -> tuple | None:
        out = self.terms.node(tag, *args)
        if out is None and any(
            type(a) is tuple and self.terms.reads_p(a) for a in args
        ):
            self._hazards.append(
                f"{_where(node)}a term on nprocs exceeds the size cap"
            )
        return out

    def _note_context(self, target: str, arg_avs: list) -> None:
        self._contexts.setdefault(target, []).append(tuple(arg_avs))

    def _fold(self, expr, fold, *args) -> AbstractValue:
        out = fold(self.terms, *args)
        # a result with a term re-folds from it; one without, from a P
        # operand, must be recomputed at the scale
        if out.term is None and any(self.terms.reads_p(a.term) for a in args[1:]):
            self._steps_noted.append((fold, (self.terms, *args), out, expr))
        return out

    def run(self) -> RankAnalysis:
        analysis = super().run()
        reads_p = self.terms.reads_p
        contexts = {
            target: args
            for target, args in self._contexts.items()
            if len(args) > 1
            and any(reads_p(av.term) for avs in args for av in avs)
        }
        analysis._record = _SymbolicRecord(
            hazards=tuple(dict.fromkeys(self._hazards)),
            steps=self._steps_noted,
            contexts=contexts,
            p_exprs=tuple(
                key for key, av in self.expr_verdicts.items()
                if reads_p(av.term)
            ),
            p_stmts=tuple(
                sid for sid, avs in self.stmt_args.items()
                if any(reads_p(av.term) for av in avs)
            ),
            p_deciders=tuple(
                sid for sid, decider in self.deciders.items()
                if reads_p(decider.av.term)
            ),
        )
        return analysis


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
    pass them to ``eval_term`` with a concrete ``nprocs``, or take
    the whole concrete analysis from :meth:`RankAnalysis.instantiate`.
    Precision only ever shrinks versus a concrete run (branches on
    ``nprocs`` are joined instead of decided), so every symbolic verdict
    is sound at every concrete scale.

    Total: never raises on valid ASTs.  When the internal step budget is
    exhausted (pathological programs) the result is fully degraded — an
    empty ``const_stmts`` and a degradation reason — which every consumer
    treats as "assume nothing".

    ``cache`` is a per-program memo dict (the lint passes its compile
    cache) that keeps the call-graph facts across analyses of the same
    program at several scales.
    """
    analyzer = (_Analyzer if nprocs is not None else _SymbolicAnalyzer)(
        program, nprocs, params or {}, entry, cache
    )
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
            terms=analyzer.terms,
        )
