"""Template-eligibility proof for class-batched interpretation.

Class batching (PR 9) interprets one *representative* rank per behavioral
equivalence class (:mod:`repro.analysis.symmetry`) and fans the recorded
op stream out to every member by substituting the rank-dependent argument
values.  That is only sound when, for every op the representative
emitted, each captured argument is one of

* **copyable** — proven ``CONST`` (same value on every rank, every
  execution) or ``INVARIANT`` (same value on every rank at each
  corresponding execution, which class members share by construction):
  the member's op reuses the representative's value verbatim; or
* **derivable** — carrying a symbolic rank function (an
  ``AbstractValue.term``): the member's value is
  ``eval_term(term, rank)``, constant across that statement's executions
  — unless the term reads ``("frame", name)`` leaves (a loop-carried,
  rank-invariant local such as a hypercube stride), whose values the
  runtime binds per execution from the representative's frame.

Anything else (a rank-dependent argument whose term failed to fold, a
statement the dataflow never reached, colliding source locations that
make op→statement attribution ambiguous) raises :class:`IneligibleStmt`
and the *whole class* falls back to per-rank interpretation — batching is
an optimizer, never a semantics carrier.

The runtime side (:mod:`repro.simulator.classbatch`) additionally
verifies every derived value against the representative's observed op
stream (the *witness* check) before trusting a template, so an analysis
bug degrades to the per-rank path instead of corrupting a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.minilang import ast_nodes as ast
from repro.analysis.rankdep import (
    RankAnalysis,
    Rankness,
    mpi_arg_exprs,
)

__all__ = [
    "FieldRule",
    "StmtTemplate",
    "IneligibleStmt",
    "stmt_template",
    "op_stmt_index",
]


class IneligibleStmt(Exception):
    """This statement's op record cannot be derived from a class template."""


@dataclass(frozen=True)
class FieldRule:
    """How one rank-varying op field is derived for a class member.

    ``coerce`` names the interpreter-side argument validator the derived
    value must round-trip through (``rank`` / ``tag`` / ``bytes`` /
    ``number``) so substituted fields are bit-identical to per-rank
    construction.  ``affine`` is the ``(a, b, mod)`` fast path when
    :mod:`repro.analysis.rankdep` recovered integer coefficients.
    ``frame`` names the locals the term reads through ``("frame", name)``
    leaves, sorted; empty when the term is a closed rank function.
    """

    field: str
    coerce: str
    term: tuple
    frame: tuple[str, ...] = ()


@dataclass(frozen=True)
class StmtTemplate:
    """Per-statement derivation plan: fields absent from ``varying`` are
    copied from the representative's op instance unchanged."""

    stmt_id: int
    varying: tuple[FieldRule, ...]


#: Capture-order field layouts, mirroring ``rankdep.mpi_arg_exprs`` /
#: ``rankdep._compute_arg_exprs`` (and thus ``Interpreter._compile_mpi``).
#: SENDRECV names the recv half ``recv_src``/``recv_tag``; the runtime
#: splitter maps those onto the RecvOp's ``src``/``tag``.
_SEND_FIELDS = (("dest", "rank"), ("tag", "tag"), ("nbytes", "bytes"))
_RECV_FIELDS = (("src", "rank"), ("tag", "tag"))
_SENDRECV_FIELDS = _SEND_FIELDS + (("recv_src", "rank"), ("recv_tag", "tag"))
_COLLECTIVE_FIELDS = (("root", "rank"), ("nbytes", "bytes"))
_COMPUTE_FIELDS = (
    ("flops", "number"), ("mem_bytes", "number"),
    ("locality", "number"), ("threads", "number"),
)


def _field_layout(stmt: ast.Stmt) -> tuple[tuple[str, str], ...]:
    if isinstance(stmt, ast.ComputeStmt):
        return _COMPUTE_FIELDS
    assert isinstance(stmt, ast.MpiStmt)
    op = stmt.op
    if op in (ast.MpiOp.SEND, ast.MpiOp.ISEND):
        return _SEND_FIELDS
    if op in (ast.MpiOp.RECV, ast.MpiOp.IRECV):
        return _RECV_FIELDS
    if op is ast.MpiOp.SENDRECV:
        return _SENDRECV_FIELDS
    if op in ast.WAIT_OPS:
        return ()
    return _COLLECTIVE_FIELDS


def stmt_template(analysis: RankAnalysis, stmt: ast.Stmt) -> StmtTemplate:
    """The derivation plan for one op-emitting statement.

    Raises :class:`IneligibleStmt` when any captured argument is neither
    copyable (kind ≤ INVARIANT) nor derivable (a ``term``, possibly over
    frame leaves) under the joined-over-contexts verdict in
    ``analysis.stmt_args``.
    """
    avs = analysis.stmt_args.get(stmt.stmt_id)
    if avs is None:
        raise IneligibleStmt(
            f"{stmt.location}: statement never reached by the dataflow"
        )
    layout = _field_layout(stmt)
    if len(avs) != len(layout):
        raise IneligibleStmt(
            f"{stmt.location}: captured-argument arity mismatch "
            f"({len(avs)} verdicts for {len(layout)} fields)"
        )
    varying: list[FieldRule] = []
    for (field, coerce), av in zip(layout, avs):
        if av.kind <= Rankness.INVARIANT:
            continue  # copy the representative's observed value
        if av.term is None:
            raise IneligibleStmt(
                f"{stmt.location}: {field} is rank-dependent with no "
                "closed rank function"
            )
        varying.append(FieldRule(
            field, coerce, av.term,
            tuple(sorted(analysis.terms.env_names(av.term))),
        ))
    return StmtTemplate(stmt.stmt_id, tuple(varying))


def _walk_stmts(block: ast.Block):
    for stmt in block.statements:
        yield stmt
        if isinstance(stmt, ast.IfStmt):
            yield from _walk_stmts(stmt.then_body)
            if stmt.else_body is not None:
                yield from _walk_stmts(stmt.else_body)
        elif isinstance(stmt, ast.ForStmt):
            if stmt.init is not None:
                yield stmt.init
            if stmt.step is not None:
                yield stmt.step
            yield from _walk_stmts(stmt.body)
        elif isinstance(stmt, ast.WhileStmt):
            yield from _walk_stmts(stmt.body)


def op_stmt_index(
    program: ast.Program,
) -> dict[tuple[str, int, int], ast.Stmt | None]:
    """Map each op-emitting statement's source location to the statement.

    Op records carry only ``(vid, location)``; the location is the
    emitting statement's own, so this index attributes a representative's
    ops back to statements.  A location claimed by two op-emitting
    statements maps to ``None`` (ambiguous) — the runtime treats any op
    from such a location as ineligible, keeping attribution sound even if
    a frontend ever emitted colliding positions.
    """
    index: dict[tuple[str, int, int], ast.Stmt | None] = {}
    for func in program.functions.values():
        for stmt in _walk_stmts(func.body):
            if not isinstance(stmt, (ast.MpiStmt, ast.ComputeStmt)):
                continue
            loc = stmt.location
            key = (loc.filename, loc.line, loc.column)
            index[key] = None if key in index else stmt
    return index
