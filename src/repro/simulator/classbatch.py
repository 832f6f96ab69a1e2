"""Class-batched interpretation: one representative run per rank class.

``partition_ranks`` (PR 6) proves sets of ranks that execute the identical
statement sequence.  This module interprets only the **representative**
of each class, records its op stream, and turns it into a class
template: every position either holds one op all members share or a
:class:`ColumnSet`, the representative's op plus one numpy column over the
members per rank-varying field (partners, tags, sizes, workloads) that
:mod:`repro.analysis.rankdep` classified — instead of running a generator
chain per rank.  This is the rank-parametric trace form of ScalaTrace
(Noeth et al., JPDC 2009), kept in memory.

Soundness rests on three independent guards, any of which degrades a
class (never the run) to per-rank interpretation:

1. **Eligibility** — every op in the representative stream must come from
   a statement whose captured arguments are copyable or carry a closed
   rank function (:func:`repro.analysis.batching.stmt_template`);
   wildcard receives and indirect-call notes are conservatively
   ineligible.
2. **Witness** — every derived value is recomputed for the representative
   and compared (type-strict) against the value the representative
   actually produced; a mismatch means the analysis and the interpreter
   disagree, so the template is discarded.
3. **Error-order fidelity** — if materializing the representative raises
   (runtime error, iteration limit), the class falls back so the error
   surfaces at the same simulated moment the per-rank oracle would
   surface it, not eagerly at engine start.

A column is evaluated for the whole class at once: an integer term of
``rank``, ``P``, constants and frame locals under ``+ - * / %``
(``np.mod``, which floors like Python's ``%``), comparisons,
``&& || !``, unary ``-`` and ``sel`` as one int64 or bool column
(:func:`_term_column`, exact while no member's evaluation could raise or
leave int64); anything else by ``eval_term`` per member.
Coercion to the interpreter's argument types runs on whole columns; any
value the interpreter would reject refuses the class with the reason the
per-member evaluation gives (:func:`_member_values`).

The representative runs through a recording interpreter
(:class:`_FrameRecorder`) that yields one op per distinct (statement,
inline path, bits of the frame locals the statement reads): bit-equal
executions share one instance, so the template builder classifies each
distinct op once.  Its closures compile once per program, into a
sub-cache of the program's compile cache, so the main cache holds
exactly what per-rank interpreters compile.

A rank function may read a loop-carried, rank-invariant local through a
``("frame", name)`` leaf (CG's hypercube partner ``rank - s`` for the
doubling stride ``s``).  Such a value is not fixed per statement, so the
recorder notes, for each distinct op of a frame-reading statement, the
frame values its template reads; the op's member columns are then
evaluated under that frame and cached by its bits.  The template may
read a leaf through an intermediate local (``w = rank * s`` used as
``w``), so the recorder's key holds the template's frame locals too.

The builder never touches the engine or a cost model: a template holds
the interpreter's own ops and the member columns, for the engine and the
lint alike, and each drain costs what it runs.  It returns each class's
template plus plain per-rank op lists fanned out from it on first read,
and the engine feeds them through the same handler loop as
generator-backed ranks; only a run that gets no lockstep plan first
swaps in precosted twins (:func:`precost_classes`).  Fan-out is the only
place member op objects are built: a column set builds its members' ops
once (with plain Python ``int``/``float`` fields), so positions sharing
a column set share them, and class members whose stream needs no
substitution share one list (each rank consumes its own ``iter``).  A
run the lockstep drain takes reads only the columns, so no member op is
built.  Bit-identity with the per-rank oracle is gated by
``tests/test_oracle_sweep.py``.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import attrgetter

import numpy as np

from repro.analysis.batching import (
    IneligibleStmt,
    StmtTemplate,
    op_stmt_index,
    stmt_template,
)
from repro.analysis.rankdep import (
    RankAnalysis,
    _compute_arg_exprs,
    _free_names,
    mpi_arg_exprs,
)
from repro.analysis.terms import eval_term
from repro.analysis.symmetry import SymmetrySummary
from repro.minilang.ast_nodes import ComputeStmt, MpiOp, MpiStmt, walk_statements
from repro.simulator import ops
from repro.simulator.trace import MPI_OP_CODES
from repro.simulator.costmodel import CostModel, Workload
from repro.simulator.errors import SimulationError
from repro.simulator.interp import _YIELD_ONE, Interpreter

__all__ = [
    "WORKLOAD_FIELDS",
    "BatchedStreams",
    "BatchResult",
    "ColumnSet",
    "build_batched_streams",
    "field_values",
    "precost_classes",
    "stack_columns",
    "transfer_column",
]

#: Hard sizing caps: fan-out trades memory for speed, so refuse templates
#: whose materialized footprint would dwarf the win (fallback is free).
_MAX_TOTAL_STREAM_OPS = 16_000_000
_MAX_VARYING_INSTANCES = 1_000_000
_MAX_RECORDED_REASONS = 8

#: Key of the op-location index in the caller's per-program compile cache.
_LOC_INDEX_KEY = "__classbatch_loc_index__"
#: Key of the recorder's own compile cache inside the per-program one
#: (see :class:`_FrameRecorder`).
_RECORDER_KEY = "__classbatch_recorder__"
#: Key, inside the recorder's cache, of which functions hold a statement
#: the recorder wraps (by name).
_WRAPS_KEY = "__wraps__"

#: Fields of the recv half of a sendrecv, as named by the analysis-side
#: capture layout -> the RecvOp attribute they set.
_RECV_HALF = {"recv_src": "src", "recv_tag": "tag"}

#: A compute's workload, split into the fields a column can vary.
WORKLOAD_FIELDS = ("flops", "mem_bytes", "locality", "threads")
#: A precosted compute's baked cost fields, in ``PrecostedComputeOp`` order.
_COST_FIELDS = ("duration", "ins", "cyc", "lst", "dcm")

#: The int64 range a column evaluates in, symmetric so that no floored
#: ``%`` meets ``INT64_MIN % -1``.
_I64_MAX = (1 << 63) - 1

#: A frame local that was not in the frame when the statement ran.
_UNBOUND = object()
_PACK_D = struct.Struct("<d").pack
#: op type -> getter of its field tuple (the classification memo's keys)
_FIELDS: dict[type, attrgetter] = {}


class _Fallback(Exception):
    """Degrade one class to per-rank interpretation (with a reason)."""


class ColumnSet:
    """One rank-varying template position, as columns over the members:
    the representative's op fields, each rank-varying one replaced by a
    column.

    ``make`` is the op type every member runs here; ``values`` maps each
    field of ``make`` (a compute's workload split into its four fields)
    either to the one value every member holds or to an int64/float64
    column with one entry per member (``members[i]``'s value at
    ``[i]``)."""

    __slots__ = ("make", "values", "n", "_ops")

    def __init__(self, make: type, values: dict, n: int) -> None:
        self.make = make
        self.values = values
        self.n = n
        self._ops: list | None = None

    def member_ops(self) -> list:
        """Every member's op, built on the first call and kept: positions
        sharing this column set share the instances."""
        if self._ops is None:
            self._ops = self._build(range(self.n))
        return self._ops

    def member_op(self, i: int):
        """Member ``i``'s op alone, without building the others."""
        return self._build(range(i, i + 1))[0]

    def _build(self, members: range) -> list:
        """The ops of ``members`` (indices), with plain Python fields."""
        rows = slice(members.start, members.stop)
        fields = {
            name: value[rows].tolist() if type(value) is np.ndarray
            else repeat(value)
            for name, value in self.values.items()
        }
        if issubclass(self.make, ops.ComputeOp):
            fields["workload"] = map(
                Workload, *(fields[f] for f in WORKLOAD_FIELDS)
            )
        return list(islice(map(
            self.make, *(fields[f] for f in self.make.__dataclass_fields__),
        ), len(members)))


def field_values(op) -> dict:
    """One op's fields in :attr:`ColumnSet.values` form (every value
    shared): a compute's workload split into its four fields."""
    values = {}
    for name in type(op).__dataclass_fields__:
        value = getattr(op, name)
        if name == "workload":
            for f in WORKLOAD_FIELDS:
                values[f] = getattr(value, f)
        else:
            values[name] = value
    return values


class BatchedStreams(Mapping):
    """Every batched rank's complete op list, fanned out from the class
    templates on the first read of a list.  Its length (the number of
    batched ranks) does not fan out, so a run whose lockstep plan runs
    every rank never materializes the per-rank lists."""

    def __init__(self, classes: list) -> None:
        self._classes = classes
        self._lists: dict[int, list] | None = None

    def __len__(self) -> int:
        if self._lists is not None:
            return len(self._lists)
        return sum(len(members) for members, _base, _patches in self._classes)

    def __iter__(self):
        return iter(self._fanned_out())

    def __getitem__(self, rank: int) -> list:
        return self._fanned_out()[rank]

    def _fanned_out(self) -> dict[int, list]:
        if self._lists is None:
            self._lists = {}
            for members, base, patches in self._classes:
                _fan_out(self._lists, base, patches, members)
            # the lists hold every op now: let the templates go
            self._classes = None
        return self._lists


@dataclass
class BatchResult:
    """Outcome of one engine's template build.

    ``classes`` holds each batched class's template ``(members, base,
    patches)`` (see :func:`_build_template`): member ``members[i]`` runs
    ``base`` with the ``i``-th member op of the :class:`ColumnSet` at
    every patched ``(position, column set)``.  ``streams`` maps every
    batched rank (representatives included) to its complete op list,
    fanned out when first read; ranks absent from it run the normal
    per-rank interpreter.
    """

    classes: list[tuple[list[int], list, list]] = field(default_factory=list)
    classes_batched: int = 0
    ranks_batched: int = 0
    fallbacks: int = 0
    fallback_reasons: tuple[str, ...] = ()
    streams: BatchedStreams = field(init=False)

    def __post_init__(self) -> None:
        self.streams = BatchedStreams(self.classes)


def stack_columns(
    rows: list, n: int, dtypes: tuple, fields=None,
) -> list[np.ndarray]:
    """One class's member columns end to end, position after position.

    ``rows`` holds one entry per position, ``fields(entry)`` (the entry
    itself by default) its fields' member columns, each an array over
    the class's ``n`` members or one value every member holds.  Positions
    that share an entry object (class batching shares ops and column
    sets between positions of equal values) share its row of the stack,
    so the work is one row per distinct entry and one gather per field,
    not one array per position.  Returns the first ``len(dtypes)``
    fields, each as one column of the given dtype."""
    where: dict[int, int] = {}
    distinct: list = []
    slots: list[int] = []
    for row in rows:
        i = where.get(id(row))
        if i is None:
            i = where[id(row)] = len(distinct)
            distinct.append(row if fields is None else fields(row))
        slots.append(i)
    gather = len(distinct) < len(slots)
    out = []
    for j, dtype in enumerate(dtypes):
        table = np.concatenate([
            row[j] if type(row[j]) is np.ndarray
            else np.full(n, row[j], dtype=dtype)
            for row in distinct
        ]).astype(dtype, copy=False)
        out.append(
            table.reshape(-1, n)[slots].reshape(-1) if gather else table
        )
    return out


def build_batched_streams(
    *,
    program,
    psg,
    nprocs: int,
    params,
    entry: str,
    max_iterations: int,
    analysis: RankAnalysis,
    summary: SymmetrySummary,
    expr_cache: dict,
    devirt: dict | None = None,
) -> BatchResult:
    """Build the class template of every batchable class.  A template
    records the representative's ops and its members' columns only, for
    the engine and the lint alike: no op is precosted (see
    :func:`precost_classes`).

    ``devirt`` is the match-order devirtualization map (see
    ``Engine._devirt_map``): an ANY-source receive with a proven-unique
    sender for *every* class member no longer forces the class onto the
    per-rank path — its members run concrete-source
    :class:`ops.DevirtRecvOp` instances instead, with a source column.
    """
    # program-only, so one index serves every scale sharing expr_cache
    loc_index = expr_cache.get(_LOC_INDEX_KEY)
    if loc_index is None:
        loc_index = expr_cache[_LOC_INDEX_KEY] = op_stmt_index(program)
    template_cache: dict[int, StmtTemplate | IneligibleStmt] = {}
    frame_stmts = _frame_stmts(analysis, loc_index, template_cache)
    result = BatchResult()
    reasons: list[str] = []

    for cls in summary.classes:
        members = list(cls.ranks)
        if len(members) < 2:
            continue  # nothing to batch
        rep = members[0]
        try:
            rep_stream, frame_values = _materialize(
                program, psg, rep, nprocs, params, entry, max_iterations,
                expr_cache, frame_stmts,
            )
        except Exception as exc:  # surfaces at the right time per-rank
            _note(result, reasons, f"representative rank {rep} raised: {exc}")
            continue
        if len(rep_stream) * len(members) > _MAX_TOTAL_STREAM_OPS:
            _note(result, reasons, "materialized stream would exceed size cap")
            continue
        try:
            base, patches = _build_template(
                rep_stream, frame_values, frame_stmts, members, analysis,
                loc_index, template_cache, nprocs, devirt,
            )
        except _Fallback as exc:
            _note(result, reasons, str(exc))
            continue
        result.classes.append((members, base, patches))
        result.classes_batched += 1
        result.ranks_batched += len(members)

    result.fallback_reasons = tuple(reasons)
    return result


def _note(result: BatchResult, reasons: list[str], reason: str) -> None:
    result.fallbacks += 1
    if reason not in reasons and len(reasons) < _MAX_RECORDED_REASONS:
        reasons.append(reason)


def _template(analysis: RankAnalysis, stmt, template_cache: dict):
    """The statement's template, or the IneligibleStmt it raised (cached)."""
    template = template_cache.get(stmt.stmt_id)
    if template is None:
        try:
            template = stmt_template(analysis, stmt)
        except IneligibleStmt as exc:
            template = exc
        template_cache[stmt.stmt_id] = template
    return template


def _frame_stmts(
    analysis: RankAnalysis, loc_index: dict, template_cache: dict
) -> dict[int, tuple[str, ...]]:
    """stmt_id -> the frame locals its varying fields read (sorted), for
    every op statement whose template reads any."""
    out = {}
    for stmt in loc_index.values():
        if stmt is None:
            continue
        template = _template(analysis, stmt, template_cache)
        if isinstance(template, IneligibleStmt):
            continue
        names = {n for rule in template.varying for n in rule.frame}
        if names:
            out[stmt.stmt_id] = tuple(sorted(names))
    return out


class _FrameRecorder(Interpreter):
    """A representative's interpreter that yields one op (or sendrecv
    pair) per distinct (statement, inline path, bits of the frame locals
    the statement reads), so bit-equal executions share one instance and
    the template builder classifies it once.

    The per-rank memo (:func:`repro.simulator.interp._reused`) covers
    statements whose arguments are rank-static; every other op statement
    is wrapped by :func:`_recording`.  Its key is the inline path plus the
    bits of the frame-resident locals its captured arguments read, and of
    the locals its template reads through ``("frame", name)`` leaves
    (``frame_stmts``); the recorder's rank, ``nprocs`` and params are
    fixed, so the key fixes the op.  For a statement in ``frame_stmts``
    it also notes ``frame_values[id(op)]``, the template's frame values,
    once per op (a sendrecv's two halves share one entry).

    The wrapped closures hold nothing specific to a rank, a scale or the
    params.  Only the bodies of functions that hold a wrapped statement
    compile into ``expr_cache``'s recorder sub-cache; expressions, and
    the bodies of every other function, are the plain interpreter's and
    come from (or go to) ``expr_cache`` itself.  The wrapped closures
    read ``frame_stmts`` and the memo from the recorder at run time.
    The memo dies with the recorder; the materialized stream keeps every
    op alive anyway, so ids stay unique.
    """

    def __init__(self, *args, frame_stmts: dict, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.frame_stmts = frame_stmts
        self.frame_values: dict[int, tuple] = {}
        #: (stmt_id, inline path, *frame bits) -> the op or sendrecv pair
        self.recorded_ops: dict[tuple, object] = {}
        self._own_cache = self._expr_cache.setdefault(_RECORDER_KEY, {})
        self._bodies = {}

    def _wraps(self, stmt) -> bool:
        """Is ``stmt`` an op statement the per-rank memo does not cover
        (some captured argument is not rank-static)?"""
        if isinstance(stmt, ComputeStmt):
            return not self._static_args(*_compute_arg_exprs(stmt))
        return isinstance(stmt, MpiStmt) \
            and not self._static_args(*mpi_arg_exprs(stmt))

    def _body(self, func):
        wraps = self._own_cache.setdefault(_WRAPS_KEY, {})
        holds = wraps.get(func.name)
        if holds is None:
            holds = wraps[func.name] = any(
                map(self._wraps, walk_statements(func.body))
            )
        # with nothing to wrap, the body is the plain interpreter's,
        # shared with every rank
        cache = self._own_cache if holds else self._expr_cache
        body = cache.get(id(func))
        if body is None:
            body = cache[id(func)] = self._compile_block(func.body)
        self._bodies[id(func)] = body
        return body

    def _compile_stmt(self, stmt):
        kind, fn = super()._compile_stmt(stmt)
        if not self._wraps(stmt):
            return kind, fn
        exprs = _compute_arg_exprs(stmt) if isinstance(
            stmt, ComputeStmt
        ) else mpi_arg_exprs(stmt)
        read: set[str] = set()
        for expr in exprs:
            if expr is not None:
                _free_names(expr, read)
        names = tuple(sorted(read & self._fnames))
        return kind, _recording(fn, kind, stmt.stmt_id, names)


def _recording(build, kind: int, stmt_id: int, names: tuple[str, ...]):
    """Memoize an op statement per recorder by the bits of the frame
    locals ``names`` (its captured arguments' reads) and of its
    template's frame locals.  A build that raises stores nothing, so it
    raises again at the same position."""

    def fn(frame, ctx, ip):
        key = (stmt_id, ip)
        for name in names:
            # the type tells 1, 1.0 and True apart; a float keys by bits
            v = frame.get(name, _UNBOUND)
            t = type(v)
            key += (t, _PACK_D(v) if t is float else v)
        frame_names = ctx.frame_stmts.get(stmt_id)
        if frame_names is not None:
            recorded = tuple(frame.get(n, _UNBOUND) for n in frame_names)
            key += (_frame_key(recorded),)
        out = ctx.recorded_ops.get(key)
        if out is None:
            out = ctx.recorded_ops[key] = build(frame, ctx, ip)
            if frame_names is not None:
                for op in (out,) if kind == _YIELD_ONE else out:
                    ctx.frame_values[id(op)] = recorded
        return out

    return fn


def _materialize(
    program, psg, rank, nprocs, params, entry, max_iterations,
    expr_cache, frame_stmts,
) -> tuple[list, dict]:
    """The representative's op stream plus its recorded frame values;
    the recorder compiles what it wraps into ``expr_cache``'s recorder
    sub-cache, and everything else into ``expr_cache``."""
    interp = _FrameRecorder(
        program, psg, rank, nprocs, params, frame_stmts=frame_stmts,
        max_iterations=max_iterations, entry=entry, expr_cache=expr_cache,
    )
    return list(interp.run()), interp.frame_values


class _Build:
    """What one class's template build shares between its positions."""

    def __init__(
        self, members, nprocs, analysis, loc_index, template_cache,
        frame_stmts, devirt,
    ) -> None:
        self.members = members
        self.ranks = np.asarray(members, dtype=np.int64)
        self.nprocs = nprocs
        self.analysis = analysis
        self.loc_index = loc_index
        self.template_cache = template_cache
        self.frame_stmts = frame_stmts
        self.devirt = devirt
        #: (stmt_id, field, frame key) -> coerced member column
        self.value_cache: dict = {}
        #: (op type and fields, frame bits) -> classification of every
        #: op with those, so ops of different inputs but equal contents
        #: share one column set (and so its member ops)
        self.classified: dict[tuple, tuple] = {}


def _build_template(
    rep_stream: list,
    frame_values: dict,
    frame_stmts: dict,
    members: list[int],
    analysis: RankAnalysis,
    loc_index: dict,
    template_cache: dict,
    nprocs: int,
    devirt: dict | None,
):
    """One pass over the representative stream -> (base, patches).

    ``base`` is the representative's stream (a devirtualized wildcard's
    position takes its rewritten op); ``patches`` lists ``(position,
    column set)`` for rank-varying positions.  The recorder repeats one
    instance for bit-equal executions, so an instance is classified once
    (by ``id``); instances with different inputs but equal fields and
    frame share one classification, and a column is evaluated once per
    statement, field and frame.
    """
    build = _Build(
        members, nprocs, analysis, loc_index, template_cache, frame_stmts,
        devirt,
    )
    base: list = []
    patches: list[tuple[int, ColumnSet]] = []
    # id(op) -> ("share", op) | ("vary", column set) | ("vary0", column
    # set, op); "vary0" means even the representative's own op was
    # rewritten (devirtualized wildcard), so base takes that op
    inst_cache: dict[int, tuple] = {}
    classified = build.classified
    # fan-out builds member ops once per column set, so only a new column
    # set (the classification memo grows) charges the size cap
    charged = 0

    for pos, op in enumerate(rep_stream):
        entry = inst_cache.get(id(op))
        if entry is None:
            entry = inst_cache[id(op)] = _classify_op(
                op, frame_values.get(id(op)), build
            )
            if len(classified) > charged:
                charged = len(classified)
                if charged * len(members) > _MAX_VARYING_INSTANCES:
                    raise _Fallback("rank-varying instances exceed size cap")
        if entry[0] == "share":
            base.append(entry[1])
        elif entry[0] == "vary0":
            base.append(entry[2])
            patches.append((pos, entry[1]))
        else:
            base.append(op)  # the representative's own instance is correct
            patches.append((pos, entry[1]))
    return base, patches


def _classify_op(op, recorded: tuple | None, build: _Build) -> tuple:
    """``("share", op)`` for an op every member runs as is, else
    ``("vary", column set)`` or, when even the representative's op is
    rewritten, ``("vary0", column set, its op)``.  ``recorded`` holds the
    frame values of the execution that yielded ``op``, if any.

    The columns are fixed per (statement, field, frame) within a class,
    so a classification is a function of the instance's fields and frame
    alone: instances equal in both share it (and so one column set).
    Called once per distinct instance; a frame-reading statement's
    instances differ in their inputs, so they look the memo up first."""
    content = None
    if recorded is not None:
        content = (_content(op), _frame_key(recorded))
        entry = build.classified.get(content)
        if entry is not None:
            return entry
    op_type = type(op)
    if op_type is ops.IndirectCallNote:
        raise _Fallback(f"{op.location}: indirect call in batched stream")
    members, devirt = build.members, build.devirt
    devirt_srcs = None
    if op_type is ops.RecvOp and (op.src is ops.ANY or op.tag is ops.ANY):
        # An ANY-source receive with a proven-unique sender for every
        # member devirtualizes (concrete per-member sources) instead of
        # refusing the class; ANY-tag receives stay refused — the proof
        # machinery only covers the source.
        if devirt and op.src is ops.ANY and op.tag is not ops.ANY:
            loc = op.location
            srcs = devirt.get((loc.filename, loc.line, loc.column))
            if srcs is not None and all(m in srcs for m in members):
                devirt_srcs = srcs
        if devirt_srcs is None:
            raise _Fallback(
                f"{op.location}: wildcard receive in batched stream"
            )

    loc = op.location
    stmt = build.loc_index.get((loc.filename, loc.line, loc.column))
    if stmt is None:
        raise _Fallback(f"{loc}: op not attributable to a unique statement")

    template = _template(build.analysis, stmt, build.template_cache)
    if isinstance(template, IneligibleStmt):
        raise _Fallback(str(template))

    rules = _rules_for(op, op_type, template)
    if not rules and devirt_srcs is None:
        return ("share", op)

    # Frame-reading statements: this execution's frame, bound for every
    # member (the locals are rank-invariant) and keyed by its bits.
    env = None
    names = build.frame_stmts.get(stmt.stmt_id)
    if names is not None:
        if recorded is None:
            raise _Fallback(f"{loc}: frame values were not recorded")
        env = {n: v for n, v in zip(names, recorded) if v is not _UNBOUND}
    elif content is None:
        content = (_content(op), None)
        entry = build.classified.get(content)
        if entry is not None:
            return entry
    build.classified[content] = entry = _vary(
        op, op_type, stmt, rules, env, content[1], devirt_srcs, build,
    )
    return entry


def _vary(op, op_type, stmt, rules, env, frame_key, devirt_srcs, build):
    """Derive a rank-varying instance's member columns (witness-checked
    against the representative at index 0) and build its column set."""
    loc, members = op.location, build.members
    columns: dict[str, np.ndarray] = {}
    value_cache = build.value_cache
    for rule, attr in rules:
        key = (stmt.stmt_id, rule.field, frame_key if rule.frame else ())
        column = value_cache.get(key)
        if column is None:
            column = _member_values(rule, build.ranks, build.nprocs, env)
            value_cache[key] = column
        observed = _observed(op, attr)
        derived = column[0].item()
        if type(derived) is not type(observed) or derived != observed:
            raise _Fallback(
                f"{loc}: witness mismatch on {rule.field} "
                f"(derived {derived!r}, observed {observed!r})"
            )
        columns[attr] = column

    values = field_values(op)
    make = op_type
    if devirt_srcs is not None:
        # Devirtualized wildcard: every member (the representative
        # included, hence "vary0") runs a concrete-source DevirtRecvOp;
        # the tag column still applies when the tag is rank-varying.
        make = ops.DevirtRecvOp
        key = ("devirt", loc.filename, loc.line, loc.column)
        srcs = value_cache.get(key)
        if srcs is None:
            srcs = value_cache[key] = np.fromiter(
                (devirt_srcs[m] for m in members), np.int64, len(members),
            )
        columns["src"] = srcs
    values.update(columns)
    if op_type is ops.ComputeOp:
        _check_workload(op, values)
    column_set = ColumnSet(make, values, len(members))
    if devirt_srcs is not None:
        return ("vary0", column_set, column_set.member_op(0))
    return ("vary", column_set)


def _content(op) -> tuple:
    """An op's type and fields, a workload by its bits: equal contents,
    equal ops (no other interpreter op holds a float)."""
    op_type = type(op)
    if op_type is ops.ComputeOp:
        return (op_type, op.vid, op.location, op.workload.bits())
    fields = _FIELDS.get(op_type)
    if fields is None:
        fields = _FIELDS[op_type] = attrgetter(*op_type.__dataclass_fields__)
    return (op_type, fields(op))


def _frame_key(recorded: tuple) -> tuple:
    """Recorded frame values by their bits (``0.0`` is not ``-0.0``)."""
    return tuple(
        (type(v), _PACK_D(v) if type(v) is float else v) for v in recorded
    )


def _rules_for(op, op_type, template: StmtTemplate):
    """The (FieldRule, op attribute) pairs relevant to this op instance —
    a sendrecv statement splits its rules between its two ops."""
    if not template.varying:
        return ()
    out = []
    sendrecv = getattr(op, "mpi_op", None) is MpiOp.SENDRECV
    for rule in template.varying:
        if sendrecv:
            if op_type is ops.SendOp:
                if rule.field in _RECV_HALF:
                    continue
                out.append((rule, rule.field))
            else:
                attr = _RECV_HALF.get(rule.field)
                if attr is not None:
                    out.append((rule, attr))
        else:
            out.append((rule, rule.field))
    return out


def _observed(op, attr: str):
    if isinstance(op, ops.ComputeOp):
        return getattr(op.workload, attr)
    return getattr(op, attr)


def _member_values(
    rule, members, nprocs: int, env: dict | None
) -> np.ndarray:
    """The coerced column of one rank-varying field over the member ranks
    (``env`` binds the term's frame leaves): int64 for ranks, tags and
    byte counts, float64 for compute fields.

    Evaluation and coercion mirror the interpreter's argument validators
    exactly (``_rank_arg``/``_tag_arg``/``_bytes_arg``/``_number_arg``);
    any value the validators would reject mid-run raises ``_Fallback`` so
    the per-rank path reproduces the error at the right simulated moment.
    A term column is checked whole; values evaluated per member, or a
    column that fails its check, go through :func:`_coerce_values`, so a
    refusal names the first offending member's value.
    """
    members = np.asarray(members, dtype=np.int64)
    column = _term_column(rule.term, members, nprocs, env)
    if column is None:
        try:
            raw = [
                eval_term(rule.term, r, nprocs, env) for r in members.tolist()
            ]
        except SimulationError as exc:
            raise _Fallback(f"term evaluation failed: {exc}") from exc
    elif column.dtype == bool or not _in_range(rule, column, nprocs):
        # every coercion rejects a bool: the per-member reason
        raw = column.tolist()
    elif rule.coerce == "number":
        return column.astype(np.float64)
    else:
        return column
    out = _coerce_values(rule, raw, nprocs)
    try:
        return np.array(
            out, dtype=np.float64 if rule.coerce == "number" else np.int64
        )
    except OverflowError:
        v = next(v for v in out if abs(v) > _I64_MAX)
        raise _Fallback(
            f"derived {rule.field}={v!r} exceeds the int64 range"
        ) from None


def _in_range(rule, column: np.ndarray, nprocs: int) -> bool:
    """Does every value of an int64 column pass the rule's coercion as
    is?  (A number always does.)"""
    if rule.coerce == "number":
        return True
    low = column >= 0
    return bool((low & (column < nprocs) if rule.coerce == "rank" else low).all())


class _NotColumnar(Exception):
    """A term leaves the columnar subset: evaluate it per member."""


def _term_column(term: tuple, members: np.ndarray, nprocs: int, env):
    """``eval_term(term, r, nprocs, env)`` for every member ``r`` at once,
    as an int64 or bool column (a Python int or bool per member, the
    dtype telling which), or None when the term leaves the columnar
    subset or some member's evaluation could raise or leave the int64
    range: the caller then evaluates it per member, which reproduces
    the value or the error exactly.

    The subset is ``const``, ``rank``, ``P`` and ``frame`` leaves holding
    ints or bools, ``+ - * / %``, comparisons, ``&& || !``, unary ``-``
    and ``sel``.  Every operand is evaluated for every member (a decided
    ``&&``/``||`` or ``sel`` would skip some), so a zero divisor or an
    out-of-range value anywhere gives None.  ``/`` of two ints is
    ``int(a / b)`` in Python: a correctly rounded quotient, truncated;
    float64 division is the same while both operands are below 2**53.
    ``%`` floors like Python's, as ``np.mod`` does.  Subterms without
    ``rank`` stay Python ints and bools."""
    try:
        value = _column(term, _Members(members, nprocs, env))
    except _NotColumnar:
        return None
    if type(value) is np.ndarray:
        # a column of its own, never the caller's member array
        return value.copy() if value is members else value
    return np.full(len(members), value, dtype=bool if type(value) is bool
                   else np.int64)


#: operand magnitude below which ``int / int`` goes through float64 exactly
_F64_EXACT = 1 << 53
_COMPARE = {
    "==": np.equal, "!=": np.not_equal, "<": np.less, ">": np.greater,
    "<=": np.less_equal, ">=": np.greater_equal,
}


class _Members:
    """What a columnar term evaluation reads: the member ranks (and their
    largest magnitude), ``nprocs`` and the frame."""

    __slots__ = ("ranks", "magnitude", "nprocs", "env")

    def __init__(self, ranks: np.ndarray, nprocs: int, env) -> None:
        self.ranks = ranks
        self.magnitude = _magnitude(ranks)
        self.nprocs = nprocs
        self.env = env


def _column(term: tuple, at: _Members):
    """One term over the members: an int64 or bool column, or a Python
    int or bool every member shares."""
    tag = term[0]
    if tag == "rank":
        return at.ranks
    if tag in ("const", "P", "frame"):
        if tag == "const":
            value = term[1]
        elif tag == "P":
            value = at.nprocs
        elif at.env is not None and term[1] in at.env:
            value = at.env[term[1]]
        else:
            raise _NotColumnar
        if type(value) is bool or (
            type(value) is int and abs(value) <= _I64_MAX
        ):
            return value
        raise _NotColumnar
    if tag == "sel":
        cond, then, other = (_column(t, at) for t in term[1:])
        if _is_bool(then) is not _is_bool(other):
            raise _NotColumnar
        if type(cond) is not np.ndarray:
            return then if cond else other
        return np.where(cond != 0, then, other)
    if tag == "un":
        value = _column(term[2], at)
        if term[1] == "!":
            return value == 0
        if term[1] != "-" or _is_bool(value):
            raise _NotColumnar  # Python refuses to negate a bool
        return -value
    if tag != "bin":
        raise _NotColumnar
    op = term[1]
    left, right = _column(term[2], at), _column(term[3], at)
    if op == "&&":
        return (left != 0) & (right != 0)
    if op == "||":
        return (left != 0) | (right != 0)
    compare = _COMPARE.get(op)
    if compare is not None:
        if type(left) is np.ndarray or type(right) is np.ndarray:
            return compare(left, right)
        return compare(left, right).item()
    # arithmetic on bools gives ints, as in Python
    left, right = _as_int(left), _as_int(right)
    a = at.magnitude if left is at.ranks else _magnitude(left)
    b = at.magnitude if right is at.ranks else _magnitude(right)
    if op in ("+", "-", "*"):
        if (a * b if op == "*" else a + b) > _I64_MAX:
            raise _NotColumnar
        if op == "+":
            return left + right
        return left - right if op == "-" else left * right
    if op not in ("/", "%") or not np.all(right):
        raise _NotColumnar  # a zero divisor raises for some member
    if op == "%":
        value = np.mod(left, right)
    elif a >= _F64_EXACT or b >= _F64_EXACT:
        raise _NotColumnar
    else:
        value = np.trunc(np.divide(left, right, dtype=np.float64))
        value = value.astype(np.int64)
    return value if type(value) is np.ndarray else int(value)


def _is_bool(value) -> bool:
    return value.dtype == bool if type(value) is np.ndarray \
        else type(value) is bool


def _as_int(value):
    """A bool column or bool as int64 or int; ints as they are."""
    if type(value) is np.ndarray:
        return value.astype(np.int64) if value.dtype == bool else value
    return int(value)


def _magnitude(value) -> int:
    """The largest absolute value of an int64 column (0 when empty) or
    of an int."""
    if type(value) is not np.ndarray:
        return abs(value)
    if not len(value):
        return 0
    return max(-int(value.min()), int(value.max()))


def _coerce_values(rule, raw: list, nprocs: int) -> list:
    """The per-member coercion: one coerced value per member, raising
    ``_Fallback`` at the first value the interpreter would reject."""
    coerce = rule.coerce
    out = []
    for v in raw:
        if coerce == "rank":
            if isinstance(v, bool) or not isinstance(v, int) \
                    or not 0 <= v < nprocs:
                raise _Fallback(f"derived {rule.field}={v!r} is not a valid rank")
        elif coerce == "tag":
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise _Fallback(f"derived {rule.field}={v!r} is not a valid tag")
        elif coerce == "bytes":
            if isinstance(v, bool) or not isinstance(v, (int, float)) \
                    or not v >= 0 or v == float("inf"):
                raise _Fallback(f"derived {rule.field}={v!r} is not a byte count")
            v = int(v)
        else:  # "number" (compute fields; range-checked at Workload build)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise _Fallback(f"derived {rule.field}={v!r} is not a number")
            v = float(v)
        out.append(v)
    return out


def _check_workload(op, values: dict) -> None:
    """Validate a varying compute's member workloads in
    ``Interpreter._compile_compute``'s order (the first offending member
    names the reason), then clamp the locality column as ``Workload``
    does with Python's ``min``/``max``: ``np.where`` keeps their tie and
    NaN rules (``-0.0`` and NaN become ``0.0``), ``np.clip`` would not."""
    n = next(len(v) for v in values.values() if type(v) is np.ndarray)
    flops, mem, threads = (
        np.broadcast_to(values[f], n) for f in ("flops", "mem_bytes", "threads")
    )
    negative = (flops < 0) | (mem < 0)
    bad = negative | (threads < 1)
    if bad.any():
        if negative[int(bad.argmax())]:
            raise _Fallback(f"{op.location}: negative derived workload")
        raise _Fallback(f"{op.location}: derived threads < 1")
    locality = values["locality"]
    if type(locality) is np.ndarray:
        locality = np.where(locality > 0.0, locality, 0.0)
        values["locality"] = np.where(locality < 1.0, locality, 1.0)


def precost_classes(
    classes: list, cost: CostModel, precost_compute: bool,
) -> list:
    """The batched classes ``(members, base, patches)`` with their sends,
    and their computes when ``precost_compute``, swapped for precosted
    twins (:class:`ops.PrecostedSendOp`, :class:`ops.PrecostedComputeOp`):
    what the engine's time-ordered loop runs when it gets no lockstep plan.

    A send's costs are pure in its byte count (the network model is fixed
    and noise-free).  ``precost_compute`` must only be True when
    ``cost.compute_cost`` is rank-independent (no per-execution noise, no
    per-rank speed spread); the cost model is then queried once per
    distinct workload bits over all classes.  Positions that share an op
    or a column set share its twin."""
    #: workload bits -> baked cost row, shared by every class
    baked: dict[bytes, tuple] = {}
    #: id of an op or column set -> its twin
    twins: dict[int, object] = {}

    def twin(item):
        out = twins.get(id(item))
        if out is None:
            precosted = _precosted_set if type(item) is ColumnSet \
                else _precosted_op
            out = twins[id(item)] = precosted(
                item, cost, precost_compute, baked,
            )
        return out

    return [
        (
            members, [twin(op) for op in base],
            [(pos, twin(column_set)) for pos, column_set in patches],
        )
        for members, base, patches in classes
    ]


def _precosted_op(op, cost: CostModel, precost_compute: bool, baked: dict):
    """The precosted twin of one op every member runs, or the op."""
    op_type = type(op)
    if op_type is ops.SendOp:
        return ops.PrecostedSendOp(
            **field_values(op), overhead=cost.send_overhead(),
            transfer=cost.p2p_transfer(op.nbytes),
            op_code=MPI_OP_CODES[op.mpi_op],
        )
    if op_type is not ops.ComputeOp or not precost_compute:
        return op
    return ops.PrecostedComputeOp(
        op.vid, op.location, op.workload, *_bake(cost, op.workload, baked),
    )


def _precosted_set(
    column_set: ColumnSet, cost: CostModel, precost_compute: bool,
    baked: dict,
) -> ColumnSet:
    """The precosted twin of one rank-varying position, or the column
    set: a compute's cost columns are scattered from one query per
    distinct workload bits."""
    make, values, n = column_set.make, column_set.values, column_set.n
    if make is ops.SendOp:
        return ColumnSet(ops.PrecostedSendOp, {
            **values, "overhead": cost.send_overhead(),
            "transfer": transfer_column(values["nbytes"], cost),
            "op_code": MPI_OP_CODES[values["mpi_op"]],
        }, n)
    if make is not ops.ComputeOp or not precost_compute:
        return column_set
    rows = np.empty((n, 4))
    for j, f in enumerate(WORKLOAD_FIELDS):
        rows[:, j] = values[f]
    _, first, inverse = np.unique(
        rows.view(np.uint64), axis=0, return_index=True, return_inverse=True,
    )
    table = np.asarray([
        _bake(cost, Workload(*rows[i].tolist()), baked)
        for i in first.tolist()
    ], dtype=np.float64)[inverse.reshape(-1)]
    return ColumnSet(ops.PrecostedComputeOp, {
        **values,
        **{f: table[:, j].copy() for j, f in enumerate(_COST_FIELDS)},
    }, n)


def transfer_column(nbytes, cost: CostModel):
    """Per-member transfer times of a send (one cost query per distinct
    byte count), or the one time every member shares."""
    if type(nbytes) is not np.ndarray:
        return cost.p2p_transfer(nbytes)
    distinct, inverse = np.unique(nbytes, return_inverse=True)
    times = [cost.p2p_transfer(v) for v in distinct.tolist()]
    return np.asarray(times, dtype=np.float64)[inverse.reshape(-1)]


def _bake(cost: CostModel, workload: Workload, baked: dict) -> tuple:
    """``(duration, ins, cyc, lst, dcm)`` of one rank-independent compute,
    queried once per distinct workload bits (``baked`` keeps them)."""
    key = workload.bits()
    row = baked.get(key)
    if row is None:
        duration, counters = cost.compute_cost(0, workload)
        row = baked[key] = (
            duration, counters.tot_ins, counters.tot_cyc,
            counters.tot_lst_ins, counters.l2_dcm,
        )
    return row


def _fan_out(
    streams: dict, base: list, patches: list, members: list[int]
) -> None:
    """Per-member streams from the template.  With no rank-varying slots
    every member shares the *same list* (each rank gets its own iterator);
    otherwise members get a patched copy."""
    if not patches:
        for r in members:
            streams[r] = base
        return
    streams[members[0]] = base
    columns = [(pos, column_set.member_ops()) for pos, column_set in patches]
    for i, r in enumerate(members):
        if i == 0:
            continue
        s = base.copy()
        for pos, per_member in columns:
            s[pos] = per_member[i]
        streams[r] = s
