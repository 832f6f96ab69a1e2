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

A column is evaluated for the whole class at once: an affine rule as
``a * members + b`` (``np.mod`` for ``% mod``, which floors like Python's
``%``) when its range provably fits int64, any other term by ``eval_term``
per member.  Coercion to the interpreter's argument types runs on whole
columns; any value the interpreter would reject refuses the class with
the reason the per-member evaluation gives (:func:`_member_values`).

A rank function may read a loop-carried, rank-invariant local through a
``("frame", name)`` leaf (CG's hypercube partner ``rank - s`` for the
doubling stride ``s``).  Such a value is not fixed per statement, so the
representative runs through a recording interpreter (a private compile
cache — the engine-shared one keeps its closures) that notes, for every
execution of a frame-reading statement, the frame values its template
reads; each execution's member columns are then evaluated under that
frame and cached by its bits.

The builder never touches the engine: it returns each class's template
plus plain per-rank op lists fanned out from it on first read, and the
engine feeds them through the same handler loop as generator-backed
ranks.  Fan-out is the only place member op objects are built: a column
set builds its members' ops once (with plain Python ``int``/``float``
fields), so positions sharing a column set share them, and class members
whose stream needs no substitution share one list (each rank consumes its
own ``iter``).  A run the lockstep drain takes reads only the columns, so
no member op is built.  Bit-identity with the per-rank oracle is gated by
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
from repro.analysis.rankdep import RankAnalysis, eval_term
from repro.analysis.symmetry import SymmetrySummary
from repro.minilang.ast_nodes import MpiOp
from repro.simulator import ops
from repro.simulator.trace import MPI_OP_CODES
from repro.simulator.costmodel import CostModel, Workload
from repro.simulator.errors import SimulationError
from repro.simulator.interp import _YIELD_ONE, Interpreter

__all__ = [
    "COST_FIELDS",
    "WORKLOAD_FIELDS",
    "BatchResult",
    "ColumnSet",
    "build_batched_streams",
    "field_values",
]

#: Hard sizing caps: fan-out trades memory for speed, so refuse templates
#: whose materialized footprint would dwarf the win (fallback is free).
_MAX_TOTAL_STREAM_OPS = 16_000_000
_MAX_VARYING_INSTANCES = 1_000_000
_MAX_RECORDED_REASONS = 8

#: Key of the op-location index in the caller's per-program compile cache.
_LOC_INDEX_KEY = "__classbatch_loc_index__"

#: Fields of the recv half of a sendrecv, as named by the analysis-side
#: capture layout -> the RecvOp attribute they set.
_RECV_HALF = {"recv_src": "src", "recv_tag": "tag"}

#: A compute's workload, split into the fields a column can vary.
WORKLOAD_FIELDS = ("flops", "mem_bytes", "locality", "threads")
#: A precosted compute's baked cost fields, in ``PrecostedComputeOp`` order.
COST_FIELDS = ("duration", "ins", "cyc", "lst", "dcm")

#: The int64 range a column evaluates in, symmetric so that no floored
#: ``%`` meets ``INT64_MIN % -1``.
_I64_MAX = (1 << 63) - 1

#: A frame-leaf local that was not in the frame when the statement ran.
_UNBOUND = object()
_PACK_D = struct.Struct("<d").pack
_PACK_4D = struct.Struct("<4d").pack
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
    cost: CostModel | None,
    precost_compute: bool,
    devirt: dict | None = None,
) -> BatchResult:
    """Build the class template of every batchable class.

    ``precost_compute`` must only be True when ``cost.compute_cost`` is
    rank-independent (no per-execution noise, no per-rank speed spread) —
    the engine checks the machine model before enabling it.  With
    ``cost=None`` nothing is precosted (sends stay plain ``SendOp``s),
    for callers that never time the streams; ``precost_compute`` must
    then be False.

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
    # Recording closures compile into a cache of their own, so the
    # engine-shared one holds exactly what per-rank interpreters compile.
    rep_cache = {} if frame_stmts else expr_cache
    # workload bits -> baked cost row, shared by every class: the cost is
    # rank-independent whenever it is baked at all
    precost_cache: dict[bytes, tuple] = {}
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
                rep_cache, frame_stmts,
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
                loc_index, template_cache, nprocs, cost, precost_compute,
                precost_cache, devirt,
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
    """A representative's interpreter that records, per execution of a
    frame-reading statement, the values of the locals its template reads:
    ``frame_values[id(op)]`` for each op the execution yields (a
    sendrecv's two halves share one entry).  Its ops are fresh per
    execution (the arguments read the frame, so no memo tier applies), and
    the materialized stream keeps them alive, so ids stay unique."""

    def __init__(self, *args, frame_stmts: dict, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.frame_stmts = frame_stmts
        self.frame_values: dict[int, tuple] = {}

    def _compile_stmt(self, stmt):
        kind, fn = super()._compile_stmt(stmt)
        names = self.frame_stmts.get(stmt.stmt_id)
        if names is None or getattr(fn, "_memoized_op", False):
            return kind, fn

        def record(frame, ctx, ip):
            out = fn(frame, ctx, ip)
            values = tuple(frame.get(n, _UNBOUND) for n in names)
            for op in (out,) if kind == _YIELD_ONE else out:
                ctx.frame_values[id(op)] = values
            return out

        return kind, record


def _materialize(
    program, psg, rank, nprocs, params, entry, max_iterations,
    expr_cache, frame_stmts,
) -> tuple[list, dict]:
    """The representative's op stream plus its recorded frame values."""
    interp = _FrameRecorder(
        program, psg, rank, nprocs, params, frame_stmts=frame_stmts,
        max_iterations=max_iterations, entry=entry,
        expr_cache=expr_cache,
    )
    return list(interp.run()), interp.frame_values


class _Build:
    """What one class's template build shares between its positions."""

    def __init__(
        self, members, nprocs, analysis, loc_index, template_cache,
        frame_stmts, cost, precost_compute, precost_cache, devirt,
    ) -> None:
        self.members = members
        self.ranks = np.asarray(members, dtype=np.int64)
        self.nprocs = nprocs
        self.analysis = analysis
        self.loc_index = loc_index
        self.template_cache = template_cache
        self.frame_stmts = frame_stmts
        self.cost = cost
        self.precost_compute = precost_compute
        self.precost_cache = precost_cache
        self.devirt = devirt
        #: (stmt_id, field, frame key) -> coerced member column
        self.value_cache: dict = {}
        #: (op type and fields, frame bits) -> classification of every
        #: instance with those, so bit-equal executions share one column
        #: set (and so its member ops)
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
    cost: CostModel | None,
    precost_compute: bool,
    precost_cache: dict,
    devirt: dict | None,
):
    """One pass over the representative stream -> (base, patches).

    ``base`` is the representative's stream with shared compute and send
    ops swapped for their precosted twins; ``patches`` lists ``(position,
    column set)`` for rank-varying positions.  Instances with equal
    fields and frame share one classification (memoized streams repeat
    instances, frame-reading statements yield fresh ones), and a column
    is evaluated once per statement, field and frame.
    """
    build = _Build(
        members, nprocs, analysis, loc_index, template_cache, frame_stmts,
        cost, precost_compute, precost_cache, devirt,
    )
    base: list = []
    patches: list[tuple[int, ColumnSet]] = []
    # id(op) -> ("share", op) | ("vary", column set) | ("vary0", column
    # set, op); "vary0" means even the representative's own op was
    # rewritten (devirtualized wildcard), so base takes that op
    inst_cache: dict[int, tuple] = {}
    varying_budget = _MAX_VARYING_INSTANCES

    for pos, op in enumerate(rep_stream):
        entry = inst_cache.get(id(op))
        if entry is None:
            entry = inst_cache[id(op)] = _classify_op(
                op, frame_values.get(id(op)), build
            )
            if entry[0] != "share":
                varying_budget -= len(members)
                if varying_budget < 0:
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
    alone: instances equal in both share it (and so one column set).  A
    frame-reading statement yields a fresh instance per execution, so
    its instances look the memo up first."""
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

    cost = build.cost
    rules = _rules_for(op, op_type, template)
    if not rules and devirt_srcs is None:
        if build.precost_compute and op_type is ops.ComputeOp:
            return ("share", _precosted(
                op, op.workload, cost, build.precost_cache
            ))
        if op_type is ops.SendOp and cost is not None:
            return ("share", _precosted_send(op, op.nbytes, cost))
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
    loc, members, cost = op.location, build.members, build.cost
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
    elif op_type is ops.ComputeOp:
        make = ops.PrecostedComputeOp if build.precost_compute \
            else ops.ComputeOp
    elif op_type is ops.SendOp and cost is not None:
        make = ops.PrecostedSendOp
    else:
        make = op_type
    values.update(columns)
    if op_type is ops.ComputeOp:
        _check_workload(op, values)
    if make is ops.PrecostedComputeOp:
        values.update(_precost_columns(
            values, len(members), cost, build.precost_cache
        ))
    elif make is ops.PrecostedSendOp:
        values["overhead"] = cost.send_overhead()
        values["transfer"] = _transfer_column(values["nbytes"], cost)
        values["op_code"] = MPI_OP_CODES[op.mpi_op]
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
    An affine column is checked whole; values evaluated per member, or a
    column that fails its check, go through :func:`_coerce_values`, so a
    refusal names the first offending member's value.
    """
    members = np.asarray(members, dtype=np.int64)
    affine = rule.affine
    if affine is not None and affine[2] == 0:
        # the term's own evaluation would fail the same way
        raise _Fallback("term evaluation failed: modulo by zero")
    column = None if affine is None else _affine_column(affine, members)
    if column is not None:
        if rule.coerce == "number":
            return column.astype(np.float64)
        low = column >= 0
        if (low & (column < nprocs) if rule.coerce == "rank" else low).all():
            return column
        raw = column.tolist()
    elif affine is not None:
        # exact Python ints where int64 could overflow
        a, b, mod = affine
        raw = (
            [a * r + b for r in members.tolist()]
            if mod is None
            else [(a * r + b) % mod for r in members.tolist()]
        )
    else:
        try:
            raw = [eval_term(rule.term, r, nprocs, env) for r in members.tolist()]
        except SimulationError as exc:
            raise _Fallback(f"term evaluation failed: {exc}") from exc
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


def _affine_column(affine: tuple, members: np.ndarray) -> np.ndarray | None:
    """``a * members + b`` (floored ``% mod``) in int64, or None when an
    intermediate could leave the int64 range: the coefficients are
    unbounded Python ints, so the range is checked in Python first."""
    a, b, mod = affine
    if not (
        type(a) is int and type(b) is int
        and (mod is None or type(mod) is int)
    ):
        return None
    lo, hi = int(members.min()), int(members.max())
    # a * r + b is monotone in r: its extremes sit at the end points
    bounds = (a, b, a * lo, a * hi, a * lo + b, a * hi + b) + (
        () if mod is None else (mod,)
    )
    if any(abs(v) > _I64_MAX for v in bounds):
        return None
    column = a * members + b
    return column if mod is None else np.mod(column, mod)


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
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0:
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


def _precost_columns(
    values: dict, n: int, cost: CostModel, precost_cache: dict
) -> dict:
    """The baked cost columns of a varying precosted compute: the cost
    model is queried once per distinct workload bits (rank-independent,
    by the caller's machine check) and scattered over the members."""
    rows = np.empty((n, 4))
    for j, f in enumerate(WORKLOAD_FIELDS):
        rows[:, j] = values[f]
    _, first, inverse = np.unique(
        rows.view(np.uint64), axis=0, return_index=True, return_inverse=True,
    )
    baked = []
    for i in first.tolist():
        workload = rows[i].tolist()
        key = _PACK_4D(*workload)
        row = precost_cache.get(key)
        if row is None:
            row = precost_cache[key] = _bake(cost, Workload(*workload))
        baked.append(row)
    table = np.asarray(baked, dtype=np.float64)[inverse.reshape(-1)]
    return {f: table[:, j].copy() for j, f in enumerate(COST_FIELDS)}


def _transfer_column(nbytes, cost: CostModel):
    """Per-member transfer times of a send (one cost query per distinct
    byte count), or the one time every member shares."""
    if type(nbytes) is not np.ndarray:
        return cost.p2p_transfer(nbytes)
    distinct, inverse = np.unique(nbytes, return_inverse=True)
    times = [cost.p2p_transfer(v) for v in distinct.tolist()]
    return np.asarray(times, dtype=np.float64)[inverse.reshape(-1)]


def _precosted_send(op, nbytes: int, cost: CostModel):
    """The precosted twin of one send op: the network model is fixed and
    noise-free, so both per-event cost queries are pure in ``nbytes``."""
    return ops.PrecostedSendOp(
        vid=op.vid, location=op.location, dest=op.dest, tag=op.tag,
        nbytes=nbytes, mpi_op=op.mpi_op, blocking=op.blocking,
        request=op.request,
        overhead=cost.send_overhead(), transfer=cost.p2p_transfer(nbytes),
        op_code=MPI_OP_CODES[op.mpi_op],
    )


def _bake(cost: CostModel, workload: Workload) -> tuple:
    """``(duration, ins, cyc, lst, dcm)`` of one rank-independent compute."""
    duration, counters = cost.compute_cost(0, workload)
    return (
        duration, counters.tot_ins, counters.tot_cyc,
        counters.tot_lst_ins, counters.l2_dcm,
    )


def _precosted(op, workload, cost: CostModel, precost_cache: dict):
    """The precosted twin of one compute op (cost queried once per
    distinct workload value — rank-independent by the caller's machine
    check)."""
    key = workload.bits()
    baked = precost_cache.get(key)
    if baked is None:
        baked = precost_cache[key] = _bake(cost, workload)
    duration, ins, cyc, lst, dcm = baked
    return ops.PrecostedComputeOp(
        vid=op.vid, location=op.location, workload=workload,
        duration=duration, ins=ins, cyc=cyc, lst=lst, dcm=dcm,
    )


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
