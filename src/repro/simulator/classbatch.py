"""Class-batched interpretation: one representative run per rank class.

``partition_ranks`` (PR 6) proves sets of ranks that execute the identical
statement sequence.  This module interprets only the **representative**
of each class, records its op stream, and fans the stream out to every
member by substituting the rank-dependent argument values that
:mod:`repro.analysis.rankdep` classified — instead of running a generator
chain per rank.  Members share the representative's op instances
wherever no argument varies with the rank.

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

A rank function may read a loop-carried, rank-invariant local through a
``("frame", name)`` leaf (CG's hypercube partner ``rank - s`` for the
doubling stride ``s``).  Such a value is not fixed per statement, so the
representative runs through a recording interpreter (a private compile
cache — the engine-shared one keeps its closures) that notes, for every
execution of a frame-reading statement, the frame values its template
reads; each execution's member values are then evaluated under that
frame and cached by its bits.

The builder never touches the engine: it returns each class's template
plus plain per-rank op lists fanned out from it on first read (class
members whose stream needs no substitution share one list — each rank
consumes its own ``iter``), and the engine feeds them through the same
handler loop as generator-backed ranks.  A run the lockstep drain takes
reads only the templates, so its lists are never built.  Bit-identity
with the per-rank oracle is gated by ``tests/test_oracle_sweep.py``.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from operator import attrgetter

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

__all__ = ["BatchResult", "build_batched_streams"]

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

#: A frame-leaf local that was not in the frame when the statement ran.
_UNBOUND = object()
_PACK_D = struct.Struct("<d").pack
#: op type -> getter of its full field tuple (fan-out cache keys); the
#: interpreter's other op types never carry a rank-varying field
_FIELDS_OF = {
    t: attrgetter(*t.__dataclass_fields__)
    for t in (ops.SendOp, ops.RecvOp, ops.CollectiveOp)
}


class _Fallback(Exception):
    """Degrade one class to per-rank interpretation (with a reason)."""


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
    ``base`` with ``per_member[i]`` at every patched ``(position,
    per_member)``.  ``streams`` maps every batched rank (representatives
    included) to its complete op list, fanned out when first read; ranks
    absent from it run the normal per-rank interpreter.
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
    """Materialize per-rank op streams for every batchable class.

    ``precost_compute`` must only be True when ``cost.compute_cost`` is
    rank-independent (no per-execution noise, no per-rank speed spread) —
    the engine checks the machine model before enabling it.  With
    ``cost=None`` nothing is precosted (sends stay plain ``SendOp``s),
    for callers that never time the streams; ``precost_compute`` must
    then be False.

    ``devirt`` is the match-order devirtualization map (see
    ``Engine._devirt_map``): an ANY-source receive with a proven-unique
    sender for *every* class member no longer forces the class onto the
    per-rank path — it fans out as per-member concrete-source
    :class:`ops.DevirtRecvOp` instances instead.
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

    ``base`` is the representative's stream with compute ops swapped for
    their precosted twins; ``patches`` lists ``(position, per_member)``
    substitutions for rank-varying ops, where ``per_member[i]`` is the op
    instance for ``members[i]``.  Each op instance is classified once
    (memoized streams repeat instances), and a rank-varying op builds its
    per-member fan-out once per distinct value and frame, however many
    fresh instances the representative emits for it.
    """
    base: list = []
    patches: list[tuple[int, list]] = []
    # id(op) -> ("share", op) | ("vary", per_member) | ("vary0", per_member);
    # "vary0" means even the representative's own op was rewritten
    # (devirtualized wildcard), so base takes per_member[0], not op
    inst_cache: dict[int, tuple] = {}
    # (stmt_id, field, frame key) -> per-member coerced values
    value_cache: dict = {}
    # (op fields, frame key) -> per-member fan-out
    fanout_cache: dict[tuple, list] = {}
    varying_budget = _MAX_VARYING_INSTANCES

    for pos, op in enumerate(rep_stream):
        entry = inst_cache.get(id(op))
        if entry is None:
            entry = _classify_op(
                op, frame_values, frame_stmts, members, analysis, loc_index,
                template_cache, value_cache, fanout_cache, nprocs, cost,
                precost_compute, precost_cache, devirt,
            )
            inst_cache[id(op)] = entry
            if entry[0] != "share":
                varying_budget -= len(members)
                if varying_budget < 0:
                    raise _Fallback("rank-varying instances exceed size cap")
        if entry[0] == "share":
            base.append(entry[1])
        elif entry[0] == "vary0":
            base.append(entry[1][0])
            patches.append((pos, entry[1]))
        else:
            base.append(op)  # the representative's own instance is correct
            patches.append((pos, entry[1]))
    return base, patches


def _classify_op(
    op,
    frame_values: dict,
    frame_stmts: dict,
    members: list[int],
    analysis: RankAnalysis,
    loc_index: dict,
    template_cache: dict,
    value_cache: dict,
    fanout_cache: dict,
    nprocs: int,
    cost: CostModel | None,
    precost_compute: bool,
    precost_cache: dict,
    devirt: dict | None,
) -> tuple:
    op_type = type(op)
    if op_type is ops.IndirectCallNote:
        raise _Fallback(f"{op.location}: indirect call in batched stream")
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
    stmt = loc_index.get((loc.filename, loc.line, loc.column))
    if stmt is None:
        raise _Fallback(f"{loc}: op not attributable to a unique statement")

    template = _template(analysis, stmt, template_cache)
    if isinstance(template, IneligibleStmt):
        raise _Fallback(str(template))

    rules = _rules_for(op, op_type, template)
    if not rules and devirt_srcs is None:
        if precost_compute and op_type is ops.ComputeOp:
            return ("share", _precosted(op, op.workload, cost, precost_cache))
        if op_type is ops.SendOp and cost is not None:
            return ("share", _precosted_send(op, op.nbytes, cost))
        return ("share", op)

    # Frame-reading statements: this execution's frame, bound for every
    # member (the locals are rank-invariant) and keyed by its bits.
    env, frame_key = None, ()
    names = frame_stmts.get(stmt.stmt_id)
    if names is not None:
        recorded = frame_values.get(id(op))
        if recorded is None:
            raise _Fallback(f"{loc}: frame values were not recorded")
        env = {n: v for n, v in zip(names, recorded) if v is not _UNBOUND}
        frame_key = tuple(
            (type(v), _PACK_D(v) if type(v) is float else v)
            for v in recorded
        )

    # Rank-varying: derive the per-member value columns (witness-checked
    # against the representative at index 0), then build one instance per
    # member with the varying fields substituted.
    columns = []
    for rule, attr in rules:
        key = (stmt.stmt_id, rule.field, frame_key if rule.frame else ())
        values = value_cache.get(key)
        if values is None:
            values = _member_values(rule, members, nprocs, env)
            value_cache[key] = values
        observed = _observed(op, attr)
        derived = values[0]
        if type(derived) is not type(observed) or derived != observed:
            raise _Fallback(
                f"{loc}: witness mismatch on {rule.field} "
                f"(derived {derived!r}, observed {observed!r})"
            )
        columns.append((attr, values))

    if devirt_srcs is not None:
        # Devirtualized wildcard: every member (the representative
        # included, hence "vary0") gets a concrete-source DevirtRecvOp;
        # the tag column still applies when the tag is rank-varying.
        per_member = []
        for i, m in enumerate(members):
            fields = {attr: vals[i] for attr, vals in columns}
            per_member.append(ops.DevirtRecvOp(
                vid=op.vid, location=op.location, src=devirt_srcs[m],
                tag=fields.get("tag", op.tag), mpi_op=op.mpi_op,
                blocking=op.blocking, request=op.request,
            ))
        return ("vary0", per_member)

    # The columns are fixed per (statement, frame) within a class, so the
    # fan-out is a function of the op's fields and the frame alone: an
    # execution with bit-equal arguments and frame reuses it.
    if op_type is ops.ComputeOp:
        key = (op.vid, loc, op.workload.bits(), frame_key)
    else:
        key = (op_type, _FIELDS_OF[op_type](op), frame_key)
    per_member = fanout_cache.get(key)
    if per_member is not None:
        return ("vary", per_member)
    if op_type is ops.ComputeOp:
        per_member = _vary_compute(
            op, members, columns, cost, precost_compute, precost_cache
        )
    elif op_type is ops.SendOp and cost is not None:
        per_member = []
        for i in range(len(members)):
            inst = replace(op, **{attr: vals[i] for attr, vals in columns})
            per_member.append(_precosted_send(inst, inst.nbytes, cost))
    else:
        per_member = [
            replace(op, **{attr: vals[i] for attr, vals in columns})
            for i in range(len(members))
        ]
    fanout_cache[key] = per_member
    return ("vary", per_member)


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
    rule, members: list[int], nprocs: int, env: dict | None
) -> list:
    """One coerced value per member rank for one rank-varying field
    (``env`` binds the term's frame leaves).

    Evaluation and coercion mirror the interpreter's argument validators
    exactly (``_rank_arg``/``_tag_arg``/``_bytes_arg``/``_number_arg``);
    any value the validators would reject mid-run raises ``_Fallback`` so
    the per-rank path reproduces the error at the right simulated moment.
    """
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


def _vary_compute(
    op, members, columns, cost, precost_compute, precost_cache
) -> list:
    """Per-member ComputeOps with substituted Workload fields, mirroring
    ``Interpreter._compile_compute``'s validation order."""
    w = op.workload
    fields = {
        "flops": w.flops, "mem_bytes": w.mem_bytes,
        "locality": w.locality, "threads": w.threads,
    }
    per_member = []
    for i in range(len(members)):
        f = dict(fields)
        for attr, vals in columns:
            f[attr] = vals[i]
        if f["flops"] < 0 or f["mem_bytes"] < 0:
            raise _Fallback(f"{op.location}: negative derived workload")
        if f["threads"] < 1:
            raise _Fallback(f"{op.location}: derived threads < 1")
        try:
            workload = Workload(**f)
        except ValueError as exc:
            raise _Fallback(f"{op.location}: derived workload invalid: {exc}")
        if precost_compute:
            per_member.append(
                _precosted(op, workload, cost, precost_cache)
            )
        else:
            per_member.append(replace(op, workload=workload))
    return per_member


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


def _precosted(op, workload, cost: CostModel, precost_cache: dict):
    """The precosted twin of one compute op (cost queried once per
    distinct workload value — rank-independent by the caller's machine
    check)."""
    key = workload.bits()
    baked = precost_cache.get(key)
    if baked is None:
        duration, counters = cost.compute_cost(0, workload)
        baked = (
            duration, counters.tot_ins, counters.tot_cyc,
            counters.tot_lst_ins, counters.l2_dcm,
        )
        precost_cache[key] = baked
    duration, ins, cyc, lst, dcm = baked
    return ops.PrecostedComputeOp(
        vid=op.vid, location=op.location, workload=workload,
        duration=duration, ins=ins, cyc=cyc, lst=lst, dcm=dcm,
    )


def _fan_out(streams: dict, base: list, patches: list, members: list[int]) -> None:
    """Per-member streams from the template.  With no rank-varying slots
    every member shares the *same list* (each rank gets its own iterator);
    otherwise members get a patched copy."""
    if not patches:
        for r in members:
            streams[r] = base
        return
    streams[members[0]] = base
    for i, r in enumerate(members):
        if i == 0:
            continue
        s = base.copy()
        for pos, per_member in patches:
            s[pos] = per_member[i]
        streams[r] = s
