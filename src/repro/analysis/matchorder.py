"""Static match-order analysis: prove wildcard receives deterministic.

PR 6's rank-dependence lattice and PR 7's parametric comm graph recover
*who communicates with whom* as closed functions of ``(rank, P)`` — but
an ``ANY``-source receive still looks opaque to every consumer: class
batching (PR 9) refuses the class, and lint flags every wildcard
identically.  This module closes that gap with a static happens-before
relation over the comm graph and computes, for each wildcard receive
endpoint, its **statically feasible matcher set**:

* **program order** — families are emitted in walk order, so family
  indices order every rank's statements;
* **collective synchronization** — every collective in this simulator is
  a rendezvous (no rank resumes until all ranks arrived, see
  ``Engine._apply_collective``), so an *unconditional* collective family
  (no loops, no guard) is a sure separator: a blocking wildcard posted
  before separator ``k`` can never match a send first posted after
  separator ``k`` (*epoch pruning*);
* **matched send→recv edges** — a blocking receive whose every possible
  producer is already known to post after the wildcard completed must
  itself complete after it, which propagates "happens after W" across
  ranks (*chain pruning*).

When the surviving set leaves exactly one sender rank per receiver, the
receive is **match-deterministic** and two consumers act on the proof:

* lint emits ``wildcard-race`` (warning, >= 2 feasible senders with the
  racing spans) vs a refined ``wildcard-recv`` info naming the unique
  matcher, and
* the engine *devirtualizes* the receive — rewrites ``ANY`` to the
  proven source at compile time (``Engine._devirt_map``), which lifts
  the class-batching refusal bit-identically (the proof guarantees the
  same match).

**Proof obligations / honesty.**  Everything here is *prove then
consume*: a degraded comm graph, a blown instance budget, or a rank
count beyond the chain-refinement cap records a reason and claims
nothing (``exact=False`` → no devirtualization, lint keeps the
conservative verdict).  Pruning applies only to *blocking* wildcards —
an irecv posted before a separator can legally match a message sent
after it, so nonblocking feasibility is the plain tag-compatible sender
set.  Cross-scale claims (:func:`analyze_match_order_scales`) ride the
PR 7 witness machinery and additionally absorb every family guard's
comparison *flip boundary* (``if nprocs > 40 { send ... }`` widens the
witness window to cover P = 40, or degrades to ``sampled`` when the
threshold exceeds the proof cap) — the adversarial soundness corpus in
``tests/test_matchorder.py`` pins zero false proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from collections.abc import Mapping

from repro.minilang import ast_nodes as ast
from repro.simulator import ops
from repro.simulator.errors import MpiUsageError, SimulationError

from repro.analysis.commgraph import CommGraph, build_comm_graph
from repro.analysis.scaleparam import (
    _MAX_PERIOD,
    _MAX_SPAN,
    AffineRP,
    ScalesSpec,
    analyze_scale_parametric,
    describe_term,
    parse_scales_spec,
    select_witnesses,
)

__all__ = [
    "MatchVerdict",
    "MatchOrderReport",
    "ScaleMatchOrderReport",
    "analyze_match_order",
    "analyze_match_order_scales",
    "devirt_sources",
    "program_has_wildcards",
]

#: total instance budget across all per-family instantiations; beyond this
#: the analysis degrades (reason recorded) instead of enumerating
_MAX_MATCH_OPS = 200_000
#: chain refinement runs a per-(wildcard, receiver) worklist whose cost
#: grows with ranks x families; above this rank count it is skipped with
#: a recorded note (epoch pruning still applies)
_MAX_CHAIN_RANKS = 256
#: inner-step budget for all chain-refinement fixpoints in one analysis
_MAX_CHAIN_WORK = 2_000_000


# --------------------------------------------------------------------------
# results
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchVerdict:
    """Feasible-matcher verdict for one wildcard receive location at one P.

    ``deterministic`` means every receiver rank with wildcard instances
    has at most one feasible sender rank (and at least one rank has
    exactly one): the match outcome is independent of message timing.
    ``sources`` maps each receiver rank with a *unique* feasible sender
    to that sender — the devirtualization map — and is populated per
    rank even when other ranks race (the proof is per receiver).
    """

    location: str
    loc_key: tuple  # (filename, line, column) — the engine's rewrite key
    op: str  # "recv" | "irecv" | "sendrecv"
    blocking: bool
    deterministic: bool
    #: source locations of the sender families feeding any receiver
    matchers: tuple
    #: receiver rank -> proven-unique sender rank
    sources: dict
    #: one racing receiver (rank, feasible sender ranks) — None when
    #: deterministic
    witness_rank: int | None
    witness_sources: tuple
    notes: tuple


@dataclass(frozen=True)
class MatchOrderReport:
    """Match-order verdicts for every wildcard receive at one scale."""

    nprocs: int
    exact: bool
    reason: str | None
    notes: tuple
    verdicts: tuple

    def verdict_at(self, loc_key: tuple) -> MatchVerdict | None:
        for v in self.verdicts:
            if v.loc_key == loc_key:
                return v
        return None


@dataclass
class ScaleMatchOrderReport:
    """Cross-scale match-order run: witnesses, per-witness reports, and
    how far the determinism verdicts extend.

    ``status`` follows :func:`repro.analysis.scaleparam.select_witnesses`:
    ``"proven"``/``"exhaustive"`` verdicts hold at every P in the range,
    ``"sampled"``/``"enumerated"`` verdicts speak only for the listed
    witnesses (``reasons`` records why), ``"degraded"`` means the comm
    graph itself was opaque and nothing is claimed.
    """

    lo: int
    hi: int | None
    status: str
    witnesses: tuple
    reasons: tuple
    reports: dict  # nprocs -> MatchOrderReport
    deterministic: tuple  # locations match-deterministic at every witness
    racy: tuple  # (location, witness scale with >= 2 feasible senders)


# --------------------------------------------------------------------------
# wildcard presence (cheap syntactic pre-scan)
# --------------------------------------------------------------------------


def _expr_has_any(expr) -> bool:
    if expr is None:
        return False
    if isinstance(expr, ast.AnyLit):
        return True
    if isinstance(expr, ast.UnaryExpr):
        return _expr_has_any(expr.operand)
    if isinstance(expr, ast.BinaryExpr):
        return _expr_has_any(expr.left) or _expr_has_any(expr.right)
    if isinstance(expr, ast.CallExpr):
        return any(_expr_has_any(a) for a in expr.args)
    return False


def program_has_wildcards(program: ast.Program) -> bool:
    """Does any receive name ``ANY`` as its source, syntactically?

    Misses an ``ANY`` smuggled through a variable — callers use this only
    to skip the analysis on wildcard-free programs, never to claim
    anything (a missed wildcard simply stays undevirtualized).
    """
    for func in program.functions.values():
        for stmt in ast.walk_statements(func.body):
            if not isinstance(stmt, ast.MpiStmt):
                continue
            if stmt.op in (ast.MpiOp.RECV, ast.MpiOp.IRECV) and _expr_has_any(stmt.src):
                return True
            if stmt.op is ast.MpiOp.SENDRECV and _expr_has_any(stmt.recv_src):
                return True
    return False


# --------------------------------------------------------------------------
# the concrete analysis at one P
# --------------------------------------------------------------------------


def _tag_compatible(send_tag, wild_tags) -> bool:
    return any(wt is ops.ANY or wt == send_tag for wt in wild_tags)


def _loop_vars(family) -> frozenset:
    return frozenset(spec.var for spec in family.loops)


class _Feasibility:
    """Per-family instances plus the happens-before pruning machinery."""

    def __init__(self, graph: CommGraph, nprocs: int) -> None:
        self.graph = graph
        self.nprocs = nprocs
        self.families = graph.families
        self.notes: list = []
        self._chain_work = _MAX_CHAIN_WORK

        # one CommInstance per family: family identity is what the
        # happens-before relation orders, and the aggregate instantiate()
        # deliberately erases it
        insts = []
        budget = _MAX_MATCH_OPS
        for fam in self.families:
            sub = CommGraph(
                program=graph.program, params=graph.params, entry=graph.entry,
                exact=True, reason=None, families=(fam,),
            )
            inst = sub.instantiate(nprocs)
            budget -= inst.total_ops()
            if budget < 0:
                raise SimulationError(
                    f"match-order instance budget exceeded "
                    f"({_MAX_MATCH_OPS} ops) at P={nprocs}"
                )
            insts.append(inst)

        # epoch of a family = sure separators strictly before it: an
        # unconditional (no loops, no guard) collective family is a
        # rendezvous every rank passes exactly once
        self.epochs = []
        sep = 0
        for fam in self.families:
            self.epochs.append(sep)
            if fam.kind == "collective" and not fam.loops and fam.guard is None:
                sep += 1

        # dest rank -> [(family index, sender rank, tag)]
        self.sends_to: dict = {}
        # family index -> {rank -> [(src, tag)]}
        self.recvs_by_fam: dict = {}
        for j, inst in enumerate(insts):
            for (rank, dest, tag, _nbytes, _blocking) in inst.sends:
                self.sends_to.setdefault(dest, []).append((j, rank, tag))
            if inst.recvs:
                by_rank: dict = {}
                for (rank, src, tag, _blocking) in inst.recvs:
                    by_rank.setdefault(rank, []).append((src, tag))
                self.recvs_by_fam[j] = by_rank

        # unconditional single-instance blocking receive families: the
        # only propagators chain pruning trusts (a guarded or looped
        # receive may execute zero times and would vacuously — wrongly —
        # advance the frontier)
        self.propagators = tuple(
            (idx, self.recvs_by_fam.get(idx, {}))
            for idx, fam in enumerate(self.families)
            if fam.kind in ("recv", "sendrecv") and fam.blocking
            and not fam.loops and fam.guard is None
        )

    # -- feasible sender set for one wildcard family at one receiver ------

    def feasible(self, wi: int, r: int, wild_tags) -> dict:
        """``{sender rank -> {family index}}`` after epoch pruning."""
        w_blocking = self.families[wi].blocking
        w_epoch = self.epochs[wi]
        out: dict = {}
        for (j, s, tag) in self.sends_to.get(r, ()):
            if w_blocking and self.epochs[j] > w_epoch:
                continue
            if not _tag_compatible(tag, wild_tags):
                continue
            out.setdefault(s, set()).add(j)
        return out

    # -- chain refinement -------------------------------------------------

    def chain_prune(self, wi: int, r: int, feasible: dict) -> dict:
        """Drop senders proven (via matched send->recv edges) to post only
        after every wildcard instance at ``r`` completed.  Blocking
        wildcards only — the caller checks."""
        families = self.families
        # frontier: rank -> (family index F, setter loop vars): every op
        # at that rank strictly after F — sharing no loop with the setter
        # — posts after all of W@r completed
        frontier = {r: (wi, _loop_vars(families[wi]))}

        def is_after(j: int, s: int) -> bool:
            pos = frontier.get(s)
            if pos is None:
                return False
            idx, setter_loops = pos
            if j <= idx:
                return False
            return not (setter_loops and (_loop_vars(families[j]) & setter_loops))

        changed = True
        while changed:
            changed = False
            for idx, by_rank in self.propagators:
                for q, entries in by_rank.items():
                    cur = frontier.get(q)
                    if cur is not None and cur[0] <= idx:
                        continue
                    # every message this receive could consume must
                    # already be known-after-W (unpruned superset)
                    ok = True
                    for (j, s, tag) in self.sends_to.get(q, ()):
                        self._chain_work -= 1
                        if self._chain_work < 0:
                            self.notes.append(
                                "match-order: chain refinement budget "
                                "exhausted; epoch-only feasibility"
                            )
                            return feasible
                        if any(
                            (rs is ops.ANY or rs == s)
                            and (rt is ops.ANY or rt == tag)
                            for (rs, rt) in entries
                        ) and not is_after(j, s):
                            ok = False
                            break
                    if ok:
                        frontier[q] = (idx, frozenset())
                        changed = True

        pruned: dict = {}
        for s, fams in feasible.items():
            keep = {j for j in fams if not is_after(j, s)}
            if keep:
                pruned[s] = keep
        return pruned


def analyze_match_order(
    program: ast.Program,
    nprocs: int,
    params: Mapping[str, object] | None = None,
    *,
    entry: str = "main",
) -> MatchOrderReport:
    """Compute feasible matcher sets for every wildcard receive at one P."""
    graph = build_comm_graph(program, params, entry=entry)
    if not graph.exact:
        return MatchOrderReport(
            nprocs=nprocs, exact=False, reason=graph.reason, notes=(),
            verdicts=(),
        )

    stmts: dict = {}
    for func in program.functions.values():
        for stmt in ast.walk_statements(func.body):
            stmts[stmt.stmt_id] = stmt

    # wildcard families grouped by source location: inline paths duplicate
    # a statement into several families and the engine rewrites by
    # location, so the verdict must aggregate across the group
    wild_groups: dict = {}
    order: list = []
    for wi, fam in enumerate(graph.families):
        if fam.kind not in ("recv", "sendrecv"):
            continue
        src_term = fam.arg("src")
        if src_term != ("const", ops.ANY):
            continue
        stmt = stmts.get(fam.stmt_id)
        if stmt is None:
            continue
        loc = stmt.location
        key = (loc.filename, loc.line, loc.column)
        if key not in wild_groups:
            wild_groups[key] = []
            order.append((key, fam))
        wild_groups[key].append(wi)
    if not wild_groups:
        return MatchOrderReport(
            nprocs=nprocs, exact=True, reason=None, notes=(), verdicts=(),
        )

    try:
        feas = _Feasibility(graph, nprocs)
    except (SimulationError, MpiUsageError) as exc:
        return MatchOrderReport(
            nprocs=nprocs, exact=False,
            reason=f"instantiation failed at P={nprocs}: {exc}",
            notes=(), verdicts=(),
        )

    chain_ok = nprocs <= _MAX_CHAIN_RANKS
    if not chain_ok:
        feas.notes.append(
            f"match-order: chain refinement skipped at P={nprocs} "
            f"(cap {_MAX_CHAIN_RANKS} ranks); epoch-only feasibility"
        )

    verdicts = []
    for key, first_fam in order:
        group = wild_groups[key]
        # receiver rank -> {sender -> {family}} across the whole group
        by_rank: dict = {}
        for wi in group:
            fam = graph.families[wi]
            for r, entries in feas.recvs_by_fam.get(wi, {}).items():
                wild_tags = [t for (s, t) in entries if s is ops.ANY]
                if not wild_tags:
                    continue
                feasible = feas.feasible(wi, r, wild_tags)
                if len(feasible) > 1 and fam.blocking and chain_ok:
                    feasible = feas.chain_prune(wi, r, feasible)
                agg = by_rank.setdefault(r, {})
                for s, fams in feasible.items():
                    agg.setdefault(s, set()).update(fams)
        if not by_rank:
            continue  # guarded off at this P: no instances, nothing to say

        sources: dict = {}
        witness_rank = None
        witness_sources: tuple = ()
        matcher_fams: set = set()
        for r in sorted(by_rank):
            feasible = by_rank[r]
            for fams in feasible.values():
                matcher_fams.update(fams)
            if len(feasible) == 1:
                sources[r] = next(iter(feasible))
            elif len(feasible) > 1 and witness_rank is None:
                witness_rank = r
                witness_sources = tuple(sorted(feasible))
        deterministic = witness_rank is None and bool(sources)
        op_label = ("sendrecv" if first_fam.kind == "sendrecv"
                    else ("recv" if first_fam.blocking else "irecv"))
        verdicts.append(MatchVerdict(
            location=first_fam.location,
            loc_key=key,
            op=op_label,
            blocking=first_fam.blocking,
            deterministic=deterministic,
            matchers=tuple(sorted(
                {graph.families[j].location for j in matcher_fams}
            )),
            sources=sources,
            witness_rank=witness_rank,
            witness_sources=witness_sources,
            notes=tuple(dict.fromkeys(feas.notes)),
        ))

    return MatchOrderReport(
        nprocs=nprocs, exact=True, reason=None,
        notes=tuple(dict.fromkeys(feas.notes)), verdicts=tuple(verdicts),
    )


def devirt_sources(
    program: ast.Program,
    nprocs: int,
    params: Mapping[str, object] | None = None,
    *,
    entry: str = "main",
) -> dict:
    """``{(filename, line, column) -> {receiver rank -> sender rank}}``
    for every wildcard receive instance with a proven-unique matcher.

    The engine's devirtualization pass consumes this verbatim; an empty
    dict (no wildcards / degraded graph / blown budget) simply means
    nothing is rewritten.  Always computed at the *concrete* P of the
    run — per-scale exactness is what makes the rewrite sound even for
    programs whose sender sets change with P.
    """
    if not program_has_wildcards(program):
        return {}
    try:
        report = analyze_match_order(program, nprocs, params, entry=entry)
    except Exception:
        return {}
    if not report.exact:
        return {}
    out: dict = {}
    for v in report.verdicts:
        if v.sources:
            out[v.loc_key] = dict(v.sources)
    return out


# --------------------------------------------------------------------------
# cross-scale driver
# --------------------------------------------------------------------------


def _comparison_boundary_spans(term, add_span, add_reason) -> None:
    """Absorb the flip boundary of every comparison inside ``term``.

    ``describe_term`` treats a comparison as an opaque tame guard — fine
    for *values*, but a guard like ``nprocs > 40`` flips the program's
    structure at P = 40 with zero recorded span, silently outside the
    witness window.  The boundary of ``L <op> R`` is where the affine
    difference ``L - R`` crosses zero, so its constant widens the window
    exactly like a syntactic ``L - R`` operand would have.
    """
    if not isinstance(term, tuple):
        return
    if term[0] == "bin" and term[1] in ("<", "<=", ">", ">=", "==", "!="):
        li = describe_term(term[2])
        ri = describe_term(term[3])
        if li.tame and ri.tame:
            la, ra = li.affine, ri.affine
            if la is None or ra is None:
                add_reason(
                    "comparison over piecewise-affine operands "
                    "(flip boundary unprovable)"
                )
            elif la.mod is None and ra.mod is None:
                diff = AffineRP(la.a - ra.a, la.b - ra.b, la.c - ra.c)
                if diff.a or diff.b:
                    slope = max(1, abs(diff.a), abs(diff.b))
                    add_span(max(
                        abs(diff.a), abs(diff.b),
                        -(-abs(diff.c) // slope),
                    ))
            # modded operands flip periodically: the operand's modulus is
            # already in describe_term's moduli and widens the period
    for sub in term[1:]:
        _comparison_boundary_spans(sub, add_span, add_reason)


def _absorb_family_terms(sa, graph: CommGraph):
    """Extend the PR 7 scale analysis with comm-graph family structure:
    guard/loop/argument terms, and comparison flip boundaries the value
    classifier cannot see.  Returns a widened ``ScaleAnalysis``."""
    reasons = list(sa.reasons)
    span = sa.span
    mod_p = sa.mod_p
    moduli: set = set()

    def add_span(s: int) -> None:
        nonlocal span
        span = max(span, s)

    for fam in graph.families:
        terms = [t for (_name, t) in fam.args]
        if fam.guard is not None:
            terms.append(fam.guard)
        for spec in fam.loops:
            terms.extend((spec.init, spec.bound))
        for t in terms:
            if t is None:
                continue
            info = describe_term(t)
            if not info.tame:
                reasons.append(f"{fam.location}: {info.reason}")
                continue
            moduli.update(info.moduli)
            mod_p = mod_p or info.mod_p
            add_span(info.span)
            _comparison_boundary_spans(
                t, add_span,
                lambda msg, fam=fam: reasons.append(f"{fam.location}: {msg}"),
            )

    period = sa.period
    for m in sorted(moduli):
        period = math.lcm(period, m)
        if period > _MAX_PERIOD:
            break
    if period > _MAX_PERIOD:
        reasons.append(
            f"combined modulus period {period} exceeds the proof cap "
            f"({_MAX_PERIOD})"
        )
    if span > _MAX_SPAN:
        reasons.append(
            f"affine coefficient span {span} exceeds the proof cap "
            f"({_MAX_SPAN})"
        )
    reasons = list(dict.fromkeys(reasons))
    return replace(
        sa, generic=not reasons, reasons=tuple(reasons), period=period,
        mod_p=mod_p, span=span,
    )


def analyze_match_order_scales(
    program: ast.Program,
    scales: ScalesSpec = "all",
    params: Mapping[str, object] | None = None,
    *,
    entry: str = "main",
) -> ScaleMatchOrderReport:
    """Run the match-order analysis across a scale range.

    Witness selection and claim extension follow the PR 7 cross-scale
    discipline: a ``"proven"``/``"exhaustive"`` status means the
    determinism verdicts hold at every P in the range; ``"sampled"`` and
    explicit-list ``"enumerated"`` verdicts speak only for the witnesses
    actually analyzed, with the degradation reasons recorded.
    """
    lo, hi, explicit = parse_scales_spec(scales)
    graph = build_comm_graph(program, params, entry=entry)
    if not graph.exact:
        return ScaleMatchOrderReport(
            lo=lo, hi=hi, status="degraded", witnesses=(),
            reasons=(graph.reason,), reports={}, deterministic=(), racy=(),
        )

    if explicit is not None:
        status, witnesses = "enumerated", list(explicit)
        reasons: tuple = ()
    else:
        sa = _absorb_family_terms(
            analyze_scale_parametric(program, params, entry=entry), graph
        )
        status, witnesses = select_witnesses(sa, lo, hi)
        reasons = sa.reasons

    reports = {}
    for p in witnesses:
        reports[p] = analyze_match_order(program, p, params, entry=entry)

    degraded = [
        f"P={p}: {rep.reason}" for p, rep in reports.items() if not rep.exact
    ]
    if degraded:
        status = "sampled" if status in ("proven", "exhaustive") else status
        reasons = tuple(dict.fromkeys((*reasons, *degraded)))

    # a location is match-deterministic for the claim when every witness
    # that instantiates it agrees: deterministic, same matcher families
    # (a distinct poison marker — None would let a later deterministic
    # witness resurrect a location an earlier witness saw racing)
    poisoned = object()
    det_locs: dict = {}
    racy: list = []
    seen_racy: set = set()
    for p in witnesses:
        rep = reports[p]
        for v in rep.verdicts:
            if v.deterministic:
                prev = det_locs.get(v.location)
                if prev is None:
                    det_locs[v.location] = set(v.matchers)
                elif prev is not poisoned and prev != set(v.matchers):
                    det_locs[v.location] = poisoned  # family set shifts with P
            else:
                det_locs[v.location] = poisoned
                if v.location not in seen_racy:
                    seen_racy.add(v.location)
                    racy.append((v.location, p))
    deterministic = tuple(sorted(
        loc for loc, matchers in det_locs.items() if matchers is not poisoned
    )) if not degraded else ()

    return ScaleMatchOrderReport(
        lo=lo, hi=hi, status=status, witnesses=tuple(witnesses),
        reasons=tuple(reasons), reports=reports,
        deterministic=deterministic, racy=tuple(racy),
    )
