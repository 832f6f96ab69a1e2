"""Scale-parametric static analysis: ``nprocs`` as a symbol.

PR 6's dataflow (:mod:`repro.analysis.rankdep`) classifies every
expression at one *concrete* scale, so proving a program clean at P ranks
costs an O(P) enumeration per scale.  This module lifts the same lattice
to treat the process count as a symbol:

* :func:`analyze_scale_parametric` runs the dataflow once with
  ``nprocs = ("P",)`` and classifies every communication endpoint and
  every observable control decision as **affine in (rank, P)** — the
  paper's canonical neighbor forms ``(rank + 1) % nprocs``,
  ``2 * rank + 1 < nprocs`` guards, tree strides ``rank / 2`` — or
  records why it is not (the *degradation rules*, mirroring
  ``partition_ranks``).
* :func:`run_lint_scales` drives the existing 10-rule lint across a
  declared validity range ``[lo, hi]``.  When every comm-relevant term
  stays affine (the program is *scale-generic*), the per-rank behavior
  beyond a boundary window is periodic in ``P`` with period
  ``lcm(moduli)``, so linting every scale in one window of width
  ``O(period + coefficient span)`` decides the whole range
  (``status="proven"``); otherwise the driver falls back to concrete
  enumeration over a geometric witness sample (``status="sampled"``) and
  says so.  **Either way each witness is the unmodified concrete lint**,
  so verdicts at sampled scales are bit-identical to per-scale runs by
  construction.

Proof sketch for the ``proven`` status (the honest fine print): with all
deciders and endpoint terms affine-in-(rank, P) — allowing ``% m``,
``/ m`` and loop strides with constant ``m`` (collected into the period)
and ``% P`` wraps (boundary cases split by the window) — each rank's op
stream is determined by its residues mod the period and its distance to
the 0 and ``P-1`` boundaries.  Growing ``P`` past the window only
replicates interior residue classes that some witness already exhibits,
and the matching rules the lint checks are invariant under that
replication.  Programs outside this fragment are never extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Mapping, Sequence

from repro import obs
from repro.minilang import ast_nodes as ast
from repro.psg.graph import PSG
from repro.simulator import ops

from repro.analysis.lint import LintFinding, LintReport, Severity, run_lint
from repro.analysis.rankdep import (
    RankAnalysis,
    analyze_program,
    closed_term,
    mpi_arg_exprs,
)

__all__ = [
    "AffineRP",
    "TermInfo",
    "EndpointForm",
    "ScaleAnalysis",
    "ScaleLintReport",
    "analyze_scale_parametric",
    "describe_term",
    "render_term",
    "run_lint_scales",
    "select_witnesses",
    "parse_scales_spec",
]

#: lcm of concrete moduli beyond which we stop claiming a proof (the
#: witness window would be too wide to be cheaper than sampling).
_MAX_PERIOD = 64
#: coefficient-magnitude cap, same reasoning.
_MAX_SPAN = 64
#: total simulated ranks across all witnesses of a proof window; beyond
#: this the "proof" would cost more than the enumeration it replaces.
_MAX_WITNESS_RANKS = 60_000
#: largest scale a sampled (non-proven) witness is drawn at by default.
_SAMPLE_CAP_SCALE = 96
#: how far past the nominal window we scan for app-valid scales (squares,
#: powers of two, ...) before giving up on a proof.
_VALID_SCAN_CAP = 4096


# --------------------------------------------------------------------------
# affine-in-(rank, P) term classification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineRP:
    """``(a*rank + b*P + c) mod m`` with integer coefficients.

    ``mod`` is ``None`` (no wrap), a positive int, or the string ``"P"``
    for the canonical neighbor wrap ``(... ) % nprocs`` whose boundary
    case (the rank where the sum wraps) shifts affinely with ``P``.
    """

    a: int
    b: int
    c: int
    mod: object = None

    def render(self) -> str:
        parts = []
        if self.a:
            parts.append("rank" if self.a == 1 else f"{self.a}*rank")
        if self.b:
            parts.append("P" if self.b == 1 else f"{self.b}*P")
        if self.c or not parts:
            parts.append(str(self.c))
        body = " + ".join(parts).replace("+ -", "- ")
        if self.mod is None:
            return body
        return f"({body}) % {self.mod}"


class _Untame(Exception):
    """A subterm leaves the affine-in-(rank, P) fragment."""


@dataclass
class TermInfo:
    """What :func:`describe_term` learned about one symbolic term."""

    tame: bool
    reason: str | None = None
    #: strict affine normal form, when the whole term has one
    affine: AffineRP | None = None
    #: concrete moduli / divisors / loop strides seen anywhere inside
    moduli: frozenset = frozenset()
    #: True when a ``% P`` wrap occurs (boundary-case splitting needed)
    mod_p: bool = False
    #: max coefficient magnitude seen (widens the boundary window)
    span: int = 0


# value classes the recursive classifier passes around
_AFF, _PAFF, _GUARD, _MISC = "aff", "paff", "guard", "misc"


def describe_term(term: tuple | None) -> TermInfo:
    """Classify one rankdep term against the affine-in-(rank, P) fragment.

    Tame terms are built from integer constants, ``rank`` and ``P`` with
    ``+ - *const``, ``% const`` / ``% P``, ``/ const``, comparisons,
    boolean connectives, ``sel`` and countable-``trip`` nodes.  Anything
    else (``hashrand``, non-constant divisors, rank-nonlinear products)
    is untame: sound to lint concretely, unsound to extrapolate.
    """
    if term is None:
        return TermInfo(tame=False, reason="no closed symbolic form")
    moduli: set = set()
    state = {"mod_p": False, "span": 0}

    def note_span(form: AffineRP | None) -> None:
        # a pure constant (a = b = 0) shifts no rank/P boundary: only
        # coefficient slopes and their offsets widen the witness window,
        # and an offset matters relative to the slope crossing it
        if form is None or (form.a == 0 and form.b == 0):
            return
        slope = max(1, abs(form.a), abs(form.b))
        state["span"] = max(
            state["span"], abs(form.a), abs(form.b),
            -(-abs(form.c) // slope),
        )

    def walk(t: tuple):
        tag = t[0]
        if tag == "const":
            v = t[1]
            if isinstance(v, bool):
                return _GUARD, AffineRP(0, 0, int(v))
            if isinstance(v, int):
                return _AFF, AffineRP(0, 0, v)
            # float / string / ANY / None leaves are scale-independent
            return _MISC, None
        if tag == "rank":
            return _AFF, AffineRP(1, 0, 0)
        if tag == "P":
            return _AFF, AffineRP(0, 1, 0)
        if tag == "var":
            # commgraph iteration variable: bounded by a tame trip count
            # when it reaches us through a family, so piecewise-affine
            return _PAFF, None
        if tag == "un":
            op, (cls, form) = t[1], walk(t[2])
            if op == "!":
                if cls in (_GUARD, _AFF, _PAFF):
                    return _GUARD, None
                raise _Untame("'!' over non-affine operand")
            if op == "-":
                if cls is _AFF and form is not None and form.mod is None:
                    return _AFF, AffineRP(-form.a, -form.b, -form.c)
                if cls in (_AFF, _PAFF):
                    return _PAFF, None
                raise _Untame("negation of non-affine operand")
            raise _Untame(f"unary {op!r}")
        if tag == "bin":
            op, lt, rt = t[1], t[2], t[3]
            lcls, lform = walk(lt)
            rcls, rform = walk(rt)
            int_like = (_AFF, _PAFF, _GUARD)
            if op in ("&&", "||"):
                if lcls in int_like and rcls in int_like:
                    return _GUARD, None
                raise _Untame(f"{op!r} over non-affine operands")
            if op in ("<", "<=", ">", ">=", "==", "!="):
                if lcls in int_like and rcls in int_like:
                    return _GUARD, None
                raise _Untame("comparison over non-affine operands")
            if lcls not in int_like or rcls not in int_like:
                raise _Untame(f"{op!r} over non-integer operands")
            if op in ("+", "-"):
                if (
                    lcls is _AFF and rcls is _AFF
                    and lform is not None and rform is not None
                    and lform.mod is None and rform.mod is None
                ):
                    sgn = 1 if op == "+" else -1
                    out = AffineRP(
                        lform.a + sgn * rform.a,
                        lform.b + sgn * rform.b,
                        lform.c + sgn * rform.c,
                    )
                    note_span(out)
                    return _AFF, out
                return _PAFF, None
            if op == "*":
                lconst = lform is not None and lform.a == 0 and lform.b == 0 \
                    and lform.mod is None
                rconst = rform is not None and rform.a == 0 and rform.b == 0 \
                    and rform.mod is None
                if not (lconst or rconst):
                    raise _Untame("product of two scale-dependent terms")
                if lconst and rconst:
                    out = AffineRP(0, 0, lform.c * rform.c)
                    note_span(out)
                    return _AFF, out
                k = lform.c if lconst else rform.c
                other_cls, other = (rcls, rform) if lconst else (lcls, lform)
                if other_cls is _AFF and other is not None \
                        and other.mod is None:
                    out = AffineRP(k * other.a, k * other.b, k * other.c)
                    note_span(out)
                    return _AFF, out
                return _PAFF, None
            if op in ("%", "/"):
                # the right operand must be a positive constant or P
                if rt[0] == "P" and op == "%":
                    state["mod_p"] = True
                    if lcls is _AFF and lform is not None \
                            and lform.mod is None:
                        out = AffineRP(lform.a, lform.b, lform.c, mod="P")
                        note_span(out)
                        return _AFF, out
                    return _PAFF, None
                if rform is not None and rform.a == 0 and rform.b == 0 \
                        and rform.mod is None and rform.c > 0:
                    moduli.add(rform.c)
                    if op == "%" and lcls is _AFF and lform is not None \
                            and lform.mod is None:
                        out = AffineRP(lform.a, lform.b, lform.c, mod=rform.c)
                        note_span(out)
                        return _AFF, out
                    # floor division is piecewise affine with period rhs
                    return _PAFF, None
                raise _Untame(f"{op!r} by a non-constant")
            raise _Untame(f"operator {op!r}")
        if tag == "sel":
            gcls, _ = walk(t[1])
            acls, _ = walk(t[2])
            bcls, _ = walk(t[3])
            ok = (_AFF, _PAFF, _GUARD)
            if gcls in ok and acls in ok + (_MISC,) and bcls in ok + (_MISC,):
                return _PAFF, None
            raise _Untame("sel over non-affine operands")
        if tag == "trip":
            delta = t[2]
            moduli.add(abs(delta))
            icls, _ = walk(t[3])
            bcls, _ = walk(t[4])
            if icls in (_AFF, _PAFF) and bcls in (_AFF, _PAFF):
                return _PAFF, None
            raise _Untame("trip count with non-affine bounds")
        if tag == "call":
            raise _Untame(f"builtin call {t[1]!r}")
        raise _Untame(f"term tag {tag!r}")

    try:
        cls, form = walk(term)
    except _Untame as exc:
        return TermInfo(tame=False, reason=str(exc))
    note_span(form)
    return TermInfo(
        tame=True,
        affine=form if cls is _AFF else None,
        moduli=frozenset(m for m in moduli if m > 1),
        mod_p=state["mod_p"],
        span=state["span"],
    )


# --------------------------------------------------------------------------
# totality proofs for magnitude arguments (interval arithmetic)
# --------------------------------------------------------------------------
#
# Byte counts, flop counts, locality and thread factors never shape a
# lint verdict — messages match on (src, dest, tag), collectives on
# (op, root) — so demanding they be affine would degrade every
# weak-scaling app (``flops = work / nprocs``).  What extrapolation does
# need is that they can never *raise* (a division by zero, ``sqrt`` of a
# negative, a negative workload) at some unsampled scale.  That is a
# totality property, provable by interval arithmetic over
# rank ∈ [0, ∞), P ∈ [1, ∞).

_INF = math.inf


def _iv_mulend(x: float, y: float) -> float:
    if x == 0 or y == 0:
        return 0.0
    return x * y


def _iv_divend(x: float, y: float) -> float:
    if x == 0:
        return 0.0
    if abs(y) == _INF:
        return 0.0
    if abs(x) == _INF:
        return _INF if (x > 0) == (y > 0) else -_INF
    return x / y


def total_interval(term: tuple) -> tuple:
    """``(lo, hi)`` bounds of ``term`` over every rank >= 0, P >= 1 —
    and, implicitly, a proof the evaluation is total (cannot raise) for
    all scales.  Raises :class:`_Untame` when no such proof exists."""
    tag = term[0]
    if tag == "const":
        v = term[1]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise _Untame(f"non-numeric constant {v!r}")
        return (float(v), float(v))
    if tag == "rank":
        return (0.0, _INF)
    if tag == "P":
        return (1.0, _INF)
    if tag == "un":
        a = total_interval(term[2])
        if term[1] == "-":
            return (-a[1], -a[0])
        if term[1] == "!":
            return (0.0, 1.0)
        raise _Untame(f"unary {term[1]!r}")
    if tag == "bin":
        op, lt, rt = term[1], term[2], term[3]
        a = total_interval(lt)
        b = total_interval(rt)
        if op == "+":
            return (a[0] + b[0], a[1] + b[1])
        if op == "-":
            return (a[0] - b[1], a[1] - b[0])
        if op == "*":
            vals = [_iv_mulend(x, y) for x in a for y in b]
            return (min(vals), max(vals))
        if op == "/":
            if b[0] <= 0 <= b[1]:
                raise _Untame("divisor may be zero")
            vals = [_iv_divend(x, y) for x in a for y in b]
            # int division truncates toward zero: the truncated value
            # always lies in the hull of the real quotients and 0
            return (min(vals + [0.0]), max(vals + [0.0]))
        if op == "%":
            if b[0] <= 0 <= b[1]:
                raise _Untame("modulus may be zero")
            m = max(abs(b[0]), abs(b[1]))
            lo = 0.0 if a[0] >= 0 else -m
            hi = 0.0 if a[1] <= 0 else m
            return (lo, hi)
        if op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||"):
            return (0.0, 1.0)
        raise _Untame(f"operator {op!r}")
    if tag == "sel":
        total_interval(term[1])
        a = total_interval(term[2])
        b = total_interval(term[3])
        return (min(a[0], b[0]), max(a[1], b[1]))
    if tag == "trip":
        total_interval(term[3])
        total_interval(term[4])
        return (0.0, _INF)
    if tag == "call":
        name = term[1]
        ivs = [total_interval(t) for t in term[2:]]
        if name == "min" and ivs:
            return (min(v[0] for v in ivs), min(v[1] for v in ivs))
        if name == "max" and ivs:
            return (max(v[0] for v in ivs), max(v[1] for v in ivs))
        if name == "abs" and len(ivs) == 1:
            (lo, hi), = ivs
            if lo >= 0:
                return (lo, hi)
            if hi <= 0:
                return (-hi, -lo)
            return (0.0, max(-lo, hi))
        if name in ("floor", "ceil") and len(ivs) == 1:
            fn = math.floor if name == "floor" else math.ceil
            (lo, hi), = ivs
            return (
                lo if abs(lo) == _INF else float(fn(lo)),
                hi if abs(hi) == _INF else float(fn(hi)),
            )
        if name == "sqrt" and len(ivs) == 1:
            (lo, hi), = ivs
            if lo < 0:
                raise _Untame("sqrt argument may be negative")
            return (
                math.sqrt(lo),
                hi if hi == _INF else math.sqrt(hi),
            )
        if name == "log2" and len(ivs) == 1:
            (lo, hi), = ivs
            if lo <= 0:
                raise _Untame("log2 argument may be non-positive")
            return (
                math.log2(lo),
                hi if hi == _INF else math.log2(hi),
            )
        if name == "pow" and len(ivs) == 2:
            (alo, _ahi), (blo, _bhi) = ivs
            if alo > 0 or (alo >= 0 and blo > 0):
                return (0.0, _INF)
            raise _Untame("pow may hit a negative base or 0**negative")
        if name == "hashrand":
            return (0.0, 1.0)
        raise _Untame(f"builtin call {name!r}")
    if tag == "var":
        raise _Untame("free iteration variable")
    raise _Untame(f"term tag {tag!r}")


#: per-statement magnitude argument positions -> the minimum value the
#: runtime accepts without raising (matching interpreter coercions)
_SEND_MAGNITUDE = {2: 0.0}
_COLLECTIVE_MAGNITUDE = {1: 0.0}
_COMPUTE_MAGNITUDE = {0: 0.0, 1: 0.0, 2: -_INF, 3: 1.0}


def _magnitude_roles(stmt: object) -> dict:
    if isinstance(stmt, ast.ComputeStmt):
        return _COMPUTE_MAGNITUDE
    if isinstance(stmt, ast.MpiStmt):
        if stmt.op in (ast.MpiOp.SEND, ast.MpiOp.ISEND, ast.MpiOp.SENDRECV):
            return _SEND_MAGNITUDE
        if stmt.op in ast.COLLECTIVE_OPS:
            return _COLLECTIVE_MAGNITUDE
    return {}


def render_term(term: tuple | None) -> str:
    """Human-readable form of a rankdep symbolic term."""
    if term is None:
        return "?"
    tag = term[0]
    if tag == "const":
        v = term[1]
        if v is ops.ANY:
            return "ANY"
        return repr(v) if isinstance(v, str) else str(v)
    if tag == "rank":
        return "rank"
    if tag == "P":
        return "P"
    if tag == "var":
        return term[1]
    if tag == "bin":
        return f"({render_term(term[2])} {term[1]} {render_term(term[3])})"
    if tag == "un":
        return f"({term[1]}{render_term(term[2])})"
    if tag == "call":
        args = ", ".join(render_term(t) for t in term[2:])
        return f"{term[1]}({args})"
    if tag == "sel":
        return (
            f"({render_term(term[1])} ? {render_term(term[2])}"
            f" : {render_term(term[3])})"
        )
    if tag == "trip":
        return (
            f"trip({render_term(term[3])} {term[1]} {render_term(term[4])}"
            f" by {term[2]})"
        )
    return f"<{tag}>"


# --------------------------------------------------------------------------
# the scale-parametric summary
# --------------------------------------------------------------------------


_MPI_OP_LABEL = {
    ast.MpiOp.SEND: "send", ast.MpiOp.ISEND: "isend",
    ast.MpiOp.RECV: "recv", ast.MpiOp.IRECV: "irecv",
    ast.MpiOp.SENDRECV: "sendrecv",
}


@dataclass(frozen=True)
class EndpointForm:
    """One MPI statement's symbolic argument forms, for reporting."""

    stmt_id: int
    location: str
    op: str
    #: rendered terms in op-capture order (dest/src, tag, bytes, ...)
    args: tuple
    #: True when every argument stayed affine-in-(rank, P)
    affine: bool


@dataclass
class ScaleAnalysis:
    """One symbolic dataflow run plus its scale-genericity verdict."""

    analysis: RankAnalysis
    #: True when every decider and every MPI/compute argument term is
    #: affine-in-(rank, P): verdicts may be extrapolated across scales
    generic: bool
    #: why not (empty when generic) — the documented degradation rules
    reasons: tuple
    #: lcm of every concrete modulus / divisor / loop stride seen
    period: int
    #: any ``% P`` neighbor wrap present (widens the boundary window)
    mod_p: bool
    #: max affine coefficient magnitude (widens the boundary window)
    span: int
    endpoint_forms: tuple

    def partition_at(self, nprocs: int):
        """Behavioral rank partition at one concrete scale, O(deciders *
        P) term evaluations — no re-analysis, no interpreter."""
        from repro.analysis.symmetry import partition_ranks

        return partition_ranks(
            self.analysis.program, nprocs, self.analysis.params,
            entry=self.analysis.entry, analysis=self.analysis,
        )


def _stmt_index(program: ast.Program) -> dict:
    out = {}
    for func in program.functions.values():
        for stmt in ast.walk_statements(func.body):
            out[stmt.stmt_id] = stmt
    return out


def analyze_scale_parametric(
    program: ast.Program,
    params: Mapping[str, object] | None = None,
    *,
    entry: str = "main",
) -> ScaleAnalysis:
    """Run the rank-dependence dataflow once with symbolic ``nprocs`` and
    classify the result against the affine-in-(rank, P) fragment."""
    analysis = analyze_program(program, None, params, entry=entry)
    stmts = _stmt_index(program)
    reasons = list(analysis.degraded_reasons)
    moduli: set = set()
    mod_p = False
    span = 0
    forms = []

    def absorb(info: TermInfo, where: str) -> bool:
        nonlocal mod_p, span
        if not info.tame:
            reasons.append(f"{where}: {info.reason}")
            return False
        moduli.update(info.moduli)
        mod_p = mod_p or info.mod_p
        span = max(span, info.span)
        return True

    for decider in sorted(analysis.deciders.values(), key=lambda d: d.stmt_id):
        absorb(
            describe_term(closed_term(decider.av)),
            f"{decider.location}: rank-dependent {decider.kind} decision",
        )

    for stmt_id in sorted(analysis.stmt_args):
        stmt = stmts.get(stmt_id)
        # a frame-bearing term reads a frame no scale binds (and "var"
        # leaves here are commgraph iteration variables): no closed form
        terms = [closed_term(av) for av in analysis.stmt_args[stmt_id]]
        magnitude = _magnitude_roles(stmt)
        all_affine = True
        for i, term in enumerate(terms):
            where = f"{getattr(stmt, 'location', stmt_id)}: argument {i}"
            if i in magnitude:
                # magnitude arguments (bytes/flops/...) never shape a
                # verdict: totality + the runtime's sign bound suffice
                if term == ("const", None):
                    continue  # defaulted argument, trivially safe
                if term is None:
                    reasons.append(f"{where}: no closed symbolic form")
                    all_affine = False
                    continue
                try:
                    lo, _hi = total_interval(term)
                except _Untame as exc:
                    reasons.append(f"{where}: {exc}")
                    all_affine = False
                    continue
                if lo < magnitude[i]:
                    reasons.append(
                        f"{where}: cannot prove >= {magnitude[i]:g} "
                        "at every scale"
                    )
                    all_affine = False
                continue
            ok = absorb(describe_term(term), where)
            all_affine = all_affine and ok
        if isinstance(stmt, ast.MpiStmt) and stmt.op not in ast.WAIT_OPS:
            op_label = _MPI_OP_LABEL.get(stmt.op, stmt.op.name.lower())
            forms.append(EndpointForm(
                stmt_id=stmt_id,
                location=str(stmt.location),
                op=op_label,
                args=tuple(render_term(term) for term in terms),
                affine=all_affine,
            ))

    period = 1
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
    return ScaleAnalysis(
        analysis=analysis,
        generic=not reasons,
        reasons=tuple(reasons),
        period=period,
        mod_p=mod_p,
        span=span,
        endpoint_forms=tuple(forms),
    )


# --------------------------------------------------------------------------
# witness selection
# --------------------------------------------------------------------------


def select_witnesses(
    sa: ScaleAnalysis,
    lo: int,
    hi: int | None,
    *,
    valid: Callable[[int], bool] | None = None,
    max_witness_ranks: int = _MAX_WITNESS_RANKS,
    sample_cap_scale: int = _SAMPLE_CAP_SCALE,
) -> tuple:
    """Pick the concrete scales the cross-scale driver lints.

    Returns ``(status, witnesses)``: ``"exhaustive"`` when the window
    covers the whole range, ``"proven"`` when the program is
    scale-generic and the window decides the rest by periodicity,
    ``"sampled"`` otherwise (verdicts then only speak for the witnesses).
    """
    valid = valid or (lambda p: True)
    lo = max(1, lo)
    if hi is not None and hi < lo:
        raise ValueError(f"empty scale range [{lo}, {hi}]")

    if sa.generic:
        window_hi = lo + max(8, 3 * sa.period + sa.span + (4 if sa.mod_p else 2))
        if hi is not None:
            window_hi = min(window_hi, hi)
        witnesses = [p for p in range(lo, window_hi + 1) if valid(p)]
        # app validity filters (power-of-two, square, ...) can thin the
        # window below usefulness: scan further until 3 valid witnesses
        scan = window_hi + 1
        scan_cap = min(hi, _VALID_SCAN_CAP) if hi is not None else _VALID_SCAN_CAP
        while len(witnesses) < 3 and scan <= scan_cap:
            if valid(scan):
                witnesses.append(scan)
            scan += 1
        covered = max(window_hi, scan - 1)
        if witnesses and sum(witnesses) <= max_witness_ranks:
            if hi is not None and hi <= covered:
                return "exhaustive", witnesses
            return "proven", witnesses

    # fallback: geometric sample, snapped up to the next valid scale
    cap = sample_cap_scale if hi is None else min(hi, sample_cap_scale)
    picks: list = []
    p = max(2, lo)
    while p <= cap:
        q = p
        while q <= cap and not valid(q):
            q += 1
        if q <= cap:
            picks.append(q)
        p *= 2
    if not picks:
        q = lo
        scan_cap = min(hi, _VALID_SCAN_CAP) if hi is not None else _VALID_SCAN_CAP
        while q <= scan_cap and not valid(q):
            q += 1
        if q <= scan_cap:
            picks.append(q)
    if not picks:
        raise ValueError(
            f"no valid scale found in [{lo}, {hi if hi is not None else 'inf'}]"
        )
    return "sampled", sorted(set(picks))


# --------------------------------------------------------------------------
# the cross-scale lint driver
# --------------------------------------------------------------------------


ScalesSpec = str | tuple | Sequence[int]


def parse_scales_spec(spec: ScalesSpec) -> tuple:
    """Normalize a scales spec to ``(lo, hi, explicit)``.

    ``"all"`` -> the open range ``[2, inf)``; ``"LO..HI"`` / ``"LO.."`` /
    ``(lo, hi)`` -> a range; ``"4,8,16"`` / an int sequence -> an
    explicit witness list (``status="enumerated"``).
    """
    if isinstance(spec, str):
        text = spec.strip()
        if text == "all":
            return 2, None, None
        if ".." in text:
            lo_s, _, hi_s = text.partition("..")
            try:
                lo = int(lo_s)
                hi = int(hi_s) if hi_s else None
            except ValueError:
                raise ValueError(f"bad scales spec {spec!r}") from None
            return _checked_range(lo, hi, None)
        try:
            explicit = sorted({int(x) for x in text.split(",") if x})
        except ValueError:
            raise ValueError(f"bad scales spec {spec!r}") from None
        if not explicit:
            raise ValueError(f"bad scales spec {spec!r}")
        return _checked_range(explicit[0], explicit[-1], explicit)
    if isinstance(spec, tuple) and len(spec) == 2 and (
        spec[1] is None or isinstance(spec[1], int)
    ) and isinstance(spec[0], int):
        return _checked_range(spec[0], spec[1], None)
    explicit = sorted({int(x) for x in spec})
    if not explicit:
        raise ValueError("empty scales spec")
    return _checked_range(explicit[0], explicit[-1], explicit)


def _checked_range(lo, hi, explicit):
    if lo < 2:
        raise ValueError(f"scales must start at P >= 2, got {lo}")
    if hi is not None and hi < lo:
        raise ValueError(f"inverted scales range {lo}..{hi}")
    return lo, hi, explicit


@dataclass
class ScaleLintReport:
    """One cross-scale lint run: witnesses, per-witness concrete reports,
    and how far the verdict extends."""

    lo: int
    hi: int | None
    #: "exhaustive" | "proven" | "sampled" | "enumerated"
    status: str
    scales: tuple
    #: scale -> the unmodified concrete :class:`LintReport` at that scale
    reports: dict
    generic: bool
    #: degradation rules that blocked a proof (empty when generic)
    reasons: tuple
    period: int
    endpoint_forms: tuple
    #: closed-form message/collective counts (None when the parametric
    #: comm graph degraded) — see :mod:`repro.analysis.commgraph`
    skeleton: object = None
    #: (scale, ok) of the instantiate-vs-concrete self check
    skeleton_checked: tuple | None = None

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports.values())

    @property
    def findings(self) -> tuple:
        """(scale, finding) pairs across every witness, scale-ordered."""
        out = []
        for p in self.scales:
            out.extend((p, f) for f in self.reports[p].findings)
        return tuple(out)

    def counts(self) -> dict:
        out = {"error": 0, "warning": 0, "info": 0}
        for report in self.reports.values():
            for sev, n in report.counts().items():
                out[sev] = max(out[sev], n)
        return out

    def worst_order(self) -> int | None:
        orders = [
            f.severity.order for _, f in self.findings
        ]
        return min(orders) if orders else None

    def range_label(self) -> str:
        hi = "inf" if self.hi is None else str(self.hi)
        return f"[{self.lo}, {hi}]"

    def render(self) -> str:
        lines = []
        claim = {
            "exhaustive": "every scale checked",
            "proven": "affine endpoints; witness window decides the range",
            "sampled": "verdict holds at the witnesses only",
            "enumerated": "verdict holds at the listed scales only",
        }[self.status]
        head = (
            f"cross-scale lint over P in {self.range_label()}: "
            f"{self.status.upper()} ({claim}); witnesses: "
            f"{','.join(map(str, self.scales))}"
        )
        lines.append(head)
        if self.period > 1 or self.mod_p_forms():
            lines.append(
                f"  period {self.period}"
                + (", % P neighbor wrap" if self.mod_p_forms() else "")
            )
        for reason in self.reasons[:4]:
            lines.append(f"  degraded: {reason}")
        dirty = [p for p in self.scales if self.reports[p].findings]
        if not dirty:
            lines.append(
                f"  clean at every witness "
                f"({sum(self.scales)} ranks linted)"
            )
        else:
            for p in dirty:
                report = self.reports[p]
                counts = report.counts()
                lines.append(
                    f"  P={p}: {counts['error']} error(s), "
                    f"{counts['warning']} warning(s), {counts['info']} info"
                )
            worst = dirty[-1]
            for finding in self.reports[worst].findings:
                lines.append("  " + finding.render().replace("\n", "\n  "))
        if self.skeleton is not None:
            lines.append(
                "  scaling skeleton: "
                + self.skeleton.summary(self.scales[-1])
            )
        return "\n".join(lines)

    def mod_p_forms(self) -> bool:
        return any("% P" in a for f in self.endpoint_forms for a in f.args)

    def to_json_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "status": self.status,
            "generic": self.generic,
            "period": self.period,
            "reasons": list(self.reasons),
            "scales": list(self.scales),
            "counts": self.counts(),
            "ok": self.ok,
            "endpoint_forms": [
                {
                    "location": f.location,
                    "op": f.op,
                    "args": list(f.args),
                    "affine": f.affine,
                }
                for f in self.endpoint_forms
            ],
            "reports": {
                str(p): self.reports[p].to_json_dict() for p in self.scales
            },
            "skeleton": (
                self.skeleton.to_json_dict(self.scales[-1])
                if self.skeleton is not None
                else None
            ),
            "skeleton_checked": (
                list(self.skeleton_checked)
                if self.skeleton_checked is not None
                else None
            ),
        }


def run_lint_scales(
    program: ast.Program,
    psg: PSG,
    scales: ScalesSpec = "all",
    params: Mapping[str, object] | None = None,
    *,
    entry: str = "main",
    valid: Callable[[int], bool] | None = None,
    max_ops_per_rank: int = 100_000,
    max_iterations: int = 2_000_000,
) -> ScaleLintReport:
    """Lint one program across a range of scales (see module docstring).

    Witness verdicts are bit-identical to :func:`repro.analysis.lint.run_lint`
    at the same scale because each witness **is** that call.
    """
    lo, hi, explicit = parse_scales_spec(scales)
    with obs.span("lint.scales", lo=lo, hi=hi):
        sa = analyze_scale_parametric(program, params, entry=entry)
        status, witnesses = (
            ("enumerated", list(explicit))
            if explicit is not None
            else select_witnesses(sa, lo, hi, valid=valid)
        )
        obs.emit(
            "lint_scales_started",
            lo=lo, hi=hi, status=status, witnesses=list(witnesses),
        )

        reports = {}
        # one compile cache for every witness and the skeleton check: the
        # compiled code reads the scale at run time
        expr_cache: dict = {}
        for p in witnesses:
            with obs.span("lint.witness", nprocs=p):
                reports[p] = run_lint(
                    program, psg, p, params, entry=entry,
                    max_ops_per_rank=max_ops_per_rank,
                    max_iterations=max_iterations,
                    expr_cache=expr_cache,
                )
            obs.emit(
                "lint_witness_finished",
                nprocs=p, findings=len(reports[p].findings),
            )

        skeleton = None
        checked = None
        from repro.analysis.commgraph import build_comm_graph, extract_concrete

        graph = build_comm_graph(program, params, entry=entry)
        if graph.exact:
            skeleton = graph.skeleton()
            check_at = witnesses[0]
            try:
                checked = (
                    check_at,
                    graph.instantiate(check_at)
                    == extract_concrete(
                        program, psg, check_at, params, entry=entry,
                        expr_cache=expr_cache,
                    ),
                )
            except Exception:
                checked = (check_at, False)

    obs.emit(
        "lint_scales_finished",
        lo=lo, hi=hi, status=status,
        findings=sum(len(r.findings) for r in reports.values()),
    )
    return ScaleLintReport(
        lo=lo,
        hi=hi,
        status=status,
        scales=tuple(witnesses),
        reports=reports,
        generic=sa.generic,
        reasons=sa.reasons,
        period=sa.period,
        endpoint_forms=sa.endpoint_forms,
        skeleton=skeleton,
        skeleton_checked=checked,
    )


def exceeds_severity(
    findings: Iterable[LintFinding], threshold: Severity
) -> bool:
    """True when any finding is at least as severe as ``threshold`` —
    the ``lint --fail-on`` gate shared by the CLI entry points."""
    return any(f.severity.order <= threshold.order for f in findings)


# re-exported for callers that branch on report types
LintReportAtScale = LintReport
