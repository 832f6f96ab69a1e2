"""Behavioral rank equivalence classes from the rank-dependence dataflow.

Two ranks are *behaviorally equivalent* when the static analysis proves
they execute the identical statement sequence — every observable control
decision (a rank-dependent ``if`` whose arms emit ops, a rank-dependent
countable loop bound) resolves the same way on both — so their op streams
share one skeleton and differ only in the captured argument values
(neighbor ids, tags, byte counts; typically affine in the rank).

The partition is computed by evaluating each decider's symbolic rank
function (:func:`repro.analysis.terms.eval_term`) for every concrete
rank and grouping ranks by the resulting decision vector.  Whenever any
observable decision lacks a closed rank function (a rank-dependent
``while``, an indirect call with a rank-dependent target, a term that
failed to fold), the partition **degrades to singletons** — each rank its
own class — which is always sound, merely unprofitable.

Soundness contract (property-tested against the per-rank interpreter in
``tests/test_analysis_symmetry.py``): for a program that completes
without runtime errors, all ranks in one class yield op streams with
identical ``(op type, vid)`` sequences.  A program that crashes or
deadlocks mid-run carries no such guarantee — the lint reports those
separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from repro.minilang import ast_nodes as ast
from repro.simulator.errors import SimulationError
from repro.simulator.exprcompile import truthy

from repro.analysis.rankdep import RankAnalysis, analyze_program
from repro.analysis.terms import eval_term

__all__ = ["RankClass", "SymmetrySummary", "partition_ranks"]


@dataclass(frozen=True)
class RankClass:
    """One set of behaviorally identical ranks."""

    index: int
    ranks: tuple[int, ...]
    #: The decision vector shared by every member, ordered by decider
    #: statement id; empty when the program has no observable
    #: rank-dependent decisions (fully symmetric).
    signature: tuple

    @property
    def representative(self) -> int:
        return self.ranks[0]

    @property
    def size(self) -> int:
        return len(self.ranks)


@dataclass(frozen=True)
class SymmetrySummary:
    """The behavioral partition of ``range(nprocs)``."""

    nprocs: int
    classes: tuple[RankClass, ...]
    #: rank -> index into ``classes``
    class_of: tuple[int, ...]
    #: why the partition fell back to singletons (None when trusted)
    degraded: str | None
    analysis: RankAnalysis

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(c.representative for c in self.classes)

    @property
    def is_collapsed(self) -> bool:
        """True when the analysis found actual symmetry to exploit."""
        return self.degraded is None and self.n_classes < self.nprocs

    def class_of_rank(self, rank: int) -> RankClass:
        return self.classes[self.class_of[rank]]


def _singletons(
    nprocs: int, reason: str, analysis: RankAnalysis
) -> SymmetrySummary:
    classes = tuple(
        RankClass(index=r, ranks=(r,), signature=()) for r in range(nprocs)
    )
    return SymmetrySummary(
        nprocs=nprocs,
        classes=classes,
        class_of=tuple(range(nprocs)),
        degraded=reason,
        analysis=analysis,
    )


def partition_ranks(
    program: ast.Program,
    nprocs: int,
    params: Mapping[str, object] | None = None,
    *,
    entry: str = "main",
    analysis: RankAnalysis | None = None,
) -> SymmetrySummary:
    """Partition ``range(nprocs)`` into behavioral equivalence classes.

    Pass a precomputed ``analysis`` to reuse one dataflow run across
    consumers; it must match ``(program, nprocs, params, entry)`` — or be
    a *symbolic* analysis (``analysis.nprocs is None``) of the same
    program/params/entry, which is valid at every concrete scale.
    """
    if analysis is None:
        analysis = analyze_program(program, nprocs, params, entry=entry)
    if analysis.degraded is not None:
        return _singletons(nprocs, analysis.degraded, analysis)

    deciders = sorted(analysis.deciders.values(), key=lambda d: d.stmt_id)
    terms = [analysis.closed_term(decider.av) for decider in deciders]
    for decider, term in zip(deciders, terms):
        if term is None:
            return _singletons(
                nprocs,
                f"{decider.location}: rank-dependent {decider.kind} "
                "decision has no closed rank function",
                analysis,
            )

    signatures: list[tuple] = []
    for rank in range(nprocs):
        sig = []
        for decider, term in zip(deciders, terms):
            try:
                # threading nprocs binds the ("P",) symbol of a *symbolic*
                # analysis (rankdep nprocs=None), letting one dataflow run
                # partition the ranks at any concrete scale
                value = eval_term(term, rank, nprocs)
                if decider.kind == "branch":
                    value = bool(truthy(value))
            except SimulationError as exc:
                return _singletons(
                    nprocs,
                    f"{decider.location}: decision unevaluable for rank "
                    f"{rank}: {exc}",
                    analysis,
                )
            sig.append(value)
        signatures.append(tuple(sig))

    by_signature: dict[tuple, list[int]] = {}
    for rank, sig in enumerate(signatures):
        try:
            by_signature.setdefault(sig, []).append(rank)
        except TypeError:  # unhashable decision value: do not trust it
            return _singletons(
                nprocs, "unhashable decision value", analysis
            )

    # classes ordered by their smallest member so representatives are
    # stable and the identity tests can rely on deterministic indexing
    ordered = sorted(by_signature.items(), key=lambda kv: kv[1][0])
    classes = tuple(
        RankClass(index=i, ranks=tuple(ranks), signature=sig)
        for i, (sig, ranks) in enumerate(ordered)
    )
    class_of = [0] * nprocs
    for cls in classes:
        for rank in cls.ranks:
            class_of[rank] = cls.index
    return SymmetrySummary(
        nprocs=nprocs,
        classes=classes,
        class_of=tuple(class_of),
        degraded=None,
        analysis=analysis,
    )
