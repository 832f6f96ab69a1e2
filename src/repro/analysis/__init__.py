"""Whole-program rank-symmetry analysis and the static MPI lint.

This package is the static half of the paper's pairing that PR 5's
per-call-site ``expr_is_static`` check only hinted at: an abstract
interpretation over the MiniMPI AST (:mod:`repro.analysis.rankdep`)
classifies every expression as rank-constant, rank-invariant, rank-affine
or rank-dependent, a partitioning pass (:mod:`repro.analysis.symmetry`)
groups ranks into behavioral equivalence classes, and a rule-based lint
(:mod:`repro.analysis.lint`) flags communication bugs — unmatched
sends/receives, tag and root mismatches, collective divergence, self-send
and send-send deadlock hazards, wildcard hygiene — before any simulation
runs.

Two consumers:

* the simulation engine batches each behavioral rank class through one
  representative interpreter (:mod:`repro.simulator.classbatch`), and
* ``scalana lint`` / :meth:`repro.api.pipeline.Pipeline.lint` surface the
  findings with source spans, optionally failing a pipeline fast via
  ``AnalysisConfig(lint_fail_fast=True)``.

PR 7 lifts the whole stack from one concrete scale to a *symbolic*
``nprocs``: :mod:`repro.analysis.scaleparam` classifies endpoint terms as
affine in (rank, P) and drives the cross-scale lint
(:func:`run_lint_scales` — one verdict over a whole range of P), and
:mod:`repro.analysis.commgraph` extracts the parametric communication
graph — symbolic (src, dst, tag, count) edge families instantiable at any
P in O(edges) — which feeds the static scaling skeleton and the
match-order analysis.
"""

from repro.analysis.commgraph import (
    CommFamily,
    CommGraph,
    CommInstance,
    ScalingSkeleton,
    build_comm_graph,
    extract_concrete,
)
from repro.analysis.lint import (
    LintError,
    LintFinding,
    LintReport,
    Severity,
    run_lint,
)
from repro.analysis.matchorder import (
    MatchOrderReport,
    MatchVerdict,
    ScaleMatchOrderReport,
    analyze_match_order,
    analyze_match_order_scales,
    devirt_sources,
    program_has_wildcards,
)
from repro.analysis.scaleparam import (
    ScaleAnalysis,
    ScaleLintReport,
    analyze_scale_parametric,
    exceeds_severity,
    parse_scales_spec,
    run_lint_scales,
    select_witnesses,
)
from repro.analysis.rankdep import (
    AbstractValue,
    RankAnalysis,
    Rankness,
    analyze_program,
)
from repro.analysis.terms import eval_term
from repro.analysis.symmetry import RankClass, SymmetrySummary, partition_ranks

__all__ = [
    "AbstractValue",
    "RankAnalysis",
    "Rankness",
    "analyze_program",
    "eval_term",
    "RankClass",
    "SymmetrySummary",
    "partition_ranks",
    "LintError",
    "LintFinding",
    "LintReport",
    "Severity",
    "run_lint",
    "CommFamily",
    "CommGraph",
    "CommInstance",
    "ScalingSkeleton",
    "build_comm_graph",
    "extract_concrete",
    "MatchOrderReport",
    "MatchVerdict",
    "ScaleMatchOrderReport",
    "analyze_match_order",
    "analyze_match_order_scales",
    "devirt_sources",
    "program_has_wildcards",
    "ScaleAnalysis",
    "ScaleLintReport",
    "analyze_scale_parametric",
    "exceeds_severity",
    "parse_scales_spec",
    "run_lint_scales",
    "select_witnesses",
]
