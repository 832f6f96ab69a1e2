"""One rank analysis per cross-scale lint: the symbolic-P run, instantiated.

``RankAnalysis.instantiate(P)`` turns the symbolic run
(``analyze_program(program, None, ...)``) into the concrete analysis at
P without running the dataflow again.  The contract: at every P the
instantiation equals ``analyze_program(program, P, ...)`` field for
field — kinds, constant values and their types, terms, affine forms,
the constant statements, the deciders and the degradations — or it
steps aside with the reason the walk there would have gone another way.

The adversarial corpus below plants each way a concrete scale can change
the walk: a branch or loop entry on P, two values that meet at one P, two
calling contexts that meet, a short-circuit or a raise that only one P
decides, a rank split that one P folds away, a frame invalidation that
hides a P decision, and a P term over the size cap.  Each case pins the
scales where the instantiation must step aside.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import run_lint, run_lint_scales
from repro.analysis.commgraph import CommInstance, count_comm, extract_concrete
from repro.analysis import rankdep
from repro.analysis.lint import _lint_at
from repro.analysis.rankdep import (
    NotInstantiable,
    RankAnalysis,
    _Refold,
    _same_av,
    analyze_program,
)
from repro.analysis.terms import MAX_TERM_SIZE, Terms
from repro.apps import APPS, get_app
from repro.minilang import parse_program
from tests.conftest import GENERATORS, rebuild_term

SCALES = range(2, 65)


def assert_same_analysis(got: RankAnalysis, want: RankAnalysis) -> None:
    """Field for field, telling 1, 1.0 and True apart, in dict order.
    The two analyses intern their terms in two tables: each pair of
    terms is compared rebuilt in one fresh table, where equal is one
    object."""
    table = Terms()

    def same(a, b):
        return _same_av(
            replace(a, term=rebuild_term(table, a.term)),
            replace(b, term=rebuild_term(table, b.term)),
        )

    assert got.program is want.program
    assert (got.nprocs, got.entry, got.params) == (
        want.nprocs, want.entry, want.params
    )
    assert list(got.expr_verdicts) == list(want.expr_verdicts)
    for key, av in want.expr_verdicts.items():
        assert same(got.expr_verdicts[key], av), (
            got.expr_verdicts[key], av
        )
    assert list(got.stmt_args) == list(want.stmt_args)
    for sid, avs in want.stmt_args.items():
        assert len(got.stmt_args[sid]) == len(avs)
        for a, b in zip(got.stmt_args[sid], avs):
            assert same(a, b), (sid, a, b)
    assert got.const_stmts == want.const_stmts
    assert list(got.deciders) == list(want.deciders)
    for sid, decider in want.deciders.items():
        other = got.deciders[sid]
        assert (other.stmt_id, other.location, other.kind) == (
            decider.stmt_id, decider.location, decider.kind
        )
        assert same(other.av, decider.av), (other.av, decider.av)
    assert got.degraded_reasons == want.degraded_reasons


def stepped_aside(program, params, scales=SCALES) -> dict[int, str]:
    """Instantiate the symbolic run at every scale: each instantiation
    must equal the concrete run; returns the scales that stepped aside,
    with their reasons."""
    symbolic = analyze_program(program, None, params)
    aside = {}
    for p in scales:
        try:
            got = symbolic.instantiate(p)
        except NotInstantiable as exc:
            assert str(exc)
            aside[p] = str(exc)
            continue
        assert_same_analysis(got, analyze_program(program, p, params))
    return aside


def _program(source: str, name: str = "corpus.mm"):
    return parse_program(source, name)


def _sum(head: str, terms: int) -> str:
    return head + " + 1" * terms


#: The hidden-local prelude: ``u`` is rank-invariant with no term (its
#: frame leaf is dropped when it is assigned after the loop).
_TERMLESS_U = """\
    var u = 0;
    for (var i = 0; i < 4; i = i + 1) {
        u = u + i;
    }
    u = u + 1;
"""

ALL = set(SCALES)

#: name -> (source, the scales where the instantiation steps aside)
CORPUS = {
    "branch-on-p": ("""\
def main() {
    if (nprocs > 40) {
        send(dest = (rank + 1) % nprocs, tag = 1, bytes = 8);
    }
    barrier();
}
""", ALL),
    "arms-meet-at-4": ("""\
def main() {
    var x = 0;
    if (rank == 0) {
        x = nprocs - 1;
    } else {
        x = 3;
    }
    send(dest = x, tag = 1, bytes = 8);
}
""", {4}),
    "loop-arms-meet-at-4": ("""\
def main() {
    var x = 0;
    for (var i = 0; i < 3; i = i + 1) {
        if (i == 1) {
            x = nprocs - 1;
        } else {
            x = 3;
        }
        send(dest = x % nprocs, tag = i, bytes = 8);
    }
}
""", {4}),
    "contexts-meet-at-16": ("""\
def shift(n) {
    send(dest = (rank + n) % nprocs, tag = 1, bytes = 8);
}

def main() {
    shift(nprocs / 2);
    shift(8);
}
""", {16, 17}),
    "and-on-p": ("""\
def main() {
    var b = (nprocs > 8) && (rank > 2);
    if (b) {
        send(dest = 0, tag = 1, bytes = 8);
    }
}
""", set(range(2, 9))),
    "and-on-p-termless": ("""\
def main() {
""" + _TERMLESS_U + """\
    var b = (nprocs > 8) && (u > 2);
    if (b) {
        send(dest = (rank + 1) % nprocs, tag = 1, bytes = 8);
    }
}
""", set(range(2, 9))),
    "raise-at-4": ("""\
def main() {
    var w = 100 / (nprocs - 4);
    compute(flops = w);
    send(dest = (rank + w) % nprocs, tag = 1, bytes = 8);
}
""", set()),
    "raise-at-4-termless": ("""\
def main() {
""" + _TERMLESS_U + """\
    var w = u + 100 / (nprocs - 4);
    if (w > 0) {
        barrier();
    }
}
""", {4}),
    "split-folds-away": ("""\
def main() {
    if (rank * (nprocs - nprocs) > 0) {
        send(dest = 0, tag = 1, bytes = 8);
    }
}
""", ALL),
    "loop-entry-on-p": ("""\
def main() {
    for (var i = 0; i < nprocs - 8; i = i + 1) {
        send(dest = (rank + 1) % nprocs, tag = i, bytes = 8);
    }
}
""", set(range(2, 9))),
    "rank-trip-count-keeps-a-p-value": ("""\
def main() {
    var x = nprocs - nprocs;
    for (var i = 0; i < rank; i = i + 1) {
        x = 0;
    }
    send(dest = x, tag = 1, bytes = 8);
}
""", ALL),
    "rank-trip-count-rewrites-a-p-value": ("""\
def main() {
    var x = nprocs - nprocs;
    for (var i = 0; i < rank; i = i + 1) {
        x = nprocs - nprocs;
    }
    send(dest = x, tag = 1, bytes = 8);
}
""", ALL),
    "while-split-folds-away": ("""\
def main() {
    while (rank * (nprocs - nprocs) + 1 > 0) {
        send(dest = (rank + 1) % nprocs, tag = 1, bytes = 8);
    }
}
""", ALL),
    "trip-bound-raises-at-4": ("""\
def main() {
    for (var i = 0; i < rank + 100 / (nprocs - 4); i = i + 1) {
        send(dest = (rank + 1) % nprocs, tag = 1, bytes = 8);
    }
}
""", {4}),
    "frame-drop-hides-a-p-decision": ("""\
def main() {
    var s = 1;
    for (var i = 0; i < 3; i = i + 1) {
        var b = (nprocs > 8) && (rank + s > 2);
        s = s * 2;
        compute(flops = 1000 * b);
    }
}
""", set(range(2, 9))),
    "fold-over-the-size-cap": (f"""\
def main() {{
    var x = {_sum("nprocs", MAX_TERM_SIZE // 2)};
    send(dest = x % nprocs, tag = 1, bytes = 8);
}}
""", ALL),
    "sel-over-the-size-cap": (f"""\
def main() {{
    var y = {_sum("nprocs", MAX_TERM_SIZE // 4)};
    if (rank == 0) {{
        y = y + 1;
    }}
    send(dest = y % nprocs, tag = 1, bytes = 8);
}}
""", ALL),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_instantiates_exactly_or_steps_aside(name):
    source, expected = CORPUS[name]
    aside = stepped_aside(_program(source), {})
    assert set(aside) == expected, sorted(aside)


def test_whole_program_reasons():
    """A P term over the size cap is a reason at every scale; a branch on
    P names its location and the scale."""
    aside = stepped_aside(
        _program(CORPUS["sel-over-the-size-cap"][0]), {}, scales=(2, 5)
    )
    assert aside == {
        p: "corpus.mm:3: a term on nprocs exceeds the size cap"
        for p in (2, 5)
    }
    aside = stepped_aside(
        _program(CORPUS["branch-on-p"][0]), {}, scales=(2,)
    )
    assert aside == {2: "corpus.mm:2: a branch on nprocs goes another way at P=2"}


def test_concrete_and_budget_exhausted_runs_do_not_instantiate(monkeypatch):
    program = _program(CORPUS["raise-at-4"][0])
    with pytest.raises(NotInstantiable, match="not a symbolic analysis"):
        analyze_program(program, 4, {}).instantiate(8)
    monkeypatch.setattr(rankdep, "_MAX_STEPS", 2)
    with pytest.raises(NotInstantiable, match="step budget exceeded"):
        analyze_program(program, None, {}).instantiate(8)


@pytest.mark.parametrize("name", sorted(APPS))
def test_apps_instantiate_exactly(name):
    """13 of the 14 bundled apps instantiate at every scale; mg branches
    on P and steps aside at every one."""
    spec = get_app(name)
    aside = stepped_aside(spec.program, dict(spec.params))
    assert set(aside) == (ALL if name == "mg" else set())


@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_generator_programs_instantiate_exactly(generator):
    make = GENERATORS[generator]
    for seed in range(10):
        program = _program(make(seed), f"{generator}{seed}.mm")
        assert stepped_aside(program, {}, scales=range(2, 25)) == {}


@pytest.mark.parametrize("name", ["bt", "cg", "lu", "zeusmp"])
def test_a_verdict_is_a_function_of_its_term(name):
    """Re-folding any concrete verdict's term gives that verdict back —
    what lets the instantiation re-fold P terms and share the rest."""
    spec = get_app(name)
    for p in (4, 9, 16):
        analysis = analyze_program(spec.program, p, dict(spec.params))
        refold = _Refold(p, analysis.terms, {})
        avs = list(analysis.expr_verdicts.values())
        avs += [av for args in analysis.stmt_args.values() for av in args]
        avs += [d.av for d in analysis.deciders.values()]
        for av in avs:
            if av.term is not None:
                assert _same_av(refold.term(av.term), av), av


def test_lint_scales_records_engagement():
    for name, instantiated in (("ep", True), ("mg", False)):
        spec = get_app(name)
        rep = run_lint_scales(
            spec.program, spec.psg, "all", dict(spec.params),
            valid=spec.nprocs_valid,
        )
        if instantiated:
            assert rep.instantiated == rep.scales
            assert rep.instantiation_reason is None
        else:
            assert rep.instantiated == ()
            assert rep.instantiation_reason == (
                "mg.mm:22: a branch on nprocs goes another way at P=2"
            )
        doc = rep.to_json_dict()
        assert "instantiated" not in doc and "instantiation_reason" not in doc
        assert "instantiat" not in rep.render()


def _stream_instance(program, psg, nprocs, params, **budgets) -> tuple:
    """The lint's streams at ``nprocs`` counted like extract_concrete, and
    whether any stream was cut short."""
    _, streams = _lint_at(
        program, psg, nprocs, params,
        analyze_program(program, nprocs, params), entry="main",
        expr_cache={}, **budgets,
    )
    inst = CommInstance(nprocs=nprocs)
    for stream in streams:
        count_comm(inst, stream.rank, stream.events)
    return inst, any(s.truncated or s.error is not None for s in streams)


@pytest.mark.parametrize("name", ["bt", "cg", "ep", "ft", "lu", "mg", "sst"])
def test_lint_streams_count_like_extract_concrete(name):
    spec = get_app(name)
    params = dict(spec.params)
    for p in (4, 16):
        got, cut = _stream_instance(
            spec.program, spec.psg, p, params,
            max_ops_per_rank=100_000, max_iterations=2_000_000,
        )
        assert not cut
        assert got == extract_concrete(spec.program, spec.psg, p, params)


def test_skeleton_check_of_truncated_streams_matches_extract():
    """Streams cut short by the op budget fall back to extract_concrete,
    so the self check reads as it did."""
    spec = get_app("lu")
    params = dict(spec.params)
    _, cut = _stream_instance(
        spec.program, spec.psg, 2, params,
        max_ops_per_rank=3, max_iterations=2_000_000,
    )
    assert cut
    rep = run_lint_scales(
        spec.program, spec.psg, (2, 4), params, max_ops_per_rank=3
    )
    assert rep.skeleton_checked == (2, True)
    assert rep.reports[2].incomplete
    assert run_lint(
        spec.program, spec.psg, 2, params, max_ops_per_rank=3
    ).to_json_dict() == rep.reports[2].to_json_dict()
