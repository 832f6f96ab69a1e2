"""The interned term module: one constructor, identity equality, cached facts.

Every symbolic term of the rank analysis and the communication graph is
built by a :class:`repro.analysis.terms.Terms` table, which hash-conses:
one table builds each distinct term once, so structural equality is
identity.  Constants intern by type and IEEE bits.  Each node's size,
whether it reads P, and the names it reads from ``env`` are computed once,
when it is built, and must equal a walk over the tuple.
"""

from __future__ import annotations

import gc

import pytest

from repro.analysis import commgraph, rankdep, terms
from repro.analysis.commgraph import build_comm_graph
from repro.analysis.rankdep import analyze_program
from repro.analysis.terms import MAX_TERM_SIZE, P, RANK, Terms, render_term
from repro.apps import APPS, get_app
from repro.minilang import parse_program
from repro.simulator import ops
from tests.conftest import rebuild_term


def _walk(term: tuple) -> tuple:
    """(size, reads P, env names) of a term, from scratch."""
    tag = term[0]
    if tag in ("var", "frame"):
        return 1, False, {term[1]}
    size, reads_p, names = 1, tag == "P", set()
    if tag != "const":
        for sub in term[1:]:
            if type(sub) is tuple:
                sub_size, sub_p, sub_names = _walk(sub)
                size += sub_size
                reads_p = reads_p or sub_p
                names |= sub_names
    return size, reads_p, names


def _subterms(term: tuple):
    yield term
    if term[0] != "const":
        for sub in term[1:]:
            if type(sub) is tuple:
                yield from _subterms(sub)


def _verdict_terms(analysis) -> list:
    avs = list(analysis.expr_verdicts.values())
    avs += [av for args in analysis.stmt_args.values() for av in args]
    avs += [d.av for d in analysis.deciders.values()]
    return [av.term for av in avs if av.term is not None]


class TestInterning:
    def test_six_constants_are_six_nodes(self):
        table = Terms()
        values = (1, 1.0, True, 0.0, -0.0, ops.ANY)
        nodes = [table.const(v) for v in values]
        assert len({id(n) for n in nodes}) == 6
        # each is the one node of its value: asked again, the same object
        assert all(table.const(v) is n for v, n in zip(values, nodes))
        assert [n[1] for n in nodes] == list(values)

    def test_nan_interns_by_bits(self):
        table = Terms()
        nan = float("nan")
        assert table.const(nan) is table.const(float("nan"))

    def test_two_builds_of_one_structure_are_one_object(self):
        table = Terms()

        def build():
            # (rank + 1) % P, under a sel on rank == 0
            wrap = table.node(
                "bin", "%", table.node("bin", "+", RANK, table.const(1)), P
            )
            cond = table.node("bin", "==", RANK, table.const(0))
            return table.node("sel", cond, wrap, table.leaf("frame", "s"))

        first, second = build(), build()
        assert first is second
        assert first == (
            "sel", ("bin", "==", ("rank",), ("const", 0)),
            ("bin", "%", ("bin", "+", ("rank",), ("const", 1)), ("P",)),
            ("frame", "s"),
        )
        assert rebuild_term(table, first) is first

    def test_one_and_true_build_two_terms(self):
        table = Terms()
        one = table.node("bin", "+", RANK, table.const(1))
        true = table.node("bin", "+", RANK, table.const(True))
        assert one == true  # tuple equality cannot tell them apart
        assert one is not true

    def test_leaves_are_shared_across_tables(self):
        assert Terms().node("rank") is RANK
        assert Terms().node("P") is P

    def test_the_cap_refuses_to_build(self):
        table = Terms()
        term = P
        for _ in range((MAX_TERM_SIZE - 1) // 2):
            term = table.node("bin", "+", term, table.const(1))
        assert table.size(term) == MAX_TERM_SIZE - 1
        top = table.node("un", "-", term)
        assert table.size(top) == MAX_TERM_SIZE
        assert table.node("un", "-", top) is None
        assert table.node("bin", "+", term, table.const(1)) is None
        assert render_term(table.node("un", "-", RANK)) == "(-rank)"


class TestCachedFacts:
    @pytest.mark.parametrize("name", sorted(APPS))
    def test_facts_equal_a_walk_over_every_verdict(self, name):
        spec = get_app(name)
        symbolic = analyze_program(spec.program, None, dict(spec.params))
        analyses = [
            symbolic, analyze_program(spec.program, 16, dict(spec.params)),
        ]
        if name != "mg":  # mg steps aside at every scale
            analyses.append(symbolic.instantiate(16))
        for analysis in analyses:
            table = analysis.terms
            for term in _verdict_terms(analysis):
                # a verdict's term is the table's own node: rebuilt
                # through the constructor, it is the same object
                assert rebuild_term(table, term) is term
                for sub in _subterms(term):
                    size, reads_p, names = _walk(sub)
                    assert table.size(sub) == size
                    assert table.reads_p(sub) is reads_p
                    assert table.env_names(sub) == names
                    assert size <= MAX_TERM_SIZE

    def test_closed_term_drops_frame_leaves(self):
        spec = get_app("cg")
        analysis = analyze_program(spec.program, 16, spec.merged_params())
        framed = [t for t in _verdict_terms(analysis) if _walk(t)[2]]
        assert framed  # cg's hypercube partner reads the stride's frame
        for term in _verdict_terms(analysis):
            closed = analysis.terms.closed(term)
            assert closed is (None if term in framed else term)


class TestRefold:
    def test_bt_folds_each_distinct_p_node_once_per_witness(self, monkeypatch):
        """bt's verdicts repeat floor(sqrt(P)) sub-terms; interned, they
        are one node, and the instantiation re-folds each once."""
        spec = get_app("bt")
        symbolic = analyze_program(spec.program, None, dict(spec.params))
        folded: list = []
        fold = rankdep._Refold._fold

        def counting(self, term):
            folded.append(term)
            return fold(self, term)

        monkeypatch.setattr(rankdep._Refold, "_fold", counting)
        for p in (4, 9, 16, 25):
            folded.clear()
            symbolic.instantiate(p)
            p_nodes = [t for t in folded if symbolic.terms.reads_p(t)]
            assert p_nodes
            assert len({id(t) for t in p_nodes}) == len(p_nodes)
            # and distinct by structure too: no equal copy was folded
            assert len(set(map(repr, p_nodes))) == len(p_nodes)


class TestLifetime:
    def test_no_table_outlives_its_analyses(self):
        def tables() -> int:
            gc.collect()
            return sum(type(o) is Terms for o in gc.get_objects())

        before = tables()
        for name in ("bt", "cg"):
            spec = get_app(name)
            analysis = analyze_program(spec.program, None, dict(spec.params))
            assert type(analysis.terms) is Terms
            build_comm_graph(spec.program, dict(spec.params))
            program = parse_program(spec.source, name)
            analyze_program(program, 8, dict(spec.params))
        del analysis
        assert tables() == before
        for module in (rankdep, commgraph, terms):
            assert not any(type(v) is Terms for v in vars(module).values())
