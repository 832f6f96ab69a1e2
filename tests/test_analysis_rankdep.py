"""Unit tests of the whole-program rank-dependence dataflow.

Covers the verdict lattice (CONST < INVARIANT < AFFINE < DEPENDENT), the
const-statement extraction the cross-rank op sharing relies on, the
symbolic-term evaluator's exact interpreter semantics, and the soundness
degradations (rank-dependent ``while``, recursion, tainting merges).
"""

import pytest

from repro.analysis import Rankness, analyze_program, eval_term
from repro.minilang import parse_program
from repro.minilang.ast_nodes import MpiOp, MpiStmt, walk_statements
from repro.simulator.errors import SimulationError


def _analyze(source, nprocs=8, params=None, **kw):
    program = parse_program(source, "t.mm")
    return program, analyze_program(program, nprocs, params, **kw)


def _mpi_stmts(program, op=None):
    out = []
    for fn in program.functions.values():
        for stmt in walk_statements(fn.body):
            if isinstance(stmt, MpiStmt) and (op is None or stmt.op is op):
                out.append(stmt)
    return out


class TestVerdicts:
    def test_constant_args_are_const_stmts(self):
        program, analysis = _analyze(
            """
            def main() {
                for (var i = 0; i < 3; i = i + 1) {
                    allreduce(bytes = 8);
                }
            }
            """
        )
        (coll,) = _mpi_stmts(program)
        assert analysis.classify_stmt(coll.stmt_id) is Rankness.CONST
        assert coll.stmt_id in analysis.const_stmts
        assert analysis.degraded is None

    def test_params_fold_to_const(self):
        program, analysis = _analyze(
            """
            def main() {
                allreduce(bytes = 8 * n);
            }
            """,
            params={"n": 64},
        )
        (coll,) = _mpi_stmts(program)
        assert coll.stmt_id in analysis.const_stmts

    def test_ring_neighbor_is_affine_not_const(self):
        program, analysis = _analyze(
            """
            def main() {
                sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 64,
                         src = (rank - 1 + nprocs) % nprocs);
            }
            """
        )
        (sr,) = _mpi_stmts(program)
        assert analysis.classify_stmt(sr.stmt_id) is Rankness.AFFINE
        assert sr.stmt_id not in analysis.const_stmts
        dest_av = analysis.verdict_of(sr.dest)
        assert dest_av.kind is Rankness.AFFINE
        # the symbolic term reproduces the concrete neighbor for every rank
        assert [eval_term(dest_av.term, r) for r in range(8)] == [
            (r + 1) % 8 for r in range(8)
        ]

    def test_rank_split_assignment_is_tainted_but_keeps_a_term(self):
        # x differs across ranks after the merge: it must NOT be
        # invariant; the sel-term rescue still gives it a rank function
        program, analysis = _analyze(
            """
            def main() {
                var x = 1;
                if (rank < 2) {
                    x = 2;
                }
                send(dest = x, tag = 0, bytes = 8);
                recv(src = ANY, tag = ANY);
            }
            """,
            nprocs=4,
        )
        send = _mpi_stmts(program, MpiOp.SEND)[0]
        av = analysis.verdict_of(send.dest)
        assert av.kind not in (Rankness.CONST, Rankness.INVARIANT)
        assert av.term is not None
        assert [eval_term(av.term, r) for r in range(4)] == [2, 2, 1, 1]

    def test_invariant_branch_does_not_taint(self):
        program, analysis = _analyze(
            """
            def main() {
                var x = 1;
                if (nprocs > 2) {
                    x = 2;
                }
                allreduce(bytes = x);
            }
            """
        )
        (coll,) = _mpi_stmts(program)
        # all ranks take the same arm, so x is the same everywhere
        assert analysis.classify_stmt(coll.stmt_id) is Rankness.CONST

    def test_recursion_is_pessimistic(self):
        program, analysis = _analyze(
            """
            def ping(depth) {
                if (depth > 0) {
                    allreduce(bytes = 8);
                    ping(depth - 1);
                }
            }
            def main() {
                ping(3);
            }
            """
        )
        (coll,) = _mpi_stmts(program)
        # recursive bodies are analyzed with all params DEPENDENT; the
        # collective's byte count is still literally constant, which is
        # exactly what op sharing needs
        assert coll.stmt_id in analysis.const_stmts
        assert analysis.degraded is None


class TestDeciders:
    def test_rank_dependent_branch_is_a_decider(self):
        program, analysis = _analyze(
            """
            def main() {
                if (rank == 0) {
                    allreduce(bytes = 8);
                } else {
                    allreduce(bytes = 8);
                }
            }
            """
        )
        assert analysis.degraded is None
        (decider,) = analysis.deciders.values()
        assert decider.kind == "branch"
        assert decider.av.term is not None
        assert [bool(eval_term(decider.av.term, r)) for r in range(4)] == [
            True, False, False, False,
        ]

    def test_countable_rank_for_is_a_loop_decider(self):
        program, analysis = _analyze(
            """
            def main() {
                for (var i = 0; i < rank + 1; i = i + 1) {
                    allreduce(bytes = 8);
                }
            }
            """
        )
        assert analysis.degraded is None
        (decider,) = analysis.deciders.values()
        assert decider.kind == "loop"
        assert [eval_term(decider.av.term, r) for r in range(4)] == [1, 2, 3, 4]

    def test_rank_dependent_while_degrades(self):
        _, analysis = _analyze(
            """
            def main() {
                var s = rank;
                while (s > 0) {
                    allreduce(bytes = 8);
                    s = s - 1;
                }
            }
            """
        )
        assert analysis.degraded is not None

    def test_silent_rank_branch_is_not_a_decider(self):
        # the arms emit no ops: the decision is unobservable and must not
        # block symmetry detection
        _, analysis = _analyze(
            """
            def main() {
                var x = 0;
                if (rank == 0) {
                    x = 1;
                }
                allreduce(bytes = 8);
            }
            """
        )
        assert analysis.degraded is None
        assert not analysis.deciders


#: ``const_stmts`` of every bundled app before loop-carried locals got
#: ``("frame", name)`` leaves: the leaves add precision to rank-varying
#: terms only, so the set of shared op records must not move.
CONST_STMTS_P16 = {
    "bt": (9, 10, 15, 16, 21, 22, 27),
    "cg": (0, 7, 9, 10, 17),
    "ep": (0, 1, 2, 3),
    "ft": (0, 4, 5, 6, 7),
    "is": (3, 4, 5, 6),
    "lu": (5, 11, 19),
    "mg": (14,),
    "nekbone": (2, 9, 15, 16),
    "nekbone_fixed": (1, 9, 15, 16),
    "sp": (9, 10, 15, 16, 21, 22, 27),
    "sst": (7, 17, 18),
    "sst_fixed": (7, 17, 18),
    "zeusmp": (4, 14, 22, 23, 25, 26, 28, 29),
    "zeusmp_fixed": (4, 14, 22, 23, 25, 26, 28, 29),
}
CONST_STMTS_SYMBOLIC = {
    "bt": (9, 15, 21, 27),
    "cg": (9, 10, 17),
    "ep": (1, 2, 3),
    "ft": (7,),
    "is": (6,),
    "lu": (5,),
    "mg": (14,),
    "nekbone": (9, 15, 16),
    "nekbone_fixed": (9, 15, 16),
    "sp": (9, 15, 21, 27),
    "sst": (7, 17, 18),
    "sst_fixed": (7, 17, 18),
    "zeusmp": (4, 22, 25, 28, 29),
    "zeusmp_fixed": (4, 22, 25, 28, 29),
}


def _frame_leaves(term):
    if term is None:
        return set()
    if term[0] == "frame":
        return {term[1]}
    out = set()
    for sub in term[1:]:
        if isinstance(sub, tuple):
            out |= _frame_leaves(sub)
    return out


class TestFrameLeaves:
    """Loop-carried rank-invariant locals become ``("frame", name)``."""

    @pytest.mark.parametrize("nprocs", [16, None])
    def test_cg_hypercube_partner_is_a_frame_select(self, nprocs):
        from repro.apps import get_app

        spec = get_app("cg")
        analysis = analyze_program(spec.program, nprocs, spec.merged_params())
        (sr,) = _mpi_stmts(spec.program, MpiOp.SENDRECV)
        assert (sr.location.filename, sr.location.line) == ("cg.mm", 22)
        dest, _tag, _nbytes, recv_src, _recv_tag = analysis.stmt_args[sr.stmt_id]
        for av in (dest, recv_src):
            assert av.kind is Rankness.DEPENDENT
            assert av.term[0] == "sel"
            assert _frame_leaves(av.term) == {"s"}
            assert analysis.terms.env_names(av.term) == {"s"}
            # consumers without a frame see no closed rank function
            assert analysis.closed_term(av) is None
        # bound to a stride, the term is the hypercube partner
        for rank in range(16):
            for s in (1, 2, 4, 8):
                expected = rank + s if (rank // s) % 2 == 0 else rank - s
                assert eval_term(dest.term, rank, 16, {"s": s}) == expected
        with pytest.raises(SimulationError):
            eval_term(dest.term, 0, 16)  # unbound frame leaf

    def test_stride_reassigned_before_use_has_no_term(self):
        program, analysis = _analyze(
            """
            def main() {
                var s = 1;
                while (s < nprocs) {
                    var partner = rank - s;
                    s = s * 2;
                    send(dest = partner, tag = 1, bytes = 8);
                }
            }
            """
        )
        (send,) = _mpi_stmts(program)
        dest = analysis.stmt_args[send.stmt_id][0]
        assert dest.kind is Rankness.DEPENDENT
        assert dest.term is None

    def test_callee_parameter_never_holds_a_frame_leaf(self):
        program, analysis = _analyze(
            """
            def main() {
                var s = 1;
                while (s < nprocs) {
                    shift(rank + s, s);
                    s = s * 2;
                }
            }

            def shift(s, k) {
                send(dest = s % nprocs, tag = 1, bytes = 8 * k);
            }
            """
        )
        (send,) = _mpi_stmts(program)
        for av in analysis.stmt_args[send.stmt_id]:
            assert not _frame_leaves(av.term)
        dest = analysis.stmt_args[send.stmt_id][0]
        assert dest.kind is Rankness.DEPENDENT and dest.term is None

    def test_loop_constant_local_stays_const(self):
        program, analysis = _analyze(
            """
            def main() {
                var b = 64;
                for (var i = 0; i < 4; i = i + 1) {
                    allreduce(bytes = b);
                    b = 64;
                }
            }
            """
        )
        (coll,) = _mpi_stmts(program)
        assert coll.stmt_id in analysis.const_stmts

    @pytest.mark.parametrize(
        "nprocs, pinned",
        [(16, CONST_STMTS_P16), (None, CONST_STMTS_SYMBOLIC)],
        ids=["p16", "symbolic"],
    )
    def test_const_stmts_of_every_app_are_unchanged(self, nprocs, pinned):
        from repro.apps import APPS, get_app

        assert set(APPS) == set(pinned)
        for name in sorted(APPS):
            spec = get_app(name)
            analysis = analyze_program(
                spec.program, nprocs, spec.merged_params()
            )
            assert tuple(sorted(analysis.const_stmts)) == pinned[name], name


class TestEvalTerm:
    def test_c_style_integer_division(self):
        assert eval_term(("bin", "/", ("const", 7), ("const", -2)), 0) == -3
        assert eval_term(("bin", "/", ("const", -7), ("const", 2)), 0) == -3

    def test_division_by_zero_raises_simulation_error(self):
        with pytest.raises(SimulationError):
            eval_term(("bin", "/", ("rank",), ("const", 0)), 1)
        with pytest.raises(SimulationError):
            eval_term(("bin", "%", ("const", 3), ("const", 0)), 0)

    def test_short_circuit_logic(self):
        term = ("bin", "&&", ("const", 0), ("bin", "/", ("const", 1), ("const", 0)))
        assert eval_term(term, 0) == 0  # RHS never evaluated


class TestTotality:
    def test_analyze_never_raises_on_apps(self):
        from repro.apps import APPS, get_app

        for name in APPS:
            app = get_app(name)
            nprocs = next(n for n in (8, 9, 16) if app.nprocs_valid(n))
            analysis = analyze_program(app.program, nprocs, app.params)
            assert analysis.nprocs == nprocs
