"""Graph contraction tests, including the paper's Fig. 3/4 example and
hypothesis invariants."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import app_names, get_app
from repro.minilang.parser import parse_program
from repro.psg import build_complete_psg, contract_psg
from repro.psg.graph import VertexType

FIG3 = """\
def main() {
    for (var i = 0; i < 100; i = i + 1) {
        compute(flops = 100, name = "fill");
        for (var j = 0; j < i; j = j + 1) {
            compute(flops = 10, name = "sum");
        }
        for (var k = 0; k < i; k = k + 1) {
            compute(flops = 10, name = "product");
        }
        foo();
        bcast(root = 0, bytes = 8);
    }
}

def foo() {
    if (rank % 2 == 0) {
        send(dest = rank + 1, tag = 0, bytes = 64);
    } else {
        recv(src = rank - 1, tag = 0);
    }
}
"""


class TestFig4Example:
    """The exact contraction example of the paper's Figs. 3 and 4."""

    def setup_method(self):
        self.prog = parse_program(FIG3, "fig3.mm")
        self.complete = build_complete_psg(self.prog)
        self.result = contract_psg(self.complete, max_loop_depth=1)
        self.psg = self.result.psg

    def test_complete_has_three_loops(self):
        stats = self.complete.stats()
        assert stats["loop"] == 3
        assert stats["mpi"] == 3

    def test_contracted_merges_inner_loops_into_one_comp(self):
        stats = self.psg.stats()
        assert stats["loop"] == 1  # only Loop 1 survives
        assert stats["comp"] == 1  # fill + Loop1.1 + Loop1.2 merged
        assert stats["mpi"] == 3  # MPI is always preserved
        assert stats["branch"] == 1  # contains MPI, preserved

    def test_merged_comp_owns_all_stmt_ids(self):
        comp = [
            v for v in self.psg.vertices.values() if v.vtype is VertexType.COMP
        ][0]
        assert len(comp.stmt_ids) >= 3  # 3 computes + 2 loop stmts

    def test_reduction_reported(self):
        assert self.result.vertices_before == len(self.complete)
        assert self.result.vertices_after < self.result.vertices_before
        assert 0 < self.result.reduction < 1

    def test_original_untouched(self):
        assert len(self.complete) == self.result.vertices_before

    def test_stmt_index_still_resolves_absorbed_statements(self):
        # every key of the complete index must resolve in the contracted one
        for (path, sid) in self.complete.stmt_index:
            vid = self.psg.lookup_stmt(path, sid)
            assert vid is not None
            assert vid in self.psg.vertices


class TestContractionRules:
    def test_mpi_loops_never_contracted(self):
        prog = parse_program(
            "def main() { for (var i = 0; i < 2; i = i + 1) {"
            " for (var j = 0; j < 2; j = j + 1) { allreduce(bytes = 8); } } }"
        )
        complete = build_complete_psg(prog)
        psg = contract_psg(complete, max_loop_depth=0).psg
        assert psg.stats()["loop"] == 2  # both kept: they contain MPI

    def test_max_loop_depth_zero_contracts_all_compute_loops(self):
        prog = parse_program(
            "def main() { for (var i = 0; i < 2; i = i + 1) {"
            " compute(flops = 1); } barrier(); }"
        )
        psg = contract_psg(build_complete_psg(prog), max_loop_depth=0).psg
        assert psg.stats()["loop"] == 0
        assert psg.stats()["comp"] == 1

    def test_max_loop_depth_one_keeps_outer(self):
        prog = parse_program(
            "def main() { for (var i = 0; i < 2; i = i + 1) {"
            " for (var j = 0; j < 2; j = j + 1) { compute(flops = 1); } }"
            " barrier(); }"
        )
        psg = contract_psg(build_complete_psg(prog), max_loop_depth=1).psg
        assert psg.stats()["loop"] == 1

    def test_branch_without_mpi_dissolved(self):
        prog = parse_program(
            "def main() { if (rank == 0) { compute(flops = 1); }"
            " else { compute(flops = 2); } barrier(); }"
        )
        psg = contract_psg(build_complete_psg(prog), max_loop_depth=10).psg
        assert psg.stats()["branch"] == 0

    def test_branch_with_preserved_loop_kept(self):
        prog = parse_program(
            "def main() { if (rank == 0) {"
            " for (var i = 0; i < 2; i = i + 1) { compute(flops = 1); } }"
            " barrier(); }"
        )
        psg = contract_psg(build_complete_psg(prog), max_loop_depth=10).psg
        assert psg.stats()["branch"] == 1
        assert psg.stats()["loop"] == 1

    def test_comp_runs_merge_but_not_across_mpi(self):
        prog = parse_program(
            "def main() { compute(flops = 1); compute(flops = 2);"
            " barrier(); compute(flops = 3); compute(flops = 4); }"
        )
        psg = contract_psg(build_complete_psg(prog)).psg
        assert psg.stats()["comp"] == 2

    def test_comps_not_merged_across_branch_arms(self):
        prog = parse_program(
            "def main() { if (rank == 0) { compute(flops = 1); barrier(); "
            "compute(flops = 2); } else { compute(flops = 3); } }"
        )
        psg = contract_psg(build_complete_psg(prog)).psg
        branch = [
            v for v in psg.vertices.values() if v.vtype is VertexType.BRANCH
        ][0]
        arms = [psg.vertices[c].arm for c in branch.children]
        assert "else" in arms  # else arm kept separate from then-arm comps

    def test_negative_depth_rejected(self):
        prog = parse_program("def main() { barrier(); }")
        with pytest.raises(ValueError):
            contract_psg(build_complete_psg(prog), max_loop_depth=-1)


@st.composite
def nested_programs(draw):
    """Programs with random loop/branch/compute/mpi nesting."""

    def block(depth):
        n = draw(st.integers(min_value=1, max_value=3))
        parts = []
        for _ in range(n):
            kind = draw(
                st.sampled_from(
                    ["compute", "mpi", "loop", "branch"] if depth < 3 else ["compute", "mpi"]
                )
            )
            if kind == "compute":
                parts.append("compute(flops = 10);")
            elif kind == "mpi":
                parts.append(
                    draw(st.sampled_from(["barrier();", "allreduce(bytes = 8);"]))
                )
            elif kind == "loop":
                parts.append(
                    f"for (var i{depth} = 0; i{depth} < 2; i{depth} = i{depth} + 1) "
                    f"{{ {block(depth + 1)} }}"
                )
            else:
                parts.append(f"if (rank % 2 == 0) {{ {block(depth + 1)} }}")
        return " ".join(parts)

    return f"def main() {{ {block(0)} }}"


class TestContractionProperties:
    @settings(max_examples=60, deadline=None)
    @given(nested_programs(), st.integers(min_value=0, max_value=3))
    def test_invariants(self, source, depth):
        prog = parse_program(source)
        complete = build_complete_psg(prog)
        result = contract_psg(complete, max_loop_depth=depth)
        psg = result.psg
        # 1. MPI vertices are always preserved exactly
        assert psg.stats()["mpi"] == complete.stats()["mpi"]
        # 2. contraction never grows the graph
        assert len(psg) <= len(complete)
        # 3. parent/child structure stays consistent
        for v in psg.vertices.values():
            for c in v.children:
                assert psg.vertices[c].parent == v.vid
            if v.parent is not None:
                assert v.vid in psg.vertices[v.parent].children
        # 4. every original statement key still resolves
        for (path, sid) in complete.stmt_index:
            assert psg.lookup_stmt(path, sid) in psg.vertices
        # 5. no loop deeper than the threshold survives without MPI
        for v in psg.vertices.values():
            if v.vtype is VertexType.LOOP and v.loop_depth > depth:
                assert psg.has_mpi_in_subtree(v.vid)


def _state(psg):
    """Everything a PSG holds, by value."""
    vertices = {vid: copy.deepcopy(vars(v)) for vid, v in psg.vertices.items()}
    return psg.name, psg.root_id, psg._next_id, vertices, dict(psg.stmt_index)


@pytest.mark.parametrize("app", app_names())
@pytest.mark.parametrize("max_loop_depth", [0, 1, 10])
def test_contraction_leaves_its_input_alone(app, max_loop_depth):
    complete = build_complete_psg(get_app(app).program)
    before = _state(complete)
    out = contract_psg(complete, max_loop_depth).psg
    assert _state(complete) == before
    assert out.vertices is not complete.vertices
    assert out.stmt_index is not complete.stmt_index
    for vid, v in out.vertices.items():
        original = complete.vertices[vid]
        assert v is not original
        assert v.children is not original.children
        assert v.stmt_ids is not original.stmt_ids


@pytest.mark.parametrize("app", app_names())
def test_psg_copy_equals_its_original(app):
    complete = build_complete_psg(get_app(app).program)
    assert _state(complete.copy()) == _state(complete)
