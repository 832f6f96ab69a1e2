"""Parametric communication graph: symbolic edge families vs ground truth.

The load-bearing property (ISSUE 7): ``CommGraph.instantiate(P)`` must
equal the concrete per-rank interpreter extraction — same send/recv/
collective multisets, coercions included — at every scale, across a
randomized corpus of wildcard/collective/imbalanced workloads (100+
seeds) and all bundled applications whose graphs build exactly.
Degradations must be honest: a degraded graph refuses to instantiate
rather than guessing.
"""

import json
import random

import pytest

from repro.analysis import build_comm_graph, extract_concrete
from repro.analysis.commgraph import ScalingSkeleton
from repro.apps import APPS, get_app
from repro.minilang import parse_program
from repro.psg import build_psg
from repro.simulator.errors import SimulationError


def _compiled(source, name="t.mm"):
    program = parse_program(source, name)
    return program, build_psg(program).psg


def _assert_instance_matches(source, nprocs, params=None, name="t.mm"):
    program, psg = _compiled(source, name)
    graph = build_comm_graph(program, params)
    assert graph.exact, (name, graph.reason)
    inst = graph.instantiate(nprocs)
    conc = extract_concrete(program, psg, nprocs, params)
    assert inst.sends == conc.sends, name
    assert inst.recvs == conc.recvs, name
    assert inst.collectives == conc.collectives, name
    return graph, inst


# --------------------------------------------------------------------------
# randomized corpus: fragments composed per seed
# --------------------------------------------------------------------------


def _frag_ring(rng, t):
    k = rng.randint(1, 3)
    b = 8 * rng.randint(1, 64)
    reps = rng.randint(1, 3)
    body = (
        f"    sendrecv(dest = (rank + {k}) % nprocs, tag = {t} + it, "
        f"bytes = {b}, src = (rank - {k} + nprocs) % nprocs);\n"
    )
    return (
        f"  for (var it = 0; it < {reps}; it = it + 1) {{\n{body}  }}\n"
    )


def _frag_shift(rng, t):
    b = f"{8 * rng.randint(1, 8)} * (rank + 1)"
    return (
        f"  if (rank < nprocs - 1) {{\n"
        f"    send(dest = rank + 1, tag = {t}, bytes = {b});\n"
        f"  }}\n"
        f"  if (rank > 0) {{\n"
        f"    recv(src = rank - 1, tag = {t});\n"
        f"  }}\n"
    )


def _frag_fan_in(rng, t):
    wildcard = rng.random() < 0.5
    src = "ANY" if wildcard else "i"
    recv = f"      recv(src = {src}, tag = {t});\n"
    if not wildcard:
        # concrete-source variant loops over the sender index directly
        recv = f"      recv(src = i, tag = {t});\n"
    return (
        f"  if (rank == 0) {{\n"
        f"    for (var i = 1; i < nprocs; i = i + 1) {{\n"
        f"{recv}"
        f"    }}\n"
        f"  }} else {{\n"
        f"    send(dest = 0, tag = {t}, bytes = 8 * rank + {rng.randint(0, 32)});\n"
        f"  }}\n"
    )


def _frag_nonblocking(rng, t):
    b = 8 * rng.randint(1, 16)
    return (
        f"  isend(dest = (rank + 1) % nprocs, tag = {t}, bytes = {b}, req = s);\n"
        f"  irecv(src = (rank - 1 + nprocs) % nprocs, tag = {t}, req = r);\n"
        f"  waitall();\n"
    )


def _frag_collective(rng, t):
    choice = rng.choice(["allreduce", "bcast", "reduce", "barrier"])
    b = 8 * rng.randint(1, 32)
    if choice == "barrier":
        return "  barrier();\n"
    if choice == "allreduce":
        return f"  allreduce(bytes = {b});\n"
    return f"  {choice}(root = 0, bytes = {b});\n"


def _frag_compute(rng, t):
    base = 1000 * rng.randint(1, 50)
    slope = 100 * rng.randint(0, 20)
    m = rng.randint(2, 5)
    return f"  compute(flops = {base} + {slope} * (rank % {m}));\n"


def _frag_parity(rng, t):
    b = 8 * rng.randint(1, 8)
    return (
        f"  if (rank % 2 == 0) {{\n"
        f"    if (rank + 1 < nprocs) {{\n"
        f"      send(dest = rank + 1, tag = {t}, bytes = {b});\n"
        f"    }}\n"
        f"  }} else {{\n"
        f"    recv(src = rank - 1, tag = {t});\n"
        f"  }}\n"
    )


def _frag_param_bytes(rng, t):
    # exercises params: byte counts as a function of a free parameter
    return (
        f"  if (rank == 0) {{\n"
        f"    bcast(root = 0, bytes = n * {rng.randint(1, 4)});\n"
        f"  }} else {{\n"
        f"    bcast(root = 0, bytes = n * {rng.randint(1, 4)});\n"
        f"  }}\n"
    )


def _frag_helper_call(rng, t):
    # routed through a helper function: exercises call inlining
    return f"  halo({t});\n  halo({t + 1});\n"


_FRAGMENTS = [
    _frag_ring,
    _frag_shift,
    _frag_fan_in,
    _frag_nonblocking,
    _frag_collective,
    _frag_compute,
    _frag_parity,
    _frag_param_bytes,
    _frag_helper_call,
]

_HELPER = """\
def halo(t) {
  sendrecv(dest = (rank + 1) % nprocs, tag = t, bytes = 128,
           src = (rank - 1 + nprocs) % nprocs);
}
"""


def generate_program(seed):
    """A random but valid-by-construction MiniMPI workload: every
    endpoint is wrapped/guarded into range for any nprocs >= 2."""
    rng = random.Random(seed)
    parts = []
    tag = 10
    for _ in range(rng.randint(2, 5)):
        frag = rng.choice(_FRAGMENTS)
        parts.append(frag(rng, tag))
        tag += 10
    return _HELPER + "def main() {\n" + "".join(parts) + "}\n"


class TestRandomCorpus:
    @pytest.mark.parametrize("seed", range(120))
    def test_instantiation_matches_concrete_extraction(self, seed):
        source = generate_program(seed)
        params = {"n": 64 + 8 * (seed % 5)}
        for nprocs in (2, 5, 8):
            _assert_instance_matches(
                source, nprocs, params, name=f"seed{seed}.mm"
            )


class TestBundledApps:
    @pytest.mark.parametrize("name", sorted(APPS))
    def test_graph_matches_extraction_or_degrades_honestly(self, name):
        app = get_app(name)
        program = parse_program(app.source, name)
        psg = build_psg(program).psg
        graph = build_comm_graph(program, dict(app.params))
        if not graph.exact:
            # degradation must carry a reason and refuse to instantiate
            assert graph.reason
            with pytest.raises(SimulationError):
                graph.instantiate(4)
            return
        scales = [p for p in (2, 4, 8, 9, 16) if app.nprocs_valid(p)][:2]
        for nprocs in scales:
            inst = graph.instantiate(nprocs)
            conc = extract_concrete(
                program, psg, nprocs, dict(app.params)
            )
            assert inst.sends == conc.sends, (name, nprocs)
            assert inst.recvs == conc.recvs, (name, nprocs)
            assert inst.collectives == conc.collectives, (name, nprocs)

    def test_instantiation_cost_is_scale_bounded(self):
        """The O(edges) claim in practice: family count does not grow
        with P (it is a static property of the program)."""
        app = get_app("lu")
        program = parse_program(app.source, "lu")
        graph = build_comm_graph(program, dict(app.params))
        assert graph.exact
        n_families = len(graph.families)
        assert n_families < 50
        # the same family set serves every scale
        for nprocs in (4, 64, 256):
            assert len(graph.families) == n_families
            graph.instantiate(nprocs)


class TestGraphSemantics:
    def test_guard_splitting_boundary_cases(self):
        """(2*rank + 1 < nprocs)-style guards emit exactly the in-range
        endpoints at every scale, including the odd/even boundary."""
        source = """
def main() {
  if (2 * rank + 1 < nprocs) {
    send(dest = 2 * rank + 1, tag = 3, bytes = 8);
  }
  if (rank % 2 == 1) {
    recv(src = (rank - 1) / 2, tag = 3);
  }
}
"""
        for nprocs in (2, 3, 4, 5, 9):
            graph, inst = _assert_instance_matches(source, nprocs)
            senders = {r for (r, _d, _t, _b, _bl) in inst.sends}
            assert senders == {
                r for r in range(nprocs) if 2 * r + 1 < nprocs
            }

    def test_loop_trip_counts_are_integer_exact(self):
        source = """
def main() {
  for (var i = 0; i < 7; i = i + 2) {
    send(dest = (rank + 1) % nprocs, tag = i, bytes = 8);
    recv(src = (rank - 1 + nprocs) % nprocs, tag = i);
  }
}
"""
        graph, inst = _assert_instance_matches(source, 4)
        # ceil(7/2) = 4 iterations x 4 ranks
        assert sum(inst.sends.values()) == 16

    def test_sendrecv_splits_into_send_and_recv(self):
        source = """
def main() {
  sendrecv(dest = (rank + 1) % nprocs, tag = 5, bytes = 32,
           src = (rank - 1 + nprocs) % nprocs);
}
"""
        _graph, inst = _assert_instance_matches(source, 6)
        assert sum(inst.sends.values()) == 6
        assert sum(inst.recvs.values()) == 6

    def test_degraded_on_data_dependent_while(self):
        source = """
def main() {
  var s = 1;
  while (s < nprocs) {
    sendrecv(dest = (rank + s) % nprocs, tag = 1, bytes = 8,
             src = (rank - s + nprocs) % nprocs);
    s = s * 2;
  }
}
"""
        program, _psg = _compiled(source)
        graph = build_comm_graph(program)
        assert not graph.exact
        assert "while" in graph.reason

    def test_opaque_condition_tolerated_when_silent(self):
        """A data-dependent branch that emits nothing must not degrade
        the graph (assigned names are poisoned instead)."""
        source = """
def main() {
  var acc = 0;
  while (acc < 3) {
    acc = acc + 1;
  }
  sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 8,
           src = (rank - 1 + nprocs) % nprocs);
}
"""
        _assert_instance_matches(source, 4)


class TestScalingSkeleton:
    def test_counts_match_instances(self):
        app = get_app("lu")
        program = parse_program(app.source, "lu")
        graph = build_comm_graph(program, dict(app.params))
        skeleton = ScalingSkeleton(graph)
        for nprocs in (2, 4, 8, 16):
            counts = skeleton.counts_at(nprocs)
            inst = graph.instantiate(nprocs)
            assert counts["messages"] == sum(inst.sends.values())
            assert counts["collective_ops"] == sum(
                inst.collectives.values()
            )

    def test_per_rank_counts_tile_the_totals(self):
        app = get_app("zeusmp")
        program = parse_program(app.source, "zeusmp")
        graph = build_comm_graph(program, dict(app.params))
        skeleton = ScalingSkeleton(graph)
        nprocs = 12
        per_rank = skeleton.per_rank_counts(nprocs)
        totals = skeleton.counts_at(nprocs)
        assert len(per_rank["sends"]) == nprocs
        assert sum(per_rank["sends"]) == totals["messages"]
        assert sum(per_rank["recv_posts"]) == totals["recv_posts"]
        assert sum(per_rank["collective_ops"]) == totals["collective_ops"]

    def test_formulas_render(self):
        app = get_app("lu")
        program = parse_program(app.source, "lu")
        graph = build_comm_graph(program, dict(app.params))
        formulas = ScalingSkeleton(graph).formulas()
        assert formulas  # one entry per family
        assert all(isinstance(f, str) for f in formulas)


# --------------------------------------------------------------------------
# regressions: a branch merge that took True for 1, a float trip count
# --------------------------------------------------------------------------

#: ``t`` is True on even ranks and 1 on odd ones; rank 1 sends with tag 1.
#: A merge that compared terms with ``==`` kept ``("const", 1)`` for both
#: arms, so the graph sent tag True.
ONE_OR_TRUE = """\
def main() {
    var t = 1;
    if (rank % 2 == 0) {
        t = true;
    }
    if (rank == 1) {
        send(dest = 0, tag = t, bytes = 8);
    }
    if (rank == 0) {
        recv(src = 1, tag = 1);
    }
}
"""

#: The interpreter runs i = 0.5, 1.5: two messages.  A float span plus
#: the integer +1 of ``<=`` counted three.
FLOAT_TRIP = """\
def main() {
    for (var i = 0.5; i <= 2.0; i = i + 1) {
        if (rank == 1) {
            send(dest = 0, tag = 1, bytes = 8);
        }
        if (rank == 0) {
            recv(src = 1, tag = 1);
        }
    }
}
"""


class TestTermRegressions:
    def test_one_and_true_stay_apart_in_a_branch_merge(self):
        for nprocs in range(2, 9):
            _assert_instance_matches(ONE_OR_TRUE, nprocs, name="t1.mm")

    def test_float_trip_count_refuses_or_matches(self):
        program, psg = _compiled(FLOAT_TRIP, "float.mm")
        graph = build_comm_graph(program)
        for nprocs in range(2, 9):
            conc = extract_concrete(program, psg, nprocs)
            assert sum(conc.sends.values()) == 2
            try:
                inst = graph.instantiate(nprocs)
            except SimulationError as exc:
                assert "non-integer loop bounds" in str(exc)
                continue
            assert (inst.sends, inst.recvs) == (conc.sends, conc.recvs)

    @pytest.mark.parametrize("source, name, checked", [
        (ONE_OR_TRUE, "t1.mm", True), (FLOAT_TRIP, "float.mm", False),
    ], ids=["t1", "float"])
    def test_scales_lint_reports_only_a_checked_skeleton(
        self, source, name, checked
    ):
        """The skeleton is reported only when its self check held, and
        then its counts are the interpreter's."""
        from repro.api import Pipeline

        program, psg = _compiled(source, name)
        rep = Pipeline(source, filename=name).lint(scales="2..16")
        check_at, ok = rep.skeleton_checked
        assert ok is checked
        assert (rep.skeleton is not None) == ok
        rep.render()
        doc = rep.to_json_dict()
        if ok:
            p = rep.scales[-1]
            conc = extract_concrete(program, psg, p)
            assert doc["skeleton"]["counts_at"][str(p)]["messages"] == sum(
                conc.sends.values()
            )
        else:
            assert doc["skeleton"] is None
        assert doc["skeleton_checked"] == [check_at, ok]

    @pytest.mark.parametrize("source, name, skeleton", [
        (ONE_OR_TRUE, "t1.mm", {"8": {
            "messages": 1, "recv_posts": 1, "collective_ops": 0,
        }}),
        (FLOAT_TRIP, "float.mm", None),
    ], ids=["t1", "float"])
    def test_scales_lint_cli_renders(
        self, source, name, skeleton, tmp_path, capsys
    ):
        from repro.tools.cli import main

        path = tmp_path / name
        path.write_text(source)
        assert main(["lint", "--source", str(path), "--scales", "2..16"]) == 0
        assert "cross-scale lint over P in [2, 16]" in capsys.readouterr().out
        assert main([
            "lint", "--source", str(path), "--scales", "2..8", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        counts = doc["skeleton"] and doc["skeleton"]["counts_at"]
        assert counts == skeleton

    #: checks clean at the first witness; the guarded send targets rank
    #: ``nprocs`` only once P > 8, so the skeleton cannot instantiate at
    #: the last witness
    LATE_SEND = (
        "def main() { if (nprocs > 8) { if (rank == 0) "
        "{ send(dest = nprocs, tag = 1, bytes = 8); } } barrier(); }\n"
    )

    def test_scales_lint_cli_drops_a_skeleton_invalid_at_the_last_witness(
        self, tmp_path, capsys
    ):
        from repro.tools.cli import main

        path = tmp_path / "late.mm"
        path.write_text(self.LATE_SEND)
        assert main(["lint", "--source", str(path), "--scales", "2..16"]) == 1
        out = capsys.readouterr().out
        assert "dest=10 out of range for 10 processes" in out
        assert "scaling skeleton" not in out
        assert main([
            "lint", "--source", str(path), "--scales", "2..16", "--json",
        ]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["scales"][-1] == 10
        assert doc["skeleton_checked"] == [2, True]
        assert doc["skeleton"] is None
