"""The lint's class-batched streams are identical to the per-rank oracle.

``run_lint`` unrolls one representative per behavioural rank class and
fans its op stream out to the other members
(:func:`repro.simulator.classbatch.build_batched_streams`); singleton,
refused and failing classes still unroll rank by rank.  The oracle is the
same lint with batching patched off (:func:`tests.conftest.per_rank_lint`):
every rank through its own interpreter.  Both must produce byte-identical
reports, and ``LintReport.ranks_batched`` pins that the batched path
engages at all.
"""

import json
from unittest import mock

import pytest

from repro.analysis import lint, run_lint, run_lint_scales
from repro.api import Pipeline
from repro.apps import APPS, get_app
from repro.simulator.interp import Interpreter
from tests.conftest import GENERATORS, _compiled, per_rank_lint


def _outputs(report):
    """Everything a user sees of one concrete lint report."""
    return json.dumps(report.to_json_dict(), sort_keys=True), report.render()


def _assert_matches_oracle(program, psg, nprocs, params=None, **kwargs):
    """Lint batched and per-rank; return the batched report."""
    batched = run_lint(program, psg, nprocs, params, **kwargs)
    with per_rank_lint():
        oracle = run_lint(program, psg, nprocs, params, **kwargs)
    assert oracle.ranks_batched == 0
    assert _outputs(batched) == _outputs(oracle), batched.render()
    return batched


def _assert_scales_match_oracle(program, psg, scales, params=None, **kwargs):
    batched = run_lint_scales(program, psg, scales, params, **kwargs)
    with per_rank_lint():
        oracle = run_lint_scales(program, psg, scales, params, **kwargs)
    assert json.dumps(batched.to_json_dict(), sort_keys=True) == json.dumps(
        oracle.to_json_dict(), sort_keys=True
    )
    for p in batched.scales:
        assert batched.reports[p].render() == oracle.reports[p].render(), p
    return batched


@pytest.mark.parametrize("name", sorted(APPS))
def test_bundled_app_witnesses_match_oracle(name):
    app = get_app(name)
    report = _assert_scales_match_oracle(
        app.program, app.psg, "all", app.params, valid=app.nprocs_valid
    )
    assert sum(r.ranks_batched for r in report.reports.values()) > 0


#: Planted bugs on a ring/allreduce scaffold, one per kind, after the
#: ring loop (the shape the time-to-diagnosis benchmark lints).
_SCAFFOLD = """\
def exchange(it) {
    sendrecv(dest = (rank + 1) % nprocs, tag = 3, bytes = 64,
             src = (rank - 1 + nprocs) % nprocs);
}

def main() {
    compute(flops = 5000);
    for (var it = 0; it < 3; it = it + 1) {
        compute(flops = 20000);
        exchange(it);
        allreduce(bytes = 8);
    }
BUG
}
"""

PLANTED = {
    "unmatched-recv": """\
    if (rank == 0) {
        recv(src = 1, tag = 47);
    }""",
    "tag-mismatch": """\
    if (rank == 0) {
        recv(src = 1, tag = 47);
    }
    if (rank == 1) {
        send(dest = 0, tag = 48, bytes = 64);
    }""",
    "collective-divergence": """\
    if (rank == 0) {
        barrier();
    }""",
    "wildcard-race": """\
    if (rank == 0) {
        for (var i = 1; i < nprocs; i = i + 1) {
            recv(src = ANY, tag = 47);
        }
    } else {
        send(dest = 0, tag = 47, bytes = 64);
    }""",
}


def _planted(kind):
    source = _SCAFFOLD.replace("BUG", PLANTED[kind])
    return _compiled(source, kind.replace("-", "_"))


@pytest.mark.parametrize("kind", sorted(PLANTED))
def test_planted_bugs_match_oracle(kind):
    program, psg = _planted(kind)
    report = _assert_scales_match_oracle(program, psg, "3..64")
    for p, rep in report.reports.items():
        assert kind in {f.rule for f in rep.findings}, (p, rep.render())


@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_generator_draws_match_oracle(generator):
    batched = 0
    for seed in range(20):
        program, psg = _compiled(
            GENERATORS[generator](seed), f"{generator}{seed}"
        )
        for nprocs in (4, 7, 16):
            report = _assert_matches_oracle(program, psg, nprocs)
            batched += report.ranks_batched
    assert batched > 0, f"no {generator} draw lints class-batched"


@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_one_expr_cache_serves_every_scale(generator):
    """``run_lint_scales`` lints every witness through one compile cache;
    each report must equal a lint with a cache of its own."""
    for seed in range(10):
        program, psg = _compiled(
            GENERATORS[generator](seed), f"{generator}{seed}"
        )
        cache: dict = {}
        for nprocs in (16, 4, 7):
            shared = run_lint(program, psg, nprocs, expr_cache=cache)
            alone = run_lint(program, psg, nprocs)
            assert _outputs(shared) == _outputs(alone), (seed, nprocs)


class TestErrorsAndBudgets:
    """Runtime errors and budget truncation match the oracle: a class the
    builder refuses or cannot run keeps the per-rank path, and a batched
    stream over the op budget truncates like its per-rank twin."""

    def test_out_of_range_dest_is_an_exec_error(self):
        program, psg = _compiled(
            """\
def main() {
    if (rank < 4) {
        send(dest = rank + 3, tag = 1, bytes = 8);
    }
    if (rank >= 3) {
        recv(src = rank - 3, tag = 1);
    }
}
""",
            "oob",
        )
        report = _assert_matches_oracle(program, psg, 6)
        assert {f.rule for f in report.findings} == {"exec-error"}
        (finding,) = report.findings
        assert finding.ranks == (3,)

    def test_op_budget_truncates_batched_streams(self):
        program, psg = _compiled(_SCAFFOLD.replace("BUG", ""), "clean")
        report = _assert_matches_oracle(program, psg, 8, max_ops_per_rank=3)
        assert report.incomplete and report.findings == ()
        assert report.ranks_batched == 8  # one class: no per-rank stream

    def test_runaway_representative_stops_at_the_op_budget(self):
        """A class representative gets the op budget's worth of loop
        iterations, not ``max_iterations``: a runaway loop costs it about
        what it costs one per-rank unroll, then the class goes per rank."""
        program, psg = _compiled(
            """\
def main() {
    var i = 0;
    while (i >= 0) {
        send(dest = (rank + 1) % nprocs, tag = 1, bytes = 8);
        i = i + 1;
    }
}
""",
            "runaway",
        )
        budget, nprocs = 50, 4
        iterations = []
        count = Interpreter._count_iteration

        def counting(interp, stmt):
            iterations.append(interp.rank)
            count(interp, stmt)

        with mock.patch.object(Interpreter, "_count_iteration", counting):
            report = run_lint(program, psg, nprocs, max_ops_per_rank=budget)
        assert report.incomplete and report.ranks_batched == 0
        # every rank stops after budget + 1 sends, the representative
        # after budget + 1 iterations
        assert len(iterations) <= (nprocs + 1) * (budget + 1)
        _assert_matches_oracle(program, psg, nprocs, max_ops_per_rank=budget)

    def test_iteration_limit_truncates(self):
        program, psg = _planted("unmatched-recv")
        report = _assert_matches_oracle(program, psg, 8, max_iterations=2)
        assert report.incomplete
        assert report.ranks_batched == 0  # the representative hit it


class TestUnmatchedSendsOfBatchedMembers:
    """Members of one batched class share a single ``SendOp`` instance, so
    a tag-mismatch claim on one rank's leftover must not hide the others'
    ``unmatched-send``."""

    SOURCE = """\
def main() {
    if (rank == 0) {
        irecv(src = 1, tag = 7, req = r);
    } else {
        isend(dest = 0, tag = 5, bytes = 8, req = s);
        waitall();
    }
}
"""

    def test_other_members_still_report_unmatched_send(self):
        program, psg = _compiled(self.SOURCE, "claimed")
        report = _assert_matches_oracle(program, psg, 4)
        assert report.ranks_batched == 3
        by_rule = {f.rule: f.ranks for f in report.findings}
        assert by_rule["tag-mismatch"] == (0,), report.render()
        # rank 1's send is the one the tag-mismatch claims
        assert by_rule["unmatched-send"] == (2, 3), report.render()


class TestSharedListHygiene:
    """Request hygiene runs once per distinct op list; members that share
    one list must each get its findings."""

    SOURCE = """\
def main() {
    if (rank == 0) {
        for (var i = 1; i < nprocs; i = i + 1) {
            recv(src = i, tag = 1);
            recv(src = i, tag = 2);
        }
    } else {
        isend(dest = 0, tag = 1, bytes = 8, req = s);
        wait(req = s);
        wait(req = s);
        isend(dest = 0, tag = 2, bytes = 8, req = k);
    }
}
"""

    def test_every_member_gets_the_list_findings(self):
        program, psg = _compiled(self.SOURCE, "leaky")
        lists = {}
        build = lint._batched_streams

        def capturing(*args):
            lists.update(build(*args))
            return lists

        with mock.patch.object(lint, "_batched_streams", capturing):
            report = _assert_matches_oracle(program, psg, 5)
        # ranks 1-4 are one class whose members share one op list
        assert sorted(lists) == [1, 2, 3, 4]
        assert len({id(ops) for ops in lists.values()}) == 1
        by_rule = {f.rule: f.ranks for f in report.findings}
        assert by_rule == {
            "double-wait": (1, 2, 3, 4), "request-leak": (1, 2, 3, 4),
        }, report.render()


class TestEngagement:
    """``ranks_batched`` pins that the batched path engages (identity
    alone cannot see batching silently switch off)."""

    @pytest.mark.parametrize("name", sorted(APPS))
    def test_bundled_apps_batch_at_p16(self, name):
        report = Pipeline.for_app(get_app(name)).lint(16)
        # lu's first and last ranks are singleton classes
        assert report.ranks_batched == (14 if name == "lu" else 16)

    def test_cg_batches_at_p128(self):
        assert Pipeline.for_app(get_app("cg")).lint(128).ranks_batched == 128

    def test_wildcard_rank_class_stays_per_rank(self):
        program, psg = _planted("wildcard-race")
        report = run_lint(program, psg, 8)
        assert report.symmetry.class_of_rank(0).ranks == (0,)
        assert report.ranks_batched == 7
        assert "wildcard-race" in {f.rule for f in report.findings}

    def test_wildcard_in_a_multi_rank_class_stays_per_rank(self):
        program, psg = _compiled(
            """\
def main() {
    send(dest = (rank + 1) % nprocs, tag = 2, bytes = 8);
    recv(src = ANY, tag = 2);
}
""",
            "anyring",
        )
        report = _assert_matches_oracle(program, psg, 6)
        assert report.symmetry.n_classes == 1
        assert report.ranks_batched == 0
        assert "wildcard-recv" in {f.rule for f in report.findings}

    def test_counter_stays_out_of_the_output(self):
        report = Pipeline.for_app(get_app("ep")).lint(8)
        assert report.ranks_batched == 8
        assert "ranks_batched" not in json.dumps(report.to_json_dict())
        assert "batched" not in report.render()
