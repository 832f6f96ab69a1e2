"""The lint trusts the lockstep proof exactly where the Mailbox replay
would complete.

When every rank's stream is class-batched and complete and some op is
point-to-point, ``run_lint`` asks the engine's lockstep proof
(``repro.simulator.lockstep.schedule``) on the class templates.  A
proven schedule with no message a rank sends to itself stands for a
replay that completes with no finding, so the lint runs no replay;
otherwise the Mailbox replay runs and ``LintReport.mailbox_reason`` says
why.

Two oracles: the same lint with the proof refusing
(:func:`tests.conftest.mailbox_replay`), and the per-rank lint
(:func:`tests.conftest.per_rank_lint`).  The reports must be
byte-identical, and over the streams of every proven lint the Mailbox
replay must end in the completed state the lint assumes.
``LintReport.mailbox_reason`` pins where the proof engages.
"""

import json
from unittest import mock

import pytest

from repro.analysis import lint, run_lint, scaleparam
from repro.api import Pipeline
from repro.apps import APPS, get_app
from repro.minilang.errors import SourceLocation
from repro.simulator import classbatch, lockstep, ops
from repro.simulator.costmodel import CostModel
from tests.conftest import GENERATORS, _compiled, mailbox_replay, per_rank_lint
from tests.test_lint_replay import _end_state

#: the bundled apps without a point-to-point op: the Mailbox replay
#: runs for them at every scale
NO_P2P = ("ep", "ft", "is")


def _outputs(report):
    return json.dumps(report.to_json_dict(), sort_keys=True), report.render()


def _completed(streams):
    """The :func:`_end_state` of a replay in which every rank finished
    with nothing left: what a proven schedule stands for."""
    return {
        "state": [lint._DONE] * len(streams),
        "pos": [len(stream.events) for stream in streams],
        "open_irecvs": [[] for _ in streams],
        "leftovers": [],
        "coll_findings": [],
        "self_send_hits": [],
        "saw_wildcard": False,
    }


def _lints(run):
    """Call ``run()`` and return its result, every lint's ``(report,
    streams)`` and how many replays ran."""
    lints, replays = [], []
    lint_at, replay_run = lint._lint_at, lint._Replay.run

    def capturing_lint(*args, **kwargs):
        lints.append(lint_at(*args, **kwargs))
        return lints[-1]

    def counting_run(replay):
        replays.append(replay)
        replay_run(replay)

    with mock.patch.object(lint, "_lint_at", capturing_lint), \
            mock.patch.object(scaleparam, "_lint_at", capturing_lint), \
            mock.patch.object(lint._Replay, "run", counting_run):
        result = run()
    return result, lints, len(replays)


def _assert_proofs_hold(lints):
    """Over the streams of every proven lint, the Mailbox replay ends in
    the completed state."""
    for report, streams in lints:
        if report.mailbox_reason is None:
            replay = lint._Replay(streams, report.nprocs)
            replay.run()
            assert _end_state(replay) == _completed(streams)


def _assert_matches_oracles(program, psg, nprocs, params=None):
    """Lint three ways and compare; return the default lint's report."""
    report, lints, replays = _lints(
        lambda: run_lint(program, psg, nprocs, params)
    )
    with mailbox_replay():
        mailbox = run_lint(program, psg, nprocs, params)
    with per_rank_lint():
        per_rank = run_lint(program, psg, nprocs, params)
    assert _outputs(report) == _outputs(mailbox), report.render()
    assert _outputs(report) == _outputs(per_rank), report.render()
    if report.mailbox_reason is None:
        assert replays == 0
        assert mailbox.mailbox_reason == "schedule off by request"
    _assert_proofs_hold(lints)
    return report


def _app_scales():
    return [
        (name, nprocs)
        for name in sorted(APPS)
        for nprocs in (4, 8, 9, 16, 64, 128)
        if get_app(name).nprocs_valid(nprocs)
    ]


@pytest.mark.parametrize(("name", "nprocs"), _app_scales())
def test_bundled_apps(name, nprocs):
    app = get_app(name)
    report = _assert_matches_oracles(app.program, app.psg, nprocs, app.params)
    if name in NO_P2P:
        assert report.mailbox_reason == "no point-to-point op"


@pytest.mark.parametrize("name", sorted(APPS))
def test_cross_scale_witnesses(name):
    """Every witness of ``lint --scales all`` that the proof engages
    stands for a completed replay, and ``--scales all`` prints what it
    prints with the proof refusing."""
    spec = get_app(name)

    def lint_all():
        return Pipeline.for_app(spec).lint(
            scales="all", valid=spec.nprocs_valid
        )

    result, lints, _ = _lints(lint_all)
    assert lints
    _assert_proofs_hold(lints)
    with mailbox_replay():
        mailbox = lint_all()
    assert result.render() == mailbox.render()
    assert json.dumps(result.to_json_dict(), sort_keys=True) == json.dumps(
        mailbox.to_json_dict(), sort_keys=True
    )


#: Fully batched programs with a finding, and the proof's refusal: the
#: Mailbox replay reports each of them.
CORPUS = {
    "blocking_ring": ("""\
def main() {
    recv(src = (rank - 1 + nprocs) % nprocs, tag = 1);
    send(dest = (rank + 1) % nprocs, tag = 1, bytes = 8);
}
""", "blocking_ring.mm:2: receive completes before its paired send at "
     "blocking_ring.mm:3", "unmatched-recv"),
    "tag_mismatch": ("""\
def main() {
    send(dest = (rank + 1) % nprocs, tag = 2, bytes = 8);
    recv(src = (rank - 1 + nprocs) % nprocs, tag = 3);
}
""", "tag_mismatch.mm:2: sends and receives do not pair up channel by "
     "channel", "tag-mismatch"),
    "unmatched_send": ("""\
def main() {
    sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 8,
             src = (rank - 1 + nprocs) % nprocs);
    send(dest = (rank + 1) % nprocs, tag = 4, bytes = 16);
    barrier();
}
""", "unmatched_send.mm:2: sends and receives do not pair up channel by "
     "channel", "unmatched-send"),
    "collective_divergence": ("""\
def main() {
    sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 8,
             src = (rank - 1 + nprocs) % nprocs);
    if (rank % 2 == 0) {
        barrier();
    }
}
""", "collective_divergence.mm:5: collective #0 is not reached by every "
     "rank class", "collective-divergence"),
    "self_send_first": ("""\
def main() {
    send(dest = rank, tag = 5, bytes = 8);
    irecv(src = rank, tag = 5, req = r);
    wait(req = r);
}
""", "rank 0 sends to itself", "self-send-deadlock"),
    "isend_never_waited": ("""\
def main() {
    isend(dest = (rank + 1) % nprocs, tag = 6, bytes = 8, req = s);
    recv(src = (rank - 1 + nprocs) % nprocs, tag = 6);
    barrier();
}
""", "isend_never_waited.mm:2: request 's' is never waited on",
     "request-leak"),
    "root_mismatch": ("""\
def main() {
    sendrecv(dest = (rank + 1) % nprocs, tag = 7, bytes = 8,
             src = (rank - 1 + nprocs) % nprocs);
    bcast(root = rank % 2, bytes = 8);
}
""", "root_mismatch.mm:4: root varies by rank", "root-mismatch"),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("nprocs", [4, 6])
def test_finding_corpus(name, nprocs):
    source, reason, rule = CORPUS[name]
    program, psg = _compiled(source, name)
    report = _assert_matches_oracles(program, psg, nprocs)
    assert report.ranks_batched == nprocs
    assert report.mailbox_reason == reason
    assert rule in {f.rule for f in report.findings}, report.render()


@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_generator_draws(generator):
    for seed in range(6):
        program, psg = _compiled(
            GENERATORS[generator](seed), f"{generator}{seed}"
        )
        for nprocs in (4, 8):
            _assert_matches_oracles(program, psg, nprocs)


class TestEngagement:
    """``mailbox_reason`` pins where the proof engages (identity alone
    cannot see it silently switch off)."""

    @pytest.mark.parametrize("name", sorted(APPS))
    def test_bundled_apps_at_p16(self, name):
        report = Pipeline.for_app(get_app(name)).lint(16)
        if name == "lu":
            # lu's first and last ranks are singleton classes
            assert report.mailbox_reason == "not every rank is class-batched"
        elif name in NO_P2P:
            assert report.mailbox_reason == "no point-to-point op"
        else:
            assert report.mailbox_reason is None

    def test_cg_at_p128(self):
        report = Pipeline.for_app(get_app("cg")).lint(128)
        assert report.ranks_batched == 128
        assert report.mailbox_reason is None

    @pytest.mark.parametrize("name", ["ep", "ft"])
    def test_never_ep_or_ft(self, name):
        spec = get_app(name)
        result = Pipeline.for_app(spec).lint(
            scales="all", valid=spec.nprocs_valid
        )
        assert result.reports
        for report in result.reports.values():
            assert report.mailbox_reason == "no point-to-point op"

    def test_mailbox_replay_steps_the_pairing_aside(self):
        with mailbox_replay():
            report = Pipeline.for_app(get_app("cg")).lint(16)
        assert report.mailbox_reason == "schedule off by request"

    def test_the_lint_never_costs(self, monkeypatch):
        """The proof costs no op: the cg@128 lint engages with every cost
        query raising."""

        def no_cost(*args, **kwargs):
            raise AssertionError("the lint costed an op")

        monkeypatch.setattr(CostModel, "compute_cost_columns", no_cost)
        monkeypatch.setattr(classbatch, "transfer_column", no_cost)
        monkeypatch.setattr(lockstep, "transfer_column", no_cost)
        report = Pipeline.for_app(get_app("cg")).lint(128)
        assert report.mailbox_reason is None

    def test_wildcard_receive_steps_aside(self):
        program, psg = _compiled("""\
def main() {
    sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 8,
             src = (rank - 1 + nprocs) % nprocs);
    if (rank == 0) {
        for (var i = 1; i < nprocs; i = i + 1) {
            recv(src = ANY, tag = 2);
        }
    } else {
        send(dest = 0, tag = 2, bytes = 8);
    }
}
""", "fan_in")
        report = _assert_matches_oracles(program, psg, 4)
        # rank 0 holds the wildcard, so it runs its own interpreter
        assert report.mailbox_reason == "not every rank is class-batched"

    def test_self_message_steps_aside(self):
        """A message a rank sends itself steps aside even where the proof
        holds: the replay decides whether its receive was posted first."""
        program, psg = _compiled("""\
def main() {
    irecv(src = rank, tag = 5, req = r);
    send(dest = rank, tag = 5, bytes = 8);
    wait(req = r);
}
""", "self_posted")
        report = _assert_matches_oracles(program, psg, 4)
        assert report.mailbox_reason == "rank 0 sends to itself"
        assert report.ok, report.render()

    def test_tags_past_int64(self):
        """A tag too large for int64 is an execution error, so no replay
        runs; the largest int64 tag pairs, through tags numbered
        densely."""
        ring = """\
def main() {
    sendrecv(dest = (rank + 1) % nprocs, tag = TAG, bytes = 8,
             src = (rank - 1 + nprocs) % nprocs);
    sendrecv(dest = (rank + 1) % nprocs, tag = 5, bytes = 8,
             src = (rank - 1 + nprocs) % nprocs);
}
"""
        for tag, reason in ((1 << 63, "no replay ran"), ((1 << 63) - 1, None)):
            program, psg = _compiled(ring.replace("TAG", str(tag)), "big_tag")
            report = _assert_matches_oracles(program, psg, 4)
            assert report.mailbox_reason == reason
        assert [f.rule for f in report.findings] == []

    def test_wildcard_columns_refuse(self):
        """Class batching keeps wildcard receives per rank, so no template
        holds one; the proof checks anyway."""
        where = SourceLocation(filename="w.mm", line=3)
        for src, tag, name in ((ops.ANY, 1, "src"), (1, ops.ANY, "tag")):
            recv = ops.RecvOp(vid=0, location=where, src=src, tag=tag)
            with pytest.raises(
                lockstep.Refusal, match=f"w.mm:3: receive from ANY {name}",
            ):
                lockstep.schedule([([0, 1], [recv], [])], 2)
