"""The lint's paired replay ends where the Mailbox replay ends.

When every rank's stream is class-batched, no receive names ``ANY`` and
some op is point-to-point, ``run_lint`` pairs every send row with its
receive row by one channel sort over the class templates' member columns
and replays without a mailbox (``lint._PairedReplay``).  It keeps that
replay only when every channel pairs one for one and every rank
finishes; otherwise the Mailbox replay runs from scratch.

Two oracles: the same lint with the pairing stepping aside
(:func:`tests.conftest.mailbox_replay`), and the per-rank lint
(:func:`tests.conftest.per_rank_lint`).  The reports must be
byte-identical, and an engaged paired replay must end in the state the
Mailbox replay reaches over the same streams.
``LintReport.mailbox_reason`` pins where the pairing engages.
"""

import json
from unittest import mock

import pytest

from repro.analysis import lint, run_lint
from repro.api import Pipeline
from repro.apps import APPS, get_app
from repro.minilang.errors import SourceLocation
from repro.simulator import ops
from tests.conftest import GENERATORS, _compiled, mailbox_replay, per_rank_lint
from tests.test_lint_replay import _end_state

#: the bundled apps without a point-to-point op: the Mailbox replay
#: runs for them at every scale
NO_P2P = ("ep", "ft", "is")


def _outputs(report):
    return json.dumps(report.to_json_dict(), sort_keys=True), report.render()


def _lint(program, psg, nprocs, params):
    """The report and every replay the lint ran, in order."""
    replays = []
    run = lint._Replay.run

    def capturing(replay):
        replays.append(replay)
        run(replay)

    with mock.patch.object(lint._Replay, "run", capturing):
        report = run_lint(program, psg, nprocs, params)
    return report, replays


def _assert_matches_oracles(program, psg, nprocs, params=None):
    """Lint three ways and compare; return the default lint's report."""
    report, replays = _lint(program, psg, nprocs, params)
    with mailbox_replay():
        mailbox, mailbox_replays = _lint(program, psg, nprocs, params)
    with per_rank_lint():
        per_rank = run_lint(program, psg, nprocs, params)
    assert _outputs(report) == _outputs(mailbox), report.render()
    assert _outputs(report) == _outputs(per_rank), report.render()
    assert all(type(r) is lint._Replay for r in mailbox_replays)
    if report.mailbox_reason is None:
        (paired,) = replays
        assert type(paired) is lint._PairedReplay
        assert mailbox.mailbox_reason == "pairing off by request"
        again = lint._Replay(paired.streams, paired.nprocs)
        again.run()
        assert _end_state(paired) == _end_state(again)
    elif replays:
        # a paired replay that left a rank blocked is dropped, and the
        # Mailbox replay runs from scratch
        assert type(replays[-1]) is lint._Replay
        assert len(replays) == 1 + (type(replays[0]) is lint._PairedReplay)
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


#: Fully batched programs with a finding.  The pairing steps aside for
#: the first four (a channel that does not pair, or a rank blocked at the
#: end); the paired replay reports the last three itself.
CORPUS = {
    "blocking_ring": ("""\
def main() {
    recv(src = (rank - 1 + nprocs) % nprocs, tag = 1);
    send(dest = (rank + 1) % nprocs, tag = 1, bytes = 8);
}
""", "rank 0 is blocked at the end", "unmatched-recv"),
    "tag_mismatch": ("""\
def main() {
    send(dest = (rank + 1) % nprocs, tag = 2, bytes = 8);
    recv(src = (rank - 1 + nprocs) % nprocs, tag = 3);
}
""", "channel (0 -> 1, tag 2) does not pair one for one", "tag-mismatch"),
    "unmatched_send": ("""\
def main() {
    sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 8,
             src = (rank - 1 + nprocs) % nprocs);
    send(dest = (rank + 1) % nprocs, tag = 4, bytes = 16);
    barrier();
}
""", "channel (0 -> 1, tag 4) does not pair one for one", "unmatched-send"),
    "collective_divergence": ("""\
def main() {
    sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 8,
             src = (rank - 1 + nprocs) % nprocs);
    if (rank % 2 == 0) {
        barrier();
    }
}
""", "rank 0 is blocked at the end", "collective-divergence"),
    "self_send_first": ("""\
def main() {
    send(dest = rank, tag = 5, bytes = 8);
    irecv(src = rank, tag = 5, req = r);
    wait(req = r);
}
""", None, "self-send-deadlock"),
    "isend_never_waited": ("""\
def main() {
    isend(dest = (rank + 1) % nprocs, tag = 6, bytes = 8, req = s);
    recv(src = (rank - 1 + nprocs) % nprocs, tag = 6);
    barrier();
}
""", None, "request-leak"),
    "root_mismatch": ("""\
def main() {
    sendrecv(dest = (rank + 1) % nprocs, tag = 7, bytes = 8,
             src = (rank - 1 + nprocs) % nprocs);
    bcast(root = rank % 2, bytes = 8);
}
""", None, "root-mismatch"),
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
    """``mailbox_reason`` pins where the paired replay engages (identity
    alone cannot see it silently switch off)."""

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
        assert report.mailbox_reason == "pairing off by request"

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

    def test_tags_past_int64(self):
        """A tag too large for int64 steps aside; the largest int64 tag
        pairs, through tags numbered densely."""
        ring = """\
def main() {
    sendrecv(dest = (rank + 1) % nprocs, tag = TAG, bytes = 8,
             src = (rank - 1 + nprocs) % nprocs);
    sendrecv(dest = (rank + 1) % nprocs, tag = 5, bytes = 8,
             src = (rank - 1 + nprocs) % nprocs);
}
"""
        for tag, reason in (
            (1 << 63, "a point-to-point argument does not fit int64"),
            ((1 << 63) - 1, None),
        ):
            program, psg = _compiled(ring.replace("TAG", str(tag)), "big_tag")
            report = _assert_matches_oracles(program, psg, 4)
            assert report.mailbox_reason == reason

    def test_wildcard_columns_refuse(self):
        """Class batching keeps wildcard receives per rank, so no template
        holds one; the pairing checks anyway."""
        where = SourceLocation(filename="w.mm", line=3)
        for src, tag in ((ops.ANY, 1), (1, ops.ANY)):
            recv = ops.RecvOp(vid=0, location=where, src=src, tag=tag)
            with pytest.raises(lint._Wildcard, match="w.mm:3"):
                lint._recv_columns(recv)
