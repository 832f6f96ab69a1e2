"""The lint's matching replay skips only visits that cannot progress.

``lint._Replay.run`` makes round-robin passes over the ranks but visits
only the ranks something woke since their last visit: a match that
satisfies a blocking receive, an irecv match that lets a wait pass, a
collective release.  The oracle here is plain round robin: every rank on
every pass, until a pass changes no rank's ``(state, pos)``.  A missed
wake leaves a rank stranded that the oracle would still move, so both
the replay's end state and ``run_lint``'s output must equal the
oracle's.  (``per_rank_lint()`` cannot show this: both of its sides run
the same replay.)
"""

import json
from unittest import mock

import pytest

from repro.analysis import lint, run_lint
from repro.apps import APPS, get_app
from tests.conftest import GENERATORS, _compiled
from tests.test_lint_batching import PLANTED, _planted
from tests import test_matchorder as matchorder


def _round_robin(replay):
    """Visit every rank on every pass until a pass changes nothing."""
    while True:
        before = (list(replay.state), list(replay.pos))
        for rank in range(replay.nprocs):
            replay._advance(rank)
        if (replay.state, replay.pos) == before:
            return


def _end_state(replay):
    """Everything the finding code reads of a finished replay.  Ops are
    compared by identity: both replays run the same stream objects."""
    return {
        "state": list(replay.state),
        "pos": list(replay.pos),
        "open_irecvs": [list(map(id, d.values())) for d in replay.open_irecvs],
        "leftovers": [
            (src, id(op), dest) for src, op, dest in replay.leftover_messages()
        ],
        "coll_findings": [
            (rule, instance, [(r, id(op)) for r, op in arrivals.items()])
            for rule, instance, arrivals in replay.coll_findings
        ],
        "self_send_hits": [(r, id(op)) for r, op in replay.self_send_hits],
        "saw_wildcard": replay.saw_wildcard,
    }


def _outputs(report):
    return json.dumps(report.to_json_dict(), sort_keys=True), report.render()


def _assert_matches_round_robin(program, psg, nprocs, params=None):
    """Lint with the woken-only replay and with the round-robin oracle;
    return the woken-only replay (None when the lint replayed nothing)."""
    replays = []
    run = lint._Replay.run

    def capturing(replay):
        replays.append(replay)
        run(replay)

    with mock.patch.object(lint._Replay, "run", capturing):
        report = run_lint(program, psg, nprocs, params)
    with mock.patch.object(lint._Replay, "run", _round_robin):
        oracle = run_lint(program, psg, nprocs, params)
    assert _outputs(report) == _outputs(oracle), report.render()
    if not replays:
        return None  # an exec error or truncation stopped the lint first
    (replay,) = replays
    again = lint._Replay(replay.streams, replay.nprocs)
    _round_robin(again)
    assert _end_state(replay) == _end_state(again)
    return replay


@pytest.mark.parametrize("name", sorted(APPS))
@pytest.mark.parametrize("nprocs", [4, 9, 16])
def test_bundled_apps(name, nprocs):
    app = get_app(name)
    _assert_matches_round_robin(app.program, app.psg, nprocs, app.params)


@pytest.mark.parametrize("kind", sorted(PLANTED))
@pytest.mark.parametrize("nprocs", [3, 4, 9, 16])
def test_planted_bugs(kind, nprocs):
    program, psg = _planted(kind)
    replay = _assert_matches_round_robin(program, psg, nprocs)
    assert replay is not None


#: The match-order wildcard corpus, adversarial races included.
_ADVERSARIAL = {
    "ring": matchorder.RING,
    "fan_in": matchorder.FAN_IN,
    "two_phase": matchorder.TWO_PHASE,
    "equal_time": matchorder.TestAdversarialSoundness.EQUAL_TIME,
    "threshold": matchorder.TestAdversarialSoundness.THRESHOLD,
    "data_dependent": matchorder.TestAdversarialSoundness.DATA_DEPENDENT,
}


@pytest.mark.parametrize("name", sorted(_ADVERSARIAL))
@pytest.mark.parametrize("nprocs", [3, 4, 9, 16, 41])
def test_wildcard_race_corpus(name, nprocs):
    program, psg = _compiled(_ADVERSARIAL[name], name)
    replay = _assert_matches_round_robin(program, psg, nprocs)
    assert replay is not None and replay.saw_wildcard


@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_generator_draws(generator):
    for seed in range(20):
        program, psg = _compiled(
            GENERATORS[generator](seed), f"{generator}{seed}"
        )
        for nprocs in (4, 7, 16):
            _assert_matches_round_robin(program, psg, nprocs)


#: Each wake event, and the ways a woken rank may still not progress.
_WAKES = {
    # a wait passes on its own request while another irecv stays open;
    # the waitall needs both
    "wait_then_waitall": """\
def main() {
    if (rank == 0) {
        irecv(src = 1, tag = 1, req = a);
        irecv(src = 2, tag = 2, req = b);
        wait(req = a);
        waitall();
    } else {
        if (rank < 3) {
            barrier();
            send(dest = 0, tag = rank, bytes = 8);
        } else {
            barrier();
        }
    }
    if (rank == 0) {
        barrier();
    }
}
""",
    # a rank's own irecv matches its own send while it runs
    "self_irecv": """\
def main() {
    irecv(src = rank, tag = 4, req = r);
    send(dest = rank, tag = 4, bytes = 8);
    wait(req = r);
    allreduce(bytes = 8);
}
""",
    # a chain of blocking receives against the visit order wakes one
    # lower rank per pass; the highest rank releases a collective that
    # lower ranks wait at
    "chain_and_release": """\
def main() {
    if (rank < nprocs - 1) {
        recv(src = rank + 1, tag = 6);
    }
    if (rank > 0) {
        send(dest = rank - 1, tag = 6, bytes = 8);
    }
    barrier();
    if (rank == nprocs - 1) {
        send(dest = 0, tag = 7, bytes = 8);
    }
    if (rank == 0) {
        recv(src = nprocs - 1, tag = 7);
    }
}
""",
    # a blocking send to yourself, and a wait that can never pass
    "stuck": """\
def main() {
    send(dest = rank, tag = 8, bytes = 8);
    irecv(src = (rank + 1) % nprocs, tag = 9, req = q);
    wait(req = q);
}
""",
}


@pytest.mark.parametrize("name", sorted(_WAKES))
@pytest.mark.parametrize("nprocs", [3, 4, 7])
def test_wake_corner_cases(name, nprocs):
    program, psg = _compiled(_WAKES[name], name)
    assert _assert_matches_round_robin(program, psg, nprocs) is not None


#: Rank 1 waits on rank 0, which waits on rank 3.  A rank woken by a
#: lower rank runs later in the same pass, so rank 1's send reaches rank
#: 3's wildcard before rank 2's; deferring it a pass flips the match and
#: starves the receive from rank 1.
SAME_PASS_WAKE = """\
def main() {
    if (rank == 0) {
        recv(src = 3, tag = 1);
        send(dest = 1, tag = 2, bytes = 8);
    }
    if (rank == 1) {
        recv(src = 0, tag = 2);
        send(dest = 3, tag = 5, bytes = 8);
    }
    if (rank == 2) {
        recv(src = 3, tag = 3);
        send(dest = 3, tag = 5, bytes = 8);
    }
    if (rank == 3) {
        send(dest = 0, tag = 1, bytes = 8);
        send(dest = 2, tag = 3, bytes = 8);
        recv(src = ANY, tag = 5);
        recv(src = 1, tag = 5);
    }
}
"""


@pytest.mark.parametrize("nprocs", [4, 7])
def test_woken_rank_runs_in_the_same_pass(nprocs):
    program, psg = _compiled(SAME_PASS_WAKE, "same_pass")
    replay = _assert_matches_round_robin(program, psg, nprocs)
    assert replay.state[3] != lint._DONE  # the wildcard took rank 1's send
    assert [src for src, _, _ in replay.leftover_messages()] == [2]


def test_no_op_visits_are_skipped():
    """On a chain that unblocks one rank per pass, round robin visits
    every rank on every pass; the woken-only replay visits about one."""
    program, psg = _compiled(_WAKES["chain_and_release"], "chain")
    visits = {"run": 0, "oracle": 0}
    advance = lint._Replay._advance
    side = "run"

    def counting(replay, rank):
        visits[side] += 1
        advance(replay, rank)

    with mock.patch.object(lint._Replay, "_advance", counting):
        run_lint(program, psg, 16)
        side = "oracle"
        with mock.patch.object(lint._Replay, "run", _round_robin):
            run_lint(program, psg, 16)
    assert 0 < 4 * visits["run"] < visits["oracle"], visits
