"""The lint classifies each batched class once.

A batched class's members run patched copies of one template, so they
share its op types: ``_collect_streams`` classifies the representative's
list and gives every other member its own ops at the same positions,
and request hygiene runs once per class with each member's own ops.  The
report must stay byte-identical to the per-rank oracle
(:func:`tests.conftest.per_rank_lint`).
"""

import json
from unittest import mock

from repro.analysis import lint, run_lint
from tests.conftest import _compiled, per_rank_lint

#: One class whose send partners vary by rank (patched positions), with a
#: double wait and a request that is never waited on.
PATCHED_MISUSE = """\
def main() {
    compute(flops = 1000 * (rank + 1));
    isend(dest = (rank + 1) % nprocs, tag = 1, bytes = 8, req = s);
    recv(src = (rank - 1 + nprocs) % nprocs, tag = 1);
    wait(req = s);
    wait(req = s);
    irecv(src = (rank + 2) % nprocs, tag = 2, req = k);
    send(dest = (rank - 2 + nprocs) % nprocs, tag = 2, bytes = 16);
}
"""


def _lint_counting_unrolls(program, psg, nprocs):
    unrolled = []
    unroll = lint._unroll

    def counting(stream, source, max_ops, positions=None):
        unrolled.append(stream.rank)
        unroll(stream, source, max_ops, positions)

    with mock.patch.object(lint, "_unroll", counting):
        report = run_lint(program, psg, nprocs)
    return report, unrolled


def test_one_classification_per_class_and_oracle_output():
    program, psg = _compiled(PATCHED_MISUSE, "patched_misuse")
    report, unrolled = _lint_counting_unrolls(program, psg, 6)
    with per_rank_lint():
        oracle, oracle_unrolled = _lint_counting_unrolls(program, psg, 6)
    assert report.ranks_batched == 6
    assert unrolled == [0]
    assert oracle_unrolled == list(range(6))
    assert json.dumps(report.to_json_dict(), sort_keys=True) == json.dumps(
        oracle.to_json_dict(), sort_keys=True
    )
    assert report.render() == oracle.render()
    by_rule = {f.rule: f.ranks for f in report.findings}
    assert by_rule["double-wait"] == tuple(range(6))
    assert by_rule["request-leak"] == tuple(range(6))
