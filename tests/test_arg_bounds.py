"""Tags and byte counts are bounded where the program passes them.

The trace tables and the lockstep pairing hold tags and byte counts as
int64, so a tag or byte count of 2**63 or more, and a byte count that is
not finite, is an ``MpiUsageError`` at the statement that passes it.
One check does this (``repro.simulator.interp.check_tag`` and
``check_bytes``), called by the interpreter's argument validators and by
the comm graph's instantiation.  The lint then reports ``exec-error``,
and a run raises ``MpiUsageError`` with no optimizer stepping aside.
"""

import re

import pytest

from repro.analysis import build_comm_graph, extract_concrete
from repro.api import Pipeline
from repro.simulator.engine import Engine
from repro.simulator.errors import MpiUsageError
from tests.conftest import _compiled

RING = """\
def main() {
    sendrecv(dest = (rank + 1) % nprocs, tag = TAG, bytes = BYTES,
             src = (rank - 1 + nprocs) % nprocs);
    barrier();
}
"""

#: case -> (tag, bytes, the error's text after the location)
CASES = {
    "tag_2_63": (str(1 << 63), "8", f"tag must be below 2**63, got {1 << 63}"),
    "bytes_2_63": ("1", str(1 << 63), f"bytes must be below 2**63, got {1 << 63}"),
    "bytes_inf": ("1", "1e308 * 10", "bytes must be finite, got inf"),
    "bytes_nan": (
        "1", "(1e308 * 10) - (1e308 * 10)", "bytes must be finite, got nan",
    ),
}


def _source(tag: str, nbytes: str) -> str:
    return RING.replace("TAG", tag).replace("BYTES", nbytes)


@pytest.fixture
def no_step_aside(monkeypatch):
    """Fail the test when an engine optimizer raises and steps aside."""

    def step_aside(self, component, exc):
        raise AssertionError(f"{component} raised {type(exc).__name__}: {exc}")

    monkeypatch.setattr(Engine, "_step_aside", step_aside)


@pytest.mark.parametrize("case", sorted(CASES))
def test_lint_reports_exec_error(case):
    tag, nbytes, message = CASES[case]
    report = Pipeline(_source(tag, nbytes), "bounds.mm").lint(4)
    assert [f.rule for f in report.findings] == ["exec-error"]
    assert report.findings[0].message == f"bounds.mm:2: {message}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_raises_usage_error(case, no_step_aside):
    tag, nbytes, message = CASES[case]
    with pytest.raises(MpiUsageError, match=re.escape(f"bounds.mm:2: {message}")):
        Pipeline(_source(tag, nbytes), "bounds.mm").run([4])


@pytest.mark.parametrize("case", sorted(CASES))
def test_comm_graph_raises_what_the_interpreter_raises(case):
    tag, nbytes, message = CASES[case]
    program, psg = _compiled(_source(tag, nbytes), "bounds")
    graph = build_comm_graph(program)
    assert graph.exact, graph.reason
    with pytest.raises(MpiUsageError) as symbolic:
        graph.instantiate(4)
    with pytest.raises(MpiUsageError) as concrete:
        extract_concrete(program, psg, 4)
    assert str(symbolic.value) == str(concrete.value) == (
        f"bounds.mm:2: {message}"
    )


def test_largest_int64_tag_runs(no_step_aside):
    source = _source(str((1 << 63) - 1), "8")
    pipeline = Pipeline(source, "bounds.mm")
    report = pipeline.lint(4)
    assert report.ok and report.mailbox_reason is None, report.render()
    pipeline.run([4])


def test_rank_varying_nan_bytes_refuse_the_class(no_step_aside):
    """A byte column holding NaN makes its class run per rank, whose
    interpreter rejects it; the lint does not crash."""
    source = _source("1", "rank * 1e308 * 10 - rank * 1e308 * 10")
    report = Pipeline(source, "bounds.mm").lint(4)
    assert {f.rule for f in report.findings} == {"exec-error"}
    with pytest.raises(MpiUsageError, match="bytes must be finite, got nan"):
        Pipeline(source, "bounds.mm").run([4])

