"""The benchmark-regression gate's own contract.

``benchmarks/check_regression.py`` reads one baseline file.  A missing
file must fail the gate, not record a fresh one; its rows must be exactly
the measured workloads, so none sits ungated on either side; and its
metrics snapshot's work counts must match the engine exactly.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def baseline(gate):
    return json.loads(gate.BASELINE_PATH.read_text())


def _no_measuring(*args, **kwargs):
    raise AssertionError("the gate measured before its baseline checks")


def test_missing_baseline_fails_without_measuring(gate, monkeypatch, tmp_path):
    missing = tmp_path / "baseline.json"
    monkeypatch.setattr(gate, "BASELINE_PATH", missing)
    monkeypatch.setattr(gate, "build_workloads", _no_measuring)
    monkeypatch.setattr(gate, "measure", _no_measuring)
    assert gate.main([]) == 1
    assert not missing.exists()


def test_baseline_rows_are_the_workloads_and_work_counts_match(gate, baseline):
    workloads = gate.build_workloads()
    assert set(workloads) == set(baseline["benchmarks"])
    assert gate.check_baseline_rows(baseline, workloads)
    assert gate.check_work_counts(baseline)


def test_row_set_mismatch_fails_before_measuring(gate, baseline, monkeypatch):
    rows = dict.fromkeys(baseline["benchmarks"])
    assert gate.check_baseline_rows(baseline, rows)
    extra = {**rows, "unbaselined_row": None}
    assert not gate.check_baseline_rows(baseline, extra)
    del rows["ring_p1024"]
    assert not gate.check_baseline_rows(baseline, rows)
    monkeypatch.setattr(gate, "build_workloads", lambda: rows)
    monkeypatch.setattr(gate, "measure", _no_measuring)
    assert gate.main([]) == 1


def test_work_count_drift_fails(gate, baseline):
    baseline["metrics"]["counters"]["engine.trace_events"] += 1
    assert not gate.check_work_counts(baseline)
    del baseline["metrics"]
    assert not gate.check_work_counts(baseline)
