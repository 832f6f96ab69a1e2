"""Detection-report regression gate against a committed report.

``tests/data/imbalanced_report_pr2.json`` carries the canonical
DetectionReport of the IMBALANCED_SOURCE scenario, captured from the
*pre-TraceBuffer* recording layer; its sha256 is pinned below, so the
fixture itself cannot drift unnoticed.  This test re-runs the scenario
through the current pipeline and compares the full report — any drift in the ground-truth recording, sampling, or detection layers
shows up as a diff here, not as a silent change in verdicts.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api.config import AnalysisConfig
from repro.api.pipeline import Pipeline
from tests.conftest import IMBALANCED_SOURCE

REPORT = Path(__file__).resolve().parent / "data" / "imbalanced_report_pr2.json"
REPORT_SHA256 = "776b56a6b84a329c6a55f7ddb6361b8406424dc60d6437aacd1cc931fc5332cb"


def _approx_equal(a, b, path=""):
    """Deep compare, floats to 1e-9 relative (cross-platform safe)."""
    if isinstance(a, float) or isinstance(b, float):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12), f"at {path}"
    elif isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), f"at {path}"
        for k in a:
            _approx_equal(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), f"at {path}"
        for i, (x, y) in enumerate(zip(a, b)):
            _approx_equal(x, y, f"{path}[{i}]")
    else:
        assert a == b, f"at {path}: {a!r} != {b!r}"


def test_report_matches_committed_pre_trace_buffer_baseline():
    expected = json.loads(REPORT.read_text())
    assert hashlib.sha256(json.dumps(expected).encode()).hexdigest() == REPORT_SHA256
    pipe = Pipeline(
        source=IMBALANCED_SOURCE,
        filename="imbalanced.mm",
        config=AnalysisConfig(seed=0),
    )
    art = pipe.run([4, 8, 16])
    doc = art.report.to_json_dict()
    doc["detection_seconds"] = 0.0  # wall-clock, not part of the contract
    _approx_equal(doc, expected)
