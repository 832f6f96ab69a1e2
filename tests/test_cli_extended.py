"""Tests for the extended CLI commands (simulate / compare / export / timeline)."""

import json
import math

import pytest

from repro.tools.cli import main


class TestCompare:
    def test_compare_prints_three_tools(self, capsys):
        assert main(["compare", "--app", "ep", "--nprocs", "8"]) == 0
        out = capsys.readouterr().out
        assert "Scalasca-like tracer" in out
        assert "HPCToolkit-like profiler" in out
        assert "ScalAna" in out
        assert "wait-state classification" in out


class TestSimulate:
    def test_simulate_subcommand(self, capsys):
        assert main(["simulate", "--app", "cg", "--nprocs", "8"]) == 0
        out = capsys.readouterr().out
        assert "nprocs      8" in out
        assert "events" in out and "MPI calls" in out


class TestExport:
    def test_export_psg_only(self, tmp_path, capsys):
        out_dir = tmp_path / "graphs"
        assert main(["export", "--app", "cg", "--out", str(out_dir)]) == 0
        assert (out_dir / "psg.dot").exists()
        assert (out_dir / "psg.graphml").exists()
        dot = (out_dir / "psg.dot").read_text()
        assert dot.startswith("digraph PSG")

    def test_export_with_ppg(self, tmp_path):
        out_dir = tmp_path / "graphs"
        assert main([
            "export", "--app", "ep", "--out", str(out_dir), "--nprocs", "4",
        ]) == 0
        assert (out_dir / "ppg_p4.dot").exists()


class TestTimeline:
    def test_timeline_renders(self, capsys):
        assert main([
            "timeline", "--app", "ep", "--nprocs", "4", "--width", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "rank   0 |" in out
        assert "rank   3 |" in out

    def test_timeline_with_source_file(self, tmp_path, capsys):
        src = tmp_path / "t.mm"
        src.write_text(
            "def main() { compute(flops = 1000000 * (rank + 1)); barrier(); }"
        )
        assert main([
            "timeline", "--source", str(src), "--nprocs", "3", "--width", "40",
        ]) == 0
        out = capsys.readouterr().out
        assert "w" in out  # early ranks wait at the barrier

    def test_timeline_wait_summary(self, capsys):
        assert main([
            "timeline", "--app", "ep", "--nprocs", "4", "--width", "60",
            "--wait-summary",
        ]) == 0
        out = capsys.readouterr().out
        assert "per-rank time split" in out
        assert "(wait" in out


class TestJsonNanSafety:
    """The --json surface must always emit strictly parseable JSON, even
    when ground truth carries NaN sentinels (PR-2 satellite fix)."""

    #: rank 0's irecv matches rank 1's send but is never waited on, so the
    #: matched P2PRecord keeps completion = NaN through the whole pipeline.
    UNWAITED_IRECV = """\
def main() {
    for (var i = 0; i < 12; i = i + 1) {
        compute(flops = 1000000 / nprocs);
        if (rank == 0) {
            irecv(src = 1, tag = 9, req = r);
        }
        if (rank == 1) {
            send(dest = 0, tag = 9, bytes = 64);
        }
        allreduce(bytes = 8);
    }
}
"""

    def test_cli_json_round_trip_with_nan_ground_truth(self, tmp_path, capsys):
        src = tmp_path / "unwaited.mm"
        src.write_text(self.UNWAITED_IRECV)
        assert main([
            "run", "--source", str(src), "--scales", "2,4,8", "--json",
        ]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)  # must be strictly valid JSON
        assert doc["format"] == "scalana-report-v1"
        assert "NaN" not in out and "Infinity" not in out

        def no_nan(obj):
            if isinstance(obj, float):
                assert math.isfinite(obj)
            elif isinstance(obj, dict):
                for v in obj.values():
                    no_nan(v)
            elif isinstance(obj, list):
                for v in obj:
                    no_nan(v)

        no_nan(doc)

    def test_report_with_nan_serializes_as_null(self):
        from repro.detection.report import DetectionReport
        from repro.tools.export import report_to_json

        report = DetectionReport(
            nprocs=4, scales=(4, 8), detection_seconds=float("nan")
        )
        text = report_to_json(report)
        doc = json.loads(text)
        assert doc["detection_seconds"] is None

    def test_sanitize_json_floats(self):
        from repro.tools.export import sanitize_json_floats

        doc = {
            "a": float("nan"),
            "b": [1.0, float("inf"), {"c": float("-inf")}],
            "d": "NaN",  # strings pass through untouched
            "e": 3,
        }
        clean = sanitize_json_floats(doc)
        assert clean == {"a": None, "b": [1.0, None, {"c": None}], "d": "NaN", "e": 3}

    def test_dump_json_rejects_nan(self, tmp_path):
        from repro.util.serialization import dump_json

        with pytest.raises(ValueError):
            dump_json({"bad": float("nan")}, tmp_path / "bad.json")
