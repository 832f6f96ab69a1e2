"""The observability layer: metrics registry, spans, events — and the
bit-identity guarantee that none of it changes analysis results.

Covers the PR-8 acceptance gates:

* registry snapshot/merge sums counters and histogram buckets *exactly*;
* ``run_fingerprint`` and ``canonical_report_sha`` are identical with
  observability on or off;
* config digests ignore ``obs_metrics`` / ``obs_spans`` (digest-neutral);
* the disabled paths are structurally free (shared ``NULL_SPAN``,
  empty-bus early return), not just fast.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import obs
from repro.api import (
    AnalysisConfig,
    Pipeline,
    Session,
    canonical_report_sha,
    run_fingerprint,
)
from repro.apps import get_app
from repro.obs import (
    NULL_SPAN,
    Event,
    EventBus,
    MetricsRegistry,
    RunMetrics,
    SpanRecorder,
    series_key,
)
from repro.minilang import parse_program
from repro.psg import build_psg
from repro.simulator import SimulationConfig, simulate, simulation_call_count

SOURCE = """\
def main() {
    for (var i = 0; i < 5; i = i + 1) {
        compute(flops = 10000000 / nprocs, name = "work");
        isend(dest = (rank + 1) % nprocs, tag = 1, bytes = 1024, req = s);
        irecv(src = (rank - 1 + nprocs) % nprocs, tag = 1, req = r);
        waitall();
        allreduce(bytes = 8);
    }
}
"""


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_counter_inc_and_default(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(5)
        assert reg.snapshot().counter("x") == 6
        assert reg.snapshot().counter("absent", default=-1) == -1

    def test_labels_are_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("cache.hits", app="cg").inc(2)
        reg.counter("cache.hits", app="ep").inc(3)
        snap = reg.snapshot()
        assert snap.counter("cache.hits{app=cg}") == 2
        assert snap.counter("cache.hits{app=ep}") == 3

    def test_series_key_sorts_labels(self):
        assert series_key("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"
        assert series_key("m", {}) == "m"

    def test_snapshot_merge_sums_exactly(self):
        parts = []
        for n in (3, 4):
            reg = MetricsRegistry()
            reg.counter("c").inc(n)
            reg.gauge("g").set(float(n))
            h = reg.histogram("h", bounds=(1.0, 2.0))
            for v in (0.5, 1.5, 99.0):
                h.observe(v * n)
            parts.append(reg.snapshot())
        merged = RunMetrics.merge(parts + [None])  # None parts are skipped
        assert merged.counter("c") == 7
        assert merged.gauge("g") == 4.0  # gauges keep the max
        doc = merged.histograms["h"]
        assert doc["count"] == 6
        assert sum(doc["counts"]) == 6
        assert doc["sum"] == pytest.approx(sum((0.5, 1.5, 99.0)) * 7)

    def test_histogram_merge_rejects_differing_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        b.histogram("h", bounds=(2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="differing bounds"):
            RunMetrics.merge([a.snapshot(), b.snapshot()])

    def test_histogram_quantile_overflow_renders_honestly(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", bounds=(1.0, 2.0))
        for _ in range(10):
            h.observe(50.0)  # all overflow
        snap = reg.snapshot()
        assert snap.histogram_quantile("h", 0.5) == 2.0  # largest bound
        assert "p50>2" in snap.render()

    def test_json_round_trip_and_validation(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h", bounds=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        doc = snap.to_json_dict()
        assert doc["format"] == "scalana-metrics-v1"
        back = RunMetrics.from_json_dict(json.loads(json.dumps(doc)))
        assert back == snap

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d.update(format="nope"), "not a"),
            (
                lambda d: d["histograms"]["h"].update(counts=[1]),
                "need bounds",
            ),
            (
                lambda d: d["histograms"]["h"].update(count=7),
                "sum of buckets",
            ),
            (
                lambda d: d["counters"].update(c="NaN-ish"),
                "not numeric",
            ),
        ],
    )
    def test_from_json_dict_rejects_malformed(self, mutate, match):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h", bounds=(1.0,)).observe(0.5)
        doc = reg.snapshot().to_json_dict()
        mutate(doc)
        with pytest.raises(ValueError, match=match):
            RunMetrics.from_json_dict(doc)

    def test_merge_snapshot_folds_into_registry(self):
        a = MetricsRegistry()
        a.counter("c").inc(2)
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.counter("c").inc(1)
        b.merge_snapshot(a.snapshot())
        assert b.snapshot().counter("c") == 3
        assert b.snapshot().histograms["h"]["count"] == 1

    def test_run_metrics_is_picklable(self):
        import pickle

        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.histogram("h").observe(0.5)
        snap = reg.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap


# ---------------------------------------------------------------------------
# spans


class TestSpans:
    def test_disabled_span_is_the_shared_null_singleton(self):
        """The hot-loop contract: a disabled recorder hands out one shared
        object — no allocation, no bookkeeping, nothing to collect."""
        rec = SpanRecorder()
        assert rec.span("x") is NULL_SPAN
        assert rec.span("y", a=1) is NULL_SPAN
        assert rec.event_count == 0

    def test_module_level_span_disabled_by_default(self):
        assert obs.span("anything") is NULL_SPAN

    def test_enabled_scope_records_chrome_complete_events(self):
        rec = SpanRecorder()
        with rec.enabled_scope():
            with rec.span("outer", nprocs=8), rec.span("inner"):
                pass
            rec.instant("marker", note="hi")
        assert rec.span("after") is NULL_SPAN  # scope ended
        trace = rec.to_chrome_trace()
        events = trace["traceEvents"]
        assert [e["name"] for e in events] == ["outer", "inner", "marker"]
        outer = events[0]
        assert outer["ph"] == "X"
        assert outer["dur"] >= events[1]["dur"]
        assert outer["args"] == {"nprocs": 8}
        assert events[2]["ph"] == "i"

    def test_nested_enabled_scopes_are_depth_counted(self):
        rec = SpanRecorder()
        with rec.enabled_scope():
            with rec.enabled_scope():
                pass
            with rec.span("still-on"):
                pass
        assert rec.event_count == 1

    def test_dump_writes_chrome_trace_json(self, tmp_path):
        rec = SpanRecorder()
        with rec.enabled_scope(), rec.span("s"):
            pass
        path = tmp_path / "trace.json"
        rec.dump(path)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"][0]["name"] == "s"


# ---------------------------------------------------------------------------
# event bus


class TestEventBus:
    def test_emit_without_subscribers_is_a_noop(self):
        bus = EventBus()
        assert not bus.active
        bus.emit("anything", x=1)  # must not raise, must not allocate Events

    def test_subscribe_emit_unsubscribe(self):
        bus = EventBus()
        got: list[Event] = []
        unsub = bus.subscribe(got.append)
        assert bus.active
        bus.emit("k", a=1)
        unsub()
        bus.emit("k", a=2)
        assert [(e.kind, e.data) for e in got] == [("k", {"a": 1})]

    def test_subscriber_exceptions_are_swallowed(self):
        bus = EventBus()
        def boom(_ev):
            raise RuntimeError("broken renderer")
        got = []
        bus.subscribe(boom)
        bus.subscribe(got.append)
        bus.emit("k")
        assert len(got) == 1  # later subscribers still ran

    def test_queue_subscriber_drops_when_full(self):
        bus = EventBus()
        q, unsub = bus.subscribe_queue(maxsize=1)
        bus.emit("a")
        bus.emit("b")  # dropped, not blocking
        unsub()
        assert q.get_nowait().kind == "a"
        assert q.empty()


# ---------------------------------------------------------------------------
# digest neutrality + identity gates


class TestDigestNeutrality:
    def test_obs_knobs_do_not_change_the_digest(self):
        base = AnalysisConfig()
        on = AnalysisConfig(obs_metrics=True, obs_spans=True)
        assert base.digest() == on.digest()

    def test_obs_knobs_round_trip_but_stay_non_default_only(self):
        on = AnalysisConfig(obs_metrics=True, obs_spans=True)
        assert AnalysisConfig.from_dict(on.to_dict()) == on
        assert "obs_metrics" not in AnalysisConfig().to_dict()
        assert "obs_spans" not in AnalysisConfig().to_dict()

    def test_cache_keys_shared_across_obs_settings(self, tmp_path):
        """obs on must *hit* the artifacts an obs-off run stored."""
        session = Session(cache_dir=tmp_path / "cache")
        session.pipeline(SOURCE, seed=1).profile(4)
        art = session.pipeline(SOURCE, seed=1, obs_metrics=True).profile(4)
        assert art.cached


class TestIdentityGates:
    @pytest.fixture(scope="class")
    def baseline(self):
        pipe = Pipeline(source=SOURCE, config=AnalysisConfig(seed=2))
        arts = pipe.profile_scales([4, 8])
        report = pipe.detect(arts)
        return (
            [run_fingerprint(a.run) for a in arts],
            canonical_report_sha(report),
        )

    def test_bit_identical_with_obs_on(self, baseline):
        fps, sha = baseline
        config = AnalysisConfig(seed=2, obs_metrics=True, obs_spans=True)
        pipe = Pipeline(source=SOURCE, config=config)
        arts = pipe.profile_scales([4, 8])
        report = pipe.detect(arts)
        assert [run_fingerprint(a.run) for a in arts] == fps
        assert canonical_report_sha(report) == sha
        assert report.metrics is not None
        assert report.metrics.counter("engine.mpi_calls") > 0

    def test_metrics_section_only_when_enabled(self):
        pipe = Pipeline(source=SOURCE, config=AnalysisConfig(seed=2))
        report = pipe.detect(pipe.profile_scales([4, 8]))
        assert "metrics" not in report.to_json_dict()
        assert report.metrics is None


# ---------------------------------------------------------------------------
# satellite 1: simulation_call_count compat view


class TestSimulationCallCountCompat:
    def test_backed_by_registry_counter(self):
        before = simulation_call_count()
        assert before == obs.registry.counter("sim.engine_runs").value
        program = parse_program(SOURCE, "obs.mm")
        simulate(program, build_psg(program).psg, SimulationConfig(nprocs=4))
        assert simulation_call_count() == before + 1
        assert obs.registry.counter("sim.engine_runs").value == before + 1

    def test_engine_runs_still_increment_it(self):
        before = simulation_call_count()
        Pipeline(source=SOURCE, config=AnalysisConfig(seed=0)).profile(4)
        assert simulation_call_count() > before


# ---------------------------------------------------------------------------
# satellite 2: registry-backed CacheStats + cache events (satellite 6)


class TestCacheStatsAndEvents:
    def test_cache_stats_reads_come_from_counters(self, tmp_path):
        session = Session(cache_dir=tmp_path / "cache")
        session.pipeline(SOURCE, seed=1).profile_scales([4, 8])
        session.pipeline(SOURCE, seed=1).profile_scales([4, 8])
        stats = session.stats
        assert (stats.hits, stats.misses, stats.stores) == (2, 2, 2)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.5
        assert stats.bytes_written > 0
        snap = stats.registry.snapshot()
        assert snap.counter("cache.hits") == 2
        assert snap.counter("cache.misses") == 2

    def test_cached_sweep_emits_live_cache_events(self, tmp_path):
        session = Session(cache_dir=tmp_path / "cache")
        session.sweep([get_app("ep")], [4, 8], jobs=2)
        events: list[Event] = []
        unsub = obs.subscribe(events.append)
        try:
            session.sweep([get_app("ep")], [4, 8], jobs=2)
        finally:
            unsub()
        kinds = [e.kind for e in events]
        assert kinds.count("cache_hit") == 2
        assert kinds.count("cell_finished") == 2
        assert kinds[0] == "sweep_started" and kinds[-1] == "sweep_finished"
        # hit counts in the event let renderers show live ratios
        hit = next(e for e in events if e.kind == "cache_hit")
        assert hit.data["hits"] >= 1 and "nprocs" in hit.data

    def test_run_emits_scale_lifecycle_events(self):
        events: list[Event] = []
        unsub = obs.subscribe(events.append)
        try:
            Pipeline(source=SOURCE, config=AnalysisConfig(seed=0)).run([4, 8])
        finally:
            unsub()
        kinds = [e.kind for e in events]
        assert kinds[0] == "run_started" and kinds[-1] == "run_finished"
        assert kinds.count("scale_started") == 2
        assert kinds.count("scale_finished") == 2

    def test_lint_scales_emits_witness_events(self):
        events: list[Event] = []
        unsub = obs.subscribe(events.append)
        try:
            Pipeline(
                source=SOURCE, config=AnalysisConfig(seed=0)
            ).lint(scales="4..16")
        finally:
            unsub()
        kinds = [e.kind for e in events]
        assert "lint_scales_started" in kinds
        assert "lint_scales_finished" in kinds
        assert kinds.count("lint_witness_finished") >= 2


# ---------------------------------------------------------------------------
# CLI surface


class TestCli:
    def test_run_metrics_appends_block(self, capsys):
        from repro.tools.cli import main

        assert main(["run", "--app", "ep", "--scales", "4,8", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "engine.mpi_calls" in out

    def test_run_json_includes_metrics_section(self, capsys):
        from repro.tools.cli import main

        main(["run", "--app", "ep", "--scales", "4,8", "--metrics", "--json"])
        doc = json.loads(capsys.readouterr().out)
        RunMetrics.from_json_dict(doc["metrics"])  # validates

    def test_metrics_dump_is_valid_schema(self, capsys):
        from repro.tools.cli import main

        assert main(["metrics-dump", "--app", "ep", "--scales", "4,8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        snap = RunMetrics.from_json_dict(doc)
        assert snap.counter("engine.runs") == 2

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        from repro.tools.cli import main

        path = tmp_path / "trace.json"
        main(["run", "--app", "ep", "--scales", "4,8",
              "--trace-out", str(path)])
        doc = json.loads(path.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"pipeline.profile", "engine.run", "pipeline.detect"} <= names

    def test_progress_renderer_formats_events(self):
        from repro.tools.cli import ProgressRenderer

        stream = io.StringIO()
        render = ProgressRenderer(stream=stream)
        render(Event("sweep_started", {"cells": 2, "apps": ["ep"],
                                       "scales": [4, 8]}))
        render(Event("cache_hit", {"digest": "d", "nprocs": 4,
                                   "hits": 1, "misses": 0}))
        render(Event("cell_finished", {"app": "ep", "nprocs": 4,
                                       "cached": True, "done": 1,
                                       "total": 2}))
        render(Event("sweep_finished", {"cells": 2, "cache_hits": 2,
                                        "seconds": 0.5}))
        out = stream.getvalue()
        assert "[progress] sweep 2 cells" in out
        assert "cache 1/1" in out  # live hit ratio folded into the line
        assert "sweep finished" in out

    def test_progress_flag_streams_to_stderr(self, capsys):
        from repro.tools.cli import main

        main(["run", "--app", "ep", "--scales", "4,8", "--progress"])
        err = capsys.readouterr().err
        assert "[progress] p=4 profiling..." in err
        assert "[progress] p=8 done" in err


# ---------------------------------------------------------------------------
# overhead smoke


class TestOverhead:
    def test_disabled_obs_leaves_no_trace_state(self):
        """With obs off, a full analysis records no spans and touches no
        process-global metric series beyond the sim-run counter."""
        obs.tracer.clear()
        Pipeline(source=SOURCE, config=AnalysisConfig(seed=0)).run([4, 8])
        assert obs.tracer.event_count == 0
        assert not obs.bus.active

    def test_metrics_on_overhead_is_bounded(self):
        """Aggregate-granularity instruments: the obs-on run must stay
        within a generous constant factor of the obs-off run."""
        import time

        pipe_off = Pipeline(source=SOURCE, config=AnalysisConfig(seed=0))
        pipe_on = Pipeline(
            source=SOURCE,
            config=AnalysisConfig(seed=0, obs_metrics=True, obs_spans=True),
        )
        pipe_off.static()
        pipe_on.static()
        t0 = time.perf_counter()
        pipe_off.profile_scales([8, 16])
        base = time.perf_counter() - t0
        t0 = time.perf_counter()
        pipe_on.profile_scales([8, 16])
        instrumented = time.perf_counter() - t0
        # generous: CI boxes are noisy; the real ratio is ~1.0
        assert instrumented <= base * 3 + 0.25
