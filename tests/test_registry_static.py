"""A registry app is parsed and built once per process.

Every ``Pipeline.for_app`` pipeline, ``sweep`` cell and bench-harness run on
one :class:`~repro.apps.spec.AppSpec` shares the spec's static artifact, so
they share one ``Program`` and its engine compile cache.  These tests pin
that the sharing holds, that it changes no answer against a pipeline that
parses the source itself, and that a warm sweep runs no front end.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from contextlib import contextmanager
from unittest import mock

import pytest

import repro.api.pipeline as pipeline_mod
from repro.api import (
    AnalysisConfig,
    Pipeline,
    Session,
    canonical_report_sha,
    run_fingerprint,
)
from repro.api.sweep import sweep, valid_scales
from repro.apps import app_names, get_app
from repro.simulator import DelayInjection, simulation_call_count

SCALES = (4, 16)


def _private(name: str):
    """A copy of a registry spec with a memo of its own."""
    return dataclasses.replace(get_app(name))


@contextmanager
def _front_end_calls():
    """Count the parse and PSG-build calls the static stage makes."""
    calls = {"parse": 0, "build": 0}
    parse, build = pipeline_mod.parse_program, pipeline_mod.build_psg

    def counted_parse(*args, **kwargs):
        calls["parse"] += 1
        return parse(*args, **kwargs)

    def counted_build(*args, **kwargs):
        calls["build"] += 1
        return build(*args, **kwargs)

    with mock.patch.object(pipeline_mod, "parse_program", counted_parse), \
            mock.patch.object(pipeline_mod, "build_psg", counted_build):
        yield calls


def _outcome(pipe: Pipeline, scales) -> tuple:
    """Every profile's fingerprint and the report's canonical sha."""
    artifacts = pipe.profile_scales(list(scales))
    report = pipe.detect(artifacts)
    return (
        tuple(run_fingerprint(a.run) for a in artifacts),
        canonical_report_sha(report),
    )


def test_for_app_pipelines_share_one_artifact():
    spec = get_app("cg")
    first = Pipeline.for_app(spec, seed=1).static()
    assert Pipeline.for_app(spec, seed=2).static() is first
    assert spec.static_artifact() is first
    assert spec.program is first.program and spec.psg is first.psg
    assert spec.static is first.result
    deeper = Pipeline.for_app(spec, max_loop_depth=1).static()
    assert deeper is not first
    assert deeper is spec.static_artifact(1)
    assert deeper.program is not first.program


def test_arbitrary_sources_parse_per_pipeline():
    spec = get_app("ep")
    with _front_end_calls() as calls:
        a = Pipeline(spec.source, spec.filename).static()
        b = Pipeline(spec.source, spec.filename).static()
    assert a is not b
    assert calls == {"parse": 2, "build": 2}


def test_a_changed_spec_is_parsed_again():
    spec = _private("ep")
    old = spec.static_artifact()
    assert spec.static_artifact() is old
    spec.source = spec.source + "\n"
    new = Pipeline.for_app(spec).static()
    assert new is not old
    assert new.source == spec.source
    assert spec.static_artifact() is new
    spec.filename = "renamed.mm"
    renamed = spec.static_artifact()
    assert renamed is not new and renamed.filename == "renamed.mm"
    assert Pipeline.for_app(spec).source_digest == renamed.source_digest


def test_racing_threads_keep_one_artifact():
    spec = _private("mg")
    threads = 8
    barrier = threading.Barrier(threads, timeout=30)
    got = [None] * threads

    def build(i: int) -> None:
        barrier.wait()
        got[i] = spec.static_artifact()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _front_end_calls() as calls:
            workers = [
                threading.Thread(target=build, args=(i,))
                for i in range(threads)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert all(a is got[0] for a in got) and got[0] is not None
    assert spec.static_artifact() is got[0]
    assert calls == {"parse": 1, "build": 1}


@pytest.mark.parametrize("app", app_names())
def test_shared_artifact_answers_as_a_fresh_parse(app):
    spec = get_app(app)
    scales = valid_scales(spec, SCALES)
    assert len(scales) == 2
    cfg = AnalysisConfig.for_app(spec, seed=1)
    shared = Pipeline.for_app(spec, cfg)
    fresh = Pipeline(spec.source, spec.filename, cfg)
    assert shared.static() is spec.static_artifact()
    assert fresh.static().program is not spec.program
    assert _outcome(shared, scales) == _outcome(fresh, scales)


def test_no_delay_leaks_through_the_shared_program():
    spec = get_app("cg")
    plain = AnalysisConfig.for_app(spec, seed=4)
    delayed = plain.with_overrides(
        injected_delays=[DelayInjection(3, spec.filename, 13, 20.0)]
    )
    with_delay = _outcome(Pipeline.for_app(spec, delayed), SCALES)
    after = _outcome(Pipeline.for_app(spec, plain), SCALES)
    fresh = _outcome(Pipeline(spec.source, spec.filename, plain), SCALES)
    assert with_delay != fresh
    assert after == fresh


def test_sweep_jobs_and_fresh_parses_agree():
    apps = ["cg", "sst", "bt"]
    serial = sweep(apps, SCALES, seeds=(0, 1))
    parallel = sweep(apps, SCALES, seeds=(0, 1), jobs=2)

    def key(results):
        return [
            (r.app, r.seed, r.scales, canonical_report_sha(r.report))
            for r in results
        ]

    assert key(parallel) == key(serial)
    for r in serial:
        spec = get_app(r.app)
        fresh = Pipeline(
            spec.source, spec.filename,
            AnalysisConfig.for_app(spec, seed=r.seed),
        )
        assert canonical_report_sha(fresh.run(r.scales).report) == \
            canonical_report_sha(r.report)


def test_a_warm_sweep_runs_no_front_end(tmp_path):
    specs = [_private(name) for name in ("cg", "ep", "zeusmp")]
    with _front_end_calls() as cold:
        first = sweep(specs, SCALES, seeds=(0, 1), session=Session(tmp_path))
    assert cold == {"parse": len(specs), "build": len(specs)}
    sims = simulation_call_count()
    with _front_end_calls() as warm:
        again = sweep(specs, SCALES, seeds=(0, 1), session=Session(tmp_path))
    assert warm == {"parse": 0, "build": 0}
    assert simulation_call_count() == sims
    assert all(r.cache_hits == len(r.scales) for r in again)
    assert [canonical_report_sha(r.report) for r in again] == \
        [canonical_report_sha(r.report) for r in first]
