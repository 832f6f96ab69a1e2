"""One compile cache per program, and the lockstep compiler's work.

Every ``Engine`` started on a program reuses that program's compile
cache (``engine.program_cache``): compiled statements, the rank
analysis's call-graph facts, class batching's op -> statement index and
the representative recorder's own compiled bodies (one sub-cache, for
the functions that hold a statement it wraps).  Its entries depend on
the program alone, so runs at any scale, in any order and from any
thread give the fingerprints and class templates of fresh caches, and
the recorder leaves the compiled statements per-rank interpreters read
as they would be without it.

The lockstep compiler makes one pass over each class's positions and
then merges the classes gate by gate: its merge visits grow with the
receive-completing positions, not with the positions between them.
"""

from __future__ import annotations

import gc
import struct
import weakref
from unittest import mock

import numpy as np
import pytest

from repro.analysis import run_lint
from repro.analysis.rankdep import _FACTS_KEY
from repro.api import AnalysisConfig, Pipeline, run_fingerprint
from repro.apps import get_app
from repro.simulator import SimulationConfig
from repro.simulator import engine as engine_mod
from repro.simulator import classbatch
from repro.simulator.classbatch import _LOC_INDEX_KEY, _RECORDER_KEY
from repro.simulator.costmodel import MachineModel
from repro.simulator.engine import Engine
from tests.conftest import _compiled, per_rank_oracle

SCALES = (8, 16, 32)


def _fresh_caches():
    """Every engine compiles into a cache of its own."""
    return mock.patch.object(engine_mod, "program_cache", lambda program: {})


def _fingerprints(app: str, scales, *, jobs: int = 1) -> dict[int, str]:
    spec = get_app(app)
    pipe = Pipeline.for_app(spec, AnalysisConfig.for_app(spec, seed=3))
    artifacts = pipe.profile_scales(list(scales), jobs=jobs)
    return {a.nprocs: run_fingerprint(a.run) for a in artifacts}


@pytest.mark.parametrize("app", ["cg", "zeusmp", "nekbone", "sst"])
def test_shared_cache_gives_the_fingerprints_of_fresh_caches(app):
    with _fresh_caches():
        fresh = _fingerprints(app, SCALES)
    assert _fingerprints(app, SCALES) == fresh
    assert _fingerprints(app, SCALES[::-1]) == fresh
    assert _fingerprints(app, SCALES, jobs=2) == fresh


def _value_key(value):
    """A column set value by its bits: a column's dtype and bytes, a
    shared float's IEEE pattern, anything else as is."""
    if type(value) is np.ndarray:
        return (value.dtype.str, value.tobytes())
    if type(value) is float:
        return (float, struct.pack("<d", value))
    return (type(value), value)


def _template_key(result) -> tuple:
    """Every class template of one build: members, the base ops' types
    and fields (workloads by bits), and each patch's position, op type
    and column values."""
    return tuple(
        (
            tuple(members),
            tuple(classbatch._content(op) for op in base),
            tuple(
                (pos, column_set.make, tuple(sorted(
                    (name, _value_key(value))
                    for name, value in column_set.values.items()
                )))
                for pos, column_set in patches
            ),
        )
        for members, base, patches in result.classes
    )


def _templates(app: str, scales, *, jobs: int = 1) -> dict[int, tuple]:
    """The class templates of each scale's run, by ``nprocs``."""
    build = classbatch.build_batched_streams
    out: dict[int, tuple] = {}

    def capturing(**kwargs):
        result = build(**kwargs)
        out[kwargs["nprocs"]] = _template_key(result)
        return result

    with mock.patch.object(classbatch, "build_batched_streams", capturing):
        _fingerprints(app, scales, jobs=jobs)
    assert sorted(out) == sorted(scales)
    return out


@pytest.mark.parametrize("app", ["cg", "mg"])
def test_shared_cache_gives_the_templates_of_fresh_caches(app):
    with _fresh_caches():
        fresh = _templates(app, SCALES)
    assert all(fresh[p] for p in SCALES)  # every scale batches a class
    assert _templates(app, SCALES) == fresh
    assert _templates(app, SCALES[::-1]) == fresh
    assert _templates(app, SCALES, jobs=2) == fresh


def _compiled_keys(cache: dict) -> set:
    """The compiled-statement and compiled-expression entries."""
    return {key for key in cache if type(key) is not str}


@pytest.mark.parametrize("app", ["cg", "mg"])
def test_recorder_compiles_into_its_own_sub_cache(app):
    """A template build compiles into the program's cache only what a
    per-rank interpreter compiles there, and keeps the bodies of the
    functions that hold a statement it wraps in its own sub-cache: after
    a per-rank run, the program's cache holds exactly what a
    per-rank-only run compiles, and none of the recorder's closures."""
    spec = get_app(app)
    config = SimulationConfig(
        nprocs=16, params=spec.merged_params(),
        machine=spec.machine or MachineModel(),
    )
    cache: dict = {}
    with mock.patch.object(engine_mod, "program_cache", lambda p: cache):
        engine = Engine(spec.program, spec.psg, config)
        engine.start()
        assert engine.class_batch_stats["ranks_batched"] == 16
        shared = _compiled_keys(cache)
        recorder = cache[_RECORDER_KEY]
        own = _compiled_keys(recorder)
        bodies = {id(func) for func in spec.program.functions.values()}
        # whole function bodies only, none of them also in the shared cache
        assert own and own <= bodies and not own & shared
        with per_rank_oracle():
            Engine(spec.program, spec.psg, config).run()
    fresh: dict = {}
    with mock.patch.object(engine_mod, "program_cache", lambda p: fresh), \
            per_rank_oracle():
        Engine(spec.program, spec.psg, config).run()
    assert shared <= _compiled_keys(fresh)
    assert _compiled_keys(cache) == _compiled_keys(fresh)
    assert all(cache[key] is not recorder[key] for key in own)


@pytest.mark.parametrize("app", ["ep", "ft"])
def test_recorder_without_a_wrapped_statement_compiles_nothing_of_its_own(app):
    """Every op statement of ep and ft is rank-static, so the per-rank
    memo covers it: the representative's recorder wraps none, and shares
    every compiled body and expression with the program's cache."""
    spec = get_app(app)
    cache: dict = {}
    report = run_lint(
        spec.program, spec.psg, 16, spec.merged_params(), expr_cache=cache
    )
    assert report.ranks_batched == 16
    assert _compiled_keys(cache[_RECORDER_KEY]) == set()
    assert _compiled_keys(cache)


@pytest.mark.parametrize("app", ["zeusmp", "sst", "cg", "mg"])
def test_later_scales_compile_nothing_new(app):
    """Every entry is program-only: once one scale has run, the next
    ones find everything they compile already there, the recorder's
    sub-cache included."""
    spec = get_app(app)
    program = spec.program
    cache = engine_mod.program_cache(program)
    assert engine_mod.program_cache(program) is cache
    sizes = []
    for nprocs in SCALES:
        Engine(program, spec.psg, SimulationConfig(
            nprocs=nprocs, params=spec.merged_params(),
        )).run()
        sizes.append((len(cache), len(cache[_RECORDER_KEY])))
    assert _FACTS_KEY in cache and _LOC_INDEX_KEY in cache
    assert sizes == [sizes[0]] * len(SCALES)


def test_cache_goes_with_its_program():
    program, psg = _compiled(
        "def main() {\n    compute(flops = 1000);\n    barrier();\n}\n", "gone",
    )
    Engine(program, psg, SimulationConfig(nprocs=4)).run()
    key = id(program)
    assert key in engine_mod._PROGRAM_CACHES
    ref = weakref.ref(program)
    del program, psg
    gc.collect()
    assert ref() is None
    assert key not in engine_mod._PROGRAM_CACHES


def _gated_program(computes: int) -> str:
    """Even ranks send to their odd neighbour once; every rank computes
    ``computes`` times around it, then meets at a barrier."""
    body = "    compute(flops = 1000);\n" * computes
    return (
        "def main() {\n"
        f"{body}"
        "    if (rank % 2 == 0) {\n"
        "        send(dest = rank + 1, tag = 1, bytes = 64);\n"
        "    } else {\n"
        "        recv(src = rank - 1, tag = 1);\n"
        "    }\n"
        f"{body}"
        "    barrier();\n"
        "}\n"
    )


@pytest.mark.parametrize("nprocs", [4, 16])
def test_merge_visits_grow_with_gates_not_positions(nprocs):
    plans = {}
    for computes in (2, 200):
        program, psg = _compiled(_gated_program(computes), f"gated{computes}")
        engine = Engine(program, psg, SimulationConfig(nprocs=nprocs))
        engine.start()
        assert engine.lockstep_reason is None
        plans[computes] = engine._lockstep
    small, large = plans[2], plans[200]
    # two compute runs of 198 more positions in each of the two classes
    assert len(large.steps) - len(small.steps) == 2 * 2 * 198
    # one receive gate in the receiving class, visited once
    assert small.merge_visits == large.merge_visits == 1
