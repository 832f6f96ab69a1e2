"""Cross-rank op-record sharing is bit-identical to per-rank interpretation.

The per-rank interpreter is the bit-identity oracle: with
``sim_class_sharing`` on, statements the rank-dependence analysis proves
constant share one op record across all ranks of an engine — and nothing
else may change.  Mirrors the sharding identity gates: same randomized
workloads, fingerprints plus canonical detection reports, serial and
sharded, both executors.
"""

import random

import pytest

from repro.api import AnalysisConfig, Pipeline
from repro.api.config import canonical_json
from repro.simulator import SimulationConfig
from tests.conftest import IMBALANCED_SOURCE, _compiled, _fingerprint, make_workload


class TestRandomizedWorkloads:
    @pytest.mark.parametrize("seed", range(0, 100, 4))
    def test_sharing_matches_per_rank_oracle(self, seed):
        source = make_workload(seed)
        rng = random.Random(20_000 + seed)
        nprocs = rng.randint(5, 9)
        program, psg = _compiled(source, f"share{seed}")
        oracle = _fingerprint(program, psg, nprocs, sim_class_sharing=False)
        shared = _fingerprint(program, psg, nprocs, sim_class_sharing=True)
        assert shared == oracle, f"serial divergence on seed {seed}"
        sharded = _fingerprint(
            program, psg, nprocs,
            sim_class_sharing=True,
            sim_shards=rng.randint(2, 4), sim_executor="inprocess",
        )
        assert sharded == oracle, f"sharded divergence on seed {seed}"

    @pytest.mark.parametrize("seed", [2, 37, 64])
    def test_process_executor_matches_oracle(self, seed):
        source = make_workload(seed)
        program, psg = _compiled(source, f"sharemp{seed}")
        oracle = _fingerprint(program, psg, 6, sim_class_sharing=False)
        for extra in ({}, dict(sim_shards=2, sim_executor="process")):
            fp = _fingerprint(program, psg, 6, sim_class_sharing=True, **extra)
            assert fp == oracle, (seed, extra)


class TestSharingEngages:
    def test_const_stmts_found_on_bundled_apps(self):
        """Meta-check: the identity gate is not vacuous — the analysis
        proves shareable statements on real apps."""
        from repro.analysis import analyze_program
        from repro.apps import get_app

        app = get_app("cg")
        analysis = analyze_program(app.program, 8, app.params)
        assert analysis.const_stmts

    def test_app_fingerprints_identical_with_sharing(self):
        from repro.apps import get_app
        from repro.runtime import profile_run
        from repro.api import run_fingerprint

        app = get_app("cg")
        fps = {
            flag: run_fingerprint(
                profile_run(
                    app.program, app.psg,
                    SimulationConfig(
                        nprocs=8, params=app.params, sim_class_sharing=flag
                    ),
                )
            )
            for flag in (False, True)
        }
        assert fps[True] == fps[False]

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(nprocs=2, sim_class_sharing="on")
        with pytest.raises(ValueError):
            AnalysisConfig(sim_class_sharing=1)


class TestCanonicalReport:
    def test_report_sha_identical_with_and_without_sharing(self):
        reports = {}
        for flag in (False, True):
            pipeline = Pipeline(
                source=IMBALANCED_SOURCE, filename="imbalanced.mm",
                config=AnalysisConfig(seed=0, sim_class_sharing=flag),
            )
            doc = pipeline.run([4, 8, 16]).report.to_json_dict()
            doc["detection_seconds"] = 0.0
            reports[flag] = canonical_json(doc)
        assert reports[True] == reports[False]

    def test_sharing_is_digest_neutral(self):
        base = AnalysisConfig(seed=0)
        off = AnalysisConfig(seed=0, sim_class_sharing=False)
        assert base.digest() == off.digest()
        assert AnalysisConfig.from_json(off.to_json()) == off
        # pre-knob documents load with the default
        import json

        doc = json.loads(base.to_json())
        doc.pop("sim_class_sharing", None)
        assert AnalysisConfig.from_dict(doc).sim_class_sharing is True
