"""The optimized engine matches the per-rank oracle on a bundled app.

The per-rank interpreter is the bit-identity oracle.  This file checks
that the rank-dependence analysis proves rank-constant statements on a
bundled app (``RankAnalysis.const_stmts`` is not vacuous), and that the
app's fingerprint and a canonical detection report are identical with
the optimizers on and off.  The randomized sweep lives in
``tests/test_oracle_sweep.py``.
"""

from repro.api import AnalysisConfig, Pipeline
from repro.api.config import canonical_json
from repro.simulator import SimulationConfig
from tests.conftest import IMBALANCED_SOURCE, per_rank_oracle


class TestSharingEngages:
    def test_const_stmts_found_on_bundled_apps(self):
        """Meta-check: the analysis proves rank-constant statements on a
        real app."""
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

        def fingerprint():
            return run_fingerprint(profile_run(
                app.program, app.psg,
                SimulationConfig(nprocs=8, params=app.params),
            ))

        with per_rank_oracle():
            oracle = fingerprint()
        assert fingerprint() == oracle


class TestCanonicalReport:
    def test_report_sha_identical_with_and_without_sharing(self):
        def report():
            pipeline = Pipeline(
                source=IMBALANCED_SOURCE, filename="imbalanced.mm",
                config=AnalysisConfig(seed=0),
            )
            doc = pipeline.run([4, 8, 16]).report.to_json_dict()
            doc["detection_seconds"] = 0.0
            return canonical_json(doc)

        with per_rank_oracle():
            oracle = report()
        assert report() == oracle
