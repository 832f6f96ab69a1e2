"""Wildcard devirtualization engages, and stays bit-identical.

The engine rewrites ANY-source receives the match-order analysis proves
deterministic into concrete-source receives at compile time.  The
rewrite is only allowed to change *how* matching runs — never what any
rank computes.  Bit-identity against the per-rank oracle over ~100
randomized wildcard-heavy workloads lives in
``tests/test_oracle_sweep.py``.  This file checks the pass actually
*engages* (the ``sim.wildcard.devirt`` counter and the class-batching
refusal it lifts): identity with a pass that never fires would prove
nothing.
"""

from repro.api import AnalysisConfig, Pipeline
from repro.api.config import canonical_json
from repro.simulator import SimulationConfig
from tests.conftest import (
    _compiled,
    make_wild_workload,
    per_rank_oracle,
    without_optimizer,
)


class TestDevirtEngages:
    """Bit-identity means nothing if the pass never fires."""

    RING = (
        "def main() {\n"
        "    for (var i = 0; i < 3; i = i + 1) {\n"
        "        send(dest = (rank + 1) % nprocs, tag = 7, bytes = 64);\n"
        "        recv(src = ANY, tag = 7);\n"
        "        barrier();\n"
        "    }\n"
        "}\n"
    )

    def _engine(self, nprocs):
        from repro.simulator.engine import Engine

        program, psg = _compiled(self.RING, "engage")
        engine = Engine(program, psg, SimulationConfig(nprocs=nprocs))
        engine.run()
        return engine

    def test_serial_devirt_counter(self):
        engine = self._engine(8)
        assert engine.wildcard_stats["devirt"] == 8 * 3

    def test_oracle_never_rewrites(self):
        with per_rank_oracle():
            engine = self._engine(8)
        assert engine.wildcard_stats == {"devirt": 0}

    def test_sweep_engages_across_seeds(self):
        """At least 90 of the 100 sweep seeds must devirtualize at least
        one receive — the generator guarantees a devirtualizable pattern
        per draw, so near-universal engagement is the expectation."""
        from repro.simulator.engine import Engine

        engaged = 0
        for seed in range(100):
            program, psg = _compiled(make_wild_workload(seed), f"eng{seed}")
            engine = Engine(program, psg, SimulationConfig(nprocs=6))
            engine.run()
            if engine.wildcard_stats["devirt"] > 0:
                engaged += 1
        assert engaged >= 90, f"only {engaged}/100 seeds engaged the pass"

    def test_devirt_lifts_batching_refusal(self):
        """Class batching accepts the rewritten stream it refused as a
        wildcard."""
        on = self._engine(8)
        with without_optimizer("_devirt_map"):
            off = self._engine(8)
        assert off.wildcard_stats["devirt"] == 0
        # the PR 9 refusal is lifted: the wildcard phase batches under devirt
        assert off.class_batch_stats["fallbacks"] > 0
        assert off.class_batch_stats["ranks_batched"] == 0
        assert on.class_batch_stats["fallbacks"] == 0
        assert on.class_batch_stats["ranks_batched"] == 8

    def test_metrics_registry_counters(self):
        from repro import obs

        engine = self._engine(8)
        reg = obs.MetricsRegistry()
        engine.fill_metrics(reg)
        snap = reg.snapshot()
        doc = snap.to_json_dict()
        assert doc["counters"]["sim.wildcard.devirt"] == 24


class TestCanonicalReport:
    def test_canonical_report_sha_identical(self):
        def report():
            pipeline = Pipeline(
                source=make_wild_workload(7), filename="wild.mm",
                config=AnalysisConfig(seed=0),
            )
            doc = pipeline.run([4, 8]).report.to_json_dict()
            doc["detection_seconds"] = 0.0
            return canonical_json(doc)

        with without_optimizer("_devirt_map"):
            undevirtualized = report()
        assert report() == undevirtualized
