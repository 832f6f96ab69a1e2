"""Wildcard devirtualization engages, and stays bit-identical.

The engine rewrites ANY-source receives the match-order analysis proves
deterministic into concrete-source receives at compile time.  The
rewrite is only allowed to change *how* matching runs — never what any
rank computes.  Bit-identity against the per-rank oracle over ~100
randomized wildcard-heavy workloads (serial and sharded, both executors)
lives in ``tests/test_oracle_sweep.py``.  This file checks the pass
actually *engages* (counters ``sim.wildcard.devirt`` /
``sim.wildcard.gate_skips`` and the class-batching refusal it lifts):
identity with a pass that never fires would prove nothing.
"""

import contextlib

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

    def _engine(self, nprocs, **cfg):
        from repro.simulator.engine import Engine

        program, psg = _compiled(self.RING, "engage")
        engine = Engine(program, psg, SimulationConfig(nprocs=nprocs, **cfg))
        engine.run()
        return engine

    def test_serial_devirt_counter(self):
        engine = self._engine(8)
        assert engine.wildcard_stats["devirt"] == 8 * 3
        assert engine.wildcard_stats["gate_skips"] == 0  # serial: no gates

    def test_oracle_never_rewrites(self):
        with per_rank_oracle():
            engine = self._engine(8)
        assert engine.wildcard_stats == {"devirt": 0, "gate_skips": 0}

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

    def test_sharded_gate_skips_and_batching_lift(self):
        """Sharded runs skip the ANY-source gate for devirtualized
        receives, and class batching accepts the rewritten stream it
        refused as a wildcard."""
        import repro.simulator.parallel.coordinator as coordinator
        from repro.simulator.parallel.plan import ShardPlan
        from repro.simulator.parallel.shard import ShardEngine

        program, psg = _compiled(self.RING, "gates")
        results = {}
        cfg = SimulationConfig(nprocs=8, sim_shards=3, sim_executor="inprocess")
        plan = ShardPlan.contiguous(8, 3)
        for devirt, patch in (
            (True, contextlib.nullcontext()),
            (False, without_optimizer("_devirt_map")),
        ):
            engines = [
                ShardEngine(program, psg, cfg, plan, s) for s in range(3)
            ]
            with patch:  # a local handle starts its engine
                handles = [coordinator.LocalShardHandle(e) for e in engines]
            coordinator.run_coordinated(
                handles, plan, cfg, executor="inprocess"
            )
            results[devirt] = {
                "devirt": sum(e.wildcard_stats["devirt"] for e in engines),
                "gate_skips": sum(
                    e.wildcard_stats["gate_skips"] for e in engines
                ),
                "fallbacks": sum(
                    e.class_batch_stats["fallbacks"] for e in engines
                ),
                "batched": sum(
                    e.class_batch_stats["ranks_batched"] for e in engines
                ),
            }
        on, off = results[True], results[False]
        assert on["devirt"] == 8 * 3 and on["gate_skips"] == 8 * 3
        assert off["devirt"] == 0 and off["gate_skips"] == 0
        # the PR 9 refusal is lifted: wildcard phase batches under devirt
        assert off["fallbacks"] > 0 and off["batched"] == 0
        assert on["fallbacks"] == 0 and on["batched"] == 8

    def test_metrics_registry_counters(self):
        from repro import obs

        engine = self._engine(8)
        reg = obs.MetricsRegistry()
        engine.fill_metrics(reg)
        snap = reg.snapshot()
        doc = snap.to_json_dict()
        assert doc["counters"]["sim.wildcard.devirt"] == 24
        assert doc["counters"]["sim.wildcard.gate_skips"] == 0


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
