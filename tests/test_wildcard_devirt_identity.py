"""Wildcard devirtualization bit-identity: devirt-on reproduces devirt-off.

The engine's ``sim_wildcard_devirt`` knob rewrites ANY-source receives the
match-order analysis proves deterministic into concrete-source receives at
compile time.  The rewrite is only allowed to change *how* matching runs
— never what any rank computes — so across ~100 randomized wildcard-heavy
workloads (serial and sharded, both executors) the
``run_fingerprint`` and the canonical detection report must be identical
on and off.  A second family of assertions checks the pass actually
*engages* (counters ``sim.wildcard.devirt`` / ``sim.wildcard.gate_skips``
and the class-batching refusal it lifts): identity with a pass that never
fires would prove nothing.
"""

import json
import random

import pytest

from repro.api import AnalysisConfig, Pipeline
from repro.api.config import canonical_json
from repro.simulator import SimulationConfig
from tests.conftest import _compiled, _fingerprint

# ----------------------------------------------------------------------
# randomized wildcard-heavy workload generator
# ----------------------------------------------------------------------

#: Content-derived stagger for racing senders: exactly-tied ANY-source
#: arrivals are MPI-ambiguous and sit outside the serial bit-identity
#: guarantee (see test_parallel_sim.TestWildcardTieCarveOut); everything
#: time-separated is inside it.
_STAGGER = "compute(flops = 20000 * rank + floor(20000 * hashrand(rank, it)));"


def _wild_ring(rng, tag):
    """The devirt centerpiece: every rank's ANY-source receive has a
    proven-unique matcher, so the whole loop devirtualizes."""
    return (
        f"        send(dest = (rank + 1) % nprocs, tag = {tag}, "
        f"bytes = {rng.choice([64, 1024])});\n"
        f"        recv(src = ANY, tag = {tag});\n"
        "        barrier();\n"
    )


def _wild_unique_pair(rng, tag):
    """One guarded sender, one guarded ANY receiver: unique feasible
    sender, devirtualizes even without symmetry."""
    return (
        "        if (rank == 0) {\n"
        f"            recv(src = ANY, tag = {tag});\n"
        "        }\n"
        "        if (rank == 1) {\n"
        f"            send(dest = 0, tag = {tag}, bytes = {rng.choice([8, 256])});\n"
        "        }\n"
    )


def _wild_irecv_unique(rng, tag):
    """Nonblocking ANY-source receive with a unique sender: devirtualized
    without epoch pruning (which only applies to blocking receives)."""
    return (
        "        if (rank == 0) {\n"
        f"            irecv(src = ANY, tag = {tag}, req = r);\n"
        "            wait(req = r);\n"
        "        }\n"
        "        if (rank == 1) {\n"
        f"            send(dest = 0, tag = {tag}, bytes = 128);\n"
        "        }\n"
    )


def _racy_fan_in(rng, tag):
    """A genuine (time-separated) race: must NOT devirtualize — identity
    then shows the pass leaves racy receives strictly alone."""
    return (
        "        if (rank == 0) {\n"
        "            for (var i = 1; i < nprocs; i = i + 1) {\n"
        f"                recv(src = ANY, tag = {tag});\n"
        "            }\n"
        "        } else {\n"
        f"            {_STAGGER}\n"
        f"            send(dest = 0, tag = {tag}, bytes = {rng.choice([8, 256])});\n"
        "        }\n"
    )


def _collectives(rng, tag):
    op = rng.choice(
        [
            "allreduce(bytes = 8);",
            "barrier();",
            f"bcast(root = {rng.randint(0, 2)}, bytes = 64);",
            "allgather(bytes = 16);",
        ]
    )
    return f"        {op}\n"


_PATTERNS = (
    _wild_ring, _wild_unique_pair, _wild_irecv_unique,
    _racy_fan_in, _collectives,
)


def make_wild_workload(seed: int) -> str:
    """One randomized wildcard-heavy MiniMPI program: every draw includes
    at least one devirtualizable pattern plus 0-2 others (racy fan-ins,
    collectives, imbalanced compute).  Each pattern instance gets its own
    tag: a tag shared across patterns would let their sends cross-match
    and manufacture *exactly-tied* ANY-source races — MPI-ambiguous by
    the engine's own carve-out, hence outside the identity guarantee this
    suite enforces."""
    rng = random.Random(seed)
    iters = rng.randint(2, 4)
    body = (
        f"        compute(flops = {rng.randint(4, 12)}0000 "
        f"+ 7000 * (rank % 3));\n"
    )
    tag = 1
    body += rng.choice((_wild_ring, _wild_unique_pair, _wild_irecv_unique))(
        rng, tag
    )
    for pattern in rng.sample(_PATTERNS, rng.randint(0, 2)):
        tag += 1
        body += pattern(rng, tag)
    return (
        "def main() {\n"
        f"    for (var it = 0; it < {iters}; it = it + 1) {{\n"
        + body
        + "    }\n"
        "}\n"
    )


# ----------------------------------------------------------------------
# the identity sweep
# ----------------------------------------------------------------------


class TestDevirtIdentity:
    #: ~100 randomized wildcard-heavy workloads through the identity gate.
    SEEDS = range(100)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_devirt_on_matches_off_serial_and_sharded(self, seed):
        source = make_wild_workload(seed)
        rng = random.Random(20_000 + seed)
        nprocs = rng.randint(5, 9)
        program, psg = _compiled(source, f"wild{seed}")
        off = _fingerprint(program, psg, nprocs, sim_wildcard_devirt=False)
        on = _fingerprint(program, psg, nprocs)
        assert on == off, f"serial divergence on seed {seed}"
        shards = rng.randint(2, 4)
        for devirt in (True, False):
            sharded = _fingerprint(
                program, psg, nprocs,
                sim_wildcard_devirt=devirt,
                sim_shards=shards, sim_executor="inprocess",
            )
            assert sharded == off, f"sharded divergence seed {seed} devirt={devirt}"

    @pytest.mark.parametrize("seed", [2, 19, 44, 71, 93])
    def test_process_executor_matches_oracle(self, seed):
        """The multiprocess path ships the knob through worker configs and
        must agree with the serial devirt-off oracle."""
        source = make_wild_workload(seed)
        program, psg = _compiled(source, f"wildmp{seed}")
        oracle = _fingerprint(program, psg, 6, sim_wildcard_devirt=False)
        assert _fingerprint(program, psg, 6) == oracle, seed
        sharded = _fingerprint(
            program, psg, 6, sim_shards=2, sim_executor="process"
        )
        assert sharded == oracle, seed


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

    def test_knob_off_never_rewrites(self):
        engine = self._engine(8, sim_wildcard_devirt=False)
        assert engine.wildcard_stats == {"devirt": 0, "gate_skips": 0}

    def test_sweep_engages_across_seeds(self):
        """At least 90 of the 100 sweep seeds must devirtualize at least
        one receive — the generator guarantees a devirtualizable pattern
        per draw, so near-universal engagement is the expectation."""
        from repro.simulator.engine import Engine

        engaged = 0
        for seed in TestDevirtIdentity.SEEDS:
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
        for devirt in (True, False):
            cfg = SimulationConfig(
                nprocs=8, sim_shards=3, sim_executor="inprocess",
                sim_wildcard_devirt=devirt,
            )
            plan = ShardPlan.contiguous(8, 3)
            engines = [
                ShardEngine(program, psg, cfg, plan, s) for s in range(3)
            ]
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


class TestDigestNeutrality:
    def test_knob_is_digest_neutral(self):
        base = AnalysisConfig(seed=0)
        off = AnalysisConfig(seed=0, sim_wildcard_devirt=False)
        assert base.digest() == off.digest()
        assert AnalysisConfig.from_json(off.to_json()) == off
        # pre-devirt documents load with the default (on)
        doc = json.loads(base.to_json())
        assert "sim_wildcard_devirt" not in doc  # non-default-only key
        assert AnalysisConfig.from_dict(doc).sim_wildcard_devirt is True
        with pytest.raises(ValueError):
            AnalysisConfig(sim_wildcard_devirt="yes")
        with pytest.raises(ValueError):
            SimulationConfig(nprocs=2, sim_wildcard_devirt="yes")

    def test_canonical_report_sha_identical(self):
        reports = {}
        for devirt in (True, False):
            pipeline = Pipeline(
                source=make_wild_workload(7), filename="wild.mm",
                config=AnalysisConfig(seed=0, sim_wildcard_devirt=devirt),
            )
            doc = pipeline.run([4, 8]).report.to_json_dict()
            doc["detection_seconds"] = 0.0
            reports[devirt] = canonical_json(doc)
        assert reports[True] == reports[False]


class TestCLI:
    def test_no_wildcard_devirt_flag_is_bit_identical(self, tmp_path, capsys):
        from repro.tools.cli import main

        source = tmp_path / "wild.mm"
        source.write_text(make_wild_workload(11))
        outs = {}
        for flag in ((), ("--no-wildcard-devirt",)):
            assert main([
                "run", "--source", str(source), "--scales", "4,8", "--json",
                *flag,
            ]) == 0
            doc = json.loads(capsys.readouterr().out)
            doc["detection_seconds"] = 0.0
            outs[flag] = doc
        assert outs[()] == outs[("--no-wildcard-devirt",)]
