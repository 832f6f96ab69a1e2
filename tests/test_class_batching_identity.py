"""Class-batched simulation is bit-identical to per-rank interpretation.

The per-rank interpreter is the bit-identity oracle: every rank of a
proven behavioral equivalence class consumes an op stream fanned out
from its class representative — and nothing observable may change.  The
randomized sweep lives in ``tests/test_oracle_sweep.py``; this file
checks that batching engages, and pins the *fallback* behavior:
workloads engineered to defeat batching (wildcard receives inside a
symmetric phase, a single rank diverging late) must take the per-rank
path — the fallback counter says so — and still match the oracle
exactly.
"""

from repro.api import AnalysisConfig, Pipeline
from repro.api.config import canonical_json
from repro.simulator import SimulationConfig, simulate
from tests.conftest import (
    IMBALANCED_SOURCE,
    _compiled,
    _fingerprint,
    per_rank_oracle,
    without_optimizer,
)


def _batch_counters(result) -> dict:
    return {
        k.rsplit(".", 1)[1]: v
        for k, v in result.metrics.counters.items()
        if k.startswith("sim.class_batch.")
    }


#: Fully symmetric ring exchange: one equivalence class, every field of
#: every op either invariant or affine in rank — the canonical batch hit.
SYMMETRIC_RING = """\
def main() {
    for (var it = 0; it < 4; it = it + 1) {
        compute(flops = 40000 + 1000 * it);
        sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 512,
                 src = (rank - 1 + nprocs) % nprocs);
    }
    allreduce(bytes = 8);
}
"""

#: A wildcard receive inside a perfectly symmetric phase: every rank runs
#: the identical statement sequence (one equivalence class), but ANY-src
#: matching is arrival-order dependent, so the template check must refuse
#: the whole class — batching a wildcard would bake in one arrival order.
#: (PR 10: wildcard devirtualization proves this ring deterministic and
#: the rewritten concrete-source stream batches after all — both
#: behaviors are asserted below.)
WILDCARD_IN_SYMMETRIC_PHASE = """\
def main() {
    for (var it = 0; it < 3; it = it + 1) {
        compute(flops = 10000);
        send(dest = (rank + 1) % nprocs, tag = 3, bytes = 64);
        recv(src = ANY, tag = 3);
    }
    barrier();
}
"""

#: Every rank runs the same symmetric loop, then exactly one rank takes a
#: divergent late branch — the symmetry partition must split it out (or
#: degrade), never batch it with the others.
ONE_RANK_DIVERGES_LATE = """\
def main() {
    for (var it = 0; it < 3; it = it + 1) {
        compute(flops = 30000);
        sendrecv(dest = (rank + 1) % nprocs, tag = 2, bytes = 256,
                 src = (rank - 1 + nprocs) % nprocs);
    }
    if (rank == nprocs - 1) {
        compute(flops = 999999);
        compute(flops = hashrand(rank, 7) * 1000 + 1000);
    }
    barrier();
}
"""

#: A loop whose trip count depends on the rank but that emits no op (so
#: it splits no class) overwrites a rank-invariant local on some ranks
#: only: afterwards the local differs across the class, although its
#: verdict before and after the loop is the same INVARIANT.
SILENT_RANK_LOOP = """\
def main() {
    var n = 1;
    while (n < nprocs) {
        n = n * 2;
    }
    for (var i = 0; i < rank % 2; i = i + 1) {
        n = 5;
    }
    compute(flops = 1000 * n);
    allreduce(bytes = 8);
}
"""


class TestBatchingEngages:
    def test_symmetric_ring_batches_every_rank(self):
        """Meta-check: the identity gate is not vacuous — a symmetric app
        really takes the batched path for all ranks."""
        program, psg = _compiled(SYMMETRIC_RING, "symring")
        res = simulate(program, psg, SimulationConfig(nprocs=16))
        stats = _batch_counters(res)
        assert stats["classes"] >= 1
        assert stats["ranks_batched"] == 16
        assert stats["fallbacks"] == 0

    def test_oracle_run_reports_zero_batching(self):
        program, psg = _compiled(SYMMETRIC_RING, "symring_off")
        with per_rank_oracle():
            res = simulate(program, psg, SimulationConfig(nprocs=16))
        stats = _batch_counters(res)
        assert stats["classes"] == 0
        assert stats["ranks_batched"] == 0


class TestAdversarialFallback:
    def test_wildcard_recv_in_symmetric_phase_falls_back(self):
        """With devirtualization disabled, a wildcard receive never rides
        a template (batching one would bake in an arrival order)."""
        program, psg = _compiled(WILDCARD_IN_SYMMETRIC_PHASE, "wildsym")
        with per_rank_oracle():
            oracle = _fingerprint(program, psg, 8)
        with without_optimizer("_devirt_map"):
            assert _fingerprint(program, psg, 8) == oracle
            res = simulate(program, psg, SimulationConfig(nprocs=8))
        stats = _batch_counters(res)
        # The class containing the wildcard must fall back wholesale —
        # an undevirtualized wildcard receive never rides a template.
        assert stats["fallbacks"] >= 1
        assert stats["ranks_batched"] == 0

    def test_devirt_lifts_the_wildcard_refusal(self):
        """PR 10: the match-order analysis proves this ring's wildcard
        deterministic, so with devirtualization on (the default) the same
        phase batches — bit-identically to the per-rank oracle."""
        program, psg = _compiled(WILDCARD_IN_SYMMETRIC_PHASE, "wildsymdv")
        with per_rank_oracle():
            oracle = _fingerprint(program, psg, 8)
        assert _fingerprint(program, psg, 8) == oracle
        res = simulate(program, psg, SimulationConfig(nprocs=8))
        stats = _batch_counters(res)
        assert stats["fallbacks"] == 0
        assert stats["ranks_batched"] == 8

    def test_one_rank_diverging_late_is_never_batched_in(self):
        program, psg = _compiled(ONE_RANK_DIVERGES_LATE, "lonediv")
        with per_rank_oracle():
            oracle = _fingerprint(program, psg, 8)
        assert _fingerprint(program, psg, 8) == oracle
        res = simulate(program, psg, SimulationConfig(nprocs=8))
        stats = _batch_counters(res)
        # rank nprocs-1 executes extra statements (one with a value the
        # analysis cannot close over rank) — it must stay per-rank.
        assert stats["ranks_batched"] < 8

    def test_local_overwritten_by_a_silent_rank_loop(self):
        program, psg = _compiled(SILENT_RANK_LOOP, "silentloop")
        with per_rank_oracle():
            oracle = _fingerprint(program, psg, 4)
        assert _fingerprint(program, psg, 4) == oracle

    def test_fallback_reasons_surface_on_engine(self):
        """The engine records why classes degraded (bounded, deduplicated)
        so bench and debug tooling can explain a batch miss."""
        from repro.psg import build_psg
        from repro.minilang.parser import parse_program
        from repro.simulator.engine import Engine

        program = parse_program(WILDCARD_IN_SYMMETRIC_PHASE, "wildsym.mm")
        psg = build_psg(program).psg
        engine = Engine(program, psg, SimulationConfig(nprocs=8))
        with without_optimizer("_devirt_map"):
            engine.run()
        assert engine.class_batch_stats["fallbacks"] >= 1
        assert engine.class_batch_reasons
        assert all(isinstance(r, str) for r in engine.class_batch_reasons)


class TestCanonicalReport:
    def test_report_sha_identical_with_and_without_batching(self):
        def report():
            pipeline = Pipeline(
                source=IMBALANCED_SOURCE, filename="imbalanced.mm",
                config=AnalysisConfig(seed=0),
            )
            doc = pipeline.run([4, 8, 16]).report.to_json_dict()
            doc["detection_seconds"] = 0.0
            return canonical_json(doc)

        with without_optimizer("_build_batched_streams"):
            unbatched = report()
        assert report() == unbatched
