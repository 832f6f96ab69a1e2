"""Behavioral rank partition: structure tests plus the soundness property.

The load-bearing guarantee (ISSUE 6): for every class the analysis
reports, all member ranks execute the identical ``(op type, vid)``
sequence — verified against the per-rank interpreter as ground-truth
oracle over ~100 randomized workloads (the same generator the oracle
sweep uses).
"""

import random

import pytest

from repro.analysis import analyze_program, partition_ranks
from repro.minilang import parse_program
from repro.psg import build_psg
from repro.simulator import ops as opmod
from repro.simulator.interp import Interpreter
from tests.conftest import make_workload


def _partition(source, nprocs, params=None):
    program = parse_program(source, "t.mm")
    build_psg(program)
    return partition_ranks(program, nprocs, params)


def _op_skeletons(program, psg, nprocs):
    """Ground truth: each rank's (op type, vid) sequence, fully executed."""
    cache: dict = {}
    skels = {}
    for rank in range(nprocs):
        skels[rank] = tuple(
            (type(op).__name__, op.vid)
            for op in Interpreter(
                program, psg, rank, nprocs, expr_cache=cache
            ).run()
            if not isinstance(op, opmod.IndirectCallNote)
        )
    return skels


class TestPartitionStructure:
    def test_fully_symmetric_program_collapses_to_one_class(self):
        sym = _partition(
            """
            def main() {
                sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 64,
                         src = (rank - 1 + nprocs) % nprocs);
                allreduce(bytes = 8);
            }
            """,
            8,
        )
        assert sym.degraded is None
        assert sym.n_classes == 1
        assert sym.classes[0].ranks == tuple(range(8))
        assert sym.is_collapsed

    def test_root_split(self):
        sym = _partition(
            """
            def main() {
                if (rank == 0) {
                    for (var i = 1; i < nprocs; i = i + 1) {
                        recv(src = i, tag = 1);
                    }
                } else {
                    send(dest = 0, tag = 1, bytes = 8);
                }
            }
            """,
            8,
        )
        assert sym.degraded is None
        assert [c.ranks for c in sym.classes] == [(0,), tuple(range(1, 8))]
        assert sym.representatives == (0, 1)
        assert sym.class_of_rank(5) is sym.classes[1]

    def test_parity_split(self):
        sym = _partition(
            """
            def main() {
                if (rank % 2 == 0) {
                    allreduce(bytes = 8);
                } else {
                    allreduce(bytes = 8);
                }
            }
            """,
            6,
        )
        assert [c.ranks for c in sym.classes] == [(0, 2, 4), (1, 3, 5)]

    def test_degraded_partition_is_singletons(self):
        sym = _partition(
            """
            def main() {
                var s = rank;
                while (s > 0) {
                    allreduce(bytes = 8);
                    s = s - 1;
                }
            }
            """,
            5,
        )
        assert sym.degraded is not None
        assert sym.n_classes == 5
        assert all(c.size == 1 for c in sym.classes)
        assert not sym.is_collapsed

    def test_precomputed_analysis_is_reused(self):
        program = parse_program(
            "def main() { allreduce(bytes = 8); }", "t.mm"
        )
        analysis = analyze_program(program, 4)
        sym = partition_ranks(program, 4, analysis=analysis)
        assert sym.analysis is analysis

    def test_apps_partition_without_degrading(self):
        from repro.apps import APPS, get_app

        for name in APPS:
            app = get_app(name)
            nprocs = next(n for n in (8, 9, 16) if app.nprocs_valid(n))
            sym = partition_ranks(app.program, nprocs, app.params)
            assert sym.degraded is None, (name, sym.degraded)
            assert sym.n_classes <= nprocs


class TestSoundnessProperty:
    """Classes must never merge ranks with different op skeletons."""

    @pytest.mark.parametrize("seed", range(100))
    def test_classes_match_interpreter_oracle(self, seed):
        source = make_workload(seed)
        rng = random.Random(10_000 + seed)
        nprocs = rng.randint(5, 9)
        program = parse_program(source, f"rand{seed}.mm")
        psg = build_psg(program).psg
        sym = partition_ranks(program, nprocs)
        if sym.degraded is not None:
            return  # singletons are vacuously sound
        skels = _op_skeletons(program, psg, nprocs)
        for cls in sym.classes:
            ref = skels[cls.representative]
            for rank in cls.ranks:
                assert skels[rank] == ref, (
                    f"seed {seed}: rank {rank} diverges from class "
                    f"{cls.ranks} representative"
                )

    def test_most_workloads_actually_collapse(self):
        """Meta-check: the generator produces workloads where symmetry is
        detectable, so the property test is not vacuous."""
        collapsed = 0
        for seed in range(100):
            rng = random.Random(10_000 + seed)
            nprocs = rng.randint(5, 9)
            program = parse_program(make_workload(seed), f"rand{seed}.mm")
            sym = partition_ranks(program, nprocs)
            if sym.is_collapsed:
                collapsed += 1
        assert collapsed >= 50
