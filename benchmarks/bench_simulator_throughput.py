"""Engine throughput micro-benchmarks (pytest-benchmark proper).

Not a paper experiment — these track the reproduction's own performance so
simulator regressions show up: events/second on a communication-heavy ring
and on a collective-heavy loop, plus static-analysis throughput.
"""

import pytest

from repro.minilang.parser import parse_program
from repro.psg import build_psg
from repro.simulator import SimulationConfig, simulate

RING = """def main() {
    for (var it = 0; it < 50; it = it + 1) {
        compute(flops = 100000);
        sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 1024,
                 src = (rank - 1 + nprocs) % nprocs);
    }
}"""

COLLECTIVES = """def main() {
    for (var it = 0; it < 50; it = it + 1) {
        compute(flops = 100000);
        allreduce(bytes = 8);
    }
}"""


@pytest.fixture(scope="module")
def ring_setup():
    prog = parse_program(RING, "ring.mm")
    return prog, build_psg(prog).psg


@pytest.fixture(scope="module")
def coll_setup():
    prog = parse_program(COLLECTIVES, "coll.mm")
    return prog, build_psg(prog).psg


def test_throughput_ring_p32(benchmark, ring_setup):
    prog, psg = ring_setup
    cfg = SimulationConfig(nprocs=32, record_segments=False)
    result = benchmark(lambda: simulate(prog, psg, cfg))
    assert result.mpi_call_count == 50 * 2 * 32


def test_throughput_collectives_p32(benchmark, coll_setup):
    prog, psg = coll_setup
    cfg = SimulationConfig(nprocs=32, record_segments=False)
    result = benchmark(lambda: simulate(prog, psg, cfg))
    assert len(result.collective_records) == 50


def test_throughput_ring_p256_recorded(benchmark, ring_setup):
    """The PR-2 headline target: full segment recording at 256 ranks.

    This is the configuration the columnar TraceBuffer was built for —
    ``benchmarks/baseline.json`` pins its baseline throughput and
    ``benchmarks/check_regression.py`` fails CI on a >20% drop.
    """
    prog, psg = ring_setup
    cfg = SimulationConfig(nprocs=256, record_segments=True)
    result = benchmark(lambda: simulate(prog, psg, cfg))
    assert result.mpi_call_count == 50 * 2 * 256
    assert result.trace.event_count == 50 * 3 * 256  # compute + send + recv


def test_throughput_ring_p256_ring_mode(benchmark, ring_setup):
    """Same scale with record_segments=False: the TraceBuffer folds sealed
    chunks into aggregates and keeps memory bounded."""
    prog, psg = ring_setup
    cfg = SimulationConfig(nprocs=256, record_segments=False)
    result = benchmark(lambda: simulate(prog, psg, cfg))
    assert result.segments == []
    assert result.vertex_time  # aggregates still maintained


def test_throughput_static_analysis(benchmark):
    from repro.apps import get_app

    spec = get_app("zeusmp")
    program = parse_program(spec.source, spec.filename)
    result = benchmark(lambda: build_psg(program))
    assert len(result.psg) > 0


def test_throughput_sampling(benchmark, ring_setup):
    from repro.runtime import sample_result

    prog, psg = ring_setup
    cfg = SimulationConfig(nprocs=32)
    res = simulate(prog, psg, cfg)
    profile = benchmark(lambda: sample_result(res, 200.0))
    assert profile.nprocs == 32
