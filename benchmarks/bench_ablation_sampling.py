"""Ablation: sampling frequency — measurement overhead vs attribution
accuracy.

ScalAna fixes 200 Hz to match HPCToolkit (§VI-A).  The sweep quantifies the
trade-off on Zeus-MP at 32 ranks: overhead grows linearly with frequency
while the attribution error of the dominant vertex shrinks.
"""

from repro.apps import get_app
from repro.bench import BENCH_SEED, emit
from repro.psg.graph import VertexType
from repro.runtime import sample_result, scalana_costs, collect_comm_dependence
from repro.simulator import MachineModel, SimulationConfig, simulate
from repro.util.tables import Table

FREQS = [20.0, 50.0, 200.0, 1000.0, 5000.0]


def build() -> str:
    spec = get_app("zeusmp")
    cfg = SimulationConfig(
        nprocs=32, params=spec.merged_params(), seed=BENCH_SEED,
        machine=spec.machine or MachineModel(),
    )
    result = simulate(spec.program, spec.psg, cfg)
    comm = collect_comm_dependence(result, seed=BENCH_SEED)
    hot = max(
        (
            v for v in spec.psg.vertices.values()
            if v.vtype is VertexType.COMP
        ),
        key=lambda v: sum(result.time_of(v.vid)),
    )
    exact = sum(result.time_of(hot.vid))

    table = Table(
        "Ablation: sampling frequency (Zeus-MP, 32 ranks)",
        ["freq (Hz)", "samples", "overhead %", "hot-vertex attribution error"],
    )
    errors, overheads = [], []
    for freq in FREQS:
        prof = sample_result(result, freq)
        sampled = sum(prof.vertex_times(hot.vid))
        err = abs(sampled - exact) / exact
        rep = scalana_costs(
            app_time=result.total_time,
            nprocs=32,
            total_samples=prof.total_samples,
            mpi_calls=result.mpi_call_count,
            recorded_comm_events=comm.recorded_events,
            unique_edges=len(comm.edge_counts),
            unique_groups=len(comm.groups),
            group_member_ranks=32,
            psg_vertices=len(spec.psg),
            sampled_vertex_vectors=len(prof.ranks),
        )
        errors.append(err)
        overheads.append(rep.overhead_percent)
        table.add_row(
            f"{freq:.0f}", prof.total_samples,
            f"{rep.overhead_percent:.2f}%", f"{err * 100:.3f}%",
        )
    assert overheads == sorted(overheads), "overhead must grow with frequency"
    assert errors[-1] <= errors[0], "error must shrink with frequency"
    assert errors[FREQS.index(200.0)] < 0.05, "200 Hz must attribute within 5%"
    text = table.render()
    text += "\n\n200 Hz (the paper's setting) balances both sides."
    return text


def test_ablation_sampling(benchmark):
    emit("ablation_sampling", benchmark.pedantic(build, rounds=1, iterations=1))
