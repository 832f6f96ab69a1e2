"""Benchmark-regression gate for the simulator and analyses (CI: bench-regression job).

Times every workload of :func:`build_workloads` and compares it against
its row in the one committed baseline, ``benchmarks/baseline.json``.  The
rows measure:

- the event engine: ring and collective runs at 32, 256 and 1024 ranks,
  with recorded segments and in ring mode;
- class-batched interpretation: a rank-symmetric stencil at 4096 ranks,
  a 16384-rank smoke run, and the per-rank interpreter's generator
  dispatch;
- wildcard devirtualization: a 1024-rank ANY-source ring through the
  devirtualized class-batched path and through the refused per-rank path;
- post-run analysis: sampling, comm-dependence collection plus run
  fingerprinting, the NPB-CG detection pipeline, and the baselines'
  collective wait loops at 1024 ranks;
- static analysis: PSG build and contraction over the bundled apps,
  rank-dependence analysis plus the MPI lint, the cross-scale symbolic
  lint, and the match-order analysis;
- observability: metrics-registry merge of 32 run snapshots, and span
  recording plus Chrome-trace export.

The gate fails (exit 1) when the baseline file is missing, when the
measured workloads and the baseline rows differ, or when any workload's
throughput drops more than ``--tolerance`` (default 20%) below its
baseline.

The baseline also records an execution-metrics snapshot
(``scalana-metrics-v1``) of a 256-rank ring run.  Its counters are
deterministic work counts (MPI calls, matches, trace events, rank
hand-offs), so they are gated exactly: every committed counter must equal
the current run's, on any host and with no retry.  A cost movement then
reads as "more work" or as "slower per unit of work".

Two *absolute* gates run after the drift table, not just relative drift:

- proving the whole scale range with ``run_lint_scales`` must stay at
  least 10x cheaper than one concrete lint at P=4096 on the affine apps
  (the symbolic driver's reason to exist — its witness window is O(1)
  in P);
- class-batched interpretation must beat the per-rank oracle by at least
  3x on a rank-symmetric workload at 4096 ranks, with every rank actually
  riding a template (the counters say so).

A third, counter-based (not timing-based) engagement gate follows them:
wildcard devirtualization must actually fire on the 1024-rank wildcard
ring — every receive devirtualized, all 1024 ranks class-batched, zero
fallbacks — while the run with devirtualization stubbed out must refuse
batching with zero devirtualizations.  Identity against the per-rank
oracle is gated by ``tests/test_oracle_sweep.py``; this gate pins the
*other* half of the contract (the pass engages, the payoff rows above
measure what that buys).

Machines differ, so raw seconds do not transfer: both the baseline and the
current run are normalized by a calibration score — a fixed pure-Python +
numpy workload timed on the same machine in the same process.  The
committed numbers are "calibration units per run"; a faster machine scores
proportionally higher on both the calibration and the benchmarks, and the
ratio cancels.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py            # gate
    PYTHONPATH=src python benchmarks/check_regression.py --update   # rebase

``--update`` re-measures every workload and rewrites the whole baseline
file, metrics snapshot included.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.minilang.parser import parse_program
from repro.psg import build_psg
from repro.runtime import sample_result
from repro.simulator import SimulationConfig, simulate
from repro.simulator.engine import Engine

BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"


def without_optimizer(method: str):
    """Stub one engine optimizer out: ``Engine.<method>`` returns ``{}``,
    its step-aside result, while the patch is active.

    ``"_build_batched_streams"`` leaves every rank on its own interpreter
    (each still memoizes its rank-static ops); ``"_devirt_map"`` leaves
    every wildcard receive as written.  The optimizers have no config switch: this is
    how the per-rank rows and gates reach the path they measure.
    """
    return mock.patch.object(Engine, method, lambda self, *args: {})


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

#: p2p + collective traffic in one loop: the comm-dependence-collection
#: workload exercises both record tables (edge lexsort grouping *and*
#: ragged participant reductions).
MIXED_COMM = """def main() {
    for (var it = 0; it < 30; it = it + 1) {
        compute(flops = 100000);
        sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 1024,
                 src = (rank - 1 + nprocs) % nprocs);
        allreduce(bytes = 8);
    }
}"""

#: The ≥1024-rank scale workload: a short ring so the gate stays
#: CI-affordable while every per-event cost — scheduler ops, op records,
#: columnar appends — runs at production rank count.
RING_1024 = """def main() {
    for (var it = 0; it < 12; it = it + 1) {
        compute(flops = 100000);
        sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 1024,
                 src = (rank - 1 + nprocs) % nprocs);
    }
}"""

#: The class-batching workload: a rank-symmetric multigrid-style
#: stencil (halo exchanges nested two calls deep, invariant scalar churn
#: between ops).  Every rank lands in one behavioral equivalence class
#: with every op field invariant or affine in rank, so the batched path
#: interprets exactly one representative; ``iters`` scales the event
#: count so the same source serves the 4096-rank gate and the
#: 16384-rank smoke row.
CLASSBATCH_SYM = """
def halo(it) {
    sendrecv(dest = (rank + 1) % nprocs, tag = 7, bytes = 2048,
             src = (rank - 1 + nprocs) % nprocs);
    sendrecv(dest = (rank - 1 + nprocs) % nprocs, tag = 8, bytes = 2048,
             src = (rank + 1) % nprocs);
}

def smooth(n, it) {
    var acc = 1;
    var res = 0;
    var w = 3;
    for (var s = 0; s < n; s = s + 1) {
        var row = (s * w + it) % 64;
        var col = (row * 31 + s) % 64;
        acc = (acc * 33 + row * 7 + col) % 65536;
        res = (res + acc % 128) % 4096;
        var f = 50000 + (acc % 97) * 1000;
        compute(flops = f, bytes = 8192);
        halo(it);
    }
}

def vcycle(it) {
    smooth(3, it);
    compute(flops = 20000, bytes = 4096);
    allreduce(bytes = 8);
    smooth(2, it);
}

def main() {
    for (var it = 0; it < iters; it = it + 1) {
        vcycle(it);
        compute(flops = 10000 * (it + 1));
        allreduce(bytes = 16);
    }
}
"""

#: Deep call nesting with rank-static straight-line bodies: the
#: interpreter-side microbench.  Per-rank op delivery threads every op
#: through the whole generator chain, one statement dispatch per op, so
#: this row guards the per-rank interpreter (refused classes, class
#: representatives, the test oracle) against slowing down.  Runs with
#: batching off: the point is the per-rank dispatch cost itself.
GENERATOR_DEPTH = """
def leaf(i) {
    compute(flops = 1000);
    compute(flops = 2000);
    compute(flops = 3000);
    compute(flops = 4000);
}

def mid(i) {
    leaf(i);
    leaf(i + 1);
}

def upper(i) {
    mid(i);
    mid(i + 2);
}

def main() {
    for (var it = 0; it < 300; it = it + 1) {
        upper(it);
    }
    barrier();
}
"""

#: The wildcard workload: a rank-symmetric ring whose ANY-source
#: receive the match-order analysis proves deterministic (unique feasible
#: sender per receiver; the unconditional barrier is the sure separator
#: between iterations).  The engine rewrites the receive to a concrete
#: source at compile time, which lifts the class-batching wildcard
#: refusal — one representative interprets for all 1024 ranks.  With
#: devirtualization stubbed out (:func:`without_optimizer`), the wildcard
#: forces per-rank interpretation; the two rows measure that gap.
WILDCARD_RING = """def main() {
    for (var it = 0; it < 10; it = it + 1) {
        compute(flops = 100000);
        send(dest = (rank + 1) % nprocs, tag = 1, bytes = 1024);
        recv(src = ANY, tag = 1);
        barrier();
    }
}"""

#: Guarded two-phase wildcard traffic for the match-order analysis
#: throughput row: one proven-deterministic receive (epoch-separated by
#: the barrier) and one racy fan-in, so the analysis exercises both the
#: proof path and the refutation path.
MATCHORDER_TWO_PHASE = """def main() {
    if (rank == 1) { send(dest = 0, tag = 1, bytes = 64); }
    if (rank == 0) { recv(src = ANY, tag = 1); }
    barrier();
    if (rank > 0) { send(dest = 0, tag = 2, bytes = 64); }
    if (rank == 0) {
        for (var i = 1; i < nprocs; i = i + 1) {
            recv(src = ANY, tag = 2);
        }
    }
}"""

#: Imbalanced p2p + collectives at 1024 ranks: the baselines' vectorized
#: collective loops (the O(P^2) wait_of fix) run over its record tables.
MIXED_1024 = """def main() {
    for (var it = 0; it < 10; it = it + 1) {
        compute(flops = 100000 + 5000 * (rank % 4));
        sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 1024,
                 src = (rank - 1 + nprocs) % nprocs);
        allreduce(bytes = 8);
    }
}"""


def _best_of(fn, repeats: int = 3) -> float:
    """Best wall-clock seconds of ``repeats`` runs (after one warmup)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def calibration_score(repeats: int = 3) -> float:
    """Machine-speed score (higher = faster): iterations/sec of a fixed
    mixed Python + numpy workload shaped like the simulator hot loop."""

    def workload():
        acc = {}
        buf = []
        for i in range(200_000):
            key = (i & 63, i % 17)
            acc[key] = acc.get(key, 0.0) + 1.5
            buf += (i, i + 1, 0.5)
        arr = np.asarray(buf, dtype=np.float64)
        np.bincount((arr[::3] % 64).astype(np.int64), weights=arr[2::3])

    return 1.0 / _best_of(workload, repeats)


def build_workloads():
    ring_prog = parse_program(RING, "ring.mm")
    ring_psg = build_psg(ring_prog).psg
    coll_prog = parse_program(COLLECTIVES, "coll.mm")
    coll_psg = build_psg(coll_prog).psg

    def sim(prog, psg, nprocs, record, *, without=None, **cfg_extra):
        cfg = SimulationConfig(
            nprocs=nprocs, record_segments=record, **cfg_extra
        )
        if without is None:
            return lambda: simulate(prog, psg, cfg)

        def run():
            with without_optimizer(without):
                simulate(prog, psg, cfg)

        return run

    # sample a 256-rank run (~38k events): big enough that the workload is
    # not noise-dominated at millisecond scale on a loaded CI runner
    sampling_res = simulate(
        ring_prog, ring_psg, SimulationConfig(nprocs=256)
    )

    def static_analysis():
        from repro.apps import get_app

        # three real apps: keeps the workload above noise floor on CI
        for name in ("zeusmp", "sst", "nekbone"):
            spec = get_app(name)
            build_psg(parse_program(spec.source, spec.filename))

    # detection-pipeline workload (bench_table4_detection_cost's shape):
    # PPG assembly + both detectors + backtracking over NPB-CG profiles
    from repro.apps import get_app
    from repro.detection import (
        backtrack_root_causes,
        detect_abnormal,
        detect_non_scalable,
    )
    from repro.ppg import build_ppg
    from repro.runtime import profile_run

    spec = get_app("cg")
    cg_prog = parse_program(spec.source, spec.filename)
    cg_psg = build_psg(cg_prog).psg
    detect_inputs = []
    for p in (16, 32, 64):
        run = profile_run(
            cg_prog, cg_psg,
            SimulationConfig(nprocs=p, params=dict(spec.params)),
        )
        detect_inputs.append((p, run.profile, run.comm))

    def detection_pipeline():
        ppgs = [
            build_ppg(cg_psg, p, profile, comm)
            for p, profile, comm in detect_inputs
        ]
        ns = detect_non_scalable(ppgs)
        ab = detect_abnormal(ppgs[-1])
        backtrack_root_causes(ppgs[-1], ns, ab)

    # Comm-dependence collection + run fingerprinting over the columnar
    # record tables of a 256-rank mixed p2p/collective run — full-trace
    # collection, the BLAKE2b-batched sampled path, and the byte-view
    # fingerprint in one workload (each part alone is too fast to clear
    # the noise floor on a loaded runner).
    from types import SimpleNamespace

    from repro.api import run_fingerprint
    from repro.runtime import collect_comm_dependence

    mixed_prog = parse_program(MIXED_COMM, "mixed.mm")
    mixed_psg = build_psg(mixed_prog).psg
    comm_res = simulate(
        mixed_prog, mixed_psg, SimulationConfig(nprocs=256)
    )
    comm_run = SimpleNamespace(
        nprocs=256,
        app_time=comm_res.total_time,
        profile=sample_result(comm_res, 200.0),
        comm=collect_comm_dependence(comm_res),
    )

    def comm_dependence():
        collect_comm_dependence(comm_res)
        collect_comm_dependence(comm_res, sample_probability=0.5, seed=3)
        run_fingerprint(comm_run)

    # The ≥1024-rank rows: the engine at production rank count, plus the
    # baselines' vectorized collective loops over a 1024-rank run's record
    # tables.
    from repro.baselines import TracerTool, classify_wait_states

    ring1k_prog = parse_program(RING_1024, "ring1k.mm")
    ring1k_psg = build_psg(ring1k_prog).psg
    mixed1k_prog = parse_program(MIXED_1024, "mixed1k.mm")
    mixed1k_psg = build_psg(mixed1k_prog).psg
    mixed1k_res = simulate(
        mixed1k_prog, mixed1k_psg, SimulationConfig(nprocs=1024)
    )
    tracer_tool = TracerTool()
    tracer_run = SimpleNamespace(result=mixed1k_res)

    def baseline_collective_loops():
        classify_wait_states(mixed1k_res)
        tracer_tool.analyze(tracer_run)

    # PSG contraction isolated from parsing/CFG (the complete PSGs are
    # prebuilt, only contract_psg is timed), and the analysis layer —
    # whole-program rank-dependence dataflow plus the full static MPI
    # lint — over real apps at two scales each.
    from repro.analysis import run_lint
    from repro.psg import DEFAULT_MAX_LOOP_DEPTH, build_complete_psg, contract_psg

    contraction_inputs = []
    for name in ("zeusmp", "sst", "nekbone", "lu", "mg", "bt", "sp", "ft"):
        spec = get_app(name)
        prog = parse_program(spec.source, spec.filename)
        contraction_inputs.append(build_complete_psg(prog))

    def psg_contraction():
        # several depths x several passes: one contraction of these PSGs
        # is ~1 ms, far below the noise floor of a loaded CI runner
        for _ in range(8):
            for complete in contraction_inputs:
                for depth in (0, 1, DEFAULT_MAX_LOOP_DEPTH):
                    contract_psg(complete, depth)

    lint_inputs = []
    for name in ("cg", "lu", "zeusmp"):
        spec = get_app(name)
        prog = parse_program(spec.source, spec.filename)
        psg = build_psg(prog).psg
        scales = [n for n in (8, 16) if spec.nprocs_valid(n)] or [4]
        lint_inputs.append((prog, psg, scales, dict(spec.params)))

    def rank_analysis_lint():
        for prog, psg, scales, params in lint_inputs:
            for nprocs in scales:
                run_lint(prog, psg, nprocs, params)

    # The symbolic-P driver over affine apps (one witness window proves
    # the whole range).
    from repro.analysis import run_lint_scales

    scale_lint_inputs = []
    for name in ("lu", "ep", "ft"):
        spec = get_app(name)
        prog = parse_program(spec.source, spec.filename)
        psg = build_psg(prog).psg
        scale_lint_inputs.append(
            (prog, psg, dict(spec.params), spec.nprocs_valid)
        )

    def scale_lint_symbolic():
        for prog, psg, params, valid in scale_lint_inputs:
            run_lint_scales(prog, psg, "all", params, valid=valid)

    # The observability layer.  Registry snapshot/merge of 32 run
    # registries with the engine's series, merged to one RunMetrics (the
    # fold ``Pipeline`` and the CLI apply over every simulation behind a
    # report), and span recording + Chrome-trace export at the volume a
    # fully traced multi-scale run produces.  The
    # engine's own instrumentation needs no row: metrics are filled from
    # existing aggregates once per run, so its cost is already inside
    # every simulate-based row above.
    from repro.obs import MetricsRegistry, RunMetrics, SpanRecorder

    def obs_registry_merge():
        parts = []
        for shard in range(32):
            reg = MetricsRegistry()
            for name in (
                "engine.runs", "engine.mpi_calls", "engine.compute_ops",
                "engine.trace_events", "engine.p2p_matches",
            ):
                reg.counter(name, shard=shard % 4).inc(shard + 1)
            hist = reg.histogram("engine.rank_finish_seconds")
            for i in range(64):
                hist.observe(i * 0.01)
            parts.append(reg.snapshot())
        for _ in range(100):
            RunMetrics.merge(parts)

    def obs_span_recording():
        rec = SpanRecorder()
        with rec.enabled_scope():
            for i in range(5000):
                with rec.span("engine.run", nprocs=i & 255):
                    pass
        rec.to_chrome_trace()

    # Class-batched interpretation at production and beyond-production
    # rank counts, plus the interpreter generator-depth microbench
    # (batching off — it guards the per-rank statement dispatch cost).
    classbatch_prog = parse_program(CLASSBATCH_SYM, "classbatch.mm")
    classbatch_psg = build_psg(classbatch_prog).psg
    gendepth_prog = parse_program(GENERATOR_DEPTH, "gendepth.mm")
    gendepth_psg = build_psg(gendepth_prog).psg

    # Match-order analysis throughput (proof + refutation paths over
    # wildcard fixtures at several scales), and the 1024-rank wildcard
    # ring through the devirtualized class-batched path vs the refused
    # per-rank path.
    from repro.analysis.matchorder import analyze_match_order

    wild_prog = parse_program(WILDCARD_RING, "wildring.mm")
    wild_psg = build_psg(wild_prog).psg
    two_phase_prog = parse_program(MATCHORDER_TWO_PHASE, "twophase.mm")

    def matchorder_analysis():
        # one analysis is a few ms: several programs x several scales
        # keeps the row above the noise floor of a loaded CI runner
        for prog in (wild_prog, two_phase_prog):
            for nprocs in (64, 256, 1024):
                analyze_match_order(prog, nprocs, {})

    return {
        "ring_p32": sim(ring_prog, ring_psg, 32, False),
        "collectives_p32": sim(coll_prog, coll_psg, 32, False),
        "ring_p256_recorded": sim(ring_prog, ring_psg, 256, True),
        "ring_p256_ring_mode": sim(ring_prog, ring_psg, 256, False),
        "sampling_p256": lambda: sample_result(sampling_res, 200.0),
        "static_analysis_apps": static_analysis,
        # post-run detection: PPG assembly, both detectors, backtracking
        "detection_pipeline_cg": detection_pipeline,
        # post-run analysis of a 256-rank mixed run
        "comm_dependence_p256": comm_dependence,
        # engine and baselines at 1024 ranks
        "ring_p1024": sim(ring1k_prog, ring1k_psg, 1024, False),
        "baseline_collective_loops_p1024": baseline_collective_loops,
        # static analysis over the bundled apps
        "psg_contraction_apps": psg_contraction,
        "rank_analysis_lint_apps": rank_analysis_lint,
        "scale_lint_symbolic_apps": scale_lint_symbolic,
        # observability
        "obs_registry_merge_32shards": obs_registry_merge,
        "obs_span_recording_5k": obs_span_recording,
        # class-batched interpretation, and the per-rank dispatch cost
        "ring_p4096_classbatch": sim(
            classbatch_prog, classbatch_psg, 4096, False,
            params={"iters": 3},
        ),
        "ring_p16k_classbatch_smoke": sim(
            classbatch_prog, classbatch_psg, 16384, False,
            params={"iters": 1},
        ),
        "interp_generator_depth": sim(
            gendepth_prog, gendepth_psg, 8, False,
            without="_build_batched_streams",
        ),
        # wildcard devirtualization
        "matchorder_analysis_fixtures": matchorder_analysis,
        "wildcard_p1024_devirt": sim(wild_prog, wild_psg, 1024, False),
        "wildcard_p1024_refused": sim(
            wild_prog, wild_psg, 1024, False, without="_devirt_map",
        ),
    }


def metrics_provenance() -> dict:
    """Execution-metrics snapshot of the 256-rank ring workload.

    Recorded under ``"metrics"`` in the baseline by ``--update``:
    machine-independent event counts (MPI calls, matches, trace events)
    that explain *why* a row's cost moved when it does, and that
    :func:`check_work_counts` gates exactly.
    """
    prog = parse_program(RING, "ring.mm")
    psg = build_psg(prog).psg
    res = simulate(prog, psg, SimulationConfig(nprocs=256))
    return res.metrics.to_json_dict()


def check_baseline_rows(baseline: dict, workloads) -> bool:
    """Every measured workload has a baseline row and every baseline row a
    workload: an unmatched row on either side would never be gated."""
    measured, committed = set(workloads), set(baseline["benchmarks"])
    for label, names in (
        ("measured but not in the baseline", measured - committed),
        ("in the baseline but not measured", committed - measured),
    ):
        if names:
            print(f"baseline rows FAILED: {label}: {', '.join(sorted(names))}",
                  file=sys.stderr)
    return measured == committed


def check_work_counts(baseline: dict) -> bool:
    """The exact work-count gate: every counter in the baseline's metrics
    snapshot must equal :func:`metrics_provenance`'s value now.

    The counts are deterministic, so a mismatch is a change in the work
    the engine does, never host noise: no retry discipline.
    """
    committed = baseline.get("metrics", {}).get("counters")
    if not committed:
        print("work-count gate FAILED: the baseline has no metrics counters",
              file=sys.stderr)
        return False
    now = metrics_provenance()["counters"]
    drift = {
        name: (want, now.get(name))
        for name, want in committed.items()
        if now.get(name) != want
    }
    for name, (want, got) in sorted(drift.items()):
        print(f"work-count gate FAILED: {name} is {got}, baseline {want}",
              file=sys.stderr)
    if not drift:
        print(f"work counts p256 ring: {len(committed)} counters match "
              f"the baseline exactly")
    return not drift


def check_symbolic_speedup(min_speedup: float = 10.0, repeats: int = 3) -> bool:
    """The absolute PR-7 gate: the symbolic cross-scale lint must beat one
    concrete lint at P=4096 by ``min_speedup`` on affine apps.

    ``lu`` is excluded deliberately — its concrete lint at 4096 ranks
    takes ~1 minute, which is exactly the cost the symbolic driver
    amortizes away; burning it on every CI push to prove the point once
    more would be self-parody.  ``ep`` and ``ft`` are affine (status
    "proven") and decide in milliseconds either way.
    """
    from repro.analysis import run_lint, run_lint_scales
    from repro.apps import get_app

    ok = True
    for name in ("ep", "ft"):
        spec = get_app(name)
        prog = parse_program(spec.source, spec.filename)
        psg = build_psg(prog).psg
        params = dict(spec.params)

        def symbolic(prog=prog, psg=psg, params=params, valid=spec.nprocs_valid):
            run_lint_scales(prog, psg, "all", params, valid=valid)

        def concrete(prog=prog, psg=psg, params=params):
            run_lint(prog, psg, 4096, params)

        t_sym = _best_of(symbolic, repeats)
        t_conc = _best_of(concrete, repeats)
        speedup = t_conc / t_sym
        flag = "" if speedup >= min_speedup else "  BELOW GATE"
        print(f"symbolic-lint speedup {name:8s} {speedup:7.1f}x "
              f"(proved range in {t_sym * 1e3:.1f} ms vs {t_conc * 1e3:.1f} ms "
              f"for one concrete P=4096 lint){flag}")
        if speedup < min_speedup:
            ok = False
    return ok


def check_classbatch_speedup(min_speedup: float = 3.0, repeats: int = 2) -> bool:
    """The absolute PR-9 gate: class-batched interpretation must beat the
    per-rank oracle by ``min_speedup`` on a rank-symmetric workload at
    4096 ranks.

    Identity is gated by the per-rank oracle sweep in
    ``tests/test_oracle_sweep.py``; here we assert the *other*
    half of the contract — the batched path actually engages (all 4096
    ranks ride a template, zero fallbacks, and the run drains in
    lockstep, so a silent return to the time-ordered loop fails here
    rather than only slowing the gate) and pays off in wall clock.
    ``repeats`` defaults below the drift rows': each per-rank oracle run
    interprets all 4096 ranks and dominates the gate's budget.
    """
    prog = parse_program(CLASSBATCH_SYM, "classbatch.mm")
    psg = build_psg(prog).psg
    params = {"iters": 3}
    cfg = SimulationConfig(nprocs=4096, record_segments=False, params=params)

    probe = simulate(prog, psg, cfg)
    counters = probe.metrics.counters
    batched = counters.get("sim.class_batch.ranks_batched", 0)
    fallbacks = counters.get("sim.class_batch.fallbacks", 0)
    lockstep = counters.get("engine.lockstep", 0)
    if batched < 4096 or fallbacks or lockstep != 1:
        print(
            f"classbatch gate: batching disengaged on the symmetric "
            f"workload ({batched}/4096 ranks batched, "
            f"{fallbacks} fallbacks, engine.lockstep={lockstep})",
            file=sys.stderr,
        )
        return False

    t_on = _best_of(lambda: simulate(prog, psg, cfg), repeats)
    with without_optimizer("_build_batched_streams"):
        t_off = _best_of(lambda: simulate(prog, psg, cfg), repeats)
    speedup = t_off / t_on
    flag = "" if speedup >= min_speedup else "  BELOW GATE"
    print(f"class-batched speedup p4096  {speedup:6.2f}x "
          f"({t_on:.2f} s batched vs {t_off:.2f} s per-rank; "
          f"{batched} ranks on {counters.get('sim.class_batch.classes', 0)} "
          f"template(s)){flag}")
    return speedup >= min_speedup


def check_wildcard_devirt_engagement() -> bool:
    """The counter-based PR-10 gate: wildcard devirtualization must fire
    on the 1024-rank wildcard ring, and stubbing it out must restore the
    refused per-rank path.

    Bit-identity against the per-rank oracle is gated by the sweep in
    ``tests/test_oracle_sweep.py``; this gate asserts the pass *engages*
    — every ANY-source receive rewritten to its proven source, the
    class-batching refusal lifted (all 1024 ranks batched, zero
    fallbacks) — and that the run with ``Engine._devirt_map`` stubbed out
    really is the refused per-rank path the ``wildcard_p1024_refused``
    row measures.  Counters, not timings: engagement is deterministic, so
    no retry discipline.
    """
    prog = parse_program(WILDCARD_RING, "wildring.mm")
    psg = build_psg(prog).psg
    cfg = SimulationConfig(nprocs=1024, record_segments=False)
    on = simulate(prog, psg, cfg).metrics.counters
    with without_optimizer("_devirt_map"):
        off = simulate(prog, psg, cfg).metrics.counters

    # 10 iterations x 1024 ranks, one wildcard receive each
    checks = [
        ("on: every receive devirtualized",
         on.get("sim.wildcard.devirt", 0) == 10240),
        ("on: class batching lifted for all ranks",
         on.get("sim.class_batch.ranks_batched", 0) == 1024),
        ("on: zero batching fallbacks",
         on.get("sim.class_batch.fallbacks", 0) == 0),
        ("off: zero devirtualizations",
         off.get("sim.wildcard.devirt", 0) == 0),
        ("off: wildcard still refuses batching",
         off.get("sim.class_batch.fallbacks", 0) >= 1
         and off.get("sim.class_batch.ranks_batched", 0) == 0),
    ]
    ok = all(passed for _, passed in checks)
    if ok:
        print(
            f"wildcard-devirt engagement p1024: "
            f"{on.get('sim.wildcard.devirt', 0)} receives devirtualized, "
            f"{on.get('sim.class_batch.ranks_batched', 0)} ranks batched, "
            f"undevirtualized run falls back per-rank"
        )
    else:
        for label, passed in checks:
            if not passed:
                print(f"wildcard-devirt gate FAILED: {label}",
                      file=sys.stderr)
    return ok


def measure(workloads: dict, repeats: int = 3) -> dict:
    # calibrate before *and* after the workloads and keep the faster score:
    # transient load during one calibration window then cannot skew every
    # normalized number in the same direction
    calib = calibration_score(repeats)
    rows = {}
    for name, fn in workloads.items():
        rows[name] = {"seconds": _best_of(fn, repeats)}
    calib = max(calib, calibration_score(repeats))
    for row in rows.values():
        # machine-independent cost: calibration units burned per run
        row["calibration_units"] = row["seconds"] * calib
    return {"calibration_score": calib, "benchmarks": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help=f"re-measure every workload and rewrite {BASELINE_PATH.name} "
             f"whole, metrics snapshot included",
    )
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional throughput drop (0.20 = 20%%)")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    if args.update:
        current = measure(build_workloads(), args.repeats)
        doc = {
            "calibration_score": current["calibration_score"],
            "metrics": metrics_provenance(),
            "benchmarks": current["benchmarks"],
        }
        BASELINE_PATH.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        print(f"FAIL: no baseline at {BASELINE_PATH}; record one with "
              f"--update", file=sys.stderr)
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())
    workloads = build_workloads()
    # both deterministic: a miss is a real bug, so fail before timing
    rows_ok = check_baseline_rows(baseline, workloads)
    counts_ok = check_work_counts(baseline)
    if not (rows_ok and counts_ok):
        return 1

    current = measure(workloads, args.repeats)
    # Surface the normalization: committed numbers are calibration units,
    # and this factor is what converted this host's raw seconds into them.
    print(f"calibration factor applied: "
          f"{current['calibration_score']:.3f} units/s "
          f"(baseline recorded at {baseline['calibration_score']:.3f})")
    ratios = {}
    print(f"{'benchmark':28s} {'base units':>12s} {'now units':>12s} {'ratio':>7s}")
    for name, row in current["benchmarks"].items():
        base = baseline["benchmarks"][name]
        # throughput ratio = base cost / current cost (>1 means faster now)
        ratio = base["calibration_units"] / row["calibration_units"]
        flag = ""
        if ratio < 1.0 - args.tolerance:
            flag = "  below tolerance, will re-measure"
        ratios[name] = ratio
        print(
            f"{name:28s} {base['calibration_units']:12.3f} "
            f"{row['calibration_units']:12.3f} {ratio:7.2f}{flag}"
        )

    # Transient host load can sink a single measurement window; a *real*
    # regression reproduces on every retry.  Re-measure only the workloads
    # below tolerance (fresh calibration each time) and keep their best.
    for attempt in range(2):
        suspects = [
            n for n, r in ratios.items() if r < 1.0 - args.tolerance
        ]
        if not suspects:
            break
        print(f"\nre-measuring {len(suspects)} suspect workload(s), "
              f"attempt {attempt + 1}:")
        workloads = build_workloads()
        calib = calibration_score(args.repeats)
        for name in suspects:
            units = _best_of(workloads[name], args.repeats) * calib
            ratio = baseline["benchmarks"][name]["calibration_units"] / units
            ratios[name] = max(ratios[name], ratio)
            print(f"{name:28s} {'':>12s} {units:12.3f} {ratios[name]:7.2f}")

    failures = [
        (n, r) for n, r in ratios.items() if r < 1.0 - args.tolerance
    ]
    if failures:
        drops = ", ".join(f"{n} ({(1 - r) * 100:.0f}% slower)" for n, r in failures)
        print(f"\nFAIL: throughput regression beyond "
              f"{args.tolerance * 100:.0f}%: {drops}", file=sys.stderr)
        return 1

    print()
    if not check_symbolic_speedup(repeats=args.repeats):
        # timing-based absolute gate: a loaded host can sink one window,
        # a real regression reproduces on the retry
        print("re-measuring symbolic-lint speedup once:")
        if not check_symbolic_speedup(repeats=args.repeats):
            print("\nFAIL: symbolic cross-scale lint no longer >= 10x "
                  "cheaper than a concrete P=4096 lint on affine apps",
                  file=sys.stderr)
            return 1
    if not check_classbatch_speedup():
        # same retry discipline as the symbolic gate: one loaded window
        # is noise, two in a row is a regression
        print("re-measuring class-batched speedup once:")
        if not check_classbatch_speedup():
            print("\nFAIL: class-batched interpretation no longer >= 3x "
                  "faster than per-rank interpretation on a rank-"
                  "symmetric workload at P=4096",
                  file=sys.stderr)
            return 1
    if not check_wildcard_devirt_engagement():
        # counter-based, deterministic: no retry — a miss is a real bug
        print("\nFAIL: wildcard devirtualization disengaged on the "
              "1024-rank wildcard ring (see counter checks above)",
              file=sys.stderr)
        return 1
    print("\nOK: no benchmark regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
