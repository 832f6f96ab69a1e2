"""Time-to-diagnosis benchmark for the ScalAna reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload diagnose_apps --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer split; ``--workload all`` runs the four workloads in turn.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md.

This file needs only the standard library: it times fresh-interpreter
set-ups and starts ``worker.py`` (``PYTHONPATH=src``) for the measured
operations, so the parent never imports the code under test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
WORKLOADS = ("diagnose_apps", "symmetric_p4096", "lint_scales", "sweep_warm")
#: fresh-interpreter set-ups per untraced run; setup_s is their median
SETUPS = 3
#: a run must end well inside this many seconds
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "minilang.parse_s": "s",
    "psg.build_s": "s",
    "psg.vertices": "count",
    "analysis.scales_s": "s",
    "analysis.lint_s": "s",
    "analysis.witnesses": "count",
    "analysis.witness_ranks": "count",
    "analysis.proven_ratio": "ratio",
    "simulator.start_s": "s",
    "simulator.drain_s": "s",
    "simulator.finish_s": "s",
    "simulator.runs": "count",
    "simulator.events": "count",
    "simulator.mpi_calls": "count",
    "simulator.events_per_s": "1/s",
    "simulator.drain_us_per_event": "us",
    "simulator.batched_ratio": "ratio",
    "simulator.fallbacks": "count",
    "simulator.devirt": "count",
    "simulator.optimizer_errors": "count",
    "runtime.sample_s": "s",
    "runtime.comm_s": "s",
    "runtime.samples": "count",
    "runtime.comm_edges": "count",
    "ppg.build_s": "s",
    "detection.nonscalable_s": "s",
    "detection.abnormal_s": "s",
    "detection.backtrack_s": "s",
    "detection.report_s": "s",
    "detection.root_causes": "count",
    "api.fetch_s": "s",
    "api.store_s": "s",
    "api.cache_hits": "count",
    "api.cache_misses": "count",
    "api.hit_ratio": "ratio",
    "api.bytes_written": "B",
    "unattributed_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    # one client, one thread: no hash-order or BLAS-thread variation
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker_cmd(args, mode: str, setup_dir: Path) -> list[str]:
    return [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--setup-dir", str(setup_dir),
    ]


def timed_setup(args, env: dict, setup_dir: Path, deadline: float,
                clock: calib.Clock) -> tuple[float, float]:
    """Wall seconds from starting a fresh interpreter until it is ready to
    run the first operation, and their calibration factor."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        worker_cmd(args, "setup", setup_dir), stdout=subprocess.PIPE,
        env=env, text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        seconds = time.perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or line != "ready":
        raise BenchError(f"set-up exited with {code}")
    return seconds, clock.factor()


def run_worker(args, env: dict, setup_dir: Path, spans_out: Path,
               deadline: float) -> dict:
    cmd = worker_cmd(args, "run", setup_dir) + ["--spans-out", str(spans_out)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker overran the deadline") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def batch_seconds(latency: dict, ops: list[str]) -> float:
    """The batch's time: the sum over its operations of each one's median
    latency over the run's repetitions."""
    return sum(statistics.median(latency[op]) for op in ops if op in latency)


def end_to_end(record: dict, setups: list[tuple[float, float]]
               ) -> tuple[dict, list[str]]:
    latency = record["latency"]
    pooled = [s for samples in latency.values() for s in samples]
    if not pooled:
        raise BenchError("no operation succeeded")
    # The pooled median of a mix of operation kinds sits on the edge
    # between two kinds, where a single noisy sample moves it by the gap
    # between them (15% IQR/median over five lint_scales runs).  Each
    # sample is therefore replaced by its operation's median first.
    typical = [statistics.median(v) for v in latency.values() for _ in v]
    metrics = {
        "setup_s": statistics.median(s * f for s, f in setups),
        "run_s": batch_seconds(latency, record["ops"]),
        "op_p50_s": statistics.median(typical),
        "peak_rss_mb": record["peak_rss_kib"] / 1024.0,
    }
    reps = min(len(v) for v in latency.values())
    wall_run = batch_seconds(record["wall"], record["ops"])
    wall_setup = statistics.median(s for s, _f in setups)
    notes = [
        f"setup_s: median of {len(setups)} fresh-interpreter set-ups "
        f"(wall {wall_setup:.4f} s)",
        f"run_s: batch of {len(record['ops'])} operation(s), "
        f"{reps}+ repetitions (wall {wall_run:.4f} s)",
        f"op_p50_s: n={len(pooled)}",
    ]
    if len(pooled) >= 100:
        p90 = statistics.quantiles(pooled, n=10)[-1]
        notes.append(f"op_p90_s: {p90:.6f} s (n={len(pooled)})")
    else:
        notes.append(f"op_p90_s: not reported, n={len(pooled)} < 100 "
                     "leaves fewer than 10 samples beyond p90")
    return metrics, notes


def per_layer(record: dict) -> tuple[dict, list[str]]:
    layer_runs = record["layers"]
    metrics = {
        name: statistics.median(run[name] for run in layer_runs)
        for name in layer_runs[0]
    }
    counts = record["counts"][0]
    if any(c != counts for c in record["counts"]):
        raise BenchError("work counts differ between traced batches")
    metrics.update(counts)
    untraced = batch_seconds(record["latency"], record["ops"])
    traced = batch_seconds(record["traced_latency"], record["ops"])
    events = counts["simulator.events"]
    metrics["simulator.events_per_s"] = events / untraced if untraced else 0.0
    metrics["simulator.drain_us_per_event"] = (
        1e6 * metrics["simulator.drain_s"] / events if events else 0.0
    )
    metrics["trace.overhead_s"] = traced - untraced
    total = sum(metrics[n] for n in layer_runs[0])
    notes = [f"traced batch {traced:.4f} s, untraced {untraced:.4f} s "
             f"(reference seconds), {len(layer_runs)} traced batch(es); "
             "self wall time by layer:"]
    for name in sorted(layer_runs[0], key=lambda n: -metrics[n]):
        share = 100.0 * metrics[name] / total if total else 0.0
        notes.append(f"  {name:26s} {metrics[name]:10.4f} s {share:5.1f}%")
    reasons = record["reasons"]
    notes.append(f"optimizer step-asides ({len(reasons)}):")
    notes += [f"  {r}" for r in reasons] or ["  none"]
    return metrics, notes


def run_workload(args, root: Path, workload: str, deadline: float) -> dict:
    """Measure one workload; print its human-readable block and return its
    result object."""
    args = argparse.Namespace(**{**vars(args), "workload": workload})
    env = child_env(root)
    scratch = root / ".perfbench_run" / f"{workload}-{args.seed}-{os.getpid()}"
    spans_out = root / ".perfbench_run" / f"spans-{workload}-seed{args.seed}.json"
    try:
        # traced runs need no set-up timings, but sweep_warm's worker still
        # needs a disk cache filled by an earlier process
        n_setups = SETUPS if not args.trace else int(workload == "sweep_warm")
        clock = calib.Clock()
        setups = [
            timed_setup(args, env, scratch / f"setup{i}", deadline, clock)
            for i in range(n_setups)
        ]
        record = run_worker(args, env, scratch / "setup0", spans_out, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        metrics, notes = per_layer(record)
        units = PER_LAYER
    else:
        metrics, notes = end_to_end(record, setups)
        units = END_TO_END
    missing = set(units) ^ set(metrics)
    if missing:
        raise BenchError(f"metric set mismatch: {sorted(missing)}")

    failed = len(record["failures"])
    attempted = record["attempted"]
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:30s} {metrics[name]:>16.6f} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="ScalAna time-to-diagnosis benchmark")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                    help="one workload, or 'all' to run the four in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from the "
              "repository root", file=sys.stderr)
        return 2
    # byte-compile first, so no set-up pays for it
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src")],
        check=True, stdout=subprocess.DEVNULL,
    )
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(args, root, name, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[args.workload]
    else:  # one object over all workloads, metric names prefixed
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
