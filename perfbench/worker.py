"""One fresh interpreter that sets up a workload and, in run mode, runs it.

``run.py`` starts this with ``PYTHONPATH=src``; it is not meant to be
called by hand.

  --mode setup   import ``repro``, build the workload's inputs (sweep_warm
                 also runs its cold sweep into --setup-dir), print "ready"
                 and exit.  run.py times this from process start.
  --mode run     set up, then repeat the workload's batch of operations
                 until --seconds is used up, and print one JSON record:
                 per-operation latencies in reference seconds (see
                 calib.py) and in wall seconds, failures, peak memory,
                 and with --trace 1 the per-layer split and the spans.

Closed loop, one client: one operation after another in this process,
``jobs=1``, one simulation shard.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calib
import layers
import workloads


def _run_op(op, op_id: int, out: dict, clock: calib.Clock, tracer=None):
    """Run one operation; record its latency, in reference and in wall
    seconds, or its failure.  Returns the operation's fingerprint (None
    when it failed)."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            with tracer.op(op_id, op.name):
                result = op.run()
        seconds = time.perf_counter() - t0
        problem = op.check(result)
    except Exception as exc:  # the loop must go on: count it and report it
        traceback.print_exc(file=sys.stderr)
        problem = f"raised {type(exc).__name__}: {exc}"
    factor = clock.factor()
    out["attempted"] += 1
    if problem is not None:
        out["failures"].append(f"{op.name}: {problem}")
        return None
    out["latency"].setdefault(op.name, []).append(seconds * factor)
    out["wall"].setdefault(op.name, []).append(seconds)
    return op.fingerprint(result)


def _repeat(seconds: float, min_batches: int, batch) -> None:
    """Call ``batch()`` until the next call would overrun ``seconds``."""
    start = time.perf_counter()
    took: list[float] = []
    while len(took) < min_batches or (
        time.perf_counter() - start + statistics.median(took) <= seconds
    ):
        t0 = time.perf_counter()
        batch()
        took.append(time.perf_counter() - t0)


def _record() -> dict:
    return {"attempted": 0, "failures": [], "latency": {}, "wall": {}}


def warm_up(wl, clock: calib.Clock) -> dict:
    """One batch before timing starts: the first operations of a process
    pay for lazy imports and heap growth.  Its answers are still checked;
    its latencies are dropped."""
    out = _record()
    for op in wl.ops:
        _run_op(op, -1, out, clock)
    out.update(latency={}, wall={})
    return out


def run_untraced(wl, seconds: float) -> dict:
    clock = calib.Clock()
    out = warm_up(wl, clock)

    def batch():
        for i, op in enumerate(wl.ops):
            _run_op(op, i, out, clock)

    _repeat(seconds, 3, batch)
    return out


def run_traced(wl, seconds: float, spans_out: Path) -> dict:
    """Alternate an untraced and a traced batch.  The traced operation must
    give the same answer as the untraced one just before it."""
    clock = calib.Clock()
    out = warm_up(wl, clock)
    traced = _record()
    tracer = layers.Tracer()
    batches: list[list[int]] = []

    def pair():
        ids = []
        plain = [_run_op(op, -1, out, clock) for op in wl.ops]
        with tracer.installed():
            for i, op in enumerate(wl.ops):
                op_id = len(batches) * len(wl.ops) + i
                ids.append(op_id)
                got = _run_op(op, op_id, traced, clock, tracer)
                if got is not None and plain[i] is not None and got != plain[i]:
                    traced["failures"].append(
                        f"{op.name}: traced answer differs from untraced"
                    )
        batches.append(ids)

    _repeat(seconds, 2, pair)
    out["attempted"] += traced["attempted"]
    out["failures"] += traced["failures"]
    out["traced_latency"] = traced["latency"]
    out["layers"] = [tracer.self_times(ids) for ids in batches]
    out["counts"] = [tracer.batch_counts(ids) for ids in batches]
    out["reasons"] = tracer.reasons()
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    spans_out.write_text(json.dumps({
        "workload": wl.name,
        "ops": [op.name for op in wl.ops],
        "batches": batches,
        "spans": tracer.to_json(),
    }))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-dir", type=Path, required=True)
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args()

    args.setup_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(
        args.workload, args.seed, args.setup_dir,
        fill_cache=args.mode == "setup",
    )
    if args.mode == "setup":
        print("ready", flush=True)
        return 0
    if args.trace:
        record = run_traced(wl, args.seconds, args.spans_out)
    else:
        record = run_untraced(wl, args.seconds)
    record["ops"] = [op.name for op in wl.ops]
    record["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
