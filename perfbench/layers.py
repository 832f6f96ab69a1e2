"""Traced runs: spans around each layer's public entry point, from outside.

:class:`Tracer` wraps the entry points the pipeline calls -- parse, PSG
build, the engine's start/drain/finish, sampling, comm dependence, PPG,
the detection stages, session fetch/store and the lint drivers -- by
swapping the module (or class) attribute the caller looks up for a
timing wrapper, and puts every original back afterwards.  The code under
test is not modified and runs the same path as untraced.

A span records name, start, end, parent span and operation id; spans stay
in memory and are written out once, when the run ends.  A layer's self
time is its spans' time minus their children's.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

#: (module[:class], attribute, span name) for every traced entry point.
#: The attribute is swapped where the caller looks it up.
ENTRY_POINTS = (
    ("repro.api.pipeline", "parse_program", "minilang.parse"),
    ("repro.api.pipeline", "build_psg", "psg.build"),
    ("repro.analysis", "run_lint_scales", "analysis.scales"),
    ("repro.analysis", "run_lint", "analysis.lint"),
    ("repro.analysis.scaleparam", "run_lint", "analysis.lint"),
    ("repro.simulator.engine:Engine", "start", "simulator.start"),
    ("repro.simulator.engine:Engine", "drain", "simulator.drain"),
    ("repro.simulator.engine:Engine", "finish", "simulator.finish"),
    ("repro.runtime", "sample_result", "runtime.sample"),
    ("repro.runtime", "collect_comm_dependence", "runtime.comm"),
    ("repro.detection", "build_ppg", "ppg.build"),
    ("repro.detection", "detect_non_scalable", "detection.nonscalable"),
    ("repro.detection", "detect_abnormal", "detection.abnormal"),
    ("repro.detection", "backtrack_root_causes", "detection.backtrack"),
    ("repro.detection", "build_report", "detection.report"),
    ("repro.api.session:Session", "fetch", "api.fetch"),
    ("repro.api.session:Session", "store", "api.store"),
)

#: Analyses ``Engine.start`` calls and silently drops on any exception
#: (batching or devirtualization then just switch off).  Traced runs record
#: such an exception, with its reason, and re-raise it unchanged.
OPTIMIZER_ANALYSES = (
    ("repro.analysis.rankdep", "analyze_program"),
    ("repro.analysis.symmetry", "partition_ranks"),
    ("repro.simulator.classbatch", "build_batched_streams"),
    ("repro.analysis.matchorder", "devirt_sources"),
)

#: Per-layer self-time metrics, by span name.
LAYER_TIMES = {
    "minilang.parse": "minilang.parse_s",
    "psg.build": "psg.build_s",
    "analysis.scales": "analysis.scales_s",
    "analysis.lint": "analysis.lint_s",
    "simulator.start": "simulator.start_s",
    "simulator.drain": "simulator.drain_s",
    "simulator.finish": "simulator.finish_s",
    "runtime.sample": "runtime.sample_s",
    "runtime.comm": "runtime.comm_s",
    "ppg.build": "ppg.build_s",
    "detection.nonscalable": "detection.nonscalable_s",
    "detection.abnormal": "detection.abnormal_s",
    "detection.backtrack": "detection.backtrack_s",
    "detection.report": "detection.report_s",
    "api.fetch": "api.fetch_s",
    "api.store": "api.store_s",
}
#: Time inside an operation that no traced entry point covers.
UNATTRIBUTED = "unattributed_s"

#: Engine counters read from ``SimulationResult.metrics`` after each run.
ENGINE_COUNTERS = (
    "engine.trace_events", "engine.mpi_calls", "sim.class_batch.classes",
    "sim.class_batch.ranks_batched", "sim.class_batch.fallbacks",
    "sim.wildcard.devirt",
)


def _resolve(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """In-memory spans and counts for one traced run."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, op id, child seconds]
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: per op id: counts taken at the entry points
        self.counts: dict[int, Counter] = {}
        #: one record per simulation: nprocs, engine counters, reasons
        self.engines: list[dict] = []
        self._op = -1
        self._starting: dict | None = None

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    @contextmanager
    def op(self, op_id: int, name: str):
        """The root span of one operation."""
        self._op = op_id
        self.counts[op_id] = Counter()
        index = self._enter(f"op:{name}")
        try:
            yield
        finally:
            self._exit(index)

    # -- wrappers ----------------------------------------------------------

    def _count(self, name: str, args: tuple, result, before) -> None:
        c = self.counts[self._op]
        if name == "psg.build":
            c["psg.vertices"] += len(result.psg)
        elif name == "analysis.scales":
            c["analysis.scale_lints"] += 1
            c["analysis.proven"] += result.status in ("proven", "exhaustive")
        elif name == "analysis.lint":
            c["analysis.witnesses"] += 1
            c["analysis.witness_ranks"] += args[2]
        elif name == "runtime.sample":
            c["runtime.samples"] += result.total_samples
        elif name == "runtime.comm":
            c["runtime.comm_edges"] += len(result.edges)
        elif name == "detection.report":
            c["detection.root_causes"] += len(result.root_causes)
        elif name == "api.fetch":
            c["api.cache_hits" if result is not None else "api.cache_misses"] += 1
        elif name == "api.store":
            c["api.bytes_written"] += args[0].stats.bytes_written - before
        elif name == "simulator.start":
            c["simulator.runs"] += 1
        elif name == "simulator.finish":
            record = self._engine_record(args[0])
            for key in ENGINE_COUNTERS:
                record[key] = result.metrics.counter(key)
            record["reasons"] = list(args[0].class_batch_reasons)

    def _engine_record(self, engine) -> dict:
        for record in reversed(self.engines):
            if record["engine"] == id(engine):
                return record
        raise LookupError("engine finished without a traced start")

    def _span_wrapper(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = None
            if name == "api.store":
                before = args[0].stats.bytes_written
            elif name == "simulator.start":
                tracer._starting = {
                    "engine": id(args[0]), "op": tracer._op,
                    "nprocs": args[0].config.nprocs, "errors": [],
                }
                tracer.engines.append(tracer._starting)
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
                if name == "simulator.start":
                    tracer._starting = None
            tracer._count(name, args, result, before)
            return result

        return traced

    def _analysis_probe(self, fn, label: str):
        tracer = self

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if tracer._starting is not None:
                    tracer._starting["errors"].append(
                        f"{label} raised {type(exc).__name__}: {exc}"
                    )
                raise

        return probed

    @contextmanager
    def installed(self):
        """Swap every entry point for its traced wrapper; restore on exit."""
        saved = []
        try:
            for target, attr, name in ENTRY_POINTS:
                owner = _resolve(target)
                fn = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._span_wrapper(fn, name))
            for target, attr in OPTIMIZER_ANALYSES:
                owner = _resolve(target)
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._analysis_probe(fn, f"{target}.{attr}"))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- summaries ---------------------------------------------------------

    def self_times(self, op_ids) -> dict[str, float]:
        """Self seconds per layer metric over the given operations."""
        ops = set(op_ids)
        out = dict.fromkeys([*LAYER_TIMES.values(), UNATTRIBUTED], 0.0)
        for name, start, end, _parent, op, child in self.spans:
            if op not in ops:
                continue
            metric = LAYER_TIMES.get(name, UNATTRIBUTED)
            out[metric] += (end - start) - child
        return out

    def batch_counts(self, op_ids) -> dict[str, float]:
        """Work counts of the given operations, with the derived ratios."""
        ops = set(op_ids)
        c: Counter = Counter()
        for op in ops:
            c.update(self.counts.get(op, {}))
        engines = [e for e in self.engines if e["op"] in ops]
        for key in ENGINE_COUNTERS:
            c[key] = sum(e.get(key, 0) for e in engines)
        nprocs = sum(e["nprocs"] for e in engines)
        lookups = c["api.cache_hits"] + c["api.cache_misses"]
        scale_lints = c["analysis.scale_lints"]
        return {
            "psg.vertices": c["psg.vertices"],
            "analysis.witnesses": c["analysis.witnesses"],
            "analysis.witness_ranks": c["analysis.witness_ranks"],
            "analysis.proven_ratio":
                c["analysis.proven"] / scale_lints if scale_lints else 0.0,
            "simulator.runs": c["simulator.runs"],
            "simulator.events": c["engine.trace_events"],
            "simulator.mpi_calls": c["engine.mpi_calls"],
            "simulator.batched_ratio":
                c["sim.class_batch.ranks_batched"] / nprocs if nprocs else 0.0,
            "simulator.fallbacks": c["sim.class_batch.fallbacks"],
            "simulator.devirt": c["sim.wildcard.devirt"],
            "simulator.optimizer_errors": sum(len(e["errors"]) for e in engines),
            "runtime.samples": c["runtime.samples"],
            "runtime.comm_edges": c["runtime.comm_edges"],
            "detection.root_causes": c["detection.root_causes"],
            "api.cache_hits": c["api.cache_hits"],
            "api.cache_misses": c["api.cache_misses"],
            "api.hit_ratio": c["api.cache_hits"] / lookups if lookups else 0.0,
            "api.bytes_written": c["api.bytes_written"],
        }

    def reasons(self) -> list[str]:
        """Why class batching or devirtualization stepped aside, deduplicated:
        the engine's own fallback reasons plus any analysis exception."""
        seen: dict[str, None] = {}
        for e in self.engines:
            for reason in (*e.get("reasons", ()), *e["errors"]):
                seen[f"P={e['nprocs']}: {reason}"] = None
        return list(seen)

    def to_json(self) -> list:
        return [
            [name, start, end, parent, op]
            for name, start, end, parent, op, _child in self.spans
        ]
