"""The ``scalana`` command line: static / lint / prof / detect / run / sweep.

Mirrors the paper's four end-user steps (§V), all driven by the
:class:`repro.api.Pipeline`::

    scalana static --app cg
    scalana lint   --app cg --nprocs 8 --json            # static MPI lint
    scalana prof   --app cg --scales 4,8,16 --out profdir/ --jobs 3
    scalana detect --profiles profdir/ --json
    scalana run    --app zeusmp --scales 8,16,32          # all steps in one go
    scalana sweep  --apps cg,ep --scales 4,8,16 --seeds 0,1 --jobs 4

``run`` with a path instead of ``--app`` analyzes a MiniMPI source file.
``--jobs N`` profiles scales in parallel; ``--json`` prints the
machine-readable :class:`DetectionReport`; ``sweep --cache DIR`` reuses
content-addressed profile artifacts across invocations.

Observability (see :mod:`repro.obs`): ``--metrics`` collects execution
metrics and appends them to the output, ``--progress`` streams live
progress events to stderr, ``--trace-out FILE`` records tracing spans
and writes Chrome-trace JSON (open in ``chrome://tracing`` / Perfetto);
``metrics-dump`` prints just the metrics document.  None of these change
analysis results — config digests and report hashes are identical with
observability on or off.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from repro import Pipeline, ScalAna, Session, obs
from repro.api.config import AnalysisConfig
from repro.apps import app_names, get_app, resolve_apps
from repro.tools.export import report_to_json
from repro.tools.storage import load_profile, save_profile
from repro.util.tables import Table, format_bytes

__all__ = ["main", "build_parser"]


def _obs_config(args) -> dict:
    """Observability knobs shared by every simulating command
    (digest-neutral: they never change analysis results or cache keys)."""
    out: dict = {}
    if getattr(args, "metrics", False):
        out["obs_metrics"] = True
    if getattr(args, "trace_out", None):
        out["obs_spans"] = True
    return out


class ProgressRenderer:
    """Render :mod:`repro.obs` progress events as lines on a stream.

    Subscribed to the process event bus for the duration of a command
    when ``--progress`` is given.  Tracks the live cache hit ratio from
    ``cache_hit`` / ``cache_miss`` events (emitted by ``Session.fetch``
    per lookup) and folds it into each per-job line, so long cached
    sweeps show hit rates as they happen rather than at the end.
    """

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.hits = 0
        self.misses = 0

    def _line(self, text: str) -> None:
        print(f"[progress] {text}", file=self.stream, flush=True)

    def _ratio(self) -> str:
        total = self.hits + self.misses
        return f"cache {self.hits}/{total}" if total else "cache -"

    def __call__(self, event: obs.Event) -> None:
        kind, d = event.kind, event.data
        if kind == "cache_hit":
            self.hits += 1
        elif kind == "cache_miss":
            self.misses += 1
        elif kind == "run_started":
            self._line(f"run {d['digest']} scales={d['scales']}")
        elif kind == "scale_started":
            self._line(f"p={d['nprocs']} profiling...")
        elif kind == "scale_finished":
            how = "cached" if d["cached"] else f"{d['seconds']:.2f}s"
            self._line(f"p={d['nprocs']} done ({how})")
        elif kind == "run_finished":
            self._line(f"run finished in {d['seconds']:.2f}s")
        elif kind == "sweep_started":
            self._line(
                f"sweep {d['cells']} cells over {len(d['apps'])} apps "
                f"scales={d['scales']}"
            )
        elif kind == "cell_finished":
            how = "cached" if d["cached"] else "fresh"
            self._line(
                f"[{d['done']}/{d['total']}] {d['app']} p={d['nprocs']} "
                f"({how}, {self._ratio()})"
            )
        elif kind == "sweep_finished":
            self._line(
                f"sweep finished: {d['cells']} cells, "
                f"{d['cache_hits']} cache hits, {d['seconds']:.2f}s"
            )
        elif kind == "lint_scales_started":
            self._line(
                f"lint scales {d['lo']}..{d['hi']} ({d['status']}, "
                f"witnesses {d['witnesses']})"
            )
        elif kind == "lint_witness_finished":
            self._line(f"lint p={d['nprocs']}: {d['findings']} finding(s)")
        elif kind == "lint_scales_finished":
            self._line(f"lint finished: {d['findings']} finding(s) total")


def _tool_from_args(args) -> ScalAna:
    extra = _obs_config(args)
    if args.app:
        return ScalAna.for_app(get_app(args.app), seed=args.seed, **extra)
    if args.source:
        source = Path(args.source).read_text()
        return ScalAna(
            source=source, filename=args.source, seed=args.seed, **extra
        )
    raise SystemExit("need --app NAME or --source FILE")


def _pipeline_from_args(args, session: Session | None = None) -> Pipeline:
    extra = _obs_config(args)
    if args.app:
        return Pipeline.for_app(
            get_app(args.app), seed=args.seed, session=session, **extra
        )
    if args.source:
        source = Path(args.source).read_text()
        return Pipeline(
            source=source,
            filename=args.source,
            config=AnalysisConfig(seed=args.seed, **extra),
            session=session,
        )
    raise SystemExit("need --app NAME or --source FILE")


def _parse_scales(text: str) -> list[int]:
    try:
        scales = [int(x) for x in text.split(",") if x]
    except ValueError:
        raise SystemExit(f"bad --scales value {text!r}; expected e.g. 4,8,16") from None
    if len(scales) < 1:
        raise SystemExit("need at least one scale")
    return scales


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(x) for x in text.split(",") if x]
    except ValueError:
        raise SystemExit(f"bad --seeds value {text!r}; expected e.g. 0,1,2") from None
    return seeds or [0]


def cmd_apps(_args) -> int:
    print("\n".join(app_names()))
    return 0


def cmd_static(args) -> int:
    pipe = _pipeline_from_args(args)
    static = pipe.static()
    stats_before = static.complete_psg.stats()
    stats_after = static.psg.stats()
    table = Table(
        f"Static analysis of {pipe.filename}",
        ["", "total", "Loop", "Branch", "Comp", "MPI", "Call"],
    )
    table.add_row(
        "before contraction", stats_before["total"], stats_before["loop"],
        stats_before["branch"], stats_before["comp"], stats_before["mpi"],
        stats_before["call"],
    )
    table.add_row(
        "after contraction", stats_after["total"], stats_after["loop"],
        stats_after["branch"], stats_after["comp"], stats_after["mpi"],
        stats_after["call"],
    )
    print(table.render())
    print(f"reduction: {static.contracted.reduction * 100:.1f}%")
    return 0


def cmd_lint(args) -> int:
    """Static MPI lint; exit 1 on findings at/above the --fail-on severity.

    ``--nprocs N`` lints one concrete scale; ``--scales all`` (or
    ``4..64``, ``4,8,16``) runs the cross-scale driver — proven over the
    whole range when every endpoint is affine in (rank, P), witness
    sampling otherwise.
    """
    import json as _json

    from repro.analysis import Severity, exceeds_severity

    pipe = _pipeline_from_args(args)
    threshold = Severity(args.fail_on)
    if args.scales:
        valid = get_app(args.app).nprocs_valid if args.app else None
        report = pipe.lint(scales=args.scales, valid=valid)
        findings = [f for _p, f in report.findings]
    else:
        report = pipe.lint(int(args.nprocs))
        findings = list(report.findings)
    if args.json:
        print(_json.dumps(report.to_json_dict(), indent=2))
    else:
        print(report.render())
    return 1 if exceeds_severity(findings, threshold) else 0


def cmd_prof(args) -> int:
    pipe = _pipeline_from_args(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    total_bytes = 0
    artifacts = pipe.profile_scales(_parse_scales(args.scales), jobs=args.jobs)
    for artifact in artifacts:
        run = artifact.run
        path = outdir / f"profile_p{run.nprocs}.json"
        nbytes = save_profile(run, path)
        total_bytes += nbytes
        print(
            f"p={run.nprocs:5d}  app {run.app_time:.4f}s  "
            f"overhead {run.overhead.overhead_percent:.2f}%  "
            f"stored {format_bytes(nbytes)} -> {path}"
        )
    print(f"total profile storage: {format_bytes(total_bytes)}")
    return 0


def cmd_detect(args) -> int:
    pipe = _pipeline_from_args(args)
    profdir = Path(args.profiles)
    files = sorted(profdir.glob("profile_p*.json"))
    if len(files) < 2:
        raise SystemExit(f"{profdir}: need profiles at >= 2 scales (found {len(files)})")
    runs = [load_profile(f) for f in files]
    report = pipe.detect(runs)
    if args.json:
        print(report_to_json(report))
    elif args.show_source:
        print(pipe.report(report, with_source=True).text)
    else:
        print(report.render())
    return 0


def cmd_compare(args) -> int:
    """Table-I-style comparison of the three measurement tools."""
    from repro.baselines import ProfilerTool, TracerTool, classify_wait_states

    tool = _tool_from_args(args)
    static = tool.static_analysis()
    nprocs = int(args.nprocs)
    config = tool.simulation_config(nprocs)
    tracer = TracerTool()
    trace_run = tracer.run(static.program, static.psg, config)
    prof_run = ProfilerTool().run(static.program, static.psg, config)
    scal_run = tool.profile(nprocs)
    table = Table(
        f"Measurement cost at {nprocs} ranks (app {scal_run.app_time:.2f}s)",
        ["tool", "time overhead", "storage"],
    )
    for rep in (trace_run.overhead, prof_run.overhead, scal_run.overhead):
        table.add_row(
            rep.tool, f"{rep.overhead_percent:.2f}%", format_bytes(rep.storage_bytes)
        )
    print(table.render())
    print()
    print(classify_wait_states(trace_run.result).render())
    return 0


def cmd_export(args) -> int:
    """Export the PSG (and optionally a PPG) as DOT/GraphML."""
    from repro.ppg import build_ppg
    from repro.tools.export import ppg_to_dot, psg_to_dot, psg_to_graphml, write_text

    pipe = _pipeline_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n = write_text(psg_to_dot(pipe.psg), out / "psg.dot")
    print(f"wrote {out / 'psg.dot'} ({n} bytes)")
    psg_to_graphml(pipe.psg, out / "psg.graphml")
    print(f"wrote {out / 'psg.graphml'}")
    if args.nprocs:
        run = pipe.profile(int(args.nprocs)).run
        ppg = build_ppg(pipe.psg, run.nprocs, run.profile, run.comm)
        n = write_text(ppg_to_dot(ppg), out / f"ppg_p{run.nprocs}.dot")
        print(f"wrote {out / f'ppg_p{run.nprocs}.dot'} ({n} bytes)")
    return 0


def cmd_timeline(args) -> int:
    """Render an ASCII execution timeline (Vampir-lite)."""
    from repro.tools.timeline import render_timeline
    from repro.tools.viewer import render_wait_summary

    tool = _tool_from_args(args)
    result = tool.run_uninstrumented(int(args.nprocs))
    print(render_timeline(result, width=int(args.width)))
    if args.wait_summary:
        print()
        print(render_wait_summary(result, width=int(args.width) // 2))
    return 0


def cmd_run(args) -> int:
    pipe = _pipeline_from_args(args)
    scales = _parse_scales(args.scales)
    if len(scales) < 2:
        raise SystemExit("run needs >= 2 scales to fit scaling trends")
    artifacts = pipe.profile_scales(scales, jobs=args.jobs)
    report = pipe.detect(artifacts)
    if args.json:
        print(report_to_json(report))
        return 0
    for artifact in artifacts:
        run = artifact.run
        print(
            f"p={run.nprocs:5d}  app {run.app_time:.4f}s  "
            f"overhead {run.overhead.overhead_percent:.2f}%  "
            f"storage {format_bytes(run.overhead.storage_bytes)}"
        )
    print()
    print(pipe.report(report, with_source=args.show_source).text)
    if getattr(args, "metrics", False) and report.metrics is not None:
        print()
        print(report.metrics.render())
    return 0


def cmd_metrics_dump(args) -> int:
    """Run the full analysis with metrics on; print ONLY the metrics JSON.

    The machine-readable counterpart of ``run --metrics``: the document
    is a ``scalana-metrics-v1`` :class:`repro.obs.RunMetrics` snapshot
    (counters summed, gauges maxed, histogram buckets summed exactly
    across every simulation behind the report).
    """
    import json as _json

    pipe = _pipeline_from_args(args)
    scales = _parse_scales(args.scales)
    if len(scales) < 2:
        raise SystemExit("metrics-dump needs >= 2 scales (it runs detection)")
    artifacts = pipe.profile_scales(scales, jobs=args.jobs)
    report = pipe.detect(artifacts)
    assert report.metrics is not None
    print(_json.dumps(report.metrics.to_json_dict(), indent=2, sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    """Pure ground-truth simulation at one scale (no instrumentation).

    The simulator-benchmark entry point: prints makespan, event counts and
    wall-clock.
    """
    import time as _time

    tool = _tool_from_args(args)
    tool.static_analysis()  # parse outside the timed region
    t0 = _time.perf_counter()
    result = tool.run_uninstrumented(int(args.nprocs))
    wall = _time.perf_counter() - t0
    print(f"nprocs      {result.nprocs}")
    print(f"makespan    {result.total_time:.6f}s simulated")
    print(f"events      {result.trace.event_count} "
          f"({result.mpi_call_count} MPI calls, {result.compute_count} compute)")
    print(f"wall clock  {wall:.3f}s "
          f"({result.trace.event_count / max(wall, 1e-9):,.0f} events/s)")
    return 0


def cmd_sweep(args) -> int:
    """Batch-analyze an app × scales × seeds matrix through one session."""
    import json as _json

    try:
        specs = resolve_apps(args.apps)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    scales = _parse_scales(args.scales)
    if len(scales) < 2:
        raise SystemExit("sweep needs >= 2 scales to fit scaling trends")
    session = Session(cache_dir=Path(args.cache) if args.cache else None)
    try:
        results = session.sweep(
            specs, scales, seeds=_parse_seeds(args.seeds), jobs=args.jobs,
            **_obs_config(args),
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.json:
        print(_json.dumps(
            [
                {
                    "app": r.app,
                    "seed": r.seed,
                    "scales": list(r.scales),
                    "cache_hits": r.cache_hits,
                    "report": r.report.to_json_dict(),
                }
                for r in results
            ],
            indent=2,
        ))
        return 0
    table = Table(
        f"Sweep: {len(results)} analyses "
        f"(cache {session.stats.hits} hits / {session.stats.misses} misses)",
        ["app", "seed", "scales", "root causes", "top cause", "cached"],
    )
    for r in results:
        top = r.report.root_causes[0].location if r.report.root_causes else "-"
        table.add_row(
            r.app, r.seed, ",".join(map(str, r.scales)),
            len(r.report.root_causes), top, f"{r.cache_hits}/{len(r.scales)}",
        )
    print(table.render())
    if getattr(args, "metrics", False):
        merged = obs.RunMetrics.merge(
            [r.report.metrics for r in results] + [session.stats.registry.snapshot()]
        )
        print()
        print(merged.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalana",
        description="ScalAna reproduction: scaling-loss root-cause detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--app", help="registry application name (see 'apps')")
        p.add_argument("--source", help="path to a MiniMPI source file")
        p.add_argument("--seed", type=int, default=0)

    def jobs_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=int, default=1,
            help="profile scales in parallel with N workers",
        )

    def obs_args(p: argparse.ArgumentParser, metrics: bool = True) -> None:
        if metrics:
            p.add_argument(
                "--metrics", action="store_true",
                help="collect execution metrics and append them to the "
                     "output (digest-neutral: results are unchanged)",
            )
        p.add_argument(
            "--progress", action="store_true",
            help="stream live progress events to stderr",
        )
        p.add_argument(
            "--trace-out", metavar="FILE",
            help="record tracing spans and write Chrome-trace JSON to "
                 "FILE (open in chrome://tracing or Perfetto)",
        )

    p = sub.add_parser("apps", help="list registry applications")
    p.set_defaults(func=cmd_apps)

    p = sub.add_parser("static", help="run static analysis, print PSG stats")
    common(p)
    p.set_defaults(func=cmd_static)

    p = sub.add_parser(
        "lint",
        help="static MPI communication lint (deadlocks, mismatches, "
             "wildcard and request hygiene) at one scale or across "
             "all scales (--scales)",
    )
    common(p)
    p.add_argument("--nprocs", default="8")
    p.add_argument(
        "--scales", metavar="SPEC",
        help="cross-scale lint instead of one concrete P: 'all', "
             "'LO..HI', or a comma list like 4,8,16",
    )
    p.add_argument(
        "--fail-on", default="error",
        choices=("error", "warning", "info"),
        help="exit 1 when any finding is at least this severe "
             "(default: error)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable findings")
    obs_args(p, metrics=False)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("prof", help="profile at several scales, save to disk")
    common(p)
    p.add_argument("--scales", required=True, help="comma list, e.g. 4,8,16")
    p.add_argument("--out", default="scalana_profiles")
    jobs_arg(p)
    obs_args(p, metrics=False)
    p.set_defaults(func=cmd_prof)

    p = sub.add_parser("detect", help="detect root causes from saved profiles")
    common(p)
    p.add_argument("--profiles", default="scalana_profiles")
    p.add_argument("--show-source", action="store_true")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("run", help="profile + detect in one go")
    common(p)
    p.add_argument("--scales", required=True, help="comma list, e.g. 4,8,16")
    p.add_argument("--show-source", action="store_true")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    jobs_arg(p)
    obs_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "metrics-dump",
        help="run profile + detect with metrics on, print only the "
             "metrics JSON (scalana-metrics-v1)",
    )
    common(p)
    p.add_argument("--scales", required=True, help="comma list, e.g. 4,8,16")
    jobs_arg(p)
    obs_args(p, metrics=False)
    p.set_defaults(func=cmd_metrics_dump, metrics=True)

    p = sub.add_parser(
        "sweep", help="batch-analyze apps x scales x seeds through one session"
    )
    p.add_argument(
        "--apps", required=True,
        help="comma list of app names, or 'all' / 'evaluated'",
    )
    p.add_argument("--scales", required=True, help="comma list, e.g. 4,8,16")
    p.add_argument("--seeds", default="0", help="comma list, e.g. 0,1,2")
    p.add_argument(
        "--cache", help="artifact cache directory (reused across invocations)"
    )
    p.add_argument("--json", action="store_true", help="machine-readable reports")
    jobs_arg(p)
    obs_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "simulate", help="pure ground-truth simulation at one scale"
    )
    common(p)
    p.add_argument("--nprocs", default="64")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="compare tracer/profiler/ScalAna costs")
    common(p)
    p.add_argument("--nprocs", default="32")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("export", help="export PSG/PPG as DOT + GraphML")
    common(p)
    p.add_argument("--out", default="scalana_graphs")
    p.add_argument("--nprocs", help="also export the PPG at this scale")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("timeline", help="ASCII execution timeline")
    common(p)
    p.add_argument("--nprocs", default="16")
    p.add_argument("--width", default="100")
    p.add_argument(
        "--wait-summary", action="store_true",
        help="also print the per-rank compute/MPI/wait split",
    )
    p.set_defaults(func=cmd_timeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    unsub = (
        obs.subscribe(ProgressRenderer())
        if getattr(args, "progress", False)
        else None
    )
    try:
        rc = args.func(args)
        trace_out = getattr(args, "trace_out", None)
        if trace_out:
            obs.tracer.dump(Path(trace_out))
            print(
                f"wrote {trace_out} ({obs.tracer.event_count} trace events)",
                file=sys.stderr,
            )
        return rc
    except BrokenPipeError:
        # output piped into e.g. `head`; exit quietly like other CLIs
        import os

        with contextlib.suppress(Exception):
            sys.stdout.close()
        os._exit(0)
    finally:
        if unsub is not None:
            unsub()


if __name__ == "__main__":
    sys.exit(main())
