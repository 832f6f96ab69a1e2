"""The composable analysis pipeline: four explicit, individually-invokable stages.

The paper's four end-user steps (§V) become four stage objects with typed
artifacts between them::

    StaticStage  : source text      -> StaticArtifact   (PSG generation)
    ProfileStage : StaticArtifact   -> ProfileArtifact  (one per scale)
    DetectStage  : profiles         -> DetectArtifact   (root-cause analysis)
    ReportStage  : DetectArtifact   -> ReportArtifact   (text rendering)

:class:`Pipeline` wires them together for one (source, config) pair,
memoizes the static artifact, fans profiling out over a thread pool
(``jobs > 1``), and — when bound to a :class:`repro.api.session.Session` —
turns repeated profiling of the same (source, config, scale) into cache
hits instead of re-simulations.

Stages are stateless: every ``run`` call takes all its inputs explicitly,
so stages can be reused across pipelines, called directly in tests, and
executed concurrently from multiple threads.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro import obs
from repro.api.artifacts import (
    AnyProfile,
    ArtifactKey,
    DetectArtifact,
    ProfileArtifact,
    ReportArtifact,
    StaticArtifact,
)
from repro.api.config import AnalysisConfig, source_digest
from repro.detection import (
    AbnormalConfig,
    BacktrackConfig,
    DetectionReport,
    NonScalableConfig,
    detect_scaling_loss,
)
from repro.minilang import parse_program
from repro.psg import build_psg
from repro.runtime import ProfiledRun, profile_run

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session imports us)
    from repro.api.session import Session
    from repro.apps.spec import AppSpec

__all__ = [
    "StaticStage",
    "ProfileStage",
    "DetectStage",
    "ReportStage",
    "Pipeline",
]


class StaticStage:
    """Step 1, ``ScalAna-static``: parse + build the contracted PSG.

    Also hosts the static MPI lint (:meth:`lint`): it consumes only the
    static artifact plus a process count, needs no machine/network model,
    and runs before any simulation — the natural "step 1.5".
    """

    name = "static"

    def run(
        self, source: str, filename: str, config: AnalysisConfig
    ) -> StaticArtifact:
        with obs.span("pipeline.static", filename=filename):
            program = parse_program(source, filename)
            result = build_psg(program, max_loop_depth=config.max_loop_depth)
        return StaticArtifact(
            source=source,
            filename=filename,
            source_digest=source_digest(source, filename),
            result=result,
        )

    def lint(
        self, static: StaticArtifact, config: AnalysisConfig, nprocs: int
    ):
        """Static MPI communication lint at one scale.

        Returns a :class:`repro.analysis.LintReport` — structured
        findings (unmatched sends/receives, tag and root mismatches,
        deadlock cycles, collective divergence, wildcard hygiene,
        nonblocking-request hygiene) with source spans, plus the
        behavioral rank partition.
        """
        from repro.analysis import run_lint

        return run_lint(
            static.program, static.psg, nprocs, config.params
        )

    def lint_scales(
        self,
        static: StaticArtifact,
        config: AnalysisConfig,
        scales="all",
        *,
        valid=None,
    ):
        """Cross-scale lint: one verdict over a whole range of P.

        ``scales`` is ``"all"`` (every P >= 2), ``"LO..HI"``, a comma
        list / sequence of concrete scales, or an ``(lo, hi)`` tuple.
        Returns a :class:`repro.analysis.ScaleLintReport`: when every
        endpoint stays affine in (rank, P) the verdict is *proven* over
        the range from a finite witness window; otherwise it degrades to
        sampled witnesses with the reasons documented.  Each witness is
        the unmodified concrete :func:`repro.analysis.run_lint`, so
        per-scale results are bit-identical to :meth:`lint`.
        """
        from repro.analysis import run_lint_scales

        return run_lint_scales(
            static.program,
            static.psg,
            scales,
            config.params,
            valid=valid,
        )


class ProfileStage:
    """Step 2, ``ScalAna-prof``: simulate + sample at one or many scales.

    ``run_scales(jobs=N)`` fans different scales over a thread pool.
    """

    name = "profile"

    def run(
        self,
        static: StaticArtifact,
        config: AnalysisConfig,
        nprocs: int,
        **sim_overrides,
    ) -> ProfiledRun:
        obs.emit("scale_started", nprocs=nprocs)
        t0 = time.perf_counter()
        with obs.span("pipeline.profile", nprocs=nprocs):
            if config.lint_fail_fast:
                from repro.analysis import LintError

                report = StaticStage().lint(static, config, nprocs)
                if report.errors:
                    raise LintError(report)
            sim_config = config.simulation_config(nprocs, **sim_overrides)
            if config.repetitions > 1:
                from repro.runtime import profile_run_averaged

                run = profile_run_averaged(
                    static.program,
                    static.psg,
                    sim_config,
                    repetitions=config.repetitions,
                    freq_hz=config.freq_hz,
                )
            else:
                run = profile_run(
                    static.program, static.psg, sim_config,
                    freq_hz=config.freq_hz,
                )
        obs.emit(
            "scale_finished",
            nprocs=nprocs,
            cached=False,
            seconds=time.perf_counter() - t0,
        )
        return run

    def run_scales(
        self,
        static: StaticArtifact,
        config: AnalysisConfig,
        scales: Sequence[int],
        *,
        jobs: int = 1,
    ) -> list[ProfiledRun]:
        """Profile at every scale, fanning out over ``jobs`` worker threads.

        The simulator is deterministic (all randomness derives from the
        config seed and runs share no mutable state), so the parallel path
        produces bit-identical runs to the serial one — only wall-clock
        differs.  Results come back in ``scales`` order regardless of
        completion order.
        """
        scales = list(scales)
        if jobs <= 1 or len(scales) <= 1:
            return [self.run(static, config, p) for p in scales]
        with ThreadPoolExecutor(max_workers=min(jobs, len(scales))) as pool:
            futures = [
                pool.submit(self.run, static, config, p) for p in scales
            ]
            return [f.result() for f in futures]


class DetectStage:
    """Step 3, ``ScalAna-detect``: offline root-cause analysis."""

    name = "detect"

    def run(
        self,
        static: StaticArtifact,
        config: AnalysisConfig,
        runs: Sequence[AnyProfile],
    ) -> DetectionReport:
        with obs.span("pipeline.detect", runs=len(runs)):
            return detect_scaling_loss(
                runs,
                psg=static.psg,
                nonscalable_config=NonScalableConfig(strategy=config.aggregation),
                abnormal_config=AbnormalConfig(abnorm_thd=config.abnorm_thd),
                backtrack_config=BacktrackConfig(),
            )


class ReportStage:
    """Step 4, ``ScalAna-viewer``: text rendering, optionally with source."""

    name = "report"

    def run(
        self,
        report: DetectionReport,
        static: StaticArtifact | None = None,
        *,
        with_source: bool = False,
        context: int = 2,
    ) -> ReportArtifact:
        with obs.span("pipeline.report", with_source=with_source):
            if with_source:
                if static is None:
                    raise ValueError("with_source=True needs the StaticArtifact")
                from repro.tools.viewer import render_report_with_source

                text = render_report_with_source(
                    report, static.source, context=context
                )
            else:
                text = report.render()
        return ReportArtifact(text=text, with_source=with_source)


class Pipeline:
    """One analysis: a (source, config) pair threaded through the stages.

    >>> pipe = Pipeline.for_app(get_app("cg"))
    >>> runs = pipe.profile_scales([4, 8, 16], jobs=3)
    >>> report = pipe.detect(runs)
    >>> print(pipe.report(report).text)

    Bind a :class:`~repro.api.session.Session` (or build pipelines via
    ``session.pipeline(...)``) to content-address the profiled runs on
    disk: re-profiling the same (source, config, scale) then loads the
    artifact instead of re-simulating.
    """

    def __init__(
        self,
        source: str,
        filename: str = "<string>",
        config: AnalysisConfig | None = None,
        *,
        session: "Session" | None = None,
    ) -> None:
        self.source = source
        self.filename = filename
        self.config = config if config is not None else AnalysisConfig()
        self.session = session
        self.static_stage = StaticStage()
        self.profile_stage = ProfileStage()
        self.detect_stage = DetectStage()
        self.report_stage = ReportStage()
        self._static: StaticArtifact | None = None

    @classmethod
    def for_app(
        cls,
        app: "AppSpec",
        config: AnalysisConfig | None = None,
        *,
        session: "Session" | None = None,
        **config_overrides,
    ) -> "Pipeline":
        """A pipeline for a registry application, config from its defaults."""
        if config is None:
            config = AnalysisConfig.for_app(app, **config_overrides)
        elif config_overrides:
            config = config.with_overrides(**config_overrides)
        return cls(
            source=app.source,
            filename=app.filename,
            config=config,
            session=session,
        )

    # -- observability ----------------------------------------------------

    def _span_scope(self):
        """Tracer enablement for one entry-point call.

        Recording is scoped, not global: spans accumulate only while a
        pipeline whose config asks for them (``obs_spans=True``) is
        actually running.  The scope nests, so a traced ``run`` calling
        traced ``profile_scales`` composes; with the knob off this is a
        shared ``nullcontext`` and the stage spans degrade to the
        recorder's null-singleton fast path.
        """
        if self.config.obs_spans:
            return obs.tracer.enabled_scope()
        return nullcontext()

    def _run_metrics(self, run) -> "obs.RunMetrics | None":
        """The simulation metrics behind a fresh run, if asked for."""
        if not self.config.obs_metrics:
            return None
        result = getattr(run, "result", None)
        return getattr(result, "metrics", None)

    # -- content addressing ----------------------------------------------

    @property
    def source_digest(self) -> str:
        return source_digest(self.source, self.filename)

    def artifact_key(self, nprocs: int) -> ArtifactKey:
        return ArtifactKey(
            source_digest=self.source_digest,
            config_digest=self.config.digest(),
            nprocs=nprocs,
        )

    # -- stage 1 ---------------------------------------------------------

    def static(self) -> StaticArtifact:
        """The memoized static artifact (parse + PSG happen once)."""
        if self._static is None:
            self._static = self.static_stage.run(
                self.source, self.filename, self.config
            )
        return self._static

    def adopt_static(self, artifact: StaticArtifact) -> None:
        """Reuse a static artifact computed elsewhere (same source only).

        Static analysis depends on the source and ``max_loop_depth`` but
        not on runtime knobs like the seed, so batch drivers share one
        artifact across many same-program pipelines.
        """
        if artifact.source_digest != self.source_digest:
            raise ValueError(
                "static artifact is for a different program "
                f"({artifact.source_digest} != {self.source_digest})"
            )
        self._static = artifact

    @property
    def psg(self):
        return self.static().psg

    def lint(self, nprocs: int | None = None, *, scales=None, valid=None):
        """Static MPI lint — one scale, or a whole range of scales.

        ``lint(8)`` returns the concrete
        :class:`repro.analysis.LintReport` at P=8.  ``lint(scales="all")``
        (or ``"4..64"``, ``[4, 8, 16]``, ``(lo, hi)``) returns the
        cross-scale :class:`repro.analysis.ScaleLintReport` — proven over
        the range when endpoints stay affine in (rank, P), sampled
        witnesses otherwise.  ``valid`` optionally restricts which P are
        legal for the program (e.g. perfect squares).
        """
        if scales is not None:
            if nprocs is not None:
                raise ValueError("pass either nprocs or scales, not both")
            with self._span_scope():
                return self.static_stage.lint_scales(
                    self.static(), self.config, scales, valid=valid
                )
        if nprocs is None:
            raise ValueError("lint needs nprocs or scales")
        with self._span_scope():
            return self.static_stage.lint(self.static(), self.config, nprocs)

    # -- stage 2 ---------------------------------------------------------

    def profile(self, nprocs: int) -> ProfileArtifact:
        """Profile one scale, through the session cache when bound."""
        key = self.artifact_key(nprocs)
        with self._span_scope():
            if self.session is not None:
                with obs.span("session.fetch", nprocs=nprocs):
                    cached = self.session.fetch(key)
                if cached is not None:
                    obs.emit(
                        "scale_finished", nprocs=nprocs, cached=True,
                        seconds=0.0,
                    )
                    return ProfileArtifact(key=key, run=cached, cached=True)
            run = self.profile_stage.run(self.static(), self.config, nprocs)
            if self.session is not None:
                self.session.store(key, run)
        return ProfileArtifact(
            key=key, run=run, cached=False, metrics=self._run_metrics(run)
        )

    def profile_scales(
        self, scales: Sequence[int], *, jobs: int = 1
    ) -> list[ProfileArtifact]:
        """Profile every scale; cache hits resolve first, misses fan out."""
        scales = list(scales)
        artifacts: dict[int, ProfileArtifact] = {}
        missing: list[int] = []
        with self._span_scope():
            if self.session is not None:
                for p in scales:
                    key = self.artifact_key(p)
                    with obs.span("session.fetch", nprocs=p):
                        cached = self.session.fetch(key)
                    if cached is not None:
                        obs.emit(
                            "scale_finished", nprocs=p, cached=True,
                            seconds=0.0,
                        )
                        artifacts[p] = ProfileArtifact(
                            key=key, run=cached, cached=True
                        )
                    else:
                        missing.append(p)
            else:
                missing = scales
            if missing:
                static = self.static()  # materialize once, outside the pool
                runs = self.profile_stage.run_scales(
                    static, self.config, missing, jobs=jobs
                )
                for p, run in zip(missing, runs):
                    key = self.artifact_key(p)
                    if self.session is not None:
                        self.session.store(key, run)
                    artifacts[p] = ProfileArtifact(
                        key=key, run=run, cached=False,
                        metrics=self._run_metrics(run),
                    )
        return [artifacts[p] for p in scales]

    # -- stage 3 ---------------------------------------------------------

    def detect(
        self, runs: Sequence[ProfileArtifact | AnyProfile]
    ) -> DetectionReport:
        """Detect over profile artifacts (or raw runs, for compatibility).

        With ``obs_metrics`` set, the report carries a merged
        :class:`repro.obs.RunMetrics` over the input artifacts' simulation
        metrics — the ``metrics`` section of ``report.to_json_dict()``.
        Session cache counters are deliberately *not* folded in: they are
        session-global (``session.stats``), and one session serves many
        reports, so per-report inclusion would double-count on merge.
        """
        plain = [r.run if isinstance(r, ProfileArtifact) else r for r in runs]
        with self._span_scope():
            report = self.detect_stage.run(self.static(), self.config, plain)
        if self.config.obs_metrics:
            report.metrics = obs.RunMetrics.merge(
                [r.metrics for r in runs if isinstance(r, ProfileArtifact)]
            )
        return report

    # -- stage 4 ---------------------------------------------------------

    def report(
        self,
        report: DetectionReport,
        *,
        with_source: bool = False,
        context: int = 2,
    ) -> ReportArtifact:
        return self.report_stage.run(
            report, self.static(), with_source=with_source, context=context
        )

    # -- all four in one go ----------------------------------------------

    def run(
        self, scales: Sequence[int], *, jobs: int = 1
    ) -> DetectArtifact:
        """static -> profile (parallel) -> detect, returning the artifact."""
        if not scales:
            raise ValueError("need at least one scale")
        obs.emit(
            "run_started", digest=self.source_digest, scales=list(scales)
        )
        t0 = time.perf_counter()
        with self._span_scope():
            artifacts = self.profile_scales(scales, jobs=jobs)
            report = self.detect(artifacts)
        obs.emit(
            "run_finished",
            digest=self.source_digest,
            scales=list(scales),
            seconds=time.perf_counter() - t0,
        )
        return DetectArtifact(
            report=report,
            scales=tuple(sorted(scales)),
            source_digest=self.source_digest,
            config_digest=self.config.digest(),
        )
