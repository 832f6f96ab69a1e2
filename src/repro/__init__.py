"""repro: a reproduction of ScalAna (Jin et al., SC 2020).

ScalAna combines static program analysis with light-weight runtime
profiling to detect the root cause of scaling loss in parallel programs.
This package reimplements the complete system over a MiniMPI language
frontend and a discrete-event MPI simulator (see DESIGN.md for the full
substitution map).

Quickstart (the Pipeline/Session API)
-------------------------------------
>>> from repro import Pipeline, Session
>>> from repro.apps import get_app
>>> session = Session(cache_dir=".scalana_cache")   # or Session() in-memory
>>> pipe = session.pipeline(get_app("cg"))
>>> runs = pipe.profile_scales([4, 8, 16], jobs=3)  # parallel profiling
>>> report = pipe.detect(runs)
>>> print(pipe.report(report, with_source=True).text)

Re-running the same analysis is then free: the session content-addresses
every profiled run by ``(source digest, config digest, nprocs)``, so the
second call performs zero new simulations.  Batch matrices go through
:func:`repro.api.sweep`::

>>> results = session.sweep(["cg", "ep"], [4, 8, 16], seeds=[0, 1], jobs=4)

Every knob lives in one frozen, JSON-round-trippable config:

>>> from repro import AnalysisConfig
>>> cfg = AnalysisConfig(abnorm_thd=2.0, seed=7)
>>> cfg2 = AnalysisConfig.from_json(cfg.to_json())   # cfg2 == cfg
>>> pipe = session.pipeline(get_app("cg"), cfg)

Migrating from the classic ``ScalAna`` facade
---------------------------------------------
:class:`ScalAna` still works and is now a thin wrapper over the stages in
:mod:`repro.api`.  The mapping is mechanical:

==========================================  =====================================
classic facade                              Pipeline/Session API
==========================================  =====================================
``ScalAna.for_app(app, seed=7)``            ``session.pipeline(app, seed=7)``
``tool.static_analysis()``                  ``pipe.static()`` (a StaticArtifact)
``tool.profile(16)``                        ``pipe.profile(16).run``
``tool.profile_scales([4, 8])``             ``pipe.profile_scales([4, 8], jobs=2)``
``tool.detect(runs)``                       ``pipe.detect(runs)``
``tool.view(report)``                       ``pipe.report(report, with_source=True).text``
``analyze_program(src, scales)``            ``session.analyze(src, scales).report``
==========================================  =====================================

New code should prefer the Pipeline/Session API: it adds artifact
caching, ``jobs=N`` parallelism, and batch sweeps that the facade only
exposes partially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.api import (
    AnalysisConfig,
    DetectStage,
    Pipeline,
    ProfileStage,
    ReportStage,
    Session,
    StaticArtifact,
    StaticStage,
    SweepResult,
    source_digest,
    sweep,
)
from repro.apps.spec import AppSpec
from repro.detection import DetectionReport
from repro.detection.aggregation import AggregationStrategy
from repro.psg import DEFAULT_MAX_LOOP_DEPTH, StaticAnalysisResult
from repro.runtime import DEFAULT_FREQ_HZ, ProfiledRun
from repro.simulator import (
    DelayInjection,
    MachineModel,
    NetworkModel,
    SimulationConfig,
    simulate,
)

__version__ = "1.1.0"

__all__ = [
    "ScalAna",
    "analyze_program",
    "AnalysisConfig",
    "Pipeline",
    "Session",
    "StaticStage",
    "ProfileStage",
    "DetectStage",
    "ReportStage",
    "SweepResult",
    "sweep",
    "source_digest",
    "AppSpec",
    "DetectionReport",
    "MachineModel",
    "NetworkModel",
    "SimulationConfig",
    "DelayInjection",
    "__version__",
]


@dataclass
class ScalAna:
    """The classic end-user facade, mirroring the paper's four steps (§V):

    1. ``static_analysis()``  — compile with ScalAna-static (PSG generation),
    2. ``profile(nprocs)``    — run with ScalAna-prof at each scale,
    3. ``detect(runs)``       — ScalAna-detect (offline root-cause analysis),
    4. ``view(report)``       — ScalAna-viewer (text rendering with source).

    Since v1.1 this is a thin wrapper over :mod:`repro.api` — each method
    delegates to the corresponding pipeline stage (see the migration table
    in the package docstring).  User-tunable knobs match the paper:
    ``max_loop_depth`` (MaxLoopDepth), ``abnorm_thd`` (AbnormThd), and the
    200 Hz sampling frequency.
    """

    source: str
    filename: str = "<string>"
    params: dict = field(default_factory=dict)
    machine: MachineModel = field(default_factory=MachineModel)
    network: NetworkModel = field(default_factory=NetworkModel)
    max_loop_depth: int = DEFAULT_MAX_LOOP_DEPTH
    abnorm_thd: float = 1.3
    freq_hz: float = DEFAULT_FREQ_HZ
    seed: int = 0
    injected_delays: list[DelayInjection] = field(default_factory=list)
    aggregation: AggregationStrategy = AggregationStrategy.MEAN
    _static: StaticAnalysisResult | None = field(default=None, repr=False)

    # ------------------------------------------------------------------

    @classmethod
    def for_app(cls, app: AppSpec, **overrides) -> "ScalAna":
        """Build a tool instance for a registry application."""
        kwargs = dict(
            source=app.source,
            filename=app.filename,
            params=dict(app.params),
        )
        if app.machine is not None:
            kwargs["machine"] = app.machine
        if app.network is not None:
            kwargs["network"] = app.network
        kwargs.update(overrides)
        return cls(**kwargs)

    # -- bridge to the new API -------------------------------------------

    def analysis_config(self, **overrides) -> AnalysisConfig:
        """A frozen snapshot of this tool's (mutable) knobs."""
        kwargs = dict(
            params=dict(self.params),
            machine=self.machine,
            network=self.network,
            max_loop_depth=self.max_loop_depth,
            abnorm_thd=self.abnorm_thd,
            freq_hz=self.freq_hz,
            seed=self.seed,
            aggregation=self.aggregation,
            injected_delays=tuple(self.injected_delays),
        )
        kwargs.update(overrides)
        return AnalysisConfig(**kwargs)

    def _static_artifact(self) -> StaticArtifact:
        return StaticArtifact(
            source=self.source,
            filename=self.filename,
            source_digest=source_digest(self.source, self.filename),
            result=self.static_analysis(),
        )

    # -- step 1: ScalAna-static ----------------------------------------------

    def static_analysis(self) -> StaticAnalysisResult:
        if self._static is None:
            self._static = StaticStage().run(
                self.source, self.filename, self.analysis_config()
            ).result
        return self._static

    @property
    def psg(self):
        return self.static_analysis().psg

    # -- step 2: ScalAna-prof --------------------------------------------------

    def simulation_config(self, nprocs: int, **overrides) -> SimulationConfig:
        return self.analysis_config().simulation_config(nprocs, **overrides)

    def profile(
        self, nprocs: int, *, repetitions: int = 1, **config_overrides
    ) -> ProfiledRun:
        """Run the program at ``nprocs`` under ScalAna's runtime.

        ``repetitions > 1`` averages several derived-seed runs, the paper's
        §VI-A methodology for noisy machines.
        """
        config = self.analysis_config(repetitions=repetitions)
        return ProfileStage().run(
            self._static_artifact(), config, nprocs, **config_overrides
        )

    def profile_scales(
        self, scales: Sequence[int], *, repetitions: int = 1, jobs: int = 1
    ) -> list[ProfiledRun]:
        config = self.analysis_config(repetitions=repetitions)
        return ProfileStage().run_scales(
            self._static_artifact(), config, scales, jobs=jobs
        )

    # -- step 3: ScalAna-detect ---------------------------------------------

    def detect(self, runs: Sequence[ProfiledRun]) -> DetectionReport:
        return DetectStage().run(
            self._static_artifact(), self.analysis_config(), runs
        )

    # -- step 4: ScalAna-viewer ------------------------------------------------

    def view(self, report: DetectionReport, context: int = 2) -> str:
        return ReportStage().run(
            report, self._static_artifact(), with_source=True, context=context
        ).text

    # -- convenience -------------------------------------------------------------

    def run_uninstrumented(self, nprocs: int):
        """Plain simulation (no measurement): the baseline for overhead."""
        static = self.static_analysis()
        return simulate(static.program, static.psg, self.simulation_config(nprocs))


def analyze_program(
    source_or_app: str | AppSpec,
    scales: Sequence[int],
    *,
    filename: str = "<string>",
    params: dict | None = None,
    jobs: int = 1,
    session: Session | None = None,
    **config_kwargs,
) -> DetectionReport:
    """One-shot pipeline: static analysis + profiling at ``scales`` + detection.

    A thin wrapper over :class:`repro.api.Pipeline`; pass ``jobs`` to
    profile the scales in parallel and ``session`` to reuse cached runs.
    """
    if isinstance(source_or_app, AppSpec):
        config = AnalysisConfig.for_app(source_or_app, **config_kwargs)
        if params:
            merged = dict(config.params)
            merged.update(params)
            config = config.with_overrides(params=merged)
        pipe = Pipeline.for_app(source_or_app, config, session=session)
    else:
        config = AnalysisConfig(params=dict(params or {}), **config_kwargs)
        pipe = Pipeline(
            source=source_or_app, filename=filename, config=config,
            session=session,
        )
    return pipe.run(scales, jobs=jobs).report
