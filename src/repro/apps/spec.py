"""Application specification: a named MiniMPI program + run configuration."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.minilang import ast_nodes as ast
from repro.psg import DEFAULT_MAX_LOOP_DEPTH, StaticAnalysisResult
from repro.simulator.costmodel import MachineModel, NetworkModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports us)
    from repro.api.artifacts import StaticArtifact

__all__ = ["AppSpec"]

#: Serializes building a spec's static artifact, so that exactly one
#: artifact per (spec, max_loop_depth) survives threads that race on it.
_STATIC_LOCK = threading.Lock()


@dataclass
class AppSpec:
    """One runnable application (or one variant of it).

    A spec owns its program's static artifact: :meth:`static_artifact`
    parses the source and builds the PSG once per ``max_loop_depth`` and
    per process, and every :meth:`repro.api.Pipeline.for_app` pipeline,
    ``sweep`` cell and bench-harness run on the spec shares that one
    artifact -- and so one ``Program`` and one engine compile cache.
    :attr:`program`, :attr:`static` and :attr:`psg` are views of the
    default-depth artifact.  A spec is mutable: an artifact whose source or
    filename no longer matches the spec's is built again.
    """

    name: str
    source: str
    filename: str
    description: str
    #: default problem parameters (overridable per run)
    params: dict = field(default_factory=dict)
    #: machine override (e.g. Nekbone's per-core memory-speed variance)
    machine: MachineModel | None = None
    network: NetworkModel | None = None
    #: returns True when nprocs is valid for this app (e.g. BT needs squares)
    nprocs_valid: Callable[[int], bool] = lambda p: p >= 1
    #: human description of the constraint, for error messages
    nprocs_note: str = "any process count"
    #: paper code-size reference (KLoC), for the Table II comparison
    paper_kloc: float = 0.0

    #: memoized static artifacts by max_loop_depth (see static_artifact)
    _statics: dict[int, StaticArtifact] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def static_artifact(
        self, max_loop_depth: int = DEFAULT_MAX_LOOP_DEPTH
    ) -> StaticArtifact:
        """This app's parsed program and contracted PSG, built once.

        Built through :class:`repro.api.pipeline.StaticStage`, so it is the
        artifact a fresh ``Pipeline(spec.source, spec.filename)`` would
        build.  Only registry-style specs are memoized this way; arbitrary
        sources given to ``Pipeline`` are parsed per pipeline.
        """
        artifact = self._statics.get(max_loop_depth)
        if artifact is not None and self._matches(artifact):
            return artifact
        from repro.api.config import AnalysisConfig
        from repro.api.pipeline import StaticStage

        with _STATIC_LOCK:
            artifact = self._statics.get(max_loop_depth)
            if artifact is None or not self._matches(artifact):
                artifact = self._statics[max_loop_depth] = StaticStage().run(
                    self.source,
                    self.filename,
                    AnalysisConfig(max_loop_depth=max_loop_depth),
                )
        return artifact

    def _matches(self, artifact: StaticArtifact) -> bool:
        # str equality tests identity first: O(1) while the source is unchanged
        return artifact.source == self.source and artifact.filename == self.filename

    @property
    def program(self) -> ast.Program:
        return self.static_artifact().program

    @property
    def static(self) -> StaticAnalysisResult:
        return self.static_artifact().result

    @property
    def psg(self):
        return self.static_artifact().psg

    def check_nprocs(self, nprocs: int) -> None:
        if not self.nprocs_valid(nprocs):
            raise ValueError(
                f"{self.name} cannot run on {nprocs} processes ({self.nprocs_note})"
            )

    def merged_params(self, overrides: dict | None = None) -> dict:
        merged = dict(self.params)
        if overrides:
            merged.update(overrides)
        return merged
