"""Typed inter-stage artifacts and their content-addressed cache keys.

Each pipeline stage consumes and produces a well-defined artifact type:

========  ==============================  ============================
stage     consumes                        produces
========  ==============================  ============================
static    source text                     :class:`StaticArtifact`
profile   StaticArtifact                  :class:`ProfileArtifact`
detect    StaticArtifact + profiles       :class:`DetectArtifact`
report    DetectArtifact                  :class:`ReportArtifact`
========  ==============================  ============================

A :class:`ArtifactKey` addresses one profile artifact on disk by
``(source digest, config digest, nprocs)``; the key — not the artifact —
is what :class:`repro.api.session.Session` hashes and looks up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.detection import DetectionReport
from repro.psg import StaticAnalysisResult
from repro.runtime import ProfiledRun
from repro.tools.storage import LoadedProfile

__all__ = [
    "ArtifactKey",
    "StaticArtifact",
    "ProfileArtifact",
    "DetectArtifact",
    "ReportArtifact",
    "AnyProfile",
    "run_fingerprint",
    "canonical_report_sha",
]

#: Detection accepts freshly profiled runs and cache-loaded ones alike:
#: both expose ``nprocs`` / ``profile`` / ``comm`` / ``overhead`` / ``app_time``.
AnyProfile = ProfiledRun | LoadedProfile


@dataclass(frozen=True)
class ArtifactKey:
    """Content address of one profiled run."""

    source_digest: str
    config_digest: str
    nprocs: int

    def relative_path(self) -> Path:
        """Where this artifact lives inside a session's cache directory."""
        return Path(f"{self.source_digest}-{self.config_digest}") / (
            f"profile_p{self.nprocs}.json"
        )


@dataclass(frozen=True)
class StaticArtifact:
    """Output of the static stage: the compiled program + its PSG."""

    source: str
    filename: str
    source_digest: str
    result: StaticAnalysisResult

    @property
    def program(self):
        return self.result.program

    @property
    def psg(self):
        return self.result.psg

    @property
    def complete_psg(self):
        return self.result.complete_psg

    @property
    def contracted(self):
        return self.result.contracted


@dataclass(frozen=True)
class ProfileArtifact:
    """Output of the profile stage at one scale, plus its provenance."""

    key: ArtifactKey
    run: AnyProfile
    #: True when the run was loaded from the session cache (no simulation)
    cached: bool = False
    #: Execution metrics of the simulation behind this profile (a
    #: :class:`repro.obs.RunMetrics` snapshot), attached by
    #: ``Pipeline.profile`` when ``AnalysisConfig.obs_metrics`` is set and
    #: the run is fresh (cache-loaded artifacts carry no execution
    #: provenance).  Never part of the content address or fingerprint.
    metrics: object | None = None

    @property
    def nprocs(self) -> int:
        return self.key.nprocs

    @property
    def trace(self):
        """The run's columnar ground-truth TraceBuffer, or None.

        Fresh profiles always carry it (``run.result.trace``); cache-loaded
        profiles only when they were persisted with ``include_trace=True``
        (see :func:`repro.tools.storage.save_profile`).
        """
        result = getattr(self.run, "result", None)
        if result is not None:
            return result.trace
        return getattr(self.run, "trace", None)


@dataclass(frozen=True)
class DetectArtifact:
    """Output of the detect stage over >= 2 profile artifacts."""

    report: DetectionReport
    scales: tuple[int, ...]
    source_digest: str
    config_digest: str


@dataclass(frozen=True)
class ReportArtifact:
    """Output of the report stage: the text shown to the programmer."""

    text: str
    with_source: bool


def run_fingerprint(run: AnyProfile) -> str:
    """Order-independent content hash of everything detection reads.

    Two runs with equal fingerprints are bit-identical as far as the
    offline pipeline is concerned: same sampled performance vectors, same
    communication dependence, same measured app time.  Used to assert that
    the parallel profiling path reproduces the serial one exactly.

    The two sections whose size scales with the run — the sampled perf
    rows and the unique communication edges — are hashed as canonical
    little-endian byte views of their key-sorted columns (one ``update``
    per column block); ragged sections (collective groups, indirect
    targets) keep the textual path.
    Every section is length-prefixed so section boundaries cannot alias.
    """
    h = hashlib.sha256()
    h.update(f"nprocs={run.nprocs};app_time={run.app_time!r};".encode())
    profile, comm = run.profile, run.comm
    order = np.lexsort((profile.vids, profile.ranks))
    h.update(f"P{len(order)};".encode())
    if len(order):
        keys = np.stack((profile.ranks[order], profile.vids[order]), axis=1)
        h.update(np.ascontiguousarray(keys, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(profile.values[order], dtype="<f8").tobytes())
    order = np.lexsort(comm.edge_keys.T[::-1])
    h.update(f"E{len(order)};".encode())
    if len(order):
        h.update(np.ascontiguousarray(comm.edge_keys[order], dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(comm.edge_counts[order], dtype="<i8").tobytes())
        h.update(
            np.ascontiguousarray(comm.edge_max_waits[order], dtype="<f8").tobytes()
        )
    for key in sorted(comm.groups, key=repr):
        h.update(f"G{key!r}:{comm.group_stats[key]!r};".encode())
    for key in sorted(comm.indirect_targets, key=repr):
        h.update(f"I{key!r}:{sorted(comm.indirect_targets[key])!r};".encode())
    return h.hexdigest()[:16]


def canonical_report_sha(report: DetectionReport) -> str:
    """Content hash of a detection report's *analytical* payload.

    Hashes the canonical JSON form with the two provenance fields
    removed: ``detection_seconds`` (wall clock) and ``metrics`` (execution
    metrics, present only under ``obs_metrics``).  Two analyses of the
    same inputs hash equal regardless of execution strategy or
    observability settings — this is the report-level half of the
    bit-identity gate (``run_fingerprint`` is the profile-level half).
    """
    import hashlib as _hashlib
    import json as _json

    doc = report.to_json_dict()
    doc.pop("detection_seconds", None)
    doc.pop("metrics", None)
    text = _json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return _hashlib.sha256(text.encode()).hexdigest()[:16]
