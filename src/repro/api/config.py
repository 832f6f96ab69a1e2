"""Frozen, validated, JSON-round-trippable analysis configuration.

:class:`AnalysisConfig` captures every knob of a ScalAna analysis that is
*not* the program itself: the machine/network models, the static-analysis
depth, detection thresholds, sampling frequency, seeding, repetition and
aggregation policy, and injected delays.  Two properties make it the unit
of caching:

* it is deeply immutable (``frozen=True`` plus defensive normalization of
  the mutable-looking fields), and
* :meth:`AnalysisConfig.digest` is a stable content hash of its canonical
  JSON form, so *equal configs always hash equal* across processes and
  sessions.

Together with :func:`source_digest` this yields the artifact cache key
``(source digest, config digest, nprocs)`` used by
:class:`repro.api.session.Session`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from collections.abc import Mapping
from typing import Any

from repro.detection.aggregation import AggregationStrategy
from repro.psg import DEFAULT_MAX_LOOP_DEPTH
from repro.runtime.sampling import DEFAULT_FREQ_HZ
from repro.simulator import DelayInjection, MachineModel, NetworkModel

__all__ = ["AnalysisConfig", "source_digest", "canonical_json", "digest_text"]

_FORMAT = "scalana-config-v1"


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, stable float repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_text(text: str) -> str:
    """Short, stable content hash (16 hex chars of SHA-256)."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def source_digest(source: str, filename: str = "<string>") -> str:
    """Content hash of a program: the first third of the cache key."""
    return digest_text(f"{filename}\x00{source}")


def _freq_to_json(freq: float) -> float | str:
    # float('inf') is the documented "exact profile" sentinel but JSON has
    # no Infinity; round-trip it as the string "inf".
    return "inf" if math.isinf(freq) else freq


def _freq_from_json(value: float | str) -> float:
    return float("inf") if value == "inf" else float(value)


@dataclass(frozen=True)
class AnalysisConfig:
    """Every tunable of one analysis, minus the program source.

    The fields mirror the paper's knobs: ``max_loop_depth`` (MaxLoopDepth),
    ``abnorm_thd`` (AbnormThd), ``freq_hz`` (the 200 Hz sampling rate), the
    §VI-A ``repetitions`` averaging, and the machine/network models of the
    simulated cluster.
    """

    params: Mapping[str, Any] = field(default_factory=dict)
    machine: MachineModel = field(default_factory=MachineModel)
    network: NetworkModel = field(default_factory=NetworkModel)
    max_loop_depth: int = DEFAULT_MAX_LOOP_DEPTH
    abnorm_thd: float = 1.3
    freq_hz: float = DEFAULT_FREQ_HZ
    seed: int = 0
    repetitions: int = 1
    aggregation: AggregationStrategy = AggregationStrategy.MEAN
    injected_delays: tuple[DelayInjection, ...] = ()
    #: Run the static MPI lint before the first simulation of a profile
    #: and abort (raising :class:`repro.analysis.LintError`) on
    #: error-severity findings.  **Digest-relevant**, unlike the
    #: observability knobs: it changes which runs are allowed to produce
    #: artifacts, so fail-fast sessions do not share cache entries with
    #: permissive ones.
    lint_fail_fast: bool = False
    #: Attach a :class:`repro.obs.RunMetrics` snapshot to profile
    #: artifacts and detection reports (the report's ``to_json_dict``
    #: gains a ``metrics`` section).  Digest-NEUTRAL: metrics describe how
    #: a run was executed and observed, never what it computed —
    #: fingerprints and canonical report shas are bit-identical on or off
    #: (test-gated).
    obs_metrics: bool = False
    #: Record tracing spans (Chrome-trace timeline) through the pipeline
    #: stages and engine while this config's pipelines run.
    #: Digest-NEUTRAL, same contract as ``obs_metrics``.
    obs_spans: bool = False

    def __post_init__(self) -> None:
        # normalize mutable-looking inputs so the instance is deeply frozen
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "injected_delays", tuple(self.injected_delays))
        if isinstance(self.aggregation, str):
            object.__setattr__(
                self, "aggregation", AggregationStrategy(self.aggregation)
            )
        if self.max_loop_depth < 0:
            raise ValueError("max_loop_depth must be >= 0")
        if self.abnorm_thd <= 1.0:
            raise ValueError("abnorm_thd must be > 1 (it is a max/mean ratio)")
        if not (self.freq_hz > 0):
            raise ValueError("freq_hz must be positive (inf = exact profile)")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not isinstance(self.seed, int):
            raise ValueError("seed must be an int")
        for d in self.injected_delays:
            if not isinstance(d, DelayInjection):
                raise ValueError(f"injected_delays entries must be DelayInjection, got {type(d).__name__}")
        if not isinstance(self.lint_fail_fast, bool):
            raise ValueError("lint_fail_fast must be a bool")
        if not isinstance(self.obs_metrics, bool):
            raise ValueError("obs_metrics must be a bool")
        if not isinstance(self.obs_spans, bool):
            raise ValueError("obs_spans must be a bool")

    # -- derivation ------------------------------------------------------

    def with_overrides(self, **changes: Any) -> "AnalysisConfig":
        """A copy with some fields replaced (validation re-runs)."""
        return replace(self, **changes)

    # -- JSON round trip -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": _FORMAT,
            "params": dict(self.params),
            "machine": dataclasses.asdict(self.machine),
            "network": dataclasses.asdict(self.network),
            "max_loop_depth": self.max_loop_depth,
            "abnorm_thd": self.abnorm_thd,
            "freq_hz": _freq_to_json(self.freq_hz),
            "seed": self.seed,
            "repetitions": self.repetitions,
            "aggregation": self.aggregation.value,
            "injected_delays": [dataclasses.asdict(d) for d in self.injected_delays],
            # non-default-only serialization keeps documents (and, for
            # lint_fail_fast, digests) written before these knobs existed
            # byte-identical to ones written today with the defaults
            **({"lint_fail_fast": True} if self.lint_fail_fast else {}),
            **({"obs_metrics": True} if self.obs_metrics else {}),
            **({"obs_spans": True} if self.obs_spans else {}),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "AnalysisConfig":
        """Load a ``to_dict`` document.  Unknown keys are ignored, so
        documents that still carry a since-removed strategy knob load
        (to the same digest: strategy knobs never entered it)."""
        if doc.get("format", _FORMAT) != _FORMAT:
            raise ValueError(f"not a {_FORMAT} document: {doc.get('format')!r}")
        return cls(
            params=dict(doc.get("params", {})),
            machine=MachineModel(**doc.get("machine", {})),
            network=NetworkModel(**doc.get("network", {})),
            max_loop_depth=int(doc.get("max_loop_depth", DEFAULT_MAX_LOOP_DEPTH)),
            abnorm_thd=float(doc.get("abnorm_thd", 1.3)),
            freq_hz=_freq_from_json(doc.get("freq_hz", DEFAULT_FREQ_HZ)),
            seed=int(doc.get("seed", 0)),
            repetitions=int(doc.get("repetitions", 1)),
            aggregation=AggregationStrategy(doc.get("aggregation", "mean")),
            injected_delays=tuple(
                DelayInjection(**d) for d in doc.get("injected_delays", ())
            ),
            # passed through as loaded, so __post_init__ rejects a non-bool
            # such as "false" (which bool() would turn into True)
            lint_fail_fast=doc.get("lint_fail_fast", False),
            obs_metrics=doc.get("obs_metrics", False),
            obs_spans=doc.get("obs_spans", False),
        )

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "AnalysisConfig":
        return cls.from_dict(json.loads(text))

    # -- content addressing ----------------------------------------------

    def digest(self) -> str:
        """Stable content hash: the second third of the cache key.

        Execution-strategy knobs never entered it, so documents that
        still carry a since-removed one load to the same digest:
        ``from_dict`` ignores the key.
        """
        doc = self.to_dict()
        # observability knobs are digest-neutral: attaching metrics or
        # recording spans never changes what a run computes, so obs-on
        # requests share cache entries with obs-off ones
        doc.pop("obs_metrics", None)
        doc.pop("obs_spans", None)
        # lint_fail_fast stays: an analysis that refuses to profile
        # lint-dirty programs is a different analysis, not a different
        # execution strategy (the key is absent entirely when False, so
        # pre-lint digests are unchanged)
        return digest_text(canonical_json(doc))

    # -- bridges to the execution layers ---------------------------------

    def simulation_config(self, nprocs: int, **overrides: Any):
        """The :class:`repro.simulator.SimulationConfig` for one scale."""
        from repro.simulator import SimulationConfig

        kwargs: dict[str, Any] = dict(
            nprocs=nprocs,
            params=dict(self.params),
            machine=self.machine,
            network=self.network,
            seed=self.seed,
            injected_delays=list(self.injected_delays),
        )
        kwargs.update(overrides)
        return SimulationConfig(**kwargs)

    @classmethod
    def for_app(cls, app, **overrides: Any) -> "AnalysisConfig":
        """Defaults for a registry application (its params/machine/network)."""
        kwargs: dict[str, Any] = dict(params=dict(app.params))
        if app.machine is not None:
            kwargs["machine"] = app.machine
        if app.network is not None:
            kwargs["network"] = app.network
        kwargs.update(overrides)
        return cls(**kwargs)
