"""Sessions: content-addressed artifact caching across analyses.

A :class:`Session` owns a cache directory and hands out pipelines bound to
it.  Profiled runs are addressed by ``(source digest, config digest,
nprocs)`` — see :class:`repro.api.artifacts.ArtifactKey` — and persisted
with :mod:`repro.tools.storage`, the same format ``ScalAna-prof`` writes,
so anything the CLI profiled can warm a session and vice versa.

The contract: *a cache hit performs zero new simulations*.  Analyzing the
same app at the same scale with the same config twice simulates once;
changing any config knob changes the config digest and re-simulates.
The observability knobs are the exception: they are excluded from the
config digest, because they never change what a run computes.
``Session.stats`` reports hits/misses, and
:func:`repro.simulator.simulation_call_count` lets callers (and the test
suite) assert the zero-simulation property directly.

Sessions are thread-safe: the batch :meth:`Session.sweep` and parallel
``profile_scales(jobs > 1)`` funnel through one lock for the in-memory
index while the (pure, deterministic) simulations run concurrently.
"""

from __future__ import annotations

import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Sequence
from typing import Any

from repro import obs
from repro.api.artifacts import AnyProfile, ArtifactKey, DetectArtifact
from repro.api.config import AnalysisConfig
from repro.api.pipeline import Pipeline
from repro.apps.spec import AppSpec
from repro.runtime import ProfiledRun
from repro.tools.storage import load_profile, save_profile

__all__ = ["CacheStats", "Session"]


class CacheStats:
    """Hit/miss accounting for one session.

    A live view over a :class:`repro.obs.MetricsRegistry` (series
    ``cache.hits`` / ``cache.misses`` / ``cache.stores`` /
    ``cache.bytes_written``) — the public read surface (``hits``,
    ``misses``, ``stores``, ``bytes_written``, ``lookups``, ``hit_rate``)
    is unchanged, but the numbers now also travel in any
    :class:`~repro.obs.RunMetrics` snapshot that folds the session's
    registry in (``Pipeline.detect`` does, when ``obs_metrics`` is set).
    """

    __slots__ = ("registry", "_hits", "_misses", "_stores", "_bytes")

    def __init__(self, registry: obs.MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else obs.MetricsRegistry()
        self._hits = self.registry.counter("cache.hits")
        self._misses = self.registry.counter("cache.misses")
        self._stores = self.registry.counter("cache.stores")
        self._bytes = self.registry.counter("cache.bytes_written")

    def record_hit(self) -> None:
        self._hits.inc()

    def record_miss(self) -> None:
        self._misses.inc()

    def record_store(self, nbytes: int) -> None:
        self._stores.inc()
        self._bytes.inc(nbytes)

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def stores(self) -> int:
        return self._stores.value

    @property
    def bytes_written(self) -> int:
        return self._bytes.value

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"stores={self.stores}, bytes_written={self.bytes_written})"
        )


@dataclass
class Session:
    """A scope for repeated analyses sharing one artifact cache.

    ``cache_dir=None`` keeps artifacts in memory only (still deduplicates
    within the process); a path makes them survive across processes.
    """

    cache_dir: Path | None = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._memory: dict[ArtifactKey, AnyProfile] = {}
        self._lock = threading.Lock()

    # -- pipeline factory ------------------------------------------------

    def pipeline(
        self,
        source_or_app: str | AppSpec,
        config: AnalysisConfig | None = None,
        *,
        filename: str = "<string>",
        **config_overrides: Any,
    ) -> Pipeline:
        """A pipeline bound to this session (its profiles hit the cache)."""
        if isinstance(source_or_app, AppSpec):
            return Pipeline.for_app(
                source_or_app, config, session=self, **config_overrides
            )
        if config is None:
            config = AnalysisConfig(**config_overrides)
        elif config_overrides:
            config = config.with_overrides(**config_overrides)
        return Pipeline(
            source=source_or_app, filename=filename, config=config, session=self
        )

    # -- the artifact store ----------------------------------------------

    def _disk_path(self, key: ArtifactKey) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / key.relative_path()

    def fetch(self, key: ArtifactKey) -> AnyProfile | None:
        """The cached run for ``key``, or None (counts a hit or a miss).

        A corrupt or unreadable artifact is a miss, not an error: the bad
        file is dropped and the run re-simulated.
        """
        with self._lock:
            run = self._memory.get(key)
        if run is None:
            path = self._disk_path(key)
            if path is not None and path.exists():
                try:
                    run = load_profile(path)
                except (ValueError, KeyError, OSError):
                    path.unlink(missing_ok=True)
                else:
                    with self._lock:
                        self._memory[key] = run
        # Counter updates are internally locked; the progress event is
        # emitted outside the session lock so a slow subscriber can never
        # serialize concurrent lookups.
        if run is None:
            self.stats.record_miss()
        else:
            self.stats.record_hit()
        obs.emit(
            "cache_hit" if run is not None else "cache_miss",
            digest=key.source_digest,
            nprocs=key.nprocs,
            hits=self.stats.hits,
            misses=self.stats.misses,
        )
        return run

    def store(self, key: ArtifactKey, run: ProfiledRun) -> None:
        """Index a freshly profiled run in memory and (if set) on disk."""
        nbytes = 0
        path = self._disk_path(key)
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            nbytes = save_profile(run, path)
        with self._lock:
            self._memory[key] = run
        self.stats.record_store(nbytes)

    def invalidate(
        self,
        *,
        source_digest: str | None = None,
        config_digest: str | None = None,
    ) -> int:
        """Drop cached artifacts matching the given digests (None = any).

        Returns the number of in-memory entries dropped.  With no filters
        this clears the whole cache.
        """
        def matches(key: ArtifactKey) -> bool:
            return (source_digest is None or key.source_digest == source_digest) and (
                config_digest is None or key.config_digest == config_digest
            )

        with self._lock:
            victims = [k for k in self._memory if matches(k)]
            for k in victims:
                del self._memory[k]
        if self.cache_dir is not None:
            for bucket in self.cache_dir.iterdir():
                if not bucket.is_dir():
                    continue
                src, _, cfg = bucket.name.partition("-")
                if (source_digest is None or src == source_digest) and (
                    config_digest is None or cfg == config_digest
                ):
                    shutil.rmtree(bucket)
        return len(victims)

    # -- one-call analyses -----------------------------------------------

    def analyze(
        self,
        source_or_app: str | AppSpec,
        scales: Sequence[int],
        config: AnalysisConfig | None = None,
        *,
        jobs: int = 1,
        filename: str = "<string>",
        **config_overrides: Any,
    ) -> DetectArtifact:
        """Full pipeline through the cache: the cached :func:`analyze_program`."""
        pipe = self.pipeline(
            source_or_app, config, filename=filename, **config_overrides
        )
        return pipe.run(scales, jobs=jobs)

    def sweep(self, *args: Any, **kwargs: Any):
        """Batch entry point — see :func:`repro.api.sweep.sweep`."""
        from repro.api.sweep import sweep

        return sweep(*args, session=self, **kwargs)
