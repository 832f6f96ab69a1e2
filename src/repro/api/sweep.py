"""Batch analysis: app × scales × seeds matrices in one call.

:func:`sweep` is the fan-out entry point for evaluation-style workloads
("analyze these 11 apps at these 4 scales with 3 seeds each"): it builds
one pipeline per (app, seed) cell, dispatches every (cell, scale)
profiling task onto one thread pool, and runs detection per cell once its
profiles are in.  Static analysis is seed-independent: every cell of one
app adopts the app's own static artifact
(:meth:`~repro.apps.spec.AppSpec.static_artifact`), which is built once
per process, so a repeated sweep parses nothing.  Bound to a
:class:`~repro.api.session.Session`, re-sweeping only simulates the cells
that changed.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from typing import Any

from repro import obs
from repro.api.artifacts import ProfileArtifact
from repro.api.config import AnalysisConfig
from repro.api.pipeline import Pipeline
from repro.api.session import Session
from repro.apps.spec import AppSpec
from repro.detection import DetectionReport

__all__ = ["SweepResult", "sweep", "valid_scales"]


def valid_scales(spec: AppSpec, scales: Sequence[int]) -> list[int]:
    """Filter scales to the app's process-count constraint, mapping invalid
    entries to the nearest smaller valid count (the bench-harness policy,
    e.g. 128 -> 121 for BT/SP)."""
    out: list[int] = []
    for p in scales:
        q = p
        while q > 1 and not spec.nprocs_valid(q):
            q -= 1
        if q >= 2 and spec.nprocs_valid(q) and q not in out:
            out.append(q)
    return sorted(out)


@dataclass(frozen=True)
class SweepResult:
    """One cell of the sweep matrix: (app, seed) analyzed over its scales."""

    app: str
    seed: int
    scales: tuple[int, ...]
    report: DetectionReport
    #: how many of this cell's profiles came from the session cache
    cache_hits: int

    @property
    def cause_locations(self) -> list[str]:
        return self.report.cause_locations()


def _resolve_app(app: str | AppSpec) -> AppSpec:
    if isinstance(app, AppSpec):
        return app
    from repro.apps import get_app

    return get_app(app)


def sweep(
    apps: Iterable[str | AppSpec],
    scales: Sequence[int],
    *,
    seeds: Sequence[int] = (0,),
    session: Session | None = None,
    jobs: int = 1,
    config: AnalysisConfig | None = None,
    **config_overrides: Any,
) -> list[SweepResult]:
    """Analyze every (app, seed) cell at ``scales``, ``jobs`` tasks at a time.

    ``apps`` mixes registry names and :class:`AppSpec` objects.  Scales are
    per-app validity-filtered (see :func:`valid_scales`); cells left with
    fewer than two valid scales are skipped.  Results come back in
    (apps-order, seeds-order).
    """
    specs = [_resolve_app(a) for a in apps]
    cells: list[tuple[AppSpec, int, Pipeline, list[int]]] = []
    skipped: list[str] = []
    for spec in specs:
        cell_scales = valid_scales(spec, scales)
        if len(cell_scales) < 2:
            skipped.append(spec.name)
            warnings.warn(
                f"sweep: skipping {spec.name}: fewer than 2 valid scales "
                f"in {list(scales)} (valid: {cell_scales})",
                stacklevel=2,
            )
            continue
        for seed in seeds:
            cfg = (
                config.with_overrides(seed=seed, **config_overrides)
                if config is not None
                else AnalysisConfig.for_app(spec, seed=seed, **config_overrides)
            )
            pipe = Pipeline.for_app(spec, cfg, session=session)
            cells.append((spec, seed, pipe, cell_scales))
    if specs and not cells:
        raise ValueError(
            f"no app in {[s.name for s in specs]} has >= 2 valid scales "
            f"in {list(scales)}"
        )

    profiles: dict[tuple[int, int], ProfileArtifact] = {}
    tasks = [
        (i, p) for i, (_spec, _seed, _pipe, cell_scales) in enumerate(cells)
        for p in cell_scales
    ]
    obs.emit(
        "sweep_started",
        apps=[spec.name for spec, _s, _p, _cs in cells],
        scales=list(scales),
        cells=len(cells),
    )
    t0 = time.perf_counter()
    done = 0
    if jobs > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            futures = {
                pool.submit(cells[i][2].profile, p): (i, p) for i, p in tasks
            }
            # Consume in *completion* order: progress subscribers (the
            # CLI --progress renderer, a job server) see every job as it
            # lands — with its cache_hit/cache_miss already emitted by
            # Session.fetch — instead of only at submission-order joins,
            # so long cached sweeps show live hit ratios.
            for fut in as_completed(futures):
                i, p = futures[fut]
                profiles[(i, p)] = fut.result()
                done += 1
                obs.emit(
                    "cell_finished",
                    app=cells[i][0].name,
                    nprocs=p,
                    cached=profiles[(i, p)].cached,
                    done=done,
                    total=len(tasks),
                )
    else:
        for i, p in tasks:
            profiles[(i, p)] = cells[i][2].profile(p)
            done += 1
            obs.emit(
                "cell_finished",
                app=cells[i][0].name,
                nprocs=p,
                cached=profiles[(i, p)].cached,
                done=done,
                total=len(tasks),
            )

    results: list[SweepResult] = []
    for i, (spec, seed, pipe, cell_scales) in enumerate(cells):
        artifacts = [profiles[(i, p)] for p in cell_scales]
        report = pipe.detect(artifacts)
        results.append(
            SweepResult(
                app=spec.name,
                seed=seed,
                scales=tuple(cell_scales),
                report=report,
                cache_hits=sum(a.cached for a in artifacts),
            )
        )
    obs.emit(
        "sweep_finished",
        cells=len(results),
        cache_hits=sum(r.cache_hits for r in results),
        seconds=time.perf_counter() - t0,
    )
    return results
