"""`repro.obs` — the observability layer: metrics, spans, progress events.

Three stdlib-only primitives (no imports from the rest of ``repro``, so
any layer may use them without cycles):

* :class:`MetricsRegistry` / :class:`RunMetrics` — labeled counters,
  gauges, fixed-bucket histograms with exact snapshot/merge semantics
  (`registry.py`).
* :class:`SpanRecorder` — Chrome-trace spans, structurally free when
  disabled (`spans.py`).
* :class:`EventBus` — streaming progress events with an empty-bus fast
  path (`events.py`).

Process-global instances live here (``obs.registry``, ``obs.tracer``,
``obs.bus``) with module-level conveniences::

    from repro import obs

    obs.registry.counter("sim.engine_runs").inc()
    with obs.span("pipeline.profile", nprocs=64):
        ...
    obs.emit("scale_finished", app="cg", nprocs=64, cached=False)

Everything here is digest-neutral by construction: no metric, span, or
event ever feeds ``AnalysisConfig.digest`` or ``run_fingerprint``.
"""

from __future__ import annotations

from typing import Callable

from .events import Event, EventBus
from .registry import (
    DEFAULT_BUCKETS,
    METRICS_FORMAT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RunMetrics,
    series_key,
)
from .spans import NULL_SPAN, SpanRecorder, null_span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunMetrics",
    "DEFAULT_BUCKETS",
    "METRICS_FORMAT",
    "series_key",
    "SpanRecorder",
    "NULL_SPAN",
    "null_span",
    "Event",
    "EventBus",
    "registry",
    "tracer",
    "bus",
    "span",
    "instant",
    "emit",
    "subscribe",
]

#: Process-global instruments.  Each run's own metrics travel as
#: :class:`RunMetrics` snapshots, never through these globals.
registry = MetricsRegistry()
tracer = SpanRecorder()
bus = EventBus()


def span(name: str, **args: object):
    """``with obs.span("engine.run", nprocs=P):`` — NULL_SPAN when off."""
    return tracer.span(name, **args)


def instant(name: str, **args: object) -> None:
    tracer.instant(name, **args)


def emit(kind: str, **data: object) -> None:
    bus.emit(kind, **data)


def subscribe(callback: Callable[[Event], None]) -> Callable[[], None]:
    return bus.subscribe(callback)
