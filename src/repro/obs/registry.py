"""The metrics registry: counters, gauges and fixed-bucket histograms.

The design constraint is the same one the source paper applies to its own
subject: observation must cost near-nothing when off and a *quantified*
near-nothing when on.  Three consequences shape the API:

* **Aggregate granularity.**  Instruments are meant to be driven from
  round/drain/run boundaries, never from per-event hot-loop code.  The
  engine, for example, folds its existing aggregate counters into a
  registry once per run (:meth:`repro.simulator.Engine.metrics_snapshot`).
* **Snapshot/merge semantics.**  A :class:`MetricsRegistry` is a live,
  mutable, thread-safe instrument store; a :class:`RunMetrics` is its
  frozen, picklable snapshot.  ``RunMetrics.merge`` folds the snapshots of
  every simulation behind a report: counters and histogram buckets sum
  exactly, gauges keep the maximum.
* **Digest neutrality.**  Nothing here ever feeds a config digest or a
  run fingerprint: metrics describe how a run was *executed and observed*,
  not what it computed.

Series are labeled: ``registry.counter("cache.hits", app="cg")`` and
``registry.counter("cache.hits", app="ep")`` are distinct series of the
same metric, rendered as ``cache.hits{app=cg}`` in snapshots and JSON.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunMetrics",
    "DEFAULT_BUCKETS",
    "METRICS_FORMAT",
    "series_key",
]

METRICS_FORMAT = "scalana-metrics-v1"

#: Default histogram bucket upper bounds: log-spaced from 1 µs to ~100 s,
#: a range that covers both simulated timestamps and wall-clock latencies.
#: The last bucket is implicit +inf (everything above the largest bound).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0, 120.0,
)


def series_key(name: str, labels: Mapping[str, object]) -> str:
    """Canonical series identifier: ``name`` or ``name{k=v,...}`` (sorted).

    The key doubles as the JSON dictionary key, so snapshots round-trip
    without a separate label encoding.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing number (int or float).

    Increments are lock-protected so concurrent profiling jobs
    (``run_scales(jobs=N)`` thread pools) sum exactly — the merge tests
    assert equality, not approximation.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value: int | float = 0
        self._lock = threading.Lock()

    def inc(self, n: int | float = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """A point-in-time value; merge keeps the maximum across snapshots."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket histogram (cumulative-free, per-bucket counts).

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    buckets; one implicit overflow bucket catches everything above the
    last bound, so ``counts`` has ``len(bounds) + 1`` entries.  Fixed
    bounds are what make merges exact: same bounds, elementwise sum.
    """

    __slots__ = ("bounds", "counts", "total", "count", "_lock")

    def __init__(self, bounds: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds or list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted and non-empty")
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        i = bisect_right(self.bounds, value)
        with self._lock:
            self.counts[i] += 1
            self.total += value
            self.count += 1

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (0 <= q <= 1).

        Returns the upper bound of the bucket containing the q-th
        observation (the overflow bucket reports the largest bound) —
        the usual fixed-bucket percentile, good enough for latency
        dashboards, never used for anything digest-relevant.
        """
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target and c:
                return self.bounds[min(i, len(self.bounds) - 1)]
        return self.bounds[-1]


@dataclass(frozen=True)
class RunMetrics:
    """A frozen, picklable snapshot of one registry.

    This is what attaches to ``ProfileArtifact`` / ``DetectionReport``
    and lands in the
    ``metrics`` section of JSON reports.  Keys are :func:`series_key`
    strings; histogram values are plain dicts so the whole object is JSON
    without further encoding.
    """

    counters: dict[str, int | float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)

    # -- accessors -------------------------------------------------------

    def counter(self, key: str, default: int | float = 0) -> int | float:
        return self.counters.get(key, default)

    def gauge(self, key: str, default: float = 0.0) -> float:
        return self.gauges.get(key, default)

    def _quantile_bucket(self, key: str, q: float) -> int | None:
        """Index of the bucket holding the q-th observation (an index of
        ``len(bounds)`` means the overflow bucket), or None when empty."""
        doc = self.histograms.get(key)
        if not doc or not doc["count"]:
            return None
        target = q * doc["count"]
        seen = 0
        for i, c in enumerate(doc["counts"]):
            seen += c
            if seen >= target and c:
                return i
        return len(doc["counts"]) - 1

    def histogram_quantile(self, key: str, q: float) -> float:
        """Upper bound of the bucket holding the q-th observation (the
        overflow bucket reports the largest bound; see ``render`` for the
        honest ``>bound`` form)."""
        i = self._quantile_bucket(key, q)
        if i is None:
            return 0.0
        bounds = self.histograms[key]["bounds"]
        return bounds[min(i, len(bounds) - 1)]

    # -- merge -------------------------------------------------------------

    @classmethod
    def merge(cls, parts: Iterable["RunMetrics | None"]) -> "RunMetrics":
        """Sum counters and histogram buckets exactly; gauges keep max.

        ``None`` parts are skipped so callers can merge optional per-run
        metrics without filtering first.  Histogram merges require equal
        bounds — the registry is the only writer, so a mismatch is a
        programming error, reported loudly.
        """
        counters: dict[str, int | float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for part in parts:
            if part is None:
                continue
            for key, value in part.counters.items():
                counters[key] = counters.get(key, 0) + value
            for key, value in part.gauges.items():
                gauges[key] = max(gauges.get(key, value), value)
            for key, doc in part.histograms.items():
                have = histograms.get(key)
                if have is None:
                    histograms[key] = {
                        "bounds": list(doc["bounds"]),
                        "counts": list(doc["counts"]),
                        "sum": doc["sum"],
                        "count": doc["count"],
                    }
                    continue
                if list(have["bounds"]) != list(doc["bounds"]):
                    raise ValueError(
                        f"histogram {key!r}: cannot merge differing bounds"
                    )
                have["counts"] = [
                    a + b for a, b in zip(have["counts"], doc["counts"])
                ]
                have["sum"] += doc["sum"]
                have["count"] += doc["count"]
        return cls(counters=counters, gauges=gauges, histograms=histograms)

    # -- JSON ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "format": METRICS_FORMAT,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                k: {
                    "bounds": list(v["bounds"]),
                    "counts": list(v["counts"]),
                    "sum": v["sum"],
                    "count": v["count"],
                }
                for k, v in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "RunMetrics":
        """Parse + validate a metrics document (the CI schema check)."""
        if doc.get("format") != METRICS_FORMAT:
            raise ValueError(
                f"not a {METRICS_FORMAT} document: {doc.get('format')!r}"
            )
        counters = dict(doc.get("counters", {}))
        for key, value in counters.items():
            if not isinstance(value, (int, float)):
                raise ValueError(f"counter {key!r} is not numeric: {value!r}")
        gauges = {k: float(v) for k, v in doc.get("gauges", {}).items()}
        histograms: dict[str, dict] = {}
        for key, h in doc.get("histograms", {}).items():
            bounds = [float(b) for b in h["bounds"]]
            counts = [int(c) for c in h["counts"]]
            if len(counts) != len(bounds) + 1:
                raise ValueError(
                    f"histogram {key!r}: {len(counts)} counts for "
                    f"{len(bounds)} bounds (need bounds + 1)"
                )
            if bounds != sorted(bounds):
                raise ValueError(f"histogram {key!r}: bounds not sorted")
            if int(h["count"]) != sum(counts):
                raise ValueError(
                    f"histogram {key!r}: count {h['count']} != "
                    f"sum of buckets {sum(counts)}"
                )
            histograms[key] = {
                "bounds": bounds, "counts": counts,
                "sum": float(h["sum"]), "count": int(h["count"]),
            }
        return cls(counters=counters, gauges=gauges, histograms=histograms)

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """A compact human-readable summary (the CLI ``--metrics`` block)."""
        lines = ["metrics:"]
        for key, value in sorted(self.counters.items()):
            if isinstance(value, float):
                lines.append(f"  {key:<40s} {value:.6g}")
            else:
                lines.append(f"  {key:<40s} {value}")
        for key, value in sorted(self.gauges.items()):
            lines.append(f"  {key:<40s} {value:.6g} (gauge)")
        for key, doc in sorted(self.histograms.items()):
            n = doc["count"]
            mean = doc["sum"] / n if n else 0.0
            lines.append(
                f"  {key:<40s} n={n} mean={mean:.6g} "
                f"p50{self._quantile_str(key, 0.50)} "
                f"p95{self._quantile_str(key, 0.95)}"
            )
        return "\n".join(lines)

    def _quantile_str(self, key: str, q: float) -> str:
        """``<=bound`` normally, ``>bound`` for the overflow bucket."""
        i = self._quantile_bucket(key, q)
        if i is None:
            return "<=0"
        bounds = self.histograms[key]["bounds"]
        if i >= len(bounds):
            return f">{bounds[-1]:.6g}"
        return f"<={bounds[i]:.6g}"


class MetricsRegistry:
    """A live store of labeled instruments with snapshot/merge semantics.

    Instrument creation is lock-protected; the instruments themselves
    guard their own updates, so a registry can be driven from the thread
    pools of ``run_scales``/``sweep`` without external locking.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, **labels: object) -> Counter:
        key = series_key(name, labels)
        c = self._counters.get(key)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(key, Counter())
        return c

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = series_key(name, labels)
        g = self._gauges.get(key)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(key, Gauge())
        return g

    def histogram(
        self,
        name: str,
        bounds: Iterable[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        key = series_key(name, labels)
        h = self._histograms.get(key)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(key, Histogram(bounds))
        return h

    def snapshot(self) -> RunMetrics:
        """A frozen copy of every series (safe to pickle, merge, ship)."""
        with self._lock:
            counters = {k: c.value for k, c in self._counters.items()}
            gauges = {k: g.value for k, g in self._gauges.items()}
            histograms = {
                k: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for k, h in self._histograms.items()
            }
        return RunMetrics(
            counters=counters, gauges=gauges, histograms=histograms
        )

    def merge_snapshot(self, snap: RunMetrics) -> None:
        """Fold a snapshot into this registry (counter += counter, ...)."""
        for key, value in snap.counters.items():
            c = self._counters.get(key)
            if c is None:
                with self._lock:
                    c = self._counters.setdefault(key, Counter())
            c.inc(value)
        for key, value in snap.gauges.items():
            g = self.gauge(key)
            g.set(max(g.value, value))
        for key, doc in snap.histograms.items():
            h = self.histogram(key, bounds=doc["bounds"])
            if list(h.bounds) != list(doc["bounds"]):
                raise ValueError(
                    f"histogram {key!r}: cannot merge differing bounds"
                )
            with h._lock:
                for i, c in enumerate(doc["counts"]):
                    h.counts[i] += c
                h.total += doc["sum"]
                h.count += doc["count"]

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
