"""Non-scalable vertex detection (paper §IV-A).

"The core idea is to find vertices in the PPG whose performance shows an
unusual slope comparing with other vertices when the number of processes
increases. ... we fit the merged data of different process counts with a
log-log model.  With these fitting results, we sort all vertices by the
changing rate of each vertex when the scale increases and filter the
top-ranked vertices as the potential non-scalable vertices."

For strong scaling, ideal work shrinks like ``P**-1`` (slope -1); serial or
contended vertices have slopes near or above 0.  A vertex is flagged when

* its log-log slope exceeds the *population* slope by an outlier margin
  (median + ``mad_k`` median-absolute-deviations) **or** an absolute slope
  threshold, and
* its time at the largest scale is a non-trivial fraction of total time
  ("when the execution time of these vertices accounts for a large
  proportion of the total time, they will become a scaling issue").
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.detection.aggregation import AggregationStrategy, aggregate
from repro.ppg.build import PPG
from repro.util.stats import LogLogFit, loglog_fits, median

__all__ = ["NonScalableVertex", "NonScalableConfig", "detect_non_scalable"]


@dataclass(frozen=True)
class NonScalableConfig:
    strategy: AggregationStrategy = AggregationStrategy.MEAN
    #: flag when slope > population median + mad_k * MAD ...
    mad_k: float = 3.0
    #: ... or when slope exceeds this absolute value outright.
    slope_threshold: float = -0.25
    #: minimum share of total time at the largest scale
    min_time_fraction: float = 0.01
    #: keep at most this many vertices (paper: "filter the top-ranked")
    top_k: int = 10


@dataclass(frozen=True)
class NonScalableVertex:
    vid: int
    fit: LogLogFit
    times: tuple[float, ...]  # aggregated time per scale
    scales: tuple[int, ...]
    time_fraction: float  # of total time at the largest scale
    score: float  # severity: slope weighted by time share

    @property
    def slope(self) -> float:
        return self.fit.alpha


def detect_non_scalable(
    ppgs: Sequence[PPG],
    config: NonScalableConfig | None = None,
) -> list[NonScalableVertex]:
    """Detect non-scalable vertices from runs at multiple scales.

    ``ppgs`` must come from the *same* PSG at two or more distinct process
    counts (the location-aware premise: "the per-process PSG does not change
    with the problem size or job scale").
    """
    config = config or NonScalableConfig()
    if len(ppgs) < 2:
        raise ValueError("need runs at >= 2 scales to fit scaling slopes")
    psg = ppgs[0].psg
    for ppg in ppgs[1:]:
        if ppg.psg is not psg and len(ppg.psg) != len(psg):
            raise ValueError("all PPGs must share the same PSG")
    scales = [ppg.nprocs for ppg in ppgs]
    if len(set(scales)) != len(scales):
        raise ValueError("duplicate scales in input runs")
    order = np.argsort(scales)
    ppgs = [ppgs[i] for i in order]
    scales = [scales[i] for i in order]

    vids = list(psg.vertices)
    if config.strategy is AggregationStrategy.MEAN:
        # one row-wise mean per PPG, bit-equal to per-vertex aggregate()
        columns = [ppg.vertex_means(vids) for ppg in ppgs]
    else:
        columns = [
            [aggregate(ppg.vertex_times(vid), config.strategy) for vid in vids]
            for ppg in ppgs
        ]
    total_time_at_largest = sum(columns[-1])
    if total_time_at_largest <= 0:
        return []

    # vertices never sampled anywhere are not fitted
    sampled = [
        (vid, series) for vid, series in zip(vids, zip(*columns))
        if max(series) > 0.0
    ]
    if not sampled:
        return []
    fits: dict[int, tuple[LogLogFit, tuple[float, ...], float]] = {
        vid: (fit, series, series[-1] / total_time_at_largest)
        for (vid, series), fit in zip(
            sampled, loglog_fits(scales, [series for _vid, series in sampled])
        )
    }

    slopes = np.array([f.alpha for f, _s, _fr in fits.values()])
    # np.median's values (the sign of a zero median cannot reach the cut)
    mid = median(slopes)
    mad = median(np.abs(slopes - mid))
    outlier_cut = mid + config.mad_k * max(mad, 1e-9)

    flagged: list[NonScalableVertex] = []
    for vid, (fit, series, fraction) in fits.items():
        if fraction < config.min_time_fraction:
            continue
        if fit.alpha <= outlier_cut and fit.alpha <= config.slope_threshold:
            continue
        flagged.append(
            NonScalableVertex(
                vid=vid,
                fit=fit,
                times=series,
                scales=tuple(scales),
                time_fraction=fraction,
                score=(fit.alpha + 1.0) * fraction,
            )
        )
    flagged.sort(key=lambda v: -v.score)
    return flagged[: config.top_k]
