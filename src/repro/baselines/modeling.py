"""Modeling-based baseline: regression scaling prediction.

The paper's related work (§VII, [30] Barnes et al., [18] Calotoiu et al. /
Extra-P) identifies scalability bugs by fitting performance models from
small-scale runs and extrapolating.  This module implements that family as
a third comparison point:

* per-vertex models ``t(P) = c * P**alpha`` fitted from training scales
  (the same log-log form the non-scalable detector uses),
* whole-program prediction by summing vertex models along the slowest rank,
* *scalability-bug* flagging à la Extra-P: vertices whose predicted share
  of runtime grows past a threshold at a target scale.

Its documented weakness — which the paper's approach addresses — is also
reproduced: the model names *what* will dominate at scale but carries no
inter-process dependence, so it cannot point at a root cause in another
process (no backtracking equivalent exists here by construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.ppg.build import PPG
from repro.util.stats import LogLogFit, loglog_fit, loglog_fits

__all__ = ["VertexModel", "ScalingModel", "fit_scaling_model"]


@dataclass(frozen=True)
class VertexModel:
    """Fitted scaling model of one PSG vertex."""

    vid: int
    label: str
    fit: LogLogFit
    train_times: tuple[float, ...]

    def predict(self, nprocs: int) -> float:
        return self.fit.predict(nprocs)


@dataclass
class ScalingModel:
    """A whole-program scaling model fitted from small-scale runs."""

    train_scales: tuple[int, ...]
    vertices: dict[int, VertexModel]
    total_fit: LogLogFit

    def predict_total(self, nprocs: int) -> float:
        """Predicted makespan at ``nprocs``."""
        return self.total_fit.predict(nprocs)

    def predict_vertex(self, vid: int, nprocs: int) -> float:
        model = self.vertices.get(vid)
        return model.predict(nprocs) if model is not None else 0.0

    def predicted_shares(self, nprocs: int) -> dict[int, float]:
        """Predicted fraction of runtime per vertex at ``nprocs``."""
        preds = {vid: m.predict(nprocs) for vid, m in self.vertices.items()}
        total = sum(preds.values())
        if total <= 0:
            return {vid: 0.0 for vid in preds}
        return {vid: t / total for vid, t in preds.items()}

    def scalability_bugs(
        self, nprocs: int, *, share_threshold: float = 0.1,
        slope_threshold: float = -0.25,
    ) -> list[VertexModel]:
        """Vertices predicted to dominate at ``nprocs`` despite not scaling.

        The Extra-P-style diagnosis: flag what the model says will matter at
        the target scale, ranked by predicted share.
        """
        shares = self.predicted_shares(nprocs)
        out = [
            m
            for vid, m in self.vertices.items()
            if m.fit.alpha > slope_threshold and shares[vid] >= share_threshold
        ]
        out.sort(key=lambda m: -shares[m.vid])
        return out

    def speedup_curve(self, scales: Sequence[int]) -> dict[int, float]:
        base = self.predict_total(min(scales))
        return {p: base / self.predict_total(p) for p in scales}


def fit_scaling_model(ppgs: Sequence[PPG]) -> ScalingModel:
    """Fit per-vertex and total models from runs at >= 2 training scales."""
    if len(ppgs) < 2:
        raise ValueError("need at least two training scales")
    ppgs = sorted(ppgs, key=lambda g: g.nprocs)
    scales = [g.nprocs for g in ppgs]
    if len(set(scales)) != len(scales):
        raise ValueError("duplicate training scales")
    psg = ppgs[0].psg

    sampled: list[tuple[int, str, list[float]]] = []
    for vid, vertex in psg.vertices.items():
        series = []
        for g in ppgs:
            times = g.vertex_times(vid)
            series.append(max(times) if times else 0.0)  # slowest rank
        if max(series) > 0.0:
            sampled.append((vid, vertex.label, series))
    fits = loglog_fits(scales, [series for _vid, _label, series in sampled])
    vertices = {
        vid: VertexModel(
            vid=vid, label=label, fit=fit, train_times=tuple(series)
        )
        for (vid, label, series), fit in zip(sampled, fits)
    }

    totals = []
    for g in ppgs:
        per_rank = [0.0] * g.nprocs
        for vid in psg.vertices:
            for r, t in enumerate(g.vertex_times(vid)):
                per_rank[r] += t
        totals.append(max(per_rank) if per_rank else 0.0)
    total_fit = loglog_fit(scales, totals)

    return ScalingModel(
        train_scales=tuple(scales), vertices=vertices, total_fit=total_fit
    )
