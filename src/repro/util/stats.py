"""Statistical helpers used by the detectors and the benchmark harness.

The centerpiece is :func:`loglog_fit`, the log-log regression model the paper
cites ([30], Barnes et al.) for non-scalable vertex detection: a vertex whose
time t(P) follows ``t = c * P**alpha`` appears as a straight line with slope
``alpha`` in log-log space.  Perfectly scaling work has ``alpha ~ -1``
(strong scaling), constant/serial work has ``alpha ~ 0``, and contended work
has ``alpha > 0``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

__all__ = [
    "LogLogFit",
    "loglog_fit",
    "loglog_fits",
    "geometric_mean",
    "trimmed_mean",
    "median",
    "median_absolute_deviation",
    "relative_imbalance",
]


@dataclass(frozen=True)
class LogLogFit:
    """Result of fitting ``t = c * P**alpha`` to (P, t) points.

    Attributes
    ----------
    alpha:
        The scaling exponent (slope in log-log space).
    log_c:
        Intercept in log-log space; ``c = exp(log_c)``.
    r2:
        Coefficient of determination of the fit in log-log space.
    n:
        Number of points used.
    """

    alpha: float
    log_c: float
    r2: float
    n: int

    @property
    def c(self) -> float:
        return math.exp(self.log_c)

    def predict(self, p: float) -> float:
        """Predicted time at scale ``p``."""
        return self.c * p**self.alpha


def loglog_fit(scales: Sequence[float], values: Sequence[float]) -> LogLogFit:
    """Least-squares fit of ``values = c * scales**alpha`` in log-log space.

    Non-positive values are clamped to a tiny epsilon so that vertices that
    take (near) zero time at some scale do not crash the detector; they fit
    as strongly-scaling and are filtered out by the time-proportion check.
    The one-row case of :func:`loglog_fits`.
    """
    return loglog_fits(scales, [values])[0]


def loglog_fits(scales: Sequence[float], rows) -> list[LogLogFit]:
    """:func:`loglog_fit` of every row of ``rows`` against one set of scales.

    Each fit has the bits of ``np.polyfit(log(scales), log(row), 1)``:
    polyfit's column-scaled Vandermonde matrix depends on the scales alone,
    so it is built once, and each row is solved by the same 1-D
    ``np.linalg.lstsq`` call polyfit makes.  (One lstsq over a 2-D
    right-hand side gives other bits from about 8 scales on.)  Logs, the
    clamp and r² run over C-contiguous ``(row, scale)`` arrays.
    """
    xs = np.asarray(scales, dtype=float)
    ys = np.ascontiguousarray(rows, dtype=float)
    if ys.size == 0:
        ys = ys.reshape(0, xs.size)
    if xs.ndim != 1 or ys.ndim != 2 or ys.shape[1] != xs.size:
        raise ValueError("scales and values must be 1-D sequences of equal length")
    if xs.size < 2:
        raise ValueError("need at least two scales for a log-log fit")
    if np.any(xs <= 0):
        raise ValueError("scales must be positive")
    eps = 1e-30
    lx = np.log(xs)
    ly = np.log(np.maximum(ys, eps))
    lhs = np.vander(lx, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    rcond = lx.size * np.finfo(float).eps
    coef = np.empty((len(ly), 2))
    rank = 2
    for i, row in enumerate(ly):
        coef[i], _resid, rank, _sv = np.linalg.lstsq(lhs, row, rcond)
    if rank != 2:  # polyfit's warning; the rank depends on lhs alone
        warnings.warn(
            "Polyfit may be poorly conditioned", np.exceptions.RankWarning,
            stacklevel=2,
        )
    coef /= scale
    slopes, intercepts = coef[:, :1], coef[:, 1:]
    ss_res = np.sum((ly - (slopes * lx + intercepts)) ** 2, axis=1)
    ss_tot = np.sum((ly - ly.mean(axis=1, keepdims=True)) ** 2, axis=1)
    return [
        LogLogFit(
            alpha=alpha, log_c=log_c,
            r2=1.0 if tot == 0.0 else 1.0 - res / tot, n=int(xs.size),
        )
        for (alpha, log_c), res, tot in zip(
            coef.tolist(), ss_res.tolist(), ss_tot.tolist()
        )
    ]


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; requires strictly positive values."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("geometric_mean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric_mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))


def trimmed_mean(values: Sequence[float], trim: float = 0.1) -> float:
    """Mean after trimming ``trim`` fraction from each tail."""
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        raise ValueError("trimmed_mean of empty sequence")
    k = int(arr.size * trim)
    if 2 * k >= arr.size:
        k = 0
    return float(arr[k : arr.size - k].mean())


def median(arr: np.ndarray) -> float:
    """``float(np.median(arr))`` of a non-empty 1-D float array: the
    middle value, or the sum of the two middle values halved, NaN if any
    value is NaN.  Equal bits but for the sign of a zero middle; unlike
    ``np.median`` it does not import the masked-array module (0.9 MiB
    resident) on first use."""
    s = np.sort(arr)
    mid = s.size // 2
    if np.isnan(s[-1]):
        return float("nan")
    return float(s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2.0)


def median_absolute_deviation(values: Sequence[float]) -> float:
    """Robust spread estimate: median(|x - median(x)|)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("median_absolute_deviation of empty sequence")
    med = np.median(arr)
    return float(np.median(np.abs(arr - med)))


def relative_imbalance(values: Sequence[float]) -> float:
    """Load-imbalance metric: max / mean (1.0 means perfectly balanced).

    This is the quantity the abnormal-vertex detector thresholds with
    ``AbnormThd`` (paper default 1.3).
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("relative_imbalance of empty sequence")
    mean = float(arr.mean())
    if mean == 0.0:
        return 1.0
    return float(arr.max() / mean)
