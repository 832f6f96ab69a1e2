"""Tests for the statistics helpers, especially the log-log scaling fit."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import (
    geometric_mean,
    loglog_fit,
    loglog_fits,
    median,
    median_absolute_deviation,
    relative_imbalance,
    trimmed_mean,
)


class TestLogLogFit:
    def test_perfect_strong_scaling(self):
        scales = [2, 4, 8, 16]
        times = [1.0 / p for p in scales]
        fit = loglog_fit(scales, times)
        assert fit.alpha == pytest.approx(-1.0, abs=1e-9)
        assert fit.c == pytest.approx(1.0, rel=1e-9)
        assert fit.r2 == pytest.approx(1.0)

    def test_constant_serial_work(self):
        fit = loglog_fit([2, 4, 8], [3.0, 3.0, 3.0])
        assert fit.alpha == pytest.approx(0.0, abs=1e-12)
        assert fit.c == pytest.approx(3.0)

    def test_contention_growth(self):
        scales = [2, 4, 8, 16]
        fit = loglog_fit(scales, [0.1 * p**0.5 for p in scales])
        assert fit.alpha == pytest.approx(0.5, abs=1e-9)

    def test_predict(self):
        fit = loglog_fit([2, 4, 8], [4.0, 2.0, 1.0])
        assert fit.predict(16) == pytest.approx(0.5, rel=1e-6)

    def test_zero_values_clamped_not_crash(self):
        fit = loglog_fit([2, 4], [1.0, 0.0])
        assert fit.alpha < 0  # treated as strongly decaying

    def test_noisy_fit_r2_below_one(self):
        rng = np.random.default_rng(0)
        scales = [2, 4, 8, 16, 32]
        times = [1.0 / p * math.exp(rng.normal(0, 0.2)) for p in scales]
        fit = loglog_fit(scales, times)
        assert fit.r2 < 1.0
        assert -1.5 < fit.alpha < -0.5

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            loglog_fit([4], [1.0])

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ValueError):
            loglog_fit([0, 2], [1.0, 1.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            loglog_fit([1, 2], [1.0])

    @given(
        alpha=st.floats(min_value=-2.0, max_value=2.0),
        c=st.floats(min_value=1e-6, max_value=1e3),
    )
    def test_recovers_exact_power_law(self, alpha, c):
        scales = [2, 4, 8, 16]
        times = [c * p**alpha for p in scales]
        fit = loglog_fit(scales, times)
        assert fit.alpha == pytest.approx(alpha, abs=1e-6)
        assert fit.c == pytest.approx(c, rel=1e-6)


def _polyfit_reference(scales, values) -> tuple[float, float, float]:
    """One row's fit the way it was made before fits were batched: one
    ``np.polyfit`` per vertex."""
    lx = np.log(np.asarray(scales, dtype=float))
    ly = np.log(np.maximum(np.asarray(values, dtype=float), 1e-30))
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


@st.composite
def _fit_batches(draw):
    """2-16 distinct scales and rows of times: wide-ranging positive values,
    non-positive ones (clamped to eps) and flat rows (``ss_tot == 0``)."""
    scales = sorted(draw(st.sets(st.integers(1, 100_000), min_size=2, max_size=16)))
    n = len(scales)
    value = st.one_of(
        st.floats(min_value=1e-12, max_value=1e6),
        st.sampled_from([0.0, -0.0, -1.0]),
    )
    row = st.one_of(
        st.lists(value, min_size=n, max_size=n),
        st.floats(min_value=1e-9, max_value=1e3).map(lambda v: [v] * n),
    )
    return scales, draw(st.lists(row, min_size=1, max_size=8))


class TestBatchedFits:
    """``loglog_fits`` gives every row the bits of its own ``np.polyfit``."""

    @given(_fit_batches())
    def test_bits_equal_per_row_polyfit(self, batch):
        scales, rows = batch
        fits = loglog_fits(scales, rows)
        assert len(fits) == len(rows)
        for fit, row in zip(fits, rows):
            want = _polyfit_reference(scales, row)
            assert [v.hex() for v in (fit.alpha, fit.log_c, fit.r2)] == \
                [v.hex() for v in want]
            assert fit.n == len(scales)
            assert loglog_fit(scales, row) == fit

    def test_flat_row_fits_perfectly(self):
        (fit,) = loglog_fits([2, 4, 8, 16, 32, 64, 128, 256], [[3.0] * 8])
        assert fit.r2 == 1.0

    def test_no_rows(self):
        assert loglog_fits([2, 4], []) == []

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            loglog_fits([2, 4, 8], [[1.0, 2.0, 3.0], [1.0, 2.0]])


class TestAggregates:
    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([3, 3, 3]) == pytest.approx(3.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_trimmed_mean_removes_outlier(self):
        values = [1.0] * 18 + [100.0, -100.0]
        assert trimmed_mean(values, trim=0.1) == pytest.approx(1.0)

    def test_trimmed_mean_small_input_untouched(self):
        assert trimmed_mean([5.0], trim=0.4) == 5.0

    def test_trimmed_mean_empty_raises(self):
        with pytest.raises(ValueError):
            trimmed_mean([])

    def test_mad_constant_is_zero(self):
        assert median_absolute_deviation([2, 2, 2]) == 0.0

    def test_mad_known_value(self):
        assert median_absolute_deviation([1, 2, 3, 4, 5]) == pytest.approx(1.0)

    def test_mad_empty_raises(self):
        with pytest.raises(ValueError):
            median_absolute_deviation([])


class TestMedian:
    """``median`` is ``np.median`` without its masked-array import."""

    values = st.one_of(
        st.floats(allow_nan=False, allow_infinity=True),
        st.sampled_from([0.0, 1.0, -1.0, 5e-324, float("nan")]),
    )

    @given(st.lists(values, min_size=1, max_size=40))
    def test_same_value_as_numpy(self, xs):
        arr = np.array(xs, dtype=float)
        got, want = median(arr), float(np.median(arr))
        if math.isnan(want):
            assert math.isnan(got)
        else:
            # == is bit equality except for the sign of a zero middle,
            # which depends on where a sort leaves -0.0 and 0.0
            assert got == want

    def test_even_length_halves_the_middle_sum(self):
        assert median(np.array([4.0, 1.0, 3.0, 2.0])) == 2.5


class TestRelativeImbalance:
    def test_balanced(self):
        assert relative_imbalance([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_one_slow_rank(self):
        # 3 ranks at 1.0, one at 2.0: max/mean = 2.0/1.25
        assert relative_imbalance([1, 1, 1, 2]) == pytest.approx(1.6)

    def test_zero_mean_defined(self):
        assert relative_imbalance([0.0, 0.0]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            relative_imbalance([])

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=50))
    def test_always_at_least_one(self, values):
        assert relative_imbalance(values) >= 1.0 - 1e-9
