"""Tests for the statistics helpers: summaries, KDE, time series."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import Series, compare_densities, k_to_cover, kde, summarize
from repro.errors import AnalysisError


class TestSummarize:
    def test_basic(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.median == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            summarize([])

    def test_as_dict_keys(self):
        keys = set(summarize([1.0]).as_dict())
        assert keys == {"count", "mean", "median", "min", "max", "p90", "p99", "std"}

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60))
    def test_ordering_invariants(self, values):
        summary = summarize(values)
        # Tolerate one ULP of float summation error in the mean.
        slack = 1e-9 * max(1.0, abs(summary.maximum))
        assert summary.minimum <= summary.median <= summary.maximum
        assert summary.minimum - slack <= summary.mean <= summary.maximum + slack
        assert summary.p90 <= summary.p99 <= summary.maximum


class TestKToCover:
    def test_basic(self):
        counts = {"a": 50, "b": 30, "c": 20}
        assert k_to_cover(counts, 0.5) == 1
        assert k_to_cover(counts, 0.8) == 2
        assert k_to_cover(counts, 1.0) == 3

    def test_empty(self):
        with pytest.raises(AnalysisError):
            k_to_cover({}, 0.5)

    def test_invalid_share(self):
        with pytest.raises(AnalysisError):
            k_to_cover({"a": 1}, 1.5)


class TestKde:
    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(1)
        estimate = kde(rng.normal(50, 10, 300).clip(0, 100))
        area = np.trapezoid(estimate.density, estimate.grid)
        assert area == pytest.approx(1.0, abs=0.08)

    def test_mean_median_reported(self):
        estimate = kde([10.0, 20.0, 30.0])
        assert estimate.mean == 20.0
        assert estimate.median == 20.0
        assert estimate.count == 3

    def test_mode_near_data_peak(self):
        rng = np.random.default_rng(2)
        estimate = kde(rng.normal(70, 3, 400).clip(0, 100))
        assert 60 < estimate.mode < 80

    def test_degenerate_input_does_not_crash(self):
        estimate = kde([42.0, 42.0, 42.0])
        assert estimate.mode == pytest.approx(42.0, abs=1.0)

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            kde([])

    def test_compare_densities_shared_grid(self):
        before, after = compare_densities([10.0, 20.0, 30.0], [40.0, 50.0, 61.0])
        assert list(before.grid) == list(after.grid)


class TestSeries:
    def test_append_and_stats(self):
        series = Series()
        series.append(0.0, 10.0)
        series.append(1.0, 20.0)
        assert len(series) == 2
        assert series.mean() == 15.0
        assert series.diffs() == [10.0]

    def test_time_ordering_enforced(self):
        series = Series()
        series.append(5.0, 1.0)
        with pytest.raises(AnalysisError):
            series.append(4.0, 2.0)

    def test_fraction_where(self):
        series = Series()
        for index, value in enumerate([1, 5, 10, 2]):
            series.append(float(index), value)
        assert series.fraction_where(lambda v: v < 5) == 0.5

    def test_empty_mean_raises(self):
        with pytest.raises(AnalysisError):
            Series().mean()
