"""Tests for the statistics helpers: summaries, KDE, time series."""

from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import Series, compare_densities, k_to_cover, kde, summarize
from repro.analysis.stats import mean, median
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


def _same(ours: float, oracle: float) -> bool:
    """Bit-for-bit equal, or both nan."""
    return ours == oracle or (math.isnan(ours) and math.isnan(oracle))


def _numpy(values):
    """numpy's mean and median, the oracle (silent on an empty input)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return float(np.mean(values)), float(np.median(values))


#: Each branch of numpy's pairwise sum and the seams between them: the
#: sequential run (< 8), the eight accumulators (8-128), the first
#: splits, numpy's 8192-value buffer, and long inputs.
ORACLE_LENGTHS = [0, 1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 8192, 10**4, 10**5]


class TestExactMean:
    """``mean`` / ``median`` keep numpy's figures without numpy: numpy
    is the oracle, equality is exact."""

    @pytest.mark.parametrize("n", ORACLE_LENGTHS)
    def test_floats_match_numpy(self, n):
        rng = random.Random(n)
        values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(n)]
        expected_mean, expected_median = _numpy(values)
        assert _same(mean(values), expected_mean)
        assert _same(median(values), expected_median)

    @pytest.mark.parametrize("n", ORACLE_LENGTHS)
    def test_ints_match_numpy(self, n):
        rng = random.Random(-n)
        values = [rng.randint(-10**9, 10**9) for _ in range(n)]
        expected_mean, expected_median = _numpy(values)
        assert _same(mean(values), expected_mean)
        assert _same(median(values), expected_median)

    def test_empty_is_nan_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(mean([])) and math.isnan(median([]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-1e12, max_value=1e12), max_size=600))
    def test_any_length_matches_numpy(self, values):
        expected_mean, expected_median = _numpy(values)
        assert _same(mean(values), expected_mean)
        assert _same(median(values), expected_median)


class TestKToCover:
    def test_basic(self):
        assert k_to_cover({"a": 50, "b": 30, "c": 20}) == 1
        assert k_to_cover({"a": 40, "b": 30, "c": 30}) == 2

    def test_empty(self):
        with pytest.raises(AnalysisError):
            k_to_cover({})


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
