"""Tests for the terminal figure renderings."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.kde import kde
from repro.core.figures import (
    MATRIX_COLS,
    MATRIX_ROWS,
    density_overlay,
    dual_series,
    presence_matrix,
)
from repro.errors import AnalysisError


@pytest.fixture
def density():
    rng = np.random.default_rng(4)
    return kde(rng.normal(60, 10, 200).clip(0, 100))


class TestDensityOverlay:
    def test_shared_scale(self, density):
        rng = np.random.default_rng(5)
        flat = kde(rng.uniform(0, 100, 300))
        text = density_overlay({"tall": density, "flat": flat})
        lines = text.splitlines()
        assert len(lines) == 3  # two curves + axis
        tall_line, flat_line = lines[0], lines[1]
        # The flatter curve never reaches the shared peak block.
        assert "█" in tall_line
        assert "█" not in flat_line

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            density_overlay({})


class TestDualSeries:
    def test_two_lines_with_labels(self):
        text = dual_series([1, 2, 3], [3, 6, 9])
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].strip().startswith("per-snapshot")
        assert lines[1].strip().startswith("cumulative")

    def test_shared_peak(self):
        text = dual_series([1, 1, 1], [10, 10, 10])
        low, high = text.splitlines()
        assert "█" in high
        assert "█" not in low

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            dual_series([], [1])


class TestPresenceMatrix:
    def test_downsampling_bounds(self):
        matrix = np.random.default_rng(1).random((200, 300)) > 0.5
        text = presence_matrix(matrix)
        lines = text.splitlines()
        assert len(lines) <= MATRIX_ROWS + 1
        assert all(len(line) <= MATRIX_COLS + 1 for line in lines)

    def test_full_presence_is_solid(self):
        matrix = np.ones((4, 8), dtype=bool)
        text = presence_matrix(matrix)
        assert set(text.replace("\n", "")) == {"█"}

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            presence_matrix(np.zeros((0, 0), dtype=bool))
