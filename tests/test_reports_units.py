"""Tests for report rendering, units helpers, and the error hierarchy."""

from __future__ import annotations

import pytest

import repro
from repro.core.reports import comparison_table, format_table, series_preview
from repro.errors import (
    AnalysisError,
    ChainError,
    ClockError,
    ConnectionClosedError,
    ProtocolError,
    ReproError,
    ScenarioError,
    SimulationError,
    TransportError,
)
from repro.units import DAYS, HOURS, MINUTES, format_duration


class TestFormatTable:
    def test_renders_headers_and_rows(self):
        text = format_table(("name", "count"), [("alpha", 10), ("beta", 2000)])
        lines = text.splitlines()
        assert "name" in lines[0] and "count" in lines[0]
        assert "alpha" in text
        assert "2,000" in text

    def test_title(self):
        text = format_table(("a",), [(1,)], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_float_formatting(self):
        text = format_table(("v",), [(0.1234,), (12.345,), (1234.5,)])
        assert "0.123" in text
        assert "12.3" in text
        assert "1,234" in text or "1,235" in text

    def test_alignment_consistent(self):
        text = format_table(("col",), [("x",), ("longer",)])
        widths = {len(line) for line in text.splitlines()}
        assert len(widths) == 1


class TestComparisonTable:
    def test_ratio_column(self):
        text = comparison_table([("sync", 72.0, 36.0)])
        assert "0.5" in text

    def test_non_numeric_cells(self):
        text = comparison_table([("label", "n/a", 5)])
        assert "-" in text

    def test_zero_paper_value(self):
        text = comparison_table([("metric", 0, 5)])
        assert "-" in text


class TestSeriesPreview:
    def test_empty(self):
        assert series_preview([]) == "(empty)"

    def test_length_bounded(self):
        preview = series_preview(list(range(1000)), width=40)
        assert len(preview) <= 40

    def test_constant_series(self):
        preview = series_preview([5.0, 5.0, 5.0])
        assert len(preview) == 3


class TestUnits:
    def test_constants(self):
        assert MINUTES == 60
        assert HOURS == 3600
        assert DAYS == 86400

    def test_format_duration_paper_value(self):
        # The §IV-D resync measurement: 11 minutes 14 seconds.
        assert format_duration(674) == "11m 14s"

    def test_format_duration_bands(self):
        assert format_duration(17) == "17s"
        assert format_duration(3600) == "1h"
        assert format_duration(90000) == "1d 1h"

    def test_format_duration_negative(self):
        with pytest.raises(ValueError):
            format_duration(-1)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            AnalysisError,
            ChainError,
            ClockError,
            ConnectionClosedError,
            ProtocolError,
            ScenarioError,
            SimulationError,
            TransportError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_clock_error_is_simulation_error(self):
        assert issubclass(ClockError, SimulationError)

    def test_connection_closed_is_transport_error(self):
        assert issubclass(ConnectionClosedError, TransportError)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackages_importable(self):
        assert repro.simnet.Simulator
        assert repro.bitcoin.BitcoinNode
        assert repro.netmodel.ProtocolScenario
        assert repro.core.CampaignRunner
        assert repro.analysis.summarize

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
        for name in repro.core.__all__:
            assert getattr(repro.core, name) is not None
        for name in repro.netmodel.__all__:
            assert getattr(repro.netmodel, name) is not None
        for name in repro.bitcoin.__all__:
            assert getattr(repro.bitcoin, name) is not None
        for name in repro.simnet.__all__:
            assert getattr(repro.simnet, name) is not None
