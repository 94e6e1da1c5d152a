"""Tests for the ASCII heat-map renderer."""

import numpy as np
import pytest

from repro.analysis.reporting import format_heatmap


class TestFormatHeatmap:
    def test_basic_render(self):
        field = np.array([[0.0, 1.0], [0.5, 0.0]])
        text = format_heatmap(field, [0.0, 1.0], [10.0, 20.0], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("0 |")
        assert "peak 1" in lines[-1]

    def test_peak_uses_darkest_shade(self):
        field = np.array([[0.0, 1.0]])
        text = format_heatmap(field, [0.0], [0.0, 1.0])
        assert "@" in text

    def test_zero_field_all_blank(self):
        field = np.zeros((2, 3))
        text = format_heatmap(field, [0, 1], [0, 1, 2])
        row = text.splitlines()[0]
        assert row.endswith("|   |")

    def test_column_subsampling(self):
        field = np.random.default_rng(0).uniform(0, 1, (2, 100))
        text = format_heatmap(field, [0, 1], list(range(100)), max_cols=10)
        row = text.splitlines()[0]
        body = row.split("|")[1]
        assert len(body) <= 10

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            format_heatmap(np.zeros(3), [0], [0, 1, 2])
        with pytest.raises(ValueError, match="labels"):
            format_heatmap(np.zeros((2, 2)), [0], [0, 1])
        with pytest.raises(ValueError, match="non-negative"):
            format_heatmap(np.array([[-1.0]]), [0], [0])
        with pytest.raises(ValueError, match="max_cols"):
            format_heatmap(np.zeros((1, 1)), [0], [0], max_cols=1)

    def test_renders_solved_density(self, solved_equilibrium):
        res = solved_equilibrium
        marginal = res.marginal_q_path()
        text = format_heatmap(
            marginal[:: max(1, res.grid.n_t // 8)],
            res.grid.t[:: max(1, res.grid.n_t // 8)],
            res.grid.q[0],
        )
        assert "|" in text
        assert "peak" in text
