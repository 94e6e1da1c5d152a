"""Tests for the CSV/JSON export helpers."""

import csv
import json

import numpy as np
import pytest

from repro.analysis.export import (
    export_equilibrium,
    write_json,
    write_rows_csv,
    write_series_csv,
)


class TestWriteRowsCSV:
    def test_roundtrip(self, tmp_path):
        path = write_rows_csv(
            tmp_path / "t.csv", ["a", "b"], [[1, 2.5], ["x", -1]]
        )
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["a", "b"]
        assert rows[1] == ["1", "2.5"]
        assert rows[2] == ["x", "-1"]

    def test_creates_parent_dirs(self, tmp_path):
        path = write_rows_csv(tmp_path / "deep" / "dir" / "t.csv", ["a"], [[1]])
        assert path.exists()

    def test_rejects_ragged_rows(self, tmp_path):
        with pytest.raises(ValueError, match="cells"):
            write_rows_csv(tmp_path / "t.csv", ["a", "b"], [[1]])


class TestWriteSeriesCSV:
    def test_shared_time_axis(self, tmp_path):
        path = write_series_csv(
            tmp_path / "s.csv",
            [0.0, 0.5, 1.0],
            {"u": [1.0, 2.0, 3.0], "v": [9.0, 8.0, 7.0]},
        )
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["time", "u", "v"]
        assert float(rows[2][1]) == 2.0
        assert float(rows[3][2]) == 7.0

    def test_rejects_mismatched_series(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            write_series_csv(tmp_path / "s.csv", [0.0, 1.0], {"u": [1.0]})


class TestWriteJSON:
    def test_numpy_types_serialised(self, tmp_path):
        path = write_json(
            tmp_path / "m.json",
            {
                "arr": np.array([1.0, 2.0]),
                "f": np.float64(3.5),
                "i": np.int64(7),
                "b": np.bool_(True),
            },
        )
        payload = json.loads(path.read_text())
        assert payload["arr"] == [1.0, 2.0]
        assert payload["f"] == 3.5
        assert payload["i"] == 7
        assert payload["b"] is True

    def test_rejects_unserialisable(self, tmp_path):
        with pytest.raises(TypeError, match="JSON"):
            write_json(tmp_path / "m.json", {"bad": object()})


class TestExportEquilibrium:
    def test_full_artifact_set(self, tmp_path, solved_equilibrium):
        written = export_equilibrium(solved_equilibrium, tmp_path / "eq")
        names = sorted(p.name for p in written)
        assert names == [
            "density_marginal.csv",
            "market_paths.csv",
            "policy_mid.csv",
            "policy_t0.csv",
            "summary.json",
            "utility_paths.csv",
        ]
        summary = json.loads((tmp_path / "eq" / "summary.json").read_text())
        assert summary["converged"] is True
        assert "total" in summary["accumulated_utility"]

    def test_market_paths_content(self, tmp_path, solved_equilibrium):
        export_equilibrium(solved_equilibrium, tmp_path / "eq")
        with (tmp_path / "eq" / "market_paths.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "time"
        assert len(rows) == solved_equilibrium.grid.n_t + 2
        # First price matches the solved path.
        assert float(rows[1][1]) == pytest.approx(
            float(solved_equilibrium.mean_field.price[0])
        )

    def test_policy_rows_follow_the_q_axis(self, tmp_path, solved_equilibrium):
        grid = solved_equilibrium.grid
        export_equilibrium(solved_equilibrium, tmp_path / "eq")
        with (tmp_path / "eq" / "policy_t0.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["q_mb", "x_star"]
        assert len(rows) == grid.n_q + 1
        assert [float(row[0]) for row in rows[1:]] == grid.q[0].tolist()

    def test_density_marginal_header_names_every_q(self, tmp_path, solved_equilibrium):
        grid = solved_equilibrium.grid
        export_equilibrium(solved_equilibrium, tmp_path / "eq")
        with (tmp_path / "eq" / "density_marginal.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["time"] + [f"q={q:.1f}" for q in grid.q[0]]
        assert len(rows[0]) == grid.n_q + 1
        assert len(rows) == grid.n_t + 2
