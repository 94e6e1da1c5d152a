"""Structured export of experiment results.

Benchmarks print paper-style rows; downstream users usually also want
machine-readable artifacts to plot or diff.  This module writes

* generic row tables to CSV (:func:`write_rows_csv`),
* labelled time series to CSV with a shared time column
  (:func:`write_series_csv`),
* a solved equilibrium's full state (market paths, policy slices,
  marginal density) to a directory of CSVs
  (:func:`export_equilibrium`),
* serving-replay comparison tables from :mod:`repro.serve`
  (:func:`export_serving`), and
* arbitrary metadata to JSON (:func:`write_json`).

Everything is plain ``csv`` / ``json`` from the standard library — no
plotting dependency is required to consume the outputs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Union

import numpy as np

from repro.core.equilibrium import EquilibriumResult

Cell = Union[str, float, int]


def write_rows_csv(path: Union[str, Path], headers: Sequence[str], rows: Iterable[Sequence[Cell]]) -> Path:
    """Write a header + rows table to CSV; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(headers))
        for row in rows:
            if len(row) != len(headers):
                raise ValueError(
                    f"row has {len(row)} cells for {len(headers)} headers: {row!r}"
                )
            writer.writerow(list(row))
    return path


def write_series_csv(
    path: Union[str, Path],
    times: Sequence[float],
    series: Mapping[str, Sequence[float]],
) -> Path:
    """Write labelled time series sharing one time axis to CSV."""
    times = np.asarray(list(times), dtype=float)
    columns: Dict[str, np.ndarray] = {}
    for name, values in series.items():
        arr = np.asarray(list(values), dtype=float)
        if arr.shape != times.shape:
            raise ValueError(
                f"series {name!r} has shape {arr.shape}, time axis {times.shape}"
            )
        columns[name] = arr
    headers = ["time"] + list(columns)
    rows = [
        [times[i]] + [columns[name][i] for name in columns]
        for i in range(times.shape[0])
    ]
    return write_rows_csv(path, headers, rows)


def write_json(path: Union[str, Path], payload: Mapping) -> Path:
    """Write a JSON document (numpy scalars/arrays are converted)."""

    def default(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        if isinstance(obj, np.bool_):
            return bool(obj)
        raise TypeError(f"not JSON-serialisable: {type(obj)!r}")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, default=default), encoding="utf-8")
    return path


def export_equilibrium(result: EquilibriumResult, directory: Union[str, Path]) -> List[Path]:
    """Dump a solved equilibrium to a directory of CSV/JSON artifacts.

    Produces:

    * ``market_paths.csv`` — price, mean control, mean cache state,
      sharing benefit per reporting time;
    * ``utility_paths.csv`` — the Eq. (10) decomposition per time;
    * ``policy_t0.csv`` / ``policy_mid.csv`` — x*(q) slices at the
      start and midpoint of the epoch (Fig. 5's data);
    * ``density_marginal.csv`` — the marginal density over q per time
      (Figs. 4/6/7's data);
    * ``summary.json`` — convergence report + accumulated utilities.

    Returns the list of files written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    mf = result.mean_field
    written.append(
        write_series_csv(
            directory / "market_paths.csv",
            result.grid.t,
            {
                "price": mf.price,
                "mean_control": mf.mean_control,
                "mean_remaining_mb": mf.mean_q,
                "sharing_benefit": mf.sharing_benefit,
                "n_requests": mf.n_requests,
            },
        )
    )
    written.append(
        write_series_csv(
            directory / "utility_paths.csv",
            result.grid.t,
            result.population_utility_path(),
        )
    )

    h_mid = float(result.config.channel.mean)
    for label, t in (("t0", 0.0), ("mid", 0.5 * result.config.horizon)):
        written.append(
            write_rows_csv(
                directory / f"policy_{label}.csv",
                ["q_mb", "x_star"],
                zip(result.grid.q[0], result.policy.q_profile(t, h_mid)),
            )
        )

    marginal = result.marginal_q_path()
    headers = ["time"] + [f"q={q:.1f}" for q in result.grid.q[0]]
    rows = [
        [result.grid.t[ti]] + list(marginal[ti]) for ti in range(marginal.shape[0])
    ]
    written.append(write_rows_csv(directory / "density_marginal.csv", headers, rows))

    written.append(
        write_json(
            directory / "summary.json",
            {
                "converged": result.report.converged,
                "n_iterations": result.report.n_iterations,
                "final_policy_change": result.report.final_policy_change,
                "accumulated_utility": result.accumulated_utility(),
                "content_size_mb": result.config.content_size,
                "n_edps": result.config.n_edps,
                "horizon": result.config.horizon,
            },
        )
    )
    return written


def export_serving(reports, directory: Union[str, Path]) -> List[Path]:
    """Dump serving replay reports (see :mod:`repro.serve`) to CSV/JSON.

    Thin convenience front for
    :func:`repro.serve.report.export_serving_reports`, imported lazily
    because :mod:`repro.serve` builds *on* this module's primitives.
    """
    from repro.serve.report import export_serving_reports

    return export_serving_reports(reports, directory)
