"""Byte-level goldens of the equilibrium solvers.

Every case below solves one fixed configuration and records, for each
equilibrium it returns, a SHA-256 of every array the result exposes
(value function, policy table, density, and the mean-field price,
peer state and mean control) together with ``n_iterations`` and
``final_policy_change``.  The hashes pin the solver's output bytes:
a refactor of the sweeps must leave every one of them unchanged.

Hashes only mean something under the numerical libraries that wrote
them, so the file also stores the numpy/scipy versions and, for every
array, its per-time-step sums.  ``test_solver_goldens.py`` compares
hashes exactly when the running environment matches the stored one and
falls back to the sums at ``rtol=1e-12`` otherwise.

Regenerate (only on purpose, with the reason in the commit) with::

    PYTHONPATH=src python tests/golden/solver_goldens.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np
import scipy

from repro.core.best_response import BatchedBestResponseIterator, BestResponseIterator
from repro.core.multi_population import MultiPopulationIterator
from repro.core.parameters import ChannelParameters, MFGCPConfig

GOLDEN_PATH = Path(__file__).with_name("solver_goldens.json")

# Heterogeneous demand on the fast grid: sizes, popularity, timeliness
# and request rates all differ, so the lanes need different CFL
# substep counts and converge at different iterations.
CATALOG_SPECS = [
    dict(content_size=40.0, popularity=0.9, timeliness=1.2, n_requests=25.0),
    dict(content_size=100.0, popularity=0.5, timeliness=2.0, n_requests=10.0),
    dict(content_size=150.0, popularity=0.3, timeliness=2.5, n_requests=40.0),
    dict(content_size=70.0, popularity=0.7, timeliness=1.5, n_requests=15.0),
    dict(content_size=20.0, popularity=0.1, timeliness=3.0, n_requests=5.0),
    dict(content_size=120.0, popularity=0.6, timeliness=1.0, n_requests=30.0),
]


def catalog_configs() -> List[MFGCPConfig]:
    base = MFGCPConfig.fast()
    return [replace(base, **spec) for spec in CATALOG_SPECS]


def two_class_configs() -> List[MFGCPConfig]:
    """The base-station vs smartphone classes of the multi-population tests."""
    fast = MFGCPConfig.fast()
    return [
        replace(fast, channel=ChannelParameters(bandwidth=18.0), w5=70.0),
        replace(fast, channel=ChannelParameters(bandwidth=10.0), w5=140.0),
    ]


def environment() -> Dict[str, str]:
    """The library versions the hashes are only valid under."""
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _array_record(array) -> Dict[str, object]:
    array = np.ascontiguousarray(np.asarray(array, dtype=float))
    digest = hashlib.sha256(repr(array.shape).encode())
    digest.update(array.tobytes())
    rows = np.atleast_1d(array)
    sums = rows.reshape(rows.shape[0], -1).sum(axis=1)
    return {"sha256": digest.hexdigest(), "sums": [float(s) for s in sums]}


def _equilibrium_record(eq) -> Dict[str, object]:
    arrays = {
        "value": eq.value,
        "policy": eq.policy.table,
        "density": eq.density,
        "price": eq.mean_field.price,
        "mean_q": eq.mean_field.mean_q,
        "mean_control": eq.mean_field.mean_control,
    }
    return {
        "arrays": {name: _array_record(a) for name, a in arrays.items()},
        "n_iterations": int(eq.report.n_iterations),
        "final_policy_change": float(eq.report.final_policy_change),
    }


def _single(config: MFGCPConfig) -> List[Dict[str, object]]:
    return [_equilibrium_record(BestResponseIterator(config).solve())]


def _catalog_batch() -> List[Dict[str, object]]:
    results = BatchedBestResponseIterator(catalog_configs()).solve()
    return [_equilibrium_record(eq) for eq in results]


def _catalog_lanes() -> List[Dict[str, object]]:
    return [
        _equilibrium_record(BatchedBestResponseIterator([cfg]).solve()[0])
        for cfg in catalog_configs()
    ]


def _multi_population() -> List[Dict[str, object]]:
    res = MultiPopulationIterator(two_class_configs(), [0.3, 0.7]).solve()
    return [_equilibrium_record(eq) for eq in res.class_results]


CASES: Dict[str, Callable[[], List[Dict[str, object]]]] = {
    "single-default": lambda: _single(MFGCPConfig()),
    "single-fast": lambda: _single(MFGCPConfig.fast()),
    "catalog-batch": _catalog_batch,
    "catalog-lanes": _catalog_lanes,
    "multi-population": _multi_population,
}


def generate() -> Dict[str, object]:
    return {
        "environment": environment(),
        "cases": {name: solve() for name, solve in CASES.items()},
    }


def main(argv: List[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else GOLDEN_PATH
    doc = generate()
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['cases'])} golden cases to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
