"""Heterogeneous edge: base stations and smartphones in one market.

The paper's system model names two EDP hardware classes —
"small-cell/femtocell base stations and smartphones" — while its
mean-field reduction assumes exchangeable EDPs.  This example uses the
multi-population extension (one generic player + density per class,
coupled through the shared Eq. (17) market) to study a 30/70 mix:

* base stations: strong radios (18 MB/s links) and cheap storage
  (low w5);
* smartphones: weaker radios (10 MB/s) and expensive storage
  (high w5).

Run:  python examples/heterogeneous_edge.py
"""

from dataclasses import replace

import numpy as np

from repro import ChannelParameters, MFGCPConfig, MultiPopulationIterator
from repro.analysis.reporting import print_table


def main() -> None:
    base = MFGCPConfig.fast()
    base_station = replace(base, channel=ChannelParameters(bandwidth=18.0), w5=70.0)
    smartphone = replace(base, channel=ChannelParameters(bandwidth=10.0), w5=140.0)

    print("Solving the two-class mean-field equilibrium "
          "(30% base stations, 70% smartphones)...")
    result = MultiPopulationIterator(
        [base_station, smartphone], weights=[0.3, 0.7]
    ).solve()
    print(f"  {result.report.describe()}")

    # ------------------------------------------------------------------
    # Class-level outcomes.
    # ------------------------------------------------------------------
    labels = ("base stations", "smartphones")
    rows = []
    for c, label in enumerate(labels):
        res = result.class_results[c]
        acc = res.accumulated_utility()
        mean_control = res.policy.mean_against(res.density)
        rows.append(
            (
                label,
                float(result.weights[c]),
                float(mean_control.mean()),
                float(res.grid.integrate(res.density[-1] * res.grid.q_mesh())[0]),
                acc["staleness_cost"],
                acc["total"],
            )
        )
    print_table(
        ["class", "share", "avg caching rate", "final mean q (MB)",
         "staleness cost", "utility"],
        rows,
        title="\nPer-class equilibrium outcomes",
    )

    # ------------------------------------------------------------------
    # The shared market they both face.
    # ------------------------------------------------------------------
    t = result.market.grid.t
    stride = max(1, len(t) // 6)
    print_table(
        ["t", "market price", "population E[x*]"],
        [
            (f"{t[i]:.2f}", result.market.price[i], result.market.mean_control[i])
            for i in range(0, len(t), stride)
        ],
        title="\nShared market (price couples the classes, Eq. (17))",
    )

    # ------------------------------------------------------------------
    # The story.
    # ------------------------------------------------------------------
    bs, phone = rows[0], rows[1]
    print(
        f"\nBase stations cache harder ({bs[2]:.2f} vs {phone[2]:.2f} average "
        f"rate) thanks to cheap storage, hold more content "
        f"({bs[3]:.1f} vs {phone[3]:.1f} MB remaining), and earn "
        f"{bs[5] / max(phone[5], 1e-9):.2f}x the smartphone utility —\n"
        "while smartphones still benefit from the same depressed market "
        "price the base stations' supply creates."
    )
    print(f"\nPopulation-weighted utility: {result.population_utility():.1f}")


if __name__ == "__main__":
    main()
