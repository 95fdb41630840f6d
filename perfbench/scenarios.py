"""Workload table and scenario generation for the ulfit benchmark.

Run as a script it is the timed set-up step: a fresh interpreter imports
ulfit, builds the workload's scenario, writes it as JSON and prints one
JSON line with the scenario hash and cell count.

    python3 perfbench/scenarios.py --workload hotspot_fit --out scen.json

The scenarios are fixed by the paper's reference cases, so the checks can
compare against stored references: the canonical single cell of criterion
07 and the 84-station inverse-radial Rayleigh drop of criterion 09
(layout seed 1). The benchmark's --seed selects the Monte Carlo draws.
"""

from __future__ import annotations

import argparse
import json

# Layout seed of criterion 09's hotspot drop.
HOTSPOT_LAYOUT_SEED = 1
HOTSPOT_RADIUS_KM = 0.01

# Per workload: stations of the hotspot drop (None for the single cell),
# the fit grid, simulate's n, and the nominal wall time of one CLI chain
# on two vCPUs, from which run.py fixes the number of chains per run.
WORKLOADS = {
    "single_cell": {"stations": None, "grid": "-140:-60:0.5", "n": 1_000_000,
                    "chain_s": 16.5},
    "hotspot_fit": {"stations": 3, "grid": None, "n": 1_000_000,
                    "chain_s": 22.5},
}


def build(workload: str):
    """The workload's ulfit Scenario."""
    from ulfit.channel import FadingModel
    from ulfit.scenario import Scenario, build_hotspot_layout, build_single_cell

    rayleigh = FadingModel("rayleigh")
    stations = WORKLOADS[workload]["stations"]
    if stations is None:
        return build_single_cell(0.01, "uniform", rayleigh)
    # The first k stations of the 84-station drop: the same victim and the
    # same first k-1 cells as criterion 09's layout.
    full = build_hotspot_layout(
        84,
        HOTSPOT_RADIUS_KM,
        HOTSPOT_LAYOUT_SEED,
        density_kind="inverse_radial",
        fading=rayleigh,
    )
    return Scenario(
        full.victim_bs,
        full.cells[: stations - 1],
        full.channel,
        full.fading,
        full.bound,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from ulfit.scenario import save_scenario, scenario_hash

    scenario = build(args.workload)
    save_scenario(scenario, args.out)
    print(
        json.dumps(
            {"scenario_hash": scenario_hash(scenario), "cells": len(scenario.cells)}
        )
    )


if __name__ == "__main__":
    main()
