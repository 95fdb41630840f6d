"""Run the CLI chain on seven scenarios and keep every artifact in one tree.

    python3 scripts/cli_artifacts.py SRC OUT

SRC is the directory that holds the ulfit package (``src`` in a checkout)
and OUT an output directory, created if missing. The scenarios are built
and saved by the package under SRC, and every command runs in a fresh
interpreter with PYTHONPATH=SRC and cwd=OUT, naming its files relative to
OUT. So the trees of two checkouts compare directly: ``diff -r A B`` is
empty when every artifact, sidecar and manifest is byte-identical.

Scenarios: the two benchmark workloads of perfbench/scenarios.py, the
84-station inverse-radial Rayleigh drop, and four cells that take the
user-domain carves: a uniform and an inverse-radial annulus, each centred
on its station, an annulus-polygon intersection, and a uniform annulus
whose hole is one ulp inside the d_min carve's circle, so that the carve
applies and two parts of its user domain trace one curve to rounding;
and three cells that put every kind of panel break in the quadrature:
two crossing ellipses, two crossing polygons, and an inverse-radial disk
whose density origin lies on its rim; and the bread cell of the
single-cell sweep under the other two fading kinds, uniform with Rician
fading (gamma 5) and inverse-radial with none. On each scenario the
chain runs bound, fit with a grid, simulate with one, two and three
workers, and compare. The exit status is 0 when every command exits 0,
and otherwise the first failing command's.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_GRID = "-140:-60:0.5"
_N = "200000"
_SEED = "1"


def _scenarios():
    """(name, Scenario) pairs, built by the ulfit package on sys.path."""
    from scenarios import HOTSPOT_LAYOUT_SEED, HOTSPOT_RADIUS_KM, build
    from ulfit.channel import FadingModel
    from ulfit.geometry import (
        Annulus,
        Disk,
        Ellipse,
        Intersection,
        Polygon,
        UeDensity,
    )
    from ulfit.scenario import (
        DEFAULT_CHANNEL,
        BoundParams,
        Cell,
        Scenario,
        build_hotspot_layout,
        build_single_cell,
    )

    rayleigh = FadingModel("rayleigh")
    uniform = UeDensity("uniform")
    east, west, north, south = (0.03, 0.0), (-0.03, 0.0), (0.0, 0.03), (0.0, -0.03)
    radial = UeDensity("inverse_radial", west)
    square = Polygon(((-0.01, 0.02), (0.01, 0.02), (0.01, 0.04), (-0.01, 0.04)))
    # Ring holes inside and outside the d_min disk, one a ulp inside its
    # circle, so that the carve applies, and a ring cut by a square.
    cut = Intersection((Annulus(north, 0.003, 0.012), square))
    hole = math.nextafter(DEFAULT_CHANNEL.d_min_km, 0.0)
    carves = Scenario(
        (0.0, 0.0),
        (
            Cell(2, east, Annulus(east, 0.002, 0.01), uniform),
            Cell(3, west, Annulus(west, 0.006, 0.01), radial),
            Cell(4, north, cut, uniform),
            Cell(5, south, Annulus(south, hole, 0.01), uniform),
        ),
        DEFAULT_CHANNEL,
        rayleigh,
        BoundParams(),
    )
    # Ellipse-ellipse and polygon-polygon crossings, and the tangent line at
    # a density origin on the rim, (0.01, 0.042) on the disk's east side.
    lens = Intersection(
        (Ellipse(east, 0.012, 0.006, 0.3), Ellipse((0.034, 0.002), 0.01, 0.005, 1.2))
    )
    box = Polygon(
        ((-0.042, -0.012), (-0.018, -0.012), (-0.018, 0.012), (-0.042, 0.012))
    )
    diamond = Polygon(
        ((-0.028, -0.01), (-0.014, 0.004), (-0.028, 0.018), (-0.042, 0.004))
    )
    kite = Intersection((box, diamond))
    rim = UeDensity("inverse_radial", (0.01, 0.042))
    events = Scenario(
        (0.0, 0.0),
        (
            Cell(2, east, lens, uniform),
            Cell(3, west, kite, radial),
            Cell(4, north, Disk((0.0, 0.042), 0.01), rim),
        ),
        DEFAULT_CHANNEL,
        rayleigh,
        BoundParams(),
    )
    drop = build_hotspot_layout(
        84, HOTSPOT_RADIUS_KM, HOTSPOT_LAYOUT_SEED, "inverse_radial", rayleigh
    )
    return [
        ("single_cell", build("single_cell")),
        ("hotspot_fit", build("hotspot_fit")),
        ("hotspot84", drop),
        ("carves", carves),
        ("events", events),
        ("rician", build_single_cell(0.01, "uniform", FadingModel("rician", 5.0))),
        ("nofading", build_single_cell(0.01, "inverse_radial", FadingModel("none"))),
    ]


def _chain(name):
    """The CLI argument lists run on one scenario, in order."""
    scen = f"{name}/scenario.json"
    return [
        ["bound", "--scenario", scen, "--out", f"{name}/bound.csv"],
        ["fit", "--scenario", scen, "--out", f"{name}/fit.json", f"--grid={_GRID}"],
        *(
            [
                "simulate", "--scenario", scen, "--out", f"{name}/samples_w{w}.bin",
                "--n", _N, "--seed", _SEED, "--workers", str(w),
            ]
            for w in (1, 2, 3)
        ),
        [
            "compare", "--samples", f"{name}/samples_w1.bin",
            "--fit", f"{name}/fit.json", "--out", f"{name}/report.json",
        ],
    ]


def main() -> int:
    if len(sys.argv) != 3:
        print(f"usage: {__doc__.splitlines()[2].strip()}", file=sys.stderr)
        return 2
    src, out = (Path(a).resolve() for a in sys.argv[1:])
    sys.path[:0] = [str(src), str(_PERFBENCH)]
    from ulfit.scenario import save_scenario

    env = dict(os.environ, PYTHONPATH=str(src))
    for name, scenario in _scenarios():
        (out / name).mkdir(parents=True, exist_ok=True)
        save_scenario(scenario, out / name / "scenario.json")
        for argv in _chain(name):
            cmd = [sys.executable, "-m", "ulfit.cli", *argv]
            rc = subprocess.run(cmd, cwd=out, env=env).returncode
            if rc != 0:
                print(f"exit {rc}: {' '.join(argv)}", file=sys.stderr)
                return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
