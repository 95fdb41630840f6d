"""Regenerate perfbench/reference.json, the stored references of the checks.

    python3 perfbench/make_reference.py

All references are for hotspot_fit:

- quantiles of the aggregate from a large simulate run at a seed of its
  own. A run's samples must match them to within the DKW radii of both
  sample sizes, so the check holds for any correct sampler, not only for
  today's draw-to-position map;
- the per-cell Gaussian fits and eps_total of today's fit, which later
  quadrature changes must reproduce within the tolerances that run.py
  states.

Takes about a minute on two cores. Regenerate it only in a change of
its own, with the reason in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REF_N = 2_000_000
REF_SEED = 0
LEVELS = [0.005] + [round(0.01 * k, 2) for k in range(1, 100)] + [0.995]


def _cli(env, *args) -> None:
    subprocess.run(
        [sys.executable, "-m", "ulfit.cli", *args], env=env, check=True, cwd=ROOT
    )


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        scen = str(tmp / "hotspot_fit.json")
        subprocess.run(
            [sys.executable, str(Path(__file__).parent / "scenarios.py"),
             "--workload", "hotspot_fit", "--out", scen],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        _cli(
            env, "simulate", "--scenario", scen,
            "--out", str(tmp / "ref.bin"), "--n", str(REF_N),
            "--seed", str(REF_SEED), "--workers", "2",
        )
        raw = (tmp / "ref.bin").read_bytes()
        values = np.frombuffer(raw[8:], dtype="<f8")
        # Lower empirical quantile: the smallest sample with F_n >= p.
        idx = np.ceil(np.array(LEVELS) * REF_N).astype(int) - 1
        quantiles = [float(values[i]) for i in idx]

        _cli(env, "fit", "--scenario", scen, "--out", str(tmp / "fit.json"))
        fit = json.loads((tmp / "fit.json").read_text())
    cells = {
        str(c["cell_id"]): {k: c[k] for k in ("mu_q_dbm", "sigma_q2_db2", "eps_total")}
        for c in fit["per_cell"]
    }
    doc = {
        "hotspot_fit": {
            "per_cell": cells,
            "n": REF_N,
            "seed": REF_SEED,
            "levels": LEVELS,
            "quantiles_dbm": quantiles,
        },
    }
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
