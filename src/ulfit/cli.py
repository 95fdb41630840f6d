"""Command-line front end: bound, fit, simulate, and compare reports.

Outputs are plain CSV/JSON plus a small manifest next to each output, so
any result can be audited and reproduced. Every file is written atomically
(temporary file, then os.replace), so a failed command never leaves a
half-written output. Exit codes: 0 success, 2 an input problem (a
SchemaError, a ParseError or an OSError), 3 any other package error (a
numeric failure), 4 scenario-hash mismatch between compared artifacts.
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import DomainError, ParseError, SchemaError, UlfitError
from .fileio import atomic_open, finite_number, read_json, write_json

__all__ = [
    "main",
    "cmd_bound",
    "cmd_fit",
    "cmd_simulate",
    "cmd_compare",
    "parse_grid",
]

# The names the commands call, by module. A command binds the modules it
# runs into this module's namespace on first use (_bind), so each command
# imports only those modules: compare loads neither the quadrature nor the
# sampler. A name already bound, by a monkeypatch or a trace hook, wins.
# Reading a name as a module attribute binds it too (__getattr__).
_SOURCES = {
    "bound": ("l_stats", "total_bound"),
    "fit": ("PowerLognormalFit", "power_lognormal_fit", "powln_cdf_db"),
    "montecarlo": ("simulate_aggregate",),
    "samples": (
        "dkw_slack",
        "ks_distance",
        "load_samples",
        "save_samples",
    ),
    "scenario": ("load_scenario", "scenario_hash"),
}


def _bind(*modules) -> None:
    """Import each module and bind those of its _SOURCES names not bound yet."""
    scope = globals()
    for mod in modules:
        module = importlib.import_module(f".{mod}", __package__)
        for name in _SOURCES[mod]:
            scope.setdefault(name, getattr(module, name))


def __getattr__(name):
    for mod, names in _SOURCES.items():
        if name in names:
            _bind(mod)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_BOUND_COLUMNS = (
    "eps1",
    "eps2",
    "eps1_prime",
    "eps2_prime",
    "eps3",
    "eps_total",
    "mu_l",
    "sigma_l2",
)


# Most rows a --grid may ask for; a larger grid is an input error.
_MAX_GRID_ROWS = 10**6


def _g17(x) -> str:
    return format(float(x), ".17g")


def parse_grid(spec: str) -> np.ndarray:
    """Inclusive dBm grid from a "lo:hi:step" string."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise SchemaError(f"grid: expected lo:hi:step, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise SchemaError(f"grid: non-numeric field in {spec!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise SchemaError(f"grid: non-finite field in {spec!r}")
    if not step > 0:
        raise SchemaError("grid: step must be > 0")
    if hi < lo:
        raise SchemaError("grid: hi must be >= lo")
    count = np.floor((hi - lo) / step + 1e-9) + 1
    if not count <= _MAX_GRID_ROWS:
        raise SchemaError(f"grid: {spec!r} has more than {_MAX_GRID_ROWS} rows")
    return lo + step * np.arange(int(count))


def _positive_int(text: str) -> int:
    """argparse type of a count: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _write_manifest(command, scen_hash, bound, seed, n, outputs) -> None:
    """Write the manifest of a command's outputs at <outputs[0]>.manifest.json."""
    outputs = [str(p) for p in outputs]
    doc = {
        "command": command,
        "scenario_hash": scen_hash,
        "bound": bound,
        "seed": seed,
        "n": n,
        "tool_version": __version__,
        "outputs": outputs,
    }
    write_json(f"{outputs[0]}.manifest.json", doc)


def _cell_reports(scenario):
    """BoundReport per cell, in scenario order; errors name the cell."""
    _bind("bound")
    out = []
    for cell in scenario.cells:
        try:
            stats = l_stats(cell, scenario.victim_bs, scenario.channel)
            out.append(
                total_bound(
                    cell, stats, scenario.channel, scenario.fading, scenario.bound
                )
            )
        except UlfitError as exc:
            raise type(exc)(f"cell {cell.id}: {exc}") from exc
    return out


def cmd_bound(scenario_path, out_csv) -> int:
    """Per-cell error-bound CSV with a max summary row."""
    _bind("scenario")
    scenario = load_scenario(scenario_path)
    scen_hash = scenario_hash(scenario)
    rows = [
        [r.cell_id] + [getattr(r, c) for c in _BOUND_COLUMNS]
        for r in _cell_reports(scenario)
    ]
    maxima = ["max"] + [
        max(row[i + 1] for row in rows) for i in range(len(_BOUND_COLUMNS))
    ]
    with atomic_open(out_csv) as fh:
        fh.write("cell_id," + ",".join(_BOUND_COLUMNS) + "\n")
        for row in rows + [maxima]:
            fh.write(
                str(row[0]) + "," + ",".join(_g17(v) for v in row[1:]) + "\n"
            )
    _write_manifest("bound", scen_hash, asdict(scenario.bound), None, None, [out_csv])
    return 0


def cmd_fit(scenario_path, out_json, grid_spec=None) -> int:
    """Per-cell Gaussian fits plus the aggregate power-lognormal fit.

    With a grid, also writes the analytic CDF to <out_json>.cdf.csv.
    """
    _bind("scenario", "fit")
    grid = parse_grid(grid_spec) if grid_spec is not None else None
    scenario = load_scenario(scenario_path)
    scen_hash = scenario_hash(scenario)
    reports = _cell_reports(scenario)
    per_cell = [
        {
            "cell_id": r.cell_id,
            "mu_g_dbm": r.step1.mu,
            "sigma_g2_db2": r.step1.sigma2,
            "mu_q_dbm": r.step2.mu,
            "sigma_q2_db2": r.step2.sigma2,
            **{c: getattr(r, c) for c in _BOUND_COLUMNS[:6]},
        }
        for r in reports
    ]
    # The MGF probes are stated against the power-control target P0.
    agg = power_lognormal_fit([r.step2 for r in reports], scenario.channel.p0_dbm)
    doc = {
        "lambda": agg.lam,
        "mu_q_dbm": agg.mu_q,
        "sigma_q2_db2": agg.sigma_q2,
        "scenario_hash": scen_hash,
        "eps_total": max(c["eps_total"] for c in per_cell),
        "bound": asdict(scenario.bound),
        "per_cell": per_cell,
    }
    write_json(out_json, doc)
    outputs = [out_json]
    if grid is not None:
        cdf_csv = f"{out_json}.cdf.csv"
        vals = powln_cdf_db(grid, agg)
        with atomic_open(cdf_csv) as fh:
            fh.write("q_dbm,cdf\n")
            for q, v in zip(grid, vals):
                fh.write(f"{_g17(q)},{_g17(v)}\n")
        outputs.append(cdf_csv)
    _write_manifest("fit", scen_hash, asdict(scenario.bound), None, None, outputs)
    return 0


def cmd_simulate(scenario_path, n, seed, out_bin, workers=1) -> int:
    """Aggregate-interference sample file plus sidecar and manifest."""
    _bind("scenario", "montecarlo", "samples")
    scenario = load_scenario(scenario_path)
    scen_hash = scenario_hash(scenario)
    try:
        samples = simulate_aggregate(scenario, n, seed, workers=workers)
    except MemoryError as exc:
        raise SchemaError(f"--n: {n} samples do not fit in memory") from exc
    save_samples(samples, out_bin, scen_hash)
    _write_manifest(
        "simulate",
        scen_hash,
        asdict(scenario.bound),
        seed,
        n,
        [out_bin, f"{out_bin}.json"],
    )
    return 0


def cmd_compare(samples_path, fit_json, out_report) -> int:
    """KS of empirical samples against a fitted CDF, with verdict.

    The verdict passes only a one-cell fit whose KS distance is at most
    eps_total plus the DKW slack at 99% confidence: a fit of more cells
    holds their largest eps_total, which certifies one cell, not the sum.
    """
    _bind("samples", "fit")
    samples, sidecar = load_samples(samples_path)
    fit_doc = read_json(fit_json)
    keys = ("lambda", "mu_q_dbm", "sigma_q2_db2", "eps_total")
    try:
        values = [finite_number(fit_doc[k]) for k in keys]
        fit_hash = fit_doc["scenario_hash"]
        per_cell = fit_doc["per_cell"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{fit_json}: missing or bad field ({exc})") from exc
    if not isinstance(fit_hash, str):
        raise SchemaError(f"{fit_json}: scenario_hash must be a string")
    if not isinstance(per_cell, list) or not per_cell:
        raise SchemaError(f"{fit_json}: per_cell must be a non-empty list")
    for key, value in zip(keys, values):
        if value is None:
            raise SchemaError(f"{fit_json}: {key} must be a finite number")
    lam, mu_q, sigma_q2, eps_total = values
    if eps_total < 0.0:
        raise SchemaError(f"{fit_json}: eps_total must be >= 0")
    try:
        fit = PowerLognormalFit(lam, mu_q, sigma_q2)
    except DomainError as exc:
        raise SchemaError(f"{fit_json}: {exc}") from exc
    if fit_hash != sidecar["scenario_hash"]:
        print(
            f"error: scenario hash mismatch: samples {sidecar['scenario_hash']}"
            f" vs fit {fit_hash}",
            file=sys.stderr,
        )
        return 4
    ks = ks_distance(samples, lambda q: powln_cdf_db(q, fit))
    slack = dkw_slack(samples.n)
    verdict = {
        "ks_empirical_vs_fit": ks,
        "eps_total": eps_total,
        "dkw_slack": slack,
        "pass": len(per_cell) == 1 and bool(ks <= eps_total + slack),
    }
    write_json(out_report, verdict)
    _write_manifest(
        "compare",
        fit_hash,
        fit_doc.get("bound"),
        samples.seed,
        samples.n,
        [out_report],
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulfit",
        description="Uplink interference bounds, fits, and simulation checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="per-cell error-bound CSV")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="Gaussian and power-lognormal fits (JSON)")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", help="dBm CDF grid as lo:hi:step")

    p = sub.add_parser("simulate", help="aggregate-interference samples")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=_positive_int, default=1_000_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workers", type=_positive_int, default=1)

    p = sub.add_parser("compare", help="KS verdict of samples vs a fit")
    p.add_argument("--samples", required=True)
    p.add_argument("--fit", required=True)
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Grid specs start with "-" for dBm values; merge so argparse does
    # not mistake them for option names.
    argv = list(argv)
    for i, tok in enumerate(argv[:-1]):
        if tok == "--grid":
            argv[i : i + 2] = [f"--grid={argv[i + 1]}"]
            break
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "bound":
            return cmd_bound(args.scenario, args.out)
        if args.command == "fit":
            return cmd_fit(args.scenario, args.out, args.grid)
        if args.command == "simulate":
            return cmd_simulate(
                args.scenario, args.n, args.seed, args.out, workers=args.workers
            )
        return cmd_compare(args.samples, args.fit, args.out)
    except (SchemaError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UlfitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
