"""ulfit benchmark: the real CLI chain on fixed paper scenarios, checked.

    python3 perfbench/run.py --workload single_cell --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

One run of a workload:

1. Set-up, repeated SETUP_REPEATS times in fresh interpreters: import
   ulfit, build the workload's scenario and write it (scenarios.py).
   setup_s is the median.
2. The CLI chain `fit`, `simulate`, `compare`, each call a fresh
   `python3 -m ulfit.cli` process, timed from outside with its peak RSS.
   The chain repeats a fixed number of times, round(--seconds / the
   workload's nominal chain time) and at least MIN_CHAINS, so every run
   of a workload takes the same number of samples whatever the machine's
   speed. `compare` runs COMPARE_REPEATS times in each chain. The
   end-to-end metrics are medians over the chains, or over every compare
   call for compare_s.
3. Output checks on every chain; each failed check or CLI call counts in
   `failed`.
4. With --trace 1, the same chain once more through traced.py, which puts
   spans around every layer call. The per-layer metrics come from those
   spans; its artifacts must equal the CLI's byte for byte.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Each run also writes its full
record, with provenance and spans, under .perfbench/results/. The
metric names emitted must match BENCHMARK.json, or the run fails.
Workload sizes and the reasons for them are in scenarios.py, README.md
and BENCHMARK.json; the layer-to-end-to-end map is in layers.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from scenarios import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
MIN_CHAINS = 2
COMPARE_REPEATS = 3
# Every span traced.py opens; a layer with none did no work, which is an
# error, not a speed-up.
TRACED_SPANS = frozenset({
    "cli.fit", "cli.simulate", "cli.compare",
    "scenario.load_scenario", "scenario.scenario_hash",
    "bound.l_stats", "bound.coupling_char_fn", "bound.total_bound",
    "geometry.density_profile", "bound.step1_bound", "bound.step2_bound",
    "bound.epsilon2", "channel.fading_char_fn",
    "fit.power_lognormal_fit", "fit.solve_sum_stats",
    "montecarlo.simulate_aggregate", "montecarlo.save_samples",
    "montecarlo.cell_slice", "montecarlo.positions_slice", "geometry.proposal_block",
    "channel.coupling_gain_L", "channel.sample_fading_db_block",
    "montecarlo.load_samples", "montecarlo.ks_distance", "computed.acceptance",
})
THREAD_CAP = 2
# Criterion 07's rayleigh row for the canonical single cell.
SINGLE_CELL_BANDS = {"mu_q_dbm": (-97.1, 1.5), "sigma_q2_db2": (205.3, 6.0)}
SINGLE_CELL_EPS = (4.9e-3 / 2, 4.9e-3 * 2)
# hotspot_fit per-cell tolerances against reference.json: the quadrature
# is accepted at 1e-4 relative change, which moves mu_q by about 0.01 dB.
HOTSPOT_MU_TOL_DB = 0.05
HOTSPOT_SIGMA2_REL_TOL = 5e-3
HOTSPOT_EPS_FACTOR = 2.0
# Confidence of the DKW bands in the quantile-table check; small, so that
# a correct sampler fails it far less often than once in a thousand runs.
QUANTILE_CHECK_ALPHA = 1e-6


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _dkw(n: int, alpha: float) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


class Runner:
    """Runs child processes in one work directory and keeps the op tally."""

    def __init__(self, work: Path, env: dict):
        self.work = work
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self._count = 0

    def call(self, argv, label):
        """Run argv; returns (ok, wall seconds, peak RSS in MB, stdout)."""
        self._count += 1
        out_path = self.work / f"{self._count:03d}-{label}.out"
        err_path = self.work / f"{self._count:03d}-{label}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env, stdout=out, stderr=err
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0
        self.attempted += 1
        if not ok:
            self.failed += 1
            tail = err_path.read_text(errors="replace")[-2000:]
            print(f"FAILED {label} (exit {proc.returncode}): {tail}", file=sys.stderr)
        return ok, wall, usage.ru_maxrss * 1024 / 1e6, out_path.read_text()

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})


def _setup(runner, workload, scen_path):
    times, info = [], None
    for _ in range(SETUP_REPEATS):
        ok, wall, _, out = runner.call(
            [str(HERE / "scenarios.py"), "--workload", workload, "--out", str(scen_path)],
            "setup",
        )
        if not ok:
            raise BenchError("scenario generation failed")
        times.append(wall)
        info = json.loads(out.strip().splitlines()[-1])
    return statistics.median(times), times, info


def _cli(runner, label, *args):
    return runner.call(["-m", "ulfit.cli", label, *args], label)


def _paths(work, tag):
    return {
        "fit": work / f"fit-{tag}.json",
        "samples": work / f"samples-{tag}.bin",
        "report": work / f"report-{tag}.json",
    }


def _artifacts(paths, cfg):
    """The files a chain writes whose bytes must not depend on the run."""
    files = [paths["fit"], paths["samples"], Path(f"{paths['samples']}.json"),
             paths["report"]]
    if cfg["grid"]:
        files.append(Path(f"{paths['fit']}.cdf.csv"))
    return files


def _same_artifacts(a, b, cfg):
    return all(x.read_bytes() == y.read_bytes()
               for x, y in zip(_artifacts(a, cfg), _artifacts(b, cfg), strict=True))


def _step_args(cfg, scen, paths, seed, workers):
    """CLI arguments of fit, simulate and compare, in chain order."""
    fit = ["--scenario", str(scen), "--out", str(paths["fit"])]
    if cfg["grid"]:
        fit.append(f"--grid={cfg['grid']}")
    return {
        "fit": fit,
        "simulate": ["--scenario", str(scen), "--out", str(paths["samples"]),
                     "--n", str(cfg["n"]), "--seed", str(seed), "--workers", str(workers)],
        "compare": ["--samples", str(paths["samples"]), "--fit", str(paths["fit"]),
                    "--out", str(paths["report"])],
    }


def _run_chain(runner, workload, scen, seed, workers, tag):
    """One CLI chain; returns per-step walls and peak RSS, pipeline wall, paths."""
    paths = _paths(runner.work, tag)
    stages, rss = {}, {}
    ok = True
    start = time.perf_counter()
    for step, args in _step_args(WORKLOADS[workload], scen, paths, seed, workers).items():
        ok, stages[f"{step}_s"], rss[step], _ = _cli(runner, step, *args)
        if not ok:
            break
    pipeline = time.perf_counter() - start
    # compare is the shortest step and the one with the widest run-to-run
    # spread, so it runs COMPARE_REPEATS times per chain; only the first
    # is part of pipeline_s.
    compares = [stages["compare_s"]] if ok else []
    repeat = Path(f"{paths['report']}.repeat")
    args = _step_args(WORKLOADS[workload], scen, {**paths, "report": repeat}, seed, workers)
    for _ in range(COMPARE_REPEATS - 1 if ok else 0):
        ok, wall, _, _ = _cli(runner, "compare", *args["compare"])
        if not ok:
            break
        compares.append(wall)
        runner.check("compare.repeat_identical",
                     repeat.read_bytes() == paths["report"].read_bytes())
    return {"ok": ok, "stages": stages, "compare_walls": compares, "rss_mb": rss,
            "pipeline_s": pipeline, "paths": paths}


def _read_samples(path):
    import numpy as np

    raw = path.read_bytes()
    n = int.from_bytes(raw[:8], "little")
    return n, np.frombuffer(raw[8:], dtype="<f8"), json.loads(
        Path(f"{path}.json").read_text()
    )


def _check_chain(runner, workload, chain, seed, info, reference):
    """Output checks of one chain; returns the quality figures it read."""
    import numpy as np

    cfg = WORKLOADS[workload]
    paths, n = chain["paths"], cfg["n"]
    quality = {}

    count, values, sidecar = _read_samples(paths["samples"])
    runner.check("samples.count", count == n == values.size == sidecar["n"],
                 f"header {count}, values {values.size}, sidecar {sidecar['n']}")
    runner.check("samples.sorted", bool(np.all(np.diff(values) >= 0)))
    runner.check("samples.sidecar", sidecar["seed"] == seed
                 and sidecar["scenario_hash"] == info["scenario_hash"], str(sidecar))

    if workload == "hotspot_fit":
        ref = reference["hotspot_fit"]
        levels = np.array(ref["levels"])
        emp = np.searchsorted(values, ref["quantiles_dbm"], side="right") / values.size
        gap = float(np.max(np.abs(emp - levels)))
        slack = (_dkw(values.size, QUANTILE_CHECK_ALPHA)
                 + _dkw(ref["n"], QUANTILE_CHECK_ALPHA) + 1.0 / ref["n"])
        quality["quantile_gap"] = gap
        runner.check("samples.quantile_table", gap <= slack,
                     f"max |F_n - p| {gap:.5f} vs slack {slack:.5f}")

    fit = json.loads(paths["fit"].read_text())
    report = json.loads(paths["report"].read_text())
    quality.update(ks=report["ks_empirical_vs_fit"], dkw_slack=report["dkw_slack"],
                   eps_total=fit["eps_total"], verdict_pass=report["pass"])
    runner.check("fit.scenario_hash", fit["scenario_hash"] == info["scenario_hash"])
    runner.check("fit.cells", len(fit["per_cell"]) == info["cells"])
    if cfg["grid"]:
        lines = Path(f"{paths['fit']}.cdf.csv").read_text().splitlines()[1:]
        cdf = np.array([float(line.split(",")[1]) for line in lines])
        lo, hi, step = (float(v) for v in cfg["grid"].split(":"))
        runner.check("fit.cdf_grid",
                     cdf.size == round((hi - lo) / step) + 1
                     and bool(np.all(np.diff(cdf) >= 0))
                     and 0.0 <= cdf[0] and cdf[-1] <= 1.0,
                     f"{cdf.size} rows")
    if workload == "single_cell":
        cell = fit["per_cell"][0]
        for key, (centre, tol) in SINGLE_CELL_BANDS.items():
            runner.check(f"fit.{key}_band", abs(cell[key] - centre) <= tol,
                         f"{cell[key]:.3f} vs {centre} +- {tol}")
        lo, hi = SINGLE_CELL_EPS
        runner.check("fit.eps_total_band", lo <= cell["eps_total"] <= hi,
                     f"{cell['eps_total']:.3e} outside [{lo:.3e}, {hi:.3e}]")
        runner.check("compare.certified_pass", report["pass"] is True,
                     f"ks {report['ks_empirical_vs_fit']:.5f}")
    if workload == "hotspot_fit":
        ref = reference["hotspot_fit"]["per_cell"]
        for cell in fit["per_cell"]:
            want = ref[str(cell["cell_id"])]
            ratio = cell["eps_total"] / want["eps_total"]
            runner.check(
                f"fit.cell{cell['cell_id']}_reference",
                abs(cell["mu_q_dbm"] - want["mu_q_dbm"]) <= HOTSPOT_MU_TOL_DB
                and abs(cell["sigma_q2_db2"] / want["sigma_q2_db2"] - 1.0)
                <= HOTSPOT_SIGMA2_REL_TOL
                and 1.0 / HOTSPOT_EPS_FACTOR <= ratio <= HOTSPOT_EPS_FACTOR,
                f"{cell} vs {want}",
            )
        # The aggregate verdict is recorded, not gated: the aggregate fit
        # certifies nothing yet, and its defect shows in ks.
    return quality


def _traced_chain(runner, workload, scen, seed, workers, chain):
    """The chain once more through traced.py; its artifacts must equal the CLI's."""
    cfg = WORKLOADS[workload]
    paths = _paths(runner.work, "traced")
    docs = {}
    start = time.perf_counter()
    for step, args in _step_args(cfg, scen, paths, seed, workers).items():
        spans = runner.work / f"spans-{step}.json"
        ok, _, _, _ = runner.call(
            [str(HERE / "traced.py"), "--spans", str(spans), step, *args], f"traced-{step}")
        if not ok:
            raise BenchError(f"traced {step} failed")
        docs[step] = json.loads(spans.read_text())
    pipeline = time.perf_counter() - start
    runner.check("traced.artifacts_identical", _same_artifacts(paths, chain["paths"], cfg))
    found = {s["name"] for doc in docs.values() for s in doc["spans"]}
    if TRACED_SPANS - found:
        raise BenchError(f"layers that did no work in the traced run: "
                         f"{sorted(TRACED_SPANS - found)}")
    return docs, pipeline


def _sum(spans, name, key=None):
    sel = [s for s in spans if s["name"] == name]
    if key is None:
        return sum(s["end"] - s["start"] for s in sel)
    return sum(s[key] for s in sel)


def _mean(spans, name):
    return _sum(spans, name) / sum(1 for s in spans if s["name"] == name)


def _layer_metrics(docs, quality, traced_pipeline, pipeline, cells):
    """Per-layer metrics from the traced chain."""
    fit = docs["fit"]["spans"]
    sim = docs["simulate"]["spans"]
    cmp_ = docs["compare"]["spans"]
    every = fit + sim + cmp_
    by_id = {s["id"]: s for s in fit}

    def under(parent_name, name):
        return sum(s["end"] - s["start"] for s in fit if s["name"] == name
                   and by_id.get(s["parent"], {}).get("name") == parent_name)

    # density_profile runs inside l_stats; its cell is the parent span's.
    bins = {by_id[s["parent"]]["cell"]: s["bins"] for s in fit
            if s["name"] == "geometry.density_profile"}
    terms = {s["cell"]: s["freqs"] for s in fit if s["name"] == "bound.coupling_char_fn"}
    # l_stats evaluates the char fn in blocks of at most 4e7 entries.
    block_mb = [min(max(1, int(4e7 / bins[c])), terms[c]) * bins[c] * 16 / 1e6
                for c in terms]

    slice_s = _sum(sim, "montecarlo.cell_slice")
    positions = [s for s in sim if s["name"] == "montecarlo.positions_slice"]
    rounds = [sum(1 for s in sim if s["name"] == "geometry.proposal_block"
                  and s["parent"] == p["id"]) for p in positions]
    acceptance = docs["simulate"]["acceptance"]
    proposed = _sum(sim, "geometry.proposal_block", "proposed")
    points = _sum(sim, "channel.coupling_gain_L", "points")
    draws = _sum(sim, "channel.sample_fading_db_block", "draws")
    return {
        "scenario.load_scenario_s": _mean(every, "scenario.load_scenario"),
        "scenario.scenario_hash_s": _mean(every, "scenario.scenario_hash"),
        "geometry.density_profile_s": _sum(fit, "geometry.density_profile") / cells,
        "geometry.profile_bins": max(bins.values()),
        "bound.l_stats_s": _sum(fit, "bound.l_stats") / cells,
        "bound.epsilon2_s": under("bound.step1_bound", "bound.epsilon2") / cells,
        "bound.epsilon2_prime_s": under("bound.step2_bound", "bound.epsilon2") / cells,
        "bound.eps2_terms": max(terms.values()),
        "bound.eps2_exp_evals": sum(terms[c] * bins[c] for c in terms),
        "bound.charfn_block_mb": max(block_mb),
        "bound.eps_total": quality["eps_total"],
        "channel.fading_char_fn_s": _sum(fit, "channel.fading_char_fn") / cells,
        "fit.solve_sum_stats_s": _sum(fit, "fit.solve_sum_stats"),
        "fit.power_lognormal_fit_s": _sum(fit, "fit.power_lognormal_fit"),
        "montecarlo.simulate_aggregate_s": _sum(sim, "montecarlo.simulate_aggregate"),
        "montecarlo.simulate_cell_s": slice_s / cells,
        "montecarlo.positions_share": _sum(positions, "montecarlo.positions_slice") / slice_s,
        "montecarlo.rejection_rounds_max": max(rounds),
        "geometry.proposal_block_s": _sum(sim, "geometry.proposal_block") / (proposed / 1e6),
        "geometry.acceptance_min": min(acceptance),
        "geometry.acceptance_median": statistics.median(acceptance),
        "channel.coupling_gain_L_s": _sum(sim, "channel.coupling_gain_L") / (points / 1e6),
        "channel.sample_fading_db_block_s": _sum(
            sim, "channel.sample_fading_db_block") / (draws / 1e6),
        "montecarlo.save_samples_s": _sum(sim, "montecarlo.save_samples"),
        "montecarlo.load_samples_s": _sum(cmp_, "montecarlo.load_samples"),
        "montecarlo.ks_distance_s": _sum(cmp_, "montecarlo.ks_distance"),
        "montecarlo.ks": quality["ks"],
        "montecarlo.dkw_slack": quality["dkw_slack"],
        # The computed acceptance is not part of the CLI chain.
        "trace.overhead_s": traced_pipeline - _sum(sim, "computed.acceptance") - pipeline,
    }


def _provenance(workload, seed, seconds, trace, threads, workers, info) -> dict:
    import numpy as np
    import scipy

    sha = None  # the benchmark's checkout need not be a git repository
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ulfit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_cap": threads,
        "workers": workers,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": {**WORKLOADS[workload], "cells": info["cells"]},
    }


def _self_check(spec, metrics, trace):
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise BenchError(f"emitted metrics differ from BENCHMARK.json: "
                         f"missing {missing}, extra {extra}, or units differ")


def run_workload(spec, workload, seed, seconds, trace) -> dict:
    if not (SRC / "ulfit" / "cli.py").is_file():
        raise BenchError(f"no ulfit sources under {SRC}")
    threads = min(THREAD_CAP, len(os.sched_getaffinity(0)))
    workers = threads
    reference = json.loads((HERE / "reference.json").read_text())
    base = ROOT / ".perfbench"
    work = base / f"work-{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work, _child_env(threads))
        scen = work / "scenario.json"
        setup_s, setup_times, info = _setup(runner, workload, scen)

        # A fixed number of whole chains, set by --seconds and the
        # workload's nominal chain time, never by measured times.
        cfg = WORKLOADS[workload]
        chains, quality = [], {}
        for i in range(max(MIN_CHAINS, round(seconds / cfg["chain_s"]))):
            chain = _run_chain(runner, workload, scen, seed, workers, i)
            chains.append(chain)
            if not chain["ok"]:
                continue
            quality = _check_chain(runner, workload, chain, seed, info, reference)
            first = next(c for c in chains if c["ok"])
            if chain is not first:
                runner.check("chain.repeat_identical",
                             _same_artifacts(chain["paths"], first["paths"], cfg))
                for path in chain["paths"].values():
                    for p in work.glob(path.name + "*"):
                        p.unlink()
        good = [c for c in chains if c["ok"]]
        if not good:
            raise BenchError("every CLI chain failed")
        n, cells = cfg["n"], info["cells"]
        medians = {k: statistics.median(c["stages"][k] for c in good)
                   for k in ("fit_s", "simulate_s")}
        medians["compare_s"] = statistics.median(w for c in good for w in c["compare_walls"])
        values = {
            "setup_s": setup_s,
            "pipeline_s": statistics.median(c["pipeline_s"] for c in good),
            **medians,
            "sim_cell_draws_per_s": n * cells / medians["simulate_s"],
            "peak_rss_mb": statistics.median(max(c["rss_mb"].values()) for c in good),
            "simulate_rss_mb": statistics.median(c["rss_mb"]["simulate"] for c in good),
        }
        spans = None
        if trace:
            docs, traced_pipeline = _traced_chain(
                runner, workload, scen, seed, workers, good[0])
            values = _layer_metrics(docs, quality, traced_pipeline, values["pipeline_s"], cells)
            spans = {step: doc["spans"] for step, doc in docs.items()}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        metrics = {k: {"value": v, "unit": units.get(k, "?")} for k, v in values.items()}
        _self_check(spec, metrics, trace)

        record = {
            "provenance": _provenance(workload, seed, seconds, trace, threads, workers, info),
            "setup_times_s": setup_times,
            "chains": [{"stages": c["stages"], "compare_walls": c["compare_walls"],
                        "rss_mb": c["rss_mb"],
                        "pipeline_s": c["pipeline_s"], "ok": c["ok"]} for c in chains],
            "quality": quality,
            "checks": runner.checks,
            "metrics": metrics,
            "spans": spans,
        }
        results = base / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{workload}-seed{seed}-trace{trace}-{int(time.time())}.json").write_text(
            json.dumps(record, indent=1) + "\n")

        for i, c in enumerate(chains):
            stages = ", ".join(f"{k} {v:.3f} s" for k, v in c["stages"].items())
            rss = ", ".join(f"{k} {v:.1f} MB" for k, v in c["rss_mb"].items())
            compares = ", ".join(f"{w:.3f}" for w in c["compare_walls"])
            print(f"{workload} chain {i}: {stages}, pipeline_s {c['pipeline_s']:.3f} s; "
                  f"every compare_s {compares}; peak RSS {rss}")
        for key, val in quality.items():
            print(f"{workload} {key}: {val}")
        share = runner.failed / runner.attempted
        print(f"{workload} failed_op_share: {share:.4f} ({runner.failed}/{runner.attempted})")
        for name, m in metrics.items():
            print(f"{workload} {name}: {m['value']:.6g} {m['unit']}")
        return {"correct": runner.failed == 0, "attempted": runner.attempted,
                "failed": runner.failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(spec, seed, seconds, trace) -> dict:
    """Every workload in a child run, order rotated by the seed."""
    names = [w["name"] for w in spec["workloads"]]
    k = seed % len(names)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names[k:] + names[:k]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        spec = _spec()
        names = {w["name"] for w in spec["workloads"]}
        if names != set(WORKLOADS):
            raise BenchError(f"BENCHMARK.json workloads {sorted(names)} differ from "
                             f"scenarios.py {sorted(WORKLOADS)}")
        if args.seconds < 1:
            raise BenchError("--seconds must be >= 1")
        if args.workload == "all":
            result = run_all(spec, args.seed, args.seconds, args.trace)
        elif args.workload in names:
            result = run_workload(spec, args.workload, args.seed, args.seconds, args.trace)
        else:
            raise BenchError(f"unknown workload {args.workload!r}")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
