"""Exact Monte Carlo simulation of per-cell and aggregate interference.

Every random draw comes from a counter-based stream keyed by
(seed, cell id, purpose tag), and every draw index owns a fixed span of
that stream. Samples are therefore a pure function of (scenario, seed,
draw index): slicing the work across threads, or re-running any subset
of indices, reproduces identical values. Positions use one fresh stream
per rejection round ("pos:0", "pos:1", ...) so that an index's proposal
sequence never depends on how many other indices are still pending.
_positions_slice is the package's one position sampler; geometry supplies
its rejection envelope and the accept test of each block of proposals.
"""

from __future__ import annotations

import json
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .channel import (
    ChannelParams,
    FadingModel,
    coupling_gain_L,
    fading_draw_budget,
    sample_fading_db_block,
)
from .errors import DomainError, ParseError, SamplingStall
from .fileio import atomic_open
from .geometry import proposal_block, rejection_envelope, ue_domain
from .scenario import Scenario, rng_stream

__all__ = [
    "SampleSet",
    "EmpiricalCdf",
    "simulate_cell",
    "simulate_aggregate",
    "ks_distance",
    "dkw_slack",
    "save_samples",
    "load_samples",
]

_SLICE = 250_000
_MAX_ROUNDS = 100_000
_STALL_PROPOSALS = 2_000_000
_STALL_RATE = 1e-6


@dataclass(frozen=True)
class SampleSet:
    """Sorted dBm samples with their provenance seed."""

    values: np.ndarray
    n: int
    seed: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if self.n < 1 or vals.shape != (self.n,):
            raise DomainError("sample count must match values and be >= 1")
        if np.any(np.diff(vals) < 0):
            raise DomainError("sample values must be sorted ascending")


class EmpiricalCdf:
    """Right-continuous step CDF backed by a SampleSet."""

    def __init__(self, samples: SampleSet):
        self.samples = samples

    def __call__(self, q):
        ranks = np.searchsorted(self.samples.values, q, side="right")
        out = ranks / self.samples.n
        return float(out) if np.isscalar(q) else out


def _skipped(seed: int, cell_id: int, tag: str, offset: int):
    """Stream positioned at absolute variate offset (counter advance)."""
    gen = rng_stream(seed, cell_id, tag)
    gen.bit_generator.advance(offset // 4)
    rem = offset % 4
    if rem:
        gen.random(rem)
    return gen


def _positions_slice(region, density, box, floor, cell_id, seed, lo, m):
    """Positions for absolute draw indices [lo, lo+m) by rejection.

    Round k consumes exactly 3 variates per index from stream "pos:k";
    accepted indices simply stop reading later rounds.
    """
    pts = np.empty((m, 2))
    pending = np.arange(m)
    proposed = 0
    accepted = 0
    for k in range(_MAX_ROUNDS):
        if pending.size == 0:
            return pts
        gen = _skipped(seed, cell_id, f"pos:{k}", 3 * lo)
        u = gen.random(3 * m).reshape(m, 3)
        cand, ok = proposal_block(region, density, box, floor, u[pending])
        proposed += pending.size
        accepted += int(ok.sum())
        pts[pending[ok]] = cand[ok]
        pending = pending[~ok]
        if proposed >= _STALL_PROPOSALS and accepted / proposed < _STALL_RATE:
            break
    raise SamplingStall(
        f"cell {cell_id}: {pending.size} draws unplaced after "
        f"{proposed} proposals"
    )


def _cell_slice(
    cell,
    victim_bs,
    params: ChannelParams,
    fading: FadingModel,
    seed: int,
    lo: int,
    m: int,
) -> np.ndarray:
    """Unsorted I_b draws for absolute indices [lo, lo+m) of one cell."""
    region = ue_domain(cell.region, cell.bs, victim_bs, params.d_min_km)
    box, floor = rejection_envelope(region, cell.density)
    pts = _positions_slice(
        region, cell.density, box, floor, cell.id, seed, lo, m
    )
    coupling = coupling_gain_L(pts, cell.bs, victim_bs, params)

    u_s = _skipped(seed, cell.id, "shadow", 2 * lo).random((m, 2))
    s_bb = params.sigma_shad_db * ndtri(u_s[:, 0])
    s_b1 = params.sigma_shad_db * ndtri(u_s[:, 1])

    budget = fading_draw_budget(fading)
    gen_f = _skipped(seed, cell.id, "fading", budget * lo)
    h = sample_fading_db_block(fading, gen_f, m)

    return params.p0_dbm + coupling + params.eta * s_bb - s_b1 + h


def _slice_spans(n: int):
    return [(lo, min(lo + _SLICE, n) - lo) for lo in range(0, n, _SLICE)]


def _run_slices(fn, n: int, workers: int) -> np.ndarray:
    """Execute fn(lo, m) -> (m,) over fixed slices, merged by index."""
    out = np.empty(n)
    spans = _slice_spans(n)
    if workers <= 1 or len(spans) <= 1:
        for lo, m in spans:
            out[lo : lo + m] = fn(lo, m)
        return out
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for (lo, m), vals in zip(spans, pool.map(lambda s: fn(*s), spans)):
            out[lo : lo + m] = vals
    return out


def simulate_cell(
    cell,
    victim_bs,
    params: ChannelParams,
    fading: FadingModel,
    n: int,
    seed: int,
    workers: int = 1,
) -> SampleSet:
    """n draws of one cell's received interference I_b, in dBm, sorted.

    I_b = P0 + (eta PL_bb - PL_b1) + (eta S_bb - S_b1) + H, with the user
    position drawn from the cell's density over its effective region.
    Output is identical for any worker count.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    vals = _run_slices(
        lambda lo, m: _cell_slice(cell, victim_bs, params, fading, seed, lo, m),
        n,
        workers,
    )
    return SampleSet(np.sort(vals), n, seed)


def simulate_aggregate(
    scenario: Scenario, n: int, seed: int, workers: int = 1
) -> SampleSet:
    """n draws of the aggregate interference at the victim, dBm, sorted.

    Per draw index, each cell contributes one I_b from its own streams
    (the same values simulate_cell would produce); the sum is taken in mW
    and reported in dBm.
    """
    if not scenario.cells:
        raise DomainError("scenario has no interfering cells")
    if n < 1:
        raise DomainError("n must be >= 1")

    def agg_slice(lo, m):
        acc = np.zeros(m)
        for cell in scenario.cells:
            vals = _cell_slice(
                cell,
                scenario.victim_bs,
                scenario.channel,
                scenario.fading,
                seed,
                lo,
                m,
            )
            acc += np.power(10.0, vals / 10.0)
        return 10.0 * np.log10(acc)

    vals = _run_slices(agg_slice, n, workers)
    return SampleSet(np.sort(vals), n, seed)


def ks_distance(ecdf: EmpiricalCdf, cdf) -> float:
    """Exact one-sample KS statistic between a step CDF and a model CDF.

    Evaluates sup over the sample points of the larger one-sided gap,
    using the step function's value just before and at each point. The
    model CDF must be vectorized: it maps the (n,) array of samples to n
    values.

    Raises:
        DomainError: if the CDF returns any other shape. Exceptions the
            CDF raises propagate unchanged.
    """
    x = ecdf.samples.values
    n = ecdf.samples.n
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape:
        raise DomainError(
            f"model CDF returned shape {f.shape} for {n} samples; "
            "it must be vectorized"
        )
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))


def dkw_slack(n: int, alpha: float = 0.01) -> float:
    """Dvoretzky-Kiefer-Wolfowitz radius: KS noise at confidence 1-alpha."""
    if n < 1 or not 0 < alpha < 1:
        raise DomainError("need n >= 1 and alpha in (0, 1)")
    return float(np.sqrt(np.log(2.0 / alpha) / (2.0 * n)))


def save_samples(samples: SampleSet, path, scenario_hash: str) -> None:
    """Write samples as little-endian binary plus a JSON sidecar.

    Layout: 8-byte little-endian count, then n float64 values. The
    sidecar at <path>.json records {seed, n, scenario_hash}. Both files are
    written atomically.
    """
    path = str(path)
    with atomic_open(path, "wb") as fh:
        fh.write(struct.pack("<Q", samples.n))
        fh.write(samples.values.astype("<f8").tobytes())
    sidecar = {
        "seed": samples.seed,
        "n": samples.n,
        "scenario_hash": scenario_hash,
    }
    with atomic_open(path + ".json") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_samples(path) -> tuple[SampleSet, dict]:
    """Read a sample file and its sidecar; returns (samples, sidecar)."""
    path = str(path)
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise ParseError(f"{path}: truncated header")
        n = struct.unpack("<Q", header)[0]
        raw = fh.read()
    if len(raw) != 8 * n:
        raise ParseError(f"{path}: expected {n} values, got {len(raw) // 8}")
    values = np.frombuffer(raw, dtype="<f8").astype(float)
    try:
        with open(path + ".json", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        seed = int(sidecar["seed"])
        if int(sidecar["n"]) != n:
            raise ParseError(f"{path}.json: sidecar n disagrees with header")
        str(sidecar["scenario_hash"])
    except ParseError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"{path}.json: bad sidecar ({exc})") from exc
    return SampleSet(values, n, seed), sidecar
