"""Exact Monte Carlo simulation of per-cell and aggregate interference.

Every random draw comes from a counter-based stream keyed by
(seed, cell id, purpose tag), and every draw index owns a fixed span of
that stream. Samples are therefore a pure function of (scenario, seed,
draw index): slicing the work across threads, or re-running any subset
of indices, reproduces identical values. Positions use one fresh stream
per rejection round ("pos:0", "pos:1", ...) so that an index's proposal
sequence never depends on how many other indices are still pending.
_positions_slice is the package's one position sampler; geometry supplies
its rejection envelope, a table of equal tiles, and the accept test of
each block of proposals. A proposal reads 2 variates, which pick a tile
and a point uniform in it. For uniform densities the tiles are those of
a fixed grid over the bounding box that may meet the region, and the
bread cell accepts 0.94 of proposals (0.62 in its bounding box). For
inverse_radial ones the one tile is the (rho, theta) box
[floor, reach] x [0, 2 pi) around the density origin, which has the
1/rho law exactly, so the only test is membership of the region. On a
hotspot disk cell that envelope is the serving-station annulus itself,
and nearly every proposal is accepted in the first round.

Work runs in slices of _SLICE draws, small enough that a slice's working
set stays in a per-core L2 cache, and the sorted output is sorted in
place. A slice's arithmetic runs in place on a few slice-sized arrays,
and every cell's envelope is built in the calling thread before the
worker pool starts, so no two workers build the same one. The sample
files, the KS statistic and the DKW slack live in ulfit.samples.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .channel import (
    ChannelParams,
    FadingModel,
    coupling_gain_L,
    fading_draw_budget,
    sample_fading_db_block,
    shadow_db_block,
)
from .errors import DomainError, SamplingStall
from .geometry import proposal_block, rejection_envelope, ue_domain
from .samples import SampleSet
from .scenario import Scenario, rng_stream

__all__ = ["SampleSet", "simulate_cell", "simulate_aggregate"]

# Draws per slice: a slice's float column is 0.5 MB, so its working set
# fits a 2 MB per-core L2 cache.
_SLICE = 1 << 16
# Stall rule of _positions_slice: the pilot block's size, and the smallest
# share of it that a cell must accept.
_PILOT = 1 << 16
_MIN_ACCEPTANCE = 1e-3


def _skipped(seed: int, cell_id: int, tag: str, offset: int):
    """Stream positioned at absolute variate offset (counter advance)."""
    gen = rng_stream(seed, cell_id, tag)
    gen.bit_generator.advance(offset // 4)
    rem = offset % 4
    if rem:
        gen.random(rem)
    return gen


@functools.lru_cache(maxsize=256)
def _envelope(region, density):
    """(corners, size, acceptance) of a region's rejection envelope.

    The tile table is rejection_envelope's, made read-only since the cache
    hands it to every caller. The acceptance is the accepted share of a
    fixed pilot block of _PILOT proposals, the same for every cell, seed
    and slice. Cached by value, since every slice of a cell rebuilds the
    same region.
    """
    corners, size = rejection_envelope(region, density)
    corners.flags.writeable = size.flags.writeable = False
    pilot = rng_stream(0, 0, "pos:pilot").random((_PILOT, 2))
    _, ok = proposal_block(region, density, corners, size, pilot)
    return corners, size, float(ok.mean())


def _cell_envelope(cell, victim_bs, params: ChannelParams):
    """(effective region, _envelope of it) of one cell."""
    region = ue_domain(cell.region, cell.bs, victim_bs, params.d_min_km)
    return region, _envelope(region, cell.density)


def _positions_slice(region, density, envelope, cell_id, seed, lo, m):
    """Positions for absolute draw indices [lo, lo+m) by rejection.

    ``envelope`` is _envelope(region, density). Round k reads 2 variates
    for index lo + i at offset 2 (lo + i) of stream "pos:k". Round 0 reads
    the whole slice's span and writes its proposals straight into the
    output; each later round reads only the span from the first pending
    index to the last, and accepted indices stop reading later rounds.

    Stall rule: a cell whose pilot acceptance p is below _MIN_ACCEPTANCE
    raises SamplingStall before the first round. Every other slice runs
    until all its draws are placed. A draw is still pending after k rounds
    with probability (1 - p)^k, so at p = 1e-3 a full slice is placed
    within 39,000 rounds except with probability 1e-12. In the benchmark
    and the tests, uniform cells accept 0.92 or more under the tiled
    envelope, and a full slice takes 4 to 6 rounds (7 in about one slice
    of 200); hotspot disk cells accept 0.9 or more under the polar one, in
    1 round; the inverse_radial bread cells accept 0.62-0.72, in up to 13
    rounds.
    """
    corners, size, p = envelope
    if p < _MIN_ACCEPTANCE:
        raise SamplingStall(
            f"cell {cell_id}: rejection acceptance {p:.2e} is below "
            f"{_MIN_ACCEPTANCE}"
        )
    u = _skipped(seed, cell_id, "pos:0", 2 * lo).random((m, 2))
    pts, ok = proposal_block(region, density, corners, size, u)
    pending = np.flatnonzero(~ok)
    k = 1
    while pending.size:
        first, last = int(pending[0]), int(pending[-1]) + 1
        gen = _skipped(seed, cell_id, f"pos:{k}", 2 * (lo + first))
        u = gen.random((last - first, 2))[pending - first]
        cand, ok = proposal_block(region, density, corners, size, u)
        pts[pending[ok]] = cand[ok]
        pending = pending[~ok]
        k += 1
    return pts


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
    region, envelope = _cell_envelope(cell, victim_bs, params)
    pts = _positions_slice(region, cell.density, envelope, cell.id, seed, lo, m)
    out = coupling_gain_L(pts, cell.bs, victim_bs, params)
    out += params.p0_dbm

    # The serving and victim links' shadowing: one normal pair per draw.
    u_s = _skipped(seed, cell.id, "shadow", 2 * lo).random((m, 2))
    out += shadow_db_block(u_s, params)

    budget = fading_draw_budget(fading)
    gen_f = _skipped(seed, cell.id, "fading", budget * lo)
    out += sample_fading_db_block(fading, gen_f, m)
    return out


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
    # Built once here: lru_cache lets concurrent misses each build it.
    _cell_envelope(cell, victim_bs, params)
    vals = _run_slices(
        lambda lo, m: _cell_slice(cell, victim_bs, params, fading, seed, lo, m),
        n,
        workers,
    )
    vals.sort()
    return SampleSet(vals, n, seed)


def simulate_aggregate(
    scenario: Scenario, n: int, seed: int, workers: int = 1
) -> SampleSet:
    """n draws of the aggregate interference at the victim, dBm, sorted.

    Per draw index, each cell contributes one I_b from its own streams
    (the same values simulate_cell would produce); the sum is taken in mW
    and reported in dBm.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    # Built once here: lru_cache lets concurrent misses each build it.
    for cell in scenario.cells:
        _cell_envelope(cell, scenario.victim_bs, scenario.channel)

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
            vals /= 10.0
            acc += np.power(10.0, vals, out=vals)
        np.log10(acc, out=acc)
        acc *= 10.0
        return acc

    vals = _run_slices(agg_slice, n, workers)
    vals.sort()
    return SampleSet(vals, n, seed)
