"""Exact Monte Carlo simulation of the aggregate interference, cell by cell.

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

No step of a slice calls numpy's cos, sin or power, the slow ones: the
polar proposals and the Box-Muller shadowing and Rician fading take
their cosines and sines from the tangent of the half angle
(geometry._half_angle_cos_sin), and the mW sum takes 10^(v / 10) as
exp(v ln(10) / 10). Samples differ from the np.cos and np.power forms by
at most about 1.5e-13 dB.

Work runs in slices of _SLICE = 2^15 draws. Each slice accumulates its
draws straight into its own span of the output array, which is then
sorted in place. A slice's arithmetic runs in place on a few slice-sized
arrays. Its working set, the tracemalloc peak of one _cell_slice, is
2.5 MiB on the bread cell, most of it the region test of the first
rejection round, and 1.8 MiB on a hotspot disk cell: about a 2 MB
per-core L2 cache. simulate_aggregate builds each cell's user domain and
envelope once per call, in the calling thread, for all of its slices.
The envelope's pilot reads blocks of at most a slice and stops once it
has decided, so no step of the sampler holds more than a slice. The
sample files, the KS statistic and the DKW slack live in ulfit.samples.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .channel import (
    coupling_gain_L,
    fading_draw_budget,
    sample_fading_db_block,
    shadow_db_block,
)
from .errors import SamplingStall
from .geometry import proposal_block, rejection_envelope, ue_domain
from .samples import SampleSet
from .scenario import Scenario, rng_stream

__all__ = ["simulate_aggregate"]

# Draws per slice: a float column is 256 KiB, and a whole slice's working
# set peaks at 2.5 MiB on the bread cell and 1.8 MiB on a hotspot disk
# cell, near a 2 MB per-core L2 cache. At 2^14 draws the per-slice
# overhead made single_cell's two-worker simulate a third slower.
_SLICE = 1 << 15
# Stall rule of _positions_slice: the pilot's size and first block, and
# the smallest share of the pilot that a cell must accept.
_PILOT = 1 << 16
_PILOT_HEAD = 1 << 10
_MIN_ACCEPTANCE = 1e-3
# ln of a power ratio per dB: 10^(v / 10) = exp(v _LN_PER_DB), and np.exp
# takes about a tenth of the time of np.power (numpy 2.4, x86-64).
_LN_PER_DB = math.log(10.0) / 10.0


def _skipped(seed: int, cell_id: int, tag: str, offset: int):
    """Stream positioned at absolute variate offset (counter advance)."""
    gen = rng_stream(seed, cell_id, tag)
    gen.bit_generator.advance(offset // 4)
    rem = offset % 4
    if rem:
        gen.random(rem)
    return gen


def _envelope(region, density):
    """(corners, size, acceptance) of a region's rejection envelope.

    The tile table is rejection_envelope's. The acceptance is the accepted
    share of the proposals read from one stream, the same for every cell,
    seed and slice: a first block of _PILOT_HEAD, then blocks of at most
    _SLICE, until ceil(_MIN_ACCEPTANCE _PILOT) are accepted or _PILOT are
    read. So it is below _MIN_ACCEPTANCE exactly when all _PILOT are.
    """
    corners, size = rejection_envelope(region, density)
    gen = rng_stream(0, 0, "pos:pilot")
    enough = math.ceil(_MIN_ACCEPTANCE * _PILOT)
    accepted = read = 0
    while read < _PILOT and accepted < enough:
        m = min(_SLICE if read else _PILOT_HEAD, _PILOT - read)
        _, ok = proposal_block(region, density, corners, size, gen.random((m, 2)))
        accepted += int(np.count_nonzero(ok))
        read += m
    return corners, size, accepted / read


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
    envelope, and a full slice of 2^15 draws takes 4 or 5 rounds (6 in
    about one slice of 30); hotspot disk cells accept 0.9 or more under
    the polar one, in 1 round; the inverse_radial bread cells accept
    0.62-0.72, in 9 to 16 rounds.
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
    cell, region, envelope, scenario: Scenario, seed: int, lo: int, m: int
) -> np.ndarray:
    """Unsorted I_b draws for absolute indices [lo, lo+m) of one cell.

    ``region`` is the cell's ue_domain and ``envelope`` _envelope of it.
    """
    params = scenario.channel
    pts = _positions_slice(region, cell.density, envelope, cell.id, seed, lo, m)
    out = coupling_gain_L(pts, cell.bs, scenario.victim_bs, params)
    out += params.p0_dbm

    # The serving and victim links' shadowing: one normal pair per draw.
    u_s = _skipped(seed, cell.id, "shadow", 2 * lo).random((m, 2))
    out += shadow_db_block(u_s, params)

    budget = fading_draw_budget(scenario.fading)
    gen_f = _skipped(seed, cell.id, "fading", budget * lo)
    out += sample_fading_db_block(scenario.fading, gen_f, m)
    return out


def simulate_aggregate(
    scenario: Scenario, n: int, seed: int, workers: int = 1
) -> SampleSet:
    """n draws of the aggregate interference at the victim, dBm, sorted.

    Per draw index, each cell contributes one I_b from its own streams:
    I_b = P0 + (eta PL_bb - PL_b1) + (eta S_bb - S_b1) + H, with the user
    position drawn from the cell's density over its effective region. The
    sum is taken in mW and reported in dBm. Output is identical for any
    worker count.

    n >= 1 and workers >= 1 are the caller's: the CLI's --n and --workers
    parse through _positive_int, and SampleSet refuses an empty set. The
    output is allocated before any cell is set up, and each slice sums its
    cells' draws straight into its own span of it.
    """
    try:
        vals = np.zeros(n)
    except ValueError as exc:  # numpy's error for n < 0 or past the address space
        if n < 0:
            raise
        raise MemoryError(str(exc)) from exc
    d_min = scenario.channel.d_min_km
    states = []
    for cell in scenario.cells:
        region = ue_domain(cell.region, cell.bs, scenario.victim_bs, d_min)
        states.append((cell, region, _envelope(region, cell.density)))

    def agg_slice(lo):
        acc = vals[lo : lo + _SLICE]
        for cell, region, envelope in states:
            part = _cell_slice(cell, region, envelope, scenario, seed, lo, acc.size)
            part *= _LN_PER_DB
            acc += np.exp(part, out=part)
        np.log10(acc, out=acc)
        acc *= 10.0

    # Slices write disjoint spans, so any worker count gives the same draws;
    # draining the map re-raises a slice's exception.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(agg_slice, range(0, n, _SLICE)))
    vals.sort()
    return SampleSet(vals, seed)
