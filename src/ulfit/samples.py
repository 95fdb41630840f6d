"""Sample sets, their files, and the KS statistic against a model CDF.

This is the side of the Monte Carlo that reads and judges samples, kept
apart from the sampler so that ``compare`` loads neither the geometry nor
the scenario codec.

The sample file makes no n-sized copy: save_samples writes the array's
own buffer and load_samples reads straight into one array. ks_distance is
exact yet evaluates a non-decreasing model CDF in two calls and at a few
percent of the samples: at every _KS_STRIDE-th one, then inside every
stride whose bound on the gap, read off the CDF at the stride's ends,
could beat the largest gap of the first call. Its arrays are sized by
those strides, which reach n only for a CDF that tracks the samples
almost exactly. A drop of more than _KS_SLACK between evaluated values
raises DomainError, and a NaN value makes the statistic NaN.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError
from .fileio import atomic_open, read_json, write_json

__all__ = [
    "SampleSet",
    "ks_distance",
    "dkw_slack",
    "save_samples",
    "load_samples",
]

# ks_distance evaluates the model CDF at every _KS_STRIDE-th sample. A drop
# of at most _KS_SLACK between ordered CDF values is rounding, not a
# decreasing CDF.
_KS_STRIDE = 64
_KS_SLACK = 1e-12
# compare's verdict allows the DKW radius at confidence 1 - _DKW_ALPHA.
_DKW_ALPHA = 0.01


@dataclass(frozen=True)
class SampleSet:
    """Sorted dBm samples with their provenance seed; n is their count."""

    values: np.ndarray
    seed: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 1:
            raise DomainError("sample values must be a non-empty 1-D array")
        if not np.isfinite(vals).all():
            raise DomainError("sample values must be finite")
        if np.any(vals[1:] < vals[:-1]):
            raise DomainError("sample values must be sorted ascending")

    @property
    def n(self) -> int:
        return self.values.size


def _gaps(i: np.ndarray, f: np.ndarray, n: int) -> float:
    """Largest one-sided gap at sample indices i with model values f."""
    return float(np.maximum((i + 1) / n - f, f - i / n).max(initial=-np.inf))


def _decreasing(f: np.ndarray) -> bool:
    return bool((np.diff(f) < -_KS_SLACK).any())


def ks_distance(samples: SampleSet, cdf) -> float:
    """Exact one-sample KS statistic between the samples and a model CDF.

    The statistic is the sup over the sample points of the larger
    one-sided gap, using the samples' empirical step CDF just before and
    at each point. The model CDF must be vectorized, mapping a 1-D array
    of samples to as many values, and non-decreasing. The first call
    evaluates it at every _KS_STRIDE-th sorted sample, the first and last
    included. Because the CDF is non-decreasing, the gaps inside a stride
    from index lo to hi are at most max(hi/n - F(x_lo), F(x_hi) - (lo+1)/n).
    The second call, maybe on an empty array, evaluates the interior of
    every stride whose bound plus _KS_SLACK exceeds the largest gap of the
    first call. The slack absorbs rounding that makes a monotone CDF dip
    by an ulp or so. Every skipped point has a gap of at most the result,
    so it is the float of the full pass over all n samples, bit for bit.

    Returns:
        The statistic, or NaN if the CDF returns NaN at any evaluated
        point.

    Raises:
        DomainError: if the CDF's evaluated values decrease by more than
            _KS_SLACK. Exceptions the CDF raises propagate unchanged.
    """
    x = samples.values
    n = samples.n
    ends = np.append(np.arange(0, n - 1, _KS_STRIDE), n - 1)
    f_ends = cdf(x[ends])
    if np.isnan(f_ends).any():
        return math.nan
    if _decreasing(f_ends):
        raise DomainError("model CDF decreases between samples")
    d = _gaps(ends, f_ends, n)
    lo, hi = ends[:-1], ends[1:]
    bound = np.maximum(hi / n - f_ends[:-1], f_ends[1:] - (lo + 1) / n)
    refine = bound + _KS_SLACK > d
    rows = lo[refine, None] + np.arange(1, _KS_STRIDE)
    i = rows[rows < hi[refine, None]]
    f = cdf(x[i])
    if np.isnan(f).any():
        return math.nan
    # In sample order, each refined stride's values sit between its ends.
    if _decreasing(np.insert(f_ends, np.searchsorted(ends, i), f)):
        raise DomainError("model CDF decreases between samples")
    return max(d, _gaps(i, f, n))


def dkw_slack(n: int) -> float:
    """Dvoretzky-Kiefer-Wolfowitz radius of n >= 1 samples at 99% confidence.

    n draws lie farther than this from their own law, in KS distance,
    with probability at most _DKW_ALPHA.
    """
    return float(np.sqrt(np.log(2.0 / _DKW_ALPHA) / (2.0 * n)))


def save_samples(samples: SampleSet, path, scenario_hash: str) -> None:
    """Write samples as little-endian binary plus a JSON sidecar.

    Layout: 8-byte little-endian count, then n float64 values. The
    sidecar at <path>.json records {seed, n, scenario_hash}. Both files are
    written atomically.
    """
    path = str(path)
    with atomic_open(path, "wb") as fh:
        fh.write(struct.pack("<Q", samples.n))
        fh.write(samples.values.astype("<f8", copy=False))
    sidecar = {"seed": samples.seed, "n": samples.n, "scenario_hash": scenario_hash}
    write_json(path + ".json", sidecar)


def load_samples(path) -> tuple[SampleSet, dict]:
    """Read a sample file and its sidecar; returns (samples, sidecar).

    The sidecar's seed and n must be JSON integers and its scenario_hash a
    string, and the values must make a SampleSet; anything else raises
    ParseError.
    """
    path = str(path)
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise ParseError(f"{path}: truncated header")
        n = struct.unpack("<Q", header)[0]
        body = os.fstat(fh.fileno()).st_size - 8
        if body != 8 * n:
            raise ParseError(f"{path}: expected {n} values, got {body // 8}")
        values = np.fromfile(fh, dtype="<f8", count=n)
    try:
        sidecar = read_json(path + ".json")
        seed, count, scen_hash = (sidecar[k] for k in ("seed", "n", "scenario_hash"))
    except (OSError, ParseError, KeyError, TypeError) as exc:
        # A ParseError already names the path: keep only its cause.
        raise ParseError(f"{path}.json: bad sidecar ({exc.__cause__ or exc})") from exc
    for key, val in (("seed", seed), ("n", count)):
        if isinstance(val, bool) or not isinstance(val, int):
            raise ParseError(f"{path}.json: bad sidecar ({key}: expected an integer)")
    if not isinstance(scen_hash, str):
        raise ParseError(f"{path}.json: bad sidecar (scenario_hash: expected a string)")
    if count != n:
        raise ParseError(f"{path}.json: sidecar n disagrees with header")
    try:
        return SampleSet(values, seed), sidecar
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from exc
