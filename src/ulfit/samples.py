"""Sample sets, their files, and the KS statistic against a model CDF.

This is the side of the Monte Carlo that reads and judges samples, kept
apart from the sampler so that ``compare`` loads neither the geometry nor
the scenario codec.

Neither the sample file nor the KS statistic makes an n-sized copy:
save_samples writes the array's own buffer, load_samples reads straight
into one array, and ks_distance evaluates the model CDF in blocks.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError
from .fileio import atomic_open

__all__ = [
    "SampleSet",
    "EmpiricalCdf",
    "ks_distance",
    "dkw_slack",
    "save_samples",
    "load_samples",
]

# Samples per model-CDF call in ks_distance.
_KS_BLOCK = 1 << 16


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
        if not np.isfinite(vals).all():
            raise DomainError("sample values must be finite")
        if np.any(vals[1:] < vals[:-1]):
            raise DomainError("sample values must be sorted ascending")


class EmpiricalCdf:
    """Right-continuous step CDF backed by a SampleSet."""

    def __init__(self, samples: SampleSet):
        self.samples = samples

    def __call__(self, q):
        ranks = np.searchsorted(self.samples.values, q, side="right")
        out = ranks / self.samples.n
        return float(out) if np.isscalar(q) else out


def ks_distance(ecdf: EmpiricalCdf, cdf) -> float:
    """Exact one-sample KS statistic between a step CDF and a model CDF.

    Evaluates sup over the sample points of the larger one-sided gap,
    using the step function's value just before and at each point. The
    model CDF must be vectorized: it maps a 1-D array of samples to as
    many values. It is called on consecutive blocks of _KS_BLOCK sorted
    samples, so no temporary holds n values.

    Raises:
        DomainError: if the CDF returns any other shape. Exceptions the
            CDF raises propagate unchanged.
    """
    x = ecdf.samples.values
    n = ecdf.samples.n
    d = 0.0
    for lo in range(0, n, _KS_BLOCK):
        xb = x[lo : lo + _KS_BLOCK]
        f = np.asarray(cdf(xb), dtype=float)
        if f.shape != xb.shape:
            raise DomainError(
                f"model CDF returned shape {f.shape} for {xb.size} samples; "
                "it must be vectorized"
            )
        i = np.arange(lo, lo + xb.size)
        # np.maximum, unlike max(), carries a NaN from the CDF through.
        d = np.maximum(d, np.maximum(((i + 1) / n - f).max(), (f - i / n).max()))
    return float(d)


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
        fh.write(samples.values.astype("<f8", copy=False))
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
        body = os.fstat(fh.fileno()).st_size - 8
        if body != 8 * n:
            raise ParseError(f"{path}: expected {n} values, got {body // 8}")
        values = np.fromfile(fh, dtype="<f8", count=n)
    if not np.isfinite(values).all():
        raise ParseError(f"{path}: non-finite sample value")
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
