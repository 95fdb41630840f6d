"""Path loss, power control, shadowing statistics, and dB-scale fading.

The propagation model is log-distance path loss with fractional power
control at the serving station. Shadowing terms combine into a single
zero-mean Gaussian. Multi-path fading is expressed on the dB scale as
H = 10*log10|h|^2 for three models: no fading (point mass at 0), Rayleigh
(|h|^2 ~ Exp(1)), and Rician with ratio gamma between line-of-sight and
scattered power, normalized so E[|h|^2] = 1 for every model.

Fading moments and characteristic functions are computed by composite
Gauss-Legendre quadrature on the support where the dB-domain pdf exceeds
1e-14, hard-clipped to [-80, 80] dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ive, ndtri

from .errors import DomainError, QuadratureFailure

__all__ = [
    "ChannelParams",
    "FadingModel",
    "ShadowStats",
    "shadow_stats",
    "path_loss",
    "coupling_gain_L",
    "fading_gain_db_pdf",
    "fading_moments",
    "fading_char_fn",
    "discrete_char_fn",
    "sample_fading_db_block",
    "fading_draw_budget",
]

_LN10_10 = math.log(10.0) / 10.0
_PDF_FLOOR = 1e-14
_DB_WINDOW = 80.0
_PANELS = 300
_NODES_PER_PANEL = 32
# Entries of one (frequencies x atoms) block of exponentials: 16 MB.
_CHARFN_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class ChannelParams:
    """Propagation and power-control parameters.

    Args:
        a_db: path loss at the 1 km reference distance.
        alpha: path-loss slope in dB per decade.
        p0_dbm: power-control target at the serving station.
        eta: fractional power-control compensation factor, in (0, 1].
        sigma_shad_db: shadowing standard deviation per link.
        d_min_km: minimum station-to-user distance.
    """

    a_db: float
    alpha: float
    p0_dbm: float
    eta: float
    sigma_shad_db: float
    d_min_km: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError("alpha: must be > 0")
        if not 0 < self.eta <= 1:
            raise DomainError("eta: must be in (0, 1]")
        if not self.sigma_shad_db > 0:
            raise DomainError("sigma_shad_db: must be > 0")
        if self.d_min_km < 0:
            raise DomainError("d_min_km: must be >= 0")


@dataclass(frozen=True)
class FadingModel:
    """Multi-path fading model on the power gain |h|^2.

    kind is one of "none", "rayleigh", "rician". gamma_ratio is the
    Rician ratio of line-of-sight to scattered power; zero makes it
    statistically identical to Rayleigh. Error messages call it gamma,
    its key in a scenario file.
    """

    kind: str
    gamma_ratio: float | None = None

    def __post_init__(self):
        if self.kind not in ("none", "rayleigh", "rician"):
            raise DomainError(f"kind: unknown fading kind {self.kind!r}")
        if self.kind == "rician":
            g = self.gamma_ratio
            if g is None or not math.isfinite(g) or g < 0:
                raise DomainError("gamma: rician fading requires a finite ratio >= 0")
        elif self.gamma_ratio is not None:
            raise DomainError("gamma: only applies to rician fading")


@dataclass(frozen=True)
class ShadowStats:
    """Moments of the combined shadowing term."""

    mu_s: float
    sigma_s2: float


def shadow_stats(params: ChannelParams) -> ShadowStats:
    """Zero-mean Gaussian statistics of the combined shadowing.

    The serving-link shadowing enters scaled by eta through power control
    and the victim-link shadowing enters directly, so the combined
    variance is (1 + eta^2) * sigma_shad^2.
    """
    return ShadowStats(0.0, (1.0 + params.eta**2) * params.sigma_shad_db**2)


def path_loss(d_km, params: ChannelParams):
    """Log-distance path loss in dB; raises DomainError for d <= 0."""
    d = np.asarray(d_km, dtype=float)
    if np.any(d <= 0):
        raise DomainError("distance must be > 0")
    out = params.a_db + params.alpha * np.log10(d)
    return float(out) if np.isscalar(d_km) else out


def coupling_gain_L(z, serving_bs, victim_bs, params: ChannelParams):
    """Deterministic dB coupling eta * PL(serving) - PL(victim).

    Callers must keep z at least d_min from both stations; that is
    enforced geometrically upstream, not re-checked here.

    Args:
        z: position (2,) or block of positions (n, 2).
        serving_bs: station whose power control the user obeys.
        victim_bs: station whose received interference is modeled.
        params: channel parameters.

    Returns:
        float for a single point, array (n,) for a block.
    """
    arr = np.asarray(z, dtype=float)
    single = arr.shape == (2,)
    pts = arr.reshape(1, 2) if single else arr
    d_bb = np.hypot(pts[:, 0] - serving_bs[0], pts[:, 1] - serving_bs[1])
    d_b1 = np.hypot(pts[:, 0] - victim_bs[0], pts[:, 1] - victim_bs[1])
    val = params.eta * path_loss(d_bb, params) - path_loss(d_b1, params)
    return float(val[0]) if single else val


def _log_pdf_db(model: FadingModel, h):
    """Log of the dB-domain fading pdf, vectorized and overflow-safe."""
    h = np.asarray(h, dtype=float)
    w = np.power(10.0, h / 10.0)
    if model.kind == "rayleigh" or (model.kind == "rician" and model.gamma_ratio == 0):
        return math.log(_LN10_10) + h * _LN10_10 - w
    if model.kind == "rician":
        k = model.gamma_ratio
        z = 2.0 * np.sqrt(k * (k + 1.0) * w)
        # I0(z) = ive(0, z) * exp(z); keep everything in logs.
        log_i0 = np.log(ive(0, z)) + z
        return (
            math.log(k + 1.0)
            - k
            - (k + 1.0) * w
            + log_i0
            + math.log(_LN10_10)
            + h * _LN10_10
        )
    raise DomainError("point-mass fading has no density")


def fading_gain_db_pdf(model: FadingModel):
    """Density of H = 10*log10|h|^2 and its truncated support.

    Returns:
        (pdf, (lo, hi)): pdf is a vectorized callable, or None for the
        "none" model whose gain is a point mass at 0 dB.
    """
    if model.kind == "none":
        return None, (0.0, 0.0)

    def pdf(h):
        return np.exp(_log_pdf_db(model, h))

    return pdf, _support(model)


@lru_cache(maxsize=32)
def _support_cached(kind, gamma):
    model = FadingModel(kind, gamma)
    scan = np.linspace(-_DB_WINDOW, _DB_WINDOW, 4001)
    above = _log_pdf_db(model, scan) >= math.log(_PDF_FLOOR)
    if not above.any():
        raise QuadratureFailure("fading pdf below floor everywhere in the window")
    step = scan[1] - scan[0]
    lo = max(float(scan[above][0]) - step, -_DB_WINDOW)
    hi = min(float(scan[above][-1]) + step, _DB_WINDOW)
    return lo, hi


def _support(model: FadingModel):
    return _support_cached(model.kind, model.gamma_ratio)


@lru_cache(maxsize=32)
def _nodes_cached(kind, gamma):
    """Composite Gauss-Legendre nodes and pdf-weighted quadrature weights."""
    model = FadingModel(kind, gamma)
    lo, hi = _support(model)
    edges = np.linspace(lo, hi, _PANELS + 1)
    x, w = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    wts = wts * np.exp(_log_pdf_db(model, nodes))
    total = float(wts.sum())
    if abs(total - 1.0) > 1e-6:
        raise QuadratureFailure(
            f"fading pdf integrates to {total:.8f}, off by more than 1e-6"
        )
    # Renormalize the truncation loss so weights form an exact distribution.
    return nodes, wts / total


def _nodes(model: FadingModel):
    return _nodes_cached(model.kind, model.gamma_ratio)


def fading_moments(model: FadingModel) -> tuple[float, float]:
    """Mean and variance of the dB-scale gain.

    Returns:
        (mu_h, sigma_h2); exactly (0, 0) for the "none" model.

    Raises:
        QuadratureFailure: if the truncated pdf misses unit mass by > 1e-6.
    """
    if model.kind == "none":
        return 0.0, 0.0
    nodes, wts = _nodes(model)
    mu = float(np.sum(wts * nodes))
    var = float(np.sum(wts * (nodes - mu) ** 2))
    return mu, var


def fading_char_fn(model: FadingModel, t):
    """Characteristic function of the centered gain H - mu_H.

    Args:
        t: frequency in 1/dB, scalar or array.

    Returns:
        complex scalar or array matching t.
    """
    if model.kind == "none":
        out = np.ones_like(np.asarray(t, dtype=float), dtype=complex)
        return complex(out) if np.isscalar(t) else out
    nodes, wts = _nodes(model)
    mu, _ = fading_moments(model)
    return discrete_char_fn(nodes - mu, wts, t)


def _is_progression(t: np.ndarray) -> bool:
    """Whether the 1-D array t is an arithmetic progression.

    Equality is judged within a few ulps of max |t|, the rounding that
    computing c * n_k leaves on exact multiples of a step c.
    """
    if t.ndim != 1 or t.size < 2:
        return False
    fitted = np.linspace(t[0], t[-1], t.size)
    tol = 8.0 * np.finfo(float).eps * float(np.abs(t).max())
    return bool(np.abs(t - fitted).max() <= tol)


def discrete_char_fn(values, weights, t):
    """Characteristic function sum_j weights[j] exp(i t values[j]).

    When t is an arithmetic progression of T frequencies, it is cut into
    blocks of B ~ sqrt(T) frequencies, and block b is the first block
    shifted by d_b = t[bB] - t[0]. The shift factors exp(i d_b values)
    act along the atoms, so every block is the first block's exponentials
    times weights * exp(i d_b values): one matrix product, with one complex
    exponential per atom and block instead of one per atom and frequency.
    Any other t, scalars included, takes the direct formula
    exp(i t values) @ weights. Either way one block of exponentials holds
    at most 2**20 entries.

    Args:
        values: atoms of the law, shape (n,).
        weights: their probabilities, shape (n,).
        t: frequency, scalar or 1-D array.

    Returns:
        complex scalar for a scalar t, complex array matching t otherwise.
    """
    x = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    cap = max(1, _CHARFN_BLOCK_ENTRIES // max(x.size, 1))
    rows = min(max(1, math.ceil(math.sqrt(tt.size))), cap)
    if tt.size <= rows or not _is_progression(tt):
        out = np.empty(tt.shape, dtype=complex)
        for i in range(0, tt.size, cap):
            out[i : i + cap] = np.exp(1j * tt[i : i + cap, None] * x[None, :]) @ w
    else:
        first = np.exp(1j * tt[:rows, None] * x[None, :])
        starts = np.arange(0, tt.size, rows)
        blocks = np.empty((starts.size, rows), dtype=complex)
        for i in range(0, starts.size, cap):
            shifts = np.exp(1j * x[:, None] * (tt[starts[i : i + cap]] - tt[0]))
            blocks[i : i + cap] = (first @ (w[:, None] * shifts)).T
        out = blocks.ravel()[: tt.size]
    return complex(out[0]) if np.isscalar(t) else out


def fading_draw_budget(model: FadingModel) -> int:
    """Uniform variates consumed per fading draw (0, 1, or 2)."""
    if model.kind == "none":
        return 0
    if model.kind == "rayleigh" or model.gamma_ratio == 0:
        return 1
    return 2


def sample_fading_db_block(model: FadingModel, rng, n: int) -> np.ndarray:
    """n dB-scale fading draws from one stream by inverse-CDF transforms.

    Draw i reads uniforms [b i, b (i + 1)) of the stream, where the budget
    b = fading_draw_budget(model) is fixed by model kind. One block of n
    draws therefore equals n blocks of one draw from the same stream,
    which keeps counter-based streams reproducible when samples are
    generated in slices.
    """
    if model.kind == "none":
        return np.zeros(n)
    if model.kind == "rayleigh" or model.gamma_ratio == 0:
        e = -np.log1p(-rng.random(n))
        return 10.0 * np.log10(e)
    k = model.gamma_ratio
    s = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    nu = math.sqrt(k / (k + 1.0))
    u = rng.random((n, 2))
    x = s * ndtri(u[:, 0]) + nu
    y = s * ndtri(u[:, 1])
    return 10.0 * np.log10(x * x + y * y)
