"""Path loss, power control, shadowing variance, and dB-scale fading.

The propagation model is log-distance path loss with fractional power
control at the serving station. Shadowing terms combine into a single
zero-mean Gaussian. Multi-path fading is expressed on the dB scale as
H = 10*log10|h|^2 for three models: no fading (point mass at 0), Rayleigh
(|h|^2 ~ Exp(1)), and Rician with ratio gamma between line-of-sight and
scattered power, normalized so E[|h|^2] = 1 for every model.

Fading moments and characteristic functions are exact closed forms. With
K = gamma (0 for Rayleigh), (K + 1)|h|^2 is a Poisson(K) mixture of
Gamma(j + 1, 1) laws, so the moments are Poisson averages of digamma and
trigamma values at integers and the characteristic function is a Poisson
average of gamma-function ratios; no pdf is tabulated or integrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "ChannelParams",
    "FadingModel",
    "shadow_var",
    "path_loss",
    "coupling_gain_L",
    "fading_moments",
    "fading_char_fn",
    "discrete_char_fn",
    "normal_pair",
    "shadow_db_block",
    "sample_fading_db_block",
    "fading_draw_budget",
]

_ZETA = 10.0 / math.log(10.0)
# Entries of one (frequencies x atoms) block of exponentials: 16 MB.
_CHARFN_BLOCK_ENTRIES = 1 << 20
# Lanczos coefficients for g = 7, nine terms (_log_gamma).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


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

    kind is one of "none", "rayleigh", "rician". gamma is the Rician
    ratio of line-of-sight to scattered power, in [0, 1e4]; zero makes it
    statistically identical to Rayleigh. The cap bounds the Poisson
    mixture, which spans about 24 sqrt(gamma) + 81 terms.
    """

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("none", "rayleigh", "rician"):
            raise DomainError(f"kind: unknown fading kind {self.kind!r}")
        if self.kind == "rician":
            g = self.gamma
            if g is None or not 0 <= g <= 1e4:
                raise DomainError("gamma: rician fading requires a ratio in [0, 1e4]")
        elif self.gamma is not None:
            raise DomainError("gamma: only applies to rician fading")


def shadow_var(params: ChannelParams) -> float:
    """Variance of the combined zero-mean Gaussian shadowing, in dB^2.

    The serving-link shadowing enters scaled by eta through power control
    and the victim-link shadowing enters directly, so the combined
    variance is (1 + eta^2) * sigma_shad^2.
    """
    return (1.0 + params.eta**2) * params.sigma_shad_db**2


def path_loss(d_km, params: ChannelParams):
    """Log-distance path loss in dB; raises DomainError for d <= 0."""
    d = np.asarray(d_km, dtype=float)
    if np.any(d <= 0):
        raise DomainError("distance must be > 0")
    out = params.a_db + params.alpha * np.log10(d)
    return float(out) if np.isscalar(d_km) else out


def _squared_distance(x, y, p, tmp):
    """(x - p_x)^2 + (y - p_y)^2 as a new array; tmp is scratch of x's size."""
    q = x - p[0]
    q *= q
    np.subtract(y, p[1], out=tmp)
    tmp *= tmp
    q += tmp
    return q


def coupling_gain_L(z, serving_bs, victim_bs, params: ChannelParams):
    """Deterministic dB coupling eta * PL(serving) - PL(victim).

    With q the squared distance to a station, this is
    (eta - 1) a + (alpha / 2) (eta log10 q_bb - log10 q_b1), evaluated in
    place on one block. Callers must keep z at least d_min from both
    stations; that is enforced geometrically upstream, and only a point on
    a station is refused here.

    Args:
        z: position (2,) or block of positions (n, 2).
        serving_bs: station whose power control the user obeys.
        victim_bs: station whose received interference is modeled.
        params: channel parameters.

    Returns:
        float for a single point, array (n,) for a block.

    Raises:
        DomainError: when a point lies on either station.
    """
    arr = np.asarray(z, dtype=float)
    single = arr.shape == (2,)
    pts = arr.reshape(1, 2) if single else arr
    x, y = pts[:, 0], pts[:, 1]
    tmp = np.empty(len(pts))
    q_bb = _squared_distance(x, y, serving_bs, tmp)
    q_b1 = _squared_distance(x, y, victim_bs, tmp)
    if len(q_bb) and min(q_bb.min(), q_b1.min()) <= 0:
        raise DomainError("distance must be > 0")
    np.log10(q_bb, out=q_bb)
    np.log10(q_b1, out=q_b1)
    q_bb *= params.eta
    q_bb -= q_b1
    q_bb *= 0.5 * params.alpha
    q_bb += (params.eta - 1.0) * params.a_db
    return float(q_bb[0]) if single else q_bb


def _log_gamma(z):
    """Complex log Gamma(z) for Re z >= 1, vectorized.

    Lanczos (1964) with g = 7 and nine coefficients, about 1e-15 relative
    on Gamma in the right half-plane: log Gamma(z) = log sqrt(2 pi) +
    (z - 1/2) log u - u + log A, with u = z + g - 1/2 and
    A = c_0 + sum_k c_k / (z - 1 + k).
    """
    z = np.asarray(z, dtype=complex) - 1.0
    a = _LANCZOS[0] + sum(c / (z + k) for k, c in enumerate(_LANCZOS[1:], 1))
    u = z + (_LANCZOS_G + 0.5)
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * np.log(u) - u + np.log(a)


def _mixture(model: FadingModel):
    """(K, j, p_j): (K + 1)|h|^2 is the Poisson(K) mixture of Gamma(j + 1, 1).

    Rayleigh is K = 0, a single Exp(1) atom. Otherwise j spans
    K +- (12 sqrt(K) + 40), floored at 0, which leaves out less than 1e-30
    of the Poisson mass.
    """
    k = float(model.gamma or 0.0)
    if k == 0:
        return k, np.zeros(1, dtype=int), np.ones(1)
    half = 12.0 * math.sqrt(k) + 40.0
    j = np.arange(max(0, math.floor(k - half)), math.ceil(k + half) + 1)
    # log(p_j / p_j[0]) by p_j = p_{j-1} K / j, then normalized.
    log_p = np.concatenate(([0.0], np.cumsum(np.log(k / j[1:]))))
    p = np.exp(log_p - log_p.max())
    return k, j, p / p.sum()


def fading_moments(model: FadingModel) -> tuple[float, float]:
    """Mean and variance of the dB-scale gain, in closed form.

    With H = zeta ln|h|^2, zeta = 10 / ln 10, and the mixture of _mixture,
    mu_H = zeta (sum_j p_j psi(j + 1) - ln(K + 1)) and sigma_H^2 =
    zeta^2 (sum_j p_j psi'(j + 1) + Var_p psi(j + 1)), where
    psi(j + 1) = H_j - gamma and psi'(j + 1) = pi^2 / 6 - sum_{k <= j} k^-2.

    Returns:
        (mu_h, sigma_h2); exactly (0, 0) for the "none" model.
    """
    if model.kind == "none":
        return 0.0, 0.0
    k, j, p = _mixture(model)
    inv = np.concatenate(([0.0], 1.0 / np.arange(1, j[-1] + 1)))
    digamma = np.cumsum(inv)[j] - np.euler_gamma
    trigamma = math.pi**2 / 6.0 - np.cumsum(inv * inv)[j]
    mean = float(p @ digamma)
    var = float(p @ trigamma + p @ (digamma - mean) ** 2)
    return _ZETA * (mean - math.log1p(k)), _ZETA**2 * var


def fading_char_fn(model: FadingModel, t):
    """Characteristic function of the centered gain H - mu_H.

    E[e^{itH}] = E[|h|^{2s}] with s = i zeta t, which for the mixture of
    _mixture is (K + 1)^-s sum_j p_j Gamma(j + 1 + s) / Gamma(j + 1). The
    first ratio comes from _log_gamma and the rest from the recurrence
    r_j = r_{j-1} (j + s) / j.

    Args:
        t: frequency in 1/dB, scalar or array.

    Returns:
        complex scalar or array matching t.
    """
    tt = np.asarray(t, dtype=float)
    if model.kind == "none":
        out = np.ones_like(tt, dtype=complex)
    else:
        k, j, p = _mixture(model)
        mu, _ = fading_moments(model)
        s = (1j * _ZETA) * tt
        r = np.exp(_log_gamma(j[0] + 1.0 + s) - math.lgamma(j[0] + 1.0))
        out = p[0] * r
        for jj, pj in zip(j[1:].tolist(), p[1:].tolist()):
            r *= (jj + s) / jj
            out += pj * r
        out *= np.exp(-1j * tt * (_ZETA * math.log1p(k) + mu))
    return complex(out) if np.isscalar(t) else out


def discrete_char_fn(values, weights, t):
    """Characteristic function sum_j weights[j] exp(i t values[j]).

    t is an evenly spaced 1-D array of T frequencies. It is cut into
    blocks of B ~ sqrt(T) frequencies, and block b is the first block
    shifted by d_b = t[bB] - t[0]. The shift factors exp(i d_b values)
    act along the atoms, so every block is the first block's exponentials
    times weights * exp(i d_b values): one matrix product, with one complex
    exponential per atom and block instead of one per atom and frequency.
    One block of exponentials holds at most 2**20 entries.

    Args:
        values: atoms of the law, shape (n,).
        weights: their probabilities, shape (n,).
        t: evenly spaced frequencies, shape (T,).

    Returns:
        complex array, shape (T,).
    """
    x = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    t = np.asarray(t, dtype=float)
    cap = max(1, _CHARFN_BLOCK_ENTRIES // max(x.size, 1))
    rows = min(max(1, math.ceil(math.sqrt(t.size))), cap)
    first = np.exp(1j * t[:rows, None] * x[None, :])
    starts = np.arange(0, t.size, rows)
    blocks = np.empty((starts.size, rows), dtype=complex)
    for i in range(0, starts.size, cap):
        shifts = np.exp(1j * x[:, None] * (t[starts[i : i + cap]] - t[0]))
        blocks[i : i + cap] = (first @ (w[:, None] * shifts)).T
    return blocks.ravel()[: t.size]


def fading_draw_budget(model: FadingModel) -> int:
    """Uniform variates consumed per fading draw (0, 1, or 2)."""
    if model.kind == "none":
        return 0
    if model.kind == "rayleigh" or model.gamma == 0:
        return 1
    return 2


def normal_pair(u):
    """Two independent N(0, 1) arrays from an (n, 2) block of uniforms.

    Box & Muller (1958): row i maps to radius sqrt(-2 ln(1 - u_i0)) and
    angle 2 pi u_i1, and the pair is the point's two coordinates. Each
    output pair depends on its own row alone.
    """
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    theta = (2.0 * math.pi) * u[:, 1]
    return r * np.cos(theta), r * np.sin(theta)


def shadow_db_block(u, params: ChannelParams) -> np.ndarray:
    """The combined shadowing eta S_bb - S_b1 in dB, one draw per row of u.

    Row i is the Box-Muller pair of normal_pair, (g0, g1) = r (cos theta,
    sin theta), with S_bb = sigma g0 and S_b1 = sigma g1. Only the
    combination is ever used, and it is one cosine:
    eta S_bb - S_b1 = sigma sqrt(1 + eta^2) r cos(theta + atan2(1, eta)).
    Reads columns 0 and 1 of u, 2 variates per draw.
    """
    out = np.negative(u[:, 0])
    np.log1p(out, out=out)
    out *= -2.0 * shadow_var(params)
    np.sqrt(out, out=out)
    angle = u[:, 1] * (2.0 * math.pi)
    angle += math.atan2(1.0, params.eta)
    np.cos(angle, out=angle)
    out *= angle
    return out


def sample_fading_db_block(model: FadingModel, rng, n: int) -> np.ndarray:
    """n dB-scale fading draws from one stream.

    Rayleigh takes |h|^2 = -ln(1 - u) from one uniform. Rician takes the
    in-phase and quadrature components from two uniforms through
    normal_pair. Draw i reads uniforms [b i, b (i + 1)) of the stream,
    where the budget b = fading_draw_budget(model) is fixed by model kind.
    One block of n draws therefore equals n blocks of one draw from the
    same stream, which keeps counter-based streams reproducible when
    samples are generated in slices.
    """
    if model.kind == "none":
        return np.zeros(n)
    if model.kind == "rayleigh" or model.gamma == 0:
        e = rng.random(n)
        np.negative(e, out=e)
        np.log1p(e, out=e)
        np.negative(e, out=e)
        np.log10(e, out=e)
        e *= 10.0
        return e
    k = model.gamma
    s = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    nu = math.sqrt(k / (k + 1.0))
    g0, g1 = normal_pair(rng.random((n, 2)))
    x = s * g0 + nu
    y = s * g1
    return 10.0 * np.log10(x * x + y * y)
