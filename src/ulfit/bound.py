"""Closed-form KS-distance bounds for the two Gaussian approximation steps.

The per-cell interference in dB is approximated twice: first the sum of
the deterministic coupling gain and combined shadowing by a Gaussian,
then the further sum with dB-scale fading by another Gaussian. Each step
carries a computable Kolmogorov-Smirnov error bound built from erfc tail
terms and a Fourier-series comparison between the actual and Gaussian
characteristic functions. total_bound builds each cell's two Gaussians
and their bounds into one BoundReport, which the fits read.

All Fourier quantities use the fundamental frequency convention in which
the series for erfc carries exp(-n^2 w^2) and the characteristic function
is probed at -sqrt(2) n w / sigma. The equivalent half-frequency
parameterization is the same bound evaluated at w/sqrt(2); tests pin that
equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelParams,
    FadingModel,
    coupling_gain_L,
    discrete_char_fn,
    fading_char_fn,
    fading_moments,
    shadow_var,
)
from .errors import DomainError
from .fit import GaussianFit
from .geometry import density_profile, ue_domain
# The scenario defines its bound block, so that loading a scenario does
# not load this module.
from .scenario import BoundParams

__all__ = [
    "BoundParams",
    "LStats",
    "BoundReport",
    "l_stats",
    "delta0",
    "delta1",
    "epsilon1",
    "epsilon2",
    "epsilon3",
    "step1_bound",
    "step2_bound",
    "total_bound",
]

_TERM_FLOOR = 1e-18


@dataclass(frozen=True)
class LStats:
    """Moments and centered characteristic function of the coupling gain."""

    mu_l: float
    sigma_l2: float
    char_fn: object

    def __post_init__(self):
        if self.sigma_l2 < 0:
            raise DomainError("sigma_l2 must be >= 0")


@dataclass(frozen=True)
class BoundReport:
    """One cell's two Gaussian fits and the bound components that certify them.

    step1 is the Gaussian of P0 plus coupling gain plus shadowing, step2
    that law with the dB fading folded in; eps1 and eps2 certify step1,
    eps1_prime and eps2_prime certify step2.
    """

    cell_id: int
    step1: GaussianFit
    step2: GaussianFit
    eps1: float
    eps2: float
    eps1_prime: float
    eps2_prime: float
    eps3: float
    eps_total: float
    mu_l: float
    sigma_l2: float


def l_stats(cell, victim_bs, params: ChannelParams) -> LStats:
    """Coupling-gain statistics of one cell against the victim station.

    Args:
        cell: object with .region, .density, .bs attributes.
        victim_bs: victim station position.
        params: channel parameters (eta and d_min are used here).

    Returns:
        LStats with the characteristic function of the centered gain on
        an evenly spaced 1-D array of frequencies, the only kind that
        epsilon2 asks for. The polar quadrature evaluates the gain once
        per node of each level; the gain's law is the discrete law of
        every panel's accepted nodes, weighted by their normalized
        quadrature weights, and the characteristic function is that
        law's, by discrete_char_fn.
    """
    dom = ue_domain(cell.region, cell.bs, victim_bs, params.d_min_km)

    def field(pts):
        return coupling_gain_L(pts, cell.bs, victim_bs, params)

    mu, var, weights, values = density_profile(dom, cell.density, field)
    centered = values - mu

    def char_fn(t):
        return discrete_char_fn(centered, weights, t)

    return LStats(mu, var, char_fn)


def delta0(omega: float, p: int, k: float) -> float:
    """Residual bound of the truncated erfc Fourier series at offset k."""
    lead = (2.0 / (math.sqrt(math.pi) * omega)) * math.erfc((2 * p + 1) * omega)
    return lead + math.erfc(math.pi / (2.0 * omega) - k)


def delta1(omega: float, p: int) -> float:
    """Worst-case series residual without the offset cancellation."""
    lead = (2.0 / (math.sqrt(math.pi) * omega)) * math.erfc((2 * p + 1) * omega)
    return lead + 2.0


def epsilon1(bp: BoundParams, sigma_l2: float, sigma_s2: float) -> float:
    """Tail-cutoff component of the step bound."""
    if not sigma_s2 > 0:
        raise DomainError("sigma_s2 must be positive")
    sig = math.sqrt((sigma_l2 + sigma_s2) / sigma_s2)
    term1 = 0.5 * delta1(bp.omega, bp.p) / bp.k2**2
    term2 = 0.5 * delta0(bp.omega, bp.p, (bp.k1 + bp.k2) * sig / math.sqrt(2.0))
    term3 = 0.5 * delta0(bp.omega * sig, bp.p, bp.k1 / math.sqrt(2.0))
    return term1 + term2 + term3


def epsilon2(bp: BoundParams, sigma_l2: float, sigma_s2: float, char_fn) -> float:
    """Fourier-coefficient mismatch between actual and Gaussian laws.

    Sums (2/pi) |v_n - vhat_n| over odd n below 2p, where v_n carries the
    actual characteristic function and vhat_n the Gaussian one. Terms
    whose envelope exp(-n^2 w^2)/n is below 1e-18 cannot move the sum at
    reporting precision and are skipped. As 1/n <= 1, no kept term has n
    above sqrt(ln(1/1e-18)) / w, so the range ends one step past that,
    however large p is.
    """
    if not sigma_s2 > 0:
        raise DomainError("sigma_s2 must be positive")
    w = bp.omega
    stop = int(math.sqrt(-math.log(_TERM_FLOOR)) / w) + 3
    n = np.arange(1, min(2 * bp.p, stop), 2, dtype=float)
    env = np.exp(-(n**2) * w**2) / n
    keep = env >= _TERM_FLOOR
    if not keep.any():
        return 0.0
    n = n[keep]
    env = env[keep]
    sigma_s = math.sqrt(sigma_s2)
    phi = np.asarray(char_fn(-math.sqrt(2.0) * n * w / sigma_s), dtype=complex)
    v = env * phi
    vhat = env * np.exp(-(n**2) * w**2 * sigma_l2 / sigma_s2)
    return float((2.0 / math.pi) * np.abs(v - vhat).sum())


def epsilon3(k1: float) -> float:
    """Asymptotic-window component; decreasing in k1."""
    if not k1 > 0:
        raise DomainError("k1 must be positive")
    return 1.0 / k1**2 + 0.5 * math.erfc(k1)


def step1_bound(
    stats: LStats, sigma_s2: float, bp: BoundParams
) -> tuple[float, float]:
    """KS bound components for the Gaussian fit of gain plus shadowing.

    Requires k1 == k2, which removes the asymptotic-window term from the
    bound.
    """
    if bp.k1 != bp.k2:
        raise DomainError("step bound requires k1 == k2")
    e1 = epsilon1(bp, stats.sigma_l2, sigma_s2)
    e2 = epsilon2(bp, stats.sigma_l2, sigma_s2, stats.char_fn)
    return e1, e2


def step2_bound(
    sigma_g2: float, fading: FadingModel, bp: BoundParams
) -> tuple[float, float]:
    """KS bound components for folding dB fading into the Gaussian.

    The first-step roles are swapped: the already-fitted Gaussian, of
    variance sigma_g2, plays the shadowing part and the fading gain plays
    the coupling part. A point-mass fading model changes nothing, so both
    components are zero.
    """
    if bp.k1 != bp.k2:
        raise DomainError("step bound requires k1 == k2")
    if fading.kind == "none":
        return 0.0, 0.0
    _, sigma_h2 = fading_moments(fading)
    e1p = epsilon1(bp, sigma_h2, sigma_g2)
    e2p = epsilon2(bp, sigma_h2, sigma_g2, lambda t: fading_char_fn(fading, t))
    return e1p, e2p


def total_bound(
    cell,
    stats: LStats,
    params: ChannelParams,
    fading: FadingModel,
    bp: BoundParams,
) -> BoundReport:
    """A cell's report: both Gaussian fits, their bounds and the window term.

    This is the one place that builds a cell's two Gaussians. stats are
    the cell's coupling-gain statistics, from l_stats; the report records
    cell.id.
    """
    sigma_s2 = shadow_var(params)
    step1 = GaussianFit(params.p0_dbm + stats.mu_l, stats.sigma_l2 + sigma_s2)
    mu_h, sigma_h2 = fading_moments(fading)
    step2 = GaussianFit(step1.mu + mu_h, step1.sigma2 + sigma_h2)
    e1, e2 = step1_bound(stats, sigma_s2, bp)
    e1p, e2p = step2_bound(step1.sigma2, fading, bp)
    return BoundReport(
        cell_id=cell.id,
        step1=step1,
        step2=step2,
        eps1=e1,
        eps2=e2,
        eps1_prime=e1p,
        eps2_prime=e2p,
        eps3=epsilon3(bp.k1),
        eps_total=(e1 + e2) + (e1p + e2p),
        mu_l=stats.mu_l,
        sigma_l2=stats.sigma_l2,
    )

