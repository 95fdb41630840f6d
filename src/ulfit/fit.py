"""The aggregate power-lognormal fit of the per-cell Gaussians.

Each interfering cell's dBm interference is approximated by a Gaussian in
two steps (coupling gain plus shadowing, then fading folded in); those
GaussianFit values come from bound.total_bound, next to the bounds that
certify them. The linear-scale sum over cells is then fitted by a power
lognormal, whose CDF is a Gaussian CDF raised to a power lambda:

1. solve_sum_stats matches a lognormal X to the sum's MGF at two probes
   (Mehta et al., IEEE TWC 2007), each lognormal's MGF by a 12-node
   Gauss-Hermite rule. The probes are fixed, s = 0.001 and 0.005. They
   are dimensionless and act on the power in units of a reference power,
   the scenario's power-control target P0.
2. power_lognormal_fit takes sigma_q and lambda from the two tail slopes
   (Szyszkowicz & Yanikomeroglu, GLOBECOM 2009) and mu_q from one
   location equation: the power lognormal's MGF at the first probe
   equals that of X.

Why the probes act on I / P0: Mehta et al. state their probes for
lognormal terms in dB about unit power. The same numbers applied per mW
to interference of 1e-13 to 1e-10 mW leave both MGF deficits at s E[I],
and the second equation repeats the first (solve_sum_stats raises
NoConvergence then). Every cell's interference is P0 plus dimensionless
terms (coupling gain, shadowing, fading), so I / P0 is the model's own
dimensionless power; the 84-cell hotspot aggregate sits about 2 dB below
it, in the unit range the probes are stated for. Tying the probes to P0
also makes the fit equivariant: shifting P0, and with it every cell, by
c dB shifts mu_X and mu_q by c and leaves sigma_X, lambda and sigma_q
unchanged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence, QuadratureFailure

__all__ = [
    "ZETA",
    "GaussianFit",
    "PowerLognormalFit",
    "approx_mgf",
    "solve_sum_stats",
    "power_lognormal_fit",
    "powln_mean",
    "powln_cdf_db",
    "powln_pdf_db",
    "powln_cdf_mw",
    "tail_slope_diagnostic",
]

ZETA = 10.0 / math.log(10.0)

# MGF probes, dimensionless, applied to I / P_ref (see the module docstring).
_PROBES = (0.001, 0.005)


# The Gauss rules are built on first use, so that reading a fit (compare)
# neither builds them nor imports numpy.polynomial. The cache hands the
# same arrays to every caller, so they are read-only.
@functools.cache
def _gh_rule():
    """12-node Gauss-Hermite rule (nodes, weights) of the lognormal MGFs."""
    nodes, weights = np.polynomial.hermite.hermgauss(12)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _gl_rule():
    """64-point Gauss-Legendre rule (nodes, weights) of each _powln_expect panel."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class GaussianFit:
    """Gaussian approximation (mu in dBm, sigma2 in dB^2)."""

    mu: float
    sigma2: float

    def __post_init__(self):
        # sigma2 == 0 is allowed: a deterministic (point-mass) cell.
        if self.sigma2 < 0:
            raise DomainError("sigma2 must be >= 0")


@dataclass(frozen=True)
class PowerLognormalFit:
    """Power-lognormal law: CDF is Phi^lambda((q - mu_q) / sigma_q)."""

    lam: float
    mu_q: float
    sigma_q2: float

    def __post_init__(self):
        if not self.lam > 0:
            raise DomainError("lambda must be > 0")
        if not self.sigma_q2 > 0:
            raise DomainError("sigma_q2 must be > 0")

    @property
    def sigma_q(self) -> float:
        return math.sqrt(self.sigma_q2)


def approx_mgf(mu: float, sigma2: float, s: float) -> float:
    """12-node Gauss-Hermite approximation of E[exp(-s 10^(X/10))], X Gaussian."""
    if not s > 0:
        raise DomainError("s must be > 0")
    return 1.0 - _mgf_deficit(mu, sigma2, s)[0]


def _mgf_deficit(mu: float, sigma2: float, s: float):
    """1 - approx_mgf without cancellation, and its gradient in (mu, ln sigma).

    Weak cells leave the MGF within 1e-7 of one, so the complementary
    form is what carries the information.
    """
    nodes, weights = _gh_rule()
    w = weights / math.sqrt(math.pi)
    spread = math.sqrt(2.0 * sigma2) * nodes
    log_se = math.log(s) + (spread + mu) / ZETA
    with np.errstate(over="ignore"):
        se = np.exp(log_se)
    # s e exp(-s e) in log form, so a node whose s e overflows adds 0.
    k = w * np.exp(log_se - se) / ZETA
    grad = np.array([k.sum(), float(np.sum(k * spread))])
    return float(np.sum(w * -np.expm1(-se))), grad


def _fw_init(fits):
    """Fenton-Wilkinson moment match of the linear-scale sum."""
    m1 = sum(math.exp(f.mu / ZETA + f.sigma2 / (2.0 * ZETA**2)) for f in fits)
    m2 = sum(
        math.exp(2.0 * f.mu / ZETA + f.sigma2 / ZETA**2)
        * (math.exp(f.sigma2 / ZETA**2) - 1.0)
        for f in fits
    )
    var = ZETA**2 * math.log1p(m2 / m1**2)
    mu = ZETA * math.log(m1) - var / (2.0 * ZETA)
    return mu, max(var, 1e-12)


# Largest condition number of the two-probe match that solve_sum_stats
# accepts; see its docstring.
_KAPPA_MAX = 1e4


def solve_sum_stats(fits, p_ref_dbm: float) -> tuple[float, float]:
    """Lognormal (mu_X, sigma_X) matching the sum's MGF at two probes.

    Solves D_X(s_k) = D_sum(s_k) at the probes s_1 = 0.001 and
    s_2 = 0.005 (Mehta et al., IEEE TWC 2007), where
    D(s) = 1 - E[exp(-s I / P_ref)] is the MGF deficit: the 12-node
    Gauss-Hermite rule for each lognormal, the product of the per-cell
    MGFs for the sum. Newton on (mu_X in dB,
    ln sigma_X) with residuals relative to the targets, an analytic
    Jacobian J and a halving line search, from the Fenton-Wilkinson
    moments, to a residual below 1e-10.

    The match must be well posed. The rows of J are the gradients of
    ln D at the two probes. In the linear regime (s I / P_ref << 1 over
    the mass that the rule sees) both deficits are s_k E[I] / P_ref, the
    rows agree, and the spread is left to the rule's curvature error.
    For cells of 10-15 dB spread, the 2-norm condition number kappa of J
    at the solution is about 1e2 / |delta| (20 / |delta| to 200 / |delta|
    measured), with delta = (D2 / D1) / (s2 / s1) - 1 the second probe's
    departure from the linear regime. The 12-node deficits of such cells
    are accurate to only about 1e-2 relative (against a 300-node rule),
    so a second probe with |delta| below that, kappa above 1e4, adds
    less than the quadrature error. The match is accepted only for
    kappa <= 1e4. Probes stated against P0 give kappa of 60 to 1700 for
    references from -90 to -60 dBm on the 84-cell hotspot drop and on
    small test sets, and at most about 6e3 for one 200 dB^2 cell as weak
    as -130 dBm at P0 = -76 dBm; probes per mW give 3e7 to 1e8. There is no
    fallback solver: on 3000 random sets of 1 to 84 cells (means -135 to
    -85 dBm, variances 60 to 260 dB^2, P_ref -90 to -60 dBm), every
    match with kappa <= 1e4 converged, so a stall is reported, not
    retried.

    Args:
        fits: per-cell Gaussian fits of the dBm interference.
        p_ref_dbm: reference power P_ref of the probes, the scenario's
            power-control target P0 (see the module docstring).

    Returns:
        (mu_x in dBm, sigma_x in dB), sigma_x >= 0.

    Raises:
        NoConvergence: when kappa exceeds 1e4 (the probes sit in the
            linear regime), when Newton stalls or uses 200 iterations, or
            when an iterate's sigma_X^2 overflows.
    """
    if not fits:
        raise DomainError("at least one fit is required")
    if all(f.sigma2 == 0 for f in fits):
        # Deterministic sum: the MGF match is exact with sigma = 0.
        total = sum(10.0 ** (f.mu / 10.0) for f in fits)
        return 10.0 * math.log10(total), 0.0

    # Work in dB relative to P_ref, where the probes are stated.
    rel = [GaussianFit(f.mu - p_ref_dbm, f.sigma2) for f in fits]
    targets = [
        -math.expm1(
            sum(math.log1p(-_mgf_deficit(f.mu, f.sigma2, s)[0]) for f in rel)
        )
        for s in _PROBES
    ]

    def system(x):
        # sigma_X^2 overflows only on a diverging iterate, as when the sum
        # sits far above P_ref and both deficits are near 1.
        try:
            sig2 = math.exp(2.0 * x[1])
        except OverflowError:
            raise NoConvergence(
                f"MGF match diverged: ln sigma_X reached {float(x[1]):.3e}"
            ) from None
        r = np.empty(2)
        jac = np.empty((2, 2))
        for k, (s, c) in enumerate(zip(_PROBES, targets)):
            d, grad = _mgf_deficit(x[0], sig2, s)
            r[k] = d / c - 1.0
            jac[k] = grad / c
        return r, jac

    def check_well_posed(jac):
        kappa = float(np.linalg.cond(jac))
        if not kappa <= _KAPPA_MAX:
            raise NoConvergence(
                f"MGF probes in the linear regime: condition number"
                f" {kappa:.3e} > {_KAPPA_MAX:.0e}"
            )

    mu0, var0 = _fw_init(rel)
    x = np.array([mu0, 0.5 * math.log(var0)])
    for _ in range(200):
        r, jac = system(x)
        if float(np.max(np.abs(r))) < 1e-10:
            check_well_posed(jac)
            return float(x[0]) + p_ref_dbm, math.exp(float(x[1]))
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            break
        # Halving line search on the residual norm.
        scale = 1.0
        base = float(np.linalg.norm(r))
        for _ in range(30):
            cand = x + scale * step
            if float(np.linalg.norm(system(cand)[0])) < base:
                x = cand
                break
            scale *= 0.5
        else:
            break
    r, jac = system(x)
    check_well_posed(jac)
    raise NoConvergence(
        f"MGF match stalled; residual {float(np.max(np.abs(r))):.3e}"
    )


def _powln_expect(fit: PowerLognormalFit, g, rtol: float) -> float:
    """E[g(Q)] under the power lognormal by refined Gauss-Legendre quadrature.

    Integrates g(q) lambda Phi^(lambda-1)(z) phi(z) / sigma over
    mu_q +- 12 sigma (1 + |ln lambda|), doubling panel counts until the
    estimate moves by less than rtol relative.
    """
    mu = fit.mu_q
    half = 12.0 * fit.sigma_q * (1.0 + abs(math.log(fit.lam)))
    x, w = _gl_rule()
    prev = None
    for panels in (8, 16, 32, 64, 128):
        edges = np.linspace(mu - half, mu + half, panels + 1)
        mids = 0.5 * (edges[1:] + edges[:-1])
        hw = 0.5 * (edges[1] - edges[0])
        q = (mids[:, None] + hw * x[None, :]).ravel()
        est = float(np.sum((hw * np.tile(w, panels)) * g(q) * powln_pdf_db(q, fit)))
        if prev is not None and abs(est - prev) <= rtol * max(abs(est), 1e-30):
            return est
        prev = est
    raise QuadratureFailure("integral did not settle at 128 panels")


def powln_mean(fit: PowerLognormalFit) -> float:
    """Mean of the power lognormal in dBm, settled to 1e-8 relative."""
    return _powln_expect(fit, lambda q: q, 1e-8)


def power_lognormal_fit(fits, p_ref_dbm: float) -> PowerLognormalFit:
    """Fit the aggregate law from per-cell Gaussian fits.

    Three equations fix the three parameters:

    - sigma_q = sigma_X, the spread of the lognormal X that
      solve_sum_stats matches to the sum: the upper-tail slope;
    - lambda = sigma_q^2 sum_b 1 / sigma_b^2: the lower-tail slope of the
      sum (Szyszkowicz & Yanikomeroglu, GLOBECOM 2009);
    - mu_q solves D_Q(s1) = D_X(s1): the power lognormal keeps the MGF
      deficit at the first probe (stated against P_ref) that X matched
      to the sum. Both sides use the same Gauss-Legendre quadrature,
      settled to 1e-10 relative, and bisection finds the root to 1e-9 dB.

    The tail slopes leave one location condition. Taking it from the
    MGF match keeps every equation an equation on the sum: two slopes and
    its MGF at s1, the smaller probe, which weights the body where the
    sum's power lies (s2 leans to the lower tail that lambda fixes).
    Equating the dB mean of the power lognormal with mu_X instead would
    tie mu_q to the location of X, a parameter of the intermediate fit
    whose lower tail is the part the power lognormal replaces; on the
    84-cell hotspot drop that rule puts mu_q 9.5 dB lower. With
    lambda = 1 the power lognormal is X and mu_q = mu_X.

    Args:
        fits: per-cell Gaussian fits of the dBm interference.
        p_ref_dbm: reference power of the MGF probes, the scenario's P0.

    Raises:
        NoConvergence: from the MGF match or if the location bracket
            mu_X +- 20 sigma_X fails to contain the root.
        DomainError: when any input cell is deterministic (the tail
            match needs sigma_qb > 0 for every cell).
    """
    if not fits:
        raise DomainError("at least one fit is required")
    if any(f.sigma2 == 0 for f in fits):
        raise DomainError("tail matching requires sigma2 > 0 for every cell")
    mu_x, sigma_x = solve_sum_stats(fits, p_ref_dbm)
    if sigma_x <= 0:
        raise NoConvergence("matched lognormal collapsed to zero spread")
    sigma_q2 = sigma_x**2
    lam = sigma_q2 * sum(1.0 / f.sigma2 for f in fits)

    # dB relative to P_ref, as in solve_sum_stats.
    mu_xr = mu_x - p_ref_dbm

    def deficit(fit):
        return _powln_expect(
            fit, lambda q: -np.expm1(-_PROBES[0] * np.exp(q / ZETA)), 1e-10
        )

    target = math.log(deficit(PowerLognormalFit(1.0, mu_xr, sigma_q2)))

    def gap(mu_q):
        return math.log(deficit(PowerLognormalFit(lam, mu_q, sigma_q2))) - target

    lo = mu_xr - 20.0 * sigma_x
    hi = mu_xr + 20.0 * sigma_x
    if not gap(lo) < 0.0 < gap(hi):
        raise NoConvergence("location bracket does not contain the root")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return PowerLognormalFit(lam, 0.5 * (lo + hi) + p_ref_dbm, sigma_q2)


# Cody (1969, Math. Comp. 23) rational Chebyshev approximations, as in
# his CALERF: erf(x) = x P(x^2) / Q(x^2) on |x| <= 0.5; erfcx(x) =
# P(x) / Q(x) on 0.5 < x <= 4; erfcx(x) = (1 / sqrt(pi) - R(1 / x^2) / x^2) / x
# beyond. Coefficients are listed from the constant term up.
_ERF_P = (3.209377589138469472562e03, 3.774852376853020208137e02,
          1.138641541510501556495e02, 3.161123743870565596947e00,
          1.857777061846031526730e-01)
_ERF_Q = (2.844236833439170622273e03, 1.282616526077372275645e03,
          2.440246379344441733056e02, 2.360129095234412093499e01, 1.0)
_ERFCX_MID_P = (1.23033935479799725272e03, 2.05107837782607146532e03,
                1.71204761263407058314e03, 8.81952221241769090411e02,
                2.98635138197400131132e02, 6.61191906371416294775e01,
                8.88314979438837594118e00, 5.64188496988670089180e-01,
                2.15311535474403846343e-08)
_ERFCX_MID_Q = (1.23033935480374942043e03, 3.43936767414372163696e03,
                4.36261909014324715820e03, 3.29079923573345962678e03,
                1.62138957456669018874e03, 5.37181101862009857509e02,
                1.17693950891312499305e02, 1.57449261107098347253e01, 1.0)
_ERFCX_TAIL_P = (6.58749161529837803157e-04, 1.60837851487422766278e-02,
                 1.25781726111229246204e-01, 3.60344899949804439429e-01,
                 3.05326634961232344035e-01, 1.63153871373020978498e-02)
_ERFCX_TAIL_Q = (2.33520497626869185443e-03, 6.05183413124413191178e-02,
                 5.27905102951428412248e-01, 1.87295284992346725209e00,
                 2.56852019228982242072e00, 1.0)


def _ratio(x, p, q):
    """p(x) / q(x) by Horner's rule, in place."""
    num = np.full_like(x, p[-1])
    den = np.full_like(x, q[-1])
    for pk, qk in zip(p[-2::-1], q[-2::-1]):
        num *= x
        num += pk
        den *= x
        den += qk
    num /= den
    return num


def _erfcx(x):
    """exp(x^2) erfc(x) for x >= 0 by Cody's three rational forms."""
    out = _ratio(np.clip(x, 0.5, 4.0), _ERFCX_MID_P, _ERFCX_MID_Q)
    small = x <= 0.5
    if small.any():
        xs = x[small]
        out[small] = np.exp(xs * xs) * (1.0 - xs * _ratio(xs * xs, _ERF_P, _ERF_Q))
    big = x > 4.0
    if big.any():
        xb = x[big]
        inv2 = (1.0 / xb) ** 2
        tail = inv2 * _ratio(inv2, _ERFCX_TAIL_P, _ERFCX_TAIL_Q)
        out[big] = (1.0 / math.sqrt(math.pi) - tail) / xb
    return out


# Points per block of _log_ndtr: its dozen temporaries then stay in cache,
# which makes 1e6 points about 1.5x faster than one pass.
_NDTR_BLOCK = 1 << 16


def _log_ndtr(z):
    """log Phi(z), vectorized, to about 1e-15 relative.

    With q = erfc(|z| / sqrt 2) / 2 = erfcx(|z| / sqrt 2) exp(-z^2 / 2) / 2,
    log Phi(z) is log q below 0, which never underflows, and log1p(-q)
    from 0 up. Rounding z^2 / 2 costs exp(-z^2 / 2) about z^2 / 2 ulps,
    so for z > 4 the exponential is split at z rounded to 1/16.
    """
    flat = np.asarray(z, dtype=float).reshape(-1)
    out = np.empty_like(flat)
    for i in range(0, flat.size, _NDTR_BLOCK):
        out[i : i + _NDTR_BLOCK] = _log_ndtr_block(flat[i : i + _NDTR_BLOCK])
    return out.reshape(np.shape(z))


def _log_ndtr_block(z):
    """_log_ndtr on a 1-D array."""
    with np.errstate(divide="ignore", over="ignore"):
        e = _erfcx(np.abs(z) / math.sqrt(2.0))
        log_q = np.log(0.5 * e) - 0.5 * z * z
    q = np.exp(log_q)
    # Past z = 40, q underflows to 0 either way.
    far = (z > 4.0) & (z < 40.0)
    if far.any():
        zf = z[far]
        zr = np.trunc(16.0 * zf) / 16.0
        split = np.exp(-0.5 * zr * zr) * np.exp(-0.5 * (zf - zr) * (zf + zr))
        q[far] = 0.5 * e[far] * split
    return np.where(z < 0.0, log_q, np.log1p(-q))


def powln_cdf_db(q, fit: PowerLognormalFit):
    """CDF at q dBm."""
    z = (np.asarray(q, dtype=float) - fit.mu_q) / fit.sigma_q
    out = np.exp(fit.lam * _log_ndtr(z))
    return float(out) if out.ndim == 0 else out


def powln_pdf_db(q, fit: PowerLognormalFit):
    """Density at q dBm."""
    z = (np.asarray(q, dtype=float) - fit.mu_q) / fit.sigma_q
    # log-domain pdf: stable for large lambda where Phi^(lambda-1)
    # underflows.
    logpdf = (
        math.log(fit.lam)
        + (fit.lam - 1.0) * _log_ndtr(z)
        - 0.5 * z**2
        - 0.5 * math.log(2.0 * math.pi)
        - math.log(fit.sigma_q)
    )
    out = np.exp(logpdf)
    return float(out) if out.ndim == 0 else out


def powln_cdf_mw(v, fit: PowerLognormalFit):
    """CDF of the linear-scale power at v mW; v must be positive."""
    arr = np.asarray(v, dtype=float)
    if np.any(arr <= 0):
        raise DomainError("linear-scale power must be > 0")
    return powln_cdf_db(ZETA * np.log(arr), fit)


def tail_slope_diagnostic(fit: PowerLognormalFit, fits) -> dict:
    """Numerical check of the two tail-slope limits.

    The upper slope of d/dq Phi^{-1}(F_Q(q)) must approach 1/sigma_q and
    the lower slope sqrt(lambda)/sigma_q, which equal the matched-sum
    limits 1/sigma_x and sqrt(sum sigma_qb^-2) by construction. Returned
    as a dict of analytic limits and finite-q estimates.
    """
    from statistics import NormalDist

    lam, mu, sig = fit.lam, fit.mu_q, fit.sigma_q

    def slope(q):
        # d/dq Phi^{-1}(F_Q(q)) = f_Q(q) / phi(Phi^{-1}(F_Q(q))).
        f = powln_pdf_db(q, fit)
        z = NormalDist().inv_cdf(powln_cdf_db(q, fit))
        return f / (math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))

    upper_q = mu + 6.0 * sig
    lower_q = mu - 4.0 * sig + sig * math.log(lam) / 2.0
    return {
        "upper_limit": 1.0 / sig,
        "upper_slope": slope(upper_q),
        "lower_limit": math.sqrt(lam) / sig,
        "lower_slope": slope(lower_q),
        "lower_limit_sum": math.sqrt(sum(1.0 / f.sigma2 for f in fits)),
    }
