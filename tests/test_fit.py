import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from ulfit import fit as fit_module
from ulfit.bound import l_stats, total_bound
from ulfit.channel import ChannelParams, FadingModel
from ulfit.errors import DomainError, NoConvergence, QuadratureFailure
from ulfit.gauss import gauss_rule
from ulfit.scenario import Scenario, build_hotspot_layout, build_single_cell
from ulfit.fit import (
    _PROBES,
    _mgf_deficit,
    _log_ndtr,
    _powln_expect,
    ZETA,
    GaussianFit,
    PowerLognormalFit,
    power_lognormal_fit,
    powln_cdf_db,
    powln_pdf_db,
    solve_sum_stats,
)

PARAMS = ChannelParams(103.8, 20.9, -76.0, 0.8, 10.0, 0.005)

# reference power of the MGF probes: the power-control target P0
P0 = PARAMS.p0_dbm

TOY3 = [
    GaussianFit(-95.0, 180.0),
    GaussianFit(-102.0, 150.0),
    GaussianFit(-110.0, 200.0),
]

# TOY3 fit at P0, from the 40-digit evaluation in _toy3_mpmath_oracle.
TOY3_MU_X = -92.050252309379408
TOY3_SIGMA_X = 12.565790862854580
TOY3_LAM = 2.7193733890438827
TOY3_MU_Q = -96.644622471733326
TOY3_SIGMA_Q2 = 157.89910000899964


def test_gaussian_fit_validation():
    assert GaussianFit(-90.0, 1e-300).sigma2 == 1e-300
    for sigma2 in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="^sigma2 must be > 0"):
            GaussianFit(-90.0, sigma2)


def test_power_lognormal_fit_validation():
    with pytest.raises(DomainError):
        PowerLognormalFit(0.0, -100.0, 100.0)
    with pytest.raises(DomainError):
        PowerLognormalFit(1.0, -100.0, 0.0)


def test_gh_nodes_quadrature_exactness():
    # weights sum to sqrt(pi); rule is exact through degree 23
    a, w = gauss_rule("hermite", 12)
    assert w.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    for m in range(1, 12):
        moment = float(np.sum(w * a ** (2 * m))) * 2.0**m / math.sqrt(math.pi)
        exact = float(np.prod(np.arange(1, 2 * m, 2, dtype=float)))
        assert moment == pytest.approx(exact, rel=1e-12)
    assert float(np.sum(w * a**7)) == pytest.approx(0.0, abs=1e-12)


# The (kind, n) of every rule the package uses: geometry._composite,
# _powln_expect and _mgf_deficit.
_RULES = [("legendre", 16), ("legendre", 64), ("hermite", 12)]


@pytest.mark.parametrize("kind, n", _RULES)
def test_gauss_rules_match_numpy_polynomial(kind, n):
    from numpy.polynomial import hermite, legendre

    expect = legendre.leggauss(n) if kind == "legendre" else hermite.hermgauss(n)
    nodes, weights = gauss_rule(kind, n)
    assert np.array_equal(nodes, expect[0])
    assert np.array_equal(weights, expect[1])


@pytest.mark.parametrize("kind, n", _RULES)
def test_gauss_rules_built_once_and_read_only(kind, n):
    # One cached pair of arrays for every caller, which none may change.
    nodes, weights = gauss_rule(kind, n)
    again = gauss_rule(kind, n)
    assert again[0] is nodes and again[1] is weights
    for arr in (nodes, weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def approx_mgf(mu, sigma2, s):
    """The 12-node MGF E[exp(-s 10^(X/10))] that solve_sum_stats matches."""
    return 1.0 - _mgf_deficit(mu, sigma2, s)[0]


def test_approx_mgf_degenerate_sigma():
    val = approx_mgf(-90.0, 0.0, 0.01)
    assert val == pytest.approx(math.exp(-0.01 * 10.0 ** (-9.0)), rel=1e-14)


def test_approx_mgf_small_s_limit():
    assert approx_mgf(-90.0, 100.0, 1e-15) == pytest.approx(1.0, abs=1e-9)


def test_approx_mgf_monte_carlo_weak_cell():
    rng = np.random.default_rng(19)
    q = rng.normal(-97.1, math.sqrt(205.3), 10_000_000)
    emp = np.exp(-0.001 * 10.0 ** (q / 10.0)).mean()
    assert abs(approx_mgf(-97.1, 205.3, 0.001) - emp) < 1e-3


def test_approx_mgf_monte_carlo_strong_cell():
    # a regime where the MGF is far from 1, so the check has teeth
    rng = np.random.default_rng(29)
    q = rng.normal(0.0, 5.0, 10_000_000)
    emp = np.exp(-0.5 * 10.0 ** (q / 10.0)).mean()
    assert abs(approx_mgf(0.0, 25.0, 0.5) - emp) < 2e-3


def test_solve_sum_stats_single_fit_self_match():
    mu_x, sigma_x = solve_sum_stats([GaussianFit(-94.6, 174.2)], P0)
    assert abs(mu_x - (-94.6)) < 0.05
    assert abs(sigma_x - math.sqrt(174.2)) < 0.005 * math.sqrt(174.2)


def test_solve_sum_stats_three_cells():
    mu_x, sigma_x = solve_sum_stats(TOY3, P0)
    assert mu_x == pytest.approx(TOY3_MU_X, rel=1e-10)
    assert sigma_x == pytest.approx(TOY3_SIGMA_X, rel=1e-10)


def test_power_lognormal_three_cells():
    fit = power_lognormal_fit(TOY3, P0)
    assert fit.lam == pytest.approx(TOY3_LAM, rel=1e-10)
    assert fit.mu_q == pytest.approx(TOY3_MU_Q, rel=1e-10)
    assert fit.sigma_q2 == pytest.approx(TOY3_SIGMA_Q2, rel=1e-10)
    assert fit.lam >= 1.0 - 1e-6


def _toy3_mpmath_oracle():
    """TOY3 fit at P0 in 40-digit arithmetic, independent of ulfit.fit.

    The 12 Gauss-Hermite nodes are the roots of H_12, with weights
    2^11 12! sqrt(pi) / (144 H_11(x)^2). The two-probe match is solved by
    mpmath's findroot; mu_q equates the power lognormal's MGF deficit at
    s1 with the matched lognormal's, both by mpmath quadrature.
    """
    import mpmath as mp

    with mp.workdps(40):
        n = 12
        coeffs = mp.taylor(lambda x: mp.hermite(n, x), 0, n)[::-1]
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=200)
        nodes = sorted(mp.re(r) for r in roots)
        scale = 2 ** (n - 1) * mp.factorial(n) * mp.sqrt(mp.pi) / n**2
        weights = [scale / mp.hermite(n - 1, x) ** 2 for x in nodes]
        s1, s2 = mp.mpf("0.001"), mp.mpf("0.005")

        def deficit(mu, var, s):  # mu in dB relative to P0
            sd = mp.sqrt(2 * var)
            terms = (
                w * -mp.expm1(-s * mp.power(10, (sd * a + mu) / 10))
                for a, w in zip(nodes, weights)
            )
            return mp.fsum(terms) / mp.sqrt(mp.pi)

        rel = [(mp.mpf(f.mu) - P0, mp.mpf(f.sigma2)) for f in TOY3]
        targets = [1 - mp.fprod(1 - deficit(m, v, s) for m, v in rel) for s in (s1, s2)]
        mu_x, ln_sig = mp.findroot(
            lambda m, l: (
                deficit(m, mp.e ** (2 * l), s1) / targets[0] - 1,
                deficit(m, mp.e ** (2 * l), s2) / targets[1] - 1,
            ),
            (mp.mpf(-16), mp.log(12)),
        )
        sig = mp.e**ln_sig
        lam = sig**2 * mp.fsum(1 / v for _, v in rel)

        def q_deficit(lam_, mu):
            def f(q):
                z = (q - mu) / sig
                g = -mp.expm1(-s1 * mp.power(10, q / 10))
                return g * lam_ * mp.ncdf(z) ** (lam_ - 1) * mp.npdf(z) / sig

            return mp.quad(f, [mu + k * sig for k in (-40, -5, 0, 5, 40)])

    with mp.workdps(25):
        target = q_deficit(1, mu_x)
        mu_q = mp.findroot(lambda m: q_deficit(lam, m) / target - 1, mu_x - 4)
    return [float(v) for v in (mu_x + P0, sig, lam, mu_q + P0, sig**2)]


def test_toy3_pins_match_mpmath_oracle():
    pins = [TOY3_MU_X, TOY3_SIGMA_X, TOY3_LAM, TOY3_MU_Q, TOY3_SIGMA_Q2]
    np.testing.assert_allclose(pins, _toy3_mpmath_oracle(), rtol=1e-13)


def test_power_lognormal_mean_match():
    # Location rule: the power lognormal keeps the matched lognormal X's
    # MGF deficit at the first probe, stated against P0.
    s1 = _PROBES[0]
    fit = power_lognormal_fit(TOY3, P0)
    mu_x, sigma_x = solve_sum_stats(TOY3, P0)

    def deficit(pdf):
        g = lambda q: -math.expm1(-s1 * 10.0 ** ((q - P0) / 10.0)) * pdf(q)
        return quad(g, -400.0, 200.0, points=[mu_x, fit.mu_q], limit=400, epsabs=0)[0]

    x_fit = PowerLognormalFit(1.0, mu_x, sigma_x**2)
    d_q = deficit(lambda q: powln_pdf_db(np.array([q]), fit)[0])
    d_x = deficit(lambda q: powln_pdf_db(np.array([q]), x_fit)[0])
    assert d_q == pytest.approx(d_x, rel=1e-8)
    # X meets the sum's 12-node target at s1 to the rule's accuracy.
    target = 1.0 - math.prod(approx_mgf(f.mu - P0, f.sigma2, s1) for f in TOY3)
    assert d_x == pytest.approx(target, rel=1e-2)


def test_power_lognormal_lambda_identity():
    fit = power_lognormal_fit(TOY3, P0)
    assert fit.lam == fit.sigma_q2 * sum(1.0 / f.sigma2 for f in TOY3)


def test_lambda_permutation_invariance():
    # The order of the cells does not matter: all six orders of TOY3.
    base_x = solve_sum_stats(TOY3, P0)
    base = power_lognormal_fit(TOY3, P0)
    for order in itertools.permutations(TOY3):
        mu_x, sigma_x = solve_sum_stats(list(order), P0)
        fit = power_lognormal_fit(list(order), P0)
        assert mu_x == pytest.approx(base_x[0], rel=1e-12)
        assert sigma_x == pytest.approx(base_x[1], rel=1e-12)
        assert fit.lam == pytest.approx(base.lam, rel=1e-12)
        assert fit.mu_q == pytest.approx(base.mu_q, rel=1e-12)
        assert fit.sigma_q2 == pytest.approx(base.sigma_q2, rel=1e-12)


def test_lambda_homogeneous_identity():
    fits = [GaussianFit(-95.0, 180.0)] * 4
    fit = power_lognormal_fit(fits, P0)
    assert fit.lam == pytest.approx(4.0 * fit.sigma_q2 / 180.0, rel=1e-14)


def test_power_lognormal_single_cell_degeneracy():
    g = GaussianFit(-94.6, 174.2)
    fit = power_lognormal_fit([g], P0)
    assert 0.98 <= fit.lam <= 1.02
    q = np.linspace(g.mu - 60.0, g.mu + 60.0, 1000)
    from scipy.special import ndtr

    gauss = ndtr((q - g.mu) / math.sqrt(g.sigma2))
    assert np.abs(powln_cdf_db(q, fit) - gauss).max() < 0.01


@pytest.mark.parametrize("shift_db", [-13.7, 0.25, 21.0])
def test_fit_equivariant_under_power_shift(shift_db):
    # Moving every cell and the probe reference by c dB moves the fit by c.
    base_x = solve_sum_stats(TOY3, P0)
    base = power_lognormal_fit(TOY3, P0)
    moved = [GaussianFit(f.mu + shift_db, f.sigma2) for f in TOY3]
    mu_x, sigma_x = solve_sum_stats(moved, P0 + shift_db)
    fit = power_lognormal_fit(moved, P0 + shift_db)
    assert mu_x == pytest.approx(base_x[0] + shift_db, rel=1e-9)
    assert sigma_x == pytest.approx(base_x[1], rel=1e-9)
    assert fit.mu_q == pytest.approx(base.mu_q + shift_db, rel=1e-9)
    assert fit.lam == pytest.approx(base.lam, rel=1e-9)
    assert fit.sigma_q2 == pytest.approx(base.sigma_q2, rel=1e-9)


def test_linear_regime_probes_raise():
    # Probes per mW (reference 0 dBm) see only s E[I] at both points.
    with pytest.raises(NoConvergence, match="linear regime"):
        solve_sum_stats(TOY3, 0.0)
    with pytest.raises(NoConvergence, match="linear regime"):
        power_lognormal_fit([GaussianFit(-94.6, 174.2)], 0.0)
    # Probes too small for the sum's size are linear as well: a reference
    # 60 dB above P0 scales both probes by 1e-6.
    with pytest.raises(NoConvergence, match="linear regime"):
        solve_sum_stats(TOY3, P0 + 60.0)


def test_diverging_match_raises_no_convergence():
    # The sum sits 30-40 dB above the reference, so both deficits are
    # near 1; Newton's line search drives sigma_X^2 past the float range.
    fits = [
        GaussianFit(-80.0, 200.0),
        GaussianFit(-85.0, 205.0),
        GaussianFit(-90.0, 198.0),
    ]
    with pytest.raises(NoConvergence):
        solve_sum_stats(fits, -120.0)


def test_powln_expect_unsettled_raises():
    # On a step in g, doubling the panels only halves the error.
    fit = PowerLognormalFit(2.0, -100.0, 150.0)
    with pytest.raises(QuadratureFailure, match="did not settle at 128 panels"):
        _powln_expect(fit, lambda q: (q > -97.3).astype(float), 1e-10)


def test_location_solve_halves_a_kept_upper_end(monkeypatch):
    # gap(mu) = expm1((mu - root) / 10) is convex, so every secant point
    # falls below the root and the upper end is kept: plain false position
    # creeps up from mu_X, and only the Illinois halving of the upper gap
    # reaches the root within the 64 steps.
    root = -92.3 - P0
    monkeypatch.setattr(fit_module, "solve_sum_stats", lambda fits, p: (-97.3, 2.0))

    def expect(fit, g, rtol):
        return 1.0 if fit.lam == 1.0 else math.exp(math.expm1(0.1 * (fit.mu_q - root)))

    monkeypatch.setattr(fit_module, "_powln_expect", expect)
    fit = power_lognormal_fit([GaussianFit(-97.3, 4.0), GaussianFit(-95.0, 4.0)], P0)
    assert fit.lam == 2.0
    assert abs(fit.mu_q - -92.3) <= 1e-9


@pytest.mark.parametrize("p_ref", [-90.0, -76.0, -60.0])
def test_power_lognormal_single_cell_is_the_cell(p_ref):
    g = GaussianFit(-97.1, 205.3)
    fit = power_lognormal_fit([g], p_ref)
    assert fit.lam == pytest.approx(1.0, rel=1e-12)
    assert fit.mu_q == pytest.approx(g.mu, abs=1e-8)
    assert fit.sigma_q2 == pytest.approx(g.sigma2, rel=1e-12)


def test_location_solve_starts_at_the_root_for_lambda_one(monkeypatch):
    # sigma_X^2 = 4 and one cell of variance 4 make lambda exactly 1, so
    # the power lognormal is X and mu_X, the secant's start, is the root.
    monkeypatch.setattr(fit_module, "solve_sum_stats", lambda fits, p: (-97.3, 2.0))
    fit = power_lognormal_fit([GaussianFit(-97.3, 4.0)], P0)
    assert fit.lam == 1.0
    assert abs(fit.mu_q - -97.3) <= 1e-12


def _benchmark_fits():
    """Step-2 fits of the canonical single cell and of the first two drop cells."""
    rayleigh = FadingModel("rayleigh")
    drop = build_hotspot_layout(84, 0.01, 1, "inverse_radial", rayleigh)
    for scen in (
        build_single_cell(0.01, "uniform", rayleigh),
        Scenario(drop.victim_bs, drop.cells[:2], drop.channel, drop.fading, drop.bound),
    ):
        yield scen.channel.p0_dbm, [
            total_bound(
                cell,
                l_stats(cell, scen.victim_bs, scen.channel),
                scen.channel,
                scen.fading,
                scen.bound,
            ).step2
            for cell in scen.cells
        ]


def test_location_solve_quadrature_count(monkeypatch):
    # The target, the two bracket ends and the secant steps: bisection to
    # 1e-9 dB took 42-43 of these quadratures.
    calls = []

    def counted(*args):
        calls.append(args)
        return _powln_expect(*args)

    monkeypatch.setattr(fit_module, "_powln_expect", counted)
    for p0, fits in _benchmark_fits():
        calls.clear()
        power_lognormal_fit(fits, p0)
        assert 0 < len(calls) <= 16


# A sum with a deterministic cell has no lower tail slope. GaussianFit
# refuses the cell, so no such sum reaches either step of the fit, whether
# every cell or only one is deterministic.
_DETERMINISTIC = {
    "pair": [(-90.0, 0.0), (-90.0, 0.0)],
    "one_of_two": [(-95.0, 180.0), (-90.0, 0.0)],
}


@pytest.mark.parametrize("cells", _DETERMINISTIC.values(), ids=list(_DETERMINISTIC))
@pytest.mark.parametrize("fit_fn", [solve_sum_stats, power_lognormal_fit])
def test_deterministic_cell_rejected(fit_fn, cells):
    with pytest.raises(DomainError, match="^sigma2 must be > 0"):
        fit_fn([GaussianFit(mu, sigma2) for mu, sigma2 in cells], P0)


def _powln_mean(fit):
    """The dB mean by the quadrature that power_lognormal_fit runs."""
    return _powln_expect(fit, lambda q: q, 1e-8)


def test_powln_mean_identity_lambda_one():
    assert _powln_mean(PowerLognormalFit(1.0, -104.0, 173.0)) == pytest.approx(
        -104.0, abs=1e-6
    )


def test_powln_mean_two_normals():
    # max of two standard normals has mean 1/sqrt(pi)
    assert _powln_mean(PowerLognormalFit(2.0, 0.0, 1.0)) == pytest.approx(
        1.0 / math.sqrt(math.pi), abs=1e-8
    )


def test_powln_mean_large_lambda():
    fit = PowerLognormalFit(48.9, -99.7, 116.2)
    val = _powln_mean(fit)
    assert val == pytest.approx(-75.549456074655623, rel=1e-10)

    import mpmath as mp

    mp.mp.dps = 30
    lam, mu, sig = map(mp.mpf, ("48.9", "-99.7", str(fit.sigma_q)))

    def integrand(q):
        z = (q - mu) / sig
        return q * lam * mp.ncdf(z) ** (lam - 1) * mp.npdf(z) / sig

    oracle = mp.quad(integrand, [mu - 60 * sig, mu, mu + 15 * sig])
    assert val == pytest.approx(float(oracle), abs=1e-6)


def test_powln_cdf_shape():
    fit = PowerLognormalFit(48.9, -99.7, 116.2)
    q = np.linspace(-170.0, -20.0, 1000)
    cdf = powln_cdf_db(q, fit)
    assert (np.diff(cdf) >= 0).all()
    assert cdf[0] < 1e-12
    assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
    mid = powln_cdf_db(np.array([-104.0]), PowerLognormalFit(1.0, -104.0, 173.0))
    assert mid[0] == pytest.approx(0.5, rel=1e-14)


def test_log_ndtr_matches_mpmath():
    import mpmath as mp

    mp.mp.dps = 40
    # A grid over the range plus the edges of Cody's three forms
    # (|z| / sqrt 2 = 0.5 and 4) and of the split (z = 4).
    z = np.concatenate(
        [np.linspace(-38.0, 37.0, 1501), [-5.65685, -0.7071, 0.0, 0.7071, 4.0, 5.65686]]
    )
    # log Phi(z) for z > 0 is -Phi(-z) to first order; mp.log(ncdf(z))
    # cancels every digit of it, log1p(-ncdf(-z)) none.
    ref = [
        mp.log(mp.ncdf(v)) if v <= 0 else mp.log1p(-mp.ncdf(-v))
        for v in map(mp.mpf, z.tolist())
    ]
    np.testing.assert_allclose(
        _log_ndtr(z), np.array(ref, dtype=float), rtol=2e-13, atol=0
    )
    assert _log_ndtr(np.array([np.inf]))[0] == 0.0
    assert _log_ndtr(np.array([-np.inf]))[0] == -np.inf
    assert np.isnan(_log_ndtr(np.array([np.nan]))[0])
    # Only arrays: a scalar or 0-d z or q raises in the body and in the
    # far tail, through the CDF and the density too.
    unit = PowerLognormalFit(1.0, 0.0, 1.0)
    fns = (_log_ndtr, lambda q: powln_cdf_db(q, unit), lambda q: powln_pdf_db(q, unit))
    for v in (0.0, 5.0):
        for scalar in (v, np.float64(v), np.array(v)):
            for fn in fns:
                with pytest.raises(TypeError):
                    fn(scalar)


def test_powln_cdf_mw_change_of_variable():
    fit = PowerLognormalFit(2.984146214504281, -104.7, 173.3)
    rng = np.random.default_rng(7)
    q = rng.uniform(-140.0, -60.0, 50)
    v = 10.0 ** (q / 10.0)
    np.testing.assert_allclose(
        powln_cdf_db(10.0 * np.log10(v), fit), powln_cdf_db(q, fit), rtol=1e-12
    )


def test_powln_pdf_is_cdf_derivative():
    fit = PowerLognormalFit(2.984146214504281, -104.7, 173.3)
    h = 1e-4
    q = np.array([-120.0, -104.7, -90.0])
    num = (powln_cdf_db(q + h, fit) - powln_cdf_db(q - h, fit)) / (2.0 * h)
    assert num == pytest.approx(powln_pdf_db(q, fit), rel=1e-5)


def test_powln_pdf_integrates_to_one():
    fit = PowerLognormalFit(48.9, -99.7, 116.2)
    lo = fit.mu_q - 12.0 * fit.sigma_q * (1.0 + math.log(fit.lam))
    hi = fit.mu_q + 12.0 * fit.sigma_q
    mass, _ = quad(lambda q: powln_pdf_db(np.array([q]), fit)[0], lo, hi, limit=400)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_tail_slope_diagnostic():
    # The slope d/dq Phi^-1(F_Q(q)) = f_Q(q) / phi(Phi^-1(F_Q(q))) tends to
    # 1 / sigma_q in the upper tail and to sqrt(lambda) / sigma_q in the
    # lower one, which is the sum's sqrt(sum_b 1 / sigma_b^2).
    fit = power_lognormal_fit(TOY3, P0)
    lam, mu, sig = fit.lam, fit.mu_q, fit.sigma_q

    def slope(q):
        q = np.array([q])
        return (powln_pdf_db(q, fit) / norm.pdf(norm.ppf(powln_cdf_db(q, fit))))[0]

    lower_limit = math.sqrt(lam) / sig
    lower_limit_sum = math.sqrt(sum(1.0 / f.sigma2 for f in TOY3))
    assert lower_limit == pytest.approx(lower_limit_sum, rel=1e-12)
    assert slope(mu + 6.0 * sig) == pytest.approx(1.0 / sig, rel=0.05)
    lower_q = mu - 4.0 * sig + sig * math.log(lam) / 2.0
    assert slope(lower_q) == pytest.approx(lower_limit, rel=0.05)


def test_zeta_constant():
    assert ZETA == pytest.approx(10.0 / math.log(10.0), rel=1e-15)
