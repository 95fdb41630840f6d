import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gamma as complex_gamma
from scipy.special import ndtr

from ulfit.bound import BoundParams, epsilon2
from ulfit.channel import (
    ChannelParams,
    FadingModel,
    _log_gamma,
    coupling_gain_L,
    fading_char_fn,
    fading_draw_budget,
    fading_moments,
    normal_pair,
    path_loss,
    sample_fading_db_block,
    shadow_db_block,
    shadow_var,
)
from ulfit.errors import DomainError

PARAMS = ChannelParams(
    a_db=103.8, alpha=20.9, p0_dbm=-76.0, eta=0.8, sigma_shad_db=10.0, d_min_km=0.005
)

ZETA = 10.0 / math.log(10.0)


def test_path_loss_reference_distance():
    assert path_loss(1.0, PARAMS) == 103.8
    assert path_loss(0.1, PARAMS) == pytest.approx(103.8 - 20.9, rel=1e-14)


def test_path_loss_short_range():
    assert path_loss(0.005, PARAMS) == pytest.approx(55.70847309062279, rel=1e-14)


def test_path_loss_vectorized_and_increasing():
    d = np.array([0.001, 0.01, 0.1, 1.0, 10.0])
    pl = path_loss(d, PARAMS)
    assert pl.shape == d.shape
    assert (np.diff(pl) > 0).all()


def test_path_loss_rejects_nonpositive():
    with pytest.raises(DomainError):
        path_loss(0.0, PARAMS)
    with pytest.raises(DomainError):
        path_loss(np.array([0.5, -1.0]), PARAMS)


def test_coupling_symmetry_eta_one():
    p1 = ChannelParams(103.8, 20.9, -76.0, 1.0, 10.0, 0.005)
    val = coupling_gain_L((0.0, 0.02), (-0.03, 0.0), (0.03, 0.0), p1)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_coupling_off_balance():
    # d_bb = 0.01, d_b1 = 0.05
    val = coupling_gain_L((-0.01, 0.0), (0.0, 0.0), (0.04, 0.0), PARAMS)
    assert val == pytest.approx(-27.008473090622793, rel=1e-14)


def test_coupling_equidistant_collapse():
    d = 0.02
    val = coupling_gain_L((0.0, d), (0.0, 0.0), (0.0, 0.0), PARAMS)
    assert val == pytest.approx(-0.2 * path_loss(d, PARAMS), rel=1e-12)


def test_coupling_block():
    pts = np.array([[-0.01, 0.0], [0.0, 0.02]])
    out = coupling_gain_L(pts, (0.0, 0.0), (0.04, 0.0), PARAMS)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(-27.008473090622793, rel=1e-14)


def test_coupling_rejects_point_on_station():
    # Only the distance check inside coupling_gain_L guards a point on a
    # station: both stations, one point and a block.
    serving, victim = (0.01, -0.02), (0.04, 0.0)
    for station in (serving, victim):
        with pytest.raises(DomainError):
            coupling_gain_L(station, serving, victim, PARAMS)
        block = np.array([[0.0, 0.02], station, [-0.01, 0.0]])
        with pytest.raises(DomainError):
            coupling_gain_L(block, serving, victim, PARAMS)


def test_coupling_matches_path_loss_formula():
    # The in-place squared-distance form against eta PL(d_bb) - PL(d_b1)
    # with hypot distances, for points 1e-3 to 10 km from both stations.
    # The error is measured against the size of the two terms, since the
    # difference itself can cross zero.
    rng = np.random.default_rng(77)
    serving, victim = (0.3, -0.2), (-0.1, 0.05)
    d = 10.0 ** rng.uniform(-3.0, 1.0, 100_000)
    phi = rng.uniform(0.0, 2.0 * math.pi, d.size)
    pts = np.column_stack(
        (serving[0] + d * np.cos(phi), serving[1] + d * np.sin(phi))
    )
    d_bb = np.hypot(pts[:, 0] - serving[0], pts[:, 1] - serving[1])
    d_b1 = np.hypot(pts[:, 0] - victim[0], pts[:, 1] - victim[1])
    keep = (d_bb >= 1e-3) & (d_b1 >= 1e-3)
    pts, d_bb, d_b1 = pts[keep], d_bb[keep], d_b1[keep]
    assert len(pts) > 90_000
    pl_bb, pl_b1 = path_loss(d_bb, PARAMS), path_loss(d_b1, PARAMS)
    ref = PARAMS.eta * pl_bb - pl_b1
    got = coupling_gain_L(pts, serving, victim, PARAMS)
    scale = PARAMS.eta * np.abs(pl_bb) + np.abs(pl_b1)
    assert (np.abs(got - ref) <= 1e-12 * scale).all()


@pytest.mark.parametrize("eta", [0.0, 0.5, 0.8, 1.0])
def test_shadow_db_block_matches_normal_pair(eta):
    # One cosine of the shifted angle against sigma (eta g0 - g1) from the
    # same Box-Muller rows. ChannelParams refuses eta = 0, so the edge case
    # runs on a bare record of the two fields read.
    params = SimpleNamespace(eta=eta, sigma_shad_db=PARAMS.sigma_shad_db)
    u = np.random.default_rng(2015).random((1 << 16, 2))
    g0, g1 = normal_pair(u)
    ref = params.sigma_shad_db * (eta * g0 - g1)
    np.testing.assert_allclose(shadow_db_block(u, params), ref, rtol=0, atol=1e-12)


def test_shadow_stats_combination():
    assert shadow_var(PARAMS) == 164.0


def test_channel_params_validation():
    with pytest.raises(DomainError):
        ChannelParams(103.8, 20.9, -76.0, 0.0, 10.0, 0.005)
    with pytest.raises(DomainError):
        ChannelParams(103.8, 20.9, -76.0, 1.2, 10.0, 0.005)
    with pytest.raises(DomainError):
        ChannelParams(103.8, 0.0, -76.0, 0.8, 10.0, 0.005)
    with pytest.raises(DomainError):
        ChannelParams(103.8, 20.9, -76.0, 0.8, 0.0, 0.005)
    with pytest.raises(DomainError):
        ChannelParams(103.8, 20.9, -76.0, 0.8, 10.0, -0.001)


def test_fading_model_validation():
    with pytest.raises(DomainError):
        FadingModel("nakagami")
    with pytest.raises(DomainError):
        FadingModel("rician")
    with pytest.raises(DomainError):
        FadingModel("rician", -1.0)
    with pytest.raises(DomainError):
        FadingModel("rayleigh", 3.0)


def test_moments_none():
    assert fading_moments(FadingModel("none")) == (0.0, 0.0)


def test_moments_rayleigh_closed_form():
    # The exact log-exponential values: E[ln E] = -gamma, Var[ln E] = pi^2/6.
    mu, var = fading_moments(FadingModel("rayleigh"))
    assert mu == pytest.approx(-ZETA * np.euler_gamma, rel=1e-12)
    assert var == pytest.approx(ZETA**2 * math.pi**2 / 6.0, rel=1e-12)


def test_moments_rician_zero_degenerates():
    # Rician(0) is Rayleigh exactly: moments and characteristic function.
    ray, ric = FadingModel("rayleigh"), FadingModel("rician", 0.0)
    assert fading_moments(ric) == fading_moments(ray)
    t = np.linspace(-2.0, 2.0, 81)
    np.testing.assert_array_equal(fading_char_fn(ric, t), fading_char_fn(ray, t))


def test_moments_rician_ten():
    mu, var = fading_moments(FadingModel("rician", 10.0))
    # mpmath quadrature of the Rician dB-domain pdf at 30 digits.
    assert mu == pytest.approx(-0.41390879809557435, abs=1e-9)
    assert var == pytest.approx(3.9942923885697614, abs=1e-9)
    assert abs(var - 4.0) < 0.5


def test_moments_rician_large_gamma_limit():
    mu, var = fading_moments(FadingModel("rician", 1e4))
    assert abs(mu) < 0.01
    assert var < 0.05
    # delta-method asymptote: var -> (10/ln10)^2 * 2/gamma
    assert var == pytest.approx(ZETA**2 * 2.0 / 1e4, rel=0.02)


def test_char_fn_at_zero_and_modulus():
    t = np.linspace(-5.0, 5.0, 101)
    for model in (FadingModel("rayleigh"), FadingModel("rician", 10.0)):
        assert fading_char_fn(model, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert (np.abs(fading_char_fn(model, t)) <= 1.0 + 1e-12).all()


def test_char_fn_none_is_unity():
    model = FadingModel("none")
    assert fading_char_fn(model, 0.7) == 1.0 + 0.0j
    np.testing.assert_array_equal(
        fading_char_fn(model, np.array([-2.0, 0.0, 3.0])), np.ones(3, dtype=complex)
    )


def test_char_fn_conjugate_symmetry():
    model = FadingModel("rician", 3.0)
    t = np.array([0.1, 0.5, 1.3])
    np.testing.assert_allclose(
        fading_char_fn(model, -t), np.conj(fading_char_fn(model, t)), atol=1e-14
    )


def test_char_fn_rayleigh_closed_form():
    # H = 10 log10 E with E ~ Exp(1): E[e^{itH}] = Gamma(1 + it zeta),
    # centered by e^{-it mu}.
    model = FadingModel("rayleigh")
    mu, _ = fading_moments(model)
    t = np.linspace(-2.0, 2.0, 81)
    exact = complex_gamma(1.0 + 1j * t * ZETA) * np.exp(-1j * t * mu)
    np.testing.assert_allclose(fading_char_fn(model, t), exact, atol=1e-13)


def test_char_fn_monte_carlo_oracle():
    model = FadingModel("rayleigh")
    mu, _ = fading_moments(model)
    rng = np.random.default_rng(8)
    h = 10.0 * np.log10(-np.log1p(-rng.random(10_000_000)))
    emp = np.exp(0.1j * (h - mu)).mean()
    assert abs(fading_char_fn(model, 0.1) - emp) < 3e-3


def eps2_frequencies(sigma_l2, sigma_s2):
    """The exact frequency array epsilon2 hands to the characteristic function."""
    seen = []

    def record(t):
        seen.append(np.array(t))
        return np.ones(np.shape(t), dtype=complex)

    epsilon2(BoundParams(), sigma_l2, sigma_s2, record)
    return seen[0]


def test_log_gamma_matches_mpmath():
    import mpmath as mp

    z = (np.linspace(1.0, 50.0, 50)[:, None] + 1j * np.linspace(-5.0, 5.0, 21)).ravel()
    with mp.workdps(30):
        ref = np.array([complex(mp.loggamma(mp.mpc(v.real, v.imag))) for v in z])
    np.testing.assert_allclose(_log_gamma(z), ref, rtol=1e-15, atol=1e-14)


@pytest.mark.parametrize("gamma_ratio", [None, 3.0, 10.0])
def test_char_fn_matches_mpmath_on_eps2_frequencies(gamma_ratio):
    # An independent closed form, Kummer's transformation of the Rician
    # moments: E[|h|^{2s}] = (K + 1)^-s Gamma(1 + s) 1F1(-s; 1; -K), with
    # s = i zeta t; mu_H is zeta times the derivative of its log at s = 0.
    import mpmath as mp

    if gamma_ratio is None:
        model, k = FadingModel("rayleigh"), 0
    else:
        model, k = FadingModel("rician", gamma_ratio), gamma_ratio
    _, sigma_h2 = fading_moments(model)
    t = eps2_frequencies(sigma_h2, 15.357 + 164.0)
    assert t.size == 2863
    with mp.workdps(20):
        zeta = 10 / mp.log(10)

        def mgf(s):
            return mp.power(k + 1, -s) * mp.gamma(1 + s) * mp.hyp1f1(-s, 1, -k)

        mu = zeta * mp.diff(lambda s: mp.log(mgf(s)), 0)
        ref = [complex(mgf(mp.mpc(0, zeta * v)) * mp.expj(-v * mu)) for v in t.tolist()]
    assert np.abs(fading_char_fn(model, t) - np.array(ref)).max() < 1e-13


def test_normal_pair_is_two_independent_normals():
    n = 200_000
    g0, g1 = normal_pair(np.random.default_rng(2024).random((n, 2)))
    radius = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))  # DKW at alpha 1e-6
    for g in (g0, g1):
        x = np.sort(g)
        f = ndtr(x)
        ks = max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max())
        assert ks <= radius
    assert abs(np.corrcoef(g0, g1)[0, 1]) < 5.0 / math.sqrt(n)


def test_sample_none_always_zero():
    rng = np.random.default_rng(0)
    model = FadingModel("none")
    assert (sample_fading_db_block(model, rng, 10) == 0.0).all()


def test_sample_rayleigh_mean():
    rng = np.random.default_rng(31)
    h = sample_fading_db_block(FadingModel("rayleigh"), rng, 1_000_000)
    assert h.mean() == pytest.approx(-2.5068, abs=0.02)


def test_sample_rician_variance_self_consistent():
    model = FadingModel("rician", 10.0)
    _, var = fading_moments(model)
    rng = np.random.default_rng(37)
    h = sample_fading_db_block(model, rng, 1_000_000)
    assert h.var() == pytest.approx(var, rel=0.1)


def test_sample_rayleigh_distribution():
    # exact CDF of H: 1 - exp(-10^(h/10))
    rng = np.random.default_rng(41)
    h = np.sort(sample_fading_db_block(FadingModel("rayleigh"), rng, 100_000))
    model_cdf = -np.expm1(-(10.0 ** (h / 10.0)))
    n = h.size
    ks = max(
        (np.arange(1, n + 1) / n - model_cdf).max(),
        (model_cdf - np.arange(0, n) / n).max(),
    )
    assert ks < 0.006


def test_draw_budget():
    assert fading_draw_budget(FadingModel("none")) == 0
    assert fading_draw_budget(FadingModel("rayleigh")) == 1
    assert fading_draw_budget(FadingModel("rician", 0.0)) == 1
    assert fading_draw_budget(FadingModel("rician", 10.0)) == 2


def test_block_matches_scalar_stream():
    # One block of n draws equals n blocks of one draw from the same
    # stream: what slicing a simulation into spans relies on.
    for model in (FadingModel("rayleigh"), FadingModel("rician", 7.0)):
        r1 = np.random.default_rng(123)
        block = sample_fading_db_block(model, r1, 64)
        r2 = np.random.default_rng(123)
        singles = np.concatenate(
            [sample_fading_db_block(model, r2, 1) for _ in range(64)]
        )
        np.testing.assert_allclose(block, singles, rtol=1e-15)


def test_block_consumes_exact_budget():
    for model in (
        FadingModel("none"),
        FadingModel("rayleigh"),
        FadingModel("rician", 5.0),
    ):
        budget = fading_draw_budget(model)
        r1 = np.random.default_rng(55)
        sample_fading_db_block(model, r1, 17)
        r2 = np.random.default_rng(55)
        if budget:
            r2.random(17 * budget)
        assert r1.random() == r2.random()
