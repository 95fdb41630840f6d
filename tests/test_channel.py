import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as complex_gamma
from scipy.special import ndtr

from ulfit.bound import BoundParams, epsilon2
from ulfit.channel import (
    ChannelParams,
    FadingModel,
    _is_progression,
    _log_i0,
    _nodes,
    coupling_gain_L,
    discrete_char_fn,
    fading_char_fn,
    fading_draw_budget,
    fading_gain_db_pdf,
    fading_moments,
    normal_pair,
    path_loss,
    sample_fading_db_block,
    shadow_stats,
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


def test_shadow_stats_combination():
    st = shadow_stats(PARAMS)
    assert st.mu_s == 0.0
    assert st.sigma_s2 == 164.0


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


def test_pdf_none_is_point_mass():
    pdf, (lo, hi) = fading_gain_db_pdf(FadingModel("none"))
    assert pdf is None
    assert (lo, hi) == (0.0, 0.0)


def test_pdf_rayleigh_normalization_and_mode():
    pdf, (lo, hi) = fading_gain_db_pdf(FadingModel("rayleigh"))
    mass, _ = quad(pdf, lo, hi, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-6)
    assert pdf(0.0) == pytest.approx(math.log(10.0) / 10.0 * math.exp(-1.0), rel=1e-12)


def test_pdf_rician_zero_matches_rayleigh():
    ray, _ = fading_gain_db_pdf(FadingModel("rayleigh"))
    ric, _ = fading_gain_db_pdf(FadingModel("rician", 0.0))
    h = np.linspace(-40.0, 10.0, 501)
    np.testing.assert_allclose(ric(h), ray(h), atol=1e-9)


def test_unit_mean_power():
    for model in (FadingModel("rayleigh"), FadingModel("rician", 10.0)):
        pdf, (lo, hi) = fading_gain_db_pdf(model)
        mean_w, _ = quad(lambda h: pdf(h) * 10.0 ** (h / 10.0), lo, hi, limit=400)
        assert mean_w == pytest.approx(1.0, abs=1e-6)


def test_moments_none():
    assert fading_moments(FadingModel("none")) == (0.0, 0.0)


def test_moments_rayleigh_closed_form():
    # Quadrature moments, checked against the exact log-exponential values.
    mu, var = fading_moments(FadingModel("rayleigh"))
    assert mu == pytest.approx(-ZETA * np.euler_gamma, abs=1e-3)
    assert var == pytest.approx(ZETA**2 * math.pi**2 / 6.0, abs=1e-3)


def test_moments_rician_zero_degenerates():
    assert fading_moments(FadingModel("rician", 0.0)) == fading_moments(
        FadingModel("rayleigh")
    )


def test_moments_rician_ten():
    mu, var = fading_moments(FadingModel("rician", 10.0))
    assert mu == pytest.approx(-0.41390879767644001, abs=1e-9)
    assert var == pytest.approx(3.9942923533173436, abs=1e-9)
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
    np.testing.assert_allclose(fading_char_fn(model, t), exact, atol=1e-8)


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


def test_discrete_char_fn_progression_fading_nodes():
    # Second-step probe of a Rayleigh cell: the fading law against the
    # gain-plus-shadowing Gaussian (sigma_G^2 = sigma_L^2 + 164 dB^2).
    model = FadingModel("rayleigh")
    mu, sigma_h2 = fading_moments(model)
    t = eps2_frequencies(sigma_h2, 15.357 + 164.0)
    assert t.size == 2863 and _is_progression(t)
    nodes, wts = _nodes(model)
    x = nodes - mu
    direct = np.exp(1j * np.outer(t, x)) @ wts
    got = discrete_char_fn(x, wts, t)
    assert np.abs(got - direct).max() < 1e-13
    np.testing.assert_array_equal(fading_char_fn(model, t), got)


def test_fading_nodes_cached_read_only():
    # Equal models share one cache entry, so no caller may write into it.
    nodes, wts = _nodes(FadingModel("rician", 10.0))
    again = _nodes(FadingModel("rician", 10.0))
    assert again[0] is nodes and again[1] is wts
    for arr in (nodes, wts):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_discrete_char_fn_direct_path():
    model = FadingModel("rayleigh")
    mu, _ = fading_moments(model)
    nodes, wts = _nodes(model)
    x = nodes - mu
    t = eps2_frequencies(30.0, 180.0)
    bent = t.copy()
    bent[1000] *= 1.0 + 1e-9
    shuffled = np.random.default_rng(3).permutation(t)
    for arr in (bent, shuffled, t[[0, 2, 3]]):
        assert not _is_progression(arr)
        direct = np.exp(1j * np.outer(arr, x)) @ wts
        assert np.abs(discrete_char_fn(x, wts, arr) - direct).max() < 1e-13
    for scalar in (0.3, np.float64(-0.7)):
        assert not _is_progression(np.atleast_1d(scalar))
        got = discrete_char_fn(x, wts, scalar)
        assert isinstance(got, complex)
        assert abs(got - np.exp(1j * scalar * x) @ wts) < 1e-13
    zero_d = discrete_char_fn(x, wts, np.array(0.3))
    assert zero_d.shape == (1,)
    assert discrete_char_fn(x, wts, np.array([])).shape == (0,)


def test_log_i0_matches_mpmath():
    import mpmath as mp

    mp.mp.dps = 40
    # Both sides of the series switch at 1 and of the asymptotic switch
    # at 700; the Rician pdf's support scan over [-80, 80] dB crosses both
    # for every gamma above about 0.001.
    z = np.concatenate(
        [[0.0, 1e-300, 1e-8, 0.999999, 1.0, 699.999, 700.0, 700.001],
         np.geomspace(1e-6, 1e4, 601)]
    )
    ref = [mp.log(mp.besseli(0, v)) for v in map(mp.mpf, z.tolist())]
    np.testing.assert_allclose(
        _log_i0(z), np.array(ref, dtype=float), rtol=1e-14, atol=0
    )


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
