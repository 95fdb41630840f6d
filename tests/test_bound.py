import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import erfc

from ulfit import channel
from ulfit.bound import (
    BoundParams,
    BoundReport,
    LStats,
    delta0,
    delta1,
    epsilon1,
    epsilon2,
    epsilon3,
    l_stats,
    step1_bound,
    step2_bound,
    total_bound,
)
from ulfit.channel import (
    FadingModel,
    coupling_gain_L,
    discrete_char_fn,
    fading_char_fn,
    shadow_var,
)
from ulfit.errors import DomainError
from ulfit.geometry import (
    Disk,
    Ellipse,
    Intersection,
    Polygon,
    UeDensity,
    bounding_box,
    density_profile,
    ue_domain,
)
from ulfit.scenario import (
    DEFAULT_CHANNEL,
    Cell,
    build_hotspot_layout,
    build_single_cell,
)

DEFAULTS = BoundParams()

_STATS = {}


def bread_stats(r, density_kind):
    """l_stats for the module's irregular test region, cached per config."""
    key = (r, density_kind)
    if key not in _STATS:
        scen = build_single_cell(r, density_kind, FadingModel("none"))
        _STATS[key] = (
            scen.cells[0],
            scen.victim_bs,
            l_stats(scen.cells[0], scen.victim_bs, scen.channel),
        )
    return _STATS[key]


def test_bound_params_validation():
    with pytest.raises(DomainError):
        BoundParams(omega=0.0)
    with pytest.raises(DomainError):
        BoundParams(k1=-1.0)
    with pytest.raises(DomainError):
        BoundParams(p=4000.5)
    with pytest.raises(DomainError):
        BoundParams(omega=0.001, p=1500)  # below 2/omega


def test_bound_params_reject_tiny_omega():
    # p >= 2/omega holds, but eps2 would keep about 3.2e12 harmonics.
    with pytest.raises(DomainError, match="^omega: must be at least 1e-6"):
        BoundParams(omega=1e-12, p=2 * 10**12)
    assert BoundParams(omega=1e-6, p=2 * 10**6).omega == 1e-6


def test_delta1_is_large_k_limit_of_delta0():
    # erfc saturates at 2, so delta0 -> delta1 once k clears the period
    assert delta0(0.001, 4000, 1e9) == delta1(0.001, 4000)
    lead = (2.0 / (math.sqrt(math.pi) * 0.001)) * erfc(8.001)
    assert delta1(0.001, 4000) == pytest.approx(lead + 2.0, rel=1e-15)


@pytest.mark.parametrize("k", [0.0, 0.5, 353.0])
def test_delta0_infinite_omega(k):
    # The series term vanishes, and only erfc(pi / (2 omega) - k) is left.
    assert delta0(math.inf, 4000, k) == delta0(1e300, 4000, k) == math.erfc(-k)


def test_delta0_monotone_in_k():
    ks = [0.0, 100.0, 700.0, 1400.0, 1600.0]
    vals = [delta0(0.001, 4000, k) for k in ks]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_epsilon1_default_scale():
    # Every erfc tail is negligible at the defaults; the k2 window term
    # 0.5 * delta1 / k2^2 = 0.5 * 2 / 500^2 is all that remains.
    assert epsilon1(DEFAULTS, 164.0, 164.0) == pytest.approx(4e-6, abs=1e-12)
    assert epsilon1(DEFAULTS, 0.0, 164.0) == pytest.approx(4e-6, abs=1e-12)


def test_epsilon1_decreasing_in_k2():
    # Holds while (k1 + k2) stays below pi/(2 omega); past that the
    # erfc(pi/(2 omega) - k) term saturates and the bound goes vacuous.
    # BoundParams holds only k2 == k1, so the cutoffs ride on a plain object.
    def bp(k2):
        return SimpleNamespace(omega=DEFAULTS.omega, p=DEFAULTS.p, k1=500.0, k2=k2)

    vals = [epsilon1(bp(k2), 15.0, 164.0) for k2 in (100.0, 300.0, 900.0)]
    assert vals[0] > vals[1] > vals[2]
    assert epsilon1(bp(5000.0), 15.0, 164.0) > 1.0


def test_epsilon2_gaussian_fixed_point():
    # A Gaussian coupling law has zero Fourier mismatch by construction.
    sigma_l2 = 15.36
    phi = lambda t: np.exp(-0.5 * sigma_l2 * np.asarray(t) ** 2)
    assert epsilon2(DEFAULTS, sigma_l2, 164.0, phi) < 1e-12


def test_epsilon2_degenerate_zero():
    assert epsilon2(DEFAULTS, 0.0, 164.0, lambda t: np.ones_like(np.asarray(t))) == 0.0


def test_epsilon2_half_frequency_equivalence():
    # The half-frequency form of the series bound is the same sum taken at
    # omega / sqrt(2); agreement is required to 1e-12.
    sigma_l2, sigma_s2 = 11.0, 164.0
    phi = lambda t: 0.3 * np.cos(2.0 * np.asarray(t)) + 0.7 * np.cos(0.5 * np.asarray(t))
    omega, p = 0.001, 4000

    n = np.arange(1, 2 * p, 2, dtype=float)
    env = np.exp(-(n**2) * omega**2 / 2.0) / n
    keep = env >= 1e-18
    n, env = n[keep], env[keep]
    v = env * phi(-n * omega / math.sqrt(sigma_s2))
    vhat = env * np.exp(-(n**2) * omega**2 * sigma_l2 / (2.0 * sigma_s2))
    direct = (2.0 / math.pi) * np.abs(v - vhat).sum()

    half = epsilon2(
        BoundParams(omega=omega / math.sqrt(2.0), p=p), sigma_l2, sigma_s2, phi
    )
    assert half == pytest.approx(direct, abs=1e-12)


def test_epsilon2_ignores_harmonics_past_the_term_floor():
    # p = 10^15 asks for 5e14 odd harmonics; only those whose envelope
    # clears the 1e-18 floor are built, 2,863 at omega = 0.001 for any
    # p >= 3,219, so the sum is the default's bit for bit.
    probes = []

    def phi(t):
        probes.append(len(t))
        return 0.3 * np.cos(2.0 * np.asarray(t)) + 0.7 * np.cos(0.5 * np.asarray(t))

    huge = epsilon2(BoundParams(p=10**15), 11.0, 164.0, phi)
    assert huge == epsilon2(DEFAULTS, 11.0, 164.0, phi)
    assert probes == [2863, 2863]


def test_epsilon2_without_a_term_is_zero():
    # At omega = 10 and p = 1 the one odd harmonic, n = 1, has envelope
    # exp(-100), under the 1e-18 floor: no term is built, both mismatch
    # components are 0, and the series residuals make eps_total vacuous.
    cell, _, stats = bread_stats(0.01, "uniform")
    bp = BoundParams(omega=10.0, p=1)
    rep = total_bound(cell, stats, DEFAULT_CHANNEL, FadingModel("rayleigh"), bp)
    assert rep.eps2 == 0.0 and rep.eps2_prime == 0.0
    assert rep.eps_total == pytest.approx(4.000008, rel=1e-12)


def test_epsilon3_values():
    assert epsilon3(500.0) == pytest.approx(4e-6, abs=1e-15)
    assert epsilon3(100.0) == pytest.approx(1e-4, abs=1e-15)


def erfc_fourier(x: float, omega: float, p: int) -> float:
    """Criterion 03's reference: the erfc Fourier series truncated at p terms.

    Valid on the principal period |x| < pi/(2 omega).
    """
    if abs(x) >= math.pi / (2.0 * omega):
        raise DomainError("x outside the principal period")
    n = np.arange(1, 2 * p, 2, dtype=float)
    terms = np.exp(-(n**2) * omega**2) / n * np.sin(2.0 * n * omega * x)
    return 1.0 - (4.0 / math.pi) * float(terms.sum())


def test_erfc_fourier_basics():
    assert erfc_fourier(0.0, 0.001, 4000) == 1.0
    s = erfc_fourier(0.8, 0.001, 4000) + erfc_fourier(-0.8, 0.001, 4000)
    assert s == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(DomainError):
        erfc_fourier(math.pi / 0.002, 0.001, 4000)


def test_erfc_fourier_accuracy_at_defaults():
    assert abs(erfc_fourier(1.0, 0.001, 4000) - erfc(1.0)) < 5e-13


def test_erfc_fourier_coarse_within_residual_bound():
    # Coarse series parameters leave a visible but bounded residual.
    val = erfc_fourier(1.0, 0.01, 96)
    assert val == pytest.approx(0.15584407949468415, rel=1e-13)
    err = abs(val - erfc(1.0))
    assert 1e-4 < err <= delta0(0.01, 96, 1.0)


def test_l_stats_uniform():
    _, _, stats = bread_stats(0.01, "uniform")
    assert stats.mu_l == pytest.approx(-17.578424617227455, rel=1e-12)
    assert stats.sigma_l2 == pytest.approx(15.357033294203347, rel=1e-12)


def test_l_stats_inverse_radial():
    _, _, stats = bread_stats(0.01, "inverse_radial")
    assert stats.mu_l == pytest.approx(-17.883959327989842, rel=1e-12)
    assert stats.sigma_l2 == pytest.approx(14.962001015552232, rel=1e-12)


def test_l_stats_scale_shift():
    _, _, stats = bread_stats(0.02, "uniform")
    assert stats.mu_l == pytest.approx(-19.56319972304477, rel=1e-12)
    assert stats.sigma_l2 == pytest.approx(19.172379302330512, rel=1e-12)


@pytest.mark.parametrize("kind", ["uniform", "inverse_radial"])
def test_l_stats_whole_disk_closed_form(kind):
    # Cell 2 of the criterion-09 drop is a disk that the victim carve
    # leaves whole: the annulus d_min <= rho <= r around its station.
    # log|z - v| is harmonic there, so every circle around the station
    # averages it to log D, and mu_l = eta (A + alpha E[log10 rho])
    # - (A + alpha log10 D), with rho uniform in r (inverse_radial) or
    # with density proportional to rho (uniform).
    lay = build_hotspot_layout(84, 0.01, 1, density_kind=kind)
    cell, ch = lay.cells[0], lay.channel
    a, b = ch.d_min_km, cell.region.radius_km
    dist = math.hypot(cell.bs[0] - lay.victim_bs[0], cell.bs[1] - lay.victim_bs[1])
    assert cell.id == 2 and dist > a + b
    if kind == "uniform":
        mean_ln = (b * b * (math.log(b) - 0.5) - a * a * (math.log(a) - 0.5)) / (
            b * b - a * a
        )
    else:
        mean_ln = (b * (math.log(b) - 1.0) - a * (math.log(a) - 1.0)) / (b - a)
    exact = ch.eta * (ch.a_db + ch.alpha * mean_ln / math.log(10.0)) - (
        ch.a_db + ch.alpha * math.log10(dist)
    )
    if kind == "inverse_radial":
        assert exact == pytest.approx(-44.925478761873336, rel=1e-14)
    stats = l_stats(cell, lay.victim_bs, ch)
    assert stats.mu_l == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("kind", ["uniform", "inverse_radial"])
def test_l_stats_rigid_motion_invariance(kind):
    # Rotating the bread cell and both stations by 30 degrees and
    # translating them moves nothing the coupling gain depends on.
    scen = build_single_cell(0.01, kind, FadingModel("none"))
    cell = scen.cells[0]
    ang, shift = math.radians(30.0), (0.3, -0.7)

    def move(p):
        c, s = math.cos(ang), math.sin(ang)
        return (c * p[0] - s * p[1] + shift[0], s * p[0] + c * p[1] + shift[1])

    square, disk, ellipse = cell.region.parts
    region = Intersection(
        (
            Polygon(tuple(move(v) for v in square.vertices)),
            Disk(move(disk.center), disk.radius_km),
            Ellipse(
                move(ellipse.center),
                ellipse.a_km,
                ellipse.b_km,
                ellipse.rotation_rad + ang,
            ),
        )
    )
    bs = move(cell.bs)
    density = UeDensity(kind, bs if kind == "inverse_radial" else None)
    moved_cell = Cell(cell.id, bs, region, density)
    moved = l_stats(moved_cell, move(scen.victim_bs), scen.channel)
    stats = l_stats(cell, scen.victim_bs, scen.channel)
    assert moved.mu_l == pytest.approx(stats.mu_l, rel=1e-9)
    assert moved.sigma_l2 == pytest.approx(stats.sigma_l2, rel=1e-9)


def test_l_stats_char_fn_properties():
    _, _, stats = bread_stats(0.01, "uniform")
    assert abs(stats.char_fn(np.array([0.0]))[0] - 1.0) < 1e-12
    t = np.linspace(-3.0, 3.0, 61)
    phi = stats.char_fn(t)
    assert (np.abs(phi) <= 1.0 + 1e-12).all()
    np.testing.assert_allclose(stats.char_fn(-t), np.conj(phi), atol=1e-13)


def test_l_stats_char_fn_against_coarse_grid():
    # Independent direct evaluation on a coarse masked grid; agreement at
    # the quadrature-error scale guards sign and normalization.
    cell, victim, stats = bread_stats(0.01, "uniform")
    dom = ue_domain(cell.region, cell.bs, victim, DEFAULT_CHANNEL.d_min_km)
    xmin, ymin, xmax, ymax = bounding_box(dom)
    m = 256
    xs = xmin + (np.arange(m) + 0.5) * (xmax - xmin) / m
    ys = ymin + (np.arange(m) + 0.5) * (ymax - ymin) / m
    X, Y = np.meshgrid(xs, ys)
    mask = dom._mask(X, Y)
    pts = np.column_stack((X[mask], Y[mask]))
    lvals = coupling_gain_L(pts, cell.bs, victim, DEFAULT_CHANNEL)
    for t in (0.1, 0.3):
        direct = np.exp(1j * t * (lvals - stats.mu_l)).mean()
        assert abs(stats.char_fn(np.array([t]))[0] - direct) < 5e-3


def eps2_frequencies(sigma_l2, sigma_s2):
    """The exact frequency array epsilon2 hands to the characteristic function."""
    seen = []

    def record(t):
        seen.append(np.array(t))
        return np.ones(np.shape(t), dtype=complex)

    epsilon2(DEFAULTS, sigma_l2, sigma_s2, record)
    return seen[0]


def direct_char_fn(x, w, t):
    """Reference exp(i t x) @ w, in row blocks to bound memory."""
    return np.concatenate(
        [np.exp(1j * np.outer(t[i : i + 256], x)) @ w for i in range(0, t.size, 256)]
    )


def test_l_stats_char_fn_progression_matches_direct():
    cell, victim, stats = bread_stats(0.01, "uniform")
    dom = ue_domain(cell.region, cell.bs, victim, DEFAULT_CHANNEL.d_min_km)

    def field(p):
        return coupling_gain_L(p, cell.bs, victim, DEFAULT_CHANNEL)

    mu, _, weights, values = density_profile(dom, cell.density, field)
    assert mu == stats.mu_l
    x = values - mu
    t = eps2_frequencies(stats.sigma_l2, shadow_var(DEFAULT_CHANNEL))
    assert t.size == 2863
    got = stats.char_fn(t)
    np.testing.assert_array_equal(got, discrete_char_fn(x, weights, t))
    # The whole progression and the shortest heads: one frequency, one
    # block of two, and two blocks of which the second is half used.
    for head in (t, t[:1], t[:2], t[:3]):
        got = stats.char_fn(head)
        assert got.shape == head.shape
        assert np.abs(got - direct_char_fn(x, weights, head)).max() < 1e-13


def test_discrete_char_fn_chunk_boundaries(monkeypatch):
    # A small entry budget puts chunk edges at every atom count of interest.
    monkeypatch.setattr(channel, "_CHARFN_CHUNK_ENTRIES", 512)
    rng = np.random.default_rng(5)
    t_all = eps2_frequencies(14.0, shadow_var(DEFAULT_CHANNEL))
    assert t_all.size == 2863
    for size in (1, 2, 3, 2863):
        t = t_all[:size]
        chunk = 512 // math.ceil(math.sqrt(size))
        for n in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
            x = rng.normal(0.0, 4.0, n)
            w = rng.dirichlet(np.ones(n))
            got = discrete_char_fn(x, w, t)
            assert got.shape == t.shape
            assert np.abs(got - direct_char_fn(x, w, t)).max() < 1e-13


def test_discrete_char_fn_memory_is_bounded():
    # The working set is a fixed budget of chunks, whatever the atom count.
    rng = np.random.default_rng(6)
    x = rng.normal(0.0, 4.0, 1 << 16)
    w = np.full(x.size, 1.0 / x.size)
    t = eps2_frequencies(14.0, shadow_var(DEFAULT_CHANNEL))
    discrete_char_fn(x, w, t[:4])
    tracemalloc.start()
    try:
        discrete_char_fn(x, w, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_step1_requires_matching_cutoffs():
    # BoundParams refuses unequal cutoffs, so step1_bound never sees them.
    _, _, stats = bread_stats(0.01, "uniform")
    with pytest.raises(DomainError, match="^k2: must equal k1"):
        step1_bound(
            stats, shadow_var(DEFAULT_CHANNEL), BoundParams(k1=500.0, k2=600.0)
        )


def test_step1_frozen_components():
    _, _, stats = bread_stats(0.01, "uniform")
    e1, e2 = step1_bound(stats, shadow_var(DEFAULT_CHANNEL), DEFAULTS)
    assert e1 == pytest.approx(4e-6, abs=1e-12)
    assert e2 == pytest.approx(0.0015876676386598293, rel=1e-12)
    # combined step error lands at the small-cell scale
    assert (e1 + e2) < 10 * 3.5e-4


def test_step1_wider_cell():
    _, _, stats = bread_stats(0.02, "uniform")
    e1, e2 = step1_bound(stats, shadow_var(DEFAULT_CHANNEL), DEFAULTS)
    assert e1 + e2 == pytest.approx(0.00196283601034465, rel=1e-12)
    assert 5.2e-4 / 5 < e1 + e2 < 5.2e-4 * 5


def test_step2_none_is_exact():
    assert step2_bound(174.2, FadingModel("none"), DEFAULTS) == (0.0, 0.0)


def test_step2_scales():
    e1p, e2p = step2_bound(174.2, FadingModel("rayleigh"), DEFAULTS)
    assert 4.5e-3 / 2 < e1p + e2p < 4.5e-3 * 2
    e1p, e2p = step2_bound(174.2, FadingModel("rician", 10.0), DEFAULTS)
    assert 1.9e-4 / 2 < e1p + e2p < 1.9e-4 * 2


def test_step2_is_role_swapped_step1():
    from ulfit.channel import fading_moments

    fading = FadingModel("rician", 10.0)
    sigma_g2 = 174.2
    _, sigma_h2 = fading_moments(fading)
    e1p, e2p = step2_bound(sigma_g2, fading, DEFAULTS)
    assert e1p == epsilon1(DEFAULTS, sigma_h2, sigma_g2)
    assert e2p == epsilon2(
        DEFAULTS, sigma_h2, sigma_g2, lambda t: fading_char_fn(fading, t)
    )


def test_total_bound_uniform_rayleigh():
    cell, _, stats = bread_stats(0.01, "uniform")
    rep = total_bound(cell, stats, DEFAULT_CHANNEL, FadingModel("rayleigh"), DEFAULTS)
    assert isinstance(rep, BoundReport)
    assert rep.eps2 == pytest.approx(0.0015876676386598293, rel=1e-12)
    assert rep.eps2_prime == pytest.approx(0.004064267359893523, rel=1e-12)
    assert rep.eps_total == pytest.approx(0.005659934998553352, rel=1e-12)
    assert rep.eps_total == pytest.approx(
        rep.eps1 + rep.eps2 + rep.eps1_prime + rep.eps2_prime, rel=1e-15
    )
    assert rep.eps3 == pytest.approx(4e-6, abs=1e-15)
    assert rep.mu_l == stats.mu_l and rep.sigma_l2 == stats.sigma_l2
    assert 4.9e-3 / 2 < rep.eps_total < 4.9e-3 * 2


def test_total_bound_inverse_radial_rayleigh():
    cell, _, stats = bread_stats(0.01, "inverse_radial")
    rep = total_bound(cell, stats, DEFAULT_CHANNEL, FadingModel("rayleigh"), DEFAULTS)
    assert rep.eps2 == pytest.approx(0.001530991974163037, rel=1e-12)
    assert rep.eps2_prime == pytest.approx(0.0040754598394243686, rel=1e-12)
    assert rep.eps_total == pytest.approx(0.005614451813587405, rel=1e-12)


def test_total_bound_components_nonnegative():
    cell, _, stats = bread_stats(0.01, "uniform")
    rep = total_bound(
        cell, stats, DEFAULT_CHANNEL, FadingModel("rician", 10.0), DEFAULTS
    )
    for v in (rep.eps1, rep.eps2, rep.eps1_prime, rep.eps2_prime, rep.eps3):
        assert 0.0 <= v < 2.0


# Converged coupling-gain moments (mu_l, sigma_l2) of the r=0.01 uniform
# reference cell.
REF_MOMENTS = (-17.578425170507074, 15.356984087035926)


def _gaussian_gain_report(mu_l, sigma_l2, fading):
    """total_bound on a cell whose coupling gain is Gaussian."""
    stats = LStats(mu_l, sigma_l2, lambda t: np.exp(-0.5 * sigma_l2 * t**2))
    cell = Cell(7, (0.03, 0.0), Disk((0.03, 0.0), 0.01), UeDensity("uniform"))
    return total_bound(cell, stats, DEFAULT_CHANNEL, fading, DEFAULTS)


def test_report_step1_arithmetic():
    rep = _gaussian_gain_report(-18.0, 10.0, FadingModel("none"))
    assert rep.cell_id == 7
    assert rep.step1.mu == -94.0
    assert rep.step1.sigma2 == 174.0


def test_report_step1_reference_cell():
    g = _gaussian_gain_report(*REF_MOMENTS, FadingModel("none")).step1
    assert g.mu == pytest.approx(-93.578425170507074, rel=1e-14)
    assert g.sigma2 == pytest.approx(179.356984087035926, rel=1e-14)
    # small-cell published fit for this radius: (-94.6, 174.2)
    assert abs(g.mu - (-94.6)) < 1.5
    assert abs(g.sigma2 - 174.2) < 6.0


def test_report_step2_none_identity():
    rep = _gaussian_gain_report(-18.6, 10.2, FadingModel("none"))
    assert rep.step2 == rep.step1


def test_report_step2_rayleigh():
    # step 1 is (-94.6, 174.2), the small-cell published fit
    q = _gaussian_gain_report(-18.6, 10.2, FadingModel("rayleigh")).step2
    assert abs(q.mu - (-97.1)) < 0.1
    assert abs(q.sigma2 - 205.2) < 0.3


def test_report_step2_rician_ten():
    q = _gaussian_gain_report(-18.6, 10.2, FadingModel("rician", 10.0)).step2
    assert abs(q.mu - (-95.0)) < 0.2
    assert abs(q.sigma2 - 178.2) < 0.6
